"""Greedy comparison heuristics.

GCA places every flow at the EC with the fewest mobility-weighted
expected hops, ignoring capacities entirely, so it can and does produce
infeasible assignments under load.  RGC starts from GCA and runs a
seeded random local search: move a random flow to a random EC adjacent
to its current one (or drop it from the cache), keeping the move only
when the penalized cost strictly decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import DEFAULT_GAMMA, Assignment, assignment_from_classes, class_table, network_tables
from .instance import Instance

DEFAULT_RGC_EPOCHS = 500


@dataclass(frozen=True)
class RgcConfig:
    epochs: int = DEFAULT_RGC_EPOCHS
    seed: int = 0
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def expected_hops(i: Instance) -> np.ndarray:
    """(K, E) matrix of mobility-weighted hop counts to each EC."""
    hops, _ = network_tables(i.topology)
    return i.mobility @ hops.entries.astype(float)


def gca(i: Instance) -> Assignment:
    """Nearest-EC placement; capacity-blind by design."""
    scores = expected_hops(i)
    classes = scores.argmin(axis=1)  # lowest EC index wins ties
    return assignment_from_classes(i, classes)


def _ec_neighborhoods(i: Instance) -> list[list[int]]:
    """For each EC, the ECs one hop away in the graph; ECs with no EC
    neighbour fall back to their two nearest fellow ECs."""
    t = i.topology
    ec_index = {node: j for j, node in enumerate(t.edge_clouds)}
    neighborhoods = []
    for j, node in enumerate(t.edge_clouds):
        adjacent = [ec_index[nb] for nb in t.adjacency[node] if nb in ec_index]
        if not adjacent and len(t.edge_clouds) > 1:
            dist = t.bfs_distances(node)
            others = sorted(
                (ec_index[e] for e in t.edge_clouds if e != node),
                key=lambda jj: (dist[t.edge_clouds[jj]], jj),
            )
            adjacent = others[:2]
        neighborhoods.append(adjacent)
    return neighborhoods


def rgc(
    i: Instance, cfg: RgcConfig = RgcConfig(), trace: list | None = None
) -> Assignment:
    """Randomized greedy caching: seeded local search started from GCA.

    Every epoch drafts a whole new assignment: each flow independently
    stays put, hops to an EC adjacent to its current one, or drops out
    of the cache (an uncached flow may stay out or re-enter anywhere).
    The draft replaces the current assignment only when it strictly
    lowers the penalized cost, so the cost trace is non-increasing and
    the result never costs more than the GCA start.  Joint redraws make
    the exploration increasingly blunt as the flow count grows, which
    is the known weakness of this baseline.  Pass a list as trace to
    record the accepted cost after every epoch.
    """
    rng = np.random.default_rng(cfg.seed)
    E = i.topology.num_edge_clouds
    neighborhoods = _ec_neighborhoods(i)
    table = class_table(i)

    classes = expected_hops(i).argmin(axis=1)  # the GCA start
    tc = table.price(classes, gamma=cfg.gamma)

    for _ in range(cfg.epochs):
        trial_classes = classes.copy()
        for k in range(i.num_flows):
            if classes[k] >= E:  # currently uncached: stay out or re-enter
                options = [E] + list(range(E))
            else:
                options = [classes[k]] + list(neighborhoods[classes[k]]) + [E]
            trial_classes[k] = options[int(rng.integers(0, len(options)))]
        if (trial_classes != classes).any():
            trial_tc = table.price(trial_classes, gamma=cfg.gamma)
            if trial_tc < tc:
                classes = trial_classes
                tc = trial_tc
        if trace is not None:
            trace.append(tc)
    return table.assignment(classes)
