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
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")


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


def _move_table(i: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Padded (E+1, width) move options per current class, and their counts.

    A flow cached at c may stay, hop to an EC adjacent to c, or drop
    out (class E); an uncached flow may stay out or enter any EC.
    """
    E = i.topology.num_edge_clouds
    options = [[c, *nbrs, E] for c, nbrs in enumerate(_ec_neighborhoods(i))]
    options.append([E, *range(E)])
    lengths = np.array([len(o) for o in options])
    moves = np.full((E + 1, lengths.max()), E)
    for c, o in enumerate(options):
        moves[c, : len(o)] = o
    return moves, lengths


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

    The move options of every class sit in one padded table, built
    before the loop, and each epoch drafts all flows with a single
    rng.integers call over the per-flow option counts.  An array bound
    consumes the generator exactly like one scalar call per flow in
    flow order, so the drafts are those of a per-flow loop.  A draft
    is priced only when its transmission floor beta * C_T lies below
    the current cost: TC_N = fl(fl(alpha * C_cache) + fl(beta * C_T))
    + gamma * hinge with every term non-negative, and rounding is
    monotone, so TC_N >= fl(beta * C_T) and a draft at or above the
    floor can never pass the strict test.  The floor and price share
    ClassTable.transmission, so they use the same float and no
    decision changes.
    """
    rng = np.random.default_rng(cfg.seed)
    moves, lengths = _move_table(i)
    table = class_table(i)

    classes = expected_hops(i).argmin(axis=1)  # the GCA start
    tc = table.price(classes, gamma=cfg.gamma)

    for _ in range(cfg.epochs):
        trial = moves[classes, rng.integers(0, lengths[classes])]
        if (trial != classes).any() and i.beta * table.transmission(trial) < tc:
            trial_tc = table.price(trial, gamma=cfg.gamma)
            if trial_tc < tc:
                classes = trial
                tc = trial_tc
        if trace is not None:
            trace.append(tc)
    return assignment_from_classes(i, classes)
