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
from functools import lru_cache

import numpy as np

from .cost import (
    DEFAULT_GAMMA, Assignment, assignment_from_classes, check_gamma, class_table, network_tables,
)
from .formats import integer
from .instance import Instance
from .topology import Topology

DEFAULT_RGC_EPOCHS = 500

# Epochs drafted and priced per stacked call in rgc: the first block,
# and the most that doubling after blocks with no accept reaches.
_BLOCK_START = 32
_BLOCK_MAX = 1024

# The counters that rgc(stats=) reports.
RGC_COUNTERS = ("accepted", "floor_skipped", "price_calls")


@dataclass(frozen=True)
class RgcConfig:
    epochs: int = DEFAULT_RGC_EPOCHS
    seed: int = 0
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        integer(self.epochs, "epochs", ValueError, 1)
        integer(self.seed, "seed", ValueError, 0)  # default_rng refuses it only at rgc's first draw
        check_gamma(self.gamma)


def expected_hops(i: Instance) -> np.ndarray:
    """(K, E) matrix of mobility-weighted hop counts to each EC."""
    return i.mobility @ network_tables(i.topology).hops


def gca(i: Instance) -> Assignment:
    """Nearest-EC placement; capacity-blind by design."""
    scores = expected_hops(i)
    classes = scores.argmin(axis=1)  # lowest EC index wins ties
    return assignment_from_classes(i, classes)


def _ec_neighborhoods(t: Topology) -> list[list[int]]:
    """For each EC, the ECs one hop away in the graph; ECs with no EC
    neighbour fall back to their two nearest fellow ECs."""
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


@lru_cache(maxsize=32)
def _move_table(t: Topology) -> tuple[np.ndarray, np.ndarray]:
    """Padded (E+1, width) move options per current class, and their
    counts, cached per topology (read-only).

    A flow cached at c may stay, hop to an EC adjacent to c, or drop
    out (class E); an uncached flow may stay out or enter any EC.
    """
    E = t.num_edge_clouds
    options = [[c, *nbrs, E] for c, nbrs in enumerate(_ec_neighborhoods(t))]
    options.append([E, *range(E)])
    lengths = np.array([len(o) for o in options])
    moves = np.full((E + 1, lengths.max()), E)
    for c, o in enumerate(options):
        moves[c, : len(o)] = o
    moves.flags.writeable = lengths.flags.writeable = False
    return moves, lengths


def rgc(
    i: Instance,
    cfg: RgcConfig = RgcConfig(),
    trace: list | None = None,
    stats: dict | None = None,
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
    record the accepted cost after every epoch, and a dict as stats to
    have the counters in RGC_COUNTERS added to it: accepted epochs,
    changed drafts skipped by the transmission floor, and stacked price
    calls.

    Epochs are drafted in blocks of _BLOCK_START at first; a block with
    no accept doubles the next one's size (up to _BLOCK_MAX) and an
    accept keeps it, so a run that accepts rarely makes few price
    calls.  A rejected draft leaves the state alone, so every draft up
    to the next accept is drawn and priced against the same classes:
    one rng.integers call over the (n, K) broadcast option counts draws
    the block (numpy consumes a broadcast bound element by element, as n
    successive (K,) calls would), and one ClassTable._price call prices
    it (the moves keep every class in 0..E, so no call checks them).
    Only a changed draft whose transmission floor beta * C_T lies below
    the current cost is priced: TC_N = fl(fl(alpha * C_cache) +
    fl(beta * C_T)) + gamma * hinge with every term non-negative, and
    rounding is monotone, so TC_N >= fl(beta * C_T) and a draft at or
    above the floor can never pass the strict test.  The floor and price
    share ClassTable._transmission, so they use the same float.  The
    first strictly cheaper draft is the accepted epoch; the generator is
    then rewound and redraws the block's rows up to it, leaving it where
    a per-epoch loop would, and the next block starts there.  So the
    block sizes change the price calls, never the result or the trace.
    """
    rng = np.random.default_rng(cfg.seed)
    moves, lengths = _move_table(i.topology)
    table = class_table(i)

    classes = expected_hops(i).argmin(axis=1)  # the GCA start
    tc = table.price(classes, gamma=cfg.gamma)

    counts = dict.fromkeys(RGC_COUNTERS, 0)
    done, size = 0, _BLOCK_START
    while done < cfg.epochs:
        n = min(size, cfg.epochs - done)
        bounds = lengths[classes]
        state = rng.bit_generator.state
        trials = moves[classes, rng.integers(0, np.broadcast_to(bounds, (n, bounds.size)))]
        changed = (trials != classes).any(axis=1)
        under_floor = changed & (i.beta * table._transmission(trials) < tc)
        live = np.flatnonzero(under_floor)
        priced = table._price(trials[live], cfg.gamma)
        counts["price_calls"] += 1
        better = np.flatnonzero(priced < tc)
        tc_next = tc
        if better.size:
            n = int(live[better[0]]) + 1
            rng.bit_generator.state = state
            rng.integers(0, np.broadcast_to(bounds, (n, bounds.size)))
            classes, tc_next = trials[n - 1], float(priced[better[0]])
            counts["accepted"] += 1
        else:
            size = min(2 * size, _BLOCK_MAX)
        counts["floor_skipped"] += int((changed[:n] & ~under_floor[:n]).sum())
        if trace is not None:
            trace.extend([tc] * (n - 1) + [tc_next])
        tc = tc_next
        done += n
    if stats is not None:
        for name, value in counts.items():
            stats[name] = stats.get(name, 0) + value
    return table.assignment(classes)
