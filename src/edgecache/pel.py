"""Performance enhancement layer: cost-guided repair of CNN output.

The per-request classifiers are independent, so their combined argmax
can collide (several flows piling onto one EC).  The enhancement pass
starts from the argmax assignment and walks the remaining
above-threshold predictions in descending confidence, keeping any
substitution that lowers the penalized total cost.  Every intermediate
state is a valid assignment, so the search can stop anywhere.

A rejected substitution leaves the classes alone, so every entry up
to the next accept is tried against the same classes: the walk prices
the rest of the queue as one stack of one-substitution class vectors
and moves on from the first strictly cheaper one.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cost import DEFAULT_GAMMA, ClassTable, check_gamma, class_table
from .instance import Instance

DEFAULT_DELTA = 0.001


@dataclass(frozen=True, eq=False)
class CandidateQueues:
    """Current per-flow picks (omega) and the exploration queue (psi).

    Both are index arrays into O.  Flow k's pick is best[k], one per
    flow.  psi is every other entry whose probability clears the
    threshold, flows[j] and classes[j] in queue order: descending
    probability, with (flow, class) breaking ties.  omega and psi give
    them as (flow, class, probability) tuples.
    """

    O: np.ndarray
    best: np.ndarray     # (K,) each flow's argmax class
    flows: np.ndarray    # (P,) psi's flows
    classes: np.ndarray  # (P,) psi's classes

    @property
    def omega(self) -> tuple[tuple[int, int, float], ...]:
        return _entries(self.O, np.arange(self.best.size), self.best)

    @property
    def psi(self) -> tuple[tuple[int, int, float], ...]:
        return _entries(self.O, self.flows, self.classes)


def _entries(O, flows, classes):
    return tuple(zip(flows.tolist(), classes.tolist(), O[flows, classes].tolist()))


def check_delta(delta: float) -> None:
    """Refuse a probability threshold outside [0, 1), NaN included."""
    if not (0.0 <= delta < 1.0):
        raise ValueError(f"delta must lie in [0, 1), got {delta}")


def build_queues(O: np.ndarray, delta: float) -> CandidateQueues:
    """Threshold the probability matrix and split it into the queues."""
    best = np.argmax(O, axis=1)
    keep = O - delta > 0.0
    keep[np.arange(O.shape[0]), best] = False
    k, c = np.nonzero(keep)
    order = np.lexsort((c, k, -O[k, c]))
    return CandidateQueues(O=O, best=best, flows=k[order], classes=c[order])


def enhance(
    i: Instance | ClassTable,
    O: np.ndarray,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
    trace_path=None,
):
    """Repair a probability matrix into a single placement.

    i is an Instance, which gives an Assignment, or the ClassTable of
    the flows to place, which gives their class vector.  O has one row
    per flow over |E|+1 classes (the last class means "leave uncached")
    and rows summing to 1.  Each queue entry is tried once: substitute
    it for its flow's current pick, price the class vector, and keep
    the change only when the penalized cost strictly drops.  The
    remaining entries are priced as one ClassTable.price stack against
    the current classes; the first strictly cheaper one is accepted,
    the ones before it are rejected with the prices a
    one-entry-at-a-time walk computes, and the walk restarts after it.
    So a queue costs one call per accept plus one, and the trace_path
    rows are those of the one-entry walk.
    The result can never cost more than the plain argmax combination.
    """
    check_delta(delta)
    check_gamma(gamma)
    table = i if isinstance(i, ClassTable) else class_table(i)
    K, C = table.T.shape
    O = np.asarray(O, dtype=float)
    if O.ndim != 2:
        raise ValueError(f"O must be 2-D (one row per flow), got shape {O.shape}")
    if O.shape[0] != K:
        raise ValueError("O must have one row per flow")
    if O.shape[1] != C:
        raise ValueError("O must have |E|+1 columns (last = uncached)")
    # np.allclose(sums, 1.0, atol=1e-6) written out: NaN and inf fail.
    if not (np.abs(O.sum(axis=1) - 1.0) <= 1e-6 + 1e-5).all():
        raise ValueError("O rows must sum to 1")

    queues = build_queues(O, delta)
    classes = queues.best
    tc_current = table.price(classes, gamma=gamma)
    flows, subs = queues.flows, queues.classes

    records = []
    step = 0
    while step < flows.size:
        m = flows.size - step
        stack = np.repeat(classes[None, :], m, axis=0)
        stack[np.arange(m), flows[step:]] = subs[step:]
        trial = table.price(stack, gamma=gamma)
        better = np.flatnonzero(trial < tc_current)
        n = int(better[0]) + 1 if better.size else m
        if trace_path is not None:
            for j, (k, c, tc_trial) in enumerate(
                zip(flows[step:][:n].tolist(), subs[step:][:n].tolist(), trial[:n].tolist())
            ):
                accepted = better.size > 0 and j == n - 1
                records.append(
                    (step + j, k, c, tc_trial, tc_trial if accepted else tc_current, accepted)
                )
        if better.size:
            classes, tc_current = stack[n - 1], float(trial[n - 1])
        step += n

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "flow", "class", "tc_candidate", "tc_current", "accepted"]
            )
            writer.writerows(records)
    return classes if table is i else table.assignment(classes)
