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
and moves on from the first strictly cheaper one.  The first stack
carries the argmax vector as its row 0, and an accept updates the rows
after it in place, so a queue costs accepts + 1 price calls (accepts
alone when its last entry is accepted).
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
    """Threshold the probability matrix and split it into the queues.

    np.nonzero lists the kept cells in (flow, class) order, so one
    stable sort by descending probability breaks ties by (flow, class).
    """
    best = np.argmax(O, axis=1)
    keep = O - delta > 0.0
    keep[np.arange(O.shape[0]), best] = False
    k, c = np.nonzero(keep)
    order = np.argsort(-O[k, c], kind="stable")
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
    per flow over |E|+1 classes (the last class means "leave uncached"),
    entries in [0, 1] and rows summing to 1.  Each queue entry is tried
    once: substitute it for its flow's current pick, price the class
    vector, and keep the change only when the penalized cost strictly
    drops.  The remaining entries are priced as one ClassTable price
    stack against the current classes, the first stack led by the
    argmax vector itself; the first strictly cheaper entry is accepted,
    the ones before it are rejected with the prices a
    one-entry-at-a-time walk computes, and the walk restarts after it
    on the same stack, each remaining row updated in place.  So a queue
    costs one price call per accept plus one (one fewer when its last
    entry is accepted), and the trace_path rows are those of the
    one-entry walk.  The result can never cost more than the plain
    argmax combination.
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
    if not (O.min() >= 0.0 and O.max() <= 1.0):
        raise ValueError("O entries must lie in [0, 1]")

    queues = build_queues(O, delta)
    flows, subs = queues.flows, queues.classes
    # Row 0 is the argmax vector, row 1 + j the one-substitution vector of
    # queue entry j; an accept leaves the rows after it to be priced next.
    stack = np.repeat(queues.best[None, :], flows.size + 1, axis=0)
    stack[np.arange(1, flows.size + 1), flows] = subs
    trial = table._price(stack, gamma)
    classes, tc_current = stack[0], float(trial[0])

    records = []
    step = 0
    rest, trial = stack[1:], trial[1:]
    while rest.size:
        cheaper = trial < tc_current
        first = int(cheaper.argmax())
        found = bool(cheaper[first])
        n = first + 1 if found else len(rest)
        if trace_path is not None:
            for j, (k, c, tc_trial) in enumerate(
                zip(flows[step:][:n].tolist(), subs[step:][:n].tolist(), trial[:n].tolist())
            ):
                accepted = found and j == n - 1
                records.append(
                    (step + j, k, c, tc_trial, tc_trial if accepted else tc_current, accepted)
                )
        step += n
        if not found:
            break
        classes, tc_current = rest[n - 1], float(trial[n - 1])
        rest = rest[n:]
        if rest.size:
            # Only column k changed; a row substituting flow k keeps its own class.
            k = flows[step - 1]
            rest[flows[step:] != k, k] = subs[step - 1]
            trial = table._price(rest, gamma)

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "flow", "class", "tc_candidate", "tc_current", "accepted"]
            )
            writer.writerows(records)
    return classes if table is i else table.assignment(classes)
