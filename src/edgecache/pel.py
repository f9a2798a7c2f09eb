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

from .cost import DEFAULT_GAMMA, Assignment, assignment_from_classes, class_table
from .instance import Instance

DEFAULT_DELTA = 0.001


@dataclass(frozen=True)
class CandidateQueues:
    """Current per-flow picks (omega) and the exploration queue (psi).

    omega holds exactly one (flow, class, probability) entry per flow.
    psi holds every other entry whose probability clears the threshold,
    sorted by descending probability with (flow, class) breaking ties.
    """

    omega: tuple[tuple[int, int, float], ...]
    psi: tuple[tuple[int, int, float], ...]


def build_queues(O: np.ndarray, delta: float) -> CandidateQueues:
    """Threshold the probability matrix and split it into the queues."""
    flows = np.arange(O.shape[0])
    best = np.argmax(O, axis=1)
    keep = O - delta > 0.0
    keep[flows, best] = False
    k, c = np.nonzero(keep)
    p = O[k, c]
    order = np.lexsort((c, k, -p))
    omega = zip(flows.tolist(), best.tolist(), O[flows, best].tolist())
    psi = zip(k[order].tolist(), c[order].tolist(), p[order].tolist())
    return CandidateQueues(omega=tuple(omega), psi=tuple(psi))


def enhance(
    i: Instance,
    O: np.ndarray,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
    trace_path=None,
) -> Assignment:
    """Repair a probability matrix into a single assignment.

    O has one row per flow over |E|+1 classes (the last class means
    "leave uncached") and rows summing to 1.  Each queue entry is tried
    once: substitute it for its flow's current pick, price the class
    vector, and keep the change only when the penalized cost strictly
    drops.  The remaining entries are priced as one ClassTable.price
    stack against the current classes; the first strictly cheaper one
    is accepted, the ones before it are rejected with the prices a
    one-entry-at-a-time walk computes, and the walk restarts after it.
    So a queue costs one call per accept plus one, and the trace_path
    rows are those of the one-entry walk.
    The result can never cost more than the plain argmax combination.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    O = np.asarray(O, dtype=float)
    if O.shape[0] != i.num_flows:
        raise ValueError("O must have one row per flow")
    if O.shape[1] != i.topology.num_edge_clouds + 1:
        raise ValueError("O must have |E|+1 columns (last = uncached)")
    if not np.allclose(O.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("O rows must sum to 1")

    queues = build_queues(O, delta)
    table = class_table(i)
    classes = np.array([c for _, c, _ in queues.omega])
    tc_current = table.price(classes, gamma=gamma)
    psi = np.array([(k, c) for k, c, _ in queues.psi], dtype=int).reshape(-1, 2)

    records = []
    while len(records) < len(psi):
        step = len(records)
        flows, subs = psi[step:].T
        stack = np.repeat(classes[None, :], flows.size, axis=0)
        stack[np.arange(flows.size), flows] = subs
        trial = table.price(stack, gamma=gamma)
        better = np.flatnonzero(trial < tc_current)
        n = int(better[0]) + 1 if better.size else flows.size
        for j, (k, c, tc_trial) in enumerate(
            zip(flows[:n].tolist(), subs[:n].tolist(), trial[:n].tolist())
        ):
            accepted = better.size > 0 and j == n - 1
            if accepted:
                classes, tc_current = stack[j], tc_trial
            records.append((step + j, k, c, tc_trial, tc_current, accepted))

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "flow", "class", "tc_candidate", "tc_current", "accepted"]
            )
            for row in records:
                writer.writerow(row)
    return assignment_from_classes(i, classes)
