"""Performance enhancement layer: cost-guided repair of CNN output.

The per-request classifiers are independent, so their combined argmax
can collide (several flows piling onto one EC).  The enhancement pass
starts from the argmax assignment and walks the remaining
above-threshold predictions in descending confidence, keeping any
substitution that lowers the penalized total cost.  Every intermediate
state is a valid assignment, so the search can stop anywhere.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .cost import DEFAULT_GAMMA, Assignment, class_table
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
    scores = np.maximum(0.0, O - delta)
    omega = []
    psi = []
    for k in range(O.shape[0]):
        best = int(np.argmax(O[k]))
        omega.append((k, best, float(O[k, best])))
        for c in range(O.shape[1]):
            if c != best and scores[k, c] > 0.0:
                psi.append((k, c, float(O[k, c])))
    psi.sort(key=lambda entry: (-entry[2], entry[0], entry[1]))
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
    drops.
    The result can never cost more than the plain argmax combination.
    """
    if not (0.0 <= delta < 1.0):
        raise ValueError("delta must lie in [0, 1)")
    if gamma <= 0:
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

    records = []
    for step, (k, c, p) in enumerate(queues.psi):
        displaced = classes[k]
        classes[k] = c
        tc_trial = table.price(classes, gamma=gamma)
        accepted = tc_trial < tc_current
        if accepted:
            tc_current = tc_trial
        else:
            classes[k] = displaced
        records.append((step, k, c, tc_trial, tc_current, accepted))

    if trace_path is not None:
        with open(trace_path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["iteration", "flow", "class", "tc_candidate", "tc_current", "accepted"]
            )
            for row in records:
                writer.writerow(row)
    return table.assignment(classes)
