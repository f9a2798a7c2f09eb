"""Exact placement optimization by depth-first branch and bound.

Each flow picks one EC or stays uncached, so the search tree has
(|E|+1)^|K| leaves.  Flows branch in descending content-size order and
children are tried cheapest-bound-first, which finds strong incumbents
early.  The admissible bound combines the storage cost already incurred
with each flow's best-case transmission cost (links ignored), so no
feasible completion is ever cheaper than the bound.

Link capacities only matter at leaves: the greedy routing is optimal
when it fits, and when it does not, serving decisions for the flows
crossing overloaded links are enumerated exhaustively (dropping an AR
only sheds load, so flows away from overloaded links can keep their
greedy routing without loss).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import cost as costmod
from .cost import Assignment, CostBreakdown, network_tables
from .instance import Instance

DEFAULT_NODE_BUDGET = 2_000_000

# Serving-subset combinations tried per leaf before giving up on the
# candidate; exceeding it downgrades the optimality proof to "bounded".
REASSIGNMENT_CAP = 100_000

_IMPROVE_EPS = 1e-9


@dataclass(frozen=True)
class OptimalSolution:
    assignment: Assignment
    cost: CostBreakdown
    nodes_explored: int
    proof: str  # "exhaustive" or "bounded"


class _Budget(Exception):
    pass


class _Search:
    def __init__(self, inst: Instance, budget: int, reassignment_cap: int):
        self.inst = inst
        self.budget = budget
        self.cap = reassignment_cap
        hops, inc = network_tables(inst.topology)
        self.table = costmod.class_table(inst)
        self.K = inst.num_flows
        self.E = inst.topology.num_edge_clouds
        self.nt = float(inst.topology.datacenter_hops)
        self.alpha = inst.alpha
        self.beta = inst.beta
        self.q = self.table.Q
        b = inst.bandwidth
        c = inst.link_capacity

        # Per (flow, EC): the ARs worth serving (from the kernel's
        # serving mask), the hop gain and path of each, the best-case
        # transmission cost and the links the serving paths touch.
        gain = inst.mobility[:, :, None] * (self.nt - hops.entries)
        self.serve: list[list[list[tuple[int, float, tuple[int, ...]]]]] = [
            [
                [
                    (int(a), float(gain[k, a, e]), inc.path_store[(int(a), e)])
                    for a in np.flatnonzero(self.table.serve[k, :, e])
                ]
                for e in range(self.E)
            ]
            for k in range(self.K)
        ]
        self.t_exact = self.table.T[:, : self.E]
        self.links_used: list[list[tuple[int, ...]]] = [
            [tuple(np.flatnonzero(self.table.links[k, e]).tolist()) for e in range(self.E)]
            for k in range(self.K)
        ]
        self.r_of = lambda k, l: b[k] / c[l]

        # Branch order: largest content first tightens bounds earliest.
        self.order = sorted(range(self.K), key=lambda k: (-inst.content_size[k], k))
        t_any = self.table.T.min(axis=1)  # T[:, E] = N_T
        self.suffix_any = [0.0] * (self.K + 1)
        for d in range(self.K - 1, -1, -1):
            self.suffix_any[d] = self.suffix_any[d + 1] + float(t_any[self.order[d]])

        self.nodes = 0
        self.cap_hit = False
        self.best_tc = self.beta * self.nt * self.K  # empty placement
        self.best_choices = [-1] * self.K
        self.best_serving: dict[int, tuple[int, ...]] = {}

    def caching_sum(self, counts, util) -> float:
        total = 0.0
        for e in range(self.E):
            if counts[e]:
                total += counts[e] / (1.0 - util[e])
        return total

    def _descend(self, depth, choices, counts, util, placed_t):
        if depth == self.K:
            self._evaluate_leaf(choices, counts, util, placed_t)
            return
        k = self.order[depth]
        children = [(self.beta * self.nt, -1)]
        for e in range(self.E):
            if util[e] + self.q[k, e] >= 1.0:
                continue  # EC capacity would be reached; reject branch
            new_summand = (counts[e] + 1) / (1.0 - util[e] - self.q[k, e])
            old_summand = counts[e] / (1.0 - util[e]) if counts[e] else 0.0
            delta = self.alpha * (new_summand - old_summand) + self.beta * self.t_exact[k, e]
            children.append((float(delta), e))
        children.sort(key=lambda ce: (ce[0], self.E if ce[1] < 0 else ce[1]))

        for _, e in children:
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            if e < 0:
                new_counts, new_util = counts, util
                new_placed = placed_t + self.nt
            else:
                new_counts = counts.copy()
                new_util = util.copy()
                new_counts[e] += 1
                new_util[e] += self.q[k, e]
                new_placed = placed_t + float(self.t_exact[k, e])
            bound = (
                self.alpha * self.caching_sum(new_counts, new_util)
                + self.beta * (new_placed + self.suffix_any[depth + 1])
            )
            if bound >= self.best_tc - _IMPROVE_EPS:
                continue
            choices[k] = e
            self._descend(depth + 1, choices, new_counts, new_util, new_placed)
            choices[k] = -1

    def _evaluate_leaf(self, choices, counts, util, placed_t):
        load: dict[int, float] = {}
        for k in range(self.K):
            e = choices[k]
            if e < 0:
                continue
            for l in self.links_used[k][e]:
                load[l] = load.get(l, 0.0) + self.r_of(k, l)
        overloaded = {l for l, v in load.items() if v > 1.0 + 1e-9}

        if not overloaded:
            tc = self.alpha * self.caching_sum(counts, util) + self.beta * placed_t
            if tc < self.best_tc - _IMPROVE_EPS:
                self.best_tc = tc
                self.best_choices = choices.copy()
                self.best_serving = {}
            return

        affected = [
            k for k in range(self.K)
            if choices[k] >= 0 and overloaded & set(self.links_used[k][choices[k]])
        ]
        base_load: dict[int, float] = {}
        for k in range(self.K):
            e = choices[k]
            if e < 0 or k in affected:
                continue
            for l in self.links_used[k][e]:
                base_load[l] = base_load.get(l, 0.0) + self.r_of(k, l)

        combos = 1
        for k in affected:
            combos *= 2 ** len(self.serve[k][choices[k]])
            if combos > self.cap:
                self.cap_hit = True
                return

        # Subset options per affected flow: (lost gain, link load deltas, served ARs)
        options = []
        for k in affected:
            entries = self.serve[k][choices[k]]
            total_gain = sum(g for _, g, _ in entries)
            opts = []
            for mask in range(2 ** len(entries)):
                kept_gain = 0.0
                links: set[int] = set()
                served = []
                for bit, (a, gain, path) in enumerate(entries):
                    if mask >> bit & 1:
                        kept_gain += gain
                        links.update(path)
                        served.append(a)
                contrib = {l: self.r_of(k, l) for l in links}
                opts.append((total_gain - kept_gain, contrib, tuple(served)))
            opts.sort(key=lambda o: o[0])
            options.append(opts)

        best_extra = None
        best_combo = None
        for combo in itertools.product(*options):
            extra = sum(o[0] for o in combo)
            if best_extra is not None and extra >= best_extra:
                continue
            trial = dict(base_load)
            ok = True
            for _, contrib, _ in combo:
                for l, v in contrib.items():
                    nl = trial.get(l, 0.0) + v
                    if nl > 1.0 + 1e-9:
                        ok = False
                        break
                    trial[l] = nl
                if not ok:
                    break
            if ok:
                best_extra = extra
                best_combo = combo
        if best_extra is None:
            return  # no routing satisfies the link capacities
        tc = (
            self.alpha * self.caching_sum(counts, util)
            + self.beta * (placed_t + best_extra)
        )
        if tc < self.best_tc - _IMPROVE_EPS:
            self.best_tc = tc
            self.best_choices = choices.copy()
            self.best_serving = {
                k: opt[2] for k, opt in zip(affected, best_combo)
            }

    def build_solution(self) -> Assignment:
        classes = np.array([self.E if e < 0 else e for e in self.best_choices])
        asg = self.table.assignment(classes)
        if not self.best_serving:
            return asg
        z = asg.z.copy()
        for k, served in self.best_serving.items():
            z[k] = 0
            z[k, list(served), classes[k]] = 1
        return Assignment(x=asg.x, z=z, y=costmod.path_links(self.inst, z))


def solve_exact(
    i: Instance,
    budget: int = DEFAULT_NODE_BUDGET,
    reassignment_cap: int = REASSIGNMENT_CAP,
) -> OptimalSolution:
    """Minimize total cost over placements; exact within the node budget.

    Returns the best placement found.  proof == "exhaustive" guarantees
    no feasible assignment has a lower total cost (beyond a 1e-9 slack);
    "bounded" means the budget or the reassignment cap cut the search
    short and the result is the best incumbent.  The empty placement is
    always feasible, so a solution always exists.
    """
    search = _Search(i, budget, reassignment_cap)
    exhausted = False
    try:
        search._descend(0, [-1] * search.K, [0] * search.E, [0.0] * search.E, 0.0)
    except _Budget:
        exhausted = True
    asg = search.build_solution()
    breakdown = costmod.cost_breakdown(i, asg)
    proof = "bounded" if (exhausted or search.cap_hit) else "exhaustive"
    return OptimalSolution(
        assignment=asg,
        cost=breakdown,
        nodes_explored=search.nodes,
        proof=proof,
    )

