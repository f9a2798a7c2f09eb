"""Exact placement optimization by depth-first branch and bound.

Each flow picks one EC or stays uncached, so the search tree has
(|E|+1)^|K| leaves.  Flows branch in descending content-size order and
children are tried cheapest-bound-first, which finds strong incumbents
early.  The admissible bound adds, to the cost of the flows already
placed, each unplaced flow's cheapest stand-alone cost (links ignored):

    f_k = min(beta * N_T, min over e with q_ke < 1 of alpha / (1 - q_ke) + beta * T[k, e])

Caching a flow at e raises the storage sum by at least 1/(1 - q_ke)
whatever e already holds, so no feasible completion is ever cheaper
than the bound.  The f_k are summed once into a suffix over the branch
order, and the storage sum is carried down the tree, so a node costs a
handful of float operations.  A child's bound is the node's own part
plus the child's sort key, so once one key passes the incumbent's cut
every later child fails the bound too: the node lists only the
children under the cut, stops at the first that passes it, and counts
the rest as tried without testing them.  The set-up tables (link
bitmasks, free-flow suffix, beta * T rows) are built by array code.

Link capacities only matter at leaves: the greedy routing is optimal
when it fits, and when it does not, the flows crossing overloaded
links pick their serving subsets by a depth-first search, cheapest
lost gain first, that prunes on the best loss so far and on any
overloaded link (dropping an AR only sheds load, so flows away from
overloaded links can keep their greedy routing without loss).

Each node carries its link loads down the tree with its storage state:
the greedy loads of the flows branched above it, summed in branch order,
built from its parent's on first use, so a search-bound proof builds
few.  The last level (_evaluate_leaves) reads its state once and judges
each of its leaves in one loop, with no call and no state of the leaf's
own: it adds the last flow's loads, and prices a leaf that overloads no
link at once.  Branch-order sums can differ from flow-order ones in the
last bits, so a link loaded within 1e-6 of 1 is re-summed in flow order
before the overload test; every decision is the one the flow-order sums
give.

The link state also holds the (link bitmask, serving-AR count) pairs of
its flows, and the serving subsets of the flows on a set of links are
counted off them: past REASSIGNMENT_CAP a leaf gives up.  The last
level settles that once for all its leaves: a link that the flows above
them load past 1 + 1e-6 ends overloaded at every leaf, and the last
flow can only add a pair.  So when the pairs on those links pass the
cap, each leaf that survives the bound is counted as a cap hit without
being judged.  Otherwise an overloaded leaf counts the pairs on its own
overloaded links, its own pair included, and only a leaf under the cap
re-serves its flows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import cost as costmod
from .cost import _OVERLOAD, Assignment, CostBreakdown, network_tables
from .formats import integer
from .instance import Instance

DEFAULT_NODE_BUDGET = 2_000_000

# Serving-subset combinations tried per leaf before giving up on the
# candidate; exceeding it downgrades the optimality proof to "bounded".
REASSIGNMENT_CAP = 100_000

_IMPROVE_EPS = 1e-9

# A child's bound is base + key in exact arithmetic, where base =
# alpha * stored + beta * placed_t + rest is its node's part and key =
# alpha * step + beta * T[k, c] its sort key; the bound test sums the
# same nonnegative terms in another grouping.  Near the incumbent every
# term is at most about best_tc, which starts at the empty placement's
# beta * N_T * K, so the test's sum, base + key and the node's cut
# best_tc - _IMPROVE_EPS + _SLACK - base differ by a few roundings of
# best_tc: under 1e-14 * best_tc.  For any cost below 1e4 a key past
# the cut thus fails the test, and only the keys under it need one.
_SLACK = 1e-9

# A link is overloaded above cost's _OVERLOAD, its load summed over the
# flows in flow order (k = 0..K-1), as cost judges it.  A sum of K
# nonnegative floats lies within (K - 1)*eps*load of the exact sum in
# any order (eps = 2**-52), so branch-order and flow-order sums
# lie at most 2K*eps*load apart: under 1e-12 for loads near 1 up to
# K = 2,000.  A branch-order load outside 1 +- _RECHECK is thus on the
# same side of _OVERLOAD as the flow-order one, and only a link inside
# that band needs its flow-order sum.
_RECHECK = 1e-6


@dataclass(frozen=True)
class OptimalSolution:
    assignment: Assignment
    cost: CostBreakdown
    nodes_explored: int
    proof: str  # "exhaustive" or "bounded"


class _Budget(Exception):
    pass


@lru_cache(maxsize=4096)
def _bits(mask: int) -> tuple[tuple[int, int], ...]:
    """(link, bit) of each link in a link bitmask, in ascending link order."""
    rows = []
    while mask:
        bit = mask & -mask
        rows.append((bit.bit_length() - 1, bit))
        mask ^= bit
    return tuple(rows)


class _Search:
    """Branch and bound over class vectors: flow k takes class c in 0..E,
    and class E (uncached) has T[k, E] = N_T and empty serving rows."""

    def __init__(self, inst: Instance, budget: int):
        self.inst = inst
        self.budget = budget
        net = network_tables(inst.topology)
        self.table = costmod.class_table(inst)
        self.K = inst.num_flows
        self.E = inst.topology.num_edge_clouds
        self.L = inst.topology.num_links
        nt = float(inst.topology.datacenter_hops)
        self.alpha = alpha = inst.alpha
        self.beta = beta = inst.beta
        # Plain Python rows: node arithmetic on floats, not numpy scalars.
        self.q = self.table.Q.tolist()
        self.t = self.table.T.tolist()
        bt = beta * self.table.T  # the child keys' transmission terms
        self.bt = bt.tolist()
        self.r = self.table.r.tolist()  # b_k / c_l
        # Only overloaded leaves re-serve flows, so they alone read the
        # hop gains and paths (_cheapest_serving); the cap needs just the
        # counts, and class E serves no AR.
        self.hops_saved = nt - net.hops  # (A, E) per unit of served mass
        self.paths = net.path_store
        self.serve_count = [row + [0] for row in self.table.serve.sum(axis=1).tolist()]  # (K, E+1)

        # Per (flow, class): the bitmask of the links on the serving paths
        # (bit l for link l), as a Python int of any width; _bits lists its
        # links.  Class E's is 0.
        # Row j = k * (E+1) + c is bytes j*w..(j+1)*w of one packed buffer.
        packed = np.packbits(self.table.links, axis=-1, bitorder="little")
        buf, w, C = packed.tobytes(), packed.shape[-1], self.E + 1
        self.masks = [
            [int.from_bytes(buf[j * w : (j + 1) * w], "little") for j in range(k * C, (k + 1) * C)]
            for k in range(self.K)
        ]

        # Branch order: largest content first tightens bounds earliest;
        # the stable sort breaks ties by flow index.
        self.order = np.argsort(-inst.content_size, kind="stable").tolist()
        # suffix[d]: the free-flow bound of the flows branched at depth >= d,
        # summed from the last flow up; ECs with q >= 1 cannot take a flow.
        Q = self.table.Q
        stand = np.divide(alpha, 1.0 - Q, out=np.full_like(Q, np.inf), where=Q < 1.0)
        free = np.minimum(bt[:, self.E], (stand + bt[:, : self.E]).min(axis=1, initial=np.inf))
        self.suffix = np.cumsum(free[self.order[::-1]])[::-1].tolist() + [0.0]

        self.nodes = 0
        self.leaves = 0
        self.overloaded_leaves = 0
        self.cap_hits = 0
        self.bound_prunes = 0
        self.doomed_leaves = 0
        self.flow_order_rechecks = 0
        self.best_tc = self.beta * nt * self.K  # empty placement
        self.best_choices = [self.E] * self.K
        self.best_serving: dict[int, tuple[int, ...]] = {}

    def _descend(self, depth, choices, counts, util, placed_t, stored, cell):
        """stored carries the caching sum of counts/util down the tree, cell
        the link state.  The last level's children are leaves, and
        _evaluate_leaves tries them."""
        k = self.order[depth]
        alpha, beta, E = self.alpha, self.beta, self.E
        q, t, bt = self.q[k], self.t[k], self.bt[k]
        rest = self.suffix[depth + 1]
        # A child's bound is base + key; past cut it fails (see _SLACK).
        base = alpha * stored + beta * placed_t + rest
        cut = self.best_tc - _IMPROVE_EPS + _SLACK - base
        children = [(bt[E], E, 0.0)] if bt[E] <= cut else []
        untried = 1
        for e in range(E):
            if util[e] + q[e] >= 1.0:
                continue  # EC capacity would be reached; reject branch
            untried += 1
            if bt[e] > cut:  # alpha * step >= 0, so key >= bt[e]
                continue
            new_summand = (counts[e] + 1) / (1.0 - util[e] - q[e])
            old_summand = counts[e] / (1.0 - util[e]) if counts[e] else 0.0
            step = new_summand - old_summand
            key = alpha * step + bt[e]
            if key <= cut:
                children.append((key, e, step))
        children.sort()

        if depth == self.K - 1:
            untried -= self._evaluate_leaves(
                children, base, choices, counts, util, placed_t, stored, cell
            )
        else:
            for key, c, step in children:
                if key > cut:  # so is every later key: all fail the bound
                    break
                untried -= 1
                self.nodes += 1
                if self.nodes > self.budget:
                    raise _Budget
                new_placed = placed_t + t[c]
                bound = alpha * (stored + step) + beta * new_placed + rest
                if bound >= self.best_tc - _IMPROVE_EPS:
                    self.bound_prunes += 1
                    continue
                if c == E:  # uncached: storage untouched
                    new_counts, new_util = counts, util
                else:
                    new_counts = counts.copy()
                    new_util = util.copy()
                    new_counts[c] += 1
                    new_util[c] += q[c]
                choices[k] = c
                self._descend(
                    depth + 1, choices, new_counts, new_util, new_placed, stored + step,
                    [None, cell, k, c],
                )
                cut = self.best_tc - _IMPROVE_EPS + _SLACK - base
        # The children left untested count as tried, up to the budget.
        self.nodes += untried
        self.bound_prunes += untried
        if self.nodes > self.budget:
            self.bound_prunes -= self.nodes - self.budget
            self.nodes = self.budget + 1
            raise _Budget

    def _evaluate_leaves(self, children, base, choices, counts, util, placed_t, stored, cell):
        """Try the last level's sorted children, which are leaves, as
        _descend tries its own, and return how many were tried.  The
        node's link state is read once, at the first leaf that passes the
        bound.  Each leaf adds the last flow's loads to it and judges
        every link on flow-order sums (see _RECHECK).  A leaf that
        overloads no link keeps its greedy routing and is priced at once.
        An overloaded one gives up past REASSIGNMENT_CAP and otherwise
        re-serves the flows on its overloaded links (_cheapest_serving)."""
        k = self.order[-1]
        alpha, beta, E = self.alpha, self.beta, self.E
        q, t, rk, masks, serve = self.q[k], self.t[k], self.r[k], self.masks[k], self.serve_count[k]
        best = self.best_tc - _IMPROVE_EPS
        cut = best + _SLACK - base
        tried = 0
        state = None
        for key, c, step in children:
            if key > cut:  # so is every later key: all fail the bound
                break
            tried += 1
            self.nodes += 1
            if self.nodes > self.budget:
                raise _Budget
            new_placed = placed_t + t[c]
            # No flow is left unplaced: the bound's rest is 0.
            if alpha * (stored + step) + beta * new_placed >= best:
                self.bound_prunes += 1
                continue
            self.leaves += 1
            if state is None:
                load, near_above, sure, pairs = state = self._links(cell)
                # The links in sure stay overloaded at every leaf (see
                # _RECHECK) and the last flow can only add a pair.
                doomed = 1 << sum(n for m, n in pairs if m & sure) > REASSIGNMENT_CAP
            if doomed:  # the leaf would give up at REASSIGNMENT_CAP
                self.overloaded_leaves += 1
                self.cap_hits += 1
                self.doomed_leaves += 1
                continue
            choices[k] = c
            mask = masks[c]
            near, over = near_above, sure
            for l, bit in _bits(mask):
                v = load[l] + rk[l]
                if v > 1.0 - _RECHECK:
                    near |= bit
                    if v >= 1.0 + _RECHECK:
                        over |= bit
            band = near & ~over
            while band:
                bit = band & -band
                band ^= bit
                l = bit.bit_length() - 1
                self.flow_order_rechecks += 1
                v = 0.0
                for j, cj in enumerate(choices):
                    if self.masks[j][cj] & bit:
                        v += self.r[j][l]
                if v > _OVERLOAD:
                    over |= bit

            extra, serving = 0.0, {}
            if over:
                self.overloaded_leaves += 1
                # The serving subsets of the flows on the overloaded links.
                n = serve[c] if mask & over else 0
                for m, count in pairs:
                    if m & over:
                        n += count
                if 1 << n > REASSIGNMENT_CAP:
                    self.cap_hits += 1
                    continue
                found = self._cheapest_serving(choices, over)
                if found is None:
                    continue
                extra, serving = found
            # The caching sum over the ECs, with flow k's class in it.
            stored_sum = 0.0
            for e in range(E):
                n, u = counts[e], util[e]
                if e == c:
                    n, u = n + 1, u + q[c]
                if n:
                    stored_sum += n / (1.0 - u)
            tc = alpha * stored_sum + beta * (new_placed + extra)
            if tc < best:
                self.best_tc = tc
                self.best_choices = choices.copy()
                self.best_serving = serving
                best = tc - _IMPROVE_EPS
                cut = best + _SLACK - base
        return tried

    def _links(self, cell):
        """A node's link state, kept in its cell [state, parent cell, k, c]
        and built on first use: the parent's state with flow k in class c
        added, as (branch-order loads, bitmask of the links loaded above
        1 - _RECHECK, bitmask of those at or above 1 + _RECHECK, which end
        overloaded as loads only grow, the (link bitmask, serving-AR count)
        pair of each flow on a link).  No state is written in place."""
        state, parent, k, c = cell
        if state is None:
            state = self._links(parent)
            mask = self.masks[k][c]
            if mask:
                load, near, sure, pairs = state
                load = load.copy()
                rk = self.r[k]
                for l, bit in _bits(mask):
                    load[l] += rk[l]
                    if load[l] > 1.0 - _RECHECK:
                        near |= bit
                        if load[l] >= 1.0 + _RECHECK:
                            sure |= bit
                state = load, near, sure, pairs + ((mask, self.serve_count[k][c]),)
            cell[0] = state
        return state

    def _cheapest_serving(self, choices, over):
        """The cheapest re-serving of the flows on the overloaded links
        `over`, as (lost hop gain, {flow: served ARs}); None when no
        serving fits the links.  The caller has checked REASSIGNMENT_CAP."""
        # Affected flows are cached: class E touches no link.  The others
        # keep their greedy loads, summed in flow order.
        affected = []
        base_load = [0.0] * self.L
        for k, c in enumerate(choices):
            if self.masks[k][c] & over:
                affected.append(k)
            else:
                for l, _ in _bits(self.masks[k][c]):
                    base_load[l] += self.r[k][l]

        # Per affected flow, every serving subset as (lost hop gain, link
        # loads, served ARs), cheapest loss first.
        options = []
        for k in affected:
            e = choices[k]
            ars = np.flatnonzero(self.table.serve[k, :, e])
            gains = (self.inst.mobility[k, ars] * self.hops_saved[ars, e]).tolist()
            entries = [(a, g, self.paths[(a, e)]) for a, g in zip(ars.tolist(), gains)]
            rk = self.r[k]
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
                contrib = [(l, rk[l]) for l in links]
                opts.append((total_gain - kept_gain, contrib, tuple(served)))
            opts.sort(key=lambda o: o[0])
            options.append(opts)

        # Depth-first over the flows' options, visiting combinations in
        # lexicographic order, so the first cheapest feasible one wins.
        # Lost gains are >= 0 and each list is sorted: the first option
        # reaching the best loss ends its level.  Loads only grow: an
        # option that overloads a link fails with every completion.
        best_extra = float("inf")
        best_combo = None

        def walk(depth, extra, load, combo):
            nonlocal best_extra, best_combo
            if depth == len(options):
                best_extra, best_combo = extra, combo
                return
            for opt in options[depth]:
                if extra + opt[0] >= best_extra:
                    return
                trial = load.copy()
                for l, v in opt[1]:
                    trial[l] += v
                    if trial[l] > _OVERLOAD:
                        break
                else:
                    walk(depth + 1, extra + opt[0], trial, combo + (opt,))

        walk(0, 0, base_load, ())
        if best_combo is None:
            return None  # no routing satisfies the link capacities
        return best_extra, {k: opt[2] for k, opt in zip(affected, best_combo)}

    def solution(self) -> tuple[Assignment, CostBreakdown]:
        """The incumbent's assignment and cost.  A greedy-routed incumbent
        is read off the class table; a re-served one has its flows'
        retrieval rows replaced and is priced by cost_breakdown."""
        asg = self.table.assignment(self.best_choices)
        if not self.best_serving:
            return asg, self.table.breakdown(self.best_choices)
        z = asg.z.copy()
        for k, served in self.best_serving.items():
            z[k] = 0
            z[k, list(served), self.best_choices[k]] = 1
        asg = Assignment(x=asg.x, z=z, y=costmod.path_links(self.inst, z))
        return asg, costmod.cost_breakdown(self.inst, asg)


# The _Search attributes that solve_exact(stats=) reports.
SOLVER_COUNTERS = (
    "nodes", "leaves", "overloaded_leaves", "cap_hits", "doomed_leaves", "flow_order_rechecks",
    "bound_prunes",
)


def check_budget(budget) -> None:
    """Refuse a node budget that is not an integer >= 1 (NaN would never
    run out, and a fraction is no count)."""
    integer(budget, "budget", ValueError, 1)


def solve_exact(
    i: Instance, budget: int = DEFAULT_NODE_BUDGET, stats: dict | None = None
) -> OptimalSolution:
    """Minimize total cost over placements; exact within the node budget.

    Returns the best placement found.  proof == "exhaustive" guarantees
    no feasible assignment has a lower total cost (beyond a 1e-9 slack);
    "bounded" means the budget or the reassignment cap cut the search
    short and the result is the best incumbent.  The empty placement is
    always feasible, so a solution always exists.

    Pass a dict as stats to have the search's counters added to it, by
    the names in SOLVER_COUNTERS: nodes tried, leaves reached, leaves
    whose greedy routing overloads a link, leaves given up at
    REASSIGNMENT_CAP (all of them), those of them settled from the links
    that the flows above them surely overload, without the last flow's
    loads (doomed_leaves), links re-summed in flow order because their
    branch-order load lay within 1e-6 of 1 (at the other leaves only),
    and children that failed the bound, tested or counted untested past
    the cut (bound_prunes).
    """
    check_budget(budget)
    search = _Search(i, budget)
    exhausted = False
    try:
        root = [([0.0] * search.L, 0, 0, ()), None, None, None]  # no flow branched yet
        search._descend(0, [search.E] * search.K, [0] * search.E, [0.0] * search.E, 0.0, 0.0, root)
    except _Budget:
        exhausted = True
    if stats is not None:
        for name in SOLVER_COUNTERS:
            stats[name] = stats.get(name, 0) + getattr(search, name)
    asg, breakdown = search.solution()
    proof = "bounded" if (exhausted or search.cap_hits) else "exhaustive"
    return OptimalSolution(
        assignment=asg,
        cost=breakdown,
        nodes_explored=search.nodes,
        proof=proof,
    )
