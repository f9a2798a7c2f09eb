"""Independent reference computations used by multiple test modules."""

import csv
import itertools
import re
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from edgecache.baselines import RgcConfig, _ec_neighborhoods, expected_hops
from edgecache.cost import (
    DEFAULT_GAMMA,
    Assignment,
    CachingCostUndefinedError,
    ClassTable,
    assignment_from_classes,
    class_table,
    cost_breakdown,
    labels_of,
    path_links,
    utilization,
    _OVERLOAD,
)
from edgecache.cnn import BatchNorm, _im2col, predict_all, softmax
from edgecache.encoder import encode, split_subimages, update_residual
from edgecache.instance import ratios
from edgecache.solver import REASSIGNMENT_CAP, _IMPROVE_EPS, _RECHECK, _SLACK, _Budget, _bits
from edgecache.topology import TopologyError, hop_matrix, incidence_tensor


def caching_cost_via_linearization(i, x):
    """Caching cost through the auxiliary t_e and chi_ke = t_e * x_ke variables."""
    u = utilization(i, x)
    if (u >= 1.0).any():
        raise CachingCostUndefinedError("utilization at or above 1")
    t = 1.0 / (1.0 - u)
    chi = t[None, :] * x
    return float(chi.sum())


def derive_routing_loop(i, x):
    """Per-flow routing loop: every AR a flow may appear at retrieves from
    the nearest cached EC when that beats the datacenter (hops < N_T)."""
    hops = hop_matrix(i.topology)
    inc = incidence_tensor(i.topology, hops)
    K, A = i.mobility.shape
    E = i.topology.num_edge_clouds
    L = i.topology.num_links
    n_t = i.topology.datacenter_hops

    x = np.asarray(x, dtype=np.int8)
    z = np.zeros((K, A, E), dtype=np.int8)
    for k in range(K):
        cached = np.flatnonzero(x[k])
        if cached.size == 0:
            continue
        for a in np.flatnonzero(i.mobility[k] > 0):
            e_best = cached[np.argmin(hops.entries[a, cached])]
            if hops.entries[a, e_best] < n_t:
                z[k, a, e_best] = 1

    b_flat = inc.entries.reshape(L, A * E)
    y = (b_flat @ z.reshape(K, A * E).T > 0).T.astype(np.int8)
    return Assignment(x=x, z=z, y=y)


def validate_assignment_reference(x, z, y):
    """Assignment's checks as first written, one full pass per check in
    a fixed order, so the first violation found names the error."""
    K, E = x.shape
    if z.shape[0] != K or z.shape[2] != E:
        raise ValueError("z shape inconsistent with x")
    if y.shape[0] != K:
        raise ValueError("y shape inconsistent with x")
    for name, arr in (("x", x), ("z", z), ("y", y)):
        if not ((arr == 0) | (arr == 1)).all():
            raise ValueError(f"{name} must be binary")
    if (x.sum(axis=1) > 1).any():
        raise ValueError("a flow is placed at more than one EC")
    if (z.sum(axis=2) > 1).any():
        raise ValueError("a (flow, AR) pair retrieves from more than one EC")
    if (z > x[:, None, :]).any():
        raise ValueError("retrieval from an EC that does not cache the flow")


def class_table_reference(i):
    """class_table as first written, from the uncached network tables:
    a (K, E+1, A, E) int8 retrieval tensor z per (flow, class), its
    served mass priced by the hop arithmetic of cost._flow_hops, and its
    links from float64 path counts."""
    hops = hop_matrix(i.topology)
    inc = incidence_tensor(i.topology, hops)
    K, A = i.mobility.shape
    E = i.topology.num_edge_clouds
    L = inc.entries.shape[0]
    nt = i.topology.datacenter_hops
    rat = ratios(i)
    serve = (i.mobility[:, :, None] > 0) & (hops.entries < nt)
    # z[k, c] is flow k's retrieval tensor at class c: column c only, none at c = E.
    z = np.zeros((K, E + 1, A, E), dtype=np.int8)
    ecs = np.arange(E)
    z[:, ecs, :, ecs] = serve.transpose(2, 0, 1)
    served = i.mobility[:, None, :, None] * z
    hit = (served * hops.entries).sum(axis=(-2, -1))
    miss = (1.0 - served.sum(axis=(-2, -1))) * nt
    paths = inc.entries.reshape(L, -1).astype(np.float64) @ z.reshape(K * (E + 1), -1).T
    links = (paths > 0).T.astype(np.int8).reshape(K, E + 1, L)
    return ClassTable(
        inst=i,
        serve=serve,
        links=links,
        hit=hit,
        miss=miss,
        T=hit + miss,
        Q=rat.q,
        r=rat.r,
        onehot=np.eye(E + 1, E, dtype=np.int8),
        rows=np.arange(K),
    )


def price_reference(table, classes, gamma=DEFAULT_GAMMA):
    """ClassTable.price before its rows were fused: utilization and
    counts from the one-hot placement rows, link load from a separate
    (K, E+1, L) table of r * links, each gathered and summed over flows
    on its own.  Returns a float for a (K,) vector, an array for a stack."""
    classes = np.asarray(classes)
    x = table.onehot[classes]
    load = (table.r[:, None, :] * table.links)[table.rows, classes].sum(axis=-2)
    u = (table.Q * x).sum(axis=-2)
    counts = x.sum(axis=-2)
    cc = np.where(
        u < 1.0,
        counts / (1.0 - np.minimum(u, 1.0 - 1e-12)),
        counts * (1.0 / (1.0 - 0.99)),
    ).sum(axis=-1)
    hinge = np.maximum(0.0, u - 1.0).sum(axis=-1) + np.maximum(0.0, load - 1.0).sum(axis=-1)
    i = table.inst
    priced = i.alpha * cc + i.beta * table.transmission(classes) + gamma * hinge
    return float(priced) if np.ndim(priced) == 0 else priced


def lower_bound(i, placements):
    """Admissible bound for a partial placement (flow -> EC or None).

    Placed flows pay their storage and best-case transmission.  Each
    flow absent from the mapping pays its cheapest stand-alone class,
    min(beta*N_T, min over e with q_ke < 1 of alpha/(1-q_ke) + beta*T[k,e]):
    adding a flow to EC e raises the storage sum by at least 1/(1-q_ke),
    whatever e already holds.  The branch and bound adds the same
    per-flow terms from a precomputed suffix.
    """
    table = class_table(i)
    E = i.topology.num_edge_clouds
    counts = np.zeros(E)
    util = np.zeros(E)
    placed_t = 0.0
    for k, e in placements.items():
        if e is None:
            placed_t += table.T[k, E]
        else:
            counts[e] += 1
            util[e] += table.Q[k, e]
            placed_t += table.T[k, e]
    with np.errstate(divide="ignore"):
        cached = np.where(
            table.Q < 1.0, i.alpha / (1.0 - table.Q) + i.beta * table.T[:, :E], np.inf
        )
    stand_alone = np.minimum(i.beta * table.T[:, E], cached.min(axis=1))
    rest = sum(stand_alone[k] for k in range(i.num_flows) if k not in placements)
    hosting = counts > 0
    caching = float((counts[hosting] / (1.0 - util[hosting])).sum())
    return i.alpha * caching + i.beta * placed_t + rest


def brute_force_optimum(inst):
    """Exhaustive search over every placement and, per placement, every
    serving decision; entirely independent of the branch and bound."""
    t = inst.topology
    hops = hop_matrix(t)
    inc = incidence_tensor(t, hops)
    K = inst.num_flows
    E = t.num_edge_clouds
    nt = float(t.datacenter_hops)

    serve_options = {}  # (k, e) -> list of (a, p, hops, link set)
    for k in range(K):
        for e in range(E):
            opts = []
            for a in np.flatnonzero(inst.mobility[k] > 0):
                n_ae = float(hops.entries[a, e])
                links = {l for l in range(t.num_links) if inc.entries[l, a, e]}
                opts.append((int(a), float(inst.mobility[k, a]), n_ae, links))
            serve_options[(k, e)] = opts

    best = None
    for classes in itertools.product(range(E + 1), repeat=K):
        x = np.zeros((K, E), dtype=np.int8)
        for k, c in enumerate(classes):
            if c < E:
                x[k, c] = 1
        u = utilization(inst, x)
        if (u >= 1.0).any():
            continue
        counts = x.sum(axis=0)
        cc = sum(counts[e] / (1 - u[e]) for e in range(E) if counts[e])

        per_flow_choices = []
        for k, c in enumerate(classes):
            if c >= E:
                per_flow_choices.append([(nt, {})])
                continue
            opts = serve_options[(k, c)]
            flow_choices = []
            for mask in range(2 ** len(opts)):
                hit = 0.0
                served_mass = 0.0
                links: set = set()
                for bit, (a, p, n_ae, path) in enumerate(opts):
                    if mask >> bit & 1:
                        hit += p * n_ae
                        served_mass += p
                        links |= path
                cost_k = hit + (1 - served_mass) * nt
                load = {l: inst.bandwidth[k] / inst.link_capacity[l] for l in links}
                flow_choices.append((cost_k, load))
            per_flow_choices.append(flow_choices)

        for combo in itertools.product(*per_flow_choices):
            loads: dict = {}
            ok = True
            for _, load in combo:
                for l, v in load.items():
                    loads[l] = loads.get(l, 0.0) + v
            for l, v in loads.items():
                if v > 1.0 + 1e-9:
                    ok = False
                    break
            if not ok:
                continue
            tc = inst.alpha * cc + inst.beta * sum(c for c, _ in combo)
            if best is None or tc < best:
                best = tc
    return best


def precision_of(predicted, actual) -> float:
    """Fraction of per-flow class decisions that match the labels."""
    matches = 0
    total = 0
    for pred_row, true_row in zip(predicted, actual):
        for a, b in zip(pred_row, true_row):
            matches += int(a == b)
            total += 1
    if total == 0:
        raise ValueError("no decisions to score")
    return matches / total


def rgc_reference(i, cfg=RgcConfig(), trace=None, stats=None):
    """RGC with one scalar draw and one Python option list per flow per
    epoch, pricing every changed draft: the loop the vectorized rgc
    must reproduce decision for decision.  A stats dict gets the count
    of accepted epochs, the epochs themselves (1-based, as accepted_at),
    and the changed drafts at or above the transmission floor
    beta * C_T, which rgc skips unpriced."""
    rng = np.random.default_rng(cfg.seed)
    E = i.topology.num_edge_clouds
    neighborhoods = _ec_neighborhoods(i.topology)
    table = class_table(i)

    classes = expected_hops(i).argmin(axis=1)  # the GCA start
    tc = table.price(classes, gamma=cfg.gamma)
    accepted_at, floor_skipped = [], 0

    for epoch in range(1, cfg.epochs + 1):
        trial_classes = classes.copy()
        for k in range(i.num_flows):
            if classes[k] >= E:  # currently uncached: stay out or re-enter
                options = [E] + list(range(E))
            else:
                options = [classes[k]] + list(neighborhoods[classes[k]]) + [E]
            trial_classes[k] = options[int(rng.integers(0, len(options)))]
        if (trial_classes != classes).any():
            floor_skipped += i.beta * table.transmission(trial_classes) >= tc
            trial_tc = table.price(trial_classes, gamma=cfg.gamma)
            if trial_tc < tc:
                classes = trial_classes
                tc = trial_tc
                accepted_at.append(epoch)
        if trace is not None:
            trace.append(tc)
    if stats is not None:
        stats.update(accepted=len(accepted_at), accepted_at=accepted_at, floor_skipped=floor_skipped)
    return assignment_from_classes(i, classes)


Queues = namedtuple("Queues", "omega psi")


def build_queues_reference(O, delta):
    """PEL's queues cell by cell, as (flow, class, probability) tuples:
    each row's argmax is its omega entry, every other cell with
    max(0, O - delta) > 0 joins psi, and psi is sorted by descending
    probability, then flow, then class."""
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
    return Queues(omega=tuple(omega), psi=tuple(psi))


def enhance_reference(i, O, delta, gamma, trace_path=None):
    """PEL with one price call per queue entry: substitute the entry,
    price the class vector, keep it only on a strict drop.  The loop the
    stacked enhance must reproduce entry for entry, trace rows included.
    Takes inputs enhance has already validated."""
    queues = build_queues_reference(np.asarray(O, dtype=float), delta)
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
    return assignment_from_classes(i, classes)


def subset_flows(i, indices):
    """Instance restricted to the given flows (capacities unchanged)."""
    idx = np.asarray(indices, dtype=int)
    return replace(
        i, mobility=i.mobility[idx], content_size=i.content_size[idx], bandwidth=i.bandwidth[idx]
    )


def recursive_allocate_reference(models, i, block, norm, delta, gamma):
    """Recursive allocation with a sub-instance per block: cut the
    block's flows out of the residual instance, encode and pad it,
    predict, run the one-entry PEL walk on it, and take the residual
    from the materialized block assignment by update_residual.  Only
    residual blocks are encoded with clip=True."""
    classes = np.full(i.num_flows, i.topology.num_edge_clouds)
    residual = i
    for start in range(0, i.num_flows, block):
        chunk = list(range(start, min(start + block, i.num_flows)))
        sub = subset_flows(residual, chunk)
        sub_norm = replace(norm, clip=True) if start else norm
        img = split_subimages(encode(sub, sub_norm), len(models))[0]
        O = predict_all(models, img)[: len(chunk)]
        asg = enhance_reference(sub, O, delta, gamma)
        classes[chunk] = labels_of(asg.x)
        left = update_residual(sub, asg, clamp=True)
        residual = replace(residual, ec_space=left.ec_space, link_capacity=left.link_capacity)
    return assignment_from_classes(i, classes)


def incidence_walk(t, h):
    """Canonical paths by walking every (AR, EC) pair step by step, choosing
    the smallest-id neighbour one hop closer to the EC at each node.
    Returns (entries, path_store) as incidence_tensor defines them."""
    entries = np.zeros(
        (t.num_links, t.num_access_routers, t.num_edge_clouds), dtype=np.int8
    )
    to_ec = [t.bfs_distances(e) for e in t.edge_clouds]
    path_store = {}
    for i, a in enumerate(t.access_routers):
        for j, e in enumerate(t.edge_clouds):
            dist = to_ec[j]
            node, link_ids = a, []
            while node != e:
                step = min(nb for nb in t.adjacency[node] if dist[nb] == dist[node] - 1)
                link_ids.append(t.link_index[(node, step)])
                node = step
            if len(link_ids) != h.entries[i, j]:
                raise TopologyError(f"path length mismatch for AR {a} -> EC {e}")
            path_store[(i, j)] = tuple(link_ids)
            entries[link_ids, i, j] = 1
    return entries, path_store


def descend_reference(self, depth, choices, counts, util, placed_t, stored, cell):
    """The solver's node in its first form, patched in for
    `solver._Search._descend`: it builds, sorts and tests every child
    one at a time, with no early exit, and counts no bound_prunes.  The
    last level descends into each leaf it does not settle, and the leaf
    is evaluated one at a time (carried_leaf_reference).  stored carries
    the caching sum of counts/util down the tree and cell the link
    state, as in _descend."""
    if depth == self.K:
        self.leaves += 1
        carried_leaf_reference(self, choices, counts, util, placed_t, self._links(cell))
        return
    k = self.order[depth]
    alpha, beta, E = self.alpha, self.beta, self.E
    q, t = self.q[k], self.t[k]
    children = [(beta * t[E], E, 0.0)]
    for e in range(E):
        if util[e] + q[e] >= 1.0:
            continue  # EC capacity would be reached; reject branch
        new_summand = (counts[e] + 1) / (1.0 - util[e] - q[e])
        old_summand = counts[e] / (1.0 - util[e]) if counts[e] else 0.0
        step = new_summand - old_summand
        children.append((alpha * step + beta * t[e], e, step))
    children.sort()

    rest = self.suffix[depth + 1]
    last = depth == self.K - 1
    doomed = None  # the last level's cap verdict, settled at its first surviving child
    for _, c, step in children:
        self.nodes += 1
        if self.nodes > self.budget:
            raise _Budget
        new_placed = placed_t + t[c]
        if alpha * (stored + step) + beta * new_placed + rest >= self.best_tc - _IMPROVE_EPS:
            continue
        if last:
            if doomed is None:
                links = self._links(cell)
                # The links in sure stay overloaded at every leaf (see
                # _RECHECK) and the last flow can only add a pair.
                doomed = _over_cap(links[3], links[2])
            if doomed:  # the leaf would give up at REASSIGNMENT_CAP
                self.leaves += 1
                self.overloaded_leaves += 1
                self.cap_hits += 1
                self.doomed_leaves += 1
                continue
        if c == E:  # uncached: storage untouched
            new_counts, new_util = counts, util
        else:
            new_counts = counts.copy()
            new_util = util.copy()
            new_counts[c] += 1
            new_util[c] += q[c]
        choices[k] = c
        down = cell if last else [None, cell, k, c]  # a leaf reads its parent's state
        self._descend(depth + 1, choices, new_counts, new_util, new_placed, stored + step, down)


def _over_cap(pairs, over):
    """Whether the flows on the links `over`, given as (link bitmask,
    serving-AR count) pairs, have more than REASSIGNMENT_CAP serving
    subsets between them."""
    return 1 << sum(count for mask, count in pairs if mask & over) > REASSIGNMENT_CAP


def carried_leaf_reference(search, choices, counts, util, placed_t, links):
    """The solver's leaf when each leaf was a call of its own: the link
    state of the flows above it (`links`) plus the last flow's loads,
    with a link within _RECHECK of 1 re-summed in flow order (k =
    0..K-1).  An overloaded leaf checks the cap on the carried pairs
    plus its own and re-serves its flows by the solver's
    `_cheapest_serving`."""
    last = search.order[-1]
    cls = choices[last]
    load, near, over, pairs = links
    rk = search.r[last]
    for l, bit in _bits(search.masks[last][cls]):
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
        search.flow_order_rechecks += 1
        v = 0.0
        for k, c in enumerate(choices):
            if search.masks[k][c] & bit:
                v += search.r[k][l]
        if v > _OVERLOAD:
            over |= bit

    extra, serving = 0.0, {}
    if over:
        search.overloaded_leaves += 1
        pair = (search.masks[last][cls], search.serve_count[last][cls])
        if _over_cap(pairs + (pair,), over):
            search.cap_hits += 1
            return
        found = search._cheapest_serving(choices, over)
        if found is None:
            return
        extra, serving = found
    stored = sum(c / (1.0 - u) for c, u in zip(counts, util) if c)
    tc = search.alpha * stored + search.beta * (placed_t + extra)
    if tc < search.best_tc - _IMPROVE_EPS:
        search.best_tc = tc
        search.best_choices = choices.copy()
        search.best_serving = serving


def leaves_reference(search, children, base, choices, counts, util, placed_t, stored, cell):
    """The last level with every leaf evaluated by the flow-order
    evaluate_leaf_reference, patched in for
    `solver._Search._evaluate_leaves`: it tries and bound-tests the
    children as the solver does, settles no leaf at the node, and
    returns how many children it tried."""
    k = search.order[-1]
    alpha, beta, E = search.alpha, search.beta, search.E
    tried = 0
    for key, c, step in children:
        if key > search.best_tc - _IMPROVE_EPS + _SLACK - base:
            break  # so is every later key, as in the solver
        tried += 1
        search.nodes += 1
        if search.nodes > search.budget:
            raise _Budget
        new_placed = placed_t + search.t[k][c]
        if alpha * (stored + step) + beta * new_placed >= search.best_tc - _IMPROVE_EPS:
            search.bound_prunes += 1
            continue
        search.leaves += 1
        new_counts, new_util = list(counts), list(util)
        if c != E:
            new_counts[c] += 1
            new_util[c] += search.q[k][c]
        choices[k] = c
        evaluate_leaf_reference(search, choices, new_counts, new_util, new_placed)
    return tried


def solution_reference(search):
    """A finished search's incumbent as solve_exact once built it:
    materialized from its classes, its re-served flows' retrieval rows
    replaced, its links re-derived, and priced by cost_breakdown."""
    asg = assignment_from_classes(search.inst, search.best_choices)
    if search.best_serving:
        z = asg.z.copy()
        for k, served in search.best_serving.items():
            z[k] = 0
            z[k, list(served), search.best_choices[k]] = 1
        asg = Assignment(x=asg.x, z=z, y=path_links(search.inst, z))
    return asg, cost_breakdown(search.inst, asg)


def evaluate_leaf_reference(search, choices, counts, util, placed_t):
    """The solver's leaf in its first form, called by leaves_reference:
    it reads no carried link state, sums all K flows' link loads in flow
    order (k = 0..K-1), finds the overloaded links and the affected
    flows with sets, and prices a leaf with no overload through the same base-load pass and walk as an
    overloaded one.  It counts overloaded leaves and cap hits as the
    solver does, and re-sums no link, so it adds no flow-order recheck."""
    if not hasattr(search, "_reference_rows"):
        # Per (flow, class): (link, b_k/c_l) in ascending link order, and
        # the set of those links.
        search._reference_rows = [
            [[(l, search.r[k][l]) for l in np.flatnonzero(search.table.links[k, c]).tolist()]
             for c in range(search.E + 1)]
            for k in range(search.K)
        ]
        search._reference_links = [
            [frozenset(dict(r)) for r in rs] for rs in search._reference_rows
        ]
    rows, links_used = search._reference_rows, search._reference_links
    load = [0.0] * search.L
    for k, c in enumerate(choices):
        for l, v in rows[k][c]:
            load[l] += v
    overloaded = {l for l, v in enumerate(load) if v > 1.0 + 1e-9}
    if overloaded:
        search.overloaded_leaves += 1

    affected = [
        k for k, c in enumerate(choices) if not overloaded.isdisjoint(links_used[k][c])
    ]
    combos = 1
    for k in affected:
        combos *= 2 ** search.serve_count[k][choices[k]]
        if combos > REASSIGNMENT_CAP:
            search.cap_hits += 1
            return

    base_load = [0.0] * search.L
    for k, c in enumerate(choices):
        if k in affected:
            continue
        for l, v in rows[k][c]:
            base_load[l] += v

    options = []
    for k in affected:
        e = choices[k]
        ars = np.flatnonzero(search.table.serve[k, :, e])
        gains = (search.inst.mobility[k, ars] * search.hops_saved[ars, e]).tolist()
        entries = [(a, g, search.paths[(a, e)]) for a, g in zip(ars.tolist(), gains)]
        rk = search.r[k]
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
                if trial[l] > 1.0 + 1e-9:
                    break
            else:
                walk(depth + 1, extra + opt[0], trial, combo + (opt,))

    walk(0, 0, base_load, ())
    if best_combo is None:
        return
    stored = sum(c / (1.0 - u) for c, u in zip(counts, util) if c)
    tc = search.alpha * stored + search.beta * (placed_t + best_extra)
    if tc < search.best_tc - 1e-9:
        search.best_tc = tc
        search.best_choices = choices.copy()
        search.best_serving = {k: opt[2] for k, opt in zip(affected, best_combo)}


def infer_reference(models, x):
    """Inference of a list of models of one architecture over one image
    x (1, h, w, 1), stacking their weights and statistics on every call:
    each conv stage one np.matmul over a leading model axis, batch norm
    and ReLU out of place with (K, 1, 1, C) broadcasts, and the dense
    layer one product per model.  Row k is models[k]'s probabilities."""
    K = len(models)
    for li in range(0, len(models[0].layers) - 1, 3):
        n, h, w, cin = x.shape
        convs = [m.layers[li] for m in models]
        bns = [m.layers[li + 1] for m in models]
        weights = np.stack([conv.params["w"].reshape(9 * cin, -1) for conv in convs])
        bias = np.stack([conv.params["b"] for conv in convs])[:, None, :]
        x = np.matmul(_im2col(x).reshape(n, h * w, 9 * cin), weights) + bias
        mean = np.stack([bn.running_mean for bn in bns])[:, None, None, :]
        var = np.stack([bn.running_var for bn in bns])[:, None, None, :]
        scale = np.stack([bn.params["scale"] for bn in bns])[:, None, None, :]
        shift = np.stack([bn.params["shift"] for bn in bns])[:, None, None, :]
        ivar = 1.0 / np.sqrt(var + BatchNorm.eps)
        x = scale * ((x.reshape(K, h, w, -1) - mean) * ivar) + shift
        x = x * (x > 0)
    flat = np.broadcast_to(x.reshape(x.shape[0], 1, -1), (K, 1, x[0].size))
    dense = [m.layers[-1].params for m in models]
    return softmax(np.concatenate([flat[k] @ d["w"] + d["b"] for k, d in enumerate(dense)]))


# The LP-text reader: export_milp's differential oracle.  Parsing the
# exported text back must give lpfile.milp_model term for term.


def im2col_reference(x):
    """3x3 same-padded patches by the nine shifted slices, one tap at a
    time: (n, h, w, cin) -> (n, h, w, 9*cin) in x's dtype."""
    n, h, w, cin = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((n, h, w, 9 * cin), x.dtype)
    idx = 0
    for di in range(3):
        for dj in range(3):
            cols[..., idx * cin : (idx + 1) * cin] = xp[:, di : di + h, dj : dj + w, :]
            idx += 1
    return cols


# The training kernels in their first, plainer form: the conv input
# gradient through a zero-padded buffer, batch norm in two passes
# (np.mean and np.var, then (x - mean) * ivar) and out-of-place
# arithmetic throughout, every buffer in its input's dtype.  Patched
# onto the layer classes, they must train bit-equal models.


def conv3x3_backward_reference(conv, dout, input_grad=True):
    cols, (n, h, w, cin) = conv._cache
    conv._cache = None
    cout = dout.shape[-1]
    dflat = dout.reshape(-1, cout)
    cols2 = cols.reshape(-1, 9 * cin)
    conv.grads["w"][...] = (cols2.T @ dflat).reshape(conv.params["w"].shape)
    conv.grads["b"][...] = dflat.sum(axis=0)
    if not input_grad:
        return None
    dcols = (dflat @ conv.params["w"].reshape(9 * cin, cout).T).reshape(n, h, w, 9 * cin)
    dxp = np.zeros((n, h + 2, w + 2, cin), dout.dtype)
    idx = 0
    for di in range(3):
        for dj in range(3):
            dxp[:, di : di + h, dj : dj + w, :] += dcols[..., idx * cin : (idx + 1) * cin]
            idx += 1
    return dxp[:, 1 : h + 1, 1 : w + 1, :]


def batchnorm_forward_reference(bn, x, train):
    bn._train_mode = train
    if train:
        mean = x.mean(axis=(0, 1, 2))
        var = x.var(axis=(0, 1, 2))
        bn.running_mean = bn.momentum * bn.running_mean + (1 - bn.momentum) * mean
        bn.running_var = bn.momentum * bn.running_var + (1 - bn.momentum) * var
    else:
        mean, var = bn.running_mean, bn.running_var
    ivar = 1.0 / np.sqrt(var + bn.eps)
    xhat = (x - mean) * ivar
    bn._cache = (xhat, ivar)
    return bn.params["scale"] * xhat + bn.params["shift"]


def batchnorm_backward_reference(bn, dout):
    xhat, ivar = bn._cache
    bn._cache = None
    bn.grads["scale"][...] = (dout * xhat).sum(axis=(0, 1, 2))
    bn.grads["shift"][...] = dout.sum(axis=(0, 1, 2))
    dxhat = dout * bn.params["scale"]
    if not bn._train_mode:
        return dxhat * ivar
    n_eff = xhat.shape[0] * xhat.shape[1] * xhat.shape[2]
    sum_dxhat = dxhat.sum(axis=(0, 1, 2))
    sum_dxhat_xhat = (dxhat * xhat).sum(axis=(0, 1, 2))
    return (ivar / n_eff) * (n_eff * dxhat - sum_dxhat - xhat * sum_dxhat_xhat)


def dense_backward_reference(dense, dout, input_grad=True):
    flat, shape = dense._cache
    dense._cache = None
    dense.grads["w"][...] = flat.T @ dout
    dense.grads["b"][...] = dout.sum(axis=0)
    return (dout @ dense.params["w"].T).reshape(shape) if input_grad else None


def relu_forward_reference(relu, x, train):
    relu._mask = x > 0
    return x * relu._mask


def relu_backward_reference(relu, dout):
    mask, relu._mask = relu._mask, None
    return dout * mask


class LpFormatError(ValueError):
    """Raised when parsing text that does not follow the LP grammar."""


@dataclass
class LpConstraint:
    name: str
    coefficients: dict[str, float]
    sense: str  # "<=", ">=", "="
    rhs: float


@dataclass
class LpModel:
    objective: dict[str, float]
    objective_constant: float
    constraints: list[LpConstraint]
    binaries: set[str] = field(default_factory=set)

    @property
    def variables(self) -> list[str]:
        seen: dict[str, None] = {}
        for name in self.objective:
            seen.setdefault(name)
        for con in self.constraints:
            for name in con.coefficients:
                seen.setdefault(name)
        for name in self.binaries:
            seen.setdefault(name)
        return list(seen)


_NUMBER = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SECTIONS = {
    "minimize": "objective",
    "min": "objective",
    "maximize": "objective_max",
    "max": "objective_max",
    "subject": "constraints",
    "st": "constraints",
    "s.t.": "constraints",
    "bounds": "bounds",
    "binaries": "binaries",
    "binary": "binaries",
    "bin": "binaries",
    "generals": "generals",
    "general": "generals",
    "end": "end",
}


def _parse_expression(tokens: list[str]) -> tuple[dict[str, float], float]:
    """Accumulate 'sign coefficient? name | sign constant' runs."""
    coeffs: dict[str, float] = {}
    constant = 0.0
    sign = 1.0
    pending: float | None = None
    for tok in tokens:
        if tok == "+":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = 1.0
        elif tok == "-":
            if pending is not None:
                constant += sign * pending
                pending = None
            sign = -1.0
        elif _NUMBER.match(tok):
            if pending is not None:
                constant += sign * pending
            pending = float(tok)
        else:
            coef = sign * (pending if pending is not None else 1.0)
            coeffs[tok] = coeffs.get(tok, 0.0) + coef
            pending = None
            sign = 1.0
    if pending is not None:
        constant += sign * pending
    return coeffs, constant


def parse_lp(text: str) -> LpModel:
    """Parse LP-format text (the subset covering what export_milp emits,
    plus unnamed rows and split lines, which the grammar allows)."""
    # Strip comments, split section keywords out.
    tokens: list[str] = []
    for raw in text.splitlines():
        line = raw.split("\\", 1)[0]
        line = line.replace("<=", " <= ").replace(">=", " >= ")
        line = re.sub(r"(?<![<>=])=(?![<>=])", " = ", line)
        # Keep "Subject To" as one marker before tokenizing.
        line = re.sub(r"(?i)subject\s+to", " subject_to ", line)
        for tok in line.split():
            tokens.append(tok)

    model = LpModel(objective={}, objective_constant=0.0, constraints=[])
    section = None
    buffer: list[str] = []
    row_name: str | None = None

    def flush_objective():
        nonlocal buffer
        if buffer and buffer[0].endswith(":"):
            buffer = buffer[1:]
        coeffs, constant = _parse_expression(buffer)
        model.objective = coeffs
        model.objective_constant = constant
        buffer = []

    def flush_constraint():
        nonlocal buffer, row_name
        if not buffer:
            return
        sense_at = [idx for idx, tok in enumerate(buffer) if tok in ("<=", ">=", "=")]
        if len(sense_at) != 1:
            raise LpFormatError(f"constraint without a single sense: {' '.join(buffer)}")
        idx = sense_at[0]
        lhs, rhs_tokens = buffer[:idx], buffer[idx + 1 :]
        if len(rhs_tokens) != 1 or not _NUMBER.match(rhs_tokens[0]):
            raise LpFormatError(f"bad right-hand side: {' '.join(rhs_tokens)}")
        coeffs, constant = _parse_expression(lhs)
        if constant:
            raise LpFormatError("constant on constraint left-hand side")
        model.constraints.append(
            LpConstraint(
                name=row_name or f"r{len(model.constraints)}",
                coefficients=coeffs,
                sense=buffer[idx],
                rhs=float(rhs_tokens[0]),
            )
        )
        buffer = []
        row_name = None

    i = 0
    while i < len(tokens):
        tok = tokens[i]
        low = tok.lower()
        marker = "constraints" if low == "subject_to" else _SECTIONS.get(low)
        if marker and ":" not in tok:
            if section == "objective":
                flush_objective()
            elif section == "constraints":
                flush_constraint()
            if marker == "objective_max":
                raise LpFormatError("maximization files are not supported")
            if marker == "end":
                break
            section = marker
            i += 1
            continue

        if section == "objective":
            buffer.append(tok)
        elif section == "constraints":
            if tok.endswith(":") and len(tok) > 1:
                flush_constraint()
                row_name = tok[:-1]
            else:
                buffer.append(tok)
        elif section == "binaries":
            model.binaries.add(tok)
        elif section in ("bounds", "generals"):
            pass  # not emitted by the writer; accepted and ignored
        else:
            raise LpFormatError(f"token {tok!r} before any section")
        i += 1
    else:
        raise LpFormatError("missing End marker")

    if section == "objective":
        flush_objective()
    return model

