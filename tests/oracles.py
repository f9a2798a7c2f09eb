"""Independent reference computations used by multiple test modules."""

import itertools

import numpy as np

from edgecache.cost import (
    Assignment,
    CachingCostUndefinedError,
    class_table,
    network_tables,
    utilization,
)


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
    hops, inc = network_tables(i.topology)
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


def lower_bound(i, placements):
    """Admissible bound for a partial placement (flow -> EC or None).

    Flows absent from the mapping are free; they contribute their
    best-case transmission cost and no storage cost.  The branch and
    bound maintains the same quantity incrementally.
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
    rest = sum(table.T[k].min() for k in range(i.num_flows) if k not in placements)
    hosting = counts > 0
    caching = float((counts[hosting] / (1.0 - util[hosting])).sum())
    return i.alpha * caching + i.beta * (placed_t + rest)


def brute_force_optimum(inst):
    """Exhaustive search over every placement and, per placement, every
    serving decision; entirely independent of the branch and bound."""
    t = inst.topology
    hops, inc = network_tables(t)
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
