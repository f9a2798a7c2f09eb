"""The caching MILP: one sparse definition and its LP-format export.

milp_model builds the exact mixed-integer linear program as named
columns and sparse rows, which array-based solvers read directly;
export_milp renders it in the industry-standard LP text grammar so any
external solver can cross-check the built-in branch and bound.  The
nonlinear storage term is linearized through the auxiliary variables
t_e (the per-EC cost multiplier 1 / (1 - U_e)) and chi_ke = t_e * x_ke,
tied together with big-M rows.

Note the big-M choice caps t_e at M, which bounds utilization away
from 1 by 1/M; the default M = 10 * |K| is configurable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import network_tables
from .instance import Instance, ratios


def default_big_m(num_flows: int) -> float:
    return 10.0 * num_flows


def variable_census(K: int, A: int, E: int, L: int) -> dict[str, int]:
    """Variable counts per family for a K-flow problem."""
    census = {
        "x": K * E,
        "y": K * L,
        "z": K * A * E,
        "t": E,
        "chi": K * E,
    }
    census["total"] = sum(census.values())
    return census


def constraint_census(K: int, A: int, E: int, L: int) -> dict[str, int]:
    """Constraint row counts per family (bounds and binaries excluded)."""
    census = {
        "placement_limit": K,          # one EC at most per flow
        "ec_capacity": E,
        "unique_retrieval": K * A,
        "retrieval_requires_cache": K * A * E,
        "link_capacity": L,
        "link_lower": K * L,           # y <= sum B z
        "link_upper": K * L,           # M y >= sum B z
        "t_definition": E,
        "chi_le_t": K * E,
        "chi_le_mx": K * E,
        "chi_ge_t_minus_m": K * E,
    }
    census["total"] = sum(census.values())
    return census


@dataclass(frozen=True)
class Milp:
    """The caching MILP as named columns and sparse rows.

    Columns run x, y, z (the first num_binary, each binary), then t and
    chi (continuous, >= 0).  The objective and each row keep their terms
    in the order export_milp writes them, and zero coefficients are left
    out.  entries lists (row, column, coefficient) grouped by row.
    """

    columns: list[str]
    num_binary: int
    objective: list[tuple[int, float]]
    constant: float
    row_names: list[str]
    senses: list[str]  # "<=", ">=" or "="
    rhs: list[float]
    entries: list[tuple[int, int, float]]


def milp_model(i: Instance, big_m: float | None = None) -> Milp:
    """The full optimization problem of one instance as a Milp.

    big_m defaults to 10 K; any value that is not finite and >= 1 raises
    ValueError."""
    if big_m is None:
        big_m = default_big_m(i.num_flows)
    if not (math.isfinite(big_m) and big_m >= 1):
        # tdef forces t_e >= 1, and chigate/chibind force t_e <= M where x_ke = 1.
        raise ValueError(f"big_m must be finite and >= 1, got {big_m!r}")
    net = network_tables(i.topology)
    q, _ = ratios(i)
    K = i.num_flows
    A = i.topology.num_access_routers
    E = i.topology.num_edge_clouds
    L = i.topology.num_links
    nt = float(i.topology.datacenter_hops)

    columns: list[str] = []

    def family(prefix: str, *shape: int) -> np.ndarray:
        start = len(columns)
        columns.extend(f"{prefix}_" + "_".join(map(str, ix)) for ix in np.ndindex(*shape))
        return np.arange(start, len(columns)).reshape(shape)

    x, y, z = family("x", K, E), family("y", K, L), family("z", K, A, E)
    num_binary = len(columns)
    t, chi = family("t", E), family("chi", K, E)

    def nonzero(terms) -> list[tuple[int, float]]:
        return [(int(j), float(v)) for j, v in terms if v != 0]

    # alpha * sum chi  +  beta * [sum p (N - NT) z  +  K * NT]
    hop_gain = (i.beta * i.mobility)[:, :, None] * (net.hops - nt)
    objective = nonzero([(j, i.alpha) for j in chi.ravel()] + [*zip(z.ravel(), hop_gain.ravel())])

    row_names: list[str] = []
    senses: list[str] = []
    rhs: list[float] = []
    entries: list[tuple[int, int, float]] = []

    def row(name: str, terms, sense: str, bound: float) -> None:
        entries.extend((len(row_names), j, v) for j, v in nonzero(terms))
        row_names.append(name)
        senses.append(sense)
        rhs.append(float(bound))

    for k in range(K):
        row(f"place_{k}", [(x[k, e], 1.0) for e in range(E)], "<=", 1.0)
    for e in range(E):
        row(f"space_{e}", [(x[k, e], i.content_size[k]) for k in range(K)], "<=", i.ec_space[e])
    for k in range(K):
        for a in range(A):
            row(f"onepath_{k}_{a}", [(z[k, a, e], 1.0) for e in range(E)], "<=", 1.0)
    for k in range(K):
        for a in range(A):
            for e in range(E):
                row(f"hosted_{k}_{a}_{e}", [(z[k, a, e], 1.0), (x[k, e], -1.0)], "<=", 0.0)
    for l in range(L):
        row(f"bw_{l}", [(y[k, l], i.bandwidth[k]) for k in range(K)], "<=", i.link_capacity[l])
    for k in range(K):
        for l in range(L):
            path = [(j, -1.0) for j, on in zip(z[k].ravel(), net.incidence[l]) if on]
            row(f"luselo_{k}_{l}", [(y[k, l], 1.0)] + path, "<=", 0.0)
            row(f"lusehi_{k}_{l}", [(y[k, l], big_m)] + path, ">=", 0.0)
    for e in range(E):
        row(f"tdef_{e}", [(t[e], 1.0)] + [(chi[k, e], -q[k, e]) for k in range(K)], "=", 1.0)
    for k in range(K):
        for e in range(E):
            row(f"chicap_{k}_{e}", [(chi[k, e], 1.0), (t[e], -1.0)], "<=", 0.0)
            row(f"chigate_{k}_{e}", [(chi[k, e], 1.0), (x[k, e], -big_m)], "<=", 0.0)
            chibind = [(chi[k, e], 1.0), (t[e], -1.0), (x[k, e], -big_m)]
            row(f"chibind_{k}_{e}", chibind, ">=", -big_m)
    return Milp(columns, num_binary, objective, i.beta * K * nt, row_names, senses, rhs, entries)


def _fmt(v: float) -> str:
    return f"{v:.12g}"


def export_milp(i: Instance, big_m: float | None = None) -> str:
    """Serialize the full optimization problem in LP format."""
    m = milp_model(i, big_m)

    def terms(pairs) -> str:
        # An empty sum (the objective when alpha = beta = 0) is a zero
        # multiple of the first column: the text declares no extra column.
        text = "".join(f" {'-' if v < 0 else '+'} {_fmt(abs(v))} {m.columns[j]}" for j, v in pairs)
        return text or f" 0 {m.columns[0]}"

    rows: list[list[tuple[int, float]]] = [[] for _ in m.row_names]
    for r, j, v in m.entries:
        rows[r].append((j, v))
    binaries = m.columns[: m.num_binary]
    lines = [
        "\\ caching placement MILP",
        "Minimize",
        f" obj:{terms(m.objective)} + {_fmt(m.constant)}",
        "Subject To",
        *(
            f" {name}:{terms(pairs)} {sense} {_fmt(bound)}"
            for name, pairs, sense, bound in zip(m.row_names, rows, m.senses, m.rhs)
        ),
        "Binaries",
        *(" " + " ".join(binaries[s : s + 8]) for s in range(0, len(binaries), 8)),
        "End",
    ]
    return "\n".join(lines) + "\n"
