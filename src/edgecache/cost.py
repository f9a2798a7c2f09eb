"""Cost functions, routing derivation, and constraint checking.

A placement is the binary matrix x (flow -> EC).  Routing variables are
derived from it: z picks, for every AR a flow may appear at, the cached
EC it retrieves from (or nothing, which counts as a miss), and y marks
the links on the retrieval paths.  Total cost combines storage pressure
at the ECs with expected transmission hops:

    TC = alpha * C_cache + beta * (C_hit + C_miss)

where C_cache sums 1 / (1 - U_e) per cached item (U_e the EC's space
utilization), C_hit weights path hops by mobility, and every unit of
unserved mobility mass pays the datacenter round trip.

The cost is flow-separable: each flow picks one class out of |E|+1 (an
EC, or uncached), and the class fixes its serving set and link
footprint.  class_table builds one per-instance table that prices any
class vector and materializes it as an Assignment; cost_breakdown
prices arbitrary assignments with the same per-flow arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .instance import Instance, ratios
from .topology import HopMatrix, IncidenceTensor, Topology, hop_matrix, incidence_tensor

DEFAULT_GAMMA = 20.0

# Capacity-violating ECs price storage at the utilization-0.99 level;
# the hinge penalty carries the actual violation magnitude.
_CLAMPED_SUMMAND = 1.0 / (1.0 - 0.99)

_TOL = 1e-9


class CachingCostUndefinedError(ValueError):
    """An EC is filled to or beyond capacity, making 1/(1-U) meaningless."""


@dataclass(frozen=True)
class Assignment:
    """Decision variables: x (K,E) placement, z (K,A,E) retrieval, y (K,L) links."""

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        K, E = self.x.shape
        if self.z.shape[0] != K or self.z.shape[2] != E:
            raise ValueError("z shape inconsistent with x")
        if self.y.shape[0] != K:
            raise ValueError("y shape inconsistent with x")
        for name, arr in (("x", self.x), ("z", self.z), ("y", self.y)):
            if not np.isin(arr, (0, 1)).all():
                raise ValueError(f"{name} must be binary")
        if (self.x.sum(axis=1) > 1).any():
            raise ValueError("a flow is placed at more than one EC")
        if (self.z.sum(axis=2) > 1).any():
            raise ValueError("a (flow, AR) pair retrieves from more than one EC")
        if (self.z > self.x[:, None, :]).any():
            raise ValueError("retrieval from an EC that does not cache the flow")


@dataclass(frozen=True)
class CostBreakdown:
    caching: float
    transmission: float
    hit: float
    miss: float
    total: float
    penalty: float
    penalized_total: float
    feasible: bool
    per_ec_utilization: np.ndarray


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint-family verdicts; overall feasibility is their conjunction."""

    single_placement: bool        # at most one EC per flow
    ec_capacity: bool             # cached bytes fit in every EC
    unique_retrieval: bool        # at most one retrieval EC per (flow, AR)
    retrieval_requires_cache: bool  # retrieval only from a caching EC
    link_capacity: bool           # bandwidth fits on every link
    link_path_consistency: bool   # y marks exactly the links on used paths

    @property
    def feasible(self) -> bool:
        return (
            self.single_placement
            and self.ec_capacity
            and self.unique_retrieval
            and self.retrieval_requires_cache
            and self.link_capacity
            and self.link_path_consistency
        )


@lru_cache(maxsize=32)
def network_tables(t: Topology) -> tuple[HopMatrix, IncidenceTensor]:
    """Hop matrix and incidence tensor, cached per topology."""
    h = hop_matrix(t)
    return h, incidence_tensor(t, h)


def utilization(i: Instance, x: np.ndarray) -> np.ndarray:
    """Space utilization U_e = sum_k q_ke * x_ke per EC."""
    q = ratios(i).q
    return (q * x).sum(axis=0)


def caching_cost(i: Instance, x: np.ndarray) -> float:
    """Storage cost: each item at EC e costs 1 / (1 - U_e)."""
    u = utilization(i, x)
    counts = x.sum(axis=0)
    if (u >= 1.0).any():
        bad = int(np.argmax(u >= 1.0))
        raise CachingCostUndefinedError(
            f"EC index {bad} at utilization {u[bad]:.6f} >= 1; caching cost undefined"
        )
    hosting = counts > 0
    return float((counts[hosting] / (1.0 - u[hosting])).sum())


def path_links(i: Instance, z: np.ndarray) -> np.ndarray:
    """(N, L) marks of the links on the canonical paths each z[n] (A, E) retrieves over."""
    _, inc = network_tables(i.topology)
    L = inc.entries.shape[0]
    n = z.shape[0]
    return (inc.entries.reshape(L, -1) @ z.reshape(n, -1).T > 0).T.astype(np.int8)


def _flow_hops(i: Instance, served: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (hit, miss) hops of the served mobility mass (..., A, E).

    Hits pay path hops; the unserved rest of the row's mass pays N_T.
    The kernel and cost_breakdown both price through here, so a class
    vector and its materialized assignment get the same float.
    """
    hops, _ = network_tables(i.topology)
    hit = (served * hops.entries).sum(axis=(-2, -1))
    miss = (1.0 - served.sum(axis=(-2, -1))) * i.topology.datacenter_hops
    return hit, miss


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Per-instance pricing kernel over flow classes c in 0..E.

    Class c < E caches the flow at EC c; class E leaves it uncached.
    A cached flow retrieves, at every AR it may appear at, from its EC
    whenever that path beats the datacenter fallback (hops < N_T), so
    its serving set and link footprint are fixed by its class.  Link
    capacities are deliberately ignored; overloads surface in the
    penalty term.
    """

    inst: Instance
    serve: np.ndarray  # (K, A, E) bool: AR a retrieves from EC e when flow k is cached there
    links: np.ndarray  # (K, E+1, L) int8: links on flow k's serving paths at class c
    T: np.ndarray      # (K, E+1) hit plus miss hops; T[:, E] = N_T
    Q: np.ndarray      # (K, E) storage ratio q_ke
    R: np.ndarray      # (K, E+1, L) link load of flow k's serving set at class c

    def _placement(self, classes) -> np.ndarray:
        E = self.Q.shape[1]
        return np.eye(E + 1, E, dtype=np.int8)[classes]

    def price(self, classes, gamma: float = DEFAULT_GAMMA) -> float:
        """Penalized total TC_N of a class vector."""
        rows = np.arange(len(classes))
        _, tc, penalty, _ = _priced(
            self.inst,
            self._placement(classes),
            self.Q,
            float(self.T[rows, classes].sum()),
            self.R[rows, classes].sum(axis=0),
            gamma,
        )
        return tc + penalty

    def assignment(self, classes) -> Assignment:
        """Materialize a class vector as x, z and y."""
        x = self._placement(classes)
        z = (self.serve * x[:, None, :]).astype(np.int8)
        return Assignment(x=x, z=z, y=self.links[np.arange(len(classes)), classes])


def class_table(i: Instance) -> ClassTable:
    """Build the pricing kernel of an instance, vectorized over (flow, class)."""
    hops, _ = network_tables(i.topology)
    K, A = i.mobility.shape
    E = i.topology.num_edge_clouds
    rat = ratios(i)
    serve = (i.mobility[:, :, None] > 0) & (hops.entries < i.topology.datacenter_hops)
    # z[k, c] is flow k's retrieval tensor at class c: column c only, none at c = E.
    z = np.zeros((K, E + 1, A, E), dtype=np.int8)
    ecs = np.arange(E)
    z[:, ecs, :, ecs] = serve.transpose(2, 0, 1)
    hit, miss = _flow_hops(i, i.mobility[:, None, :, None] * z)
    links = path_links(i, z.reshape(K * (E + 1), A, E)).reshape(K, E + 1, -1)
    return ClassTable(
        inst=i, serve=serve, links=links, T=hit + miss, Q=rat.q, R=rat.r[:, None, :] * links
    )


def derive_routing(i: Instance, x: np.ndarray) -> Assignment:
    """Resolve z and y from a placement x with at most one EC per flow.

    Retrieval follows ClassTable's serving rule; link capacities are
    ignored here, and overloads surface in the penalty term.
    """
    x = np.asarray(x, dtype=np.int8)
    classes = np.where(x.any(axis=1), x.argmax(axis=1), i.topology.num_edge_clouds)
    asg = class_table(i).assignment(classes)
    if not np.array_equal(asg.x, x):
        raise ValueError("x must be binary with at most one EC per flow")
    return asg


def assignment_from_classes(i: Instance, classes: np.ndarray) -> Assignment:
    """Build an Assignment from per-flow class labels (E means uncached)."""
    return class_table(i).assignment(np.asarray(classes))


def transmission_cost(i: Instance, asg: Assignment) -> tuple[float, float, float]:
    """Return (C_transmission, C_hit, C_miss).

    Hits pay mobility-weighted path hops; each flow's unserved mass,
    including the whole flow when nothing is cached, pays N_T hops.
    """
    hit, miss = _flow_hops(i, i.mobility[:, :, None] * asg.z)
    return float((hit + miss).sum()), float(hit.sum()), float(miss.sum())


def _priced(
    i: Instance, x: np.ndarray, q: np.ndarray, ct: float, load: np.ndarray, gamma: float
) -> tuple[float, float, float, np.ndarray]:
    """(caching, TC, penalty, U) of placement x with transmission ct and link load.

    The hinge penalizes each overfull EC and each overloaded link by its
    own overshoot, so it vanishes exactly on feasible assignments.
    """
    u = (q * x).sum(axis=0)
    counts = x.sum(axis=0)
    hosting = counts > 0
    cc = float(
        np.where(
            u[hosting] < 1.0,
            counts[hosting] / (1.0 - np.minimum(u[hosting], 1.0 - 1e-12)),
            counts[hosting] * _CLAMPED_SUMMAND,
        ).sum()
    )
    hinge = float(np.maximum(0.0, u - 1.0).sum()) + float(np.maximum(0.0, load - 1.0).sum())
    return cc, i.alpha * cc + i.beta * ct, gamma * hinge, u


def cost_breakdown(
    i: Instance, asg: Assignment, gamma: float = DEFAULT_GAMMA
) -> CostBreakdown:
    """Full cost accounting; total everywhere, even for invalid placements."""
    rat = ratios(i)
    ct, ch, cm = transmission_cost(i, asg)
    cc, tc, penalty, u = _priced(i, asg.x, rat.q, ct, (rat.r * asg.y).sum(axis=0), gamma)
    return CostBreakdown(
        caching=cc,
        transmission=ct,
        hit=ch,
        miss=cm,
        total=tc,
        penalty=penalty,
        penalized_total=tc + penalty,
        feasible=check_feasibility(i, asg).feasible,
        per_ec_utilization=u,
    )


def total_cost(
    i: Instance, asg: Assignment, gamma: float = DEFAULT_GAMMA
) -> CostBreakdown:
    """Cost accounting for placements within EC capacity.

    Raises CachingCostUndefinedError when any EC is at or beyond
    capacity; callers handling such placements use penalized_cost.
    """
    caching_cost(i, asg.x)  # raises at or beyond capacity
    return cost_breakdown(i, asg, gamma=gamma)


def penalized_cost(i: Instance, asg: Assignment, gamma: float = DEFAULT_GAMMA) -> float:
    """Penalized total TC_N: finite for every assignment."""
    return cost_breakdown(i, asg, gamma=gamma).penalized_total


def check_feasibility(i: Instance, asg: Assignment) -> FeasibilityReport:
    """Evaluate every constraint family independently."""
    cached_bytes = (i.content_size[:, None] * asg.x).sum(axis=0)
    link_bytes = (i.bandwidth[:, None] * asg.y).sum(axis=0)

    return FeasibilityReport(
        single_placement=bool((asg.x.sum(axis=1) <= 1).all()),
        ec_capacity=bool((cached_bytes <= i.ec_space * (1 + _TOL)).all()),
        unique_retrieval=bool((asg.z.sum(axis=2) <= 1).all()),
        retrieval_requires_cache=bool((asg.z <= asg.x[:, None, :]).all()),
        link_capacity=bool((link_bytes <= i.link_capacity * (1 + _TOL)).all()),
        link_path_consistency=bool((asg.y == path_links(i, asg.z)).all()),
    )


def save_assignment(asg: Assignment, path) -> None:
    import json

    payload = {
        "format": "edgecache-assignment",
        "version": 1,
        "x": asg.x.tolist(),
        "z": asg.z.tolist(),
        "y": asg.y.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def load_assignment(path) -> Assignment:
    import json

    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != "edgecache-assignment":
        raise ValueError(f"{path}: not an assignment file")
    return Assignment(
        x=np.asarray(payload["x"], dtype=np.int8),
        z=np.asarray(payload["z"], dtype=np.int8),
        y=np.asarray(payload["y"], dtype=np.int8),
    )


def empty_assignment(i: Instance) -> Assignment:
    """The always-feasible fallback: nothing cached, everything misses."""
    return assignment_from_classes(i, np.full(i.num_flows, i.topology.num_edge_clouds))
