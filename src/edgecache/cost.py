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
footprint.  A class vector is the one placement encoding: labels_of
reads it off a placement, assignment_from_classes materializes it as
x, z and y, and class_table builds one per-instance table that prices
any class vector.  The table holds, per (flow, class), the hit and miss
hops and a fused row [Q·onehot | onehot | R] of storage utilization,
cached count and link load, so a stack of class vectors is priced by
one flat gather and one sum over flows.  ClassTable.assignment materializes
a class vector from the table's own rows, and cost_breakdown prices
arbitrary assignments with the same per-flow arithmetic.

What depends on the topology alone (the class one-hot, float hops,
incidence and paths, the hops < N_T mask, the per-EC selectors) is
built once per topology by network_tables, read-only, so materializing
and pricing a placement pays only for its own arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .instance import Instance, ratios
from .topology import Topology, hop_matrix, incidence_tensor

DEFAULT_GAMMA = 20.0

# Capacity-violating ECs price storage at the utilization-0.99 level;
# the hinge penalty carries the actual violation magnitude.
_CLAMPED_SUMMAND = 1.0 / (1.0 - 0.99)

# An EC or link is over capacity when its ratio sum, over the flows in
# flow order (k = 0..K-1), exceeds this.
_OVERLOAD = 1.0 + 1e-9


class CachingCostUndefinedError(ValueError):
    """An EC is filled to or beyond capacity, making 1/(1-U) meaningless."""


@dataclass(frozen=True)
class Assignment:
    """Decision variables: x (K,E) placement, z (K,A,E) retrieval, y (K,L) links.

    Construction refuses non-binary arrays, a flow at more than one EC,
    a (flow, AR) pair retrieving from more than one EC, and retrieval
    from an EC that does not cache the flow, checked in that order, so
    the first violation names the error.  When x, z and y are all int8,
    three passes (_valid_int8) accept exactly the arrays that pass every
    check; anything else, or any failure, runs the ordered checks, so
    every verdict and message is theirs.
    """

    x: np.ndarray
    z: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        K, E = self.x.shape
        if self.z.shape[0] != K or self.z.shape[2] != E:
            raise ValueError("z shape inconsistent with x")
        if self.y.shape[0] != K:
            raise ValueError("y shape inconsistent with x")
        if self.x.dtype == self.z.dtype == self.y.dtype == np.int8 and _valid_int8(
            self.x, self.z, self.y
        ):
            return
        for name, arr in (("x", self.x), ("z", self.z), ("y", self.y)):
            if not ((arr == 0) | (arr == 1)).all():
                raise ValueError(f"{name} must be binary")
        if (self.x.sum(axis=1) > 1).any():
            raise ValueError("a flow is placed at more than one EC")
        if (self.z.sum(axis=2) > 1).any():
            raise ValueError("a (flow, AR) pair retrieves from more than one EC")
        if (self.z > self.x[:, None, :]).any():
            raise ValueError("retrieval from an EC that does not cache the flow")


def _valid_int8(x: np.ndarray, z: np.ndarray, y: np.ndarray) -> bool:
    """Whether int8 x, z and y pass every Assignment check, in three passes.

    Binary: no byte of the three exceeds 1 read as uint8 (-1 reads 255).
    z <= x with at most one EC per row of x implies at most one EC per
    (flow, AR) row of z, so that check needs no pass of its own.
    """
    values = np.concatenate((x.ravel(), z.ravel(), y.ravel())).view(np.uint8)
    return bool(
        values.max(initial=0) <= 1
        and (x.sum(axis=1) <= 1).all()
        and not (z > x[:, None, :]).any()
    )


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


@dataclass(frozen=True)
class FeasibilityReport:
    """Per-constraint-family verdicts; overall feasibility is their conjunction.

    The structural families (one EC per flow, one retrieval EC per
    (flow, AR), retrieval only from a caching EC) need no verdict:
    Assignment refuses to hold a violation of any of them.
    """

    ec_capacity: bool             # cached content fits in every EC (see _within_capacity)
    link_capacity: bool           # bandwidth fits on every link
    link_path_consistency: bool   # y marks exactly the links on used paths

    @property
    def feasible(self) -> bool:
        return self.ec_capacity and self.link_capacity and self.link_path_consistency


@dataclass(frozen=True, eq=False)
class NetworkTables:
    """Topology-only arrays that materializing, pricing, the solver, the
    MILP and the baselines read, built once per topology (all read-only)."""

    onehot: np.ndarray        # (E+1, E) int8 placement row of each class; row E is empty
    hops: np.ndarray          # (A, E) float64 path hops
    in_reach: np.ndarray      # (A, E) bool: the path beats the datacenter (hops < N_T)
    incidence: np.ndarray     # (L, A*E) float64 incidence, for path counts past int8
    selector: np.ndarray      # (E+1, 1, E) float64: class c keeps EC column c only
    ec_incidence: np.ndarray  # (E, A, L) view of incidence: each EC's paths
    path_store: MappingProxyType  # (a, e) -> links of the canonical path, in path order


@lru_cache(maxsize=32)
def network_tables(t: Topology) -> NetworkTables:
    """The NetworkTables of a topology, cached per topology."""
    hops = hop_matrix(t)
    entries, path_store = incidence_tensor(t, hops)
    L, A, E = entries.shape
    incidence = entries.reshape(L, A * E).astype(np.float64)
    onehot = np.eye(E + 1, E, dtype=np.int8)
    tables = NetworkTables(
        onehot=onehot,
        hops=hops.astype(np.float64),
        in_reach=hops < t.datacenter_hops,
        incidence=incidence,
        selector=onehot[:, None, :].astype(np.float64),
        ec_incidence=incidence.reshape(L, A, E).transpose(2, 1, 0),
        path_store=MappingProxyType(path_store),
    )
    for arr in vars(tables).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return tables


def utilization(i: Instance, x: np.ndarray) -> np.ndarray:
    """Space utilization U_e = sum_k q_ke * x_ke per EC."""
    q, _ = ratios(i)
    return (q * x).sum(axis=0)


def caching_cost(i: Instance, x: np.ndarray) -> float:
    """Storage cost: each item at EC e costs 1 / (1 - U_e), as every price has it."""
    u = utilization(i, x)
    if (u >= 1.0).any():
        bad = int(np.argmax(u >= 1.0))
        raise CachingCostUndefinedError(
            f"EC index {bad} at utilization {u[bad]:.6f} >= 1; caching cost undefined"
        )
    return float(_caching(u, x.sum(axis=0)))


def path_links(i: Instance, z: np.ndarray) -> np.ndarray:
    """(N, L) marks of the links on the canonical paths each z[n] (A, E) retrieves over."""
    return _path_links(network_tables(i.topology), z)


def _path_links(net: NetworkTables, z: np.ndarray) -> np.ndarray:
    """path_links over the tables net of the instance's topology."""
    n = z.shape[0]
    # Path counts in float64: an int8 product wraps at 128 paths per link.
    paths = net.incidence @ z.reshape(n, -1).T
    return (paths > 0).T.astype(np.int8)


def _flow_hops(i: Instance, served: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row (hit, miss) hops of the served mobility mass (..., A, E).

    Hits pay path hops; the unserved rest of the row's mass pays N_T.
    The kernel and cost_breakdown both price through here, so a class
    vector and its materialized assignment get the same float.
    """
    hit = (served * network_tables(i.topology).hops).sum(axis=(-2, -1))
    miss = (1.0 - served.sum(axis=(-2, -1))) * i.topology.datacenter_hops
    return hit, miss


def _serving_mask(i: Instance, net: NetworkTables) -> np.ndarray:
    """(K, A, E) bool: AR a retrieves flow k from EC e when e caches it,
    net being the tables of the instance's topology.

    A cached flow is served wherever it may appear and the path beats
    the datacenter fallback (hops < N_T).
    """
    return (i.mobility[:, :, None] > 0) & net.in_reach


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Per-instance pricing kernel over flow classes c in 0..E.

    Class c < E caches the flow at EC c; class E leaves it uncached.
    The serving rule (_serving_mask) fixes a cached flow's serving set
    and link footprint by its class.  Link capacities are deliberately
    ignored; overloads surface in the penalty term.

    Pricing reads the fused rows: per (flow, class), the flow's storage
    utilization, its cached count and its link load side by side, built
    on the first price call, so a table that never prices never builds
    them.  The public methods refuse a class outside 0..E.
    """

    inst: Instance     # the cost weights alpha and beta; a block keeps its whole instance
    serve: np.ndarray  # (K, A, E) bool: AR a retrieves from EC e when flow k is cached there
    links: np.ndarray  # (K, E+1, L) int8: links on flow k's serving paths at class c
    hit: np.ndarray    # (K, E+1) mobility-weighted path hops of flow k's served mass at class c
    miss: np.ndarray   # (K, E+1) N_T times flow k's unserved mobility mass at class c
    T: np.ndarray      # (K, E+1) hit plus miss hops; T[:, E] = N_T
    Q: np.ndarray      # (K, E) storage ratio q_ke
    r: np.ndarray      # (K, L) bandwidth ratio r_kl
    onehot: np.ndarray  # (E+1, E) int8 placement row of each class; row E is empty
    rows: np.ndarray    # (K,) flow indices 0..K-1

    @cached_property
    def pattern(self) -> np.ndarray:
        """(K, E+1, 2E+L) int8 [onehot | onehot | links] per (flow, class):
        the columns of the fused row that a flow at that class fills."""
        onehot = np.broadcast_to(self.onehot, (self.rows.size, *self.onehot.shape))
        return np.concatenate((onehot, onehot, self.links), axis=-1)

    @cached_property
    def fused(self) -> np.ndarray:
        """(K·(E+1), 2E+L) rows [Q·onehot | onehot | R] per (flow, class),
        flat in (flow, class) order: utilization, cached count and link
        load (R = r * links), each flow's ratio row [Q | 1 | r] times its
        pattern."""
        K, E = self.Q.shape
        ratio = np.ones((K, self.pattern.shape[-1]))
        ratio[:, :E], ratio[:, 2 * E :] = self.Q, self.r
        return (ratio[:, None, :] * self.pattern).reshape(-1, ratio.shape[1])

    @cached_property
    def offsets(self) -> np.ndarray:
        """(K,) flat row of each flow's class 0: class c of flow k is
        row offsets[k] + c of fused and of T flattened."""
        return self.rows * self.T.shape[1]

    def transmission(self, classes):
        """Transmission cost C_T (hit plus miss hops) of a class vector.

        A (K,) vector gives a float; an (N, K) stack gives an (N,) array
        whose rows equal the vectors' own floats.
        """
        return _float_or_rows(self._transmission(_checked(classes, *self.Q.shape, stack=True)))

    def price(self, classes, gamma: float = DEFAULT_GAMMA):
        """Penalized total TC_N of a (K,) class vector, or of each row of
        an (N, K) stack.

        One flat gather of the fused rows and one sum over flows give
        each row's utilization, counts and link load.  The summands and
        their flow order are those of cost_breakdown on the materialized
        assignment, and every row is priced by the same arithmetic as a
        vector alone, so a stack returns exactly the floats of one call
        per row.
        """
        return _float_or_rows(self._price(_checked(classes, *self.Q.shape, stack=True), gamma))

    def _transmission(self, classes: np.ndarray) -> np.ndarray:
        """transmission of classes already known to lie in 0..E, unchecked."""
        return np.add.reduce(self.T.ravel().take(np.add(classes, self.offsets)), axis=-1)

    def _price(self, classes: np.ndarray, gamma: float) -> np.ndarray:
        """price of a (K,) vector or (N, K) stack already known to lie in
        0..E, unchecked: PEL and RGC draw theirs from 0..E and pay for no
        check per call.

        The fused rows are gathered flow-major, (K, N, 2E+L), so the sum
        over flows runs along the outer axis and adds them one at a time
        in flow order, as the sums of cost_breakdown do.  T is gathered
        and summed apart, along its last axis: there numpy sums eight or
        more flows pairwise, as cost_breakdown's sum of per-flow hops
        does."""
        at = np.add(classes, self.offsets).T
        sums = np.add.reduce(self.fused.take(at, axis=0), axis=0)
        _, tc, penalty = _priced(self.inst, sums, self._transmission(classes), gamma)
        return np.add(tc, penalty)

    def assignment(self, classes) -> Assignment:
        """Materialize a (K,) class vector as x, z and y from the table's
        rows: the bytes and dtypes of assignment_from_classes."""
        classes = _checked(classes, *self.Q.shape)
        x = self.onehot[classes]
        return Assignment(x=x, z=self.serve * x[:, None, :], y=self.links[self.rows, classes])

    def breakdown(self, classes, gamma: float = DEFAULT_GAMMA) -> CostBreakdown:
        """cost_breakdown of the assignment of a (K,) class vector, read
        off the table of a whole instance: the same floats and verdict."""
        classes = _checked(classes, *self.Q.shape)
        x, y = self.onehot[classes], self.links[self.rows, classes]
        hit, miss = self.hit[self.rows, classes], self.miss[self.rows, classes]
        return _breakdown(self.inst, x, y, hit, miss, self.Q, self.r, gamma, consistent=True)

    def block(self, rows: slice, q: np.ndarray, r: np.ndarray) -> ClassTable:
        """The table of the flows in rows at storage ratios q and
        bandwidth ratios r: those flows' ratios against any capacities,
        such as the residual ones of a recursive allocation.

        serve, links and the hop rows do not depend on capacities and
        are sliced; Q and r are replaced, and the fused rows are built
        from them.  So the block prices exactly as class_table of the
        matching sub-instance.
        """
        links = self.links[rows]
        return replace(
            self,
            serve=self.serve[rows],
            links=links,
            hit=self.hit[rows],
            miss=self.miss[rows],
            T=self.T[rows],
            Q=q,
            r=r,
            rows=self.rows[: links.shape[0]],
        )


def _checked(classes, K: int, E: int, stack: bool = False) -> np.ndarray:
    """classes as a (K,) array, or with stack also an (N, K) one,
    refusing any other shape, a dtype that is not integer (a bool
    vector would be read as classes 1 and 0) and a class outside 0..E:
    a flat gather would read class E+1 of flow k as class 0 of flow
    k+1."""
    classes = np.asarray(classes)
    if classes.dtype.kind not in "iu":
        raise ValueError(f"classes must be integers, got dtype {classes.dtype}")
    if classes.ndim not in ((1, 2) if stack else (1,)) or classes.shape[-1] != K:
        want = "(K,) or (N, K)" if stack else "(K,)"
        raise ValueError(f"classes must have shape {want} with K = {K}, got {classes.shape}")
    # A class vector is short: min and max of a list beat two numpy reductions.
    values = classes.ravel().tolist()
    if values and not (0 <= min(values) and max(values) <= E):
        raise ValueError(f"classes must lie in 0..{E}, got {min(values)}..{max(values)}")
    return classes


def _float_or_rows(values: np.ndarray):
    """A float for a 0-d result, the array itself for a stack."""
    return float(values) if np.ndim(values) == 0 else values


def class_table(i: Instance) -> ClassTable:
    """Build the pricing kernel of an instance, vectorized over (flow, class).

    Flow k at class c < E is served from EC c alone, by the ARs in
    serve[k, :, c].  Its served mass is the mobility on those ARs in
    column c, zero elsewhere, which the selector picks out; its links
    are the ones those ARs' paths to c cross, from one batched product
    over the ECs.  Class E serves nothing.
    """
    K = i.num_flows
    E = i.topology.num_edge_clouds
    net = network_tables(i.topology)
    q, r = ratios(i)
    serve = _serving_mask(i, net)
    hit, miss = _flow_hops(i, (i.mobility[:, :, None] * serve)[:, None] * net.selector)
    links = np.zeros((K, E + 1, i.topology.num_links), dtype=np.int8)
    links[:, :E] = (serve.transpose(2, 0, 1) @ net.ec_incidence > 0).transpose(1, 0, 2)
    return ClassTable(
        inst=i,
        serve=serve,
        links=links,
        hit=hit,
        miss=miss,
        T=hit + miss,
        Q=q,
        r=r,
        onehot=net.onehot,
        rows=np.arange(K),
    )


def labels_of(x: np.ndarray) -> tuple[int, ...]:
    """Per-flow class of placement x: its first EC, or E for an empty row."""
    x = np.asarray(x) != 0
    return tuple(np.where(x.any(axis=1), x.argmax(axis=1), x.shape[1]).tolist())


def assignment_from_classes(i: Instance, classes) -> Assignment:
    """Materialize per-flow classes (E means uncached) as x, z and y.

    Retrieval follows the serving rule of the chosen class only; link
    capacities are ignored here, and overloads surface in the penalty.
    """
    classes = _checked(classes, i.num_flows, i.topology.num_edge_clouds)
    net = network_tables(i.topology)
    x = net.onehot[classes]
    z = _serving_mask(i, net) * x[:, None, :]
    return Assignment(x=x, z=z, y=_path_links(net, z))


def derive_routing(i: Instance, x: np.ndarray) -> Assignment:
    """Resolve z and y from a placement x with at most one EC per flow."""
    x = np.asarray(x, dtype=np.int8)
    asg = assignment_from_classes(i, labels_of(x))
    if not np.array_equal(asg.x, x):
        raise ValueError("x must be binary with at most one EC per flow")
    return asg


def _caching(u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Caching cost C_cache of EC utilization u (..., E) and cached
    counts (..., E), vectorized over the leading axes.

    The sum runs over a zero-masked row of E summands (an EC hosting
    nothing adds 0 / 1 = 0), so a stack prices each row exactly as its
    own call does; an EC at or past capacity prices at _CLAMPED_SUMMAND.
    """
    summands = np.divide(
        counts,
        np.subtract(1.0, np.minimum(u, 1.0 - 1e-12)),
        out=np.multiply(counts, _CLAMPED_SUMMAND),
        where=u < 1.0,
    )
    return np.add.reduce(summands, axis=-1)


def _priced(i: Instance, sums: np.ndarray, ct, gamma: float):
    """(caching, TC, penalty) from the ratio sums [u | counts | load]
    (..., 2E+L), EC utilization, cached counts and link load side by
    side, and transmission ct (...), vectorized over the leading axes.

    The hinge penalizes each EC and each link by its overshoot past 1;
    the capacity verdict (_within_capacity) reads the same sums with
    1e-9 of slack, so a load in (1, 1 + 1e-9] is feasible yet priced
    above 0.
    """
    E = i.ec_space.size
    cc = _caching(sums[..., :E], sums[..., E : 2 * E])
    over = np.maximum(sums - 1.0, 0.0)
    hinge = np.add.reduce(over[..., :E], axis=-1) + np.add.reduce(over[..., 2 * E :], axis=-1)
    return cc, cc * i.alpha + ct * i.beta, hinge * gamma


def _breakdown(i, x, y, hit, miss, q, r, gamma, consistent) -> CostBreakdown:
    """The CostBreakdown of placement x with links y, per-flow hit and
    miss hops, and storage and bandwidth ratios q and r; feasible when
    y is consistent with the routing and the priced sums fit."""
    ct = float((hit + miss).sum())
    u, load = (q * x).sum(axis=0), (r * y).sum(axis=0)
    sums = np.concatenate((u, x.sum(axis=0), load))
    cc, tc, penalty = map(float, _priced(i, sums, ct, gamma))
    return CostBreakdown(
        caching=cc,
        transmission=ct,
        hit=float(hit.sum()),
        miss=float(miss.sum()),
        total=tc,
        penalty=penalty,
        penalized_total=tc + penalty,
        feasible=consistent and all(_within_capacity(u, load)),
    )


def cost_breakdown(
    i: Instance, asg: Assignment, gamma: float = DEFAULT_GAMMA
) -> CostBreakdown:
    """Full cost accounting; total everywhere, even for invalid placements."""
    return _assignment_breakdown(i, asg, gamma, _consistent(i, asg))


def _assignment_breakdown(
    i: Instance, asg: Assignment, gamma: float, consistent: bool
) -> CostBreakdown:
    """cost_breakdown of asg, taking the verdict on y's consistency as given."""
    hit, miss = _flow_hops(i, i.mobility[:, :, None] * asg.z)
    q, r = ratios(i)
    return _breakdown(i, asg.x, asg.y, hit, miss, q, r, gamma, consistent)


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
    """Penalized total TC_N: finite for every assignment.

    The total does not read the feasibility verdict, so y's consistency
    with z goes unchecked: its path product would be discarded.
    """
    return _assignment_breakdown(i, asg, gamma, consistent=False).penalized_total


def check_feasibility(i: Instance, asg: Assignment) -> FeasibilityReport:
    """Evaluate each constraint family an Assignment can violate, independently."""
    q, r = ratios(i)
    ec, link = _within_capacity((q * asg.x).sum(axis=0), (r * asg.y).sum(axis=0))
    return FeasibilityReport(
        ec_capacity=ec, link_capacity=link, link_path_consistency=_consistent(i, asg)
    )


def _within_capacity(u: np.ndarray, load: np.ndarray) -> tuple[bool, bool]:
    """Whether EC utilizations u and link loads load, the ratio sums
    that _priced prices, stay within capacity (at most _OVERLOAD)."""
    return bool((u <= _OVERLOAD).all()), bool((load <= _OVERLOAD).all())


def _consistent(i: Instance, asg: Assignment) -> bool:
    """Whether y marks exactly the links on the paths z retrieves over."""
    return bool((asg.y == path_links(i, asg.z)).all())


def check_gamma(gamma: float) -> None:
    """Refuse a penalty weight that is not finite and positive: gamma = inf
    makes the penalty of every feasible placement inf * 0 = NaN."""
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"gamma must be finite and positive, got {gamma}")
