"""Caching problem instances and randomized instance generation.

An Instance bundles one optimization problem: the topology, the flows
(one per mobile user), their mobility distributions over ARs, content
sizes and bandwidth demands, EC storage capacities, link capacities and
the two cost weights.  Default sampling ranges follow the reference
network parameter table: content 10-50 MB, EC space 100-500 MB,
bandwidth 1-10 Mbps, link capacity 50-100 Mbps.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .formats import array, integer, read_fields, read_json, write_json
from .topology import Topology, topology_from_payload, topology_payload

INSTANCE_FORMAT = "edgecache-instance"
INSTANCE_FORMAT_VERSION = 1

_TOL = 1e-9


class InstanceError(ValueError):
    """Raised for invalid instance data or malformed instance files."""


@dataclass(frozen=True)
class ParameterRanges:
    """Sampling intervals for instance generation (inclusive bounds).

    ar_crowding shapes how strongly flows share access routers: each
    instance draws a Dirichlet popularity profile over the ARs with this
    concentration, and flow supports are sampled proportionally.  Small
    values produce the crowded-AR patterns typical of real mobility;
    None gives uniform, independent supports.
    """

    content_size: tuple[float, float] = (10.0, 50.0)      # s_k, MB
    ec_space: tuple[float, float] = (100.0, 500.0)        # w_e, MB
    bandwidth: tuple[float, float] = (1.0, 10.0)          # b_k, Mbps
    link_capacity: tuple[float, float] = (50.0, 100.0)    # c_l, Mbps
    alpha: tuple[float, float] = (0.0, 1.0)
    beta: tuple[float, float] = (0.0, 1.0)
    mobility_support: tuple[int, int] = (2, 4)            # ARs per flow
    presence: tuple[float, float] = (0.8, 1.0)            # total moving mass
    ar_crowding: float | None = None

    def validate(self) -> None:
        for name in ("content_size", "ec_space", "bandwidth", "link_capacity"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi < math.inf):
                raise InstanceError(f"range {name} must satisfy 0 < lo <= hi < inf")
        for name in ("alpha", "beta"):
            lo, hi = getattr(self, name)
            if not (0 <= lo <= hi <= 1):
                raise InstanceError(f"range {name} must lie within [0, 1]")
        lo, hi = self.presence
        if not (0 < lo <= hi <= 1):
            raise InstanceError("presence range must lie within (0, 1]")
        # generate_instance draws integers(lo, hi + 1), which would floor
        # a fractional lo and cannot take an infinite hi.
        lo, hi = self.mobility_support
        lo = integer(lo, "mobility_support lo", InstanceError, 1)
        integer(hi, "mobility_support hi", InstanceError, lo)
        if self.ar_crowding is not None and not 0 < self.ar_crowding < math.inf:
            raise InstanceError("ar_crowding must be positive and finite when set")


@dataclass(frozen=True)
class Instance:
    """One caching placement problem over a fixed topology."""

    topology: Topology
    mobility: np.ndarray       # (K, A) probabilities p_ka
    content_size: np.ndarray   # (K,) s_k
    bandwidth: np.ndarray      # (K,) b_k
    ec_space: np.ndarray       # (E,) w_e
    link_capacity: np.ndarray  # (L,) c_l
    alpha: float
    beta: float

    def __post_init__(self):
        K, A = self.mobility.shape
        if K == 0:
            raise InstanceError("instance must have at least one flow")
        if A != self.topology.num_access_routers:
            raise InstanceError("mobility column count != number of ARs")
        if self.content_size.shape != (K,) or self.bandwidth.shape != (K,):
            raise InstanceError("per-flow arrays must have shape (K,)")
        if self.ec_space.shape != (self.topology.num_edge_clouds,):
            raise InstanceError("ec_space must have one entry per EC")
        if self.link_capacity.shape != (self.topology.num_links,):
            raise InstanceError("link_capacity must have one entry per link")
        # Every check below is a comparison, which NaN fails silently.
        for name in ("mobility", "content_size", "bandwidth", "ec_space", "link_capacity"):
            if not np.isfinite(getattr(self, name)).all():
                raise InstanceError(f"{name} entries must be finite")
        if (self.mobility < -_TOL).any() or (self.mobility > 1 + _TOL).any():
            raise InstanceError("mobility entries must lie in [0, 1]")
        if (self.mobility.sum(axis=1) > 1 + _TOL).any():
            raise InstanceError("mobility rows must sum to at most 1")
        for name, arr in (
            ("content_size", self.content_size),
            ("bandwidth", self.bandwidth),
            ("ec_space", self.ec_space),
            ("link_capacity", self.link_capacity),
        ):
            if (arr <= 0).any():
                raise InstanceError(f"{name} entries must be positive")
        if not (0 <= self.alpha <= 1 and 0 <= self.beta <= 1):
            raise InstanceError("alpha and beta must lie in [0, 1]")

    @property
    def num_flows(self) -> int:
        return self.mobility.shape[0]


def check_generation(num_flows: int, ranges: ParameterRanges) -> None:
    """Refuse a flow count below 1 or invalid sampling ranges, so callers
    that write a corpus can check before they create anything."""
    integer(num_flows, "num_flows", InstanceError, 1)
    ranges.validate()


def _sample_without_replacement(rng: np.random.Generator, p: list[float], size: int) -> list[int]:
    """size distinct indices of p drawn with probabilities p: the indices
    of rng.choice(len(p), size, replace=False, p=p), in its order and from
    the same draws, so rng ends in the same state.

    numpy's algorithm, on Python floats: each round draws one uniform per
    index still missing, maps it through the running-sum CDF of the
    weights (over its last entry) with bisect_right, and keeps each
    index's first occurrence in the round; the found weights then drop
    to zero for the next round.
    """
    weights = list(p)
    found: list[int] = []
    while len(found) < size:
        draws = rng.random(size - len(found)).tolist()
        for j in found:
            weights[j] = 0.0
        cdf = list(itertools.accumulate(weights))
        total = cdf[-1]
        cdf = [c / total for c in cdf]
        new: list[int] = []
        for x in draws:
            j = bisect.bisect_right(cdf, x)
            if j not in new:
                new.append(j)
        found += new
    return found


def generate_instance(
    t: Topology,
    num_flows: int,
    ranges: ParameterRanges = ParameterRanges(),
    seed: int | Sequence[int] = 0,
) -> Instance:
    """Draw a random instance; deterministic for a fixed seed.

    seed is anything np.random.default_rng takes, an int or a sequence
    of ints; the corpus writers pass [seed, idx], so that instance idx
    of a corpus does not depend on the others.

    Each flow's mobility is concentrated on a small random subset of
    ARs (weights from a flat Dirichlet), then scaled by a random total
    presence factor so rows may sum below 1: the residual mass is the
    chance the user leaves the region, which the miss cost absorbs.
    """
    check_generation(num_flows, ranges)
    rng = np.random.default_rng(seed)

    A = t.num_access_routers
    lo, hi = ranges.mobility_support
    hi = min(hi, A)
    lo = min(lo, hi)
    if ranges.ar_crowding is not None:
        popularity = rng.dirichlet(np.full(A, ranges.ar_crowding))
        popularity = popularity + 1e-9
    else:
        popularity = np.full(A, 1.0 / A)
    p = (popularity / popularity.sum()).tolist()
    mobility = np.zeros((num_flows, A))
    for k in range(num_flows):
        support = int(rng.integers(lo, hi + 1))
        ars = _sample_without_replacement(rng, p, support)
        weights = rng.dirichlet(np.ones(support))
        presence = rng.uniform(*ranges.presence)
        mobility[k, ars] = weights * presence

    def draw(interval, size):
        return rng.uniform(interval[0], interval[1], size=size)

    return Instance(
        topology=t,
        mobility=mobility,
        content_size=draw(ranges.content_size, num_flows),
        bandwidth=draw(ranges.bandwidth, num_flows),
        ec_space=draw(ranges.ec_space, t.num_edge_clouds),
        link_capacity=draw(ranges.link_capacity, t.num_links),
        alpha=float(rng.uniform(*ranges.alpha)),
        beta=float(rng.uniform(*ranges.beta)),
    )


def ratios(i: Instance) -> tuple[np.ndarray, np.ndarray]:
    """Demand-to-capacity ratios (q, r): q[k, e] = s_k / w_e and r[k, l] = b_k / c_l."""
    q = i.content_size[:, None] / i.ec_space[None, :]
    r = i.bandwidth[:, None] / i.link_capacity[None, :]
    return q, r


def save_instance(i: Instance, path) -> None:
    """Write the versioned structured-text (JSON) instance file.

    The topology is inlined so instance files are self-contained.
    """
    payload = {
        "format": INSTANCE_FORMAT,
        "version": INSTANCE_FORMAT_VERSION,
        "topology": topology_payload(i.topology),
        "mobility": i.mobility.tolist(),
        "content_size": i.content_size.tolist(),
        "bandwidth": i.bandwidth.tolist(),
        "ec_space": i.ec_space.tolist(),
        "link_capacity": i.link_capacity.tolist(),
        "alpha": i.alpha,
        "beta": i.beta,
    }
    write_json(path, payload, indent=None)


def load_instance(path) -> Instance:
    payload = read_json(path, INSTANCE_FORMAT, INSTANCE_FORMAT_VERSION, InstanceError)
    fields = {
        "topology": lambda t: topology_from_payload(t, f"{path} (inline topology)"),
        "mobility": array(2),
        "content_size": array(1),
        "bandwidth": array(1),
        "ec_space": array(1),
        "link_capacity": array(1),
        "alpha": float,
        "beta": float,
    }
    return Instance(**read_fields(payload, fields, InstanceError, path))
