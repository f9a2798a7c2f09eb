"""Network graph construction, hop counts, and link-path incidence.

The network is an undirected connected graph of routers.  A subset of
nodes are access routers (ARs, where mobile users attach) and a subset
are edge clouds (ECs, which can host cached content).  The two subsets
may overlap.  All downstream matrices index ARs, ECs and links by the
fixed orderings stored on the Topology, so those orderings are part of
the data contract.
"""

from __future__ import annotations

import json
import operator
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, combinations

import numpy as np

from .formats import check_envelope, int_tuple, integer, read_fields, write_json

TOPOLOGY_FORMAT = "edgecache-topology"
TOPOLOGY_FORMAT_VERSION = 1


class TopologyError(ValueError):
    """Raised for invalid topology configurations or malformed files."""


@dataclass(frozen=True)
class TopologyConfig:
    """Parameters for the tree-with-mesh-links generator.

    branching may be a single factor (uniform tree, must be >= 2) or a
    per-level sequence of factors (each >= 1, allowing skinny levels).
    mesh_links adds up to that many extra links between sibling nodes,
    drawn from the seeded RNG.  ec_rule selects edge clouds:

    - "internal": every non-leaf node hosts content
    - "all":      every node hosts content
    - "leaves":   the leaves host content (ECs == ARs)
    - "random":   ec_count nodes drawn uniformly without replacement
    """

    branching: int | tuple[int, ...] = 2
    depth: int = 3
    mesh_links: int = 0
    ec_rule: str = "internal"
    ec_count: int | None = None
    datacenter_hops: int = 12
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("depth", 1), ("mesh_links", 0), ("datacenter_hops", 1), ("seed", 0)):
            integer(getattr(self, name), name, TopologyError, minimum)
        if self.ec_count is not None:
            if self.ec_rule != "random":
                raise TopologyError(f"ec_count is read only by ec_rule='random', not {self.ec_rule!r}")
            integer(self.ec_count, "ec_count", TopologyError, 1)


@dataclass(frozen=True)
class Topology:
    """Immutable network graph with canonical AR/EC/link orderings; the
    nodes are distinct, and so are the ARs and the ECs, each a node."""

    nodes: tuple[int, ...]
    links: tuple[tuple[int, int], ...]
    access_routers: tuple[int, ...]
    edge_clouds: tuple[int, ...]
    datacenter_hops: int

    adjacency: dict[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    link_index: dict[tuple[int, int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.access_routers:
            raise TopologyError("topology has no access routers")
        if not self.edge_clouds:
            raise TopologyError("topology has no edge clouds")
        hops = integer(self.datacenter_hops, "datacenter_hops", TopologyError, 1)
        object.__setattr__(self, "datacenter_hops", hops)  # a numpy integer would not save
        node_set = set(self.nodes)
        for name, members in (("nodes", self.nodes), ("access_routers", self.access_routers),
                              ("edge_clouds", self.edge_clouds)):
            if len(set(members)) < len(members):
                repeated = next(n for n in members if members.count(n) > 1)
                raise TopologyError(f"{name} repeat node {repeated}")
            if not node_set.issuperset(members):
                stranger = next(n for n in members if n not in node_set)
                raise TopologyError(f"{name} name node {stranger}, which is not among the nodes")
        adj: dict[int, list[int]] = {n: [] for n in self.nodes}
        index: dict[tuple[int, int], int] = {}
        for idx, (u, v) in enumerate(self.links):
            if u == v or u not in node_set or v not in node_set:
                raise TopologyError(f"invalid link ({u}, {v})")
            adj[u].append(v)
            adj[v].append(u)
            index[(u, v)] = idx
            index[(v, u)] = idx
        # Sorted neighbour lists make every traversal deterministic.
        object.__setattr__(
            self, "adjacency", {n: tuple(sorted(adj[n])) for n in self.nodes}
        )
        object.__setattr__(self, "link_index", index)
        if len(self.bfs_distances(self.nodes[0])) != len(self.nodes):
            raise TopologyError("topology graph is not connected")

    @property
    def num_access_routers(self) -> int:
        return len(self.access_routers)

    @property
    def num_edge_clouds(self) -> int:
        return len(self.edge_clouds)

    @property
    def num_links(self) -> int:
        return len(self.links)

    def bfs_distances(self, source: int) -> dict[int, int]:
        """Hop count from source to every node."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nb in self.adjacency[node]:
                if nb not in dist:
                    dist[nb] = dist[node] + 1
                    queue.append(nb)
        return dist


@dataclass(frozen=True)
class HopMatrix:
    """entries[a, e] = shortest-path hop count from AR a to EC e."""

    entries: np.ndarray

    def __post_init__(self):
        if (self.entries < 0).any():
            raise TopologyError("hop counts must be non-negative")


@dataclass(frozen=True)
class IncidenceTensor:
    """Binary tensor of shape (|L|, |A|, |E|) marking canonical paths.

    entries[l, a, e] == 1 exactly when link l lies on the stored
    canonical shortest path from AR a to EC e.  path_store[(a, e)] is
    that path as an ordered list of link indices.
    """

    entries: np.ndarray
    path_store: dict[tuple[int, int], tuple[int, ...]]


def _per_level_branching(branching, depth: int) -> tuple[int, ...]:
    """One branching factor per level: a uniform factor (>= 2) repeats,
    and a sequence gives each level its own (>= 1)."""
    try:
        factors = tuple(branching)
    except TypeError:  # not a sequence: one factor for every level
        return (integer(branching, "branching", TopologyError, 2),) * depth
    factors = tuple(integer(b, "branching factor", TopologyError, 1) for b in factors)
    if len(factors) != depth:
        raise TopologyError(f"branching sequence length {len(factors)} != depth {depth}")
    return factors


def build_topology(config: TopologyConfig) -> Topology:
    """Generate a tree-shaped router network with optional mesh links.

    The root router sits at the top, access routers are the leaves, and
    edge clouds are chosen by config.ec_rule.  Node ids are assigned in
    breadth-first order, links are sorted (min, max) pairs, so the same
    config and seed always yield the same Topology.
    """
    per_level = _per_level_branching(config.branching, config.depth)

    rng = np.random.default_rng(config.seed)

    links: set[tuple[int, int]] = set()
    levels: list[list[int]] = [[0]]
    # Children of each parent, grouped level by level; ids are contiguous.
    families: list[list[int]] = []
    next_id = 1
    for factor in per_level:
        level = []
        for parent in levels[-1]:
            children = list(range(next_id, next_id + factor))
            links.update((parent, c) for c in children)
            families.append(children)
            level.extend(children)
            next_id += factor
        levels.append(level)

    # Extra mesh links connect random sibling pairs (same parent).
    if config.mesh_links > 0:
        sibling_pairs = [pair for group in families for pair in combinations(group, 2)]
        take = min(config.mesh_links, len(sibling_pairs))
        if take:
            chosen = rng.choice(len(sibling_pairs), size=take, replace=False)
            for idx in sorted(chosen):
                links.add(sibling_pairs[idx])

    nodes = tuple(range(next_id))
    access_routers = tuple(levels[-1])

    if config.ec_rule == "internal":
        edge_clouds = tuple(n for n in nodes if n not in set(access_routers))
    elif config.ec_rule == "all":
        edge_clouds = nodes
    elif config.ec_rule == "leaves":
        edge_clouds = access_routers
    elif config.ec_rule == "random":
        if config.ec_count is None:
            raise TopologyError("ec_rule='random' requires ec_count >= 1")
        if config.ec_count > len(nodes):
            raise TopologyError("ec_count exceeds node count")
        chosen = rng.choice(len(nodes), size=config.ec_count, replace=False)
        edge_clouds = tuple(sorted(int(i) for i in chosen))
    else:
        raise TopologyError(f"unknown ec_rule {config.ec_rule!r}")

    return Topology(
        nodes=nodes,
        links=tuple(sorted(links)),
        access_routers=access_routers,
        edge_clouds=edge_clouds,
        datacenter_hops=config.datacenter_hops,
    )


def hop_matrix(t: Topology) -> HopMatrix:
    """BFS shortest-path hop counts from every AR to every EC."""
    entries = np.zeros((t.num_access_routers, t.num_edge_clouds), dtype=np.int64)
    for i, a in enumerate(t.access_routers):
        dist = t.bfs_distances(a)
        for j, e in enumerate(t.edge_clouds):
            entries[i, j] = dist[e]
    return HopMatrix(entries=entries)


def incidence_tensor(t: Topology, h: HopMatrix) -> IncidenceTensor:
    """Mark which links belong to each canonical AR-to-EC shortest path.

    The canonical path is the lexicographically smallest node sequence
    among shortest paths: walk from the AR, always to the smallest-id
    neighbour one hop closer to the EC.  All shortest paths have equal
    length, so the greedy walk is the lexicographic minimum.  The next
    hop depends only on the node and the EC, so one BFS per EC fixes a
    next-hop table, and every node's path is its first link followed by
    its next hop's path, built outward in BFS order.
    """
    A, E = t.num_access_routers, t.num_edge_clouds
    to_ec = []
    for e in t.edge_clouds:
        dist = t.bfs_distances(e)
        paths: dict[int, tuple[int, ...]] = {}
        for node in dist:  # BFS order: every next hop is already done
            if node == e:
                paths[node] = ()
                continue
            step = min(nb for nb in t.adjacency[node] if dist[nb] == dist[node] - 1)
            paths[node] = (t.link_index[(node, step)],) + paths[step]
        to_ec.append(paths)
    path_store = {(i, j): to_ec[j][a] for i, a in enumerate(t.access_routers) for j in range(E)}
    lengths = np.array([len(p) for p in path_store.values()]).reshape(A, E)
    if (lengths != h.entries).any():
        i, j = np.argwhere(lengths != h.entries)[0]
        raise TopologyError(
            f"path length mismatch for AR {t.access_routers[i]} -> EC {t.edge_clouds[j]}"
        )
    links = np.fromiter(chain.from_iterable(path_store.values()), np.int64, lengths.sum())
    entries = np.zeros(t.num_links * A * E, dtype=np.int8)
    entries[links * (A * E) + np.repeat(np.arange(A * E), lengths.ravel())] = 1
    return IncidenceTensor(entries=entries.reshape(t.num_links, A, E), path_store=path_store)


def topology_payload(t: Topology) -> dict:
    """The versioned JSON object of a topology (also inlined in instance files)."""
    return {
        "format": TOPOLOGY_FORMAT,
        "version": TOPOLOGY_FORMAT_VERSION,
        "nodes": list(t.nodes),
        "links": [list(l) for l in t.links],
        "access_routers": list(t.access_routers),
        "edge_clouds": list(t.edge_clouds),
        "datacenter_hops": t.datacenter_hops,
    }


def topology_from_payload(payload, where) -> Topology:
    """Check the envelope of a topology object and build the Topology."""
    check_envelope(payload, TOPOLOGY_FORMAT, TOPOLOGY_FORMAT_VERSION, TopologyError, where)
    fields = {
        "nodes": int_tuple,
        "links": lambda links: tuple(int_tuple(l, 2) for l in links),
        "access_routers": int_tuple,
        "edge_clouds": int_tuple,
        "datacenter_hops": operator.index,
    }
    return Topology(**read_fields(payload, fields, TopologyError, where))


def save_topology(t: Topology, path) -> None:
    """Write the versioned structured-text (JSON) topology file."""
    write_json(path, topology_payload(t))


def load_topology(path) -> Topology:
    with open(path) as fh:
        return topology_from_payload(json.load(fh), path)
