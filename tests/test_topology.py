import json

import numpy as np
import pytest

from edgecache.topology import (
    Topology,
    TopologyConfig,
    TopologyError,
    build_topology,
    hop_matrix,
    incidence_tensor,
    load_topology,
    save_topology,
)
from edgecache.harness import evaluation_topology

from oracles import incidence_walk


def floyd_warshall(nodes, links):
    """Independent all-pairs shortest path oracle."""
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0)
    for u, v in links:
        dist[idx[u], idx[v]] = 1
        dist[idx[v], idx[u]] = 1
    for m in range(n):
        dist = np.minimum(dist, dist[:, m : m + 1] + dist[m : m + 1, :])
    return dist, idx


def all_shortest_paths(t, source, target):
    """Enumerate every shortest node sequence from source to target."""
    dist = t.bfs_distances(target)
    paths = []

    def walk(node, acc):
        if node == target:
            paths.append(tuple(acc))
            return
        for nb in t.adjacency[node]:
            if dist[nb] == dist[node] - 1:
                walk(nb, acc + [nb])

    walk(source, [source])
    return paths


def test_binary_tree_depth3_counts():
    t = build_topology(TopologyConfig(branching=2, depth=3))
    assert t.num_access_routers == 8
    assert t.num_links == 14
    assert len(t.nodes) == 15


def test_builder_is_deterministic():
    config = TopologyConfig(branching=3, depth=2, mesh_links=2, ec_rule="random", ec_count=4, seed=9)
    assert build_topology(config) == build_topology(config)


def test_demo_cardinalities_are_representable():
    # 10-node tree: a 1-wide first level then 8 leaves gives 9 links and
    # 8 ARs; 7 random ECs may overlap the ARs.
    config = TopologyConfig(
        branching=(1, 8), depth=2, ec_rule="random", ec_count=7, seed=4
    )
    t = build_topology(config)
    assert t.num_access_routers == 8
    assert t.num_edge_clouds == 7
    assert t.num_links == 9


def test_builder_rejects_bad_configs():
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(branching=1, depth=2))
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(branching=2, depth=0))
    with pytest.raises(TopologyError):
        build_topology(TopologyConfig(branching=2, depth=2, ec_rule="random", ec_count=None))
    with pytest.raises(TopologyError):
        Topology(nodes=(0, 1), links=((0, 1),), access_routers=(1,), edge_clouds=(), datacenter_hops=12)


def test_hop_matrix_zero_iff_same_node():
    # ECs include the leaves, so some ARs are their own EC.
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="all"))
    h = hop_matrix(t)
    for i, a in enumerate(t.access_routers):
        for j, e in enumerate(t.edge_clouds):
            assert (h.entries[i, j] == 0) == (a == e)


def test_hop_matrix_adjacent_is_one():
    t = build_topology(TopologyConfig(branching=2, depth=1, ec_rule="internal"))
    h = hop_matrix(t)
    assert (h.entries == 1).all()  # leaves are children of the root EC


def test_hop_matrix_matches_floyd_warshall():
    t = build_topology(
        TopologyConfig(branching=(3, 3, 2), depth=3, mesh_links=5, ec_rule="random", ec_count=6, seed=2)
    )
    assert len(t.nodes) >= 20
    h = hop_matrix(t)
    dist, idx = floyd_warshall(t.nodes, t.links)
    for i, a in enumerate(t.access_routers):
        for j, e in enumerate(t.edge_clouds):
            assert h.entries[i, j] == dist[idx[a], idx[e]]


def test_hop_matrix_symmetric_under_direction():
    t = build_topology(TopologyConfig(branching=2, depth=3, mesh_links=3, seed=1))
    for i, a in enumerate(t.access_routers):
        from_a = t.bfs_distances(a)
        for e in t.edge_clouds:
            assert from_a[e] == t.bfs_distances(e)[a]


def test_incidence_same_node_column_is_empty():
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="all"))
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    for i, a in enumerate(t.access_routers):
        for j, e in enumerate(t.edge_clouds):
            if a == e:
                assert inc.entries[:, i, j].sum() == 0
                assert inc.path_store[(i, j)] == ()


def test_incidence_two_hop_path_marks_two_links():
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    for i in range(t.num_access_routers):
        for j in range(t.num_edge_clouds):
            if h.entries[i, j] == 2:
                assert inc.entries[:, i, j].sum() == 2


def test_incidence_total_equals_hops():
    t = build_topology(
        TopologyConfig(branching=3, depth=2, mesh_links=4, ec_rule="random", ec_count=5, seed=7)
    )
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    assert (inc.entries.sum(axis=0) == h.entries).all()


def test_incidence_breaks_ties_lexicographically():
    # A square: two equal-length paths between opposite corners.
    t = Topology(
        nodes=(0, 1, 2, 3),
        links=((0, 1), (0, 2), (1, 3), (2, 3)),
        access_routers=(0,),
        edge_clouds=(3,),
        datacenter_hops=12,
    )
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    chosen_links = inc.path_store[(0, 0)]
    chosen_nodes = [0]
    for l in chosen_links:
        u, v = t.links[l]
        chosen_nodes.append(v if chosen_nodes[-1] == u else u)
    oracle = min(all_shortest_paths(t, 0, 3))
    assert tuple(chosen_nodes) == oracle == (0, 1, 3)


def test_incidence_tie_break_matches_enumeration_on_meshes():
    t = build_topology(
        TopologyConfig(branching=4, depth=2, mesh_links=8, ec_rule="random", ec_count=6, seed=3)
    )
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    for i, a in enumerate(t.access_routers):
        for j, e in enumerate(t.edge_clouds):
            chosen = [a]
            for l in inc.path_store[(i, j)]:
                u, v = t.links[l]
                chosen.append(v if chosen[-1] == u else u)
            assert tuple(chosen) == min(all_shortest_paths(t, a, e))


SQUARE = Topology(
    nodes=(0, 1, 2, 3),
    links=((0, 1), (0, 2), (1, 3), (2, 3)),
    access_routers=(0,),
    edge_clouds=(3,),
    datacenter_hops=12,
)


@pytest.mark.parametrize(
    "make",
    [
        evaluation_topology,
        lambda: SQUARE,
        lambda: build_topology(TopologyConfig(branching=2, depth=3)),
        lambda: build_topology(TopologyConfig(branching=2, depth=2, ec_rule="all")),
        lambda: build_topology(TopologyConfig(branching=2, depth=3, mesh_links=3, seed=1)),
        lambda: build_topology(
            TopologyConfig(branching=(3, 3, 2), depth=3, mesh_links=5, ec_rule="random",
                           ec_count=6, seed=2)
        ),
        lambda: build_topology(
            TopologyConfig(branching=4, depth=2, mesh_links=8, ec_rule="random", ec_count=6,
                           seed=3)
        ),
        lambda: build_topology(
            TopologyConfig(branching=3, depth=3, mesh_links=8, ec_rule="all", seed=1)
        ),
        lambda: build_topology(TopologyConfig(branching=2, depth=8)),
    ],
    ids=["evaluation", "square", "tree", "tree-all", "mesh", "skinny-random", "mesh-random",
         "mesh-all", "depth8"],
)
def test_incidence_matches_stepwise_walk(make):
    # The next-hop tables give the entries, and path_store with its key
    # order, of a walk that re-chooses the next hop at every step.
    t = make()
    h = hop_matrix(t)
    inc = incidence_tensor(t, h)
    entries, path_store = incidence_walk(t, h)
    assert inc.entries.dtype == entries.dtype and np.array_equal(inc.entries, entries)
    assert list(inc.path_store.items()) == list(path_store.items())


def test_hop_matrix_invariant_to_link_insertion_order():
    links = ((0, 1), (0, 2), (1, 3), (1, 4), (2, 5))
    a = Topology(nodes=(0, 1, 2, 3, 4, 5), links=links, access_routers=(3, 4, 5),
                 edge_clouds=(1, 2), datacenter_hops=12)
    b = Topology(nodes=(0, 1, 2, 3, 4, 5), links=tuple(reversed(links)),
                 access_routers=(3, 4, 5), edge_clouds=(1, 2), datacenter_hops=12)
    assert (hop_matrix(a).entries == hop_matrix(b).entries).all()


@pytest.mark.parametrize("field", ["mesh_links", "seed"])
def test_config_refuses_a_negative_count_or_seed(field):
    with pytest.raises(TopologyError, match=f"{field} must be >= 0, got -3"):
        TopologyConfig(**{field: -3})


@pytest.mark.parametrize("rule", ["internal", "all", "leaves"])
def test_config_refuses_an_ec_count_the_rule_ignores(rule):
    with pytest.raises(TopologyError, match=f"ec_count is read only by ec_rule='random', not '{rule}'"):
        TopologyConfig(ec_rule=rule, ec_count=3)


def test_topology_round_trip(tmp_path):
    t = build_topology(TopologyConfig(branching=3, depth=2, mesh_links=2, seed=5))
    save_topology(t, tmp_path / "topo.json")
    assert load_topology(tmp_path / "topo.json") == t


@pytest.mark.parametrize("hops", [0, -2])
def test_topology_refuses_datacenter_hops_below_one(hops):
    with pytest.raises(TopologyError, match="datacenter_hops"):
        Topology(
            nodes=(0, 1), links=((0, 1),), access_routers=(1,), edge_clouds=(0,),
            datacenter_hops=hops,
        )


@pytest.mark.parametrize("hops", [12.9, "7", -4])
def test_topology_file_refuses_a_loose_datacenter_hops(tmp_path, hops):
    path = tmp_path / "topo.json"
    save_topology(build_topology(TopologyConfig(depth=2)), path)
    payload = json.loads(path.read_text())
    payload["datacenter_hops"] = hops
    path.write_text(json.dumps(payload))
    with pytest.raises(TopologyError, match="datacenter_hops"):
        load_topology(path)


def test_numpy_integer_settings_build_a_topology_that_saves(tmp_path):
    t = build_topology(TopologyConfig(branching=np.int64(2), depth=np.int64(2),
                                      datacenter_hops=np.int64(7)))
    assert t == build_topology(TopologyConfig(branching=2, depth=2, datacenter_hops=7))
    save_topology(t, tmp_path / "topo.json")
    assert load_topology(tmp_path / "topo.json") == t


def _star(**changes):
    """A hub with three leaves, with the given fields changed."""
    fields = dict(nodes=(0, 1, 2, 3), links=((0, 1), (0, 2), (0, 3)), access_routers=(1, 2, 3),
                  edge_clouds=(0, 1), datacenter_hops=12)
    return Topology(**{**fields, **changes})


@pytest.mark.parametrize(
    "changes,message",
    [({"access_routers": (1, 99)}, "access_routers name node 99, which is not among the nodes"),
     ({"edge_clouds": (99,)}, "edge_clouds name node 99, which is not among the nodes"),
     ({"edge_clouds": (0, 0, 1)}, "edge_clouds repeat node 0"),
     ({"access_routers": (1, 2, 2)}, "access_routers repeat node 2"),
     ({"nodes": (0, 1, 2, 3, 3)}, "nodes repeat node 3")],
    ids=["unknown-ar", "unknown-ec", "repeated-ec", "repeated-ar", "repeated-node"],
)
def test_topology_refuses_a_repeated_or_unknown_node(changes, message):
    _star()
    with pytest.raises(TopologyError, match=message):
        _star(**changes)
