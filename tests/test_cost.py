import itertools

import numpy as np
import pytest

from edgecache.cost import (
    Assignment,
    CachingCostUndefinedError,
    assignment_from_classes,
    caching_cost,
    check_feasibility,
    class_table,
    cost_breakdown,
    derive_routing,
    empty_assignment,
    network_tables,
    penalized_cost,
    total_cost,
    transmission_cost,
    utilization,
)
from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.instance import generate_instance, ratios

from conftest import manual_instance
from oracles import caching_cost_via_linearization, derive_routing_loop


def random_placement(inst, rng, allow_uncached=True):
    E = inst.topology.num_edge_clouds
    hi = E + 1 if allow_uncached else E
    classes = rng.integers(0, hi, size=inst.num_flows)
    x = np.zeros((inst.num_flows, E), dtype=np.int8)
    for k, c in enumerate(classes):
        if c < E:
            x[k, c] = 1
    return x


# --- utilization ------------------------------------------------------------


def test_utilization_single_flow(colocated_topology):
    inst = manual_instance(
        colocated_topology, [[1.0]], content_size=[50.0], ec_space=[100.0, 100.0]
    )
    x = np.array([[1, 0]], dtype=np.int8)
    assert utilization(inst, x)[0] == pytest.approx(0.5)
    assert utilization(inst, x)[1] == 0.0


def test_utilization_empty_placement(tree_topology):
    inst = generate_instance(tree_topology, 4, seed=0)
    assert (utilization(inst, empty_assignment(inst).x) == 0).all()


def test_utilization_matches_brute_sum(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=2)
    rng = np.random.default_rng(0)
    x = random_placement(inst, rng)
    u = utilization(inst, x)
    q = ratios(inst).q
    for e in range(tree_topology.num_edge_clouds):
        expected = sum(q[k, e] * x[k, e] for k in range(5))
        assert u[e] == pytest.approx(expected, abs=1e-12)


def test_utilization_monotone_under_added_flow(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=4)
    x = np.zeros((5, tree_topology.num_edge_clouds), dtype=np.int8)
    for k in range(5):
        before = utilization(inst, x).copy()
        x[k, 0] = 1
        after = utilization(inst, x)
        assert (after >= before - 1e-15).all()


# --- caching cost -----------------------------------------------------------


def test_caching_cost_half_utilization(colocated_topology):
    inst = manual_instance(
        colocated_topology, [[1.0]], content_size=[50.0], ec_space=[100.0, 100.0]
    )
    x = np.array([[1, 0]], dtype=np.int8)
    assert caching_cost(inst, x) == pytest.approx(2.0)


def test_caching_cost_empty_is_zero(tree_topology):
    inst = generate_instance(tree_topology, 3, seed=1)
    assert caching_cost(inst, empty_assignment(inst).x) == 0.0


def test_caching_cost_two_flows_sharing(colocated_topology):
    inst = manual_instance(
        colocated_topology,
        [[1.0], [1.0]],
        content_size=[25.0, 25.0],
        ec_space=[100.0, 100.0],
    )
    x = np.array([[1, 0], [1, 0]], dtype=np.int8)
    assert caching_cost(inst, x) == pytest.approx(2 / (1 - 0.5))


def test_caching_cost_rejects_full_ec(colocated_topology):
    inst = manual_instance(
        colocated_topology, [[1.0]], content_size=[120.0], ec_space=[100.0, 100.0]
    )
    x = np.array([[1, 0]], dtype=np.int8)
    with pytest.raises(CachingCostUndefinedError):
        caching_cost(inst, x)


def test_linearized_form_matches_direct_form(tree_topology):
    rng = np.random.default_rng(7)
    for trial in range(100):
        inst = generate_instance(tree_topology, 5, seed=trial)
        x = random_placement(inst, rng)
        if (utilization(inst, x) >= 1).any():
            continue
        direct = caching_cost(inst, x)
        linearized = caching_cost_via_linearization(inst, x)
        assert abs(direct - linearized) < 1e-9


# --- routing derivation -----------------------------------------------------


def test_derive_routing_colocated_hit_uses_no_links(colocated_topology):
    inst = manual_instance(colocated_topology, [[1.0]], content_size=[10.0])
    x = np.array([[0, 1]], dtype=np.int8)  # cache at the AR itself
    asg = derive_routing(inst, x)
    assert asg.z[0, 0, 1] == 1
    assert asg.y.sum() == 0  # zero hops means an empty path


def test_derive_routing_uncached_flow_is_all_zero(tree_topology):
    inst = generate_instance(tree_topology, 2, seed=3)
    asg = derive_routing(inst, np.zeros((2, tree_topology.num_edge_clouds), dtype=np.int8))
    assert asg.z.sum() == 0 and asg.y.sum() == 0


def test_derive_routing_skips_retrieval_beyond_datacenter(path_topology):
    # Make the datacenter closer than the EC: retrieval must not happen.
    t = path_topology
    nearer = manual_instance(t, [[1.0]], content_size=[10.0])
    far = type(t)(
        nodes=t.nodes, links=t.links, access_routers=t.access_routers,
        edge_clouds=t.edge_clouds, datacenter_hops=2,
    )
    inst = manual_instance(far, [[1.0]], content_size=[10.0])
    x = np.array([[1, 0]], dtype=np.int8)  # EC at node 1 is 3 hops away
    asg = derive_routing(inst, x)
    assert asg.z.sum() == 0  # miss (2 hops) beats retrieval (3 hops)
    near = derive_routing(nearer, x)
    assert near.z.sum() == 1  # with N_T = 12 the same EC is worth using


def exhaustive_best_transmission(inst, x):
    """Enumerate every z satisfying uniqueness and cache-consistency and
    return the minimum transmission cost (links unconstrained)."""
    hops, inc = network_tables(inst.topology)
    K, A = inst.mobility.shape
    E = inst.topology.num_edge_clouds
    choices_per_slot = []
    for k in range(K):
        cached = [e for e in range(E) if x[k, e]]
        for a in range(A):
            choices_per_slot.append([None] + [(k, a, e) for e in cached])
    best = np.inf
    for combo in itertools.product(*choices_per_slot):
        z = np.zeros((K, A, E), dtype=np.int8)
        for entry in combo:
            if entry is not None:
                z[entry] = 1
        y = (inc.entries.reshape(inst.topology.num_links, A * E) @ z.reshape(K, A * E).T > 0).T
        asg = Assignment(x=np.asarray(x, dtype=np.int8), z=z, y=y.astype(np.int8))
        ct, _, _ = transmission_cost(inst, asg)
        best = min(best, ct)
    return best


def test_derive_routing_minimizes_transmission(tree_topology):
    # Small enough to enumerate every consistent z.
    from edgecache.topology import Topology

    t = Topology(
        nodes=(0, 1, 2, 3, 4),
        links=((0, 1), (0, 2), (1, 3), (1, 4), (2, 4), (2, 3)),
        access_routers=(3, 4),
        edge_clouds=(1, 2),
        datacenter_hops=12,
    )
    rng = np.random.default_rng(5)
    for seed in range(10):
        inst = generate_instance(t, 2, seed=seed)
        x = random_placement(inst, rng)
        asg = derive_routing(inst, x)
        ct, _, _ = transmission_cost(inst, asg)
        assert ct == pytest.approx(exhaustive_best_transmission(inst, x), abs=1e-9)


# --- transmission cost ------------------------------------------------------


def test_transmission_single_hit(path_topology):
    inst = manual_instance(path_topology, [[1.0]], content_size=[10.0])
    x = np.array([[0, 1]], dtype=np.int8)  # EC at node 3, one hop from AR 4
    ct, ch, cm = transmission_cost(inst, derive_routing(inst, x))
    assert (ct, ch, cm) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.0))


def test_transmission_all_miss(path_topology):
    inst = manual_instance(path_topology, [[1.0]], content_size=[10.0])
    ct, ch, cm = transmission_cost(inst, empty_assignment(inst))
    assert ct == pytest.approx(12.0)
    assert ch == 0.0


def test_transmission_partial_hit():
    from edgecache.topology import Topology

    t = Topology(
        nodes=(0, 1, 2),
        links=((0, 1), (0, 2)),
        access_routers=(1, 2),
        edge_clouds=(0,),
        datacenter_hops=10,
    )
    inst = manual_instance(t, [[0.6, 0.0]], content_size=[10.0])
    x = np.array([[1]], dtype=np.int8)
    ct, ch, cm = transmission_cost(inst, derive_routing(inst, x))
    # 0.6 of the mass hits at 1 hop, the remaining 0.4 misses at 10.
    assert ch == pytest.approx(0.6)
    assert cm == pytest.approx(0.4 * 10)
    assert ct == pytest.approx(4.6)


# --- total and penalized cost ----------------------------------------------


def test_total_cost_alpha_zero_is_pure_transmission(tree_topology):
    rng = np.random.default_rng(1)
    inst = generate_instance(tree_topology, 4, seed=6)
    inst = manual_instance(
        tree_topology,
        inst.mobility,
        inst.content_size,
        bandwidth=inst.bandwidth,
        ec_space=inst.ec_space,
        link_capacity=inst.link_capacity,
        alpha=0.0,
        beta=0.7,
    )
    x = random_placement(inst, rng)
    asg = derive_routing(inst, x)
    bd = total_cost(inst, asg)
    assert bd.total == pytest.approx(0.7 * bd.transmission)


def test_total_cost_beta_zero_empty_is_free(tree_topology):
    inst = generate_instance(tree_topology, 3, seed=9)
    inst = manual_instance(
        tree_topology, inst.mobility, inst.content_size, alpha=0.9, beta=0.0
    )
    bd = total_cost(inst, empty_assignment(inst))
    assert bd.total == 0.0


def test_total_cost_matches_unfused_oracle(tree_topology):
    rng = np.random.default_rng(3)
    hops, _ = network_tables(tree_topology)
    nt = tree_topology.datacenter_hops
    for seed in range(20):
        inst = generate_instance(tree_topology, 5, seed=seed)
        x = random_placement(inst, rng)
        if (utilization(inst, x) >= 1).any():
            continue
        asg = derive_routing(inst, x)
        bd = total_cost(inst, asg)
        # independent single-pass recomputation
        q = ratios(inst).q
        cc = 0.0
        for e in range(tree_topology.num_edge_clouds):
            n_e = int(asg.x[:, e].sum())
            if n_e:
                cc += n_e / (1 - sum(q[k, e] * asg.x[k, e] for k in range(5)))
        ch = 0.0
        cm = 0.0
        for k in range(5):
            served = 0.0
            for a in range(tree_topology.num_access_routers):
                for e in range(tree_topology.num_edge_clouds):
                    if asg.z[k, a, e]:
                        ch += inst.mobility[k, a] * hops.entries[a, e]
                        served += inst.mobility[k, a]
            cm += (1 - served) * nt
        expected = inst.alpha * cc + inst.beta * (ch + cm)
        assert bd.total == pytest.approx(expected, abs=1e-9)
        assert bd.transmission == pytest.approx(bd.hit + bd.miss, abs=1e-12)


def test_penalized_equals_total_when_feasible(tree_topology):
    inst = generate_instance(tree_topology, 4, seed=12)
    asg = derive_routing(inst, random_placement(inst, np.random.default_rng(2)))
    if check_feasibility(inst, asg).feasible:
        assert penalized_cost(inst, asg) == pytest.approx(total_cost(inst, asg).total)


def test_penalized_overfull_ec_hinge(colocated_topology):
    inst = manual_instance(
        colocated_topology,
        [[1.0], [1.0]],
        content_size=[60.0, 60.0],
        ec_space=[100.0, 100.0],
        alpha=0.5,
        beta=0.5,
    )
    x = np.array([[1, 0], [1, 0]], dtype=np.int8)  # U = 1.2
    asg = derive_routing(inst, x)
    bd = cost_breakdown(inst, asg, gamma=20.0)
    assert bd.penalty == pytest.approx(20.0 * 0.2)
    assert not bd.feasible
    assert bd.penalized_total == pytest.approx(bd.total + 4.0)


def test_penalized_link_hinge():
    from edgecache.topology import Topology

    t = Topology(
        nodes=(0, 1),
        links=((0, 1),),
        access_routers=(1,),
        edge_clouds=(0,),
        datacenter_hops=12,
    )
    # Two flows retrieve across the single link; loads r = 0.6 and 0.5.
    inst = manual_instance(
        t,
        [[1.0], [1.0]],
        content_size=[10.0, 10.0],
        bandwidth=[60.0, 50.0],
        ec_space=[1000.0],
        link_capacity=[100.0],
    )
    x = np.array([[1], [1]], dtype=np.int8)
    asg = derive_routing(inst, x)
    bd = cost_breakdown(inst, asg, gamma=20.0)
    assert bd.penalty == pytest.approx(20.0 * 0.1)
    tc_n = penalized_cost(inst, asg, gamma=20.0)
    assert tc_n == pytest.approx(bd.total + 2.0)


def test_penalized_never_below_total(tree_topology):
    rng = np.random.default_rng(8)
    for seed in range(30):
        inst = generate_instance(tree_topology, 5, seed=seed)
        asg = derive_routing(inst, random_placement(inst, rng))
        bd = cost_breakdown(inst, asg)
        assert bd.penalized_total >= bd.total - 1e-12
        if check_feasibility(inst, asg).feasible:
            assert bd.penalty == 0.0


# --- class-table kernel ----------------------------------------------------


@pytest.mark.parametrize("flows", [5, 15])
def test_kernel_matches_cost_breakdown_and_routing_loop(flows):
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(flows)
    for seed in range(10):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        table = class_table(inst)
        for _ in range(20):
            classes = rng.integers(0, E + 1, size=flows)
            asg = table.assignment(classes)
            ref = derive_routing_loop(inst, asg.x)
            assert (asg.x == ref.x).all() and (asg.z == ref.z).all() and (asg.y == ref.y).all()
            for gamma in (20.0, 3.5):
                expected = cost_breakdown(inst, asg, gamma=gamma).penalized_total
                assert abs(table.price(classes, gamma) - expected) <= 1e-12 * abs(expected)


# --- feasibility ------------------------------------------------------------


def test_empty_assignment_is_feasible(tree_topology):
    inst = generate_instance(tree_topology, 3, seed=5)
    assert check_feasibility(inst, empty_assignment(inst)).feasible


def test_capacity_violation_detected(colocated_topology):
    inst = manual_instance(
        colocated_topology,
        [[1.0], [1.0]],
        content_size=[300.0, 300.0],
        ec_space=[500.0, 500.0],
    )
    x = np.array([[1, 0], [1, 0]], dtype=np.int8)
    report = check_feasibility(inst, derive_routing(inst, x))
    assert not report.ec_capacity
    assert not report.feasible
    assert report.single_placement and report.unique_retrieval


def test_feasibility_matches_inequality_oracle(tree_topology):
    rng = np.random.default_rng(6)
    rat_cache = {}
    for seed in range(25):
        inst = generate_instance(tree_topology, 5, seed=seed)
        asg = derive_routing(inst, random_placement(inst, rng))
        report = check_feasibility(inst, asg)
        # independent re-evaluation of every inequality
        ok_b = all(asg.x[k].sum() <= 1 for k in range(5))
        ok_c = all(
            sum(inst.content_size[k] * asg.x[k, e] for k in range(5))
            <= inst.ec_space[e] * (1 + 1e-9)
            for e in range(tree_topology.num_edge_clouds)
        )
        ok_f = all(
            sum(inst.bandwidth[k] * asg.y[k, l] for k in range(5))
            <= inst.link_capacity[l] * (1 + 1e-9)
            for l in range(tree_topology.num_links)
        )
        assert report.single_placement == ok_b
        assert report.ec_capacity == ok_c
        assert report.link_capacity == ok_f
        assert report.feasible == (ok_b and ok_c and ok_f
                                   and report.unique_retrieval
                                   and report.retrieval_requires_cache
                                   and report.link_path_consistency)


def test_assignment_from_classes_round_trip(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=14)
    E = tree_topology.num_edge_clouds
    classes = np.array([0, E, 3, E, 1])
    asg = assignment_from_classes(inst, classes)
    assert (asg.x.sum(axis=1) == np.array([1, 0, 1, 0, 1])).all()
    assert asg.x[0, 0] == 1 and asg.x[2, 3] == 1 and asg.x[4, 1] == 1


def test_assignment_file_round_trip(tmp_path, tree_topology):
    from edgecache.cost import load_assignment, save_assignment

    inst = generate_instance(tree_topology, 4, seed=2)
    asg = derive_routing(inst, random_placement(inst, np.random.default_rng(1)))
    save_assignment(asg, tmp_path / "asg.json")
    back = load_assignment(tmp_path / "asg.json")
    assert (back.x == asg.x).all() and (back.z == asg.z).all() and (back.y == asg.y).all()
