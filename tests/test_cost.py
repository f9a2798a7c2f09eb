import dataclasses
import itertools
import json

import numpy as np
import pytest

from edgecache import cost as costmod
from edgecache.cost import (
    Assignment,
    CachingCostUndefinedError,
    assignment_from_classes,
    caching_cost,
    check_feasibility,
    class_table,
    cost_breakdown,
    derive_routing,
    labels_of,
    network_tables,
    path_links,
    penalized_cost,
    total_cost,
    utilization,
)
from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.instance import ParameterRanges, generate_instance, ratios
from edgecache.topology import (
    Topology, TopologyConfig, build_topology, hop_matrix, incidence_tensor,
)

from conftest import manual_instance
from oracles import (
    caching_cost_via_linearization,
    class_table_reference,
    derive_routing_loop,
    price_reference,
    subset_flows,
    validate_assignment_reference,
)


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
    x = assignment_from_classes(inst, [tree_topology.num_edge_clouds] * 4).x
    assert (utilization(inst, x) == 0).all()


def test_utilization_matches_brute_sum(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=2)
    rng = np.random.default_rng(0)
    x = random_placement(inst, rng)
    u = utilization(inst, x)
    q, _ = ratios(inst)
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
    x = assignment_from_classes(inst, [tree_topology.num_edge_clouds] * 3).x
    assert caching_cost(inst, x) == 0.0


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
    entries, _ = incidence_tensor(inst.topology, hop_matrix(inst.topology))
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
        y = (entries.reshape(inst.topology.num_links, A * E) @ z.reshape(K, A * E).T > 0).T
        asg = Assignment(x=np.asarray(x, dtype=np.int8), z=z, y=y.astype(np.int8))
        ct = cost_breakdown(inst, asg).transmission
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
        ct = cost_breakdown(inst, asg).transmission
        assert ct == pytest.approx(exhaustive_best_transmission(inst, x), abs=1e-9)


# --- transmission cost ------------------------------------------------------


def test_transmission_single_hit(path_topology):
    inst = manual_instance(path_topology, [[1.0]], content_size=[10.0])
    x = np.array([[0, 1]], dtype=np.int8)  # EC at node 3, one hop from AR 4
    bd = cost_breakdown(inst, derive_routing(inst, x))
    ct, ch, cm = bd.transmission, bd.hit, bd.miss
    assert (ct, ch, cm) == (pytest.approx(1.0), pytest.approx(1.0), pytest.approx(0.0))


def test_transmission_all_miss(path_topology):
    inst = manual_instance(path_topology, [[1.0]], content_size=[10.0])
    bd = cost_breakdown(inst, assignment_from_classes(inst, [path_topology.num_edge_clouds]))
    ct, ch = bd.transmission, bd.hit
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
    bd = cost_breakdown(inst, derive_routing(inst, x))
    ct, ch, cm = bd.transmission, bd.hit, bd.miss
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
    bd = total_cost(inst, assignment_from_classes(inst, [tree_topology.num_edge_clouds] * 3))
    assert bd.total == 0.0


def test_total_cost_matches_unfused_oracle(tree_topology):
    rng = np.random.default_rng(3)
    hops = hop_matrix(tree_topology)
    nt = tree_topology.datacenter_hops
    for seed in range(20):
        inst = generate_instance(tree_topology, 5, seed=seed)
        x = random_placement(inst, rng)
        if (utilization(inst, x) >= 1).any():
            continue
        asg = derive_routing(inst, x)
        bd = total_cost(inst, asg)
        # independent single-pass recomputation
        q, _ = ratios(inst)
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
                        ch += inst.mobility[k, a] * hops[a, e]
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


@pytest.mark.parametrize("flows", [3, 8, 15])
def test_penalized_cost_is_the_breakdown_total_bit_for_bit(flows):
    # penalized_cost skips the consistency check of y that cost_breakdown
    # runs for its verdict; the total must not move, even when y is wrong.
    topo = evaluation_topology()
    rng = np.random.default_rng([flows, 31])
    E = topo.num_edge_clouds
    for seed in range(6):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        asg = assignment_from_classes(inst, rng.integers(0, E + 1, size=flows))
        flipped = asg.y.copy()
        flipped[rng.integers(flows), rng.integers(topo.num_links)] ^= 1
        for a in (asg, Assignment(x=asg.x, z=asg.z, y=flipped)):
            bd = cost_breakdown(inst, a, gamma=7.5)
            assert penalized_cost(inst, a, gamma=7.5).hex() == bd.penalized_total.hex()
        assert not cost_breakdown(inst, Assignment(x=asg.x, z=asg.z, y=flipped)).feasible


def test_assignment_from_classes_looks_the_network_tables_up_once(tree_topology, monkeypatch):
    inst = generate_instance(tree_topology, 5, seed=3)
    want = assignment_from_classes(inst, [0, 1, 2, 6, 3])
    calls = []

    def counted(t):
        calls.append(t)
        return network_tables(t)

    monkeypatch.setattr(costmod, "network_tables", counted)
    got = assignment_from_classes(inst, [0, 1, 2, 6, 3])
    assert len(calls) == 1
    assert _same_bytes(got, want)


@pytest.mark.parametrize("resource", ["ec", "link"])
@pytest.mark.parametrize("excess, feasible", [(5e-10, True), (2e-9, False)])
def test_capacity_verdict_allows_1e9_of_slack_on_the_priced_sums(resource, excess, feasible):
    # One flow cached at the one EC and served across the one link, its
    # ratio 1 + excess on one of them.  The hinge prices any overshoot
    # past 1; the verdict reads the same sum against 1 + 1e-9.
    t = Topology(
        nodes=(0, 1), links=((0, 1),), access_routers=(1,), edge_clouds=(0,), datacenter_hops=12
    )
    inst = manual_instance(
        t,
        [[1.0]],
        content_size=[1.0 + excess if resource == "ec" else 0.5],
        bandwidth=[1.0 + excess if resource == "link" else 0.5],
        ec_space=[1.0],
        link_capacity=[1.0],
    )
    asg = assignment_from_classes(inst, [0])
    bd = cost_breakdown(inst, asg, gamma=20.0)
    assert bd.penalty == pytest.approx(20.0 * excess, rel=1e-6)
    assert bd.feasible == feasible
    report = check_feasibility(inst, asg)
    assert (report.ec_capacity, report.link_capacity) == (
        feasible or resource == "link",
        feasible or resource == "ec",
    )
    assert class_table(inst).breakdown([0]).feasible == feasible


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
            asg = assignment_from_classes(inst, classes)
            ref = derive_routing_loop(inst, asg.x)
            assert (asg.x == ref.x).all() and (asg.z == ref.z).all() and (asg.y == ref.y).all()
            for gamma in (20.0, 3.5):
                expected = cost_breakdown(inst, asg, gamma=gamma).penalized_total
                assert abs(table.price(classes, gamma) - expected) <= 1e-12 * abs(expected)
                assert table.price(classes, gamma) == expected
                assert price_reference(table, classes, gamma) == expected


def assert_stack_is_exact(inst, stack, gamma, table=None):
    # Each row of a stacked call is the float of the row alone, of the
    # unfused kernel (price_reference) and of cost_breakdown on the
    # materialized row: exact equality, no tolerance.  table defaults to
    # inst's own; a block table is checked against its sub-instance.
    table = class_table(inst) if table is None else table
    priced = table.price(stack, gamma)
    floors = table.transmission(stack)
    assert priced.shape == floors.shape == (len(stack),)
    assert priced.tobytes() == price_reference(table, stack, gamma).tobytes()
    for row, value, floor in zip(stack, priced, floors):
        assert value == table.price(row, gamma) == price_reference(table, row, gamma)
        assert floor == table.transmission(row)
        asg = assignment_from_classes(inst, row)
        assert value == cost_breakdown(inst, asg, gamma=gamma).penalized_total


@pytest.mark.parametrize("flows", [1, 5, 8, 15, 20])
def test_stacked_price_is_exact_per_row(flows):
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(100 + flows)
    overfull = overloaded = 0
    for seed in range(4):
        base = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        tight = dataclasses.replace(
            base, ec_space=base.ec_space * 0.1, link_capacity=base.link_capacity * 0.1
        )
        for inst in (base, tight):
            stack = rng.integers(0, E + 1, size=(40, flows))
            stack[0] = E  # all uncached
            stack[1] = 0  # every flow on one EC
            for row in stack:
                report = check_feasibility(inst, assignment_from_classes(inst, row))
                overfull += not report.ec_capacity
                overloaded += not report.link_capacity
            for gamma in (20.0, 3.5):
                assert_stack_is_exact(inst, stack, gamma)
                # PEL's last stacks are this small, and its walk can end on an empty one.
                for n in (0, 1, 2):
                    assert_stack_is_exact(inst, stack[:n], gamma)
    assert overfull and overloaded  # the clamp and link-hinge branches ran


def _residual_blocks(inst, block, rng):
    """(sub-instance, block table) of each block of inst's flows at random
    residual capacities, as recursive_allocate takes them."""
    table = class_table(inst)
    shrunk = dataclasses.replace(
        inst,
        ec_space=inst.ec_space * rng.uniform(0.05, 1.0, inst.ec_space.size),
        link_capacity=inst.link_capacity * rng.uniform(0.05, 1.0, inst.link_capacity.size),
    )
    for start in range(0, inst.num_flows, block):
        rows = slice(start, start + block)
        sub = subset_flows(shrunk, range(inst.num_flows)[rows])
        yield sub, table.block(rows, *ratios(sub))


@pytest.mark.parametrize("flows, block", [(8, 3), (15, 5), (20, 8)])
def test_block_table_prices_exactly_as_its_sub_instance(flows, block):
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(200 + flows)
    for seed in range(3):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        for sub, part in _residual_blocks(inst, block, rng):
            stack = rng.integers(0, E + 1, size=(30, sub.num_flows))
            for gamma in (20.0, 3.5):
                assert_stack_is_exact(sub, stack, gamma, table=part)


def test_stacked_price_is_exact_with_many_ecs():
    # E = 15: the caching sum runs over more than eight summands, so it is
    # not a plain left-to-right sum, and price and cost_breakdown agree
    # because both go through the one _priced.
    topo = build_topology(TopologyConfig(branching=2, depth=3, ec_rule="all"))
    E = topo.num_edge_clouds
    assert E > 8
    rng = np.random.default_rng(7)
    for flows in (1, 5, 8, 9, 15, 20):
        for seed in range(3):
            inst = generate_instance(topo, flows, seed=seed)
            tight = dataclasses.replace(inst, ec_space=inst.ec_space * 0.05)
            for case in (inst, tight):
                stack = rng.integers(0, E + 1, size=(30, flows))
                stack[0] = E
                assert_stack_is_exact(case, stack, 20.0)
                assert_stack_is_exact(case, stack[-1:], 20.0)


def _same_bytes(a, b):
    return all(
        getattr(a, f).dtype == getattr(b, f).dtype
        and getattr(a, f).shape == getattr(b, f).shape
        and getattr(a, f).tobytes() == getattr(b, f).tobytes()
        for f in ("x", "z", "y")
    )


@pytest.mark.parametrize("flows", [1, 5, 15])
def test_table_assignment_matches_assignment_from_classes(flows):
    # On a whole table and on block tables against their sub-instances.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(300 + flows)
    for seed in range(3):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        table = class_table(inst)
        for classes in rng.integers(0, E + 1, size=(10, flows)):
            assert _same_bytes(table.assignment(classes), assignment_from_classes(inst, classes))
        for sub, part in _residual_blocks(inst, 4, rng):
            classes = rng.integers(0, E + 1, size=sub.num_flows)
            assert _same_bytes(part.assignment(classes), assignment_from_classes(sub, classes))


def test_table_breakdown_matches_cost_breakdown():
    # Every field, floats to the bit, on feasible and infeasible vectors.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(400)
    verdicts = set()
    for flows in (1, 5, 15):
        for seed in range(3):
            base = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
            tight = dataclasses.replace(
                base, ec_space=base.ec_space * 0.1, link_capacity=base.link_capacity * 0.1
            )
            for inst in (base, tight):
                table = class_table(inst)
                for classes in rng.integers(0, E + 1, size=(10, flows)):
                    for gamma in (20.0, 3.5):
                        got = table.breakdown(classes, gamma)
                        want = cost_breakdown(inst, assignment_from_classes(inst, classes), gamma)
                        assert repr(got) == repr(want)  # a float's repr pins its bits
                        verdicts.add(got.feasible)
    assert verdicts == {True, False}


@pytest.mark.parametrize("excess", [-2e-9, 5e-10, 2e-9])
def test_table_breakdown_matches_its_assignment_at_the_capacity_margin(excess):
    # ClassTable.breakdown against cost_breakdown of the table's own
    # assignment, feasible included, with each vector's used ECs and
    # links resized to a ratio sum of 1 + excess: the verdict is decided
    # at its 1e-9 of slack.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(410)
    for flows in (5, 15):
        base = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, 7])
        q, r = ratios(base)
        for classes in rng.integers(0, E, size=(20, flows)):
            asg = assignment_from_classes(base, classes)
            u, load = (q * asg.x).sum(axis=0), (r * asg.y).sum(axis=0)
            inst = dataclasses.replace(
                base,
                ec_space=np.where(u > 0, base.ec_space * u / (1 + excess), base.ec_space),
                link_capacity=np.where(
                    load > 0, base.link_capacity * load / (1 + excess), base.link_capacity
                ),
            )
            table = class_table(inst)
            asg = table.assignment(classes)
            got = table.breakdown(classes)
            assert repr(got) == repr(cost_breakdown(inst, asg))  # a float's repr pins its bits
            assert got.feasible == check_feasibility(inst, asg).feasible == (excess < 1e-9)


@pytest.mark.parametrize("where", ["first", "middle", "last"])
@pytest.mark.parametrize("bad", ["-1", "-E-1", "E+1", "float", "bool"])
def test_a_class_outside_0_to_e_is_refused(bad, where):
    # A flat gather would read class E+1 of one flow as class 0 of the
    # next, and a negative class from the end of the row.  A float or
    # bool vector is refused by its dtype, though its values lie in
    # 0..E: a bool one would be read as classes 1 and 0.
    inst = generate_instance(evaluation_topology(), 3, ranges=DATASET_RANGES, seed=[3, 0])
    E = inst.topology.num_edge_clouds
    classes = [0, 1, E]
    at = {"first": 0, "middle": 1, "last": 2}[where]
    if bad == "float":
        classes[at] = float(classes[at])
        match = "classes must be integers, got dtype float64"
    elif bad == "bool":
        classes = np.arange(3) == at
        match = "classes must be integers, got dtype bool"
    else:
        classes[at] = {"-1": -1, "-E-1": -E - 1, "E+1": E + 1}[bad]
        match = rf"classes must lie in 0\.\.{E}"
    table = class_table(inst)
    calls = {
        "price": lambda c: table.price(c),
        "price of a stack": lambda c: table.price([np.zeros_like(c), c]),
        "transmission": lambda c: table.transmission(c),
        "assignment": lambda c: table.assignment(c),
        "breakdown": lambda c: table.breakdown(c),
        "assignment_from_classes": lambda c: assignment_from_classes(inst, c),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=match):
            call(classes)
            pytest.fail(name)


@pytest.mark.parametrize("shape", [(), (2,), (4,), (3, 1), (1, 2, 3), (3, 3, 3)])
def test_a_class_array_of_another_shape_is_refused(shape):
    # Only a (K,) vector, or for price and transmission an (N, K) stack:
    # a 3-D stack would gather flow-major on the wrong axis, and a
    # (N, 1) stack would broadcast one class to every flow.
    inst = generate_instance(evaluation_topology(), 3, ranges=DATASET_RANGES, seed=[3, 0])
    table = class_table(inst)
    classes = np.zeros(shape, dtype=int)
    calls = {
        "price": table.price,
        "transmission": table.transmission,
        "assignment": table.assignment,
        "breakdown": table.breakdown,
        "assignment_from_classes": lambda c: assignment_from_classes(inst, c),
    }
    for name, call in calls.items():
        with pytest.raises(ValueError, match=r"classes must have shape \(K,\)"):
            call(classes)
            pytest.fail(name)
    for name in ("assignment", "breakdown", "assignment_from_classes"):
        with pytest.raises(ValueError, match=r"classes must have shape \(K,\) with K = 3"):
            calls[name](np.zeros((2, 3), dtype=int))
            pytest.fail(name)


def test_single_vector_prices_are_floats():
    inst = generate_instance(evaluation_topology(), 5, ranges=DATASET_RANGES, seed=[5, 0])
    table = class_table(inst)
    classes = np.zeros(5, dtype=int)
    assert type(table.price(classes)) is float
    assert type(table.transmission(classes)) is float


def test_path_links_counts_past_int8():
    # Depth-8 binary tree: 256 ARs, 510 links.  One flow served at every
    # AR from the root crosses every link, and each link below the root
    # carries 128 of those paths.  Only the root is an EC here: the
    # paths to it are those of the full network, whose 255-EC incidence
    # tensor takes seconds to tabulate.
    full = build_topology(TopologyConfig(branching=2, depth=8))
    t = dataclasses.replace(full, edge_clouds=(full.edge_clouds[0],))
    A = t.num_access_routers
    inst = manual_instance(t, np.full((1, A), 1.0 / A), content_size=[10.0])
    z = np.ones((1, A, 1), dtype=np.int8)
    assert int(path_links(inst, z).sum()) == t.num_links == 510


def _depth8_tree():
    full = build_topology(TopologyConfig(branching=2, depth=8))
    return dataclasses.replace(full, edge_clouds=(0, 1, 2))


@pytest.mark.parametrize(
    "make",
    [
        evaluation_topology,
        lambda: build_topology(TopologyConfig(branching=2, depth=3)),
        lambda: build_topology(TopologyConfig(branching=2, depth=3, ec_rule="all")),
        _depth8_tree,
        lambda: dataclasses.replace(evaluation_topology(), datacenter_hops=2),
    ],
    ids=["evaluation-e6", "tree-e7", "tree-all-e15", "depth8-l510", "short-datacenter"],
)
@pytest.mark.parametrize("flows", [1, 5, 8, 15, 20])
def test_class_table_matches_the_z_tensor_reference(make, flows):
    # Every array field byte for byte, dtype and shape included.
    topo = make()
    for seed in range(2):
        inst = generate_instance(topo, flows, seed=[flows, seed])
        got, want = class_table(inst), class_table_reference(inst)
        assert got.inst is want.inst
        for name in ("serve", "links", "hit", "miss", "T", "Q", "r", "onehot", "rows"):
            a, b = getattr(got, name), getattr(want, name)
            assert (a.dtype, a.shape) == (b.dtype, b.shape), name
            assert a.tobytes() == b.tobytes(), name
    reach = network_tables(topo).in_reach
    assert reach.any()
    if topo.datacenter_hops == 2:
        assert not reach.all()  # some paths lose to the datacenter


def test_network_tables_are_read_only_and_shared():
    a = build_topology(TopologyConfig(branching=2, depth=3))
    b = build_topology(TopologyConfig(branching=2, depth=3))
    assert a is not b and a == b
    net = network_tables(a)
    assert network_tables(b) is net
    for name, arr in vars(net).items():
        if name == "path_store":
            with pytest.raises(TypeError):
                arr[0, 0] = ()
        else:
            assert not arr.flags.writeable, name
    # A returned assignment owns its arrays: writing to them changes no
    # later result.
    inst = generate_instance(a, 5, seed=0)
    table = class_table(inst)
    classes = [0, 3, a.num_edge_clouds, 3, 6]
    want = derive_routing_loop(inst, assignment_from_classes(inst, classes).x)
    for make in (lambda: assignment_from_classes(inst, classes), lambda: table.assignment(classes)):
        first = make()
        for arr in (first.x, first.z, first.y):
            arr[...] = 1
        assert _same_bytes(make(), want)


def test_cost_caches_one_table_per_topology(tree_topology):
    caches = [name for name, value in vars(costmod).items() if hasattr(value, "cache_clear")]
    assert caches == ["network_tables"]
    inst = generate_instance(tree_topology, 5, seed=0)
    before = class_table(inst)
    network_tables.cache_clear()
    table = class_table(inst)
    assert network_tables.cache_info().currsize == 1
    assert table.onehot is network_tables(tree_topology).onehot
    for name in ("serve", "links", "hit", "miss", "T"):
        assert getattr(table, name).tobytes() == getattr(before, name).tobytes(), name


def test_caching_cost_is_the_priced_caching_term():
    # At 15 ECs a sum over the hosting ECs alone differs from the priced
    # row of E summands in the last bit on about a quarter of these.
    topo = build_topology(TopologyConfig(branching=2, depth=3, ec_rule="all"))
    assert topo.num_edge_clouds == 15
    ranges = ParameterRanges(ec_space=(400.0, 600.0))
    rng = np.random.default_rng(0)
    checked = 0
    for seed in range(400):
        inst = generate_instance(topo, 12, ranges=ranges, seed=[77, seed])
        asg = assignment_from_classes(inst, rng.integers(0, 16, 12))
        if (utilization(inst, asg.x) >= 1.0).any():
            continue
        want = cost_breakdown(inst, asg).caching
        assert caching_cost(inst, asg.x).hex() == want.hex(), seed
        checked += 1
    assert checked == 400


@pytest.mark.parametrize("field", ["x", "z", "y"])
@pytest.mark.parametrize("value", [2, -1, 0.5, np.int8(-1)])
def test_assignment_rejects_non_binary(tree_topology, field, value):
    inst = generate_instance(tree_topology, 3, seed=0)
    asg = derive_routing(inst, random_placement(inst, np.random.default_rng(0)))
    arrays = {"x": asg.x, "z": asg.z, "y": asg.y}
    bad = arrays[field].astype(type(value))
    bad.flat[0] = value
    arrays[field] = bad
    with pytest.raises(ValueError, match=f"{field} must be binary"):
        Assignment(**arrays)


@pytest.mark.parametrize(
    "field,index,message",
    [
        ("x", (1, slice(0, 2)), "placed at more than one EC"),
        ("z", (0, 0, slice(0, 2)), "retrieves from more than one EC"),
        ("z", (1, 0, 0), "does not cache the flow"),
    ],
    ids=["two-ecs", "two-retrieval-ecs", "retrieval-without-cache"],
)
def test_assignment_rejects_structural_violation(tree_topology, field, index, message):
    # Flow 0 is cached at EC 0, flow 1 is uncached; check_feasibility
    # reports no structural family because no Assignment can violate one.
    inst = generate_instance(tree_topology, 2, seed=0)
    asg = assignment_from_classes(inst, [0, tree_topology.num_edge_clouds])
    arrays = {"x": asg.x.copy(), "z": asg.z.copy(), "y": asg.y}
    arrays[field][index] = 1
    with pytest.raises(ValueError, match=message):
        Assignment(**arrays)


def _verdict(check, x, z, y):
    """None when check accepts (x, z, y), else its error message."""
    try:
        check(x=x, z=z, y=y)
    except ValueError as exc:
        return str(exc)
    return None


def assert_same_verdict(x, z, y):
    got = _verdict(Assignment, x, z, y)
    assert got == _verdict(validate_assignment_reference, x, z, y)
    return got


def test_assignment_verdicts_match_the_reference_exhaustively():
    # K = 1, A = 2, E = 2 and one link: every int8 (x, z, y) over
    # {0, 1, 2, -1}, 4**7 cases.
    verdicts = set()
    for cells in itertools.product([0, 1, 2, -1], repeat=7):
        flat = np.array(cells, dtype=np.int8)
        x, z, y = flat[:2].reshape(1, 2), flat[2:6].reshape(1, 2, 2), flat[6:].reshape(1, 1)
        verdicts.add(assert_same_verdict(x, z, y))
    assert len(verdicts) == 7  # valid, three non-binary and three structural messages


@pytest.mark.parametrize("flows", [8, 15])
def test_assignment_verdicts_match_the_reference_on_corrupted_cells(flows):
    # One cell of a valid assignment corrupted, in every dtype the
    # validator may see, the three arrays' dtypes drawn independently.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(flows)
    values = {
        np.int8: [0, 1, 2, -1],
        np.bool_: [False, True],
        np.int64: [0, 1, 2, -1],
        np.float64: [0.0, 1.0, 2.0, -1.0, 0.5, np.nan],
    }
    dtypes = list(values)
    verdicts = set()
    for seed in range(4):
        inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
        for classes in rng.integers(0, E + 1, size=(60, flows)):
            asg = assignment_from_classes(inst, classes)
            arrays = [
                a.astype(dtypes[d]) for a, d in zip((asg.x, asg.z, asg.y), rng.integers(0, 4, 3))
            ]
            bad = arrays[rng.integers(0, 3)]
            options = values[bad.dtype.type]
            bad.flat[rng.integers(0, bad.size)] = options[rng.integers(0, len(options))]
            verdicts.add(assert_same_verdict(*arrays))
    assert len(verdicts) == 7


# --- feasibility ------------------------------------------------------------


def test_empty_assignment_is_feasible(tree_topology):
    inst = generate_instance(tree_topology, 3, seed=5)
    empty = assignment_from_classes(inst, [tree_topology.num_edge_clouds] * 3)
    assert check_feasibility(inst, empty).feasible


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


def test_feasibility_matches_inequality_oracle(tree_topology):
    rng = np.random.default_rng(6)
    rat_cache = {}
    for seed in range(25):
        inst = generate_instance(tree_topology, 5, seed=seed)
        asg = derive_routing(inst, random_placement(inst, rng))
        report = check_feasibility(inst, asg)
        # independent re-evaluation of every inequality
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
        assert report.ec_capacity == ok_c
        assert report.link_capacity == ok_f
        assert report.feasible == (ok_c and ok_f and report.link_path_consistency)


def test_assignment_from_classes_round_trip(tree_topology):
    inst = generate_instance(tree_topology, 5, seed=14)
    E = tree_topology.num_edge_clouds
    classes = np.array([0, E, 3, E, 1])
    asg = assignment_from_classes(inst, classes)
    assert (asg.x.sum(axis=1) == np.array([1, 0, 1, 0, 1])).all()
    assert asg.x[0, 0] == 1 and asg.x[2, 3] == 1 and asg.x[4, 1] == 1


def test_labels_of_returns_python_ints(tree_topology):
    E = tree_topology.num_edge_clouds
    x = np.zeros((4, E), dtype=np.int8)
    x[0, 2] = x[2, E - 1] = 1
    labels = labels_of(x)
    assert labels == (2, E, E - 1, E)
    assert all(type(c) is int for c in labels)  # JSON manifests and digests print them
    assert json.loads(json.dumps(labels)) == list(labels)
    inst = generate_instance(tree_topology, 4, seed=5)
    assert labels_of(assignment_from_classes(inst, labels).x) == labels


@pytest.mark.parametrize("bad_row", [[1, 1, 0], [0, 2, 0]], ids=["two-ones", "non-binary"])
def test_derive_routing_rejects_more_than_one_ec(tree_topology, bad_row):
    inst = generate_instance(tree_topology, 2, seed=6)
    x = np.zeros((2, tree_topology.num_edge_clouds), dtype=np.int8)
    x[1, :3] = bad_row
    with pytest.raises(ValueError, match="at most one EC"):
        derive_routing(inst, x)
