import itertools
import re
from dataclasses import replace

import numpy as np
import pytest

from edgecache.cost import (
    ClassTable,
    assignment_from_classes,
    check_feasibility,
    class_table,
    penalized_cost,
)
from edgecache.harness import DATASET_RANGES, evaluation_topology, labels_of
from edgecache.instance import generate_instance, ratios
from edgecache.pel import build_queues, enhance
from edgecache.topology import Topology

from conftest import manual_instance
from oracles import build_queues_reference, enhance_reference, subset_flows


def argmax_assignment(inst, O):
    return assignment_from_classes(inst, O.argmax(axis=1))


def random_probability_matrix(rng, flows, classes):
    return rng.dirichlet(np.ones(classes), size=flows)


@pytest.fixture(scope="module")
def crafted():
    """Two ECs, three flows; the confident choice overfills EC 0.

    The asymmetric placement of EC 1 (adjacent to one AR, three hops
    from the other) makes exactly one repair cheapest: moving flow 0.
    Flow 2's alternatives sit below the threshold, so it is pinned.
    """
    t = Topology(
        nodes=(0, 1, 2, 3),
        links=((0, 2), (0, 3), (1, 2)),
        access_routers=(2, 3),
        edge_clouds=(0, 1),
        datacenter_hops=12,
    )
    inst = manual_instance(
        t,
        [[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]],
        content_size=[60.0, 60.0, 30.0],
        ec_space=[100.0, 400.0],
        alpha=0.5,
        beta=0.5,
    )
    O = np.array(
        [
            [0.55, 0.35, 0.10],
            [0.80, 0.15, 0.05],
            [0.0005, 0.999, 0.0005],
        ]
    )
    return inst, O


def test_queue_construction_picks_row_maxima():
    O = np.array([[0.2, 0.0, 0.8, 0.0], [0.5, 0.3, 0.1, 0.1]])
    queues = build_queues(O, delta=0.001)
    # the CNN is most confident about class 3 (index 2) for request 1
    assert queues.omega[0] == (0, 2, 0.8)
    assert queues.omega[1][1] == 0
    psi_entries = {(k, c) for k, c, _ in queues.psi}
    assert (0, 2) not in psi_entries and (0, 0) in psi_entries
    assert (0, 1) not in psi_entries  # zero entries stay out
    probs = [p for _, _, p in queues.psi]
    assert probs == sorted(probs, reverse=True)


def _queue_matrices():
    rng = np.random.default_rng(21)
    for shape in [(1, 2), (3, 7), (5, 7), (15, 9)]:
        yield rng.dirichlet(np.ones(shape[1]), size=shape[0]), 0.001
    # Tied probabilities: two maxima in a row, and equal values across
    # flows and classes, so psi's order rests on the (flow, class) keys.
    yield np.array([[0.4, 0.4, 0.2], [0.2, 0.4, 0.4], [0.2, 0.2, 0.6]]), 0.001
    yield np.full((4, 5), 0.2), 0.001
    yield rng.integers(0, 4, size=(6, 7)) / 8.0, 0.001
    # Entries exactly at delta stay out; the next float above it is in.
    delta = 0.125
    yield np.array([[delta, np.nextafter(delta, 1.0), 0.5], [0.0, delta, 0.875]]), delta
    yield np.array([[0.25, 0.25, 0.5], [0.25, 0.5, 0.25]]), 0.25
    yield rng.dirichlet(np.ones(7), size=5).astype(np.float32), 0.001
    yield rng.dirichlet(np.ones(7), size=5), 0.0


def test_build_queues_matches_cell_loop():
    for O, delta in _queue_matrices():
        queues = build_queues(O, delta)
        assert (queues.omega, queues.psi) == build_queues_reference(O, delta), (O, delta)
        for entry in queues.omega + queues.psi:
            assert tuple(map(type, entry)) == (int, int, float)


def test_confident_single_flow_is_left_alone(tree_topology):
    inst = generate_instance(tree_topology, 1, seed=0)
    E = tree_topology.num_edge_clouds
    O = np.zeros((1, E + 1))
    O[0, 0] = 1.0
    result = enhance(inst, O, delta=0.001)
    assert (result.x == argmax_assignment(inst, O).x).all()


def test_enhance_matches_exhaustive_search_on_crafted_grid(crafted):
    inst, O = crafted
    delta = 0.001
    result = enhance(inst, O, delta=delta, gamma=20.0)
    tc_result = penalized_cost(inst, result, gamma=20.0)
    tc_initial = penalized_cost(inst, argmax_assignment(inst, O), gamma=20.0)
    assert tc_result <= tc_initial + 1e-12

    # exhaustive search over every above-threshold class combination
    allowed = [[c for c in range(3) if O[k, c] > delta] for k in range(3)]
    best_tc = np.inf
    best_classes = None
    for combo in itertools.product(*allowed):
        asg = assignment_from_classes(inst, np.array(combo))
        tc = penalized_cost(inst, asg, gamma=20.0)
        if tc < best_tc - 1e-12:
            best_tc = tc
            best_classes = combo
    assert labels_of(result.x) == best_classes
    assert tc_result == pytest.approx(best_tc, abs=1e-9)
    # the repair actually had something to fix
    assert not check_feasibility(inst, argmax_assignment(inst, O)).feasible
    assert check_feasibility(inst, result).feasible


def test_monotone_improvement_over_argmax(tree_topology):
    rng = np.random.default_rng(0)
    E = tree_topology.num_edge_clouds
    violations = 0
    for seed in range(40):
        inst = generate_instance(tree_topology, 5, seed=seed)
        O = random_probability_matrix(rng, 5, E + 1)
        out = enhance(inst, O)
        tc_out = penalized_cost(inst, out)
        tc_init = penalized_cost(inst, argmax_assignment(inst, O))
        if tc_out > tc_init + 1e-12:
            violations += 1
    assert violations == 0


def test_high_threshold_is_identity(tree_topology):
    rng = np.random.default_rng(1)
    inst = generate_instance(tree_topology, 5, seed=3)
    E = tree_topology.num_edge_clouds
    O = random_probability_matrix(rng, 5, E + 1)
    off_argmax_max = max(
        O[k, c] for k in range(5) for c in range(E + 1) if c != O[k].argmax()
    )
    result = enhance(inst, O, delta=min(off_argmax_max + 1e-9, 0.999))
    assert (result.x == argmax_assignment(inst, O).x).all()


def test_enhance_is_deterministic(tree_topology):
    rng = np.random.default_rng(2)
    inst = generate_instance(tree_topology, 5, seed=4)
    E = tree_topology.num_edge_clouds
    O = random_probability_matrix(rng, 5, E + 1)
    a = enhance(inst, O)
    b = enhance(inst, O)
    assert (a.x == b.x).all() and (a.z == b.z).all() and (a.y == b.y).all()


def test_output_always_satisfies_structural_constraints(tree_topology):
    rng = np.random.default_rng(3)
    E = tree_topology.num_edge_clouds
    for seed in range(10):
        inst = generate_instance(tree_topology, 5, seed=seed)
        O = random_probability_matrix(rng, 5, E + 1)
        report = check_feasibility(inst, enhance(inst, O))
        assert report.link_path_consistency


def test_uncached_class_participates(crafted):
    inst, _ = crafted
    # All mass on "cache everything at EC 0" but give 'uncached' a strong
    # alternative for flow 2: the hinge penalty should drive its adoption
    # when EC 1 is also made unattractive (tiny capacity).
    inst = manual_instance(
        inst.topology,
        inst.mobility,
        content_size=[60.0, 60.0, 60.0],
        ec_space=[100.0, 61.0],
        alpha=0.5,
        beta=0.5,
    )
    O = np.array(
        [
            [0.99, 0.0, 0.01],
            [0.98, 0.0, 0.02],
            [0.97, 0.0, 0.03],
        ]
    )
    result = enhance(inst, O, delta=0.001)
    classes = labels_of(result.x)
    assert 2 in classes  # at least one flow pushed to the null class
    assert check_feasibility(inst, result).feasible


def test_trace_csv_written(tmp_path, tree_topology):
    rng = np.random.default_rng(5)
    inst = generate_instance(tree_topology, 5, seed=6)
    E = tree_topology.num_edge_clouds
    O = random_probability_matrix(rng, 5, E + 1)
    path = tmp_path / "trace.csv"
    enhance(inst, O, trace_path=path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "iteration,flow,class,tc_candidate,tc_current,accepted"
    assert len(lines) > 1


def test_enhance_validates_inputs(tree_topology):
    inst = generate_instance(tree_topology, 2, seed=0)
    E = tree_topology.num_edge_clouds
    good = np.full((2, E + 1), 1 / (E + 1))
    with pytest.raises(ValueError):
        enhance(inst, good, delta=1.0)
    with pytest.raises(ValueError):
        enhance(inst, good, gamma=0.0)
    with pytest.raises(ValueError):
        enhance(inst, good, gamma=float("nan"))
    with pytest.raises(ValueError, match="gamma must be finite"):
        enhance(inst, good, gamma=float("inf"))
    with pytest.raises(ValueError):
        enhance(inst, good[:1])
    with pytest.raises(ValueError):
        enhance(inst, good * 2)
    # Rows that sum to 1 with an entry outside [0, 1].
    for bad in ([1.5, -0.5], [-0.5, 1.5], [1.0 + 1e-9, -1e-9]):
        O = good.copy()
        O[1] = 0.0
        O[1, :2] = bad
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
            enhance(inst, O)
        with pytest.raises(ValueError, match=r"entries must lie in \[0, 1\]"):
            enhance(class_table(inst), O)


@pytest.mark.parametrize("shape", [(3,), (2, 3, 1)])
def test_enhance_refuses_an_o_that_is_not_2d(tree_topology, shape):
    inst = generate_instance(tree_topology, shape[0] if len(shape) > 1 else 3, seed=0)
    with pytest.raises(ValueError, match=rf"2-D.*{re.escape(str(shape))}"):
        enhance(inst, np.full(shape, 1.0 / shape[-1]))


def test_enhance_refuses_a_nan_row(tree_topology):
    inst = generate_instance(tree_topology, 2, seed=0)
    O = np.full((2, tree_topology.num_edge_clouds + 1), 1 / (tree_topology.num_edge_clouds + 1))
    O[1] = np.nan
    with pytest.raises(ValueError, match="sum to 1"):
        enhance(inst, O)
    with pytest.raises(ValueError, match="sum to 1"):
        enhance(class_table(inst), O)


@pytest.mark.parametrize(
    "total, ok",
    [
        (1 + 1.09e-5, True),
        (1 - 1.09e-5, True),
        (1 + 1.11e-5, False),
        (1 - 1.11e-5, False),
        (np.nan, False),
        (np.inf, False),
        (-np.inf, False),
    ],
)
def test_enhance_row_sum_verdict_matches_allclose(tree_topology, total, ok):
    inst = generate_instance(tree_topology, 2, seed=0)
    # Two halves, so that every finite row keeps its entries in [0, 1].
    O = np.zeros((2, tree_topology.num_edge_clouds + 1))
    O[:, 0] = 0.5
    O[:, 1] = [0.5, total - 0.5]
    assert np.allclose(O.sum(axis=1), 1.0, atol=1e-6) == ok
    if ok:
        enhance(inst, O)
    else:
        with pytest.raises(ValueError, match="sum to 1"):
            enhance(inst, O)


def test_enhance_on_a_block_table_matches_the_sub_instance(tmp_path):
    # A block of a whole instance's table, at residual capacities, gives
    # the classes and trace rows of the one-entry walk on the matching
    # sub-instance.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(41)
    for seed in range(6):
        inst = generate_instance(topo, 9, ranges=DATASET_RANGES, seed=[9, seed])
        rows = slice(3, 7)
        ec_space = inst.ec_space * rng.uniform(0.05, 1.0, E)
        link_capacity = inst.link_capacity * rng.uniform(0.05, 1.0, topo.num_links)
        sub = replace(
            subset_flows(inst, range(3, 7)), ec_space=ec_space, link_capacity=link_capacity
        )
        block = class_table(inst).block(rows, *ratios(sub))
        O = rng.dirichlet(np.full(E + 1, 0.5), size=4)
        ours, theirs = tmp_path / "block.csv", tmp_path / "reference.csv"
        classes = enhance(block, O, trace_path=ours)
        ref = enhance_reference(sub, O, 0.001, 20.0, trace_path=theirs)
        assert list(classes) == list(labels_of(ref.x))
        assert ours.read_bytes() == theirs.read_bytes()


def assert_same_enhance(inst, O, delta, gamma, tmp_path):
    ours, theirs = tmp_path / "stacked.csv", tmp_path / "reference.csv"
    out = enhance(inst, O, delta=delta, gamma=gamma, trace_path=ours)
    ref = enhance_reference(inst, O, delta, gamma, trace_path=theirs)
    assert (out.x == ref.x).all() and (out.z == ref.z).all() and (out.y == ref.y).all()
    assert ours.read_bytes() == theirs.read_bytes()
    return theirs.read_text().strip().splitlines()[1:]


@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.2])
@pytest.mark.parametrize("gamma", [20.0, 3.5])
def test_enhance_matches_per_entry_reference(delta, gamma, crafted, tmp_path):
    # Same substitutions, same accepts, same trace bytes as pricing one
    # queue entry at a time.
    inst, O = crafted
    assert_same_enhance(inst, O, delta, gamma, tmp_path)
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng([11, int(delta * 1e3), int(gamma)])
    # From 8 flows on, numpy sums T's rows pairwise.
    for flows in range(1, 16):
        for seed in range(3):
            inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
            O = rng.dirichlet(np.full(E + 1, 0.5), size=flows)
            assert_same_enhance(inst, O, delta, gamma, tmp_path)


def test_enhance_with_empty_queue_matches_reference(tree_topology, tmp_path):
    inst = generate_instance(tree_topology, 4, seed=1)
    O = np.eye(4, tree_topology.num_edge_clouds + 1)
    assert build_queues(O, 0.001).psi == ()
    assert assert_same_enhance(inst, O, 0.001, 20.0, tmp_path) == []


def test_enhance_accepting_only_the_last_entry_matches_reference(crafted, tmp_path):
    # Flow 2's two alternatives are tried first and both cost more; the
    # last entry moves flow 0 off the overfull EC 0 and is accepted.
    inst, _ = crafted
    O = np.array([[0.89, 0.11, 0.0], [1.0, 0.0, 0.0], [0.2, 0.5, 0.3]])
    rows = assert_same_enhance(inst, O, 0.001, 20.0, tmp_path)
    assert [row.split(",")[-1] for row in rows] == ["False", "False", "True"]


@pytest.mark.parametrize("delta", [0.0, 1e-3, 0.2])
def test_enhance_prices_once_per_accept_plus_one(delta, crafted, tmp_path, monkeypatch):
    # The first stack also prices the argmax vector, so a queue costs
    # one price call per accept plus one, one fewer when its last entry
    # is the accept and nothing is left to price.  The accepts are the
    # reference walk's.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng([13, int(delta * 1e3)])
    cases = [crafted, (crafted[0], np.array([[0.89, 0.11, 0.0], [1.0, 0.0, 0.0], [0.2, 0.5, 0.3]]))]
    for flows in range(1, 16):
        for seed in range(3):
            inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
            cases.append((inst, rng.dirichlet(np.full(E + 1, 0.5), size=flows)))
    calls = []
    price = ClassTable._price

    def counted(self, classes, gamma):
        calls.append(len(classes))
        return price(self, classes, gamma)

    monkeypatch.setattr(ClassTable, "_price", counted)
    accepted = ends_on_accept = 0
    for inst, O in cases:
        path = tmp_path / "reference.csv"
        enhance_reference(inst, O, delta, 20.0, trace_path=path)
        accepts = [row.split(",")[-1] == "True" for row in path.read_text().splitlines()[1:]]
        last = bool(accepts) and accepts[-1]
        calls.clear()
        enhance(class_table(inst), O, delta=delta)
        assert len(calls) == sum(accepts) + 1 - last
        # The first stack is the argmax vector and the whole queue.
        assert calls[0] == len(accepts) + 1
        accepted += sum(accepts)
        ends_on_accept += last
    assert accepted > 0 and ends_on_accept > 0
