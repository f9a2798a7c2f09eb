import dataclasses
import hashlib
import itertools
import json
import time
from pathlib import Path

import numpy as np
import pytest

from edgecache.cost import (
    assignment_from_classes, check_feasibility, class_table, penalized_cost, utilization,
)
from edgecache.baselines import gca, rgc
from edgecache.harness import DATASET_RANGES, evaluation_topology, labels_of
from edgecache.instance import ParameterRanges, generate_instance
from edgecache import solver
from edgecache.solver import SOLVER_COUNTERS, solve_exact
from edgecache.topology import Topology, TopologyConfig, build_topology

from conftest import manual_instance
from oracles import (
    brute_force_optimum, descend_reference, leaves_reference, lower_bound, solution_reference,
)

TIGHT_LINKS = ParameterRanges(link_capacity=(8.0, 14.0), bandwidth=(4.0, 10.0))

# Content nearly as large as an EC: each cached flow fills most of its
# EC, so the free-flow storage term alpha/(1-q) dominates the bound.
STORAGE_HEAVY = ParameterRanges(content_size=(60.0, 95.0), ec_space=(100.0, 120.0))


@pytest.fixture(scope="module")
def small_topology():
    # 3 ARs, 3 ECs, 7 nodes: small enough for exhaustive enumeration.
    return Topology(
        nodes=(0, 1, 2, 3, 4, 5, 6),
        links=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (1, 2)),
        access_routers=(4, 5, 6),
        edge_clouds=(0, 1, 2),
        datacenter_hops=12,
    )


def test_beta_zero_prefers_empty_placement(small_topology):
    inst = generate_instance(
        small_topology, 3, ranges=ParameterRanges(alpha=(0.8, 0.8), beta=(0.0, 0.0)), seed=0
    )
    sol = solve_exact(inst)
    assert sol.assignment.x.sum() == 0
    assert sol.cost.total == 0.0


def test_single_flow_two_candidate_comparison():
    t = Topology(
        nodes=(0, 1),
        links=((0, 1),),
        access_routers=(1,),
        edge_clouds=(0,),
        datacenter_hops=12,
    )
    inst = manual_instance(
        t, [[1.0]], content_size=[20.0], ec_space=[100.0], alpha=1.0, beta=1.0
    )
    sol = solve_exact(inst)
    # caching: 1/(1-0.2) + 1 hop = 2.25 beats the 12-hop miss
    assert sol.assignment.x[0, 0] == 1
    assert sol.cost.total == pytest.approx(2.25)


def check_matches_enumeration(small_topology, ranges):
    for seed in range(12):
        inst = generate_instance(small_topology, 3, ranges=ranges, seed=seed)
        sol = solve_exact(inst)
        oracle = brute_force_optimum(inst)
        assert sol.proof == "exhaustive"
        assert sol.cost.total == pytest.approx(oracle, abs=1e-9)


def test_matches_exhaustive_enumeration(small_topology):
    check_matches_enumeration(small_topology, ParameterRanges())


def test_matches_exhaustive_enumeration_storage_heavy(small_topology):
    check_matches_enumeration(small_topology, STORAGE_HEAVY)


def test_matches_enumeration_under_tight_links(small_topology):
    # Small link capacities force the z-reassignment path.
    ranges = ParameterRanges(link_capacity=(8.0, 14.0), bandwidth=(4.0, 10.0))
    hit_reassignment = 0
    for seed in range(12):
        inst = generate_instance(small_topology, 3, ranges=ranges, seed=seed)
        sol = solve_exact(inst)
        oracle = brute_force_optimum(inst)
        assert sol.cost.total == pytest.approx(oracle, abs=1e-9)
        report = check_feasibility(inst, sol.assignment)
        assert report.feasible
        hit_reassignment += int(sol.assignment.z.sum() < sol.assignment.x.sum() * 2)
    assert hit_reassignment > 0  # the regime actually exercises link pressure


def test_budget_exhaustion_returns_bounded_incumbent(small_topology):
    inst = generate_instance(small_topology, 3, seed=1)
    sol = solve_exact(inst, budget=2)
    assert sol.proof == "bounded"
    assert check_feasibility(inst, sol.assignment).feasible
    full = solve_exact(inst)
    assert full.cost.total <= sol.cost.total + 1e-12


def test_optimal_dominates_heuristics(small_topology):
    for seed in range(8):
        inst = generate_instance(small_topology, 3, seed=seed)
        opt = solve_exact(inst)
        for heuristic in (gca(inst), rgc(inst)):
            assert opt.cost.total <= penalized_cost(inst, heuristic) + 1e-9


def test_solver_is_deterministic(small_topology):
    inst = generate_instance(small_topology, 3, seed=4)
    a = solve_exact(inst)
    b = solve_exact(inst)
    assert (a.assignment.x == b.assignment.x).all()
    assert a.cost.total == b.cost.total
    assert a.nodes_explored == b.nodes_explored


def check_lower_bound_is_admissible(small_topology, ranges):
    # At any partial placement the bound must not exceed the cost of any
    # feasible completion (checked by enumerating completions).
    rng = np.random.default_rng(0)
    storage_binds = False
    for seed in range(5):
        inst = generate_instance(small_topology, 3, ranges=ranges, seed=seed)
        E = small_topology.num_edge_clouds
        # The storage term lifts the bound above best-case transmission alone.
        transmission_only = inst.beta * class_table(inst).T.min(axis=1).sum()
        storage_binds |= lower_bound(inst, {}) > transmission_only + 1e-9
        for _ in range(6):
            fixed_count = int(rng.integers(0, 3))
            placed = {}
            for k in range(fixed_count):
                e = int(rng.integers(0, E + 1))
                placed[k] = None if e == E else e
            bound = lower_bound(inst, placed)
            # enumerate completions of the remaining flows
            free = [k for k in range(3) if k not in placed]
            best = np.inf
            for rest in itertools.product(range(E + 1), repeat=len(free)):
                classes = np.zeros(3, dtype=int)
                for k, e in placed.items():
                    classes[k] = E if e is None else e
                for k, e in zip(free, rest):
                    classes[k] = e
                x = np.zeros((3, E), dtype=np.int8)
                for k, c in enumerate(classes):
                    if c < E:
                        x[k, c] = 1
                u = utilization(inst, x)
                if (u >= 1.0).any():
                    continue
                from edgecache.cost import derive_routing, total_cost

                asg = derive_routing(inst, x)
                if not check_feasibility(inst, asg).feasible:
                    continue
                best = min(best, total_cost(inst, asg).total)
            if np.isfinite(best):
                assert bound <= best + 1e-9
    assert storage_binds


def test_lower_bound_is_admissible(small_topology):
    check_lower_bound_is_admissible(small_topology, ParameterRanges())


def test_lower_bound_is_admissible_storage_heavy(small_topology):
    check_lower_bound_is_admissible(small_topology, STORAGE_HEAVY)


def test_reproduces_reference_labels_and_costs():
    # Reference outputs of the proved K=8 label set and the first 50 K=5
    # corpus seeds; see the fixture's note.
    ref = json.loads((Path(__file__).parent / "data" / "solver_reference.json").read_text())
    topo = evaluation_topology()
    for case in ref["cases"]:
        inst = generate_instance(topo, case["flows"], ranges=DATASET_RANGES, seed=case["seed"])
        sol = solve_exact(inst)
        got = (list(labels_of(sol.assignment.x)), f"{sol.cost.total:.12g}", sol.proof)
        assert got == (case["labels"], case["total"], case["proof"]), case["seed"]


def test_overloaded_leaves_match_reference():
    # Link-tight K=5 instances: most leaves overload a link and re-serve
    # flows.  The pruned leaf search must reproduce the outputs recorded
    # with the exhaustive product over serving subsets (see the fixture's
    # note), and do so quickly: the product took ~21 s on 2 vCPUs.
    ref = json.loads((Path(__file__).parent / "data" / "tight_leaf_reference.json").read_text())
    topo = evaluation_topology()
    start = time.perf_counter()
    for case in ref["cases"]:
        inst = generate_instance(topo, 5, ranges=TIGHT_LINKS, seed=case["seed"])
        sol = solve_exact(inst, budget=ref["budget"])
        asg = sol.assignment
        got = {
            "seed": case["seed"],
            "labels": list(labels_of(asg.x)),
            "total": f"{sol.cost.total:.12g}",
            "proof": sol.proof,
            "nodes": sol.nodes_explored,
            "z_sha256": hashlib.sha256(asg.z.tobytes()).hexdigest(),
            "y_sha256": hashlib.sha256(asg.y.tobytes()).hexdigest(),
        }
        assert got == case, case["seed"]
    assert time.perf_counter() - start < 5.0


def test_reproduces_the_label_workload():
    # The label benchmark's 50 solves: labels, cost bits, proof, nodes and
    # every counter, as recorded in the fixture (see its note).
    ref = json.loads((Path(__file__).parent / "data" / "label_reference.json").read_text())
    topo = evaluation_topology()
    assert len(ref["cases"]) == 50
    for case in ref["cases"]:
        inst = generate_instance(topo, case["flows"], ranges=DATASET_RANGES, seed=case["seed"])
        budget = case["budget"] or solver.DEFAULT_NODE_BUDGET
        stats = {}
        sol = solve_exact(inst, budget=budget, stats=stats)
        got = {
            **case,
            "labels": list(labels_of(sol.assignment.x)),
            "total": sol.cost.total.hex(),
            "proof": sol.proof,
            "nodes_explored": sol.nodes_explored,
            "counters": stats,
        }
        assert got == case, case["seed"]


def test_solver_counters_on_the_longest_k8_label_solve(monkeypatch):
    # [8, 21] reaches 34,159 leaves and gives up on all but three at the
    # reassignment cap (counted by wrapping the first-form leaf).  Only
    # the last flow takes its leaves past the cap, so none is settled at
    # its parent.  The bound prunes are the nodes the first-form node
    # (descend_reference) neither descended into nor settled.
    inst = generate_instance(evaluation_topology(), 8, ranges=DATASET_RANGES, seed=[8, 21])
    descend = solver._Search._descend
    calls = 0

    def counted(search, *args):
        nonlocal calls
        calls += 1
        descend(search, *args)

    monkeypatch.setattr(solver._Search, "_descend", counted)
    stats = {"leaves": 1}
    sol = solve_exact(inst, stats=stats)
    assert stats == {
        "nodes": sol.nodes_explored,
        "leaves": 34_159 + 1,  # counts add to what the dict holds
        "overloaded_leaves": 34_156,
        "cap_hits": 34_156,
        "doomed_leaves": 0,
        "flow_order_rechecks": 0,
        "bound_prunes": 116_394,
    }
    assert sol.nodes_explored == 175_644 and sol.proof == "bounded"
    # _descend is entered at the root and at each internal child that
    # passes the bound, never at a leaf: the last level evaluates its
    # leaves in its own loop.
    assert calls == 25_092 == sol.nodes_explored - 34_159 - 116_394 + 1


@pytest.mark.parametrize(
    "flows, seed, budget, nodes, leaves, capped, doomed, prunes",
    [
        (10, [10, 1], 150_000, 150_001, 28_205, 28_202, 28_202, 100_361),
        (15, [500, 1], 40_000, 40_001, 34_124, 34_121, 33_862, 152),
    ],
    ids=["k10", "k15"],
)
def test_solver_counters_on_the_budget_bound_tail(
    flows, seed, budget, nodes, leaves, capped, doomed, prunes
):
    # Budget-bound label solves where nearly every leaf gives up at the
    # cap (the totals were counted by wrapping the first-form leaf); most
    # of those are settled at their last-level parent.  The prunes are
    # counted off the first-form node, as in the K=8 case above.
    inst = generate_instance(evaluation_topology(), flows, ranges=DATASET_RANGES, seed=seed)
    stats = {}
    sol = solve_exact(inst, budget=budget, stats=stats)
    assert stats == {
        "nodes": nodes,
        "leaves": leaves,
        "overloaded_leaves": capped,
        "cap_hits": capped,
        "doomed_leaves": doomed,
        "flow_order_rechecks": 0,
        "bound_prunes": prunes,
    }
    assert sol.nodes_explored == nodes and sol.proof == "bounded"


def _solve_both(monkeypatch, inst, budget=solver.DEFAULT_NODE_BUDGET):
    """(output, counters) of the solver and of the solver with its last
    level swapped for one that sends every leaf to the flow-order
    reference leaf."""
    runs = []
    for leaves in (None, leaves_reference):
        with monkeypatch.context() as patch:
            if leaves is not None:
                # Every leaf reaches the reference: none is settled at its parent.
                patch.setattr(solver._Search, "_evaluate_leaves", leaves)
            stats = {}
            sol = solve_exact(inst, budget=budget, stats=stats)
        assert set(stats) == set(SOLVER_COUNTERS)
        out = (
            list(labels_of(sol.assignment.x)),
            sol.cost.total.hex(),
            sol.proof,
            sol.nodes_explored,
            sol.assignment.z.tobytes(),
        )
        runs.append((out, stats))
    return runs


def _without_fast_path_counts(stats):
    """stats with the two counts that the reference never adds zeroed:
    it re-sums no link in flow order and settles no leaf at its parent."""
    return {**stats, "flow_order_rechecks": 0, "doomed_leaves": 0}


def _label_tail_cases():
    cases = [(8, [8, 21], solver.DEFAULT_NODE_BUDGET)]
    cases += [(10, [10, j], 150_000) for j in range(8)]
    cases += [(15, [500, j], 40_000) for j in range(2)]
    return [(DATASET_RANGES, flows, seed, budget) for flows, seed, budget in cases]


def _tight_leaf_cases():
    ref = json.loads((Path(__file__).parent / "data" / "tight_leaf_reference.json").read_text())
    return [(TIGHT_LINKS, 5, case["seed"], ref["budget"]) for case in ref["cases"]]


@pytest.mark.parametrize(
    "family, min_doomed",
    [(_label_tail_cases, 1), (_tight_leaf_cases, 0)],
    ids=["label_tail", "tight_leaf"],
)
def test_carried_loads_leaf_matches_flow_order_reference(monkeypatch, family, min_doomed):
    # The leaf's loads are carried down the tree as branch-order sums,
    # and a leaf doomed at its parent is counted as a cap hit unevaluated;
    # the reference sums every flow in flow order at every leaf.  Outputs
    # and counters must agree bit for bit.
    topo = evaluation_topology()
    doomed = 0
    for ranges, flows, seed, budget in family():
        inst = generate_instance(topo, flows, ranges=ranges, seed=seed)
        (out, stats), (ref_out, ref_stats) = _solve_both(monkeypatch, inst, budget)
        assert out == ref_out, seed
        assert _without_fast_path_counts(stats) == ref_stats, seed
        doomed += stats["doomed_leaves"]
    assert doomed >= min_doomed  # the label tail takes the fast path


def _solve_counting(monkeypatch, inst, budget, descend):
    """(output, counters, implied prunes) of a solve with `descend` patched
    in as _Search._descend.  Every child tried fails the bound, is an
    internal node descended into, is a leaf, or is the one that ran over
    the budget, so the bound prunes are the nodes less the others."""
    descents = -1  # the root's call is no child

    def counted(search, depth, *args):
        nonlocal descents
        descents += depth < search.K  # the reference also descends into leaves
        descend(search, depth, *args)

    with monkeypatch.context() as patch:
        patch.setattr(solver._Search, "_descend", counted)
        stats = {}
        sol = solve_exact(inst, budget=budget, stats=stats)
    asg = sol.assignment
    out = (
        list(labels_of(asg.x)), sol.cost.total.hex(), sol.proof, sol.nodes_explored,
        asg.z.tobytes(), asg.y.tobytes(),
    )
    implied = stats["nodes"] - descents - stats["leaves"] - (sol.nodes_explored > budget)
    return out, stats, implied


def _desk_cases(count=50):
    return [(DATASET_RANGES, 5, [0, j], solver.DEFAULT_NODE_BUDGET) for j in range(count)]


def _check_early_exit(monkeypatch, inst, budget, seed):
    """The solver and the per-child reference node agree bit for bit, and
    bound_prunes counts the children the reference's descents imply;
    returns the solver's output."""
    out, stats, implied = _solve_counting(monkeypatch, inst, budget, solver._Search._descend)
    ref_out, ref_stats, ref_implied = _solve_counting(monkeypatch, inst, budget, descend_reference)
    assert out == ref_out, seed
    assert {**stats, "bound_prunes": 0} == ref_stats, seed  # the reference counts no prunes
    assert stats["bound_prunes"] == implied == ref_implied, seed
    return out


@pytest.mark.parametrize(
    "family", [_label_tail_cases, _tight_leaf_cases, _desk_cases],
    ids=["label_tail", "tight_leaf", "desk"],
)
def test_early_exit_matches_the_per_child_reference(monkeypatch, family):
    # The solver lists only the children under the cut and stops at the
    # first that passes it, counting the rest as tried; the reference
    # builds and tests every child.
    topo = evaluation_topology()
    for ranges, flows, seed, budget in family():
        inst = generate_instance(topo, flows, ranges=ranges, seed=seed)
        _check_early_exit(monkeypatch, inst, budget, seed)


@pytest.mark.parametrize(
    "family, reserved",
    [
        (_label_tail_cases, False),
        (_tight_leaf_cases, True),
        (lambda: _desk_cases(250), False),
    ],
    ids=["label_tail", "tight_leaf", "desk250"],
)
def test_solution_matches_the_rebuilt_one(monkeypatch, family, reserved):
    # A greedy-routed incumbent is read off the search's class table and
    # priced there; a re-served one is rebuilt and priced by
    # cost_breakdown.  Either way the assignment's bytes and dtypes and
    # every breakdown field match the incumbent rebuilt from scratch.
    searches = []
    init = solver._Search.__init__

    def recording(search, *args):
        init(search, *args)
        searches.append(search)

    monkeypatch.setattr(solver._Search, "__init__", recording)
    topo = evaluation_topology()
    kinds = set()
    for ranges, flows, seed, budget in family():
        inst = generate_instance(topo, flows, ranges=ranges, seed=seed)
        sol = solve_exact(inst, budget=budget)
        asg, cost = solution_reference(searches[-1])
        for name in ("x", "z", "y"):
            got, want = getattr(sol.assignment, name), getattr(asg, name)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), seed
        assert repr(sol.cost) == repr(cost), seed  # a float's repr pins its bits
        kinds.add(bool(searches[-1].best_serving))
    assert kinds == ({False, True} if reserved else {False})


@pytest.mark.parametrize("seed", [[0, 5], [0, 27]])
def test_every_budget_matches_the_per_child_reference(monkeypatch, seed):
    # A budget that runs out among the children counted untested must
    # report budget + 1 nodes, as the reference that tests each does.
    inst = generate_instance(evaluation_topology(), 5, ranges=DATASET_RANGES, seed=seed)
    full = solve_exact(inst)
    assert full.proof == "exhaustive"
    for budget in range(1, full.nodes_explored + 1):
        out = _check_early_exit(monkeypatch, inst, budget, (seed, budget))
        assert out[3] == min(budget + 1, full.nodes_explored)


@pytest.mark.parametrize("gap, cached", [(0.5e-9, False), (1.5e-9, True)])
def test_child_just_under_the_incumbent_is_tried(monkeypatch, gap, cached):
    # One flow, one EC one hop away: caching costs 1/(1 - q) + 1 against
    # the empty placement's 12, and q sets the gap between them.  A child
    # is taken only when its bound lies more than 1e-9 under the
    # incumbent, so the flow is cached at a gap of 1.5e-9 and not at
    # 0.5e-9; an early exit that skipped children inside that band
    # would leave it uncached.
    t = Topology(
        nodes=(0, 1), links=((0, 1),), access_routers=(1,), edge_clouds=(0,),
        datacenter_hops=12,
    )
    q = 1.0 - 1.0 / (11.0 - gap)
    inst = manual_instance(t, [[1.0]], content_size=[q], ec_space=[1.0], alpha=1.0, beta=1.0)
    _check_early_exit(monkeypatch, inst, solver.DEFAULT_NODE_BUDGET, gap)
    assert solve_exact(inst).assignment.x.any() == cached


def test_link_masks_past_63_links_match_the_references(monkeypatch):
    # Depth-8 binary tree: 510 links, and a leaf AR's own link has index
    # AR - 1 >= 254, past any int64 bitmask.  Flows 0 and 1 both reach
    # AR 300 over its leaf link, whose capacity takes only one of them,
    # so the leaves overload it and re-serve a flow.
    full = build_topology(TopologyConfig(branching=2, depth=8))
    t = dataclasses.replace(full, edge_clouds=(0, 1, 2))
    A = t.num_access_routers
    mobility = np.zeros((3, A))
    mobility[0, [300 - 255, 301 - 255, 400 - 255]] = [0.5, 0.3, 0.2]
    mobility[1, [300 - 255, 260 - 255]] = [0.6, 0.4]
    mobility[2, [500 - 255]] = [1.0]
    capacity = np.full(t.num_links, 1000.0)
    capacity[t.link_index[(149, 300)]] = 1.5
    inst = manual_instance(
        t, mobility, content_size=[30.0, 20.0, 10.0], link_capacity=capacity, alpha=0.1, beta=1.0,
    )
    _check_early_exit(monkeypatch, inst, solver.DEFAULT_NODE_BUDGET, "tree")
    (out, stats), (ref_out, ref_stats) = _solve_both(monkeypatch, inst)
    assert out == ref_out
    assert _without_fast_path_counts(stats) == ref_stats
    assert stats["overloaded_leaves"] > 0
    assert float.fromhex(out[1]) == pytest.approx(brute_force_optimum(inst), abs=1e-9)


def _scan_pairs(search, choices, depth):
    """The (link bitmask, serving-AR count) of every cached flow branched
    above depth, in branch order, from a scan of the choices."""
    return tuple(
        (search.masks[k][choices[k]], search.serve_count[k][choices[k]])
        for k in search.order[:depth]
        if search.masks[k][choices[k]]
    )


def test_settled_pairs_match_a_scan_of_the_upper_flows(monkeypatch):
    # At every node, and so where the last level reads its state to settle
    # the cap and judge its leaves, the link state carried down holds the
    # (link bitmask, serving-AR count) of every cached flow branched above
    # it, in branch order, as a scan of the choices would list them.  The
    # leaves add the last flow themselves.
    descend, last_level = solver._Search._descend, solver._Search._evaluate_leaves
    leaves = 0

    def checked(search, depth, choices, *rest):
        assert search._links(rest[-1])[3] == _scan_pairs(search, choices, depth)
        descend(search, depth, choices, *rest)

    def checked_last(search, children, base, choices, *rest):
        nonlocal leaves
        assert search._links(rest[-1])[3] == _scan_pairs(search, choices, search.K - 1)
        before = search.leaves
        tried = last_level(search, children, base, choices, *rest)
        leaves += search.leaves - before
        return tried

    monkeypatch.setattr(solver._Search, "_descend", checked)
    monkeypatch.setattr(solver._Search, "_evaluate_leaves", checked_last)
    topo = evaluation_topology()
    for ranges, flows, seed, budget in _label_tail_cases() + _tight_leaf_cases():
        inst = generate_instance(topo, flows, ranges=ranges, seed=seed)
        solve_exact(inst, budget=budget)
    assert leaves > 0


@pytest.mark.parametrize(
    "family", [_label_tail_cases, _tight_leaf_cases], ids=["label_tail", "tight_leaf"]
)
def test_carried_loads_are_the_branch_order_sums_of_the_upper_flows(monkeypatch, family):
    # Where the last level reads its state, the carried loads equal, bit
    # for bit, the loads of the flows branched above its leaves summed in
    # branch order, and the near and sure bitmasks are the threshold
    # scans of those loads.
    last_level = solver._Search._evaluate_leaves
    rows = {}
    leaves = 0

    def checked(search, children, base, choices, counts, util, placed_t, stored, cell):
        nonlocal leaves
        if search not in rows:
            rows[search] = [
                [np.flatnonzero(search.table.links[k, c]).tolist() for c in range(search.E + 1)]
                for k in range(search.K)
            ]
        load = [0.0] * search.L
        for k in search.order[:-1]:
            for l in rows[search][k][choices[k]]:
                load[l] += search.r[k][l]
        links = search._links(cell)
        assert [v.hex() for v in links[0]] == [v.hex() for v in load]
        near = sum(1 << l for l, v in enumerate(load) if v > 1.0 - 1e-6)
        sure = sum(1 << l for l, v in enumerate(load) if v >= 1.0 + 1e-6)
        assert links[1:3] == (near, sure)
        before = search.leaves
        tried = last_level(search, children, base, choices, counts, util, placed_t, stored, cell)
        leaves += search.leaves - before
        return tried

    monkeypatch.setattr(solver._Search, "_evaluate_leaves", checked)
    topo = evaluation_topology()
    for ranges, flows, seed, budget in family():
        inst = generate_instance(topo, flows, ranges=ranges, seed=seed)
        solve_exact(inst, budget=budget)
    assert leaves > 0


@pytest.mark.parametrize("budget", [0, -5, float("nan"), 2.5])
def test_solve_exact_refuses_a_budget_below_one(budget):
    # NaN is no smaller than 1 and would never run out, so a budget must
    # be an integer before it is compared.
    inst = generate_instance(evaluation_topology(), 3, ranges=DATASET_RANGES, seed=[0, 0])
    with pytest.raises(ValueError, match="budget"):
        solve_exact(inst, budget=budget)


def _uplink_instance(mobility, content_size, bandwidth):
    """One EC (node 0) with nine ARs behind a hub on a capacity-1 uplink
    (link 0) and nine ARs linked straight to the EC; alpha = 0.1."""
    hub_ars, ec_ars = tuple(range(2, 11)), tuple(range(11, 20))
    t = Topology(
        nodes=(0, 1) + hub_ars + ec_ars,
        links=((0, 1),) + tuple((1, a) for a in hub_ars) + tuple((0, a) for a in ec_ars),
        access_routers=hub_ars + ec_ars, edge_clouds=(0,), datacenter_hops=12,
    )
    return manual_instance(
        t, mobility, content_size=content_size, bandwidth=bandwidth,
        link_capacity=[1.0] + [1000.0] * 18, alpha=0.1, beta=1.0,
    )


@pytest.mark.parametrize(
    "b1, doomed", [(0.4999995, False), (0.5000005, False), (0.6, True)],
    ids=["just_under", "just_over", "well_over"],
)
def test_parent_settles_the_cap_only_on_sure_overloads(monkeypatch, b1, doomed):
    # Flows 0 and 1 each reach the nine hub ARs through the uplink, so the
    # two of them alone have 2**18 serving subsets, past the cap; they
    # branch first and load the uplink to 0.5 + b1.  Only a load at or
    # above 1 + 1e-6 settles every leaf below as a cap hit.  Within 1e-6
    # of 1 the leaves re-sum the link in flow order: just under 1 the leaf
    # with flow 2 uncached fits, and just over 1 each leaf finds the
    # overload and gives up at the cap.
    spread = [1.0 / 9] * 9 + [0.0] * 9
    inst = _uplink_instance(
        [spread, spread, [1.0] + [0.0] * 17], [30.0, 20.0, 10.0], [0.5, b1, 0.3]
    )
    (out, stats), (ref_out, ref_stats) = _solve_both(monkeypatch, inst)
    assert out == ref_out
    assert _without_fast_path_counts(stats) == ref_stats
    assert stats["cap_hits"] > 0
    assert (stats["doomed_leaves"] > 0) == doomed
    assert (stats["flow_order_rechecks"] > 0) == (not doomed)  # the uplink lies in the band


def test_parent_counts_only_the_flows_on_sure_overloads(monkeypatch):
    # Flows 0 and 1 overload the uplink with 2**16 serving subsets, under
    # the cap; flow 2 adds 2**9 more but stays off the uplink, so it is
    # never affected.  No leaf is settled at its parent: with flow 3
    # uncached the leaf re-serves flows 0 and 1, and with flow 3 on the
    # uplink it gives up at the cap.
    eight = [1.0 / 8] * 8 + [0.0] * 10
    off_uplink = [0.0] * 9 + [1.0 / 9] * 9
    inst = _uplink_instance(
        [eight, eight, off_uplink, [1.0] + [0.0] * 17],
        [30.0, 25.0, 20.0, 10.0], [0.5, 0.6, 0.3, 0.3],
    )
    (out, stats), (ref_out, ref_stats) = _solve_both(monkeypatch, inst)
    assert out == ref_out
    assert _without_fast_path_counts(stats) == ref_stats
    assert stats["cap_hits"] > 0 and stats["doomed_leaves"] == 0
    assert stats["overloaded_leaves"] > stats["cap_hits"]


def test_near_threshold_link_is_judged_on_flow_order_sum(monkeypatch):
    # Three flows share the one link.  Their loads sum to just over the
    # 1 + 1e-9 overload line in flow order (k = 0, 1, 2) and to just under
    # it in branch order (largest content first: k = 2, 1, 0).  The leaf
    # must re-sum the link in flow order, find it overloaded and re-serve
    # a flow, as the reference does.
    t = Topology(
        nodes=(0, 1), links=((0, 1),), access_routers=(1,), edge_clouds=(0,),
        datacenter_hops=12,
    )
    b = [0.352, 0.382, 0.26600000100000026]
    assert ((0.0 + b[0]) + b[1]) + b[2] > 1.0 + 1e-9 >= ((0.0 + b[2]) + b[1]) + b[0]
    inst = manual_instance(
        t, [[1.0]] * 3, content_size=[10.0, 20.0, 30.0], bandwidth=b, link_capacity=[1.0],
        alpha=0.1, beta=1.0,
    )
    (out, stats), (ref_out, ref_stats) = _solve_both(monkeypatch, inst)
    assert stats["flow_order_rechecks"] > 0
    assert out == ref_out
    assert _without_fast_path_counts(stats) == ref_stats
    assert stats["overloaded_leaves"] > 0
    assert out[0].count(1) == 1  # one flow stays uncached


@pytest.mark.parametrize("excess", [None, -2e-9, 5e-10, 2e-9])
def test_leaf_overload_matches_the_feasibility_verdict(excess):
    # At random leaves, the last level finds no overloaded link exactly
    # when check_feasibility passes the greedy routing's links.  With
    # excess set, the links the leaf loads are resized to a load of
    # 1 + excess, so the two verdicts meet at cost's 1e-9 of slack,
    # inside the leaf's flow-order recheck band.  The leaf is the last
    # level's one child, under an incumbent that every leaf beats; no
    # overloaded leaf is re-served, as only its verdict is under test.
    topo = evaluation_topology()
    E = topo.num_edge_clouds
    rng = np.random.default_rng(510)
    verdicts, rechecks = set(), 0
    for ranges, seed in itertools.product((DATASET_RANGES, TIGHT_LINKS), range(2)):
        base = generate_instance(topo, 6, ranges=ranges, seed=[510, seed])
        for choices in rng.integers(0, E + 1, size=(10, base.num_flows)).tolist():
            inst = base
            if excess is not None:
                y = assignment_from_classes(base, choices).y
                load = (base.bandwidth[:, None] / base.link_capacity * y).sum(axis=0)
                inst = dataclasses.replace(
                    base,
                    link_capacity=np.where(
                        load > 0, base.link_capacity * load / (1 + excess), base.link_capacity
                    ),
                )
            search = solver._Search(inst, budget=1)
            search.best_tc = float("inf")
            search._cheapest_serving = lambda choices, over: None
            cell = [([0.0] * search.L, 0, 0, ()), None, None, None]
            for k in search.order[:-1]:
                cell = [None, cell, k, choices[k]]
            child = [(0.0, choices[search.order[-1]], 0.0)]
            zeros = [0] * search.E, [0.0] * search.E
            assert search._evaluate_leaves(child, 0.0, list(choices), *zeros, 0.0, 0.0, cell) == 1
            assert search.leaves == 1
            fits = check_feasibility(inst, assignment_from_classes(inst, choices)).link_capacity
            assert (search.overloaded_leaves == 0) == fits, (seed, choices)
            verdicts.add(fits)
            rechecks += search.flow_order_rechecks
    assert len(verdicts) == (2 if excess is None else 1)
    assert excess is None or rechecks > 0
