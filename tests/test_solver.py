import itertools

import numpy as np
import pytest

from edgecache.cost import check_feasibility, penalized_cost, utilization
from edgecache.baselines import gca, rgc
from edgecache.instance import ParameterRanges, generate_instance
from edgecache.solver import solve_exact
from edgecache.topology import Topology

from conftest import manual_instance
from oracles import brute_force_optimum, lower_bound


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


def test_matches_exhaustive_enumeration(small_topology):
    for seed in range(12):
        inst = generate_instance(small_topology, 3, seed=seed)
        sol = solve_exact(inst)
        oracle = brute_force_optimum(inst)
        assert sol.proof == "exhaustive"
        assert sol.cost.total == pytest.approx(oracle, abs=1e-9)


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


def test_lower_bound_is_admissible(small_topology):
    # At any partial placement the bound must not exceed the cost of any
    # feasible completion (checked by enumerating completions).
    rng = np.random.default_rng(0)
    for seed in range(5):
        inst = generate_instance(small_topology, 3, seed=seed)
        E = small_topology.num_edge_clouds
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
