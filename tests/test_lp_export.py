import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from edgecache.cli import main
from edgecache.harness import DATASET_RANGES, evaluation_topology
from edgecache.instance import ParameterRanges, generate_instance, save_instance
from edgecache.lpfile import (
    Milp,
    constraint_census,
    export_milp,
    milp_model,
    variable_census,
)
from edgecache.solver import solve_exact
from edgecache.topology import Topology, TopologyConfig, build_topology

from conftest import manual_instance
from oracles import LpFormatError, parse_lp

LP_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "lp_export_digests.json").read_text()
)["digests"]


@pytest.fixture(scope="module")
def tiny_topology():
    return Topology(
        nodes=(0, 1, 2),
        links=((0, 1), (0, 2)),
        access_routers=(1, 2),
        edge_clouds=(0,),
        datacenter_hops=12,
    )


def solve_milp_with_highs(m: Milp) -> float:
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    n = len(m.columns)
    rows, cols, values = zip(*m.entries)
    matrix = sparse.csr_array((values, (rows, cols)), shape=(len(m.row_names), n))
    senses, rhs = np.array(m.senses), np.array(m.rhs)
    lower = np.where(senses == "<=", -np.inf, rhs)
    upper = np.where(senses == ">=", np.inf, rhs)
    c = np.zeros(n)
    for j, v in m.objective:
        c[j] = v
    integrality = (np.arange(n) < m.num_binary).astype(int)
    res = optimize.milp(
        c=c,
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=integrality,
        bounds=optimize.Bounds(0, np.where(integrality == 1, 1.0, np.inf)),
    )
    assert res.success, res.message
    return float(res.fun) + m.constant


def test_single_flow_constraint_hand_count(tiny_topology):
    # K=1, A=2, E=1, L=2: one placement row, one EC-capacity row, two
    # unique-retrieval rows, two cache-consistency rows, two link rows,
    # four link-use bounds, one t definition, three chi rows.
    inst = manual_instance(tiny_topology, [[0.6, 0.4]], content_size=[10.0])
    model = parse_lp(export_milp(inst))
    by_family = {}
    for con in model.constraints:
        family = con.name.split("_")[0]
        by_family[family] = by_family.get(family, 0) + 1
    assert by_family == {
        "place": 1,
        "space": 1,
        "onepath": 2,
        "hosted": 2,
        "bw": 2,
        "luselo": 2,
        "lusehi": 2,
        "tdef": 1,
        "chicap": 1,
        "chigate": 1,
        "chibind": 1,
    }
    assert len(model.constraints) == constraint_census(1, 2, 1, 2)["total"] == 16


def test_row_count_matches_symbolic_census():
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))
    for flows, seed in ((1, 0), (3, 1), (5, 2)):
        inst = generate_instance(t, flows, seed=seed)
        model = parse_lp(export_milp(inst))
        K, A = flows, t.num_access_routers
        E, L = t.num_edge_clouds, t.num_links
        assert len(model.constraints) == constraint_census(K, A, E, L)["total"]
        assert len(model.variables) == variable_census(K, A, E, L)["total"]
        assert len(model.binaries) == K * E + K * L + K * A * E


def test_published_variable_counts_imply_7_6_20_topology():
    # The reported 376/746/1116/1486 variables at 5/10/15/20 requests
    # fit |A|=7, |E|=6, |L|=20 exactly (74 variables per flow plus 6).
    for flows, expected in ((5, 376), (10, 746), (15, 1116), (20, 1486)):
        assert variable_census(flows, 7, 6, 20)["total"] == expected


def test_export_on_a_7_6_20_network_has_376_variables():
    t = build_topology(
        TopologyConfig(branching=7, depth=1, mesh_links=13, ec_rule="random", ec_count=6, seed=0)
    )
    assert t.num_access_routers == 7
    assert t.num_edge_clouds == 6
    assert t.num_links == 20
    inst = generate_instance(t, 5, seed=0)
    model = parse_lp(export_milp(inst))
    assert len(model.variables) == 376


def test_external_solver_agrees_with_branch_and_bound():
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))
    ranges = ParameterRanges(alpha=(0.5, 0.5), beta=(0.5, 0.5))
    for seed in range(5):
        inst = generate_instance(t, 3, ranges=ranges, seed=seed)
        ours = solve_exact(inst).cost.total
        theirs = solve_milp_with_highs(milp_model(inst))
        assert abs(ours - theirs) < 1e-6


def test_external_solver_agrees_under_tight_links():
    t = build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))
    ranges = ParameterRanges(
        alpha=(0.5, 0.5), beta=(0.5, 0.5),
        link_capacity=(8.0, 14.0), bandwidth=(4.0, 10.0),
    )
    for seed in range(5):
        inst = generate_instance(t, 3, ranges=ranges, seed=seed)
        ours = solve_exact(inst).cost.total
        theirs = solve_milp_with_highs(milp_model(inst))
        assert abs(ours - theirs) < 1e-6


def test_parse_round_trip_preserves_coefficients(tiny_topology):
    inst = manual_instance(tiny_topology, [[0.3, 0.5]], content_size=[25.0],
                           ec_space=[250.0], alpha=0.7, beta=0.3)
    text = export_milp(inst)
    model = parse_lp(text)
    space_row = next(c for c in model.constraints if c.name == "space_0")
    assert space_row.coefficients == {"x_0_0": 25.0}
    assert space_row.rhs == 250.0
    assert space_row.sense == "<="
    # objective: alpha on chi, beta * p * (N - NT) on z, constant beta*K*NT
    assert model.objective["chi_0_0"] == pytest.approx(0.7)
    assert model.objective["z_0_0_0"] == pytest.approx(0.3 * 0.3 * (1 - 12))
    assert model.objective_constant == pytest.approx(0.3 * 1 * 12)


def test_parser_rejects_malformed_text():
    with pytest.raises(LpFormatError):
        parse_lp("Minimize\n obj: x\nSubject To\n c1: x + y 4\nEnd\n")
    with pytest.raises(LpFormatError):
        parse_lp("Minimize\n obj: x\nSubject To\n c1: x <= 1\n")  # no End


@pytest.fixture(scope="module")
def lp_cases(tiny_topology):
    """The instances whose export text data/lp_export_digests.json pins."""
    topo = evaluation_topology()
    cases = {}
    for flows in (1, 3, 5, 15):
        for seed in range(5):
            inst = generate_instance(topo, flows, seed=[6, seed])
            cases[f"eval-K{flows}-s{seed}"] = (inst, None)
    tree = build_topology(TopologyConfig(branching=2, depth=2))
    cases["b2d2"] = (generate_instance(tree, 3, seed=1), None)
    mesh = build_topology(
        TopologyConfig(branching=7, depth=1, mesh_links=13, ec_rule="random", ec_count=6, seed=0)
    )
    cases["mesh"] = (generate_instance(mesh, 5, seed=0), None)
    cases["tiny"] = (
        manual_instance(tiny_topology, [[0.3, 0.5]], content_size=[25.0],
                        ec_space=[250.0], alpha=0.7, beta=0.3),
        None,
    )
    weightless = generate_instance(topo, 3, seed=[6, 9])
    cases["zero"] = (dataclasses.replace(weightless, alpha=0.0, beta=0.0), None)
    cases["bigm"] = (generate_instance(topo, 4, ranges=DATASET_RANGES, seed=[6, 7]), 2.5)
    for flows in (2, 8, 10):
        for seed in range(5):
            inst = generate_instance(topo, flows, ranges=DATASET_RANGES, seed=[flows, seed])
            cases[f"ds-K{flows}-s{seed}"] = (inst, None)
    return cases


@pytest.mark.parametrize("name", sorted(LP_DIGESTS))
def test_export_parses_back_to_milp_model(name, lp_cases):
    inst, big_m = lp_cases[name]
    text = export_milp(inst, big_m=big_m)
    assert hashlib.sha256(text.encode()).hexdigest() == LP_DIGESTS[name]

    m = milp_model(inst, big_m=big_m)
    model = parse_lp(text)

    def printed(v: float) -> float:  # the text carries 12 significant digits
        return float(f"{v:.12g}")

    def named(pairs) -> list[tuple[str, float]]:
        return [(m.columns[j], printed(v)) for j, v in pairs]

    # The text declares the census's columns and no others, also when
    # the objective is empty ("zero"), which is written as "0 x_0_0".
    t = inst.topology
    census = variable_census(inst.num_flows, t.num_access_routers, t.num_edge_clouds, t.num_links)
    assert sorted(model.variables) == sorted(m.columns)
    assert len(m.columns) == census["total"]
    objective = [(column, v) for column, v in model.objective.items() if v != 0]
    assert objective == named(m.objective)
    assert model.objective_constant == printed(m.constant)
    row_of = [r for r, _, _ in m.entries]
    assert row_of == sorted(row_of)
    rows = [[] for _ in m.row_names]
    for r, j, v in m.entries:
        rows[r].append((j, v))
    assert [con.name for con in model.constraints] == m.row_names
    for con, pairs, sense, rhs in zip(model.constraints, rows, m.senses, m.rhs):
        assert list(con.coefficients.items()) == named(pairs), con.name
        assert (con.sense, con.rhs) == (sense, printed(rhs)), con.name
    assert model.binaries == set(m.columns[: m.num_binary])


@pytest.mark.parametrize("big_m", [0.0, -5.0, 0.5, float("nan"), float("inf")])
def test_big_m_must_be_finite_and_at_least_one(big_m, tiny_topology, tmp_path):
    inst = manual_instance(tiny_topology, [[0.6, 0.4]], content_size=[10.0])
    with pytest.raises(ValueError, match="big_m"):
        export_milp(inst, big_m=big_m)
    path = tmp_path / "inst.json"
    save_instance(inst, path)
    out = tmp_path / "model.lp"
    argv = ["export-lp", "--instance", str(path), "--big-m", str(big_m), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    assert export_milp(inst, big_m=1.0)
