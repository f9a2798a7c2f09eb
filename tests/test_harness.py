import copy
import functools
import inspect
import json
import re
import sys
import threading
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from edgecache import cnn as cnnmod, harness, pel
from edgecache.cnn import CnnError, CnnModel, TrainConfig, TrainingDivergedError, _named_arrays, train
from edgecache.cost import check_feasibility, class_table, penalized_cost
from edgecache.baselines import DEFAULT_RGC_EPOCHS, RgcConfig, gca, rgc
from edgecache.encoder import EncodingError, NormConfig, encode
from edgecache.harness import (
    Corpus,
    CorpusSample,
    build_dataset,
    corpus_training_samples,
    evaluate,
    generate_instances,
    labels_of,
    load_corpus,
    load_models,
    predict_with_enhancement,
    recursive_allocate,
    split_counts,
    train_models,
)
from edgecache.instance import generate_instance, load_instance, save_instance
from edgecache.solver import solve_exact
from edgecache.topology import TopologyConfig, build_topology, save_topology

from oracles import precision_of, recursive_allocate_reference, subset_flows


@pytest.fixture(scope="module")
def topo():
    return build_topology(TopologyConfig(branching=2, depth=2, ec_rule="internal"))


@pytest.fixture(scope="module")
def corpus(topo, tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    return build_dataset(topo, n=30, flows=3, seed=5, out_dir=root, train_fraction=0.8)


@pytest.fixture(scope="module")
def models(corpus):
    models, traces = train_models(corpus, epochs=12, batch_size=8, seed=0)
    assert len(models) == 3 and len(traces[0]) == 12
    return models


def test_split_counts_match_published_protocol():
    assert split_counts(1000, 0.9) == (900, 100)
    assert split_counts(250, 0.8) == (200, 50)
    assert split_counts(10, 0.9) == (9, 1)
    assert split_counts(1, 0.9) == (1, 0)


@pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
def test_build_dataset_refuses_fraction_outside_unit_interval(topo, tmp_path, fraction):
    with pytest.raises(ValueError, match="train_fraction"):
        build_dataset(topo, n=1, flows=2, seed=0, out_dir=tmp_path, train_fraction=fraction)
    assert not (tmp_path / "manifest.json").exists()


def test_single_sample_corpus(topo, tmp_path):
    corpus = build_dataset(topo, n=1, flows=3, seed=0, out_dir=tmp_path)
    assert len(corpus.samples) == 1
    assert corpus.samples[0].proof == "exhaustive"


def test_corpus_round_trip(corpus):
    back = load_corpus(corpus.root)
    assert back.flows == corpus.flows
    assert back.samples == corpus.samples
    assert back.norm.q_max == corpus.norm.q_max


INSTANCE_ARRAYS = ("mobility", "content_size", "bandwidth", "ec_space", "link_capacity")


def _count_loads(monkeypatch) -> list:
    loads = []

    def counted(path):
        loads.append(path)
        return load_instance(path)

    monkeypatch.setattr(harness, "load_instance", counted)
    return loads


def test_built_corpus_holds_what_it_wrote(corpus, monkeypatch):
    # The held copy is the instance as written: what load_corpus reads
    # back from its files, array bytes, dtypes and all.
    back = load_corpus(corpus.root)
    assert back == corpus and back.topology == corpus.topology
    files = sorted(s.file for s in corpus.samples)
    assert sorted(corpus.instances) == sorted(back.instances) == files
    for s in corpus.samples:
        held, disk = corpus.instances[s.file], back.instances[s.file]
        for name in INSTANCE_ARRAYS:
            a, b = getattr(held, name), getattr(disk, name)
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert held.topology == disk.topology
        assert (held.alpha, held.beta) == (disk.alpha, disk.beta)
    loads = _count_loads(monkeypatch)
    for c in (corpus, back):
        assert all(c.load(s) is c.instances[s.file] for s in corpus.samples)
    assert loads == []


def test_load_corpus_sees_an_edit_made_after_the_build(topo, tmp_path):
    built = build_dataset(topo, n=3, flows=2, seed=4, out_dir=tmp_path)
    sample = built.samples[1]
    written = built.load(sample)
    save_instance(replace(written, alpha=0.125), tmp_path / sample.file)
    assert load_corpus(tmp_path).load(sample).alpha == 0.125
    assert built.load(sample) is written and written.alpha != 0.125


def test_evaluate_loads_each_sample_once(corpus, models, monkeypatch):
    # load_corpus reads each sample file once and evaluate reads none, and
    # a corpus read from disk scores byte for byte as the one build_dataset held.
    monkeypatch.setattr(harness, "time", SimpleNamespace(perf_counter=lambda: 0.0))
    methods = ("optimal", "cnn", "gca", "rgc")
    held = evaluate(corpus, models=models, methods=methods, rgc_epochs=40)
    loads = _count_loads(monkeypatch)
    back = load_corpus(corpus.root)
    assert sorted(loads) == sorted(corpus.root / s.file for s in corpus.samples)
    loads.clear()
    disk = evaluate(back, models=models, methods=methods, rgc_epochs=40)
    assert loads == []
    assert disk.summary_csv() == held.summary_csv()
    assert disk.detail_csv() == held.detail_csv()


def test_a_loaded_corpus_is_trained_and_scored_without_a_file_read(corpus, monkeypatch):
    back = load_corpus(corpus.root)

    def no_read(path):
        raise AssertionError(f"{path} was read")

    monkeypatch.setattr(harness, "load_instance", no_read)
    monkeypatch.setattr(harness, "load_topology", no_read)
    models, _ = train_models(back, epochs=1, batch_size=8)
    evaluate(back, models=models, methods=("optimal", "cnn", "gca", "rgc"), rgc_epochs=5)


def _retopologized(path):
    wider = build_topology(TopologyConfig(branching=2, depth=3, ec_rule="internal"))
    save_topology(wider, path / "topology.json")
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["samples"][-1]["labels"][0] = 5  # inside 0..7, outside the instances' 0..3
    (path / "manifest.json").write_text(json.dumps(manifest))


def _reflowed(path):
    manifest = json.loads((path / "manifest.json").read_text())
    manifest["flows"] = 3
    for s in manifest["samples"]:
        s["labels"] = [0, 0, 0]
    (path / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize(
    "edit,message",
    [(_retopologized, "is not on the topology of topology.json"), (_reflowed, "has 2 flows, not 3")],
    ids=["topology", "flows"],
)
def test_load_corpus_refuses_an_instance_unlike_the_manifest(topo, tmp_path, edit, message):
    # The label check reads E from topology.json and the label count from
    # flows, so it holds for the instances trained on only when they agree.
    corpus = build_dataset(topo, n=6, flows=2, seed=3, out_dir=tmp_path, train_fraction=0.5)
    edit(tmp_path)
    first = re.escape(f"manifest.json: sample {corpus.samples[0].file} {message}")
    with pytest.raises(ValueError, match=first):
        load_corpus(tmp_path)


def test_loss_trace_csv_bytes(topo, tmp_path):
    corpus = build_dataset(topo, n=4, flows=2, seed=8, out_dir=tmp_path / "c", train_fraction=0.5)
    _, traces = train_models(corpus, epochs=2, batch_size=2, out_dir=tmp_path / "m")
    rows = [f"{e},{traces[0][e]:.12g},{traces[1][e]:.12g}" for e in range(2)]
    expected = "\r\n".join(["epoch,loss_request_0,loss_request_1", *rows, ""])
    assert (tmp_path / "m" / "loss_trace.csv").read_bytes() == expected.encode()


def test_stored_labels_resolve_to_identical_cost(corpus):
    for sample in corpus.samples[:5]:
        inst = corpus.load(sample)
        sol = solve_exact(inst)
        assert sol.cost.total == pytest.approx(sample.optimal_tc, abs=1e-9)
        assert labels_of(sol.assignment.x) == sample.labels


def test_training_samples_carry_labels(corpus):
    samples = corpus_training_samples(corpus)
    assert len(samples) == 24
    assert all(len(s.labels) == 3 for s in samples)
    assert all(s.image.matrix.shape[0] == 3 for s in samples)


def test_precision_definition():
    # 50 instances x 5 flows with 232 matching decisions: 92.8%.
    rng = np.random.default_rng(0)
    actual = [tuple(rng.integers(0, 5, size=5)) for _ in range(50)]
    predicted = [list(row) for row in actual]
    wrong = 0
    for i in range(50):
        for j in range(5):
            if wrong < 18:
                predicted[i][j] = (actual[i][j] + 1) % 5
                wrong += 1
    assert precision_of(predicted, actual) == pytest.approx(0.928)
    assert precision_of(actual, actual) == 1.0


def test_training_loss_halves_on_labelled_corpus(corpus):
    samples = corpus_training_samples(corpus)
    topo = corpus.topology
    _, losses = train(
        samples,
        TrainConfig(epochs=12, batch_size=8, num_classes=topo.num_edge_clouds + 1,
                    request_index=0, seed=3),
    )
    assert losses[-1] < 0.5 * losses[0]


# --- the interleaved training scheduler --------------------------------------


def test_train_models_is_bit_equal_for_any_workers(corpus, monkeypatch):
    # 24 train samples in batches of 5: the last step of each epoch is
    # short.  A short switch interval makes the threads trade the queue
    # often; a slot lost or stepped twice would change its result.  One
    # filter takes the one-channel sums, the others the einsum sums.
    samples = corpus_training_samples(corpus)
    num_classes = corpus.topology.num_edge_clouds + 1
    for filters in ((1,), (16,), (16, 32, 64)):
        monkeypatch.setattr(cnnmod, "CnnModel", functools.partial(CnnModel, filters=filters))
        alone = [
            train(samples, TrainConfig(epochs=2, batch_size=5, seed=4 + k, request_index=k,
                                       num_classes=num_classes))
            for k in range(corpus.flows)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = {
                workers: train_models(corpus, epochs=2, batch_size=5, seed=4, workers=workers)
                for workers in (1, 2, 5)
            }
        finally:
            sys.setswitchinterval(interval)
        for workers, (models, traces) in runs.items():
            for k, (ref_model, ref_trace) in enumerate(alone):
                assert models[k].filters == ref_model.filters == filters
                assert traces[k] == ref_trace, (filters, workers, k)
                ref = _named_arrays(ref_model)
                for name, array in _named_arrays(models[k]).items():
                    assert np.array_equal(array, ref[name]), (filters, workers, k, name)


def test_train_models_takes_the_class_count_from_the_held_instances(topo, tmp_path):
    # The images and labels come from the instances the corpus holds, so
    # the class count must too, not from topology.json as it now reads.
    corpus = build_dataset(topo, n=6, flows=2, seed=3, out_dir=tmp_path, train_fraction=0.5)
    wider = build_topology(TopologyConfig(branching=2, depth=3, ec_rule="internal"))
    assert wider.num_edge_clouds != topo.num_edge_clouds
    save_topology(wider, tmp_path / "topology.json")
    models, _ = train_models(corpus, epochs=1, batch_size=2)
    assert {m.num_classes for m in models} == {topo.num_edge_clouds + 1}


def test_train_models_leaves_no_forward_cache(corpus):
    models, _ = train_models(corpus, epochs=1, batch_size=5, workers=2)
    for m in models:
        for layer in m.layers:
            assert getattr(layer, "_cache", None) is None
            assert getattr(layer, "_mask", None) is None


def test_diverging_slot_reaches_the_caller(corpus, monkeypatch):
    samples = [
        replace(s, image=replace(s.image, matrix=np.full_like(s.image.matrix, np.nan)))
        for s in corpus_training_samples(corpus)
    ]
    monkeypatch.setattr(harness, "corpus_training_samples", lambda corpus, split: samples)
    raised = []

    def run():
        try:
            train_models(corpus, epochs=3, batch_size=5, workers=2)
        except Exception as exc:
            raised.append(exc)

    caller = threading.Thread(target=run, daemon=True)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "train_models hung after a slot diverged"
    assert len(raised) == 1 and isinstance(raised[0], TrainingDivergedError)
    assert raised[0].epoch == 0


def test_bad_training_input_is_refused_before_any_thread(corpus, monkeypatch):
    samples = corpus_training_samples(corpus)
    bad = samples[:-1] + [replace(samples[-1], labels=(99,) * corpus.flows)]
    monkeypatch.setattr(harness, "corpus_training_samples", lambda corpus, split: bad)

    def no_threads(*args, **kwargs):
        raise AssertionError("a training thread started")

    monkeypatch.setattr(harness, "ThreadPoolExecutor", no_threads)
    with pytest.raises(CnnError, match="class range"):
        train_models(corpus, epochs=1, workers=2)


@pytest.fixture
def corpus_must_not_load(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("the corpus was loaded or a training thread started")

    monkeypatch.setattr(harness, "corpus_training_samples", fail)
    monkeypatch.setattr(harness, "ThreadPoolExecutor", fail)


def test_a_negative_seed_is_refused_before_the_corpus_loads(corpus, corpus_must_not_load):
    with pytest.raises(CnnError, match="seed must be >= 0, got -1"):
        train_models(corpus, epochs=1, seed=-1, workers=2)


@pytest.mark.parametrize(
    "setting,error,match",
    [({"epochs": 2.5}, CnnError, "epochs must be an integer, got 2.5"),
     ({"batch_size": 1.5}, CnnError, "batch_size must be an integer, got 1.5"),
     ({"seed": 1.5}, CnnError, "seed must be an integer, got 1.5"),
     ({"workers": 1.5}, ValueError, "workers must be an integer, got 1.5")],
    ids=["epochs", "batch_size", "seed", "workers"],
)
def test_a_non_integer_setting_is_refused_before_the_corpus_loads(
    corpus, corpus_must_not_load, setting, error, match
):
    with pytest.raises(error, match=match):
        train_models(corpus, **{"epochs": 1, "workers": 2, **setting})


@pytest.mark.parametrize("workers", [0, -1])
def test_train_models_refuses_fewer_than_one_worker(corpus, workers):
    with pytest.raises(ValueError, match="workers must be >= 1"):
        train_models(corpus, epochs=1, workers=workers)


def test_models_persist_and_reload(corpus, models, tmp_path):
    from edgecache.cnn import forward, save_model

    for k, m in enumerate(models):
        save_model(m, tmp_path / f"model_{k}")
    back = load_models(tmp_path)
    inst = corpus.load(corpus.samples[0])
    img = encode(inst, corpus.norm)
    for a, b in zip(models, back):
        assert (forward(a, img) == forward(b, img)).all()


def test_trained_and_loaded_models_are_slot_models(corpus, models, tmp_path):
    # Both hand out a SlotModels, whose stacked pass gives the same
    # probabilities as the same models passed as a plain list.
    from edgecache.cnn import SlotModels, predict_all, save_model

    for k, m in enumerate(models):
        save_model(m, tmp_path / f"model_{k}")
    back = load_models(tmp_path)
    assert isinstance(models, SlotModels) and isinstance(back, SlotModels)
    for sample in corpus.samples[:4]:
        img = encode(corpus.load(sample), corpus.norm)
        O = predict_all(list(models), img)
        assert np.array_equal(predict_all(models, img), O)
        assert np.array_equal(predict_all(back, img), O)


def test_load_models_refuses_swapped_slots(models, tmp_path):
    from edgecache.cnn import save_model

    for k, m in enumerate(models):
        save_model(m, tmp_path / f"model_{k}")
    save_model(models[1], tmp_path / "model_0")
    save_model(models[0], tmp_path / "model_1")
    with pytest.raises(CnnError, match=r"model_0\.manifest\.json: request_index 1 in slot 0"):
        load_models(tmp_path)


@pytest.mark.parametrize("block", [0, -3])
def test_recursive_allocate_refuses_a_block_below_one(corpus, models, block):
    inst = corpus.load(corpus.of_split("test")[0])
    with pytest.raises(ValueError, match="block"):
        recursive_allocate(models, inst, block=block, norm=corpus.norm)


def test_recursive_allocate_refuses_a_block_above_the_model_count(corpus, models):
    inst = generate_instance(corpus.topology, 6, seed=77)
    with pytest.raises(ValueError, match="block 4 exceeds the 3 models"):
        recursive_allocate(models, inst, block=4, norm=corpus.norm)


def _same_assignment(a, b):
    return all(
        x.tobytes() == y.tobytes() and x.dtype == y.dtype and x.shape == y.shape
        for x, y in ((a.x, b.x), (a.z, b.z), (a.y, b.y))
    )


@pytest.mark.parametrize(
    "flows, block, delta, gamma",
    [(15, 5, 1e-3, 20.0), (13, 5, 1e-3, 20.0), (15, 3, 0.14, 3.5), (1, 5, 1e-3, 20.0)],
)
def test_recursive_allocate_matches_the_sub_instance_path(flows, block, delta, gamma):
    # Untrained models give near-uniform rows, so PEL walks long queues,
    # and 15 flows drive the residual ratios past the image range.  13 flows leave a short last block
    # padded with phantom rows; block 3 pads every block.
    topo = harness.evaluation_topology()
    norm = NormConfig.from_ranges(harness.DATASET_RANGES)
    models = _untrained_slot_models(topo)
    for seed in range(4):
        inst = generate_instance(topo, flows, ranges=harness.DATASET_RANGES, seed=[flows, seed])
        got = recursive_allocate(models, inst, block, norm, delta=delta, gamma=gamma)
        want = recursive_allocate_reference(models, inst, block, norm, delta, gamma)
        assert _same_assignment(got, want), (flows, block, seed)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_recursive_allocate_with_trained_models_matches_the_sub_instance_path(topo, corpus, models, block):
    for seed in range(5):
        inst = generate_instance(topo, 8, seed=[8, seed])
        got = recursive_allocate(models, inst, block, corpus.norm)
        want = recursive_allocate_reference(models, inst, block, corpus.norm, 1e-3, 20.0)
        assert _same_assignment(got, want), (block, seed)


@pytest.mark.parametrize("flows, block, calls", [(8, 3, 3), (6, 3, 2), (2, 1, 2)])
def test_recursive_allocate_runs_pel_once_per_block(topo, corpus, models, monkeypatch, flows, block, calls):
    counts = {"enhance": 0, "build_queues": 0}

    def counted(name):
        original = getattr(pel, name)

        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(pel, name, call)

    counted("enhance")
    counted("build_queues")
    recursive_allocate(models, generate_instance(topo, flows, seed=3), block, corpus.norm)
    assert counts == {"enhance": calls, "build_queues": calls}


def _untrained_slot_models(topo):
    # Five untrained models over the evaluation network: near-uniform
    # rows, so PEL walks long queues.
    width = topo.num_access_routers + topo.num_edge_clouds + topo.num_links
    return [CnnModel((5, width), topo.num_edge_clouds + 1, request_index=k, seed=k) for k in range(5)]


def test_placements_match_the_recorded_reference():
    # recursive_allocate (block 5) and rgc on seeded K=15 and K=5
    # instances: classes and penalized cost bits as recorded before the
    # flat pricing kernel (see the fixture's note).  The per-entry
    # oracles price through the kernel under test, so only a recording
    # catches a kernel rewrite that agrees with itself.
    ref = json.loads((Path(__file__).parent / "data" / "placement_reference.json").read_text())
    topo = harness.evaluation_topology()
    norm = NormConfig.from_ranges(harness.DATASET_RANGES)
    models = _untrained_slot_models(topo)
    assert len(ref["cases"]) == 20
    for case in ref["cases"]:
        inst = generate_instance(topo, case["flows"], ranges=harness.DATASET_RANGES, seed=case["seed"])
        got = dict(case)
        for method, asg in (
            ("cnn", recursive_allocate(models, inst, 5, norm)),
            ("rgc", rgc(inst, RgcConfig(epochs=200, seed=case["seed"][1]))),
        ):
            got[f"{method}_labels"] = list(labels_of(asg.x))
            got[f"{method}_tc"] = penalized_cost(inst, asg).hex()
        # The kernel's own floats too: placements can survive a kernel
        # that moves a last bit without flipping a decision.
        probe = np.random.default_rng([case["flows"], case["seed"][1]])
        stack = probe.integers(0, inst.topology.num_edge_clouds + 1, size=(8, case["flows"]))
        got["probe_tc"] = [value.hex() for value in class_table(inst).price(stack).tolist()]
        assert got == case, case["seed"]


def test_recursive_allocate_degenerate_split_equals_plain(corpus, models):
    sample = corpus.of_split("test")[0]
    inst = corpus.load(sample)
    direct = predict_with_enhancement(models, inst, corpus.norm)
    recursive = recursive_allocate(models, inst, block=3, norm=corpus.norm)
    assert (direct.x == recursive.x).all()


def test_predict_pads_a_short_instance_and_refuses_a_long_one(topo, corpus, models):
    from edgecache.cnn import CnnError, predict_all
    from edgecache.encoder import split_subimages
    from edgecache.pel import enhance

    inst = generate_instance(topo, 6, seed=77)
    short = subset_flows(inst, [0, 1])
    (padded,) = split_subimages(encode(short, corpus.norm), 3)
    assert padded.phantom_rows == 1
    expected = enhance(short, predict_all(models, padded)[:2])
    asg = predict_with_enhancement(models, short, corpus.norm)
    assert (asg.x == expected.x).all() and asg.x.shape[0] == 2
    assert _same_assignment(asg, recursive_allocate(models, short, len(models), corpus.norm))
    with pytest.raises(CnnError, match="3 models for 6 flows"):
        predict_with_enhancement(models, inst, corpus.norm)


def test_off_range_first_block_is_refused_by_both_placers(topo, corpus, models):
    # The first block sees the instance's own capacities, so it is
    # encoded under the corpus normalization, which refuses it.
    inst = generate_instance(topo, 6, seed=77)
    tight = replace(inst, ec_space=inst.ec_space * 0.01)
    with pytest.raises(EncodingError, match="Q"):
        predict_with_enhancement(models, subset_flows(tight, [0, 1, 2]), corpus.norm)
    for block in (1, 3):
        with pytest.raises(EncodingError, match="Q"):
            recursive_allocate(models, tight, block, corpus.norm)


def test_recursive_allocate_consumes_residuals(topo, corpus, models):
    # 6 flows, blocks of 3: after the first block the second block must
    # see capacities reduced exactly by the first block's consumption.
    inst = generate_instance(topo, 6, seed=77)
    asg = recursive_allocate(models, inst, block=3, norm=corpus.norm)
    assert asg.x.shape == (6, topo.num_edge_clouds)

    first = subset_flows(inst, range(3))
    img = encode(first, NormConfig(corpus.norm.q_max, corpus.norm.r_max, clip=True))
    from edgecache.cnn import predict_all
    from edgecache.pel import enhance

    O = predict_all(models, img)
    first_asg = enhance(first, O)
    # manual residual arithmetic
    used = (first.content_size[:, None] * first_asg.x).sum(axis=0)
    manual_space = inst.ec_space - used
    assert (first_asg.x == asg.x[:3]).all()
    # second block must have been solved against the reduced capacities
    second = subset_flows(inst, range(3, 6))
    from edgecache.instance import Instance

    residual_second = Instance(
        topology=inst.topology,
        mobility=second.mobility,
        content_size=second.content_size,
        bandwidth=second.bandwidth,
        ec_space=np.maximum(manual_space, 1e-9),
        link_capacity=np.maximum(
            inst.link_capacity
            - (first.bandwidth[:, None] * first_asg.y).sum(axis=0),
            1e-9,
        ),
        alpha=inst.alpha,
        beta=inst.beta,
    )
    img2 = encode(residual_second, NormConfig(corpus.norm.q_max, corpus.norm.r_max, clip=True))
    O2 = predict_all(models, img2)
    second_asg = enhance(residual_second, O2)
    assert (second_asg.x == asg.x[3:]).all()


def test_evaluate_optimal_scores_perfectly(corpus, models):
    report = evaluate(corpus, models=models, methods=("optimal", "gca"))
    optimal_row = report.rows[0]
    assert optimal_row.method == "optimal"
    assert optimal_row.precision == 1.0
    assert optimal_row.feasible_ratio == 1.0
    assert optimal_row.max_diff == 0.0


def test_evaluate_dominance_and_csv_shape(corpus, models):
    report = evaluate(corpus, models=models, methods=("optimal", "cnn", "gca", "rgc"),
                      rgc_epochs=60)
    by_name = {r.method: r for r in report.rows}
    assert by_name["optimal"].mean_total_cost <= by_name["cnn"].mean_total_cost + 1e-9
    assert by_name["optimal"].mean_total_cost <= by_name["gca"].mean_total_cost + 1e-9
    assert by_name["optimal"].mean_total_cost <= by_name["rgc"].mean_total_cost + 1e-9
    # per-instance dominance: no method undercuts its instance's optimum
    # (optima here carry exhaustive proofs)
    optimal_tc = {s.file: s.optimal_tc for s in corpus.of_split("test")}
    for d in report.details:
        assert d["penalized_cost"] >= optimal_tc[d["instance"]] - 1e-9
    lines = report.summary_csv().strip().splitlines()
    assert lines[0] == "method,mean_total_cost,precision,feasible_ratio,max_diff,wall_time"
    assert len(lines) == 5
    table = report.format_table()
    assert "Mean Total Cost" in table and "Feasible Ratio" in table


def test_evaluate_rejects_models_from_other_normalization(corpus, models):
    # "" is CnnModel's default digest: it proves no normalization either.
    for digest in (NormConfig(q_max=1.0, r_max=1.0).digest(), ""):
        stranger = copy.copy(models[1])
        stranger.norm_digest = digest
        with pytest.raises(ValueError, match="slot 1"):
            evaluate(corpus, models=[models[0], stranger, models[2]], methods=("optimal", "cnn"))


def test_evaluate_rejects_unknown_method_before_placing(corpus, monkeypatch):
    import edgecache.harness as harness

    def placed(*args, **kwargs):
        raise AssertionError("rgc ran before the method list was checked")

    monkeypatch.setattr(harness, "rgc", placed)
    with pytest.raises(ValueError, match="unknown method 'bogus'"):
        evaluate(corpus, methods=("rgc", "bogus"))


@pytest.mark.parametrize("methods", [("gca", "gca"), ("optimal", "gca", "optimal"), ()])
def test_evaluate_rejects_an_empty_or_repeated_method_list_before_placing(
    corpus, monkeypatch, methods
):
    # A repeated method would be placed and scored twice and written as
    # two rows of both CSVs; an empty list would report nothing.
    import edgecache.harness as harness

    def placed(*args, **kwargs):
        raise AssertionError("gca ran before the method list was checked")

    monkeypatch.setattr(harness, "gca", placed)
    with pytest.raises(ValueError, match="must name each method once, and at least one"):
        evaluate(corpus, methods=methods)


@pytest.mark.parametrize("gamma", [-1.0, float("inf"), float("nan")])
def test_evaluate_rejects_a_bad_gamma_before_placing(corpus, monkeypatch, gamma):
    # gca prices no penalty itself, so only evaluate's own check stands
    # between these and NaN or sign-flipped penalized_cost rows.
    import edgecache.harness as harness

    def placed(*args, **kwargs):
        raise AssertionError("gca ran before gamma was checked")

    monkeypatch.setattr(harness, "gca", placed)
    with pytest.raises(ValueError, match="gamma must be finite and positive"):
        evaluate(corpus, methods=("optimal", "gca"), gamma=gamma)


def _fail_placing(monkeypatch, *names):
    def placed(*args, **kwargs):
        raise AssertionError("a method placed before every setting was checked")

    for name in names:
        monkeypatch.setattr(harness, name, placed)


@pytest.mark.parametrize(
    "setting, message",
    [({"rgc_epochs": 0}, "epochs must be >= 1"), ({"rgc_seed": -1}, "seed must be >= 0")],
    ids=["epochs", "seed"],
)
def test_evaluate_rejects_bad_rgc_settings_before_placing(
    corpus, models, monkeypatch, setting, message
):
    # rgc's settings were checked only at its first placement, after
    # gca and cnn had placed the whole split.
    _fail_placing(monkeypatch, "gca", "recursive_allocate", "rgc")
    with pytest.raises(ValueError, match=message):
        evaluate(corpus, models=models, methods=("optimal", "gca", "cnn", "rgc"), **setting)


@pytest.mark.parametrize("delta", [-0.1, 1.0, float("nan")])
def test_evaluate_rejects_a_bad_delta_before_placing(corpus, monkeypatch, delta):
    # Checked even without cnn, the one method that reads it.
    _fail_placing(monkeypatch, "gca", "rgc")
    with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\)"):
        evaluate(corpus, methods=("optimal", "gca", "rgc"), delta=delta)


@pytest.mark.parametrize("write", [build_dataset, generate_instances])
def test_corpus_writers_refuse_a_negative_seed(topo, tmp_path, write):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="seed must be >= 0"):
        write(topo, 1, 2, -1, out)
    assert not out.exists()


@pytest.mark.parametrize(
    "budget, message",
    [(0, "budget must be >= 1"), (float("nan"), "budget must be an integer"),
     (2.5, "budget must be an integer")],
    ids=["zero", "nan", "fraction"],
)
def test_build_dataset_refuses_a_bad_budget_before_writing(topo, tmp_path, budget, message):
    # A NaN budget never runs out: every label would read "exhaustive".
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=message):
        build_dataset(topo, 1, 2, 0, out, budget=budget)
    assert not out.exists()


def test_evaluate_is_deterministic_modulo_wall_time(corpus, models):
    def strip_wall_time(csv_text: str) -> str:
        lines = [",".join(line.split(",")[:-1]) for line in csv_text.splitlines()]
        return "\n".join(lines)

    a = evaluate(corpus, models=models, methods=("optimal", "cnn", "rgc"), rgc_epochs=40)
    b = evaluate(corpus, models=models, methods=("optimal", "cnn", "rgc"), rgc_epochs=40)
    assert strip_wall_time(a.summary_csv()) == strip_wall_time(b.summary_csv())
    assert a.detail_csv() == b.detail_csv()


def test_hand_built_testset_report(topo, tmp_path):
    # Three fixed instances, solved for labels; the report's numbers must
    # equal an independent recomputation of every metric.  The corpus
    # holds them, so none is written.
    root = tmp_path / "hand"
    samples = []
    insts = []
    for idx in range(3):
        inst = generate_instance(topo, 3, seed=[100, idx])
        sol = solve_exact(inst)
        rel = f"instances/inst_{idx:05d}.json"
        insts.append(inst)
        samples.append(
            CorpusSample(
                file=rel,
                seed=[100, idx],
                split="test",
                labels=labels_of(sol.assignment.x),
                optimal_tc=sol.cost.total,
                proof=sol.proof,
            )
        )
    corpus = Corpus(root=root, flows=3, norm=NormConfig.from_ranges(), samples=tuple(samples),
                    excluded=0, topology=topo, instances={s.file: i for s, i in zip(samples, insts)})
    report = evaluate(corpus, methods=("optimal", "gca"))
    gca_row = report.rows[1]

    tcs, matches, feas, diffs = [], 0, 0, []
    detail = ["instance,method,penalized_cost,feasible,label_matches"]
    detail += [f"{s.file},optimal,{s.optimal_tc:.12g},1,3" for s in samples]
    for inst, s in zip(insts, samples):
        asg = gca(inst)
        tc = penalized_cost(inst, asg)
        tcs.append(tc)
        match = sum(int(a == b) for a, b in zip(labels_of(asg.x), s.labels))
        matches += match
        ok = check_feasibility(inst, asg).feasible
        feas += int(ok)
        diffs.append(tc - s.optimal_tc)
        detail.append(f"{s.file},gca,{tc:.12g},{int(ok)},{match}")
    assert gca_row.mean_total_cost == pytest.approx(np.mean(tcs), abs=1e-12)
    assert gca_row.precision == pytest.approx(matches / 9, abs=1e-12)
    assert gca_row.feasible_ratio == pytest.approx(feas / 3, abs=1e-12)
    assert gca_row.max_diff == pytest.approx(max(diffs), abs=1e-12)

    # The CSV text, header and row order included; wall time is the one
    # column left out.
    assert report.detail_csv() == "\r\n".join(detail) + "\r\n"
    optimal_mean = np.mean([s.optimal_tc for s in samples])
    summary = [
        "method,mean_total_cost,precision,feasible_ratio,max_diff",
        f"optimal,{optimal_mean:.12g},1,1,0",
        f"gca,{np.mean(tcs):.12g},{matches / 9:.12g},{feas / 3:.12g},{max(diffs):.12g}",
    ]
    lines = report.summary_csv().split("\r\n")
    assert lines[-1] == ""
    assert [line.rsplit(",", 1)[0] for line in lines[:-1]] == summary
    assert lines[0].endswith(",wall_time")
    assert all(re.fullmatch(r"\d+\.\d{6}", line.rsplit(",", 1)[1]) for line in lines[1:-1])


@pytest.mark.parametrize("count", [0, -3])
def test_generate_instances_refuses_a_count_below_one(topo, tmp_path, count):
    out = tmp_path / "gen"
    with pytest.raises(ValueError, match="count must be >= 1"):
        generate_instances(topo, count, 2, 0, out)
    assert not out.exists()


def test_build_dataset_reports_exclusions(topo, tmp_path):
    corpus = build_dataset(
        topo, n=6, flows=3, seed=2, out_dir=tmp_path / "tight", budget=3
    )
    assert corpus.excluded == 6  # nothing solvable in 3 nodes
    assert len(corpus.samples) == 0
    kept = build_dataset(
        topo, n=6, flows=3, seed=2, out_dir=tmp_path / "kept", budget=3,
        require_proof=False,
    )
    assert len(kept.samples) == 6
    assert all(s.proof == "bounded" for s in kept.samples)


def test_setting_defaults_are_read_from_their_owners():
    train_defaults = inspect.signature(train_models).parameters
    cfg = TrainConfig()
    for name in ("epochs", "batch_size", "learning_rate"):
        assert train_defaults[name].default == getattr(cfg, name), name
    rgc_epochs = inspect.signature(evaluate).parameters["rgc_epochs"].default
    assert rgc_epochs == DEFAULT_RGC_EPOCHS == RgcConfig().epochs
