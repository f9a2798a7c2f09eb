import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from edgecache.cli import build_parser, main
from edgecache.cnn import TrainConfig
from edgecache.encoder import read_pgm
from edgecache.harness import DATASET_RANGES
from edgecache.instance import generate_instance
from edgecache.solver import SOLVER_COUNTERS, solve_exact
from edgecache.topology import load_topology

from oracles import parse_lp


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Run the whole CLI pipeline once in a shared scratch directory."""
    root = tmp_path_factory.mktemp("cli")
    topo = root / "topo.json"
    assert main(["topo", "--branching", "2", "--depth", "2", "--out", str(topo)]) == 0

    corpus = root / "corpus"
    assert main([
        "dataset", "--topology", str(topo), "--count", "12", "--flows", "3",
        "--seed", "3", "--train-fraction", "0.75", "--out", str(corpus),
    ]) == 0

    models = root / "models"
    assert main([
        "train", "--corpus", str(corpus), "--epochs", "6", "--batch-size", "4",
        "--seed", "1", "--out", str(models),
    ]) == 0
    return root, topo, corpus, models


def test_dataset_and_train_outputs_exist(workspace):
    root, topo, corpus, models = workspace
    manifest = json.loads((corpus / "manifest.json").read_text())
    assert manifest["format"] == "edgecache-corpus"
    assert len(manifest["samples"]) == 12
    assert sum(s["split"] == "train" for s in manifest["samples"]) == 9
    assert (models / "model_0.npz").exists()
    assert (models / "model_0.manifest.json").exists()
    assert (models / "loss_trace.csv").read_text().startswith("epoch,loss_request_0")
    assert (models / "run_manifest.json").exists()


def test_eval_writes_reports(workspace):
    root, topo, corpus, models = workspace
    out = root / "eval"
    assert main([
        "eval", "--corpus", str(corpus), "--models", str(models),
        "--rgc-epochs", "30", "--out", str(out),
    ]) == 0
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("method,mean_total_cost")
    assert len(summary) == 5  # optimal, cnn, gca, rgc
    assert (out / "table.txt").exists()
    assert (out / "detail.csv").exists()


def test_eval_requires_models_for_cnn(workspace, capsys):
    # Bad input ends in an error line and exit code 2, not a traceback.
    # One test over three inputs keeps the test's id stable.
    root, topo, corpus, models = workspace
    for flags in (
        ["--methods", "optimal,cnn"],  # cnn without --models
        ["--methods", "optimal,bogus"],  # unknown method
        ["--methods", "optimal", "--split", "nope"],  # split with no samples
    ):
        code = main(["eval", "--corpus", str(corpus), *flags, "--out", str(root / "bad")])
        assert code == 2, flags
        assert capsys.readouterr().err.startswith("error:"), flags


def test_eval_refuses_a_version_1_model(workspace, tmp_path, capsys):
    # Version 1 model files hold float64 arrays; rounding them to the
    # float32 model on load would change its outputs silently.
    root, topo, corpus, models = workspace
    old = tmp_path / "models"
    shutil.copytree(models, old)
    with np.load(old / "model_0.npz") as data:
        np.savez(old / "model_0.npz", **{name: data[name].astype(np.float64) for name in data})
    manifest = json.loads((old / "model_0.manifest.json").read_text())
    (old / "model_0.manifest.json").write_text(json.dumps({**manifest, "version": 1}))
    argv = ["eval", "--corpus", str(corpus), "--models", str(old), "--out", str(tmp_path / "eval")]
    assert main(argv) == 2
    assert "unsupported edgecache-cnn version 1" in capsys.readouterr().err


def test_missing_input_path_exits_2(workspace, tmp_path, capsys):
    # A path that does not exist is bad input too: error line, exit 2.
    root, topo, corpus, models = workspace
    missing = str(tmp_path / "missing")
    out = str(tmp_path / "out")
    for argv in (
        ["eval", "--corpus", missing, "--methods", "optimal", "--out", out],
        ["eval", "--corpus", str(corpus), "--models", missing, "--out", out],
        ["gen", "--topology", missing, "--out", out],
        ["export-lp", "--instance", missing, "--out", out],
        ["--config", missing, "gen", "--topology", str(topo), "--out", out],
    ):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:"), argv


def test_non_integer_rgc_epochs_in_config_exits_2(workspace, tmp_path, capsys):
    # A config value is read as a flag, so argparse applies --rgc-epochs'
    # type=int and refuses the float before RgcConfig sees it.
    root, topo, corpus, models = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eval": {"rgc-epochs": 2.5}}))
    argv = [
        "--config", str(config), "eval", "--corpus", str(corpus),
        "--methods", "rgc", "--out", str(tmp_path / "out"),
    ]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert "argument --rgc-epochs: invalid int value: '2.5'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,message",
    [
        ({"count": 2.5}, "argument --count: invalid int value: '2.5'"),
        ({"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
        ({"content-size": 5}, "argument --content-size: expected 2 arguments"),
        ({"func": 1}, "unrecognized arguments: --func=1"),
        ({"fixed_weights": True}, "unrecognized arguments: --fixed-weights"),
        ({"cuont": 3}, "unrecognized arguments: --cuont=3"),
    ],
    ids=["float-count", "float-seed", "scalar-range", "func", "fixed-weights", "unknown-key"],
)
def test_bad_config_value_exits_2_naming_the_flag(workspace, tmp_path, capsys, section, message):
    _, topo, _, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gen": section}))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(config), "gen", "--topology", str(topo), "--out", str(out)])
    assert exit_info.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("via_config", [True, False], ids=["config-key", "flag"])
def test_abbreviated_flag_exits_2(workspace, tmp_path, capsys, via_config):
    # "--cou" is a prefix of --count alone; it is refused, not taken for it.
    _, topo, _, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gen": {"cou": 3} if via_config else {}}))
    out = tmp_path / "out"
    flags = [] if via_config else ["--cou", "3"]
    with pytest.raises(SystemExit) as exit_info:
        main(["--config", str(config), "gen", "--topology", str(topo), *flags, "--out", str(out)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --cou" in capsys.readouterr().err
    assert not out.exists()


def test_explicit_flag_beats_config_value(workspace, tmp_path):
    _, topo, _, _ = workspace
    config = tmp_path / "config.json"
    # false and null add no flag, so beta and seed keep their defaults.
    config.write_text(json.dumps(
        {"gen": {"count": 3, "flows": 2, "alpha": [0.1, 0.2], "beta": False, "seed": None}}
    ))
    out = tmp_path / "out"
    assert main([
        "--config", str(config), "gen", "--topology", str(topo), "--count", "1",
        "--alpha", "0.3", "0.4", "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert (manifest["count"], manifest["flows"], manifest["seed"]) == (1, 2, 0)
    assert manifest["beta"] is None
    assert manifest["ranges"]["alpha"] == [0.3, 0.4]
    assert len(json.loads((out / "manifest.json").read_text())["files"]) == 1


def test_config_value_starting_with_dash_stays_a_value(workspace, tmp_path, capsys):
    # A scalar goes in as --key=value, so argparse cannot read it as a flag.
    _, _, corpus, _ = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"eval": {"methods": "-gca"}}))
    argv = ["--config", str(config), "eval", "--corpus", str(corpus), "--out", str(tmp_path / "o")]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: unknown method '-gca'")


@pytest.mark.parametrize(
    "command,flags",
    [
        ("train", ["--epochs", "0"]),
        ("train", ["--batch-size", "-1"]),
        ("train", ["--learning-rate", "nan"]),
        ("eval", ["--methods", "optimal,cnn", "--gamma", "nan"]),
        ("render", ["--q-max", "-1"]),
        ("render", ["--r-max", "nan"]),
        ("dataset", ["--train-fraction", "1.5"]),
        ("dataset", ["--train-fraction", "nan"]),
        ("train", ["--workers", "0"]),
        ("dataset", ["--budget", "0"]),
        ("topo", ["--datacenter-hops", "0"]),
        ("eval", ["--methods", "optimal,gca", "--gamma", "inf"]),
        ("dataset", ["--flows", "0"]),
        ("dataset", ["--content-size", "5", "1"]),
        ("gen", ["--flows", "0"]),
        ("gen", ["--count", "0"]),
        ("gen", ["--bandwidth", "5", "1"]),
        ("gen", ["--seed", "-1"]),
        ("dataset", ["--seed", "-1"]),
        ("eval", ["--seed", "-1"]),
        ("train", ["--seed", "-1"]),
        ("topo", ["--seed", "-1"]),
        ("topo", ["--mesh-links", "-1"]),
        ("dataset", ["--content-size", "1", "inf"]),
        ("gen", ["--ec-space", "100", "1e309"]),
        ("topo", ["--ec-count", "3"]),
        ("eval", ["--methods", "gca,gca"]),
    ],
)
def test_bad_number_flag_exits_2(workspace, tmp_path, capsys, command, flags):
    _, topo, corpus, models = workspace
    source = {
        "train": ["--corpus", str(corpus)],
        "eval": ["--corpus", str(corpus), "--models", str(models)],
        "render": ["--instance", str(corpus / "instances" / "inst_00000.json")],
        "dataset": ["--topology", str(topo), "--count", "2", "--flows", "2"],
        "gen": ["--topology", str(topo), "--count", "1", "--flows", "2"],
        "topo": [],
    }[command]
    out = tmp_path / "out"
    assert main([command, *source, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


def test_dataset_random_weights_keeps_crowding(workspace, tmp_path):
    _, topo, _, _ = workspace
    out = tmp_path / "out"
    assert main([
        "dataset", "--topology", str(topo), "--count", "1", "--flows", "2",
        "--random-weights", "--out", str(out),
    ]) == 0
    ranges = json.loads((out / "run_manifest.json").read_text())["ranges"]
    assert ranges["ar_crowding"] == 0.4
    assert ranges["alpha"] == ranges["beta"] == [0.0, 1.0]


def test_gen_export_lp_render(workspace):
    root, topo, corpus, models = workspace
    gen = root / "gen"
    assert main([
        "gen", "--topology", str(topo), "--count", "2", "--flows", "4",
        "--seed", "9", "--out", str(gen),
    ]) == 0
    instance = gen / "inst_00000.json"
    assert instance.exists()

    lp = root / "model.lp"
    assert main(["export-lp", "--instance", str(instance), "--out", str(lp)]) == 0
    model = parse_lp(lp.read_text())
    assert model.binaries
    assert (root / "model.lp.manifest.json").exists()

    pgm = root / "image.pgm"
    assert main(["render", "--instance", str(instance), "--out", str(pgm)]) == 0
    pixels = read_pgm(pgm)
    assert pixels.shape[0] == 4
    assert (root / "image.pgm.manifest.json").exists()


def test_config_file_supplies_defaults(workspace, tmp_path):
    root, topo, corpus, models = workspace
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"gen": {"count": 3, "flows": 2, "seed": 4}}))
    out = tmp_path / "from_config"
    assert main([
        "--config", str(config), "gen", "--topology", str(topo), "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flows"] == 2
    assert len(manifest["files"]) == 3

    out = tmp_path / "from_config_eq"
    assert main([
        f"--config={config}", "gen", "--topology", str(topo), "--out", str(out),
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["flows"] == 2
    assert len(manifest["files"]) == 3

    with pytest.raises(SystemExit) as exit_info:
        main(["gen", "--topology", str(topo), "--out", str(tmp_path / "none"), "--config"])
    assert exit_info.value.code == 2


def test_run_manifest_records_norm_constants(workspace):
    root, topo, corpus, models = workspace
    manifest = json.loads((corpus / "run_manifest.json").read_text())
    assert manifest["tool"] == "edgecache"
    assert manifest["command"] == "dataset"
    assert manifest["norm"]["q_max"] == pytest.approx(0.5)


def test_dataset_run_manifest_sums_solver_counters(workspace):
    # The counters go to the run manifest only; the corpus manifest keeps
    # its version 1 fields.
    root, topo, corpus, models = workspace
    expected = {}
    for idx in range(12):
        inst = generate_instance(load_topology(topo), 3, ranges=DATASET_RANGES, seed=[3, idx])
        solve_exact(inst, stats=expected)
    manifest = json.loads((corpus / "run_manifest.json").read_text())
    assert manifest["solver"] == expected
    assert set(expected) == set(SOLVER_COUNTERS) == {
        "nodes", "leaves", "overloaded_leaves", "cap_hits", "doomed_leaves", "flow_order_rechecks",
        "bound_prunes",
    }
    assert expected["leaves"] > 0
    corpus_manifest = json.loads((corpus / "manifest.json").read_text())
    assert corpus_manifest["version"] == 1
    assert set(corpus_manifest) == {
        "format", "version", "flows", "seed", "train_fraction", "norm", "excluded", "samples",
    }


def test_dataset_prints_the_summed_solver_counters(workspace, tmp_path, capsys):
    # The last line shows what the solver did, in SOLVER_COUNTERS order,
    # with the sums the run manifest holds.
    root, topo, corpus, models = workspace
    out = tmp_path / "corpus"
    assert main([
        "dataset", "--topology", str(topo), "--count", "4", "--flows", "3",
        "--seed", "5", "--out", str(out),
    ]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    counts = json.loads((out / "run_manifest.json").read_text())["solver"]
    assert last == "solver: " + ", ".join(f"{name} {counts[name]}" for name in SOLVER_COUNTERS)
    assert counts["nodes"] > 0


def test_render_r_max_alone_overrides_only_r_max(workspace):
    root, topo, corpus, models = workspace
    sample = json.loads((corpus / "manifest.json").read_text())["samples"][0]
    pgm = root / "r_only.pgm"
    assert main([
        "render", "--instance", str(corpus / sample["file"]), "--r-max", "0.5", "--out", str(pgm),
    ]) == 0
    norm = json.loads((root / "r_only.pgm.manifest.json").read_text())["norm"]
    assert norm == {"q_max": 0.5, "r_max": 0.5}  # q_max from the default ranges: 50 / 100


def _manifest_run(command, topo, corpus, out):
    """argv after the subcommand, the manifest it writes, and flags whose
    value must be recorded, for one run of each subcommand."""
    instance = corpus / "instances" / "inst_00000.json"
    return {
        "topo": (["--depth", "2", "--out", f"{out}.json"], f"{out}.json.manifest.json", {}),
        "gen": (
            ["--topology", str(topo), "--count", "1", "--flows", "2", "--out", str(out)],
            out / "run_manifest.json", {},
        ),
        "dataset": (
            ["--topology", str(topo), "--count", "2", "--flows", "2", "--allow-bounded",
             "--out", str(out)],
            out / "run_manifest.json", {"allow_bounded": True},
        ),
        "train": (
            ["--corpus", str(corpus), "--epochs", "1", "--out", str(out)],
            out / "run_manifest.json", {},
        ),
        "eval": (
            ["--corpus", str(corpus), "--methods", "optimal,gca", "--out", str(out)],
            out / "run_manifest.json", {},
        ),
        "export-lp": (["--instance", str(instance), "--out", f"{out}.lp"],
                      f"{out}.lp.manifest.json", {}),
        "render": (["--instance", str(instance), "--out", f"{out}.pgm"],
                   f"{out}.pgm.manifest.json", {}),
    }[command]


@pytest.mark.parametrize(
    "command", ["topo", "gen", "dataset", "train", "eval", "export-lp", "render"]
)
def test_run_manifest_records_every_flag(workspace, tmp_path, command):
    _, topo, corpus, _ = workspace
    config = tmp_path / "config.json"
    config.write_text("{}")
    argv, manifest_path, recorded = _manifest_run(command, topo, corpus, tmp_path / "out")
    assert main(["--config", str(config), command, *argv]) == 0
    manifest = json.loads(Path(manifest_path).read_text())

    (subparsers,) = build_parser()._subparsers._group_actions
    dests = {a.dest for a in subparsers.choices[command]._actions if a.dest != "help"}
    assert dests <= manifest.keys()
    assert manifest["command"] == command
    assert manifest["config"] == str(config)
    for key, value in recorded.items():
        assert manifest[key] == value


def test_dataset_on_a_topology_naming_an_unknown_ec_exits_2(workspace, tmp_path, capsys):
    root, topo, corpus, models = workspace
    bad = tmp_path / "topo.json"
    bad.write_text(json.dumps({**json.loads(topo.read_text()), "edge_clouds": [99]}))
    argv = ["dataset", "--topology", str(bad), "--count", "1", "--flows", "2",
            "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "edge_clouds name node 99" in capsys.readouterr().err


def test_train_flag_defaults_are_the_training_config_defaults():
    args = build_parser().parse_args(["train", "--corpus", "c", "--out", "o"])
    cfg = TrainConfig()
    assert (args.epochs, args.batch_size, args.learning_rate) == (
        cfg.epochs, cfg.batch_size, cfg.learning_rate
    )
