"""Command-line interface.

Subcommands cover the whole pipeline: topo (build a network), gen
(random instances), dataset (solve + label a corpus), train, eval,
export-lp, and render (grayscale PGM).  A JSON config file's section
for a subcommand is read as flags placed right after it, so argparse
checks every value and explicit flags win.  Every run writes a manifest
recording the arguments, seeds and normalization constants it used.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .baselines import DEFAULT_RGC_EPOCHS
from .cnn import TrainConfig
from .cost import DEFAULT_GAMMA
from .encoder import NormConfig, encode, to_grayscale, write_pgm
from .formats import write_json
from .harness import (
    DATASET_RANGES,
    build_dataset,
    evaluate,
    generate_instances,
    load_corpus,
    load_models,
    train_models,
)
from .instance import ParameterRanges, load_instance
from .lpfile import export_milp
from .pel import DEFAULT_DELTA
from .solver import DEFAULT_NODE_BUDGET
from .topology import TopologyConfig, build_topology, load_topology, save_topology


def _write_manifest(path, args, **extra) -> None:
    """Record every parsed argument, plus the resolved constants in extra
    (ranges, normalization), next to a run's output."""
    write_json(path, {"tool": "edgecache", "version": __version__, **vars(args), **extra})


_RANGE_FLAGS = (
    ("content_size", "content size range in MB"),
    ("ec_space", "EC cache space range in MB"),
    ("bandwidth", "flow bandwidth range in Mbps"),
    ("link_capacity", "link capacity range in Mbps"),
    ("alpha", "caching weight range"),
    ("beta", "transmission weight range"),
)


def _ranges_from_args(args, base: ParameterRanges) -> ParameterRanges:
    given = {name: getattr(args, name) for name, _ in _RANGE_FLAGS}
    return replace(base, **{name: tuple(pair) for name, pair in given.items() if pair is not None})


def _add_range_flags(p: argparse.ArgumentParser) -> None:
    for name, help_text in _RANGE_FLAGS:
        p.add_argument(f"--{name.replace('_', '-')}", nargs=2, type=float, default=None,
                       metavar=("LO", "HI"), help=help_text)


def _cmd_topo(args) -> int:
    branching = args.branching[0] if len(args.branching) == 1 else tuple(args.branching)
    config = TopologyConfig(
        branching=branching,
        depth=args.depth,
        mesh_links=args.mesh_links,
        ec_rule=args.ec_rule,
        ec_count=args.ec_count,
        datacenter_hops=args.datacenter_hops,
        seed=args.seed,
    )
    topo = build_topology(config)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_topology(topo, out)
    _write_manifest(f"{out}.manifest.json", args)
    print(
        f"wrote {out}: {len(topo.nodes)} nodes, {topo.num_links} links, "
        f"{topo.num_access_routers} ARs, {topo.num_edge_clouds} ECs"
    )
    return 0


def _cmd_gen(args) -> int:
    topo = load_topology(args.topology)
    ranges = _ranges_from_args(args, ParameterRanges())
    files = generate_instances(topo, args.count, args.flows, args.seed, args.out, ranges=ranges)
    _write_manifest(Path(args.out) / "run_manifest.json", args, ranges=ranges.__dict__)
    print(f"wrote {len(files)} instances to {args.out}")
    return 0


def _cmd_dataset(args) -> int:
    topo = load_topology(args.topology)
    base = DATASET_RANGES
    if args.random_weights:  # keep the crowding; alpha and beta get the generator's ranges
        base = replace(base, alpha=ParameterRanges.alpha, beta=ParameterRanges.beta)
    ranges = _ranges_from_args(args, base)
    solver_stats: dict[str, int] = {}
    corpus = build_dataset(
        topo,
        n=args.count,
        flows=args.flows,
        seed=args.seed,
        out_dir=args.out,
        ranges=ranges,
        train_fraction=args.train_fraction,
        budget=args.budget,
        require_proof=not args.allow_bounded,
        stats=solver_stats,
    )
    _write_manifest(
        Path(args.out) / "run_manifest.json", args,
        ranges=ranges.__dict__, norm=corpus.norm.record(), solver=solver_stats,
    )
    train_n = len(corpus.of_split("train"))
    test_n = len(corpus.of_split("test"))
    print(
        f"corpus at {args.out}: {train_n} train / {test_n} test samples"
        + (f", {corpus.excluded} excluded (budget)" if corpus.excluded else "")
    )
    print("solver: " + ", ".join(f"{name} {n}" for name, n in solver_stats.items()))
    return 0


def _cmd_train(args) -> int:
    corpus = load_corpus(args.corpus)
    models, traces = train_models(
        corpus,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        seed=args.seed,
        workers=args.workers,
        out_dir=args.out,
    )
    _write_manifest(Path(args.out) / "run_manifest.json", args, norm=corpus.norm.record())
    print(
        f"trained {len(models)} request models; final losses: "
        + ", ".join(f"{t[-1]:.4f}" for t in traces)
    )
    return 0


def _cmd_eval(args) -> int:
    corpus = load_corpus(args.corpus)
    methods = tuple(args.methods.split(","))
    models = load_models(args.models) if "cnn" in methods and args.models else None
    report = evaluate(
        corpus,
        models=models,
        methods=methods,
        split=args.split,
        rgc_epochs=args.rgc_epochs,
        rgc_seed=args.seed,
        delta=args.delta,
        gamma=args.gamma,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.csv").write_text(report.summary_csv())
    (out / "detail.csv").write_text(report.detail_csv())
    table = report.format_table()
    (out / "table.txt").write_text(table + "\n")
    _write_manifest(out / "run_manifest.json", args, norm=corpus.norm.record())
    print(table)
    return 0


def _cmd_export_lp(args) -> int:
    text = export_milp(load_instance(args.instance), big_m=args.big_m)
    Path(args.out).write_text(text)
    _write_manifest(f"{args.out}.manifest.json", args)
    print(f"wrote {args.out}")
    return 0


def _cmd_render(args) -> int:
    inst = load_instance(args.instance)
    norm = NormConfig(q_max=args.q_max, r_max=args.r_max)
    img = encode(inst, norm)
    write_pgm(args.out, to_grayscale(img))
    _write_manifest(f"{args.out}.manifest.json", args, norm=norm.record())
    print(f"wrote {args.out} ({img.matrix.shape[0]}x{img.matrix.shape[1]})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgecache",
        description="proactive edge caching: optimization, encoding, learning, benchmarks",
        allow_abbrev=False,
    )
    parser.add_argument("--config", default=None, help="JSON file of flags per subcommand")
    parser.add_argument("--version", action="version", version=f"edgecache {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    # A flag or config key must be spelled out: no prefix of a flag is taken for it.
    add_parser = functools.partial(sub.add_parser, allow_abbrev=False)

    p = add_parser("topo", help="build and save a network topology")
    p.add_argument("--branching", nargs="+", type=int, default=[TopologyConfig.branching])
    p.add_argument("--depth", type=int, default=TopologyConfig.depth)
    p.add_argument("--mesh-links", type=int, default=TopologyConfig.mesh_links)
    p.add_argument("--ec-rule", choices=["internal", "all", "leaves", "random"],
                   default=TopologyConfig.ec_rule)
    p.add_argument("--ec-count", type=int, default=TopologyConfig.ec_count)
    p.add_argument("--datacenter-hops", type=int, default=TopologyConfig.datacenter_hops)
    p.add_argument("--seed", type=int, default=TopologyConfig.seed)
    p.add_argument("--out", required=True)

    p = add_parser("gen", help="generate random instances")
    p.add_argument("--topology", required=True)
    p.add_argument("--count", type=int, default=10)
    p.add_argument("--flows", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_range_flags(p)

    p = add_parser("dataset", help="generate, solve and label a training corpus")
    p.add_argument("--topology", required=True)
    p.add_argument("--count", type=int, default=250)
    p.add_argument("--flows", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--train-fraction", type=float, default=0.9)
    p.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)
    p.add_argument("--allow-bounded", action="store_true",
                   help="keep budget-limited incumbents instead of excluding them")
    p.add_argument("--random-weights", action="store_true",
                   help="sample alpha and beta per instance in [0, 1], not fixed at 0.5")
    p.add_argument("--out", required=True)
    _add_range_flags(p)

    p = add_parser("train", help="train the per-request classifiers")
    p.add_argument("--corpus", required=True)
    p.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    p.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--seed", type=int, default=TrainConfig.seed)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)

    p = add_parser("eval", help="score methods on a corpus split")
    p.add_argument("--corpus", required=True)
    p.add_argument("--models", default=None)
    p.add_argument("--methods", default="optimal,cnn,gca,rgc")
    p.add_argument("--split", default="test")
    p.add_argument("--rgc-epochs", type=int, default=DEFAULT_RGC_EPOCHS)
    p.add_argument("--delta", type=float, default=DEFAULT_DELTA)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = add_parser("export-lp", help="export one instance as an LP-format MILP")
    p.add_argument("--instance", required=True)
    p.add_argument("--big-m", type=float, default=None)
    p.add_argument("--out", required=True)

    p = add_parser("render", help="render an instance as a grayscale PGM")
    p.add_argument("--instance", required=True)
    p.add_argument("--q-max", type=float, default=NormConfig.from_ranges().q_max)
    p.add_argument("--r-max", type=float, default=NormConfig.from_ranges().r_max)
    p.add_argument("--out", required=True)

    return parser


_COMMANDS = {"topo": _cmd_topo, "gen": _cmd_gen, "dataset": _cmd_dataset, "train": _cmd_train,
             "eval": _cmd_eval, "export-lp": _cmd_export_lp, "render": _cmd_render}


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Pull --config PATH or --config=PATH out of argv and put the config's
    section for the subcommand right after it as flags: a scalar becomes
    --key=value, a list --key v1 v2, true --key, and false or null nothing.
    Explicit flags come later and win; a --config without a path exits 2."""
    pre = argparse.ArgumentParser(add_help=False, exit_on_error=False, allow_abbrev=False)
    pre.add_argument("--config")
    try:
        known, rest = pre.parse_known_args(argv)
    except argparse.ArgumentError as exc:
        parser.error(str(exc))
    if known.config is None:
        return argv
    with open(known.config) as fh:
        config = json.load(fh)
    command = next((tok for tok in rest if not tok.startswith("-")), None)
    section = config.get(command, {}) if isinstance(config, dict) else None
    if not isinstance(section, dict):
        raise ValueError(f"{known.config}: expected a JSON object of flags per subcommand")
    flags = []
    for key, value in section.items():
        flag = "--" + key.replace("_", "-")
        if isinstance(value, list):
            flags += [flag, *map(str, value)]
        elif value is not False and value is not None:
            flags.append(flag if value is True else f"{flag}={value}")
    at = rest.index(command) + 1 if command else 0
    return [f"--config={known.config}", *rest[:at], *flags, *rest[at:]]


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  Bad input (every package error is a
    ValueError, as is malformed JSON; a missing or unreadable input path
    is an OSError) prints `error: ...` and returns 2."""
    parser = build_parser()
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
