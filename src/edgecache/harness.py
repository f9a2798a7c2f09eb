"""End-to-end pipeline: corpora, training, recursive allocation, metrics.

A corpus is a directory of solved instances: the exact solver provides
per-flow labels, the encoder provides the images, and a manifest ties
everything together with seeds and normalization constants so that
training and evaluation stay reproducible and mutually consistent.
"""

from __future__ import annotations

import csv
import io
import math
import operator
import time
from concurrent.futures import ThreadPoolExecutor
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import cnn as cnnmod
from . import pel
from .baselines import DEFAULT_RGC_EPOCHS, RgcConfig, gca, rgc
from .cost import DEFAULT_GAMMA, class_table, cost_breakdown, labels_of
from .encoder import RESIDUAL_FLOOR, NormConfig, encode, feature_matrix
from .formats import int_tuple, integer, read_fields, read_json, write_json
from .instance import (
    Instance,
    ParameterRanges,
    check_generation,
    generate_instance,
    load_instance,
    save_instance,
)
from .pel import DEFAULT_DELTA
from .solver import DEFAULT_NODE_BUDGET, check_budget, solve_exact
from .topology import Topology, TopologyConfig, build_topology, load_topology, save_topology

CORPUS_FORMAT = "edgecache-corpus"
CORPUS_FORMAT_VERSION = 1

# Dataset building fixes the cost weights by default: they are invisible
# to the feature image, so leaving them random would make the label a
# non-function of the input.  Mobility is drawn with a crowding profile
# so instances show the shared-hot-router patterns the classifiers are
# meant to pick up.
DATASET_RANGES = ParameterRanges(alpha=(0.5, 0.5), beta=(0.5, 0.5), ar_crowding=0.4)


def evaluation_topology():
    """The documented benchmark network.

    A depth-3 binary tree: 8 access routers at the leaves, 14 links, and
    six edge clouds placed asymmetrically (two mid-tree aggregation
    routers per side, one leaf per side).  The placement keeps the EC
    adjacency sparse, so heuristics cannot drift content across the tree
    in one hop, which is what distinguishes the methods at scale.
    """
    base = build_topology(TopologyConfig(branching=2, depth=3))
    return replace(base, edge_clouds=(3, 4, 5, 6, 8, 13))


@dataclass(frozen=True)
class CorpusSample:
    file: str
    seed: list
    split: str
    labels: tuple[int, ...]
    optimal_tc: float
    proof: str


@dataclass(frozen=True)
class Corpus:
    """A labelled corpus under root, holding its topology and, by file, every instance."""

    root: Path
    flows: int
    norm: NormConfig
    samples: tuple[CorpusSample, ...]
    excluded: int
    topology: Topology = field(compare=False, repr=False)
    instances: Mapping[str, Instance] = field(compare=False, repr=False)

    def load(self, sample: CorpusSample) -> Instance:
        return self.instances[sample.file]

    def of_split(self, split: str) -> list[CorpusSample]:
        return [s for s in self.samples if s.split == split]


def split_counts(n: int, train_fraction: float) -> tuple[int, int]:
    """How many samples go to train vs test under a fractional split."""
    train = int(round(n * train_fraction))
    return train, n - train


def build_dataset(
    t: Topology,
    n: int,
    flows: int,
    seed: int,
    out_dir,
    ranges: ParameterRanges = DATASET_RANGES,
    train_fraction: float = 0.9,
    budget: int = DEFAULT_NODE_BUDGET,
    require_proof: bool = True,
    stats: dict | None = None,
) -> Corpus:
    """Generate, solve and store n labelled instances.

    Instances whose solve exhausts the budget are excluded when
    require_proof is set (the count is reported in the manifest);
    otherwise the bounded incumbent is kept and flagged.  Pass a dict as
    stats to have the solver's counters (`solver.SOLVER_COUNTERS`) of
    every solve, excluded ones included, added to it.
    """
    integer(n, "n", ValueError, 1)
    integer(seed, "seed", ValueError, 0)
    if not 0 <= train_fraction <= 1:
        raise ValueError(f"train_fraction must be in [0, 1], got {train_fraction}")
    check_budget(budget)  # solve_exact checks it too, but only after the corpus directory exists
    check_generation(flows, ranges)
    root = Path(out_dir)
    (root / "instances").mkdir(parents=True, exist_ok=True)
    save_topology(t, root / "topology.json")

    kept: list[CorpusSample] = []
    written: dict[str, Instance] = {}
    excluded = 0
    for idx in range(n):
        inst = generate_instance(t, flows, ranges=ranges, seed=[seed, idx])
        sol = solve_exact(inst, budget=budget, stats=stats)
        if sol.proof != "exhaustive" and require_proof:
            excluded += 1
            continue
        rel = f"instances/inst_{idx:05d}.json"
        save_instance(inst, root / rel)
        written[rel] = inst
        kept.append(
            CorpusSample(
                file=rel,
                seed=[seed, idx],
                split="",
                labels=labels_of(sol.assignment.x),
                optimal_tc=sol.cost.total,
                proof=sol.proof,
            )
        )

    n_train, _ = split_counts(len(kept), train_fraction)
    samples = tuple(
        replace(s, split="train" if j < n_train else "test") for j, s in enumerate(kept)
    )

    norm = NormConfig.from_ranges(ranges)
    manifest = {
        "format": CORPUS_FORMAT,
        "version": CORPUS_FORMAT_VERSION,
        "flows": flows,
        "seed": seed,
        "train_fraction": train_fraction,
        "norm": norm.record(),
        "excluded": excluded,
        "samples": [dict(vars(s)) for s in samples],
    }
    write_json(root / "manifest.json", manifest)
    return Corpus(
        root=root, flows=flows, norm=norm, samples=samples, excluded=excluded, topology=t,
        instances=written,
    )


def load_corpus(path) -> Corpus:
    """Read a corpus: its manifest, its topology.json and each sample's
    instance file, each once.  ValueError when excluded is negative, or
    when a sample's file is not a string or repeats an earlier sample's,
    a label is outside 0..E for the E edge clouds of topology.json,
    optimal_tc is not a finite number, split is not train or test, proof
    is not exhaustive or bounded, or its instance's topology differs
    from topology.json or its flow count from the manifest's flows."""
    root = Path(path)
    where = root / "manifest.json"
    manifest = read_json(where, CORPUS_FORMAT, CORPUS_FORMAT_VERSION, ValueError)
    flows = read_fields(manifest, {"flows": operator.index}, ValueError, where)["flows"]
    fields = {
        "norm": lambda record: NormConfig(**record),
        "samples": lambda rows: tuple(
            CorpusSample(**{**s, "labels": int_tuple(s["labels"], flows)}) for s in rows
        ),
        "excluded": lambda n: integer(n, "excluded", ValueError, 0),
    }
    read = read_fields(manifest, fields, ValueError, where)
    topology = load_topology(root / "topology.json")
    E = topology.num_edge_clouds
    instances: dict[str, Instance] = {}
    for j, s in enumerate(read["samples"]):
        if type(s.file) is not str:
            raise ValueError(f"{where}: sample #{j} has file {s.file!r}, not a string")
        if s.file in instances:
            raise ValueError(f"{where}: sample {s.file} repeats an earlier sample's file")
        for label in s.labels:
            if not 0 <= label <= E:
                raise ValueError(f"{where}: sample {s.file} has label {label} outside 0..{E}")
        if not (type(s.optimal_tc) in (int, float) and math.isfinite(s.optimal_tc)):
            raise ValueError(
                f"{where}: sample {s.file} has optimal_tc {s.optimal_tc!r}, not a finite number"
            )
        if s.split not in ("train", "test"):
            raise ValueError(f"{where}: sample {s.file} has split {s.split!r}, not train or test")
        if s.proof not in ("exhaustive", "bounded"):
            raise ValueError(
                f"{where}: sample {s.file} has proof {s.proof!r}, not exhaustive or bounded"
            )
        inst = instances[s.file] = load_instance(root / s.file)
        if inst.topology != topology:
            raise ValueError(f"{where}: sample {s.file} is not on the topology of topology.json")
        if inst.num_flows != flows:
            raise ValueError(f"{where}: sample {s.file} has {inst.num_flows} flows, not {flows}")
    return Corpus(root=root, flows=flows, topology=topology, instances=instances, **read)


def corpus_training_samples(corpus: Corpus, split: str = "train"):
    """Materialize (encode) the stored instances for training."""
    out = []
    for s in corpus.of_split(split):
        inst = corpus.load(s)
        out.append(cnnmod.TrainingSample(image=encode(inst, corpus.norm), labels=s.labels))
    return out


def train_models(
    corpus: Corpus,
    epochs: int = cnnmod.TrainConfig.epochs,
    batch_size: int = cnnmod.TrainConfig.batch_size,
    learning_rate: float = cnnmod.TrainConfig.learning_rate,
    seed: int = cnnmod.TrainConfig.seed,
    workers: int = 1,
    out_dir=None,
):
    """One model per request slot, trained on the corpus train split.

    Returns (models, loss traces), the models as a cnn.SlotModels.
    Every slot's inputs are checked first; then workers threads (at
    least 1) each run cnn.train for whole slots.  A slot's error cancels
    the slots not yet started and is raised here once the running slots
    finish.  Each slot has its own seed, shuffle stream and Adam state,
    so results do not depend on workers.
    """
    # workers and the settings every slot shares are checked before the
    # corpus loads.
    integer(workers, "workers", ValueError, 1)
    cnnmod.TrainConfig(epochs=epochs, batch_size=batch_size, learning_rate=learning_rate, seed=seed)
    samples = corpus_training_samples(corpus, "train")
    if not samples:
        raise ValueError("corpus has no training samples")
    num_classes = corpus.topology.num_edge_clouds + 1

    cfgs = [
        cnnmod.TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            learning_rate=learning_rate,
            seed=seed + k,
            request_index=k,
            num_classes=num_classes,
        )
        for k in range(corpus.flows)
    ]
    for cfg in cfgs:
        cnnmod._slot_labels(samples, cfg)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        results = list(pool.map(lambda cfg: cnnmod.train(samples, cfg), cfgs))
    models = cnnmod.SlotModels(r[0] for r in results)
    traces = [r[1] for r in results]

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        for k, model in enumerate(models):
            cnnmod.save_model(model, out / f"model_{k}")
        (out / "loss_trace.csv").write_text(_csv_text(
            ["epoch"] + [f"loss_request_{k}" for k in range(len(models))],
            ([epoch] + [f"{trace[epoch]:.12g}" for trace in traces] for epoch in range(epochs)),
        ))
    return models, traces


def load_models(path):
    """The per-slot models saved under path, as a cnn.SlotModels;
    model_0's input height is the slot count, and model_k must have been
    trained for request slot k."""
    first = cnnmod.load_model(Path(path) / "model_0")
    rest = [cnnmod.load_model(Path(path) / f"model_{k}") for k in range(1, first.input_shape[0])]
    models = [first, *rest]
    for k, m in enumerate(models):
        if m.request_index != k:
            where = Path(path) / f"model_{k}.manifest.json"
            raise cnnmod.CnnError(f"{where}: request_index {m.request_index} in slot {k}")
    return cnnmod.SlotModels(models)


def predict_with_enhancement(
    models,
    i: Instance,
    norm: NormConfig,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
):
    """CNN+PEL for at most len(models) flows, one model per flow row:
    recursive_allocate in one block.

    A shorter instance is padded to the trained height with phantom
    rows, whose predictions are dropped before enhancement.
    """
    if i.num_flows > len(models):
        raise cnnmod.CnnError(f"{len(models)} models for {i.num_flows} flows")
    return recursive_allocate(models, i, len(models), norm, delta=delta, gamma=gamma)


def recursive_allocate(
    models,
    i: Instance,
    block: int,
    norm: NormConfig,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
):
    """Allocate an instance block by block, at most len(models) flows each.

    A block's feature rows, padded with phantom rows to len(models), go
    through the models, and PEL repairs the real rows' predictions.  EC
    and link capacities then shrink by what the block consumed, and the
    next block is encoded against that residual network with clip=True:
    its ratios may drift beyond the trained range and saturate at the
    image maximum.  The first block, at the instance's own capacities,
    is encoded under norm as given, so off-range data raises
    EncodingError.  block must lie in 1..len(models).

    One class table serves every block: a block takes its rows, with
    Q and r taken from the residual capacities, so each block is
    priced and encoded exactly as its own sub-instance would be.
    """
    integer(block, "block", ValueError, 1)
    if block > len(models):
        raise ValueError(f"block {block} exceeds the {len(models)} models, one per flow of a block")
    table = class_table(i)
    classes = np.full(i.num_flows, i.topology.num_edge_clouds)
    ec_space, link_capacity = i.ec_space, i.link_capacity

    for start in range(0, i.num_flows, block):
        rows = slice(start, start + block)
        size, bandwidth = i.content_size[rows, None], i.bandwidth[rows, None]
        q, r = size / ec_space, bandwidth / link_capacity
        sub = table.block(rows, q, r)
        features = feature_matrix(i.mobility[rows], q, r, norm)
        image = np.zeros((len(models), features.shape[1]))
        image[: len(features)] = features
        O = cnnmod.predict_all(models, image)
        picked = pel.enhance(sub, O[: len(features)], delta=delta, gamma=gamma)
        classes[rows] = picked
        if start + block < i.num_flows:
            # The sums and floor of update_residual(clamp=True).
            used_space = np.add.reduce(size * table.onehot[picked], axis=0)
            ec_space = np.maximum(ec_space - used_space, RESIDUAL_FLOOR)
            used_bw = np.add.reduce(bandwidth * sub.links[sub.rows, picked], axis=0)
            link_capacity = np.maximum(link_capacity - used_bw, RESIDUAL_FLOOR)
            norm = replace(norm, clip=True)
    return table.assignment(classes)


@dataclass(frozen=True)
class MethodRow:
    method: str
    mean_total_cost: float
    precision: float
    feasible_ratio: float
    max_diff: float
    wall_time: float


def _csv_text(header: list[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


@dataclass(frozen=True)
class EvaluationReport:
    rows: tuple[MethodRow, ...]
    details: tuple[dict, ...]
    flows: int
    sample_count: int

    def summary_csv(self) -> str:
        return _csv_text(
            ["method", "mean_total_cost", "precision", "feasible_ratio", "max_diff", "wall_time"],
            (
                [r.method, f"{r.mean_total_cost:.12g}", f"{r.precision:.12g}",
                 f"{r.feasible_ratio:.12g}", f"{r.max_diff:.12g}", f"{r.wall_time:.6f}"]
                for r in self.rows
            ),
        )

    def detail_csv(self) -> str:
        return _csv_text(
            ["instance", "method", "penalized_cost", "feasible", "label_matches"],
            (
                [d["instance"], d["method"], f"{d['penalized_cost']:.12g}", int(d["feasible"]),
                 d["label_matches"]]
                for d in self.details
            ),
        )

    def format_table(self) -> str:
        header = ["", *[r.method for r in self.rows]]
        metric_rows = [
            ("Mean Total Cost", [f"{r.mean_total_cost:.2f}" for r in self.rows]),
            ("Precision", [f"{100 * r.precision:.1f}%" for r in self.rows]),
            ("Feasible Ratio", [f"{100 * r.feasible_ratio:.1f}%" for r in self.rows]),
            ("Maximum Diff", [f"{r.max_diff:.2f}" for r in self.rows]),
            ("Wall Time", [f"{r.wall_time:.2f}s" for r in self.rows]),
        ]
        table = [header] + [[name, *vals] for name, vals in metric_rows]
        widths = [max(len(row[c]) for row in table) for c in range(len(header))]
        lines = []
        for row in table:
            lines.append("  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row)).rstrip())
        return "\n".join(lines)


def evaluate(
    corpus: Corpus,
    models=None,
    methods: tuple[str, ...] = ("optimal", "cnn", "gca", "rgc"),
    split: str = "test",
    rgc_epochs: int = DEFAULT_RGC_EPOCHS,
    rgc_seed: int = 0,
    delta: float = DEFAULT_DELTA,
    gamma: float = DEFAULT_GAMMA,
) -> EvaluationReport:
    """Score the chosen methods on a corpus split.

    cnn places len(models) flows at a time by recursive_allocate, so
    the models may be narrower than the corpus.  precision counts
    per-flow class decisions matching the stored optimal labels (the
    uncached class counts like any other); feasible_ratio is the
    fraction of assignments satisfying every constraint; max_diff is
    the worst penalized-cost gap to the stored optimum.  The optimal
    method scores 1.0 / 1.0 / 0 by definition.  Each placement is
    scored once, as its details record, and a method's row is computed
    from its records.  Every setting is checked before the first
    placement.
    """
    placers = {
        "cnn": lambda inst, s_idx: recursive_allocate(
            models, inst, len(models), corpus.norm, delta=delta, gamma=gamma
        ),
        "gca": lambda inst, s_idx: gca(inst),
        "rgc": lambda inst, s_idx: rgc(
            inst, RgcConfig(epochs=rgc_epochs, seed=rgc_seed + s_idx, gamma=gamma)
        ),
    }
    for method in methods:
        if method != "optimal" and method not in placers:
            raise ValueError(f"unknown method {method!r}")
    if not methods or len(set(methods)) < len(methods):
        raise ValueError(f"methods {tuple(methods)} must name each method once, and at least one")
    RgcConfig(epochs=rgc_epochs, seed=rgc_seed, gamma=gamma)  # refuses a bad gamma too
    pel.check_delta(delta)
    samples = corpus.of_split(split)
    if not samples:
        raise ValueError(f"corpus has no '{split}' samples")
    if "cnn" in methods and models is None:
        raise ValueError("the cnn method needs trained models")
    for k, m in enumerate(models or ()):
        if m.norm_digest != corpus.norm.digest():
            raise ValueError(
                f"model for request slot {k} was trained under normalization digest "
                f"{m.norm_digest!r}, the corpus uses {corpus.norm.digest()}"
            )

    rows = []
    details: list[dict] = []
    for method in methods:
        start_time = time.perf_counter()
        scored = []
        for s_idx, s in enumerate(samples):
            if method == "optimal":
                tc_n, ok, match_count = s.optimal_tc, True, corpus.flows
            else:
                inst = corpus.load(s)
                asg = placers[method](inst, s_idx)
                breakdown = cost_breakdown(inst, asg, gamma=gamma)
                tc_n, ok = breakdown.penalized_total, breakdown.feasible
                match_count = sum(1 for a, b in zip(labels_of(asg.x), s.labels) if a == b)
            scored.append({"instance": s.file, "method": method, "penalized_cost": tc_n,
                           "feasible": ok, "label_matches": match_count})
        details += scored
        tcs = [d["penalized_cost"] for d in scored]
        rows.append(
            MethodRow(
                method=method,
                mean_total_cost=float(np.mean(tcs)),
                precision=sum(d["label_matches"] for d in scored) / (len(samples) * corpus.flows),
                feasible_ratio=sum(d["feasible"] for d in scored) / len(samples),
                max_diff=float(max(tc - s.optimal_tc for tc, s in zip(tcs, samples))),
                wall_time=time.perf_counter() - start_time,
            )
        )
    return EvaluationReport(
        rows=tuple(rows),
        details=tuple(details),
        flows=corpus.flows,
        sample_count=len(samples),
    )


def generate_instances(
    t: Topology,
    count: int,
    flows: int,
    seed: int,
    out_dir,
    ranges: ParameterRanges = ParameterRanges(),
) -> list[str]:
    """Write a plain instance corpus (no solving) plus a manifest."""
    integer(count, "count", ValueError, 1)
    integer(seed, "seed", ValueError, 0)
    check_generation(flows, ranges)
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)
    save_topology(t, root / "topology.json")
    files = []
    for idx in range(count):
        inst = generate_instance(t, flows, ranges=ranges, seed=[seed, idx])
        rel = f"inst_{idx:05d}.json"
        save_instance(inst, root / rel)
        files.append(rel)
    manifest = {
        "format": "edgecache-instances",
        "version": 1,
        "flows": flows,
        "seed": seed,
        "files": files,
    }
    write_json(root / "manifest.json", manifest)
    return files
