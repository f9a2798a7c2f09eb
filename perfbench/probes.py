"""Per-layer probes: each layer's public functions timed on fixed inputs.

The probes run after the traced pass on every workload, so each layer
has a rate on every workload even where the workload's own pass does
not call it.  Probe instances are fixed; the run seed draws only the
class vectors the cost probe prices.  Each figure is the median over
its repeats, except the solver's and RGC's, which are total time over
total nodes or epochs.
"""

from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import numpy as np

from edgecache import baselines, cnn, cost, encoder, harness, instance, pel, solver, topology

# (flows, probe instances, node budget): K=5 proves in a few hundred
# nodes, so it gets more instances; the others stop at the budget.
SOLVER_PROBES = ((5, 20, solver.DEFAULT_NODE_BUDGET), (8, 3, 20_000), (10, 2, 20_000), (15, 1, 20_000))


def _timed(fn, repeats: int, scale: float) -> float:
    """Median wall time of fn() over repeats, times scale."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times) * scale


def _instances(topo, flows: int, base: int, count: int):
    return [
        instance.generate_instance(topo, flows, ranges=harness.DATASET_RANGES, seed=[base, j])
        for j in range(count)
    ]


def _untrained_models(shape, num_classes: int):
    return [cnn.CnnModel(shape, num_classes, request_index=k, seed=k) for k in range(shape[0])]


def run_probes(seed: int, work_dir: Path) -> dict[str, float]:
    topo = harness.evaluation_topology()
    E = topo.num_edge_clouds
    norm = encoder.NormConfig.from_ranges(harness.DATASET_RANGES)
    out: dict[str, float] = {}

    def tables():
        h = topology.hop_matrix(topo)
        topology.incidence_tensor(topo, h)

    out["topology.tables_ms"] = _timed(tables, 20, 1e3)
    out["instance.generate_us"] = _timed(
        lambda: instance.generate_instance(topo, 5, ranges=harness.DATASET_RANGES, seed=[9000, 0]),
        200, 1e6,
    )

    k5 = _instances(topo, 5, 9100, 60)
    k15 = _instances(topo, 15, 9115, 5)
    path = work_dir / "probe_instance.json"
    instance.save_instance(k5[0], path)
    out["harness.instance_load_ms"] = _timed(lambda: instance.load_instance(path), 50, 1e3)

    rng = np.random.default_rng([seed, 9200])
    for flows, inst in ((5, k5[0]), (15, k15[0])):
        vectors = rng.integers(0, E + 1, size=(200, flows))
        it = iter(vectors)
        out[f"cost.candidate_us.k{flows}"] = _timed(
            lambda: cost.penalized_cost(inst, cost.assignment_from_classes(inst, next(it))),
            len(vectors), 1e6,
        )
    asgs = [cost.assignment_from_classes(k15[0], v) for v in vectors[:50]]
    it = iter(asgs)
    out["cost.feasibility_us"] = _timed(lambda: cost.check_feasibility(k15[0], next(it)), len(asgs), 1e6)

    img15 = encoder.encode(k15[0], norm)
    out["encoder.encode_us"] = _timed(lambda: encoder.encode(k15[0], norm), 200, 1e6)
    out["encoder.residual_us"] = _timed(
        lambda: encoder.update_residual(k15[0], asgs[0], clamp=True), 200, 1e6
    )
    out["encoder.split_us"] = _timed(lambda: encoder.split_subimages(img15, 5), 200, 1e6)

    for flows, count, budget in SOLVER_PROBES:
        insts = _instances(topo, flows, 9300 + flows, count)
        started = time.perf_counter()
        nodes = sum(solver.solve_exact(i, budget=budget).nodes_explored for i in insts)
        out[f"solver.us_per_node.k{flows}"] = (time.perf_counter() - started) * 1e6 / nodes

    img5 = encoder.encode(k5[0], norm)
    models = _untrained_models(img5.matrix.shape, E + 1)
    out["cnn.forward_ms_per_image"] = _timed(lambda: cnn.predict_all(models, img5), 20, 1e3 / len(models))
    label_rng = np.random.default_rng([9400])
    samples = [
        cnn.TrainingSample(image=encoder.encode(i, norm), labels=tuple(label_rng.integers(0, E + 1, 5)))
        for i in _instances(topo, 5, 9401, 200)
    ]
    cfg = cnn.TrainConfig(epochs=1, batch_size=32, seed=0, num_classes=E + 1)
    out["cnn.train_s_per_epoch"] = _timed(lambda: cnn.train(samples, cfg), 3, 1.0)

    dirichlet = np.random.default_rng([9500])
    probs = [dirichlet.dirichlet(np.full(E + 1, 0.5), size=5) for _ in range(20)]
    it = iter(zip(k5, probs))
    out["pel.enhance_ms_p50"] = _timed(lambda: pel.enhance(*next(it)), len(probs), 1e3)

    epochs = 200
    started = time.perf_counter()
    for j, inst in enumerate(k5[:3]):
        baselines.rgc(inst, baselines.RgcConfig(epochs=epochs, seed=j))
    out["rgc.us_per_epoch"] = (time.perf_counter() - started) * 1e6 / (3 * epochs)
    it = iter(k5[:50])
    out["gca.us_p50"] = _timed(lambda: baselines.gca(next(it)), 50, 1e6)

    it = iter(k15)
    out["harness.recursive_allocate_ms_p50"] = _timed(
        lambda: harness.recursive_allocate(models, next(it), 5, norm), len(k15), 1e3
    )
    corpus_dir = work_dir / "probe_corpus"
    try:
        out["harness.build_dataset_s"] = _timed(
            lambda: harness.build_dataset(topo, n=20, flows=5, seed=9600, out_dir=corpus_dir), 3, 1.0
        )
    finally:
        shutil.rmtree(corpus_dir, ignore_errors=True)
    return out
