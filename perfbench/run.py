"""edgecache benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload desk5 --seed 0 --seconds 15 --trace 0

Run from the repository root; the package is imported from `src/`.
`--trace 0` measures untraced passes until another would overrun
`--seconds` (at least one) and prints the end-to-end metrics of
BENCHMARK.json, with times scaled to a quiet host (clock.py).
`--trace 1` makes one untraced pass, one traced pass and the layer
probes, and prints the per-layer metrics.  Every metric is printed by
name with its unit, then the behaviour digest and the output checks;
the last line is the JSON result.  The exit code is 1 when an output
check fails and 2 when the package is not there.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

from tracing import LAYERS, Patches, Tracer, self_seconds

IMPORTS = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from edgecache import baselines, cnn, cost, encoder, harness, instance, pel, solver, topology"
)
ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("desk5", "scale15", "label")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def p80(values):
    """80th percentile by rank: with 50 samples, ten lie beyond it."""
    ordered = sorted(values)
    return ordered[math.ceil(0.8 * len(ordered)) - 1]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def machine_block(nproc: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "train_workers": nproc,
    }


def timings_ms(clock, methods) -> dict[str, list[float]]:
    """Every timing of each instance over the passes, scaled to a quiet host."""
    out = defaultdict(list)
    for m in methods:
        for key, spans in m["spans"].items():
            out[key] += [clock.scaled(a, b) * 1e3 / calls for a, b, calls in spans]
    return out


def latencies_ms(clock, methods, rounds: int) -> list[float]:
    """Per instance, the median of its first `rounds` timings.  Not the
    fastest: the scaling averages over bursts of contention, so the
    latency must too, or a bursty stretch reads as faster than a calm one."""
    return [statistics.median(t[:rounds]) for t in timings_ms(clock, methods).values()]


def end_to_end(wl, passes, setup_s: float, clock) -> dict[str, float]:
    main = [p.methods[wl.main] for p in passes]
    base = [p.methods[wl.base] for p in passes]
    main_ms = latencies_ms(clock, main, wl.rounds)
    base_ms = latencies_ms(clock, base, wl.rounds)
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(clock.scaled(p.t0, p.t1) for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "main_ms_p50": statistics.median(main_ms),
        "main_ms_p80": p80(main_ms),
        "base_ms_p50": statistics.median(base_ms),
        "base_ms_p80": p80(base_ms),
        "main_tcn": mean(main[0]["tc"]),
        "base_tcn": mean(base[0]["tc"]),
        "main_feasible": mean(main[0]["feasible"]),
    }


def import_spans(clock) -> list[tuple[float, float]]:
    """Time a fresh interpreter importing what the workloads import, SETUP_REPEATS times."""
    spans = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORTS, str(ROOT / "src")], check=True)
        spans.append((t0, time.perf_counter()))
        clock.burst()
    return spans


def setup_s(clock, imports, setups) -> float:
    """Median import plus median set-up, both scaled to a quiet host."""
    return sum(statistics.median(clock.scaled(a, b) for a, b in spans) for spans in (imports, setups))


def per_layer(ref, traced, spans, counters, probes, clock) -> dict[str, float]:
    out = dict(probes)
    solves = traced.solves
    for k in (5, 8, 10, 15):
        out[f"solver.nodes.k{k}"] = sum(n for f, n, _ in solves if f == k)
        out[f"solver.proved.k{k}"] = sum(1 for f, _, p in solves if f == k and p == "exhaustive")
    out["solver.budget_hits"] = sum(1 for _, _, p in solves if p != "exhaustive")
    out["solver.proved_ratio"] = (
        sum(1 for _, _, p in solves if p == "exhaustive") / len(solves) if solves else 0.0
    )
    selfs = self_seconds(spans)
    calls = Counter((s.layer, s.name) for s in spans)
    out["cost.penalized_calls"] = calls[("cost", "penalized_cost")]
    out["cost.penalized_self_s"] = selfs.get(("cost", "penalized_cost"), 0.0)
    out["cost.routing_self_s"] = selfs.get(("cost", "derive_routing"), 0.0)
    out["pel.calls"] = counters["pel.calls"]
    out["pel.queue_len_mean"] = counters["pel.queue_len"] / max(counters["pel.queues"], 1)
    out["pel.accepted"] = counters["pel.accepted"]
    out["pel.accept_ratio"] = counters["pel.accepted"] / max(counters["pel.steps"], 1)
    out["rgc.accepted_epochs"] = counters["rgc.accepted"]
    out["rgc.accept_ratio"] = counters["rgc.accepted"] / max(counters["rgc.epochs"], 1)
    gca = traced.methods["gca"]
    out["gca.tcn"] = mean(gca["tc"])
    out["gca.feasible"] = mean(gca["feasible"])
    out["cnn.predict_calls"] = calls[("cnn", "predict_all")]
    out["cnn.final_loss_mean"] = mean(traced.losses)
    out["cnn.precision"] = traced.matches / traced.decisions if traced.decisions else 0.0
    for layer in LAYERS:
        layer_self = sum(v for (lay, _), v in selfs.items() if lay == layer)
        out[f"{layer}.self_share"] = layer_self / traced.wall_s
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = clock.scaled(traced.t0, traced.t1) - clock.scaled(ref.t0, ref.t1)
    return out


def trace_hooks(work_dir: Path, counters: Counter) -> dict:
    """Counts from public options only: enhance(trace_path=...),
    rgc(trace=[...]) and the queues build_queues returns."""
    from edgecache import baselines, cost

    plain_gca, plain_penalized = baselines.gca, cost.penalized_cost

    def enhance(call, args, kwargs):
        path = work_dir / "pel_trace.csv"
        asg = call(*args, **{**kwargs, "trace_path": path})
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        counters["pel.calls"] += 1
        counters["pel.steps"] += len(rows)
        counters["pel.accepted"] += sum(r[5] == "True" for r in rows)
        return asg

    def build_queues(call, args, kwargs):
        queues = call(*args, **kwargs)
        counters["pel.queues"] += 1
        counters["pel.queue_len"] += len(queues.psi)
        return queues

    def rgc(call, args, kwargs):
        trace: list = []
        asg = call(*args, **{**kwargs, "trace": trace})
        inst = args[0]
        cfg = args[1] if len(args) > 1 else kwargs.get("cfg", baselines.RgcConfig())
        prev = plain_penalized(inst, plain_gca(inst), gamma=cfg.gamma)
        for tc in trace:
            counters["rgc.accepted"] += tc < prev
            prev = tc
        counters["rgc.epochs"] += len(trace)
        return asg

    return {"enhance": enhance, "build_queues": build_queues, "rgc": rgc}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "edgecache" / "__init__.py").is_file():
        print(f"edgecache sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy loads
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))

    import edgecache
    from edgecache import baselines, cnn, cost, encoder, harness, instance, pel, solver, topology

    from clock import Clock
    from probes import run_probes
    from workloads import WORKLOADS

    clock = Clock()
    clock.burst()
    imports = import_spans(clock)
    package = dict(
        topology=topology, instance=instance, cost=cost, solver=solver, encoder=encoder,
        cnn=cnn, pel=pel, baselines=baselines, harness=harness,
    )
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](work_dir, nproc, clock)
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            cost.network_tables.cache_clear()
            t0 = time.perf_counter()
            state = wl.setup()
            setup_spans.append((t0, time.perf_counter()))
            clock.burst()

        def order(n: int) -> list[int]:
            idx = list(range(n))
            random.Random(args.seed).shuffle(idx)
            return idx

        capture: list = []

        def capture_solve(call, a, k):
            sol = call(*a, **k)
            capture.append((a[0] if a else k["i"], sol))
            return sol

        capturing = Patches()
        capturing.replace(solver, "solve_exact", lambda f: lambda *a, **k: capture_solve(f, a, k))

        passes = []
        if args.trace:
            passes.append(wl.run(state, order, capture))
            capturing.restore()
            counters: Counter = Counter()
            tracer = Tracer(package, {**trace_hooks(work_dir, counters), "solve_exact": capture_solve})
            try:
                passes.append(wl.run(state, order, capture))
            finally:
                tracer.restore()
            clock.burst()
            probes = run_probes(args.seed, work_dir)
            metrics = per_layer(passes[0], passes[1], tracer.spans, counters, probes, clock)
            kind = "per_layer"
        else:
            measure_start = time.perf_counter()
            pass_times = []
            while True:
                t0 = time.perf_counter()
                passes.append(wl.run(state, order, capture))
                pass_times.append(time.perf_counter() - t0)
                elapsed = time.perf_counter() - measure_start
                if passes[-1].failed or elapsed + statistics.median(pass_times) > args.seconds:
                    break
            capturing.restore()
            clock.burst()
            metrics = end_to_end(wl, passes, setup_s(clock, imports, setup_spans), clock)
            kind = "end_to_end"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    digests = [hashlib.sha256("\n".join(sorted(p.lines)).encode()).hexdigest() for p in passes]
    violations = [v for p in passes for v in p.violations]
    failed = sum(p.failed for p in passes)
    if len(set(digests)) != 1:
        violations.append("behaviour digest differs between passes of one run")
        failed += 1
    attempted = sum(p.attempted for p in passes)

    declared = {m["name"]: m["unit"] for m in spec[kind]}
    missing = set(declared) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not produced: {sorted(missing)}")
    result = {name: {"value": float(metrics[name]), "unit": unit} for name, unit in declared.items()}

    baseline_path = Path(__file__).resolve().parent / "baseline.json"
    baseline_digest = None
    if baseline_path.is_file():
        baseline_digest = json.loads(baseline_path.read_text())["workloads"][wl.name].get("digest")
    machine = machine_block(nproc)

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  passes {len(passes)}  edgecache {edgecache.__version__}")
    print("machine " + json.dumps(machine))
    print(
        f"host slowdown {clock.slowdown():.3f} (median over {len(clock.starts)} calibration slices);"
        " times below are scaled to a quiet host"
    )
    for name, m in result.items():
        print(f"  {name:<36} {m['value']:>16.8g} {m['unit']}")
    same = "no baseline" if baseline_digest is None else (
        "matches seed baseline" if digests[0] == baseline_digest else "differs from seed baseline"
    )
    print(f"behaviour digest {digests[0]} ({same})")
    print(f"checks: {attempted} operations attempted, {failed} failed, {len(violations)} violations")
    for v in violations:
        print(f"  violation: {v}")

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace, "machine": machine,
        "passes": len(passes), "pass_wall_raw_s": [p.wall_s for p in passes],
        "setup_repeats_raw_s": [b - a for a, b in setup_spans],
        "import_repeats_raw_s": [b - a for a, b in imports],
        "slowdown_median": clock.slowdown(), "calibration_slices": len(clock.starts),
        "main_ms_by_instance": timings_ms(clock, [p.methods[wl.main] for p in passes]),
        "base_ms_by_instance": timings_ms(clock, [p.methods[wl.base] for p in passes]),
        "digest": digests[0],
        "violations": violations, "metrics": result,
    }
    out_file = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n")

    correct = failed == 0 and not violations
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
