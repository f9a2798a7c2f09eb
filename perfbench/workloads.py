"""The three benchmark workloads, each a closed loop with one client.

One process places or solves one instance at a time.  The instance sets
are fixed by the workload definition; the run's seed only shuffles the
order in which the client submits them, so every seed does the same
work and the quality figures and behaviour digest repeat exactly.

Package functions are always looked up as module attributes at call
time (`solver.solve_exact`, never a bound name), so the tracer's
wrappers see every call the workload makes.
"""

from __future__ import annotations

import math
import shutil
import time
import traceback
from collections import defaultdict
from pathlib import Path

from edgecache import baselines, cost, harness, instance, solver

TRAIN = dict(epochs=3, batch_size=32, learning_rate=1e-3, seed=0)
RGC_EPOCHS = 500
SCALE_RGC_EPOCHS = 200  # a K=15 epoch costs about twice a K=5 one
DESK_SAMPLES = 250  # 200 train / 50 test at split 0.8
DESK_FLOWS = 5
SCALE_FLOWS = 15
SCALE_COUNT = 50
SCALE_SEED = 500
# (method, flows, generation seed base, count, node budget) of the label
# workload: search-bound proofs, then the budget-bound, leaf-heavy tail.
LABEL_SETS = (
    ("exact", 8, 8, 40, solver.DEFAULT_NODE_BUDGET),
    ("exact_tail", 10, 10, 8, 150_000),
    ("exact_tail", 15, SCALE_SEED, 2, 40_000),
)
OPT_SLACK = 1e-9
ROUNDS = 2  # timings per instance of the main and base methods (label: 3)
GCA_BATCH = 20  # label's base method: one gca takes about 0.2 ms


class PassResult:
    """What one pass of a workload did, plus its output checks.

    A pass times each instance of its main and base methods once per
    round over the instances; `spans` keeps every timing per instance key
    as (start, end, calls).  The first round scores, checks and digests
    the outputs; a repeat must give the same output line, or it is a
    violation.
    """

    def __init__(self, clock):
        self.clock = clock
        self.wall_s = 0.0  # raw; t0 and t1 bound the pass for clock.scaled
        self.t0 = self.t1 = 0.0
        self.methods = defaultdict(lambda: {"spans": defaultdict(list), "tc": [], "feasible": []})
        self.lines: list[str] = []
        self._seen: dict[tuple[str, str], str] = {}
        self.attempted = 0
        self.failed = 0
        self.violations: list[str] = []
        self.solves: list[tuple[int, int, str]] = []  # (flows, nodes, proof), first round
        self.losses: list[float] = []
        self.matches = 0
        self.decisions = 0

    def fail(self, what: str) -> None:
        traceback.print_exc()
        self.failed += 1
        self.violations.append(f"{what}: exception")

    def check(self, ok: bool, what: str) -> bool:
        if not ok:
            self.violations.append(what)
        return ok

    def start(self) -> None:
        self.clock.tick()
        self.t0 = time.perf_counter()

    def stop(self) -> None:
        self.t1 = time.perf_counter()
        self.wall_s = self.t1 - self.t0

    def _repeat(self, method: str, key: str, span, line: str) -> bool:
        """Record a timing; True when (method, key) was already done, after
        checking that the repeat gave the same output."""
        self.methods[method]["spans"][key].append(span)
        first = self._seen.setdefault((method, key), line)
        if first is line:
            return False
        if not self.check(first == line, f"{method} {key}: repeat gave another output"):
            self.failed += 1
        return True

    def place(self, method, key, inst, call, optimum=None, labels=None, batch=1):
        """Time one placement, score it and check it.  A placement too short
        to time alone is timed as `batch` calls back to back."""
        self.attempted += 1
        self.clock.tick()
        try:
            started = time.perf_counter()
            for _ in range(batch):
                asg = call()
            span = (started, time.perf_counter(), batch)
            tc = cost.penalized_cost(inst, asg)
            feasible = cost.check_feasibility(inst, asg).feasible
        except Exception:
            self.fail(f"{method} {key}")
            return
        classes = harness.labels_of(asg.x)
        line = f"{method} {key} {list(classes)} {tc:.12g} {int(feasible)}"
        if self._repeat(method, key, span, line):
            return
        rec = self.methods[method]
        rec["tc"].append(tc)
        rec["feasible"].append(feasible)
        self.lines.append(line)
        if labels is not None:
            self.matches += sum(a == b for a, b in zip(classes, labels))
            self.decisions += len(labels)
        ok = self.check(math.isfinite(tc), f"{method} {key}: TC_N not finite")
        if optimum is not None and feasible:
            ok &= self.check(
                tc >= optimum - OPT_SLACK,
                f"{method} {key}: feasible TC_N {tc:.12g} beats the exhaustive optimum {optimum:.12g}",
            )
        if not ok:
            self.failed += 1

    def solved(self, key, inst, sol, method="exact", span=None) -> None:
        """Record and check one exact solve; span times it under method."""
        classes = harness.labels_of(sol.assignment.x)
        line = f"exact {key} {list(classes)} {sol.cost.total:.12g} {sol.proof} {sol.nodes_explored}"
        if span is not None:
            if self._repeat(method, key, span, line):
                return
            rec = self.methods[method]
            rec["tc"].append(sol.cost.total)
            rec["feasible"].append(sol.cost.feasible)
        self.solves.append((inst.num_flows, sol.nodes_explored, sol.proof))
        self.lines.append(line)
        ok = self.check(
            cost.check_feasibility(inst, sol.assignment).feasible,
            f"exact {key}: solver output infeasible",
        )
        ok &= self.check(math.isfinite(sol.cost.total), f"exact {key}: TC not finite")
        if not ok:
            self.failed += 1

    def trained(self, losses) -> None:
        for k, trace in enumerate(losses):
            self.losses.append(trace[-1])
            self.lines.append(f"loss {k} {' '.join(f'{v:.12g}' for v in trace)}")
            if not all(math.isfinite(v) for v in trace):
                self.violations.append(f"training loss {k} not finite")
                self.failed += 1


def _network():
    topo = harness.evaluation_topology()
    cost.network_tables(topo)
    return topo


def _desk_corpus(topo, out_dir: Path):
    return harness.build_dataset(
        topo, n=DESK_SAMPLES, flows=DESK_FLOWS, seed=0, out_dir=out_dir, train_fraction=0.8
    )


def _corpus_lines(corpus) -> list[str]:
    return [f"label {s.file} {list(s.labels)} {s.optimal_tc:.12g} {s.proof}" for s in corpus.samples]


class Desk5:
    """Criterion 5/6 desk pipeline: label, train, then place the test split."""

    name = "desk5"
    main, base = "cnn", "rgc"
    rounds = ROUNDS

    def __init__(self, work_dir: Path, workers: int, clock):
        self.work_dir = work_dir
        self.workers = workers
        self.clock = clock

    def setup(self):
        return {"topology": _network()}

    def run(self, state, order, capture: list) -> PassResult:
        """capture receives (instance, solution) for each exact solve."""
        res = PassResult(self.clock)
        out_dir = self.work_dir / "desk5"
        shutil.rmtree(out_dir, ignore_errors=True)
        capture.clear()
        res.start()
        try:
            corpus = _desk_corpus(state["topology"], out_dir)
        except Exception:
            res.attempted += DESK_SAMPLES
            res.fail("corpus build")
            return res
        res.attempted += DESK_SAMPLES
        res.lines += _corpus_lines(corpus)
        res.attempted += corpus.flows
        self.clock.tick()
        try:
            models, losses = harness.train_models(corpus, workers=self.workers, **TRAIN)
        except Exception:
            res.fail("training")
            return res
        res.trained(losses)
        test = corpus.of_split("test")
        for rnd in range(self.rounds):
            for idx in order(len(test)):
                s = test[idx]
                inst = corpus.load(s)
                opt = s.optimal_tc if s.proof == "exhaustive" else None
                res.place(
                    "cnn", s.file, inst,
                    lambda: harness.predict_with_enhancement(models, inst, corpus.norm),
                    optimum=opt, labels=s.labels,
                )
                if rnd == 0:
                    res.place("gca", s.file, inst, lambda: baselines.gca(inst), optimum=opt)
                res.place(
                    "rgc", s.file, inst,
                    lambda: baselines.rgc(inst, baselines.RgcConfig(epochs=RGC_EPOCHS, seed=idx)),
                    optimum=opt,
                )
        res.stop()
        for j, (inst, sol) in enumerate(capture):
            res.solved(f"corpus {j}", inst, sol)
        return res


class Scale15:
    """15-flow placement by recursive allocation (block 5) and by RGC."""

    name = "scale15"
    main, base = "cnn", "rgc"
    rounds = ROUNDS

    def __init__(self, work_dir: Path, workers: int, clock):
        self.work_dir = work_dir
        self.workers = workers
        self.clock = clock

    def setup(self):
        topo = _network()
        out_dir = self.work_dir / "scale15-corpus"
        shutil.rmtree(out_dir, ignore_errors=True)
        corpus = _desk_corpus(topo, out_dir)
        models, losses = harness.train_models(corpus, workers=self.workers, **TRAIN)
        insts = [
            instance.generate_instance(
                topo, SCALE_FLOWS, ranges=harness.DATASET_RANGES, seed=[SCALE_SEED, j]
            )
            for j in range(SCALE_COUNT)
        ]
        return {"corpus": corpus, "models": models, "losses": losses, "instances": insts}

    def run(self, state, order, capture: list) -> PassResult:
        res = PassResult(self.clock)
        corpus, models = state["corpus"], state["models"]
        res.lines += _corpus_lines(corpus)
        res.trained(state["losses"])
        res.start()
        for rnd in range(self.rounds):
            for j in order(len(state["instances"])):
                inst = state["instances"][j]
                key = f"[{SCALE_SEED},{j}]"
                res.place(
                    "cnn", key, inst,
                    lambda: harness.recursive_allocate(models, inst, DESK_FLOWS, corpus.norm),
                )
                if rnd == 0:
                    res.place("gca", key, inst, lambda: baselines.gca(inst))
                res.place(
                    "rgc", key, inst,
                    lambda: baselines.rgc(inst, baselines.RgcConfig(epochs=SCALE_RGC_EPOCHS, seed=j)),
                )
        res.stop()
        return res


class Label:
    """Exact labelling at 8, 10 and 15 flows, with GCA scored against it.

    The main method is the 40 K=8 proofs.  Their times are dense, so
    their p80 is steady; over all 50 solves it would fall on one or two
    lone solves at the K=8/K=10 boundary.  The tail is solved in the
    first round only and counts in wall_s, the digest and the checks.
    """

    name = "label"
    main, base = "exact", "gca"
    rounds = ROUNDS + 1  # its main solves are short and its base shorter

    def __init__(self, work_dir: Path, workers: int, clock):
        self.clock = clock

    def setup(self):
        topo = _network()
        jobs = []
        for method, flows, base, count, budget in LABEL_SETS:
            for j in range(count):
                inst = instance.generate_instance(
                    topo, flows, ranges=harness.DATASET_RANGES, seed=[base, j]
                )
                jobs.append((method, f"[{base},{j}]k{flows}", inst, budget))
        return {"jobs": jobs}

    def run(self, state, order, capture: list) -> PassResult:
        res = PassResult(self.clock)
        jobs = state["jobs"]
        optimum = {}
        res.start()
        for rnd in range(self.rounds):
            for idx in order(len(jobs)):
                method, key, inst, budget = jobs[idx]
                if rnd == 0 or method == self.main:
                    res.attempted += 1
                    self.clock.tick()
                    try:
                        t0 = time.perf_counter()
                        sol = solver.solve_exact(inst, budget=budget)
                        span = (t0, time.perf_counter(), 1)
                    except Exception:
                        res.fail(f"exact {key}")
                        continue
                    res.solved(key, inst, sol, method, span)
                    if sol.proof == "exhaustive":
                        optimum[key] = sol.cost.total
                res.place(
                    "gca", key, inst, lambda: baselines.gca(inst), optimum=optimum.get(key), batch=GCA_BATCH
                )
        res.stop()
        return res


WORKLOADS = {w.name: w for w in (Desk5, Scale15, Label)}
