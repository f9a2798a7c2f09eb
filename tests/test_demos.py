"""Smoke runs of the demos: each must still run against the package.

Demo 04 trains a small pipeline and places through both entry points
of the one CNN placer, predict_with_enhancement and recursive_allocate
(about 9 s on 2 vCPUs).  Demo 05 labels a 120-instance corpus, trains
on it and prints the benchmark table (about 5 s).  Demo 07 runs with
two training seeds: it labels the acceptance fixture's two corpora and
sweeps criteria 5-7 over the seeds (about 6 s).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


DEMOS = [
    ("01_network_and_costs.py", (), None),
    ("02_exact_solver_and_lp_export.py", (), "scipy"),  # its point is the HiGHS cross-check
    ("03_feature_images.py", (), None),
    ("04_learning_pipeline.py", (), None),
    ("05_benchmark_table.py", (), None),
    ("07_seed_sweep.py", ("--seeds", "2"), None),
]


# Test ids name the demo and its dependency, not its arguments.
@pytest.mark.parametrize(
    "demo,args,needs", DEMOS, ids=[f"{demo}-{needs}" for demo, _, needs in DEMOS]
)
def test_demo_exits_cleanly(demo, args, needs, tmp_path):
    # With TMPDIR pointed at an empty directory, a demo that leaves a
    # temporary file or directory behind shows it there.
    if needs:
        pytest.importorskip(needs)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "TMPDIR": str(tmp_path)}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo), *args],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir()), sorted(p.name for p in tmp_path.iterdir())
