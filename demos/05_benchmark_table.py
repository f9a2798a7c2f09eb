"""The full benchmark: exact optimum vs learned placement vs greedy.

Reproduces the comparison table layout at a reduced scale: a labelled
5-flow corpus trains the classifiers, and the held-out split scores
four methods on mean penalized cost, per-flow precision, feasibility
and worst-case gap.  Takes about 5 s on 2 vCPUs.
"""

import tempfile
from pathlib import Path

from edgecache.harness import build_dataset, evaluate, evaluation_topology, train_models

topo = evaluation_topology()
with tempfile.TemporaryDirectory(prefix="edgecache-bench-") as workdir:
    print("solving 120 instances for labels...")
    corpus = build_dataset(topo, n=120, flows=5, seed=0, out_dir=Path(workdir),
                           train_fraction=0.75)

    print("training 5 per-request classifiers...")
    models, _ = train_models(corpus, epochs=3, batch_size=32, seed=0, workers=5)

    print("scoring optimal / cnn+pel / gca / rgc on the held-out split...\n")
    report = evaluate(corpus, models=models, methods=("optimal", "cnn", "gca", "rgc"),
                      rgc_epochs=500)
print(report.format_table())
print(f"\n({report.sample_count} test instances, {report.flows} flows each)")
