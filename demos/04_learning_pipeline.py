"""Train per-request classifiers and repair their combined output.

A miniature end-to-end run: label a small corpus with the exact solver,
train one small network per request slot, predict on a held-out
instance, and let the enhancement layer walk the above-threshold
alternatives whenever the confident picks collide.  Takes around ten
seconds.
"""

import tempfile
from pathlib import Path

import numpy as np

from edgecache import penalized_cost
from edgecache.cnn import predict_all
from edgecache.cost import assignment_from_classes, check_feasibility
from edgecache.encoder import encode
from edgecache.harness import (
    DATASET_RANGES,
    build_dataset,
    evaluation_topology,
    labels_of,
    predict_with_enhancement,
    train_models,
)
from edgecache.pel import build_queues

topo = evaluation_topology()
with tempfile.TemporaryDirectory(prefix="edgecache-demo-") as workdir:
    corpus = build_dataset(topo, n=60, flows=5, seed=11, out_dir=Path(workdir),
                           train_fraction=0.9)
    print(f"labelled corpus: {len(corpus.of_split('train'))} train / "
          f"{len(corpus.of_split('test'))} test instances")

    models, traces = train_models(corpus, epochs=10, batch_size=16, seed=0, workers=5)
    print("training losses (first -> last):",
          ", ".join(f"{t[0]:.2f}->{t[-1]:.2f}" for t in traces))

    sample = corpus.of_split("test")[0]
    inst = corpus.load(sample)
    O = predict_all(models, encode(inst, corpus.norm))
    print("\npredicted probabilities (rows = requests, last column = leave uncached):")
    print(np.array2string(O, precision=3, suppress_small=True))

queues = build_queues(O, delta=0.001)
print("\nconfident picks:", [(k, c, round(p, 3)) for k, c, p in queues.omega])
print(f"exploration queue holds {len(queues.psi)} above-threshold alternatives")

argmax = assignment_from_classes(inst, O.argmax(axis=1))
repaired = predict_with_enhancement(models, inst, corpus.norm)  # = enhance(inst, O)
print(f"\nargmax assignment:   {labels_of(argmax.x)}  "
      f"TC_N = {penalized_cost(inst, argmax):.3f}  "
      f"feasible: {check_feasibility(inst, argmax).feasible}")
print(f"after enhancement:   {labels_of(repaired.x)}  "
      f"TC_N = {penalized_cost(inst, repaired):.3f}  "
      f"feasible: {check_feasibility(inst, repaired).feasible}")
print(f"optimal labels:      {sample.labels}  TC = {sample.optimal_tc:.3f}")

# Oversized instances reuse the same 5-row models block by block,
# shrinking capacities between blocks.
from edgecache.baselines import RgcConfig, rgc
from edgecache.harness import recursive_allocate
from edgecache.instance import generate_instance

big = generate_instance(topo, 12, ranges=DATASET_RANGES, seed=107)
blockwise = recursive_allocate(models, big, block=5, norm=corpus.norm)
baseline = rgc(big, RgcConfig(epochs=500, seed=0))
print(f"\n12-flow instance allocated in 3 blocks of 5:")
print(f"  recursive cnn+pel: TC_N = {penalized_cost(big, blockwise):.3f}")
print(f"  rgc (500 epochs):  TC_N = {penalized_cost(big, baseline):.3f}")
