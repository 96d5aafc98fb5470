"""Quickstart: adapt a shifted synthetic pair and watch accuracy per iteration.

Generates five Gaussian class blobs in 20 dimensions, translates and tilts
the target copy to create a domain shift, then runs the full iterative
pipeline (fused labeling, progressive selection) and compares the result
with a plain 1-nearest-neighbor baseline that ignores the shift.
"""

import numpy as np

from splda import RunConfig, gen_synthetic, nn_baseline, run

source, target = gen_synthetic(
    classes=5, per_class=40, dim=20, shift_magnitude=4.0, seed=7, separation=6.0,
)

baseline = nn_baseline(source, target)
print(f"1NN baseline without adaptation: {baseline:.1f}%")

config = RunConfig(pca_dim=20, subspace_dim=10, iterations=10,
                   labeling="fused", selection="progressive")
result = run(source, target, config)

print("\niteration  selected  accuracy")
for snap in result.snapshots:
    print(f"{snap.iteration:9d}  {snap.selected_count:8d}  {snap.accuracy:7.1f}%")

print(f"\nfinal accuracy after {config.iterations} iterations: "
      f"{result.final_accuracy:.1f}%  (baseline {baseline:.1f}%)")
print(f"learned projection: {result.model.projection.shape[0]} -> "
      f"{result.model.projection.shape[1]} dimensions")

gain = result.final_accuracy - baseline
print(f"adaptation gain over the baseline: {gain:+.1f} points")
assert gain >= 0.0
