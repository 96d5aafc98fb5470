"""Ablation grid: how labeling mode and selection mode interact.

Runs all nine combinations of labeling (prototype distances, cluster
matching, fused) and selection (none, all, progressive) on one synthetic
task. Selection "none" never feeds pseudo-labels back, so it shows what the
source-only subspace can do; "all" admits every pseudo-label at once;
"progressive" grows a per-class quota of the most confident ones.
"""

from splda import LABELING_MODES, RunConfig, SELECTION_MODES, gen_synthetic, run_ablation

source, target = gen_synthetic(
    classes=5, per_class=40, dim=20, shift_magnitude=4.0, seed=5, separation=6.0,
)

base = RunConfig(pca_dim=20, subspace_dim=10, iterations=10)
table = run_ablation(source, target, base)

header = "".join(f"{sel:>14}" for sel in SELECTION_MODES)
print(f"{'labeling':<10}{header}")
for labeling in LABELING_MODES:
    cells = "".join(f"{table[(labeling, sel)].final_accuracy:14.1f}"
                    for sel in SELECTION_MODES)
    print(f"{labeling:<10}{cells}")

fused = [table[("fused", sel)].final_accuracy for sel in SELECTION_MODES]
print("\nfused row should be non-degrading left to right on a shifted task:")
print("  none -> all -> progressive:", " -> ".join(f"{v:.1f}" for v in fused))
