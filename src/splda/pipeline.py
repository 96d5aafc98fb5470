"""End-to-end iterative adaptation: fit, pseudo-label, select, repeat.

A run performs PCA once on the pooled data, fits the aligned subspace on
source data alone, pseudo-labels every target sample, then alternates for
a fixed number of iterations between admitting a growing high-confidence
subset of pseudo-labels into the fit and relabeling all targets. Target
ground truth is consulted only to fill the accuracy fields of the
per-iteration snapshots; predictions never depend on it.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np
from scipy.spatial.distance import cdist

from .data import (
    DomainDataset,
    LABELING_MODES,
    PseudoLabelSet,
    RunConfig,
    SELECTION_MODES,
    validate_pair,
)
from .dataio import evaluate
from .labeling import (
    compute_prototypes,
    fuse_and_label,
    kmeans_clusters,
    match_clusters,
    ncp_probabilities,
    sp_probabilities,
)
from .preprocess import l2_normalize_columns, pca_fit, pca_transform
from .selection import select
from .subspace import SlppModel, embed, slpp_fit

_NN_CHUNK = 1024


@dataclass(frozen=True)
class IterationSnapshot:
    """State after one iteration: how much was selected and how well it did."""

    iteration: int
    selected_count: int
    accuracy: float | None


@dataclass(frozen=True)
class AdaptationResult:
    """Final target predictions plus the per-iteration trace of the run.

    ``predictions`` are in the caller's class ids, not the dense ids used
    internally.
    """

    predictions: np.ndarray
    snapshots: tuple
    model: SlppModel
    config: RunConfig
    n_classes: int
    warnings: tuple = ()

    @property
    def final_accuracy(self) -> float | None:
        return self.snapshots[-1].accuracy

    def to_dict(self) -> dict:
        """JSON-ready form; serializing it twice yields identical bytes."""
        return {
            "config": self.config.to_dict(),
            "n_classes": self.n_classes,
            "predictions": self.predictions.tolist(),
            "snapshots": [
                {"iteration": s.iteration, "selected_count": s.selected_count,
                 "accuracy": s.accuracy}
                for s in self.snapshots
            ],
            "projection": self.model.projection.tolist(),
            "embedding_mean": self.model.embedding_mean.tolist(),
            "warnings": list(self.warnings),
        }


def _pseudo_label_all(tgt_embedded, protos, mode: str) -> PseudoLabelSet:
    p1 = ncp_probabilities(tgt_embedded, protos) if mode in ("ncp", "fused") else None
    p2 = None
    if mode in ("sp", "fused"):
        clusters = kmeans_clusters(tgt_embedded, protos)
        matched = match_clusters(clusters, protos)
        p2 = sp_probabilities(tgt_embedded, matched)
    return fuse_and_label(p1, p2, mode)


def run(src: DomainDataset, tgt: DomainDataset, config: RunConfig) -> AdaptationResult:
    """Execute the full adaptation loop and predict labels for all targets."""
    pair = validate_pair(src, tgt)
    truth = pair.target.eval_labels
    recorded: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pca = pca_fit(pair.source, pair.target, config.pca_dim)
        xs = l2_normalize_columns(pca_transform(pca, pair.source.features))
        xt = l2_normalize_columns(pca_transform(pca, pair.target.features))
        pooled = np.hstack([xs, xt])
        ys = pair.source.labels
        subspace_dim = min(config.subspace_dim, pca.n_components)

        def fit(selected: PseudoLabelSet) -> SlppModel:
            if len(selected) == 0:
                labeled, lab = xs, ys
            else:
                labeled = np.hstack([xs, xt[:, selected.indices]])
                lab = np.concatenate([ys, selected.classes])
            return slpp_fit(labeled, lab, subspace_dim, all_data=pooled)

        def label_all(model: SlppModel) -> PseudoLabelSet:
            zs = embed(model, xs)
            zt = embed(model, xt)
            protos = compute_prototypes(zs, ys, pair.n_classes)
            return _pseudo_label_all(zt, protos, config.labeling)

        def snapshot(k: int, n_selected: int, pl: PseudoLabelSet) -> IterationSnapshot:
            acc = None if truth is None else evaluate(pl.classes, truth)
            return IterationSnapshot(iteration=k, selected_count=n_selected, accuracy=acc)

        model = fit(PseudoLabelSet.empty())
        pseudo = label_all(model)
        snapshots = [snapshot(0, 0, pseudo)]
        for k in range(1, config.iterations + 1):
            if config.selection == "none":
                # no pseudo-label ever joins the fit: the source-only model stands
                snapshots.append(replace(snapshots[0], iteration=k))
                continue
            chosen = select(pseudo, k, config.iterations, config.selection)
            model = fit(chosen)
            pseudo = label_all(model)
            snapshots.append(snapshot(k, len(chosen), pseudo))
        recorded = [str(w.message) for w in caught]
    return AdaptationResult(
        predictions=np.asarray(pair.label_names)[pseudo.classes],
        snapshots=tuple(snapshots),
        model=model,
        config=config,
        n_classes=pair.n_classes,
        warnings=tuple(recorded),
    )


def run_ablation(src: DomainDataset, tgt: DomainDataset,
                 base_config: RunConfig) -> dict:
    """Run the full labeling-mode x selection-mode grid.

    Returns a dict keyed by (labeling, selection). With selection "none" no
    pseudo-labels ever join the fit, so every iteration reuses the
    source-only projection.
    """
    results = {}
    for labeling in LABELING_MODES:
        for selection in SELECTION_MODES:
            cfg = replace(base_config, labeling=labeling, selection=selection)
            results[(labeling, selection)] = run(src, tgt, cfg)
    return results


def nn_baseline(src: DomainDataset, tgt: DomainDataset) -> float:
    """Accuracy of 1-nearest-neighbor on L2-normalized raw features.

    No adaptation is applied; this is the floor any adaptation run should
    beat. Requires target ground truth in the evaluation channel.
    """
    pair = validate_pair(src, tgt)
    if pair.target.eval_labels is None:
        raise ValueError("1NN baseline needs target ground truth in eval_labels")
    s = l2_normalize_columns(pair.source.features)
    t = l2_normalize_columns(pair.target.features)
    predictions = np.empty(pair.target.n_samples, dtype=int)
    for start in range(0, t.shape[1], _NN_CHUNK):
        block = t[:, start:start + _NN_CHUNK]
        nearest = np.argmin(cdist(block.T, s.T), axis=1)
        predictions[start:start + _NN_CHUNK] = pair.source.labels[nearest]
    return evaluate(predictions, pair.target.eval_labels)
