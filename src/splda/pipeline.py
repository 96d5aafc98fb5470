"""End-to-end iterative adaptation: fit, pseudo-label, select, repeat.

A run prepares its pair once (validation, PCA on the pooled data and L2
normalization; see :func:`prepare`), fits the aligned subspace on source
data alone, pseudo-labels every target sample, then alternates for
a fixed number of iterations between admitting a growing high-confidence
subset of pseudo-labels into the fit and relabeling all targets. Target
ground truth is consulted only to fill the accuracy fields of the
per-iteration snapshots; predictions never depend on it.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import (
    DomainDataset,
    LABELING_MODES,
    PseudoLabelSet,
    RunConfig,
    SELECTION_MODES,
    validate_pair,
)
from .dataio import evaluate, nn_baseline  # noqa: F401 - nn_baseline is re-exported
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


@dataclass(frozen=True)
class PreparedPair:
    """A validated pair after PCA and L2 normalization, ready for the loop.

    ``source`` and ``target`` are the d1 x n matrices of normalized PCA
    coordinates, read-only because every run on the pair shares them; the
    raw features are not kept. ``source_labels`` and ``target_truth`` are
    dense 0-based ids that ``label_names`` maps back to the caller's class
    ids. ``warnings`` holds the messages raised while preparing, and
    ``pca_dim`` the component count that was requested.
    """

    source: np.ndarray
    target: np.ndarray
    source_labels: np.ndarray
    target_truth: np.ndarray | None
    label_names: tuple
    pca_dim: int
    warnings: tuple = ()

    @property
    def n_classes(self) -> int:
        return len(self.label_names)


def prepare(src: DomainDataset, tgt: DomainDataset, pca_dim: int) -> PreparedPair:
    """Validate a pair, fit PCA once on it and normalize both sides."""
    pair = validate_pair(src, tgt)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pca = pca_fit(pair.source, pair.target, pca_dim)
        xs = l2_normalize_columns(pca_transform(pca, pair.source.features))
        xt = l2_normalize_columns(pca_transform(pca, pair.target.features))
    for x in (xs, xt):
        x.setflags(write=False)
    return PreparedPair(
        source=xs,
        target=xt,
        source_labels=pair.source.labels,
        target_truth=pair.target.eval_labels,
        label_names=pair.label_names,
        pca_dim=pca_dim,
        warnings=tuple(str(w.message) for w in caught),
    )


def run(src: DomainDataset, tgt: DomainDataset, config: RunConfig) -> AdaptationResult:
    """Execute the full adaptation loop and predict labels for all targets."""
    return run_prepared(prepare(src, tgt, config.pca_dim), config)


def run_prepared(prepared: PreparedPair, config: RunConfig) -> AdaptationResult:
    """Run the adaptation loop on a pair that :func:`prepare` has made.

    The result's warnings are the preparation's followed by the loop's.
    """
    if config.pca_dim != prepared.pca_dim:
        raise ValueError(
            f"config.pca_dim={config.pca_dim} but the pair was prepared "
            f"with pca_dim={prepared.pca_dim}"
        )
    xs, xt, ys = prepared.source, prepared.target, prepared.source_labels
    truth = prepared.target_truth
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        pooled = np.hstack([xs, xt])
        subspace_dim = min(config.subspace_dim, xs.shape[0])

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
            protos = compute_prototypes(zs, ys, prepared.n_classes)
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
    return AdaptationResult(
        predictions=np.asarray(prepared.label_names)[pseudo.classes],
        snapshots=tuple(snapshots),
        model=model,
        config=config,
        n_classes=prepared.n_classes,
        warnings=prepared.warnings + tuple(str(w.message) for w in caught),
    )


def run_ablation(src: DomainDataset, tgt: DomainDataset,
                 base_config: RunConfig) -> dict:
    """Run the full labeling-mode x selection-mode grid on one pair.

    The pair is prepared once (validation, PCA at ``base_config.pca_dim``
    and normalization) and all nine cells run on it. Returns a dict keyed
    by (labeling, selection). With selection "none" no pseudo-labels ever
    join the fit, so every iteration reuses the source-only projection.
    """
    prepared = prepare(src, tgt, base_config.pca_dim)
    return {
        (labeling, selection): run_prepared(
            prepared, replace(base_config, labeling=labeling, selection=selection))
        for labeling in LABELING_MODES
        for selection in SELECTION_MODES
    }
