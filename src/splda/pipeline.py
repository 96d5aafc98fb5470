"""End-to-end iterative adaptation: fit, pseudo-label, select, repeat.

A run prepares its pair once (validation, PCA on the pooled data and L2
normalization; see :func:`prepare`), fits the aligned subspace on source
data alone, pseudo-labels every target sample, then alternates for
a fixed number of iterations between admitting a growing high-confidence
subset of pseudo-labels into the fit and relabeling all targets. Each fit
and its relabeling are one step, and the SLPP projection is dropped when
the step returns, so only labels and confidences pass between iterations. An
iteration that selects nothing keeps the source-only labels, since a fit
on no pseudo-labels is the source-only fit. Target ground truth is
consulted only to fill the accuracy fields of the per-iteration snapshots;
predictions never depend on it.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .data import ABLATION_GRID, DomainDataset, RunConfig, as_count, validate_pair
from .dataio import evaluate, nn_baseline  # noqa: F401 - nn_baseline is re-exported
from .labeling import compute_prototypes, pseudo_label
from .preprocess import l2_normalize_columns, pca_fit
from .selection import select
from .subspace import embed, slpp_fit


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
    internally. No SLPP projection is kept: each one maps normalized PCA
    coordinates that the result does not carry, and the labels are what
    the method delivers.
    """

    predictions: np.ndarray
    snapshots: tuple
    config: RunConfig
    warnings: tuple = ()

    @property
    def final_accuracy(self) -> float | None:
        return self.snapshots[-1].accuracy

    def to_dict(self) -> dict:
        """A report task's JSON body; serializing it twice gives equal bytes.

        The CLI adds only ``source``, ``target``, ``status``, ``error`` and
        ``wall_time_s`` to it.
        """
        return {
            "config": self.config.to_dict(),
            "iteration_accuracy": [s.accuracy for s in self.snapshots],
            "selected_counts": [s.selected_count for s in self.snapshots],
            "final_accuracy": self.final_accuracy,
            "predictions": self.predictions.tolist(),
            "warnings": list(self.warnings),
        }


@dataclass(frozen=True)
class PreparedPair:
    """A validated pair after PCA and L2 normalization, ready for the loop.

    ``source`` and ``target`` are the d1 x n matrices of normalized PCA
    coordinates; the raw features are not kept. ``source_labels`` and
    ``target_truth`` are dense 0-based ids that ``label_names`` maps back to
    the caller's class ids. Every array is read-only because every run on
    the pair shares it. ``warnings`` holds the messages raised while
    preparing, and ``pca_dim`` the component count that was requested.
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
    """Validate a pair, fit PCA once on it and normalize both sides.

    ``pca_dim`` must be an integer, as in :class:`RunConfig`, and is stored
    as a Python int. PCA reads the two sides' features in place, so no
    pooled copy of them is made. Each side is normalized from its slice of
    the returned coordinates.
    """
    pca_dim = as_count("pca_dim", pca_dim)
    source_ids, target_truth, label_names = validate_pair(src, tgt)
    ns = src.n_samples
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coords = pca_fit((src.features, tgt.features), pca_dim)
        xs = l2_normalize_columns(coords[:, :ns])
        xt = l2_normalize_columns(coords[:, ns:])
    for a in (xs, xt, source_ids, target_truth):
        if a is not None:
            a.setflags(write=False)
    return PreparedPair(
        source=xs,
        target=xt,
        source_labels=source_ids,
        target_truth=target_truth,
        label_names=label_names,
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
        # every embedding is centred on the projection of the pooled columns' mean
        mean = (xs.sum(axis=1) + xt.sum(axis=1)) / (xs.shape[1] + xt.shape[1])
        subspace_dim = min(config.subspace_dim, xs.shape[0])

        def fit_and_label(chosen: np.ndarray, classes: np.ndarray):
            # the source columns plus the chosen targets under their pseudo-labels
            projection = slpp_fit(xs, ys, subspace_dim, target=xt, chosen=chosen,
                                  target_labels=classes[chosen])
            protos = compute_prototypes(embed(projection, xs, mean), ys, prepared.n_classes)
            return pseudo_label(embed(projection, xt, mean), protos, config.labeling)

        def snapshot(k: int, n_selected: int, classes: np.ndarray) -> IterationSnapshot:
            acc = None if truth is None else evaluate(classes, truth)
            return IterationSnapshot(iteration=k, selected_count=n_selected, accuracy=acc)

        nothing = np.empty(0, dtype=int)
        source_only = classes, confidences = fit_and_label(nothing, nothing)
        snapshots = [snapshot(0, 0, classes)]
        for k in range(1, config.iterations + 1):
            chosen = select(classes, confidences, k, config.iterations, config.selection)
            if chosen.size:
                classes, confidences = fit_and_label(chosen, classes)
            else:
                # a fit on no pseudo-labels is the source-only fit
                classes, confidences = source_only
            snapshots.append(snapshot(k, chosen.size, classes))
    return AdaptationResult(
        predictions=np.asarray(prepared.label_names)[classes],
        snapshots=tuple(snapshots),
        config=config,
        warnings=prepared.warnings + tuple(str(w.message) for w in caught),
    )


def run_ablation(src: DomainDataset, tgt: DomainDataset,
                 base_config: RunConfig) -> dict:
    """Run every cell of :data:`~splda.data.ABLATION_GRID` on one pair.

    The pair is prepared once (validation, PCA at ``base_config.pca_dim``
    and normalization) and all nine cells run on it. Returns a dict keyed
    by (labeling, selection).
    """
    prepared = prepare(src, tgt, base_config.pca_dim)
    return {
        (labeling, selection): run_prepared(
            prepared, replace(base_config, labeling=labeling, selection=selection))
        for labeling, selection in ABLATION_GRID
    }
