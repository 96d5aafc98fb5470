"""Dataset containers, label bookkeeping and run configuration.

A :class:`DomainDataset` keeps two label channels. ``labels`` is the
training-visible channel and is only populated for source data. Target
ground truth, when known, lives in ``eval_labels``, which nothing on the
prediction path is allowed to read; it exists purely so metrics can be
computed afterwards.
"""

import math
import operator
from dataclasses import asdict, dataclass, field, replace

import numpy as np

LABELING_MODES = ("ncp", "sp", "fused")
SELECTION_MODES = ("none", "all", "progressive")
# Every labeling mode under every selection mode, in report order.
ABLATION_GRID = tuple((labeling, selection) for labeling in LABELING_MODES
                      for selection in SELECTION_MODES)
# The largest label the int label vector holds.
_LABEL_MAX = np.iinfo(int).max


def as_count(name: str, value) -> int:
    """``value`` as a Python int; a bool or a non-integer is a ValueError.

    numpy integers are accepted. The error names ``name``.
    """
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    # bool is an int subclass; numpy's bool has no __index__
    if count is None or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return count


def _check_label_vector(labels, n: int, channel: str) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.shape[0] != n:
        raise ValueError(f"{channel} must be a length-{n} vector, got shape {labels.shape}")
    if np.iscomplexobj(labels):  # a cast would drop the imaginary part
        raise ValueError(f"{channel} must be integers")
    integral = np.issubdtype(labels.dtype, np.integer)
    # checked before the cast, which would wrap; the float64 bound rounds up
    # to 2**63, the smallest float out of range, and a narrower float is
    # compared in float64 rather than the bound cast down to its type
    try:
        too_large = labels > _LABEL_MAX if integral else labels >= np.float64(_LABEL_MAX)
    except TypeError:  # strings, or an object array of non-numbers
        raise ValueError(f"{channel} must be integers") from None
    if too_large.any():
        raise ValueError(f"{channel} are out of range: the largest id is {_LABEL_MAX}")
    if not integral:
        # a non-finite or hugely negative float casts to a value unequal to
        # itself, which is the test; the cast need not warn about it
        with np.errstate(invalid="ignore"):
            if not np.all(labels == labels.astype(int)):
                raise ValueError(f"{channel} must be integers")
    if (labels < 0).any():
        raise ValueError(f"{channel} must be nonnegative class ids")
    return labels.astype(int)  # a copy, which no caller's array shares


@dataclass(frozen=True)
class DomainDataset:
    """Column-major feature matrix for one domain plus optional labels.

    The features and labels are copied into read-only arrays, so no caller's
    array can change them later. A float64 feature matrix that owns its
    memory and is already read-only is adopted without the copy.
    ``magnitude``, the largest absolute feature, is kept for :func:`validate_pair`.
    """

    features: np.ndarray
    labels: np.ndarray | None = None
    eval_labels: np.ndarray | None = None
    domain: str = "source"
    magnitude: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        feats = self.features
        if not (isinstance(feats, np.ndarray) and feats.dtype == np.float64
                and feats.flags.owndata and not feats.flags.writeable):
            feats = np.array(feats, dtype=float)
        if feats.ndim != 2:
            raise ValueError(f"features must be a 2-D matrix, got ndim={feats.ndim}")
        if feats.shape[0] < 1:
            raise ValueError("dataset needs at least one feature")
        if feats.shape[1] < 1:
            raise ValueError("dataset needs at least one sample")
        # max and min are NaN when any entry is; no d x n temporary is formed
        magnitude = max(float(feats.max()), -float(feats.min()))
        if not math.isfinite(magnitude):
            raise ValueError("features contain non-finite entries")
        feats.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "magnitude", magnitude)
        if self.domain not in ("source", "target"):
            raise ValueError(f"domain must be 'source' or 'target', got {self.domain!r}")
        for channel in ("labels", "eval_labels"):
            values = getattr(self, channel)
            if values is not None:
                checked = _check_label_vector(values, feats.shape[1], channel)
                checked.setflags(write=False)
                object.__setattr__(self, channel, checked)

    @property
    def dim(self) -> int:
        return self.features.shape[0]

    @property
    def n_samples(self) -> int:
        return self.features.shape[1]

    def without_eval_labels(self) -> "DomainDataset":
        return replace(self, eval_labels=None)


@dataclass(frozen=True)
class RunConfig:
    """Adaptation hyperparameters; echoed verbatim into results and reports.

    ``pca_dim``, ``subspace_dim`` and ``iterations`` must be integers (a
    bool is not one) and are stored as Python ints. No stage of a run is
    random, so a run takes no seed.
    """

    pca_dim: int
    subspace_dim: int = 128
    iterations: int = 10
    labeling: str = "fused"
    selection: str = "progressive"

    def __post_init__(self):
        for name in ("pca_dim", "subspace_dim", "iterations"):
            object.__setattr__(self, name, as_count(name, getattr(self, name)))
        if self.pca_dim < 1:
            raise ValueError(f"pca_dim must be positive, got {self.pca_dim}")
        if not 1 <= self.subspace_dim <= self.pca_dim:
            raise ValueError(
                f"subspace_dim must satisfy 1 <= subspace_dim <= pca_dim, "
                f"got {self.subspace_dim} vs pca_dim={self.pca_dim}"
            )
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.labeling not in LABELING_MODES:
            raise ValueError(f"labeling must be one of {LABELING_MODES}, got {self.labeling!r}")
        if self.selection not in SELECTION_MODES:
            raise ValueError(f"selection must be one of {SELECTION_MODES}, got {self.selection!r}")

    def to_dict(self) -> dict:
        return asdict(self)


def validate_pair(src: DomainDataset, tgt: DomainDataset) -> tuple:
    """Check pair consistency and dictionary-encode labels to dense 0-based ids.

    The class vocabulary is the union of source labels and source and target
    evaluation labels; every class must have at least one source sample,
    otherwise its prototype would be undefined. Each side's largest feature
    magnitude must keep the PCA and norm sums finite and its square normal
    (:func:`_check_scale`). Returns ``(source_ids,
    target_truth, label_names)``: the dense source labels, the dense target
    evaluation labels (None when the target has none) and the sorted
    vocabulary that maps dense ids back to the caller's class ids.
    """
    if src.labels is None:
        raise ValueError("source dataset must be fully labeled")
    if tgt.labels is not None:
        raise ValueError(
            "target dataset must not carry training labels; "
            "ground truth belongs in eval_labels"
        )
    if src.dim != tgt.dim:
        raise ValueError(
            f"feature dimension mismatch: source d={src.dim}, target d={tgt.dim}"
        )
    n = src.n_samples + tgt.n_samples
    for side, dataset in (("source", src), ("target", tgt)):
        _check_scale(side, dataset, n)
    present = np.unique(src.labels)
    extras = [y for y in (src.eval_labels, tgt.eval_labels) if y is not None]
    vocab = np.unique(np.concatenate([present, *extras]))
    label_names = tuple(int(x) for x in vocab)
    missing = [int(x) for x in np.setdiff1d(vocab, present)]
    if missing:
        raise ValueError(
            f"source has no samples for class(es) {missing} out of "
            f"{len(label_names)}; class prototypes would be undefined"
        )
    truth = None if tgt.eval_labels is None else np.searchsorted(vocab, tgt.eval_labels)
    return np.searchsorted(vocab, src.labels), truth, label_names


def _check_scale(side: str, dataset: DomainDataset, n: int) -> None:
    """Reject features whose largest magnitude M would overflow or underflow.

    PCA and column normalization sum at most d * n squares of centred
    values, each at most (2 M)^2, so ``4 d n M^2`` must stay finite. A
    nonzero M whose square is below the smallest normal float would lose
    the features to underflow. All-zero features pass.
    """
    d, magnitude = dataset.dim, dataset.magnitude
    largest = math.sqrt(np.finfo(float).max / (4 * d * n))
    smallest = math.sqrt(np.finfo(float).tiny)
    if magnitude > largest:
        raise ValueError(
            f"{side} features reach magnitude {magnitude:.3g}; with d={d} and "
            f"n={n} the PCA and norm sums overflow above {largest:.3g}"
        )
    if 0.0 < magnitude < smallest:
        raise ValueError(
            f"{side} features reach only magnitude {magnitude:.3g}; their squares "
            f"underflow below {smallest:.3g}"
        )
