"""Dimensionality reduction, per-sample normalization and class sums.

PCA is fit once on the pooled source+target matrix. Centering is done by
explicit mean subtraction, and the eigendecomposition runs on whichever of
the d x d scatter or the n x n Gram matrix is smaller.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .data import DomainDataset

_RANK_CUTOFF = 1e-12


class ZeroVectorWarning(UserWarning):
    """Zero-norm columns were passed through normalization unchanged."""


class RankTruncationWarning(UserWarning):
    """More components were requested than the data's numerical rank."""


@dataclass(frozen=True)
class PcaModel:
    """Column mean and orthonormal principal directions of the pooled data."""

    mean: np.ndarray
    components: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[1]


def pca_fit(src: DomainDataset, tgt: DomainDataset, n_components: int) -> PcaModel:
    """Fit PCA on the concatenated [source | target] feature matrix.

    Components are the leading eigenvectors of the centered scatter matrix.
    Requesting more components than the numerical rank truncates with a
    warning; eigenvalues below 1e-12 of the largest are dropped.
    """
    from . import linalg  # here, so that normalization alone never loads scipy

    x = np.hstack([src.features, tgt.features])
    d, n = x.shape
    if not 1 <= n_components <= min(d, n):
        raise ValueError(
            f"n_components must be in 1..min(d={d}, n={n}), got {n_components}"
        )
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    if d <= n:
        pairs = linalg.sym_eig(centered @ centered.T, n_components)
        values, vectors = pairs.values, pairs.vectors
    else:
        # Gram trick: eigenvectors w of X^T X map to scatter eigenvectors
        # X w / sqrt(value), identical nonzero spectrum.
        pairs = linalg.sym_eig(centered.T @ centered, n_components)
        values, vectors = pairs.values, pairs.vectors
    if values[0] <= 0.0:
        raise ValueError("pooled data has zero variance; PCA is undefined")
    keep = values > _RANK_CUTOFF * values[0]
    if not keep.all():
        kept = int(keep.sum())
        warnings.warn(
            f"requested {n_components} principal components but the numerical "
            f"rank is {kept}; truncating",
            RankTruncationWarning,
        )
        values, vectors = values[keep], vectors[:, keep]
    if d > n:
        vectors = linalg._canonical_signs(centered @ (vectors / np.sqrt(values)))
    return PcaModel(mean=mean, components=vectors)


def pca_transform(model: PcaModel, x) -> np.ndarray:
    """Project columns of ``x`` onto the principal directions after centering."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.mean.shape[0]:
        raise ValueError(
            f"dimension mismatch: model expects d={model.mean.shape[0]}, "
            f"got {x.shape[0]}"
        )
    return model.components.T @ (x - model.mean[:, None])


def l2_normalize_columns(x) -> np.ndarray:
    """Scale every nonzero column to unit Euclidean norm.

    Zero columns are returned unchanged; a ZeroVectorWarning carries how many
    were seen.
    """
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=0)
    zero = norms == 0.0
    if zero.any():
        warnings.warn(
            f"{int(zero.sum())} zero-norm column(s) left unnormalized",
            ZeroVectorWarning,
        )
    return x / np.where(zero, 1.0, norms)


def class_sums(x, ids, n_classes: int) -> np.ndarray:
    """d x n_classes matrix whose column c sums the columns of x with id c.

    Formed as one product with the n x n_classes indicator matrix of ids.
    """
    return x @ np.eye(n_classes)[ids]
