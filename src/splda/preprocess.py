"""Dimensionality reduction, per-sample normalization and class sums.

PCA is fit once on the pooled source+target matrix. Centering subtracts the
mean from that matrix in place, and the eigendecomposition runs on whichever
of the d x d scatter or the n x n Gram matrix is smaller.
"""

import warnings

import numpy as np

_RANK_CUTOFF = 1e-12


class ZeroVectorWarning(UserWarning):
    """Zero-norm columns were passed through normalization unchanged."""


class RankTruncationWarning(UserWarning):
    """More components were requested than the data's numerical rank."""


def pca_fit(x: np.ndarray, n_components: int) -> np.ndarray:
    """Principal directions of the pooled d x n float matrix ``x``.

    ``x`` is centred in place: on return it holds the pooled data minus its
    column mean, so the caller projects with ``components.T @ x`` and no
    second copy of the data is made. Returns the d x k matrix of orthonormal
    components, the leading eigenvectors of the centred scatter matrix.
    Requesting more components than the numerical rank truncates with a
    warning; eigenvalues below 1e-12 of the largest are dropped.
    """
    from . import linalg  # here, so that normalization alone never loads scipy

    d, n = x.shape
    if not 1 <= n_components <= min(d, n):
        raise ValueError(
            f"n_components must be in 1..min(d={d}, n={n}), got {n_components}"
        )
    x -= x.mean(axis=1)[:, None]
    if d <= n:
        values, vectors = linalg.sym_eig(x @ x.T, n_components)
    else:
        # Gram trick: eigenvectors w of X^T X map to scatter eigenvectors
        # X w / sqrt(value), identical nonzero spectrum.
        values, vectors = linalg.sym_eig(x.T @ x, n_components)
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
        vectors = linalg._canonical_signs(x @ (vectors / np.sqrt(values)))
    return vectors


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
