"""Dimensionality reduction, per-sample normalization and class sums.

PCA is fit once on the pooled source+target matrix and returns the
coordinates of its columns. Centering subtracts the mean from that matrix
in place, and the eigendecomposition runs on whichever of the d x d scatter
or the n x n Gram matrix is smaller. On the Gram route the coordinates are
read off the Gram eigenvectors, so no d x k component matrix is formed.
"""

import warnings

import numpy as np

_RANK_CUTOFF = 1e-12


class ZeroVectorWarning(UserWarning):
    """Zero-norm columns were passed through normalization unchanged."""


class RankTruncationWarning(UserWarning):
    """More components were requested than the data's numerical rank."""


def pca_fit(x: np.ndarray, n_components: int) -> np.ndarray:
    """Leading principal coordinates of the columns of the pooled d x n matrix.

    ``x`` is centred in place. Returns the k x n matrix whose row i holds
    the coordinates of every column on principal axis i; its rows are
    orthogonal, with squared norms equal to the leading eigenvalues of the
    centred scatter matrix, largest first. Requesting more components than
    the numerical rank truncates with a warning; eigenvalues below 1e-12 of
    the largest are dropped.

    The eigendecomposition runs on the smaller of the d x d scatter and the
    n x n Gram matrix. With scatter eigenvectors u_i the coordinates are
    ``u_i^T x``. With Gram eigenvectors w_i and eigenvalues l_i they are
    ``sqrt(l_i) * w_i^T``, since ``x^T u_i = x^T x w_i / sqrt(l_i)``; after
    the Gram matrix is formed ``x`` is no longer read, so a caller that
    passes its only reference lets it be freed before the eigensolve. Each
    axis takes its sign from ``linalg.sym_eig``'s rule on the eigenvectors
    of the route taken (largest-magnitude component positive).
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
        gram = x.T @ x
        del x  # not read again on this route; see the docstring
        values, vectors = linalg.sym_eig(gram, n_components)
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
        return np.sqrt(values)[:, None] * vectors.T
    return vectors.T @ x


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
