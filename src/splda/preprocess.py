"""Dimensionality reduction, per-sample normalization and class sums.

PCA is fit once on the pooled columns of the source and target matrices,
which it reads and never writes, and returns the coordinates of every
column. The eigendecomposition runs on whichever of the d x d scatter or
the n x n Gram matrix of the centred pooled data is smaller. That matrix is
summed from centred blocks of at most ``_BLOCK`` columns or rows, so no
pooled or centred d x n copy is ever made, and LAPACK computes its
eigenvectors in its own buffer. On the Gram route the coordinates are read
off the Gram eigenvectors, so no d x k component matrix is formed.
"""

import warnings

import numpy as np

_RANK_CUTOFF = 1e-12
# Columns (scatter route) or rows (Gram route) per centred block.
_BLOCK = 256


class ZeroVectorWarning(UserWarning):
    """Zero-norm columns were passed through normalization unchanged."""


class RankTruncationWarning(UserWarning):
    """More components were requested than the data's numerical rank."""


def pca_fit(parts, n_components: int) -> np.ndarray:
    """Leading principal coordinates of the pooled columns of ``parts``.

    ``parts`` is a sequence of d x n_i matrices, such as the source and the
    target features, whose columns are pooled in order; they are read and
    never written. Returns the k x n matrix (n the total column count) whose
    row i holds the coordinates of every pooled column on principal axis i;
    its rows are orthogonal, with squared norms equal to the leading
    eigenvalues of the centred scatter matrix, largest first. Requesting
    more components than the numerical rank truncates with a warning;
    eigenvalues below 1e-12 of the largest are dropped.

    The eigendecomposition runs on the smaller of the d x d scatter and the
    n x n Gram matrix of the centred pooled data. ``linalg.sym_eig_of_sum``
    sums it from centred blocks of at most 256 columns or rows, solves it
    and frees it before the eigenvectors are copied out. With scatter
    eigenvectors u_i the coordinates of a column p are
    ``u_i^T p - u_i^T mean``, one product per part. With Gram eigenvectors
    w_i and eigenvalues l_i they are ``sqrt(l_i) * w_i^T``, since
    ``x^T u_i = x^T x w_i / sqrt(l_i)`` for the centred pooled x. Each axis
    takes its sign from ``linalg.sym_eig_of_sum``'s rule on the eigenvectors
    of the route taken (largest-magnitude component positive).
    """
    from . import linalg  # here, so that normalization alone never loads scipy

    parts = [np.asarray(p, dtype=float) for p in parts]
    if not parts or any(p.ndim != 2 or p.shape[0] != parts[0].shape[0] for p in parts):
        raise ValueError("parts must be 2-D matrices with the same row count")
    d = parts[0].shape[0]
    n = sum(p.shape[1] for p in parts)
    if not 1 <= n_components <= min(d, n):
        raise ValueError(
            f"n_components must be in 1..min(d={d}, n={n}), got {n_components}"
        )
    mean = sum(p.sum(axis=1) for p in parts) / n
    if d <= n:
        blocks = _centred_column_blocks(parts, mean)
    else:
        blocks = _centred_row_blocks(parts, mean, n)
    values, vectors = linalg.sym_eig_of_sum(blocks, min(d, n), n_components, rows=d > n)
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
    # written in place, so no k x n_i product is held beside the result
    coords = np.empty((values.size, n))
    start = 0
    for part in parts:
        stop = start + part.shape[1]
        np.matmul(vectors.T, part, out=coords[:, start:stop])
        start = stop
    coords -= (vectors.T @ mean)[:, None]
    return coords


def _centred_column_blocks(parts, mean):
    """Yield at most ``_BLOCK`` columns at a time of the centred pooled d x n matrix.

    Each block is a C-ordered d x b matrix in one reused buffer.
    """
    d = mean.size
    buffer = np.empty(d * _BLOCK)
    for part in parts:
        for lo in range(0, part.shape[1], _BLOCK):
            hi = min(lo + _BLOCK, part.shape[1])
            block = buffer[:d * (hi - lo)].reshape(d, hi - lo)
            np.subtract(part[:, lo:hi], mean[:, None], out=block)
            yield block


def _centred_row_blocks(parts, mean, n: int):
    """Yield at most ``_BLOCK`` rows at a time of the centred pooled d x n matrix.

    Each block is a C-ordered b x n matrix in one reused buffer.
    """
    d = mean.size
    buffer = np.empty(_BLOCK * n)
    for lo in range(0, d, _BLOCK):
        hi = min(lo + _BLOCK, d)
        block = buffer[:(hi - lo) * n].reshape(hi - lo, n)
        start = 0
        for part in parts:
            stop = start + part.shape[1]
            np.subtract(part[lo:hi], mean[lo:hi, None], out=block[:, start:stop])
            start = stop
        yield block


def l2_normalize_columns(x) -> np.ndarray:
    """Scale every nonzero column to unit Euclidean norm.

    Zero columns are returned unchanged; a ZeroVectorWarning carries how many
    were seen.
    """
    unit, zeros = unit_columns(x)
    warn_zero_columns(zeros)
    return unit


def unit_columns(x):
    """``(unit, zeros)``: ``x`` with every nonzero column scaled to unit
    Euclidean norm, and the number of zero columns, which stay unchanged.
    """
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=0)
    zero = norms == 0.0
    return x / np.where(zero, 1.0, norms), int(zero.sum())


def warn_zero_columns(zeros: int) -> None:
    """Raise the ZeroVectorWarning for ``zeros`` unnormalized columns, if any."""
    if zeros:
        warnings.warn(f"{zeros} zero-norm column(s) left unnormalized",
                      ZeroVectorWarning)


def class_sums(x, ids, n_classes: int) -> np.ndarray:
    """d x n_classes matrix whose column c sums the columns of x with id c.

    Formed as one product with the n x n_classes indicator matrix of ids.
    """
    return x @ np.eye(n_classes)[ids]
