"""Dimensionality reduction, per-sample normalization and class sums.

PCA (:func:`pca_fit`) reads the source and target matrices in place and
returns a coordinate matrix for each; no pooled or centred d x n copy is
made. Normalization scales a matrix that the caller owns in place. One
reader, :func:`column_blocks`, gathers every block of columns that is read.
"""

import warnings

import numpy as np

_RANK_CUTOFF = 1e-12
# Columns per block of column_blocks, and rows per block of PCA's Gram route.
_BLOCK = 256


class ZeroVectorWarning(UserWarning):
    """Zero-norm columns were passed through normalization unchanged."""


class RankTruncationWarning(UserWarning):
    """More components were requested than the data's numerical rank."""


def pca_fit(parts, n_components: int) -> list:
    """Leading principal coordinates of the pooled columns of ``parts``.

    ``parts`` is a sequence of d x n_i matrices, such as the source and the
    target features, whose columns are pooled in order; they are read and
    never written. Returns one new C-ordered k x n_i matrix per part, whose
    row i holds the coordinates of the part's columns on principal axis i.
    Side by side their rows are orthogonal, with squared norms equal to the
    leading eigenvalues of the centred scatter matrix, largest first.
    Requesting more components than the numerical rank truncates with a
    warning; eigenvalues below 1e-12 of the largest are dropped.

    The eigendecomposition runs on the smaller of the d x d scatter and the
    n x n Gram matrix of the centred pooled data. ``linalg.sym_eig_of_sum``
    sums it from blocks of at most ``_BLOCK`` columns (:func:`column_blocks`)
    or rows, each centred in its buffer, so no pooled or centred d x n copy
    is made, solves it and frees it before the eigenvectors are copied out.
    With scatter eigenvectors u_i the coordinates of a column p are
    ``u_i^T p - u_i^T mean``: one product per part, less the projected mean
    in place. With Gram eigenvectors w_i and eigenvalues l_i they are
    ``sqrt(l_i) * w_i^T``, since ``x^T u_i = x^T x w_i / sqrt(l_i)`` for the
    centred pooled x, so no d x k component matrix is formed. Each axis
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
        blocks = (np.subtract(block, mean[:, None], out=block)
                  for _, block in column_blocks([(p, np.arange(p.shape[1])) for p in parts]))
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
        scale = np.sqrt(values)[:, None]
        bounds = np.cumsum([0] + [p.shape[1] for p in parts])
        # the vectors are Fortran-ordered, so each part's product is C-ordered
        return [scale * vectors[lo:hi].T for lo, hi in zip(bounds[:-1], bounds[1:])]
    shift = (vectors.T @ mean)[:, None]
    # each part's product less the projected mean, in place
    return [np.subtract(c, shift, out=c) for c in (vectors.T @ p for p in parts)]


def column_blocks(parts):
    """Yield ``(start, block)`` over the columns ``x[:, columns]`` of each
    ``(x, columns)`` pair in ``parts``, at most ``_BLOCK`` at a time.

    ``x`` is read, never written; ``columns`` must be in range. ``start``
    counts the columns yielded before. Each block is a C-ordered d x b
    matrix in one reused buffer of ``d * min(_BLOCK, total columns)`` doubles.
    """
    d = parts[0][0].shape[0]
    buffer = np.empty(d * min(_BLOCK, sum(columns.size for _, columns in parts)))
    start = 0
    for x, columns in parts:
        for lo in range(0, columns.size, _BLOCK):
            picked = columns[lo:lo + _BLOCK]
            block = buffer[:d * picked.size].reshape(d, picked.size)
            # the indices were range-checked; "clip" gathers with no temporary
            np.take(x, picked, axis=1, out=block, mode="clip")
            yield start, block
            start += picked.size


def _centred_row_blocks(parts, mean, n: int):
    """Yield at most ``_BLOCK`` rows at a time of the centred pooled d x n
    matrix, each a C-ordered b x n matrix in one reused buffer.
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


def l2_normalize_columns(x: np.ndarray) -> np.ndarray:
    """:func:`unit_columns` of ``x``, which is returned, scaled in place.

    A ZeroVectorWarning carries how many zero columns were left unchanged.
    """
    warn_zero_columns(unit_columns(x))
    return x


def unit_columns(x: np.ndarray) -> int:
    """Scale every nonzero column of the float matrix ``x`` to unit norm.

    ``x`` is overwritten in place; a read-only matrix raises ValueError.
    Returns the number of zero columns, which stay unchanged. ``np.einsum``
    sums the squared norms without a squared copy of ``x``, row by row as
    ``np.linalg.norm`` does on a C-ordered ``x``, giving the same bits.
    """
    norms = np.sqrt(np.einsum("ij,ij->j", x, x))
    zero = norms == 0.0
    norms[zero] = 1.0
    np.divide(x, norms, out=x)
    return int(zero.sum())


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
