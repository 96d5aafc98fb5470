"""Supervised locality-preserving projection onto the aligned subspace.

The projection pulls same-class samples together regardless of their
domain. Its similarity graph connects two samples exactly when their labels
match, so both scatter matrices of the induced generalized eigenproblem
follow from per-class column sums; the m x m graph is never formed, and
neither is a d x m copy of the labeled columns.
A fit returns the d x k projection P. A sample x embeds as P^T x less the
projection of the pooled mean of all source and target columns, then
L2-normalized.
"""

import warnings

import numpy as np

from . import linalg
from .preprocess import _RANK_CUTOFF, RankTruncationWarning, class_sums, l2_normalize_columns

# Labeled columns per scaled block of the pencil sum.
_BLOCK = 256


def _pencil(source, labels, target, chosen, target_labels):
    """``(X D X^T, X L X^T + I)`` of the label-equality graph, from class sums.

    X holds the labeled columns: all of ``source`` under ``labels``, then
    the ``chosen`` columns of ``target`` under ``target_labels``. With S the
    matrix of class sums and ``deg[i]`` the size of sample i's class,
    ``X D X^T = Y Y^T`` for ``Y = X * sqrt(deg)`` and
    ``X L X^T = X D X^T - S S^T``. ``Y Y^T`` is summed by
    ``linalg.symmetric_sum`` over blocks of at most ``_BLOCK`` columns of
    X, gathered and scaled in one reused buffer, and S over the same blocks
    before they are scaled, so no d x m copy of X or Y is made. The second
    matrix is a copy of the first less ``S S^T``, by one more symmetric
    update. Both come out exactly symmetric.
    """
    _, ids, counts = np.unique(np.concatenate([labels, target_labels]),
                               return_inverse=True, return_counts=True)
    scale = np.sqrt(counts[ids])
    d = source.shape[0]
    sums = np.zeros((d, counts.size))

    def scaled_blocks():
        buffer = np.empty(d * _BLOCK)
        start = 0
        for x, columns in ((source, np.arange(source.shape[1])), (target, chosen)):
            for lo in range(0, columns.size, _BLOCK):
                picked = columns[lo:lo + _BLOCK]
                stop = start + picked.size
                block = buffer[:d * picked.size].reshape(d, picked.size)
                # the indices were range-checked; "clip" gathers with no temporary
                np.take(x, picked, axis=1, out=block, mode="clip")
                sums[:] += class_sums(block, ids[start:stop], counts.size)
                block *= scale[start:stop]
                start = stop
                yield block

    a = linalg.symmetric_sum(scaled_blocks(), np.zeros((d, d)))
    b = linalg.symmetric_sum([sums], a.copy(), alpha=-1.0)
    b.flat[::d + 1] += 1.0
    return a, b


def slpp_fit(source, labels, n_components: int, *, target=None, chosen=(),
             target_labels=()) -> np.ndarray:
    """The d x k projection fitted on the source plus chosen target columns.

    The labeled columns are all of ``source`` under ``labels`` and, when
    ``target`` is given, its ``chosen`` columns under ``target_labels``
    (the pseudo-labels, aligned with ``chosen``). They are read in place;
    no labeled d x m copy is made. Solves
    ``X D X^T p = value (X L X^T + I) p`` for the top eigenvectors, where D
    and L are the degree matrix and Laplacian of the graph that links
    labeled columns with equal labels. Labels may be any integers; only
    their equality matters. The columns of the result are the
    eigenvectors, by decreasing eigenvalue.

    A direction that no labeled column reaches has eigenvalue 0, and any
    basis of those directions is as good as another. So eigenpairs whose
    value is at most 1e-12 of the largest are dropped, as PCA drops its
    null directions, with a :class:`RankTruncationWarning` that names the
    requested and kept counts.
    """
    source = np.asarray(source, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if source.ndim != 2:
        raise ValueError("source must be a 2-D matrix")
    d, ns = source.shape
    if labels.shape != (ns,):
        raise ValueError(f"labels must align with the {ns} source columns")
    target = np.empty((d, 0)) if target is None else np.asarray(target, dtype=float)
    chosen = np.asarray(chosen, dtype=int)
    target_labels = np.asarray(target_labels, dtype=int)
    if target.ndim != 2 or target.shape[0] != d:
        raise ValueError(
            f"target must be a 2-D matrix with {d} rows, got shape {target.shape}")
    nt = target.shape[1]
    if chosen.ndim != 1 or (chosen.size and not 0 <= chosen.min() <= chosen.max() < nt):
        raise ValueError(f"chosen must be a vector of indices into the {nt} target columns")
    if target_labels.shape != chosen.shape:
        raise ValueError(f"target_labels must align with the {chosen.size} chosen columns")
    if not 1 <= n_components <= d:
        raise ValueError(f"n_components must be in 1..{d}, got {n_components}")
    # the pencil is this fit's own, so it is solved in place
    values, projection = linalg.gen_eig_in_place(
        *_pencil(source, labels, target, chosen, target_labels), n_components)
    if values[0] <= 0.0:
        raise ValueError("the labeled columns are all zero; SLPP is undefined")
    kept = int(np.count_nonzero(values > _RANK_CUTOFF * values[0]))
    if kept < n_components:
        warnings.warn(
            f"requested {n_components} SLPP components but the labeled columns "
            f"have rank {kept}; truncating",
            RankTruncationWarning,
        )
        projection = projection[:, :kept]
    return projection


def embed(projection, x, mean) -> np.ndarray:
    """Project columns, subtract the projected ``mean`` and L2-normalize.

    ``mean`` is a d-vector, in the run the mean of all source and target
    columns, so the embeddings are centred on the mean of their projections.
    """
    x = np.asarray(x, dtype=float)
    mean = np.asarray(mean, dtype=float)
    d = projection.shape[0]
    if x.shape[0] != d:
        raise ValueError(
            f"dimension mismatch: projection expects d={d}, got {x.shape[0]}")
    if mean.shape != (d,):
        raise ValueError(f"mean must be a length-{d} vector, got shape {mean.shape}")
    return l2_normalize_columns(projection.T @ x - (projection.T @ mean)[:, None])
