"""Supervised locality-preserving projection onto the aligned subspace.

The projection pulls same-class samples together regardless of their
domain. Its similarity graph connects two samples exactly when their labels
match, so both scatter matrices of the induced generalized eigenproblem
follow from per-class column sums; the m x m graph is never formed.
Embeddings are centered on the mean of all source and target projections
and then L2-normalized.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .preprocess import class_sums, l2_normalize_columns


@dataclass(frozen=True)
class SlppModel:
    """Learned projection plus the mean used to center embeddings."""

    projection: np.ndarray
    embedding_mean: np.ndarray

    @property
    def n_components(self) -> int:
        return self.projection.shape[1]


def _pencil(x: np.ndarray, labels: np.ndarray):
    """``(X D X^T, X L X^T + I)`` of the label-equality graph, from class sums.

    With S the matrix of class sums and ``deg[i]`` the size of sample i's
    class, ``X D X^T = Y Y^T`` for ``Y = X * sqrt(deg)`` and
    ``X L X^T = X D X^T - S S^T``. Both products have the form ``M M^T``,
    which numpy computes as one symmetric product, so both matrices come
    out exactly symmetric.
    """
    _, ids, counts = np.unique(labels, return_inverse=True, return_counts=True)
    sums = class_sums(x, ids, counts.size)
    y = x * np.sqrt(counts[ids])
    a = y @ y.T
    b = a - sums @ sums.T
    b.flat[::b.shape[0] + 1] += 1.0
    return a, b


def slpp_fit(labeled_data, labels, n_components: int, mean=None) -> SlppModel:
    """Fit the projection on labeled columns (source plus selected targets).

    Solves ``X D X^T p = value (X L X^T + I) p`` for the top eigenvectors,
    where D and L are the degree matrix and Laplacian of the graph that
    links samples with equal labels. Labels may be any integers; only their
    equality matters. ``mean`` is the d-vector mean of the full
    source+target data, and the embedding mean is its projection; it
    defaults to the mean of the labeled columns.
    """
    x = np.asarray(labeled_data, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if x.ndim != 2:
        raise ValueError("labeled_data must be a 2-D matrix")
    d, m = x.shape
    if labels.shape != (m,):
        raise ValueError(f"labels must align with the {m} data columns")
    if not 1 <= n_components <= d:
        raise ValueError(f"n_components must be in 1..{d}, got {n_components}")
    _, projection = linalg.gen_eig(*_pencil(x, labels), n_components)
    mean = x.mean(axis=1) if mean is None else np.asarray(mean, dtype=float)
    if mean.shape != (d,):
        raise ValueError(f"mean must be a length-{d} vector, got shape {mean.shape}")
    embedding_mean = projection.T @ mean
    return SlppModel(projection=projection, embedding_mean=embedding_mean)


def embed(model: SlppModel, x) -> np.ndarray:
    """Project columns, subtract the embedding mean and L2-normalize."""
    x = np.asarray(x, dtype=float)
    if x.shape[0] != model.projection.shape[0]:
        raise ValueError(
            f"dimension mismatch: model expects d={model.projection.shape[0]}, "
            f"got {x.shape[0]}"
        )
    centered = model.projection.T @ x - model.embedding_mean[:, None]
    return l2_normalize_columns(centered)
