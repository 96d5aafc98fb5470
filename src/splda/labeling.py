"""Pseudo-labels from class prototypes and target clusters.

Two complementary views give per-class conditional probabilities for every
target sample, and both have one form: a softmax over the negated distances
to d x C centers with one column per class. The centers are the source
class prototypes (ncp) or the K-means cluster centers matched one-to-one
with the classes (sp). :func:`pseudo_label` is the one place that reads the
labeling mode: it builds the tables that mode names, fuses them by their
elementwise maximum and labels every target.
"""

import numpy as np

from .data import LABELING_MODES
from .linalg import solve_assignment
from .preprocess import class_sums, l2_normalize_columns

KMEANS_MAX_ITER = 100


def compute_prototypes(embedded, labels, n_classes: int) -> np.ndarray:
    """d x C matrix of per-class means of embedded source columns, L2-normalized."""
    x = np.asarray(embedded, dtype=float)
    labels = np.asarray(labels, dtype=int)
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"no samples for class(es) {missing}")
    sums = class_sums(x, labels, n_classes)
    return l2_normalize_columns(sums / counts)


def _squared_distances(x, centers) -> np.ndarray:
    """n x k table of squared Euclidean distances between columns.

    Formed as ||x||^2 - 2 x^T c + ||c||^2 with one product, and clipped at 0
    where rounding would leave a tiny negative for coincident columns.
    """
    x = np.asarray(x, dtype=float)
    centers = np.asarray(centers, dtype=float)
    if x.shape[0] != centers.shape[0]:
        raise ValueError(
            f"dimension mismatch: samples have d={x.shape[0]}, "
            f"centers have d={centers.shape[0]}"
        )
    sq = x.T @ centers
    sq *= -2.0
    sq += np.einsum("ij,ij->j", x, x)[:, None]
    sq += np.einsum("ij,ij->j", centers, centers)
    return np.maximum(sq, 0.0, out=sq)


def _probabilities(x, centers) -> np.ndarray:
    """Row-stochastic n x k table of p(class | sample): the softmax of the
    negated Euclidean distances between the columns of ``x`` and ``centers``."""
    d = np.sqrt(_squared_distances(x, centers))
    # shifting by the row minimum distance keeps the exponentials in range
    # without changing the ratios
    table = np.exp(d.min(axis=1, keepdims=True) - d)
    table /= table.sum(axis=1, keepdims=True)
    return table


def kmeans_clusters(tgt_embedded, init, max_iter: int = KMEANS_MAX_ITER):
    """Lloyd iterations seeded at the columns of ``init`` (the prototypes).

    Returns ``(centers, membership)``: the d x k centers and each sample's
    cluster id. Runs until the assignment reaches a fixpoint or ``max_iter``
    sweeps. An emptied cluster is re-seeded at the sample farthest from its
    own center. The prototype seeding leaves nothing random.
    """
    x = np.asarray(tgt_embedded, dtype=float)
    centers = np.asarray(init, dtype=float)
    k = centers.shape[1]
    n = x.shape[1]
    if n < k:
        raise ValueError(f"need at least {k} target samples, got {n}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    assign = None
    for _ in range(max_iter):
        sq = _squared_distances(x, centers)
        new_assign = np.argmin(sq, axis=1)
        new_assign = _reseed_empty(sq, new_assign, k)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = class_sums(x, assign, k) / np.bincount(assign, minlength=k)
    return centers, assign


def _reseed_empty(sq_dists: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    counts = np.bincount(assign, minlength=k)
    if (counts > 0).all():
        return assign
    assign = assign.copy()
    own = sq_dists[np.arange(assign.size), assign].copy()
    for c in np.flatnonzero(counts == 0):
        # steal the globally worst-fitting sample, but never empty a
        # singleton cluster doing so
        for i in np.argsort(-own, kind="stable"):
            if counts[assign[i]] >= 2:
                counts[assign[i]] -= 1
                assign[i] = c
                counts[c] = 1
                own[i] = -np.inf
                break
    return assign


def match_clusters(centers, protos) -> np.ndarray:
    """Cluster centers re-indexed by class via minimum-cost one-to-one matching.

    The cost of pairing cluster i with class j is the Euclidean distance
    between their centers; column j of the result is the center matched to
    class j.
    """
    if centers.shape != protos.shape:
        raise ValueError(
            f"cluster/prototype shape mismatch: {centers.shape} vs {protos.shape}"
        )
    by_class = np.empty_like(centers)
    by_class[:, solve_assignment(np.sqrt(_squared_distances(centers, protos)))] = centers
    return by_class


def pseudo_label(tgt_embedded, protos, mode: str):
    """Per-sample ``(classes, confidences)`` of the targets under ``mode``.

    ``ncp`` reads the table of the prototypes, ``sp`` the table of the
    k-means centers matched to the classes, and ``fused`` the elementwise
    maximum of both. The label is the argmax class (ties go to the smallest
    class id) and the confidence is the winning probability.
    """
    if mode not in LABELING_MODES:
        raise ValueError(f"unknown labeling mode {mode!r}")
    table = None if mode == "sp" else _probabilities(tgt_embedded, protos)
    if mode != "ncp":
        centers, _ = kmeans_clusters(tgt_embedded, protos)
        sp = _probabilities(tgt_embedded, match_clusters(centers, protos))
        table = sp if table is None else np.maximum(table, sp, out=table)
    classes = np.argmax(table, axis=1)
    return classes, table[np.arange(table.shape[0]), classes]
