"""Pseudo-label probabilities from class prototypes and target clusters.

Two complementary views produce per-class conditional probabilities for
every target sample: distances to source class prototypes, and distances
to K-means cluster centers that have been matched one-to-one with the
classes. Fusing the two tables takes the elementwise maximum.
"""

from dataclasses import dataclass

import numpy as np

from .data import PseudoLabelSet
from .linalg import solve_assignment
from .preprocess import class_sums, l2_normalize_columns

KMEANS_MAX_ITER = 100


@dataclass(frozen=True)
class PrototypeSet:
    """One L2-normalized class-mean column per class."""

    vectors: np.ndarray

    @property
    def n_classes(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class ClusterSet:
    """Cluster centers with per-sample membership ids.

    Before matching, center columns are in arbitrary cluster order; after
    :func:`match_clusters` they are indexed by class and membership holds
    class ids.
    """

    centers: np.ndarray
    membership: np.ndarray


def compute_prototypes(embedded, labels, n_classes: int | None = None) -> PrototypeSet:
    """Per-class mean of embedded source columns, then L2-normalized."""
    x = np.asarray(embedded, dtype=float)
    labels = np.asarray(labels, dtype=int)
    if n_classes is None:
        n_classes = int(labels.max()) + 1
    counts = np.bincount(labels, minlength=n_classes)
    if (counts == 0).any():
        missing = np.flatnonzero(counts == 0).tolist()
        raise ValueError(f"no samples for class(es) {missing}")
    sums = class_sums(x, labels, n_classes)
    return PrototypeSet(vectors=l2_normalize_columns(sums / counts))


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


def _distance_table(embedded, centers) -> np.ndarray:
    """n x k table of Euclidean distances between columns."""
    return np.sqrt(_squared_distances(embedded, centers))


def _softmax_neg_distance(dists: np.ndarray) -> np.ndarray:
    # exp(-d) / sum_y exp(-d): shifting by the row minimum distance keeps
    # the exponentials in range without changing the ratios.
    logits = -(dists - dists.min(axis=1, keepdims=True))
    table = np.exp(logits)
    return table / table.sum(axis=1, keepdims=True)


def ncp_probabilities(tgt_embedded, protos: PrototypeSet) -> np.ndarray:
    """Row-stochastic table of p(class | sample) from prototype distances."""
    return _softmax_neg_distance(_distance_table(tgt_embedded, protos.vectors))


def sp_probabilities(tgt_embedded, matched: ClusterSet) -> np.ndarray:
    """Row-stochastic table of p(class | sample) from matched cluster centers."""
    return _softmax_neg_distance(_distance_table(tgt_embedded, matched.centers))


def kmeans_clusters(tgt_embedded, init: PrototypeSet,
                    max_iter: int = KMEANS_MAX_ITER) -> ClusterSet:
    """Lloyd iterations seeded at the class prototypes.

    Runs until the assignment reaches a fixpoint or ``max_iter`` sweeps.
    An emptied cluster is re-seeded at the sample farthest from its own
    center. The prototype seeding leaves nothing random.
    """
    x = np.asarray(tgt_embedded, dtype=float)
    k = init.n_classes
    n = x.shape[1]
    if n < k:
        raise ValueError(f"need at least {k} target samples, got {n}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    centers = init.vectors
    assign = None
    for _ in range(max_iter):
        sq = _squared_distances(x, centers)
        new_assign = np.argmin(sq, axis=1)
        new_assign = _reseed_empty(sq, new_assign, k)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        centers = class_sums(x, assign, k) / np.bincount(assign, minlength=k)
    return ClusterSet(centers=centers, membership=assign)


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


def match_clusters(clusters: ClusterSet, protos: PrototypeSet) -> ClusterSet:
    """Re-index cluster centers by class via minimum-cost one-to-one matching.

    The cost of pairing cluster i with class j is the Euclidean distance
    between their centers.
    """
    if clusters.centers.shape != protos.vectors.shape:
        raise ValueError(
            f"cluster/prototype shape mismatch: {clusters.centers.shape} "
            f"vs {protos.vectors.shape}"
        )
    cost = _distance_table(clusters.centers, protos.vectors)
    matching = solve_assignment(cost)
    perm = matching.assignment
    by_class = np.empty_like(clusters.centers)
    by_class[:, perm] = clusters.centers
    return ClusterSet(centers=by_class, membership=perm[clusters.membership])


def fuse_and_label(p1, p2, mode: str) -> PseudoLabelSet:
    """Pick per-sample labels and confidences from the probability tables.

    ``ncp`` uses p1 alone, ``sp`` uses p2 alone, ``fused`` takes the
    elementwise maximum of both. The label is the argmax class (ties go to
    the smallest class id) and the confidence is the winning probability.
    """
    if mode == "ncp":
        table = np.asarray(p1, dtype=float)
    elif mode == "sp":
        table = np.asarray(p2, dtype=float)
    elif mode == "fused":
        p1 = np.asarray(p1, dtype=float)
        p2 = np.asarray(p2, dtype=float)
        if p1.shape != p2.shape:
            raise ValueError(f"table shape mismatch: {p1.shape} vs {p2.shape}")
        table = np.maximum(p1, p2)
    else:
        raise ValueError(f"unknown labeling mode {mode!r}")
    classes = np.argmax(table, axis=1)
    confidences = table[np.arange(table.shape[0]), classes]
    return PseudoLabelSet(indices=np.arange(table.shape[0]),
                          classes=classes, confidences=confidences)
