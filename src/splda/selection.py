"""Class-wise progressive selection of high-confidence pseudo-labels.

At iteration k of T, each class keeps its floor(k * n_c / T) most confident
samples, so every class grows its quota at the same rate and no class can
crowd out the others. Selection is recomputed from scratch each iteration
from the per-sample classes and confidences of the latest labeling.
"""

import numpy as np

from .data import SELECTION_MODES


def select(classes, confidences, iteration: int, total_iterations: int,
           mode: str) -> np.ndarray:
    """Sorted target indices admitted to the next round of fitting.

    ``progressive`` keeps, within each class, the samples whose rank by
    confidence (descending, ties to the smaller index) is below the class
    quota; ``all`` admits every sample and ``none`` admits nothing.
    """
    if not 1 <= iteration <= total_iterations:
        raise ValueError(
            f"iteration must be in 1..{total_iterations}, got {iteration}"
        )
    if mode not in SELECTION_MODES:
        raise ValueError(f"selection mode must be one of {SELECTION_MODES}, got {mode!r}")
    classes = np.asarray(classes, dtype=int)
    n = classes.size
    if mode == "none":
        return np.empty(0, dtype=int)
    if mode == "all":
        return np.arange(n)
    index = np.arange(n)
    order = np.lexsort((index, -np.asarray(confidences, dtype=float), classes))
    counts = np.bincount(classes)
    by_class = classes[order]
    # rank of each sorted row within its class: classes occupy contiguous runs
    rank = index - (np.cumsum(counts) - counts)[by_class]
    quotas = (iteration * counts) // total_iterations
    return np.sort(order[rank < quotas[by_class]])
