"""Dense linear-algebra kernels used throughout the pipeline.

``symmetric_sum`` adds symmetric products block by block. ``sym_eig_of_sum``
solves such a sum, PCA's scatter or Gram matrix, and ``gen_eig_in_place``
the symmetric-definite pencil that SLPP sums, both through
``scipy.linalg.eigh``. ``solve_assignment`` is an exact minimum-cost
assignment solver. Everything is deterministic: eigenvector signs are
canonicalized and assignment ties are resolved lexicographically, by an
O(n^3) rotation rule on the Hungarian matching.

Neither eigensolver copies its matrices. Each matrix is summed into the
lower triangle of a C-ordered matrix, and no entry above it is read. scipy
copies a C-ordered matrix into Fortran order before LAPACK sees it, so
``overwrite_a`` alone would not spare that copy. The transpose is
Fortran-ordered and its upper triangle is the lower triangle, so the
transpose goes to LAPACK with ``lower=False``, which then works in place.
"""

import re

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk

# gen_eig_in_place solves for the top k pairs only when k is at most n / 8;
# above that the partial solver is no faster than the full spectrum.
_PARTIAL_SPECTRUM_RATIO = 8
# scipy reports LAPACK's info = n + i, a Cholesky factorization of b that
# failed at pivot i, as the order of b's leading minor.
_PIVOT = re.compile(r"leading minor of order (\d+)")


class NumericalError(RuntimeError):
    """A dense factorization failed (non-convergence or indefiniteness)."""


def symmetric_sum(blocks, total: np.ndarray, rows: bool = False,
                  alpha: float = 1.0) -> np.ndarray:
    """Add ``alpha * b b^T`` (``rows``: ``alpha * b^T b``) over C-ordered blocks ``b``.

    The sum is added in place to the lower triangle of the C-ordered matrix
    ``total``, which is returned; its strict upper triangle is left as it
    was. Each block is added by one symmetric rank-k update (BLAS
    ``syrk``), so no per-block product of the order of ``total`` is formed.
    """
    for block in blocks:
        # BLAS takes the transposes, which are Fortran-ordered views, without
        # a copy; its upper triangle of total.T is total's lower triangle
        total = dsyrk(alpha, block.T, beta=1.0, c=total.T, trans=0 if rows else 1,
                      overwrite_c=1).T
    return total


def _check(k: int, **matrices: np.ndarray) -> None:
    """Check finite square matrices of one order n, and ``1 <= k <= n``.

    ``k`` goes first: the finiteness reductions fail at order 0.
    """
    for name, m in matrices.items():
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    shapes = [m.shape for m in matrices.values()]
    if len(set(shapes)) > 1:
        raise ValueError("order mismatch: a is {}, b is {}".format(*shapes))
    n = shapes[0][0]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in 1..{n}, got {k}")
    for name, m in matrices.items():
        # max and min are NaN when any entry is
        if not np.isfinite([m.max(), m.min()]).all():
            raise ValueError(f"{name} contains non-finite entries")


def _canonical_signs(vectors: np.ndarray) -> np.ndarray:
    """Flip column signs in place so the largest-magnitude component is positive.

    A tie goes to the first such row. Callers sign only once the matrix they
    solved, where they own it, is freed, so the magnitude matrix of the size
    of ``vectors`` does not raise a solve's peak.
    """
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs
    return vectors


def _eigh_descending(a: np.ndarray, b: np.ndarray | None = None,
                     k: int | None = None):
    """Eigenpairs of ``a`` (or of the pencil ``a``, ``b``), largest first.

    All pairs are computed unless ``k`` is given with ``b``; then only the
    top k, by the expert generalized driver. ``a`` and ``b`` are C-ordered
    and hold their matrices in the lower triangle; LAPACK reads no other
    entry and overwrites them.
    """
    # finiteness was checked with the shape
    owned = {"lower": False, "overwrite_a": True, "overwrite_b": True, "check_finite": False}
    try:
        if b is None:
            values, vectors = scipy.linalg.eigh(a.T, driver="evr", **owned)
        elif k is None:
            values, vectors = scipy.linalg.eigh(a.T, b.T, **owned)
        else:
            n = a.shape[0]
            values, vectors = scipy.linalg.eigh(
                a.T, b.T, subset_by_index=[n - k, n - 1], driver="gvx", **owned)
    except scipy.linalg.LinAlgError as exc:
        pivot = _PIVOT.search(str(exc)) if b is not None else None
        if pivot:
            raise NumericalError(
                f"b is not positive definite: Cholesky failed at pivot {pivot[1]}"
            ) from exc
        raise NumericalError(f"eigendecomposition failed to converge: {exc}") from exc
    return values[::-1], vectors[:, ::-1]


def sym_eig_of_sum(blocks, order: int, k: int, rows: bool = False):
    """Top-k eigenpairs of the :func:`symmetric_sum` ``m`` of ``blocks`` from zero.

    ``blocks`` and ``rows`` are as in :func:`symmetric_sum`; ``m`` has order
    ``order`` and must be finite, and ``1 <= k <= order``. Returns
    ``(values, vectors)``: the k largest eigenvalues, descending, and
    unit-norm eigenvectors as Fortran-ordered columns, each with its
    largest-magnitude component positive (a tie goes to the first row).
    Each pair satisfies ``|m v - value * v| <= 1e-8 * |m|_F``.

    ``m`` is solved for its full spectrum by LAPACK's MRRR driver ``evr``
    (Dhillon & Parlett 2004), which uses it as scratch and writes the
    eigenvectors to a buffer of their own with O(n) workspace. This frame
    creates ``m`` and frees it before the top k vectors are signed and
    copied out (before Python 3.11 an argument stays referenced by its
    caller until the call returns), so a solve holds two order-n matrices.
    The divide-and-conquer driver would hold three: ``m``, overwritten with
    the eigenvectors, and a 2n^2 workspace. MRRR is a little slower. On
    ``G G^T``, G an n x (n + 50) normal matrix, with one BLAS thread on a
    2-vCPU Xeon, it took 0.61-0.62 s against divide and conquer's
    0.56-0.57 s at n=1,430, 13-16 against 11-15 ms at n=350, and 1.77-1.83
    against 1.54-1.66 s at n=2,048 (the minimum of five interleaved calls,
    two runs).
    """
    m = symmetric_sum(blocks, np.zeros((order, order)), rows=rows)
    _check(k, m=m)
    values, vectors = _eigh_descending(m)
    # LAPACK left only scratch in m
    del m
    return values[:k].copy(), _canonical_signs(vectors[:, :k]).copy(order="F")


def gen_eig_in_place(a: np.ndarray, b: np.ndarray, k: int):
    """Top-k pairs of the symmetric-definite pencil ``a p = value * b p``.

    ``a`` and ``b`` are finite C-ordered float matrices of one order n,
    held in their lower triangles; no entry above is read, and both are
    overwritten. ``1 <= k <= n``. ``b`` must be positive definite, or a
    NumericalError names the pivot at which its Cholesky factorization
    fails; ``b = I`` poses the standard problem of ``a``, which may be
    indefinite. Returns ``(values, vectors)``: the k largest values,
    descending, and unit-norm vectors, each with its largest-magnitude
    component positive (a tie goes to the first row). Each pair satisfies
    ``|a p - value * b p| <= 1e-8 * (|a|_F + |b|_F)``.

    The top k pairs alone are solved by LAPACK's expert driver ``gvx`` when
    ``8 * k <= n``, and the full spectrum otherwise by the
    divide-and-conquer driver ``gvd``. With one BLAS thread, ``gvx`` took
    0.59x of ``gvd``'s time at n=1024, k=64 and 0.73x at k=128, but 1.10x
    at k=384; at n=512 it took 0.65x at k=64 and 0.99x at k=128; at
    n=128, k=128 it took 2.5x. The vectors are rescaled into an array of
    their own before they are signed, so the buffer ``gvx`` writes them to
    is freed first; ``gvd`` writes them over ``a``.
    """
    _check(k, a=a, b=b)
    n = a.shape[0]
    partial = _PARTIAL_SPECTRUM_RATIO * k <= n
    values, vectors = _eigh_descending(a, b, k if partial else None)
    p = vectors[:, :k]
    del vectors
    # the rescaled copy drops the last view of LAPACK's buffer before signing
    p = p / np.linalg.norm(p, axis=0, keepdims=True)
    return values[:k].copy(), _canonical_signs(p)


def solve_assignment(c) -> np.ndarray:
    """Exact minimum-cost one-to-one assignment for a square cost matrix.

    Returns the assignment vector, which sends row i to column
    ``assignment[i]``. Uses the Hungarian method with dual potentials,
    O(n^3). Among equal-cost optima the lexicographically smallest
    assignment vector is returned.

    Every optimum uses only admissible edges, those of zero reduced cost
    under the optimal potentials. Starting from the Hungarian matching, the
    rows are fixed in order, each to the smallest admissible column it can
    take by rotating the matching along a cycle of unfixed rows. The
    matching stays perfect after every rotation, and the rule costs O(n^3)
    whether or not the optimum is unique.
    """
    c = np.asarray(c, dtype=float)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {c.shape}")
    if not np.isfinite(c).all():
        raise ValueError("cost matrix contains non-finite entries")
    if (c < 0).any():
        raise ValueError("cost matrix entries must be nonnegative")
    n = c.shape[0]
    row_to_col, u, v = _hungarian(c)
    # Complementary slackness: every optimal assignment lives on edges whose
    # reduced cost is zero under the optimal potentials.
    tol = 1e-9 * (1.0 + float(np.abs(c).max()))
    admissible = (c - u[:, None] - v[None, :]) <= tol
    admissible[np.arange(n), row_to_col] = True
    return _lex_first_matching(admissible, row_to_col)


def _hungarian(cost: np.ndarray):
    """Potentials-based Hungarian method; returns (row_to_col, u, v)."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    match_row = np.zeros(n + 1, dtype=int)  # column j -> matched row, 0 if free
    way = np.zeros(n + 1, dtype=int)
    for i in range(1, n + 1):
        match_row[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = match_row[j0]
            cur = cost[i0 - 1] - u[i0] - v[1:]
            better = ~used[1:] & (cur < minv[1:])
            minv[1:] = np.where(better, cur, minv[1:])
            way[1:] = np.where(better, j0, way[1:])
            reach = np.where(used[1:], np.inf, minv[1:])
            j1 = int(np.argmin(reach)) + 1
            delta = reach[j1 - 1]
            rows = match_row[np.flatnonzero(used)]
            u[rows] += delta
            v[np.flatnonzero(used)] -= delta
            minv[1:][~used[1:]] -= delta
            j0 = j1
            if match_row[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match_row[j0] = match_row[j1]
            j0 = j1
    row_to_col = np.empty(n, dtype=int)
    for j in range(1, n + 1):
        row_to_col[match_row[j] - 1] = j - 1
    return row_to_col, u[1:], v[1:]


def _lex_first_matching(admissible: np.ndarray, row_to_col: np.ndarray) -> np.ndarray:
    """Lexicographically smallest perfect matching of the admissible graph.

    ``row_to_col`` is a perfect matching M of the graph. Rows are fixed in
    order. Row i may take an admissible column j of an unfixed row r when
    r reaches i through unfixed rows, each taking the next one's column:
    then rotating M along that cycle keeps it perfect. One reverse
    breadth-first search from row i finds every such r, so each row costs
    O(n^2) and the whole rule O(n^3).
    """
    n = admissible.shape[0]
    row_to_col = row_to_col.copy()
    parent = np.empty(n, dtype=int)
    for i in range(n):
        unreached = np.arange(n) > i
        queue = [i]
        # unfixed rows that can take the column of a row already queued
        for s in queue:
            found = np.flatnonzero(unreached & admissible[:, row_to_col[s]])
            unreached[found] = False
            parent[found] = s
            queue.extend(found.tolist())
        cols = row_to_col[queue]
        r = queue[int(np.argmin(np.where(admissible[i, cols], cols, n)))]
        taken = row_to_col[r]
        while r != i:
            row_to_col[r] = row_to_col[parent[r]]
            r = parent[r]
        row_to_col[i] = taken
    return row_to_col
