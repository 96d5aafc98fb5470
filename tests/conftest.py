import os

# Pin BLAS to one thread before numpy loads: the matrices here are small and
# per-call thread synchronization otherwise dominates the runtime budgets.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import itertools  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import weakref  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def brute_force_assignment(cost):
    """Exhaustive assignment oracle; first optimum in lexicographic order."""
    cost = np.asarray(cost, dtype=float)
    n = cost.shape[0]
    perms = np.array(list(itertools.permutations(range(n))))
    totals = cost[np.arange(n), perms].sum(axis=1)
    best = int(np.argmin(totals))
    return perms[best], float(totals[best])


def reference_lex_min_matching(admissible):
    """Lexicographically smallest perfect matching of an admissible graph.

    The column-by-column search ``solve_assignment`` used before its
    rotation rule: each column is tried in turn and kept when the later
    rows can still be matched. The oracle for the tie rule.
    """
    from splda.linalg import NumericalError

    n = admissible.shape[0]
    result = np.full(n, -1, dtype=int)
    used_cols = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in np.flatnonzero(admissible[i] & ~used_cols):
            used_cols[j] = True
            if _rows_matchable(admissible, i + 1, used_cols):
                result[i] = j
                break
            used_cols[j] = False
        if result[i] < 0:
            raise NumericalError("assignment refinement lost feasibility")
    return result


def _rows_matchable(admissible, start, used_cols):
    """Can rows start..n-1 be perfectly matched into the unused columns?"""
    n = admissible.shape[0]
    col_owner = np.full(n, -1, dtype=int)

    def augment(row, seen):
        for j in np.flatnonzero(admissible[row] & ~used_cols & ~seen):
            seen[j] = True
            if col_owner[j] < 0 or augment(col_owner[j], seen):
                col_owner[j] = row
                return True
        return False

    for row in range(start, n):
        if not augment(row, np.zeros(n, dtype=bool)):
            return False
    return True


_HEADER_RE = re.compile(r"^#\s*d=(\d+)\s+n=(\d+)\s+labeled=([01])\s*$")


def reference_load(path):
    r"""Per-token feature-file parser; the oracle for ``load_features``.

    Decodes the whole file, splits it with ``str.splitlines`` and reads each
    token with ``float``. Returns ``(features, labels)``, labels None for an
    unlabeled file, or raises the loader's ``path: line N: ...`` errors: the
    first faulty line wins, and within a line a byte above 0x7f wins. A
    header that declares more rows than the bytes after it can hold fails on
    line 1: n rows of d + 1 one-byte tokens, each but the last followed by
    one separator or line end, take 2 n (d + 1) - 1 bytes.
    ``splitlines`` also breaks lines at \v, \f and \x1c-\x1e, and
    ``str.split`` separates tokens at \x1c-\x1f, so this oracle holds only
    for files without those bytes.
    """
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected header")
    _reject_non_ascii(f"{path}: line 1", lines[0])
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(
            f"{path}: line 1: malformed header, expected "
            f"'# d=<int> n=<int> labeled=<0|1>'"
        )
    d, n, labeled = int(header.group(1)), int(header.group(2)), header.group(3) == "1"
    if d < 1 or n < 1:
        raise ValueError(
            f"{path}: line 1: header declares d={d} n={n}; "
            f"a dataset needs d >= 1 and n >= 1"
        )
    # the bytes after the header line, its end counted as one byte as the
    # loader reads it
    body = os.path.getsize(path) - len(lines[0]) - 1
    if 2 * n * (d + 1) - 1 > body:
        raise ValueError(
            f"{path}: line 1: header declares n={n} but the file can hold "
            f"at most {max(body + 1, 0) // (2 * (d + 1))} rows"
        )
    features = np.empty((d, n), dtype=float)
    labels = np.empty(n, dtype=int) if labeled else None
    row = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
        _reject_non_ascii(f"{path}: line {lineno}", line)
        if _HEADER_RE.match(line):
            raise ValueError(f"{path}: line {lineno}: duplicate header")
        tokens = line.split()
        if len(tokens) != d + 1:
            raise ValueError(
                f"{path}: line {lineno}: expected {d + 1} columns "
                f"(label + {d} features), found {len(tokens)}"
            )
        if row >= n:
            raise ValueError(
                f"{path}: line {lineno}: more than the declared n={n} samples"
            )
        try:
            label = int(tokens[0])
        except ValueError:
            label = None
        if label is None or "_" in tokens[0]:
            raise ValueError(
                f"{path}: line {lineno}: label {tokens[0]!r} is not an integer"
            )
        if labeled and label < 0:
            raise ValueError(
                f"{path}: line {lineno}: labeled file requires labels >= 0"
            )
        if labeled and label > np.iinfo(np.int64).max:
            raise ValueError(
                f"{path}: line {lineno}: label {tokens[0]!r} is out of range"
            )
        if not labeled and label != -1:
            raise ValueError(
                f"{path}: line {lineno}: unlabeled file requires label -1"
            )
        try:
            features[:, row] = list(map(float, tokens[1:]))
        except ValueError:
            decimal = False
        else:
            decimal = "_" not in line and np.isfinite(features[:, row]).all()
        if not decimal:
            bad = next(t for t in tokens[1:] if not _is_decimal(t))
            raise ValueError(
                f"{path}: line {lineno}: value {bad!r} is not a finite decimal"
            )
        if labeled:
            labels[row] = label
        row += 1
    if row != n:
        raise ValueError(f"{path}: expected n={n} samples, found {row}")
    return features, labels


def _reject_non_ascii(where, line):
    for ch in line:
        if ord(ch) > 0x7F:
            raise ValueError(f"{where}: non-ASCII byte 0x{ord(ch) - 0xDC00:02x}")


def _is_decimal(token):
    try:
        return "_" not in token and math.isfinite(float(token))
    except ValueError:
        return False


def reference_kmeans(x, centers, max_iter):
    """Lloyd sweeps with ``cdist`` tables and a per-cluster mean loop.

    The oracle for ``kmeans_clusters``, reseeding emptied clusters by
    ``reference_reseed``. Returns ``(centers, membership)``.
    """
    from scipy.spatial.distance import cdist

    centers = np.array(centers, dtype=float)
    k = centers.shape[1]
    assign = None
    for _ in range(max_iter):
        sq = cdist(x.T, centers.T) ** 2
        new_assign = reference_reseed(sq, np.argmin(sq, axis=1), k)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[:, c] = x[:, assign == c].mean(axis=1)
    return centers, assign


def reference_reseed(sq_dists, assign, k):
    """``assign`` with each empty cluster, in id order, given one sample.

    The sample taken is the one farthest from its own center among those
    whose cluster keeps another member; a tie goes to the smaller index.
    The oracle for ``kmeans_clusters``' reseeding.
    """
    assign = assign.copy()
    own = sq_dists[np.arange(assign.size), assign]
    for c in range(k):
        if (assign == c).any():
            continue
        movable = [i for i in range(assign.size) if (assign == assign[i]).sum() >= 2]
        if movable:
            assign[max(movable, key=lambda i: (own[i], -i))] = c
    return assign


def reference_select(classes, confidences, iteration, total_iterations, mode):
    """Per-class selection loop; the oracle for ``select``.

    Each class c keeps its floor(iteration * n_c / total_iterations) most
    confident samples, ties to the smaller index. Returns the sorted indices.
    """
    classes = np.asarray(classes, dtype=int)
    confidences = np.asarray(confidences, dtype=float)
    if mode == "none":
        return np.array([], dtype=int)
    if mode == "all":
        return np.arange(classes.size)
    chosen = []
    for c in np.unique(classes):
        rows = np.flatnonzero(classes == c)
        quota = (iteration * rows.size) // total_iterations
        # confidence descending, ties by target index ascending
        order = np.lexsort((rows, -confidences[rows]))
        chosen.append(rows[order[:quota]])
    return np.sort(np.concatenate(chosen)) if chosen else np.array([], dtype=int)


def reference_sym_eig(m, k):
    """Top-k eigenpairs of the symmetric ``m``; the oracle for ``sym_eig``.

    The divide-and-conquer driver (``evd``) and the whole-matrix sign rule
    that ``sym_eig`` used before it moved to MRRR (``evr``) and signs found a
    block of rows at a time.
    """
    import scipy.linalg

    values, vectors = scipy.linalg.eigh(np.array(m, dtype=float), driver="evd")
    return values[::-1][:k].copy(), reference_canonical_signs(vectors[:, ::-1][:, :k])


def reference_canonical_signs(vectors):
    """Flip column signs so the largest-magnitude component is positive."""
    lead = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[lead, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def watch_consumed_matrix(monkeypatch):
    """Record, at each ``linalg.signed_copy``, whether the matrix solved is freed.

    Returns the list of records. A weak reference to each matrix handed to
    ``linalg.sym_eig_in_place`` is kept; holding one does not keep it alive.
    This tells on any Python whether the frame that owns the matrix dropped
    it before the vectors were copied out.
    """
    from splda import linalg

    solved, freed = [], []
    real_solve, real_copy = linalg.sym_eig_in_place, linalg.signed_copy

    def solve(m, k):
        solved.append(weakref.ref(m))
        return real_solve(m, k)

    def copy(vectors):
        freed.append(solved.pop()() is None)
        return real_copy(vectors)

    monkeypatch.setattr(linalg, "sym_eig_in_place", solve)
    monkeypatch.setattr(linalg, "signed_copy", copy)
    return freed


def reference_pca_components(x, n_components):
    """d x k principal directions of the pooled d x n ``x``; the PCA oracle.

    The component route ``pca_fit`` replaced: on the Gram route (d > n) the
    Gram eigenvectors w are mapped to ``x w / sqrt(value)`` and given
    ``sym_eig``'s sign rule in d dimensions. ``x`` is left as it is.
    """
    x = x - x.mean(axis=1, keepdims=True)
    d, n = x.shape
    if d <= n:
        values, vectors = reference_sym_eig(x @ x.T, n_components)
    else:
        values, vectors = reference_sym_eig(x.T @ x, n_components)
    keep = values > 1e-12 * values[0]
    values, vectors = values[keep], vectors[:, keep]
    if d > n:
        vectors = reference_canonical_signs(x @ (vectors / np.sqrt(values)))
    return vectors


def reference_pca_coordinates(x, n_components):
    """k x n projections of the centred ``x`` on ``reference_pca_components``.

    Rows are oriented by ``pca_fit``'s sign rule: on the scatter route the
    components carry it; on the Gram route each row, being a multiple of a
    Gram eigenvector, has its largest-magnitude entry positive.
    """
    coords = reference_pca_components(x, n_components).T @ (
        x - x.mean(axis=1, keepdims=True))
    if x.shape[0] > x.shape[1]:
        coords = reference_canonical_signs(coords.T).T
    return coords


def reference_pencil(x, labels):
    """``(X D X^T, X L X^T + I)`` of the labeled d x m ``x``; the pencil oracle.

    The one-product form ``slpp_fit`` used before it summed the pencil from
    parts: with S the matrix of class sums and ``deg[i]`` the size of
    sample i's class, ``X D X^T = Y Y^T`` for ``Y = X * sqrt(deg)`` and
    ``X L X^T = X D X^T - S S^T``.
    """
    from splda.preprocess import class_sums

    _, ids, counts = np.unique(labels, return_inverse=True, return_counts=True)
    sums = class_sums(x, ids, counts.size)
    y = x * np.sqrt(counts[ids])
    a = y @ y.T
    b = a - sums @ sums.T
    b.flat[::b.shape[0] + 1] += 1.0
    return a, b


# Top two final probabilities (or two confidences on either side of a
# selection cut) this close may be ordered either way by two correct
# implementations, since their rounding differs; see ``reference_run``.
NEAR_TIE = 1e-9


def reference_run(src, tgt, config):
    """The adaptation loop from the paper's equations; the oracle for ``run``.

    Calls no splda kernel and keeps dense copies: PCA diagonalizes the
    scatter matrix of the pooled, centred columns; SLPP builds the m x m
    label-equality graph W, with D its degree matrix and L = D - W, and
    solves ``X D X^T p = value (X L X^T + I) p`` for the whole spectrum and
    keeps the top ``subspace_dim`` axes whose value exceeds 1e-12 of the
    largest, as PCA keeps its axes;
    ncp and sp are softmaxes of negative ``cdist`` distances to the
    prototypes and to ``reference_kmeans`` centers matched to them by
    ``brute_force_assignment``; selection is ``reference_select``. Every
    iteration refits, an empty selection included.

    Returns a dict: ``predictions`` in the caller's ids, ``selected_counts``
    with one entry per iteration (0 first), ``exempt``, the targets whose
    top two final probabilities lie within ``NEAR_TIE`` (either class is
    right for them), and ``tie_at``, the first labeling before the last
    that has such a target or that puts the cut of a class's selection
    between confidences within ``NEAR_TIE`` (None if none does). A tie
    there may send a correct run either way, so nothing after it can be
    compared.
    """
    import scipy.linalg
    from scipy.spatial.distance import cdist

    extras = [y for y in (src.eval_labels, tgt.eval_labels) if y is not None]
    vocab = np.unique(np.concatenate([src.labels, *extras]))
    ys = np.searchsorted(vocab, src.labels)
    n_classes, ns, total = vocab.size, src.n_samples, config.iterations

    def unit(x):
        norms = np.linalg.norm(x, axis=0)
        return x / np.where(norms == 0.0, 1.0, norms)

    def softmax_neg(dists):
        e = np.exp(-(dists - dists.min(axis=1, keepdims=True)))
        return e / e.sum(axis=1, keepdims=True)

    pooled = np.hstack([src.features, tgt.features])
    centred = pooled - pooled.mean(axis=1, keepdims=True)
    values, vectors = np.linalg.eigh(centred @ centred.T)
    values, vectors = values[::-1][:config.pca_dim], vectors[:, ::-1][:, :config.pca_dim]
    x = unit(vectors[:, values > 1e-12 * values[0]].T @ centred)
    xs, xt = x[:, :ns], x[:, ns:]
    mean = x.mean(axis=1, keepdims=True)
    dim = min(config.subspace_dim, x.shape[0])

    def fit(chosen, classes):
        labeled = np.hstack([xs, xt[:, chosen]])
        y = np.concatenate([ys, classes[chosen]])
        w = (y[:, None] == y[None, :]).astype(float)
        deg = np.diag(w.sum(axis=1))
        a = labeled @ deg @ labeled.T
        b = labeled @ (deg - w) @ labeled.T + np.eye(x.shape[0])
        values, vectors = scipy.linalg.eigh(a, b)
        values, p = values[::-1][:dim], vectors[:, ::-1][:, :dim]
        # the zero eigenspace holds the directions no labeled column reaches
        p = p[:, values > 1e-12 * values[0]]
        return p / np.linalg.norm(p, axis=0)

    def label(p):
        zs, zt = unit(p.T @ (xs - mean)), unit(p.T @ (xt - mean))
        protos = unit(np.stack([zs[:, ys == c].mean(axis=1) for c in range(n_classes)],
                               axis=1))
        tables = []
        if config.labeling in ("ncp", "fused"):
            tables.append(softmax_neg(cdist(zt.T, protos.T)))
        if config.labeling in ("sp", "fused"):
            centers, _ = reference_kmeans(zt, protos, 100)
            matched = np.empty_like(centers)
            matched[:, brute_force_assignment(cdist(centers.T, protos.T))[0]] = centers
            tables.append(softmax_neg(cdist(zt.T, matched.T)))
        table = np.maximum.reduce(tables)
        classes = np.argmax(table, axis=1)
        top_two = np.sort(table, axis=1)[:, -2:]
        return classes, table[np.arange(classes.size), classes], \
            top_two[:, 1] - top_two[:, 0] <= NEAR_TIE

    def cut_is_near_tie(classes, confidences, k):
        for c in np.unique(classes):
            ranked = np.sort(confidences[classes == c])[::-1]
            quota = (k * ranked.size) // total
            if 0 < quota < ranked.size and ranked[quota - 1] - ranked[quota] <= NEAR_TIE:
                return True
        return False

    nothing = np.empty(0, dtype=int)
    classes, confidences, near = label(fit(nothing, nothing))
    counts, tie_at = [0], None
    for k in range(1, total + 1):
        if tie_at is None and config.selection != "none" and (
                near.any() or config.selection == "progressive"
                and cut_is_near_tie(classes, confidences, k)):
            tie_at = k - 1
        chosen = reference_select(classes, confidences, k, total, config.selection)
        classes, confidences, near = label(fit(chosen, classes))
        counts.append(chosen.size)
    return {"predictions": vocab[classes], "selected_counts": counts,
            "exempt": near, "tie_at": tie_at}


def random_spd(rng, n, shift=None):
    g = rng.normal(size=(n, n))
    if shift is None:
        shift = n
    return g @ g.T + shift * np.eye(n)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
