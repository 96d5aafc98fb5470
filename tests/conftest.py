import os

# Pin BLAS to one thread before numpy loads: the matrices here are small and
# per-call thread synchronization otherwise dominates the runtime budgets.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import itertools  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402

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


_HEADER_RE = re.compile(r"^#\s*d=(\d+)\s+n=(\d+)\s+labeled=([01])\s*$")


def reference_load(path):
    r"""Per-token feature-file parser; the oracle for ``load_features``.

    Decodes the whole file, splits it with ``str.splitlines`` and reads each
    token with ``float``. Returns ``(features, labels)``, labels None for an
    unlabeled file, or raises the loader's ``path: line N: ...`` errors.
    ``splitlines`` also breaks lines at \v, \f and \x1c-\x1e, and
    ``str.split`` separates tokens at \x1c-\x1f, so this oracle holds only
    for files without those bytes.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raw = exc.object
        lineno = len((raw[:exc.start].decode("ascii") + "?").splitlines())
        raise ValueError(
            f"{path}: line {lineno}: non-ASCII byte 0x{raw[exc.start]:02x}"
        ) from None
    if not lines:
        raise ValueError(f"{path}: line 1: empty file, expected header")
    header = _HEADER_RE.match(lines[0])
    if header is None:
        raise ValueError(
            f"{path}: line 1: malformed header, expected "
            f"'# d=<int> n=<int> labeled=<0|1>'"
        )
    d, n, labeled = int(header.group(1)), int(header.group(2)), header.group(3) == "1"
    features = np.empty((d, n), dtype=float)
    labels = np.empty(n, dtype=int) if labeled else None
    row = 0
    for lineno, line in enumerate(lines[1:], start=2):
        if not line or line.isspace():
            continue
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


def _is_decimal(token):
    try:
        return "_" not in token and math.isfinite(float(token))
    except ValueError:
        return False


def reference_kmeans(x, centers, max_iter):
    """Lloyd sweeps with ``cdist`` tables and a per-cluster mean loop.

    The oracle for ``kmeans_clusters``, reseeding emptied clusters the same
    way. Returns ``(centers, membership)``.
    """
    from scipy.spatial.distance import cdist

    from splda.labeling import _reseed_empty

    centers = np.array(centers, dtype=float)
    k = centers.shape[1]
    assign = None
    for _ in range(max_iter):
        sq = cdist(x.T, centers.T) ** 2
        new_assign = _reseed_empty(sq, np.argmin(sq, axis=1), k)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            centers[:, c] = x[:, assign == c].mean(axis=1)
    return centers, assign


def random_spd(rng, n, shift=None):
    g = rng.normal(size=(n, n))
    if shift is None:
        shift = n
    return g @ g.T + shift * np.eye(n)


@pytest.fixture
def rng():
    return np.random.default_rng(0)
