"""Feature-file parsing, synthetic pair generation, the accuracy metric and
the 1NN baseline.

The on-disk format is deliberately plain so any feature-extraction script
can produce it: a single header line ``# d=<int> n=<int> labeled=<0|1>``
followed by one sample per line, ``<label> <f1> ... <fd>`` with ASCII
decimals and a label of -1 when the file is unlabeled. Target-file labels
are routed to the evaluation-only channel on load.

Nothing here imports scipy, so the ``synth`` and ``baseline-1nn`` commands
start without it.
"""

import math
import re

import numpy as np

from .data import DomainDataset, validate_pair
from .preprocess import l2_normalize_columns

_HEADER_RE = re.compile(r"^#\s*d=(\d+)\s+n=(\d+)\s+labeled=([01])\s*$")

# Class blobs are unit-variance Gaussians; target samples get a rotation of
# this many radians per unit of shift, so zero shift means identical domains.
_ROTATION_PER_SHIFT = 0.05


def load_features(path, domain: str = "source") -> DomainDataset:
    """Parse a feature file into a dataset.

    ``domain`` controls label routing: source labels stay on the training
    channel, target labels are quarantined into ``eval_labels``.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        # read() decodes the whole file in one call, so exc.object holds all
        # of its bytes; count the lines up to and including the offending one
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
    if domain == "target":
        return DomainDataset(features, labels=None, eval_labels=labels, domain="target")
    return DomainDataset(features, labels=labels, domain="source")


def _is_decimal(token: str) -> bool:
    """Whether ``float`` reads the token as a finite number without underscores."""
    try:
        return "_" not in token and math.isfinite(float(token))
    except ValueError:
        return False


def save_features(dataset: DomainDataset, path) -> None:
    """Write a dataset in the interchange format; floats round-trip exactly."""
    labels = dataset.labels if dataset.labels is not None else dataset.eval_labels
    labeled = labels is not None
    d, n = dataset.features.shape
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"# d={d} n={n} labeled={1 if labeled else 0}\n")
        for i in range(n):
            label = labels[i] if labeled else -1
            values = " ".join(repr(float(v)) for v in dataset.features[:, i])
            fh.write(f"{label} {values}\n")


def gen_synthetic(classes: int, per_class: int, dim: int, shift_magnitude: float,
                  seed: int, separation: float = 10.0):
    """Gaussian class blobs with a controllable source/target domain shift.

    Class means sit roughly ``separation`` apart in units of the
    within-class standard deviation. The target domain is the same blob
    layout translated by a random vector of length ``shift_magnitude`` and
    tilted by a small random rotation proportional to the shift; a zero
    shift leaves the two domains identically distributed.

    Returns a (source, target) dataset pair; target ground truth goes to
    the evaluation channel.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if per_class < 2:
        raise ValueError(f"need at least 2 samples per class, got {per_class}")
    if dim < 2:
        raise ValueError(f"need at least 2 dimensions, got {dim}")
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(dim, classes))
    directions /= np.linalg.norm(directions, axis=0)
    means = directions * (separation / np.sqrt(2.0))
    labels = np.repeat(np.arange(classes), per_class)
    n = labels.size
    xs = means[:, labels] + rng.normal(size=(dim, n))
    xt = means[:, labels] + rng.normal(size=(dim, n))
    if shift_magnitude != 0.0:
        shift = rng.normal(size=dim)
        shift *= shift_magnitude / np.linalg.norm(shift)
        e1 = rng.normal(size=dim)
        e1 /= np.linalg.norm(e1)
        e2 = rng.normal(size=dim)
        e2 -= (e2 @ e1) * e1
        e2 /= np.linalg.norm(e2)
        angle = _ROTATION_PER_SHIFT * shift_magnitude
        xt = _rotate_in_plane(xt, e1, e2, angle) + shift[:, None]
    source = DomainDataset(xs, labels=labels, domain="source")
    target = DomainDataset(xt, eval_labels=labels, domain="target")
    return source, target


def _rotate_in_plane(x, e1, e2, angle):
    """Rotate columns of x by ``angle`` within the (e1, e2) plane."""
    c, s = np.cos(angle), np.sin(angle)
    a1 = e1 @ x
    a2 = e2 @ x
    return (x + np.outer(e1, (c - 1.0) * a1 - s * a2)
            + np.outer(e2, s * a1 + (c - 1.0) * a2))


def evaluate(predictions, ground_truth) -> float:
    """Classification accuracy as a percentage."""
    predictions = np.asarray(predictions)
    ground_truth = np.asarray(ground_truth)
    if predictions.shape != ground_truth.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape} predictions vs "
            f"{ground_truth.shape} ground-truth labels"
        )
    return 100.0 * float(np.mean(predictions == ground_truth))


def _nearest(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index of the Euclidean-nearest column of ``s`` for each column of ``t``.

    Columns are unit or zero vectors, so ||t - s||^2 = ||t||^2 + ||s||^2 -
    2 t.s ranks the sources like ||s||^2 - 2 t.s, and one matrix product does
    the work. For unit sources this is the argmax of t.s.
    """
    scores = t.T @ s
    scores *= -2.0
    scores += np.einsum("ij,ij->j", s, s)
    return np.argmin(scores, axis=1)


def nn_baseline(src: DomainDataset, tgt: DomainDataset) -> float:
    """Accuracy of 1-nearest-neighbor on L2-normalized raw features.

    No adaptation is applied; this is the floor any adaptation run should
    beat. Requires target ground truth in the evaluation channel.
    """
    source_ids, target_truth, _ = validate_pair(src, tgt)
    if target_truth is None:
        raise ValueError("1NN baseline needs target ground truth in eval_labels")
    s = l2_normalize_columns(src.features)
    t = l2_normalize_columns(tgt.features)
    return evaluate(source_ids[_nearest(s, t)], target_truth)
