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

import os
import re
import stat
import warnings

import numpy as np

from .data import _LABEL_MAX, DomainDataset, validate_pair
from .preprocess import l2_normalize_columns, unit_columns, warn_zero_columns

# Tokens in a line are separated by runs of space, \t, \v and \f; lines end
# at \n, \r\n or \r (read as \n). Other control bytes, \x1c-\x1f among them,
# belong to the token they touch.
_BLANK = " \t\v\f\n"
_TOKEN_RE = re.compile(r"[^ \t\v\f\n]+")
_HEADER_RE = re.compile(
    r"#[ \t\v\f]*d=(\d+)[ \t\v\f]+n=(\d+)[ \t\v\f]+labeled=([01])[ \t\v\f]*$")

# Targets the 1NN baseline normalizes and scores at a time.
_NN_BLOCK = 256

# Class blobs are unit-variance Gaussians; target samples get a rotation of
# this many radians per unit of shift, so zero shift means identical domains.
_ROTATION_PER_SHIFT = 0.05


def load_features(path, domain: str = "source") -> DomainDataset:
    """Parse a feature file into a dataset.

    ``domain`` controls label routing: source labels stay on the training
    channel, target labels are quarantined into ``eval_labels``.

    The file is read one line at a time and numpy parses each row straight
    into its column, so a load holds the matrix plus one line. A row that
    does not parse cleanly goes through the format's checks in order, to
    name its line and its fault. The first faulty line in the file is the
    one named, and within a line a byte above 0x7f is named before any
    other fault. A header that declares more rows than a regular file can
    hold fails on line 1 before the matrix is allocated. A pipe has no size
    to check, so its matrix grows with the rows read, up to the header's n.
    """
    if domain not in ("source", "target"):
        raise ValueError(f"domain must be 'source' or 'target', got {domain!r}")
    # a byte above 0x7f decodes to one lone surrogate in the line that holds it
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        info = os.fstat(fh.fileno())
        # a pipe has no size to check against
        size = info.st_size if stat.S_ISREG(info.st_mode) else None
        d, n, labeled = _parse_header(path, fh.readline(), size)
        room = n if size is not None else 1
        features = np.empty((d, room), dtype=float)
        labels = np.empty(room, dtype=int) if labeled else None
        row = 0
        for lineno, line in enumerate(fh, start=2):
            if not line.strip(_BLANK):
                continue
            # the label is parsed with the values, so a row that parses
            # holds no byte on which numpy and _TOKEN_RE split differently
            values = _floats(line)
            label = _integer(_TOKEN_RE.search(line).group())
            if (line.isascii() and row < n and values is not None
                    and values.size == d + 1 and "_" not in line and label is not None
                    and (0 <= label <= _LABEL_MAX if labeled else label == -1)
                    and np.isfinite(values).all()):
                if row == features.shape[1]:
                    features, labels = _grown(features, labels, n)
                features[:, row] = values[1:]
                if labeled:
                    labels[row] = label
                row += 1
            else:
                _raise_row_error(path, lineno, line, d, n, row, labeled)
    if row != n:
        raise ValueError(f"{path}: expected n={n} samples, found {row}")
    features.setflags(write=False)  # so the dataset adopts it without a copy
    if domain == "target":
        return DomainDataset(features, labels=None, eval_labels=labels, domain="target")
    return DomainDataset(features, labels=labels, domain="source")


def _grown(features, labels, n: int):
    """Full ``(features, labels)`` copied into room for twice their rows, at most n."""
    rows = features.shape[1]
    room = min(2 * rows, n)
    grown = np.empty((features.shape[0], room), dtype=float)
    grown[:, :rows] = features
    if labels is not None:
        labels = np.concatenate([labels, np.empty(room - rows, dtype=int)])
    return grown, labels


def _parse_header(path, line: str, size: int | None):
    """``(d, n, labeled)`` from the header line of a file of ``size`` bytes.

    A row is at least d + 1 one-byte tokens, each followed by a separator
    or a line end, which the last row may lack: 2 (d + 1) bytes, or one
    less. So a file whose rows after the header fit in fewer bytes than the
    declared n rows need is rejected. ``size`` is None when unknown.
    """
    if not line:
        raise ValueError(f"{path}: line 1: empty file, expected header")
    _check_ascii(f"{path}: line 1", line)
    header = _HEADER_RE.match(line)
    if header is None:
        raise ValueError(
            f"{path}: line 1: malformed header, expected "
            f"'# d=<int> n=<int> labeled=<0|1>'"
        )
    d, n = int(header.group(1)), int(header.group(2))
    if d < 1 or n < 1:
        raise ValueError(
            f"{path}: line 1: header declares d={d} n={n}; "
            f"a dataset needs d >= 1 and n >= 1"
        )
    if size is not None:
        # a \r\n header end reads as one character, which only raises the bound
        rows = (size - len(line) + 1) // (2 * (d + 1))
        if n > rows:
            raise ValueError(
                f"{path}: line 1: header declares n={n} but the file can hold "
                f"at most {rows} rows"
            )
    return d, n, header.group(3) == "1"


def _floats(text: str):
    """The numbers in ``text``, or None if any part of it does not parse.

    numpy warns about an unparsed tail before 2.x and raises after.
    """
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            return np.fromstring(text, sep=" ")
        except (ValueError, DeprecationWarning):
            return None


def _integer(token: str):
    """``int(token)``, or None when it fails or the token holds ``_``."""
    try:
        return None if "_" in token else int(token)
    except ValueError:
        return None


def _is_decimal(token: str) -> bool:
    """Whether the token reads as one finite number without underscores."""
    values = None if "_" in token else _floats(token)
    return values is not None and values.size == 1 and bool(np.isfinite(values[0]))


def _raise_row_error(path, lineno: int, line: str, d: int, n: int, row: int,
                     labeled: bool):
    """Raise the error for a row that the fast parse did not accept.

    The checks run in the format's order: a non-ASCII byte, duplicate
    header, column count, surplus row, label, then the first value that is
    not a finite decimal.
    """
    where = f"{path}: line {lineno}"
    _check_ascii(where, line)
    if _HEADER_RE.match(line):
        raise ValueError(f"{where}: duplicate header")
    tokens = _TOKEN_RE.findall(line)
    if len(tokens) != d + 1:
        raise ValueError(
            f"{where}: expected {d + 1} columns (label + {d} features), "
            f"found {len(tokens)}"
        )
    if row >= n:
        raise ValueError(f"{where}: more than the declared n={n} samples")
    label = _integer(tokens[0])
    if label is None:
        raise ValueError(f"{where}: label {tokens[0]!r} is not an integer")
    if labeled and label < 0:
        raise ValueError(f"{where}: labeled file requires labels >= 0")
    if labeled and label > _LABEL_MAX:
        raise ValueError(f"{where}: label {tokens[0]!r} is out of range")
    if not labeled and label != -1:
        raise ValueError(f"{where}: unlabeled file requires label -1")
    for token in tokens[1:]:
        if not _is_decimal(token):
            raise ValueError(f"{where}: value {token!r} is not a finite decimal")
    raise ValueError(f"{where}: row does not parse as {d + 1} numbers")


def _check_ascii(where: str, line: str) -> None:
    """Raise for the first byte of ``line`` above 0x7f, if any.

    The file is decoded with ``surrogateescape``, so such a byte is the lone
    surrogate U+DC00 + byte.
    """
    if not line.isascii():
        byte = next(ord(ch) - 0xDC00 for ch in line if not ch.isascii())
        raise ValueError(f"{where}: non-ASCII byte 0x{byte:02x}")


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
    for name, value in (("shift_magnitude", shift_magnitude), ("separation", separation)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
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
    for x in (xs, xt):
        x.setflags(write=False)  # so the datasets adopt them without a copy
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


def _nearest_by_blocks(s: np.ndarray, x: np.ndarray):
    """``(nearest, zeros)``: :func:`_nearest` of ``s`` and the L2-normalized
    columns of ``x``, and the number of zero columns of ``x``.

    ``x`` is normalized and scored ``_NN_BLOCK`` columns at a time, so a
    normalized block and a block x n_source score matrix are held, not a
    normalized copy of ``x`` and its whole score matrix.
    """
    nearest = np.empty(x.shape[1], dtype=np.intp)
    zeros = 0
    for lo in range(0, x.shape[1], _NN_BLOCK):
        t, block_zeros = unit_columns(x[:, lo:lo + _NN_BLOCK])
        nearest[lo:lo + _NN_BLOCK] = _nearest(s, t)
        zeros += block_zeros
    return nearest, zeros


def nn_baseline(src: DomainDataset, tgt: DomainDataset) -> float:
    """Accuracy of 1-nearest-neighbor on L2-normalized raw features.

    No adaptation is applied; this is the floor any adaptation run should
    beat. Requires target ground truth in the evaluation channel.
    """
    source_ids, target_truth, _ = validate_pair(src, tgt)
    if target_truth is None:
        raise ValueError("1NN baseline needs target ground truth in eval_labels")
    s = l2_normalize_columns(src.features)
    nearest, zeros = _nearest_by_blocks(s, tgt.features)
    warn_zero_columns(zeros)
    return evaluate(source_ids[nearest], target_truth)
