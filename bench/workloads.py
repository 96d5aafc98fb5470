"""Workload shapes and the seeded generator of their inputs.

Inputs are made here with numpy alone, so the program under test receives
only finished datasets. Class ids run 1..C, as in the Decaf ``.mat`` dumps.
Class sizes follow a fixed uneven pattern that does not depend on the seed,
so every seed gives the same problem size and the seed moves only values.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Shape:
    classes: int
    src_sizes: tuple  # (smallest, largest) class size; sizes ramp between them
    tgt_sizes: tuple
    dim: int
    d1: int
    d2: int
    iterations: int
    files: bool = False  # run through feature files and the CLI


# Class means lie SEPARATION within-class sigmas apart; the target copy is
# tilted by ROTATION radians and translated by SHIFT sigmas. This keeps the
# raw-feature 1NN far below the adapted accuracy on every seed.
SEPARATION = 8.0
SHIFT = 8.0
ROTATION = 0.3


SHAPES = {
    "office31-adapt": Shape(classes=31, src_sizes=(14, 26), tgt_sizes=(14, 26),
                            dim=2048, d1=512, d2=128, iterations=10),
    "officehome-adapt": Shape(classes=65, src_sizes=(9, 13), tgt_sizes=(9, 13),
                              dim=2048, d1=1024, d2=128, iterations=10),
    "caltech-files-cli": Shape(classes=10, src_sizes=(15, 25), tgt_sizes=(10, 20),
                               dim=4096, d1=128, d2=128, iterations=10, files=True),
}


def class_sizes(classes: int, sizes: tuple) -> np.ndarray:
    low, high = sizes
    return np.rint(np.linspace(low, high, classes)).astype(int)


@dataclass(frozen=True)
class Inputs:
    xs: np.ndarray  # dim x n_source
    ys: np.ndarray  # class ids 1..C
    xt: np.ndarray  # dim x n_target
    yt: np.ndarray  # target truth, class ids 1..C


def generate(shape: Shape, seed: int) -> Inputs:
    """Gaussian class blobs; the target copy is tilted and translated."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(shape.dim, shape.classes))
    means = directions / np.linalg.norm(directions, axis=0) * (SEPARATION / np.sqrt(2.0))
    ids = np.arange(1, shape.classes + 1)
    ys = np.repeat(ids, class_sizes(shape.classes, shape.src_sizes))
    yt = np.repeat(ids, class_sizes(shape.classes, shape.tgt_sizes))
    xs = means[:, ys - 1] + rng.normal(size=(shape.dim, ys.size))
    xt = means[:, yt - 1] + rng.normal(size=(shape.dim, yt.size))
    shift = rng.normal(size=shape.dim)
    shift *= SHIFT / np.linalg.norm(shift)
    e1, e2 = np.linalg.qr(rng.normal(size=(shape.dim, 2)))[0].T
    c, s = np.cos(ROTATION), np.sin(ROTATION)
    a1, a2 = e1 @ xt, e2 @ xt
    xt = (xt + np.outer(e1, (c - 1.0) * a1 - s * a2)
          + np.outer(e2, s * a1 + (c - 1.0) * a2) + shift[:, None])
    return Inputs(xs=xs, ys=ys, xt=xt, yt=yt)


def own_1nn(inputs: Inputs) -> np.ndarray:
    """1NN predictions (class ids) by one product of L2-normalized raw features."""
    s = inputs.xs / np.linalg.norm(inputs.xs, axis=0)
    t = inputs.xt / np.linalg.norm(inputs.xt, axis=0)
    return inputs.ys[np.argmax(t.T @ s, axis=1)]
