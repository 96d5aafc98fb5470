"""Per-function timing of splda from outside the package.

``install()`` replaces each traced function with a timing wrapper at every
name inside the ``splda`` package that is bound to it, which is the name its
caller looks up (``splda.pipeline.slpp_fit``, ``splda.linalg.gen_eig``,
``splda.labeling.solve_assignment`` ...). One wrapper serves all of a
function's names, so a call is counted once whichever name reached it.

Each function records its call count, total seconds and self seconds
(total minus the time spent in wrapped callees), plus a work count where one
is computed from the arguments or the result. A function or module that is
absent from the package is left out and reports zero calls.
"""

import functools
import importlib
import os
import sys
import time

import numpy as np

# (defining module, function, work count name or None)
TRACED = (
    ("cli", "main", None),
    ("pipeline", "run", None),
    ("pipeline", "nn_baseline", None),
    ("dataio", "load_features", "bytes"),
    ("data", "validate_pair", None),
    ("preprocess", "pca_fit", None),
    ("preprocess", "pca_transform", None),
    ("linalg", "sym_eig", None),
    ("subspace", "slpp_fit", "labeled_cols"),
    ("linalg", "gen_eig", None),
    ("subspace", "embed", None),
    ("labeling", "compute_prototypes", None),
    ("labeling", "ncp_probabilities", None),
    ("labeling", "kmeans_clusters", None),
    ("labeling", "match_clusters", None),
    ("linalg", "solve_assignment", None),
    ("labeling", "sp_probabilities", None),
    ("labeling", "fuse_and_label", None),
    ("selection", "select", "admitted"),
)


def _labeled_cols(args, kwargs, result):
    data = args[0] if args else kwargs["labeled_data"]
    return int(np.shape(data)[1])


def _bytes(args, kwargs, result):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _admitted(args, kwargs, result):
    return len(result)


_COUNTERS = {"labeled_cols": _labeled_cols, "bytes": _bytes, "admitted": _admitted}


class Tracer:
    """Call counts, total and self seconds and work counts per function."""

    def __init__(self):
        self.stats = {f"{module}.{func}": {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0}
                      for module, func, _ in TRACED}
        self._stack = []  # child seconds accumulated by each open call

    def wrap(self, key: str, func, counter=None):
        stat = self.stats[key]
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                stat["calls"] += 1
                stat["s"] += elapsed
                stat["self_s"] += elapsed - children
            if counter is not None:
                stat["work"] += counter(args, kwargs, result)
            return result

        return traced


def install() -> Tracer:
    """Wrap every traced function at each of its names in the splda package."""
    for name in {module for module, _, _ in TRACED}:
        try:
            importlib.import_module(f"splda.{name}")
        except ModuleNotFoundError:
            pass
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "splda" or n.startswith("splda."))]
    tracer = Tracer()
    for module_name, func_name, work in TRACED:
        key = f"{module_name}.{func_name}"
        original = getattr(sys.modules.get(f"splda.{module_name}"), func_name, None)
        if not callable(original):
            continue
        wrapper = tracer.wrap(key, original, _COUNTERS.get(work))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
    return tracer
