"""Unsupervised domain adaptation by subspace alignment with selective
pseudo-labeling.

The package namespace is lazy: each public name is imported from its
submodule on first use, so ``import splda`` (and the ``baseline-1nn`` and
``synth`` commands) never load scipy. Kernels and internals are imported
from their submodules.
"""

import importlib

__version__ = "0.1.0"

# public name -> submodule that defines it
_EXPORTS = {
    "DomainDataset": "data",
    "LABELING_MODES": "data",
    "RunConfig": "data",
    "SELECTION_MODES": "data",
    "evaluate": "dataio",
    "gen_synthetic": "dataio",
    "load_features": "dataio",
    "nn_baseline": "dataio",
    "save_features": "dataio",
    "NumericalError": "linalg",
    "AdaptationResult": "pipeline",
    "IterationSnapshot": "pipeline",
    "PreparedPair": "pipeline",
    "prepare": "pipeline",
    "run": "pipeline",
    "run_ablation": "pipeline",
    "run_prepared": "pipeline",
    "RankTruncationWarning": "preprocess",
    "ZeroVectorWarning": "preprocess",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
