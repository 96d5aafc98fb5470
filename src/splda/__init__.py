"""Unsupervised domain adaptation by subspace alignment with selective
pseudo-labeling."""

from .data import (
    DomainDataset,
    LABELING_MODES,
    PseudoLabelSet,
    RunConfig,
    SELECTION_MODES,
    ValidatedPair,
    validate_pair,
)
from .dataio import evaluate, gen_synthetic, load_features, save_features
from .labeling import (
    ClusterSet,
    PrototypeSet,
    compute_prototypes,
    fuse_and_label,
    kmeans_clusters,
    match_clusters,
    ncp_probabilities,
    sp_probabilities,
)
from .linalg import (
    EigenPairs,
    Matching,
    NumericalError,
    gen_eig,
    solve_assignment,
    sym_eig,
)
from .pipeline import (
    AdaptationResult,
    IterationSnapshot,
    PreparedPair,
    nn_baseline,
    prepare,
    run,
    run_ablation,
    run_prepared,
)
from .preprocess import (
    PcaModel,
    RankTruncationWarning,
    ZeroVectorWarning,
    l2_normalize_columns,
    pca_fit,
    pca_transform,
)
from .selection import SelectionPlan, plan_selection, select
from .subspace import SlppModel, embed, slpp_fit

__version__ = "0.1.0"

__all__ = [
    "AdaptationResult",
    "ClusterSet",
    "DomainDataset",
    "EigenPairs",
    "IterationSnapshot",
    "LABELING_MODES",
    "Matching",
    "NumericalError",
    "PcaModel",
    "PreparedPair",
    "PrototypeSet",
    "PseudoLabelSet",
    "RankTruncationWarning",
    "RunConfig",
    "SELECTION_MODES",
    "SelectionPlan",
    "SlppModel",
    "ValidatedPair",
    "ZeroVectorWarning",
    "compute_prototypes",
    "embed",
    "evaluate",
    "fuse_and_label",
    "gen_eig",
    "gen_synthetic",
    "kmeans_clusters",
    "l2_normalize_columns",
    "load_features",
    "match_clusters",
    "ncp_probabilities",
    "nn_baseline",
    "pca_fit",
    "pca_transform",
    "plan_selection",
    "prepare",
    "run",
    "run_ablation",
    "run_prepared",
    "save_features",
    "select",
    "slpp_fit",
    "solve_assignment",
    "sp_probabilities",
    "sym_eig",
    "validate_pair",
]
