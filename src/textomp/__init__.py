"""Greedy sparse feature selection for logistic text classifiers.

Core pieces: a column-major sparse matrix, an L2-penalized restricted
logistic fit, greedy single-feature selection (matching pursuit with
refitting), greedy selection over overlapping feature groups, penalized
baselines (lasso / ridge / elastic net) solved by working-set proximal
Newton, a text vectorization pipeline, embedding-cluster group
generation, and a dev-set grid-search harness.
"""

from .baselines import PenaltyConfig, fit_penalized, kkt_violation, sparsity
from .evaluation import (FitOptions, FitReport, GridSpec, accuracy,
                         atoms_curve, fit, grid_search)
from .gomp import (GOMPConfig, remove_overlap, run_gomp, score_group_averaged,
                   score_group_orthonormal, select_group)
from .groups import Group, GroupStructure
from .grouping import (EmbeddingTable, KMeansConfig, augment_singletons,
                       expand_overlap, kmeans_cluster, load_embeddings,
                       load_groups, save_groups)
from .logistic import (ActiveSet, Model, fit_restricted, gradient, loss,
                       objective, residual, sigmoid, softplus)
from .omp import OMPConfig, Trajectory, run_omp, select_feature
from .sparse import SparseMatrix
from .textpipe import (Corpus, LabeledDoc, SplitSpec, build_matrix,
                       stratified_split, tokenize)

__version__ = "0.1.0"

__all__ = [
    "ActiveSet", "Corpus", "EmbeddingTable", "FitOptions", "FitReport",
    "GOMPConfig", "GridSpec", "Group", "GroupStructure", "KMeansConfig",
    "LabeledDoc", "Model", "OMPConfig", "PenaltyConfig", "SparseMatrix",
    "SplitSpec", "Trajectory", "accuracy", "atoms_curve",
    "augment_singletons", "build_matrix", "expand_overlap", "fit",
    "fit_penalized", "fit_restricted", "gradient", "grid_search",
    "kkt_violation", "kmeans_cluster", "load_embeddings", "load_groups",
    "loss", "objective", "remove_overlap", "residual", "run_gomp",
    "run_omp", "save_groups", "score_group_averaged",
    "score_group_orthonormal", "select_feature", "select_group", "sigmoid",
    "softplus", "sparsity", "stratified_split", "tokenize",
]
