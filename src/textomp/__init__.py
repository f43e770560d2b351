"""Greedy sparse feature selection for logistic text classifiers.

Core pieces: a column-major sparse matrix, an L2-penalized restricted
logistic fit, greedy single-feature selection (matching pursuit with
refitting), greedy selection over overlapping feature groups, penalized
baselines (lasso / ridge / elastic net) solved by working-set proximal
Newton, a text vectorization pipeline, embedding-cluster group
generation, and a dev-set grid-search harness.

The package exports the names README's Library section documents; the
greedy-loop steps and the logistic kernels import from their modules.
"""

from .baselines import PenaltyConfig, fit_penalized, sparsity
from .evaluation import (FitOptions, FitReport, GridSpec, accuracy,
                         atoms_curve, fit, grid_search)
from .gomp import GOMPConfig, run_gomp
from .groups import Group, GroupStructure
from .grouping import (EmbeddingTable, KMeansConfig, augment_singletons,
                       expand_overlap, kmeans_cluster, load_embeddings,
                       load_groups, save_groups)
from .logistic import Model
from .omp import OMPConfig, Trajectory, run_omp
from .sparse import SparseMatrix
from .textpipe import (Corpus, LabeledDoc, SplitSpec, build_matrix,
                       stratified_split, tokenize)

__version__ = "0.1.0"

__all__ = [
    "Corpus", "EmbeddingTable", "FitOptions", "FitReport", "GOMPConfig",
    "GridSpec", "Group", "GroupStructure", "KMeansConfig", "LabeledDoc",
    "Model", "OMPConfig", "PenaltyConfig", "SparseMatrix", "SplitSpec",
    "Trajectory", "accuracy", "atoms_curve", "augment_singletons",
    "build_matrix", "expand_overlap", "fit", "fit_penalized", "grid_search",
    "kmeans_cluster", "load_embeddings", "load_groups", "run_gomp",
    "run_omp", "save_groups", "sparsity", "stratified_split", "tokenize",
]
