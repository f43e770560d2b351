"""Greedy group selection over possibly overlapping groups of features.

The greedy loop of `omp.run_greedy`, lifted to groups (Lozano, Swirszcz
& Abe, AISTATS 2011): strip out of every group the indices that the
loop's candidate mask marks as active, so that no index can enter the
active set twice, score every remaining group against the residual, and
activate the whole winning group.
Two scoring criteria are available:

- "orthonormal": ||X_G^T r||^2, exact when the group's columns are
                 orthonormal;
- "averaged":    ||X_G^T r||^2 / |G|, which stops large noisy groups from
                 outscoring small informative ones (the default).

Lozano et al. score a group by its projection energy after
orthonormalizing it. On sparse word-count columns that selects the same
groups as the raw "orthonormal" energy, at many times the cost, so only
the energy is offered.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grouping
from .groups import GroupStructure
from .logistic import RefitWork
# unused here; kept because the benchmark tracer wraps them on this module
from .logistic import fit_restricted, residual  # noqa: F401
from .omp import GreedyConfig, per_unit_norm, run_greedy

CRITERIA = ("orthonormal", "averaged")


@dataclass
class GOMPConfig(GreedyConfig):
    criterion: str = "averaged"
    augment_singletons: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")


@dataclass
class GroupSelectionRecord(RefitWork):
    """One group activation and the RefitWork of the refit that followed.

    members_original is the group's composition as provided by the caller
    (overlap removal mutates only working copies); members_added are the
    indices that actually entered the active set this iteration.
    """

    name: str
    score: float
    members_original: tuple
    members_added: tuple


def score_group_orthonormal(corr, members):
    """||X_G^T r||_2^2 of a group G from the correlations corr = X^T r;
    -inf for an empty group so it can never win."""
    if not len(members):
        return float("-inf")
    return float(np.sum(corr[np.asarray(members, dtype=np.int64)] ** 2))


def select_group(X, groups, r, criterion="averaged", col_norms=None):
    """Best-scoring non-empty group: (position, score, norm); ties take
    the lowest position. Raises when every group is empty (exhaustion).

    Every criterion sums the squared member correlations of all groups
    in one `np.add.reduceat` over the structure's flat index array.
    col_norms, when given, scores each member by corr_j / col_norms[j]
    (0 for a zero-norm column). norm is the winner's ||X_G^T r|| on the
    raw columns, which the epsilon test reads.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    sizes = np.diff(groups.offsets)
    live = sizes > 0
    if not live.any():
        raise ValueError("all groups are empty; structure exhausted")
    raw = X.correlations(r)
    corr = per_unit_norm(raw, col_norms)
    # a segment runs to the next live start, since empty groups own none
    energy = np.add.reduceat(corr[groups.indices] ** 2,
                             groups.offsets[:-1][live])
    if criterion == "averaged":
        energy /= sizes[live]
    scores = np.full(len(groups), -np.inf)
    scores[live] = energy
    pos = int(np.argmax(scores))
    norm = np.sqrt(score_group_orthonormal(raw, groups.members(pos)))
    return pos, float(scores[pos]), norm


def remove_overlap(groups, candidates):
    """The GroupStructure with only the members that the boolean column
    mask candidates leaves True.

    Groups that lose all members stay in place (empty) so positions and
    names remain stable; empty groups are never selectable. The names
    are shared with groups, not copied.
    """
    keep = candidates[groups.indices]
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return GroupStructure.from_arrays(groups._names,
                                      kept_before[groups.offsets],
                                      groups.indices[keep])


def run_gomp(X, y, groups, cfg):
    """Run the group selection loop; returns (final Model, Trajectory).

    groups is a GroupStructure or a list of Groups; the group functions
    below this one entry point take the structure.

    The feature budget is checked after each activation, so the last group
    may overshoot it. The loop ends when the budget is reached, the
    winning group's correlation norm ||X_G^T r|| falls to epsilon (the
    same test as OMP's |X_j^T r| on a singleton, on raw columns even when
    cfg.normalize_columns ranks on unit-norm ones), or no indices remain in
    any group. The winner's members leave the other groups at the next
    pick, when remove_overlap drops what the candidate mask marks gone.
    """
    if not isinstance(groups, GroupStructure):
        groups = GroupStructure(groups)
    groups.validate_indices(X.n_cols, bias_col=X.bias_col)
    if cfg.augment_singletons:
        groups = grouping.augment_singletons(groups, X.n_cols,
                                             bias_col=X.bias_col)
    col_norms = X.col_norms() if cfg.normalize_columns else None

    def select(r, candidates):
        working = remove_overlap(groups, candidates)
        if not working.indices.size:
            return []  # exhausted: every index already active or stripped
        pos, score, norm = select_group(X, working, r,
                                        criterion=cfg.criterion,
                                        col_norms=col_norms)
        winner = working[pos]
        return [(norm, GroupSelectionRecord(
            name=winner.name, score=score,
            members_original=groups[pos].members,
            members_added=winner.members))]

    return run_greedy(X, y, cfg, select)
