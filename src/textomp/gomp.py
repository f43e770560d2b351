"""Greedy group selection over possibly overlapping groups of features.

The greedy loop of `omp.run_greedy`, lifted to groups (Lozano, Swirszcz
& Abe, AISTATS 2011): score every remaining group against the residual,
activate the whole winning group, then strip the winner's indices out of
every other group so that no index can enter the active set twice.
Three scoring criteria are available:

- "orthonormal":    ||X_G^T r||^2, exact when the group's columns are
                    orthonormal;
- "gram_corrected": |r^T X_G (X_G^T X_G)^{-1} X_G^T r|, the projection
                    energy, for non-orthonormalized groups;
- "averaged":       ||X_G^T r||^2 / |G|, which stops large noisy groups
                    from outscoring small informative ones (the default).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grouping
from .groups import Group, GroupStructure
# unused here; kept because the benchmark tracer wraps them on this module
from .logistic import fit_restricted, residual  # noqa: F401
from .omp import GreedyConfig, run_greedy

CRITERIA = ("orthonormal", "gram_corrected", "averaged")

_GRAM_JITTER = 1e-10


@dataclass
class GOMPConfig(GreedyConfig):
    criterion: str = "averaged"
    augment_singletons: bool = True

    def __post_init__(self):
        super().__post_init__()
        if self.criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}")


@dataclass
class GroupSelectionRecord:
    """One group activation.

    members_original is the group's composition as provided by the caller
    (overlap removal mutates only working copies); members_added are the
    indices that actually entered the active set this iteration.
    """

    name: str
    score: float
    members_original: tuple
    members_added: tuple
    converged: bool = True


def score_group_orthonormal(X, G, r):
    """||X_G^T r||_2^2; -inf for an empty group so it can never win."""
    members = G.members if isinstance(G, Group) else tuple(G)
    if not members:
        return float("-inf")
    return float(np.sum([X.col_dot(j, r) ** 2 for j in members]))


def score_group_averaged(X, G, r):
    """||X_G^T r||_2^2 / |G|; -inf for an empty group."""
    members = G.members if isinstance(G, Group) else tuple(G)
    return score_group_orthonormal(X, members, r) / max(len(members), 1)


def score_group_gram(X, G, r):
    """|r^T X_G (X_G^T X_G)^{-1} X_G^T r|; -inf for an empty group.

    A singular Gram matrix (e.g. duplicated columns) is regularized with
    a 1e-10 Tikhonov jitter instead of a pseudo-inverse.
    """
    members = G.members if isinstance(G, Group) else tuple(G)
    if not members:
        return float("-inf")
    Xg = X.densify_columns(members)
    c = Xg.T @ np.asarray(r, dtype=np.float64)
    gram = Xg.T @ Xg
    coef = None
    try:
        coef = np.linalg.solve(gram, c)
        if not np.all(np.isfinite(coef)):
            coef = None
    except np.linalg.LinAlgError:
        coef = None
    if coef is None:
        jittered = gram + _GRAM_JITTER * np.eye(len(members))
        coef = np.linalg.solve(jittered, c)
    return float(abs(c @ coef))


def select_group(X, groups, r, criterion="averaged"):
    """Best-scoring non-empty group: (position, score); ties take the
    lowest position. Raises when every group is empty (exhaustion)."""
    if criterion not in CRITERIA:
        raise ValueError(f"criterion must be one of {CRITERIA}")
    if not isinstance(groups, GroupStructure):
        groups = GroupStructure(groups)
    sizes = np.diff(groups.offsets)
    live = sizes > 0
    if not live.any():
        raise ValueError("all groups are empty; structure exhausted")
    scores = np.full(len(groups), -np.inf)
    if criterion == "gram_corrected":
        for pos in np.flatnonzero(live):
            scores[pos] = score_group_gram(X, sorted(groups[pos].members), r)
    else:
        corr = X.correlations(r)
        # a segment runs to the next live start, since empty groups own none
        energy = np.add.reduceat(corr[groups.indices] ** 2,
                                 groups.offsets[:-1][live])
        if criterion == "averaged":
            energy /= sizes[live]
        scores[live] = energy
    pos = int(np.argmax(scores))
    return pos, float(scores[pos])


def remove_overlap(groups, selected):
    """Strip the selected indices out of every group.

    Groups that lose all members stay in place (empty) so positions and
    names remain stable; empty groups are never selectable.
    """
    if not isinstance(groups, GroupStructure):
        groups = GroupStructure(groups)
    keep = ~np.isin(groups.indices, np.fromiter(selected, dtype=np.int64))
    kept_before = np.concatenate(([0], np.cumsum(keep)))
    return GroupStructure.from_arrays(groups.names(),
                                      kept_before[groups.offsets],
                                      groups.indices[keep])


def run_gomp(X, y, groups, cfg, on_iteration=None):
    """Run the group selection loop; returns (final Model, Trajectory).

    The feature budget is checked after each activation, so the last group
    may overshoot it. The loop ends when the budget is reached, the
    winning group's correlation norm ||X_G^T r|| falls to epsilon (the
    same test as OMP's |X_j^T r| on a singleton), or no indices remain in
    any group. on_iteration, when given, is called after every refit with
    (active index set, remaining group member sets) for inspection.
    """
    if not isinstance(groups, GroupStructure):
        groups = GroupStructure(groups)
    groups.validate_indices(X.n_cols, bias_col=X.bias_col)
    if cfg.augment_singletons:
        groups = grouping.augment_singletons(groups, X.n_cols,
                                             bias_col=X.bias_col)
    working = groups

    def select(r, active):
        nonlocal working
        if not working.indices.size:
            return None  # exhausted: every index already active or stripped
        pos, score = select_group(X, working, r, criterion=cfg.criterion)
        winner = working[pos]
        norm = np.sqrt(score_group_orthonormal(X, winner, r))
        working = remove_overlap(working, winner.members)
        return norm, GroupSelectionRecord(
            name=winner.name, score=score,
            members_original=groups[pos].members,
            members_added=winner.members)

    report = None if on_iteration is None else lambda active: on_iteration(
        frozenset(active), working.member_sets())
    return run_greedy(X, y, cfg, select, on_refit=report)
