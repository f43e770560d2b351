"""Greedy logistic orthogonal matching pursuit.

Loop: pick the inactive columns most correlated with the residual, add
them to the active set, refit the L2-penalized logistic model on the
enlarged support, recompute the residual, repeat until the feature budget
is hit, the winning correlation falls to the precision threshold, or no
candidate columns remain. Each step enters the atoms_per_step best
columns before its one refit, which is generalized OMP (Wang, Kwon &
Shim, IEEE TSP 2012); atoms_per_step=1 is the paper's single-atom OMP.
`run_greedy` is this loop, with the pick left to a step.
It is the one owner of the support: an index list in entry order, which
every refit receives, and a mask of the columns still able to enter,
which every pick ranks on. The refit returns the list on its Model as a
read-only `ActiveSet`.

A step computes only what its pick and its refit need. The pick is a
screened scan: |x^T r| <= ||x||_1 ||r||_inf bounds every column, so the
columns are grouped once per run into bands of that bound
(`screen_bands`), and `select_feature` stops scanning once no band left
can beat its picks, as safe feature elimination bounds a lasso (El
Ghaoui, Viallon & Rabbani, 2012); it gives the bits of the exhaustive
scan. The residual is `residual(X, theta, y)`, whose `X.mat_vec` reads
only the active columns' entries while they hold under a third of X's.

The bias column is active from the start and never counted against the
budget; the first selection correlates against the raw labels.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .logistic import (DEFAULT_MAX_ITER, DEFAULT_TOL, RefitState, RefitWork,
                       check_count, check_non_negative, checked_labels,
                       fit_restricted, residual)

CHECKPOINT_INTERVAL = 100
# the counters each selection record copies from its refit's Model
_WORK_FIELDS = tuple(f.name for f in fields(RefitWork))


@dataclass
class GreedyConfig:
    """Settings shared by OMP and group OMP.

    normalize_columns ranks candidates on corr_j / ||x_j||, as if every
    column had unit L2 norm; the epsilon test keeps the raw correlation.
    """

    budget: int = 2000
    epsilon: float = 0.0
    lam: float = 1.0
    normalize_columns: bool = False
    penalize_bias: bool = True
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    checkpoint_interval: int = CHECKPOINT_INTERVAL

    def __post_init__(self):
        check_count("budget", self.budget)
        check_non_negative("epsilon", self.epsilon)
        check_non_negative("lambda", self.lam)
        # an infinite tol would call the all-zero start optimal
        check_non_negative("tol", self.tol)
        check_count("max_iter", self.max_iter)
        check_count("checkpoint_interval", self.checkpoint_interval)


@dataclass
class OMPConfig(GreedyConfig):
    """GreedyConfig plus atoms_per_step, the number S of best columns that
    each step enters before its one refit; the last step enters what the
    budget has left. S = 1 is the paper's single-atom OMP."""

    atoms_per_step: int = 8

    def __post_init__(self):
        super().__post_init__()
        check_count("atoms_per_step", self.atoms_per_step)


@dataclass
class SelectionRecord(RefitWork):
    """One selected column and its signed correlation, and the RefitWork
    of the one refit that followed its step; the columns a step enters
    share that refit."""

    index: int
    score: float

    @property
    def members_added(self):
        return (self.index,)


@dataclass
class Trajectory:
    """Per-iteration selection records plus periodic weight snapshots.

    checkpoints holds (active non-bias feature count, theta copy) pairs,
    taken at the first count at or past each checkpoint_interval multiple
    and at termination, so accuracy-vs-atom-count curves replay without
    refitting. A step that enters several atoms and crosses several
    multiples at once makes one checkpoint.
    """

    records: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)

    def selected_indices(self):
        """Every activated index, in activation order."""
        return [j for rec in self.records for j in rec.members_added]


def per_unit_norm(scores, col_norms):
    """scores[j] / col_norms[j], 0 where a column's norm is 0; the scores
    unchanged when col_norms is None."""
    if col_norms is None:
        return scores
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(col_norms > 0, scores / col_norms, 0.0)


@dataclass(frozen=True)
class ScreenBands:
    """`screen_bands`' result: the columns it covers, as a mask of X's
    columns, and its bands, each (limit, slack, columns, block, norms)."""

    covers: np.ndarray
    bands: list


def screen_bands(X, candidates, col_norms=None):
    """The columns where candidates is True, grouped for `select_feature`'s
    screened scan: a `ScreenBands` whose covers is a copy of candidates and
    whose bands are (limit, slack, columns, block, norms), highest key
    first.

    A column's key is its L1 norm, divided by its L2 norm col_norms[j] when
    col_norms is given (0 for a zero norm, infinite for an infinite one).
    Each band holds the columns whose keys share a power of two, ascending,
    and block is their `X.submatrix`; columns of key 0 form the last band.
    With m = X.n_rows, limit is the band's largest key, at least 2^-1022,
    times 1 + (m + 4) 2^-50, and slack is (m + 2) 2^-1072 / min(1, the
    band's smallest non-zero col_norms); norms is the band's slice of
    col_norms (None without it). The blocks hold at most one copy of X's
    entries.
    """
    covers = np.array(candidates, dtype=bool)
    cols = np.flatnonzero(covers)
    if not cols.size:
        return ScreenBands(covers, [])
    key = X.col_abs_sums()[cols]
    norms = None
    if col_norms is not None:
        norms = col_norms[cols]
        key = per_unit_norm(key, norms)
        key[np.isinf(norms)] = np.inf
    _, exp = np.frexp(key)
    exp = np.where(key == 0, -2 ** 40, np.where(np.isinf(key), 2 ** 40, exp))
    # band by band from the highest key, each band's columns ascending
    order = np.argsort(-exp, kind="stable")
    scale = 1.0 + (X.n_rows + 4) * 2.0 ** -50  # exact in binary64
    bands = []
    for part in np.split(order, np.flatnonzero(np.diff(exp[order])) + 1):
        slack, band_norms = (X.n_rows + 2) * 2.0 ** -1072, None
        if norms is not None:
            band_norms = norms[part]
            slack /= min(1.0, float(np.min(band_norms[band_norms > 0],
                                           initial=1.0)))
        # a limit below the normal range would round by more than u
        limit = max(float(key[part].max()), 2.0 ** -1022) * scale
        bands.append((limit, slack, cols[part], X.submatrix(cols[part]),
                      band_norms))
    return ScreenBands(covers, bands)


def select_feature(X, r, candidates, col_norms=None, bands=None, count=1):
    """The count candidate columns with the largest |X_j^T r|, best first;
    ties go to the lowest index.

    candidates is a boolean mask over X's columns; only columns where it
    is True compete. col_norms, when given, rescales each score by
    1/col_norms[j] (unit-L2 column scaling). Returns a list of (index,
    signed correlation) pairs: the first count of the candidates in the
    order of np.argsort(-score, kind="stable") over their scores (a NaN
    score ranks last), fewer when fewer candidates remain. Raises when no
    candidate remains.

    The scan is screened, and its result is the exhaustive scan's, bit for
    bit. For any column, |x^T r| <= ||x||_1 ||r||_inf, so a column scores at
    most its key (see `screen_bands`) times ||r||_inf. The bands are
    scanned from the highest key, one `correlations` call each, and the
    scan stops once count candidates are picked and the last of them
    scores strictly greater than the next band's limit times ||r||_inf
    plus its slack. A scanned column's score is the same reduceat over the
    same products as in `X.correlations(r)`, so it has the same bits; a
    skipped column scores strictly below every pick, so the lowest-index
    tie rule holds. bands is `screen_bands(X, mask, col_norms)` of a mask
    that is True at every candidate, or a ValueError is raised; `run_omp`
    builds it once per run, and a call without it builds it here.

    Why the limit holds, with u = 2^-53, m = X.n_rows, R = ||r||_inf
    (exact) and γ_k = k u / (1 - k u): a product v_i x_i rounds with
    relative error u plus at most 2^-1075 below the normal range, and a
    sum of m terms in any order, reduceat's included, is off by at most
    γ_{m-1} times the sum of its absolute terms. So a computed correlation
    is |c| <= (1 + γ_m)(R ||x||_1 + m 2^-1075), and the computed L1 norm L
    has ||x||_1 <= L / (1 - γ_{m-1}). With col_norms, the score |c| / N
    and the key L / N (L >= N, so no underflow) each round once more.
    Hence a column of key K scores at most K R (1 + γ_{m+1}) / (1 - γ_m)
    plus 1.01 m 2^-1075 / min(1, N) + 2^-1075 (N = 1 without col_norms).
    The test computes the limit K s with s = 1 + (m + 4) 2^-50 and K at
    least 2^-1022, then times R, then plus the slack: three roundings, so
    it is at least K R s (1 - u)^3 less 2^-1075, plus the slack less its
    rounding. Since (1 + γ_{m+1}) / (1 - γ_{m+3}) <= 1 + 2.7 (m + 3) u for
    m <= 2^50, s is over twice the relative margin needed, and the slack,
    (m + 2) 2^-1072 / min(1, N) over the band's non-zero norms, over twice
    the absolute one. A score that overflows overflows its band's limit
    too, and a limit that is not finite, a NaN pick, or an R that is NaN
    never stops the scan.
    """
    check_count("count", count)
    if not candidates.any():
        raise ValueError("no inactive candidate columns remain")
    if bands is None:
        bands = screen_bands(X, candidates, col_norms)
    elif np.any(candidates > bands.covers):
        raise ValueError("a candidate column lies in no band")
    big = float(np.max(np.abs(r), initial=0.0))
    # the best count columns scanned so far, in rank order
    picked = np.empty(0, dtype=np.int64)
    value = corr = np.empty(0)
    for limit, slack, cols, block, norms in bands.bands:
        if picked.size == count and value[-1] > limit * big + slack:
            break
        live = np.flatnonzero(candidates[cols])
        if not live.size:
            continue
        scores = block.correlations(r)[live]
        band = np.abs(per_unit_norm(scores, None if norms is None
                                    else norms[live]))
        top = np.argsort(-band, kind="stable")[:count]
        # the union of each band's best count holds the best count overall
        picked = np.concatenate((picked, cols[live[top]]))
        value = np.concatenate((value, band[top]))
        corr = np.concatenate((corr, scores[top]))
        keep = np.lexsort((picked, -value))[:count]
        picked, value, corr = picked[keep], value[keep], corr[keep]
    return list(zip(picked.tolist(), corr.tolist()))


def run_greedy(X, y, cfg, select):
    """The loop of OMP and group OMP; returns (final Model, Trajectory).

    The loop keeps the support as `order`, the active indices in entry
    order, and `candidates`, a mask over X's columns that is False at the
    bias from the start and at each index once it enters.
    select(r, candidates) returns a step's picks, best first, as
    (correlation norm ||X_W^T r||, record) pairs, empty when nothing is
    left; of these, only as many as the budget has room for are kept.
    The run stops when the first norm is at most cfg.epsilon; otherwise
    each kept record whose norm is not at most cfg.epsilon (the first's
    always) enters its members_added, and all of them then take the
    RefitWork counters of the one refit that follows. A checkpoint lands
    at the first selected count at or past each checkpoint_interval
    multiple, so a step that crosses several multiples makes one. Every
    refit of the run shares one RefitState, so the dense active block and
    the lagged inverse Hessian carry over from one step to the next.
    """
    y = checked_labels(X, y)
    order = [] if X.bias_col is None else [X.bias_col]
    candidates = np.ones(X.n_cols, dtype=bool)
    candidates[order] = False
    traj = Trajectory()
    state = RefitState()

    def refit(warm_start):
        return fit_restricted(X, y, order, cfg.lam, tol=cfg.tol,
                              max_iter=cfg.max_iter, warm_start=warm_start,
                              penalize_bias=cfg.penalize_bias, state=state)

    model = refit(None)  # the bias-only fit; all-zero without a bias
    r = y.copy()  # first selection correlates against the raw labels
    n_sel = 0  # selected indices, the bias not counted
    interval = cfg.checkpoint_interval
    while n_sel < cfg.budget:
        picks = select(r, candidates)[:cfg.budget - n_sel]
        if not picks or picks[0][0] <= cfg.epsilon:
            break
        records = [record for norm, record in picks
                   if not norm <= cfg.epsilon]
        added = [j for record in records for j in record.members_added]
        order.extend(added)
        candidates[added] = False
        before, n_sel = n_sel, n_sel + len(added)
        model = refit(model.theta)
        r = residual(X, model.theta, y)
        for record in records:
            for name in _WORK_FIELDS:
                setattr(record, name, getattr(model, name))
        traj.records.extend(records)
        if n_sel // interval > before // interval:
            traj.checkpoints.append((n_sel, model.theta.copy()))

    if not traj.checkpoints or traj.checkpoints[-1][0] != n_sel:
        traj.checkpoints.append((n_sel, model.theta.copy()))
    return model, traj


def run_omp(X, y, cfg):
    """Run greedy feature selection, cfg.atoms_per_step columns per refit;
    returns (final Model, Trajectory) with one record per selected column.

    Solver non-convergence on a refit is recorded on the records of its
    step and the loop continues with the last accepted iterate.
    """
    col_norms = X.col_norms() if cfg.normalize_columns else None
    bands = None

    def select(r, candidates):
        nonlocal bands
        if not candidates.any():
            return []  # every non-bias column is already active
        if bands is None:  # the first pick's mask covers every later one
            bands = screen_bands(X, candidates, col_norms)
        picks = select_feature(X, r, candidates, col_norms=col_norms,
                               bands=bands, count=cfg.atoms_per_step)
        return [(abs(corr), SelectionRecord(index=j, score=corr))
                for j, corr in picks]

    return run_greedy(X, y, cfg, select)
