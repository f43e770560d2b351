"""Span tracing installed around textomp's layer boundaries from outside.

Each traced function is replaced, under the exact name its caller looks
up, by a wrapper that records a span (name, parent, start, end) plus
optional counters computed from the call's arguments and result. Spans
stay in memory; the caller turns them into per-layer metrics and writes
them out at the end of the run. `Tracer.remove()` restores every
original object, so untraced runs execute the unmodified program.

Per-element helpers (sigmoid, col_dot, tokenize) are deliberately not
wrapped: their callers are timed instead, which keeps the overhead small.
"""

from __future__ import annotations

import contextlib
import os
import time

from textomp import (baselines, cli, evaluation, gomp, grouping, omp,
                     textpipe)
from textomp.sparse import SparseMatrix
from textomp.textpipe import Corpus


class Span:
    __slots__ = ("name", "parent", "start", "end", "counters")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = None
        self.end = None
        self.counters = None

    def as_dict(self):
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "counters": self.counters}


# -- counters computed at the boundary (never measured) --------------------------

def _refit_counters(args, kwargs, model):
    X = args[0]
    k = len(model.active)
    return {"newton_iters": model.n_iter,
            "nonconverged": int(not model.converged),
            "hessian_flops": X.n_rows * k * k * model.n_iter}


def _correlation_counters(args, kwargs, out):
    X = args[0]
    return {"bytes": 24 * X.nnz + 8 * (X.n_rows + X.n_cols)}


def _penalized_counters(args, kwargs, model):
    return {"n_iter": model.n_iter, "nonconverged": int(not model.converged)}


def _file_bytes(args, kwargs, out):
    # save(self, path) and the classmethod load(cls, path)
    return {"bytes": os.path.getsize(args[1])}


def _kmeans_counters(args, kwargs, out):
    emb, vocab, cfg = args[:3]
    embedded = sum(1 for tok in vocab if tok in emb)
    return {"dist_bytes": embedded * cfg.k * 8}


def _gomp_counters(args, kwargs, result):
    _, traj = result
    return {"multi_member_wins":
            sum(1 for r in traj.records if len(r.members_added) > 1)}


def _live_groups(args, kwargs):
    return {"groups_live": sum(1 for g in args[1] if len(g))}


# (owner, attribute, span name, counters after the call, counters before it)
TARGETS = [
    (omp, "run_omp", "omp.run_omp", None, None),
    (omp, "select_feature", "omp.select_feature", None, None),
    (omp, "fit_restricted", "logistic.fit_restricted", _refit_counters, None),
    (omp, "residual", "logistic.residual", None, None),
    (gomp, "run_gomp", "gomp.run_gomp", _gomp_counters, None),
    (gomp, "select_group", "gomp.select_group", None, _live_groups),
    (gomp, "remove_overlap", "gomp.remove_overlap", None, None),
    (gomp, "score_group_orthonormal", "gomp.score_group_orthonormal",
     None, None),
    (gomp, "fit_restricted", "logistic.fit_restricted", _refit_counters, None),
    (gomp, "residual", "logistic.residual", None, None),
    (SparseMatrix, "correlations", "sparse.correlations",
     _correlation_counters, None),
    (SparseMatrix, "mat_vec", "sparse.mat_vec", None, None),
    (SparseMatrix, "densify_columns", "sparse.densify_columns", None, None),
    (SparseMatrix, "save", "sparse.save", _file_bytes, None),
    (SparseMatrix, "load", "sparse.load", _file_bytes, None),
    (baselines, "fit_penalized", "baselines.fit_penalized",
     _penalized_counters, None),
    (evaluation, "grid_search", "evaluation.grid_search", None, None),
    (evaluation, "accuracy", "evaluation.accuracy", None, None),
    (cli, "accuracy", "evaluation.accuracy", None, None),
    (evaluation, "atoms_curve", "evaluation.atoms_curve", None, None),
    (textpipe, "load_raw_corpus", "textpipe.load_raw_corpus", None, None),
    (textpipe, "map_labels", "textpipe.map_labels", None, None),
    (Corpus, "build", "textpipe.Corpus.build", None, None),
    (textpipe, "build_matrix", "textpipe.build_matrix", None, None),
    (textpipe, "stratified_split", "textpipe.stratified_split", None, None),
    (grouping, "augment_singletons", "grouping.augment_singletons",
     None, None),
    (grouping, "load_embeddings", "grouping.load_embeddings", None, None),
    (grouping, "kmeans_cluster", "grouping.kmeans_cluster",
     _kmeans_counters, None),
    (grouping, "expand_overlap", "grouping.expand_overlap", None, None),
    (grouping, "save_groups", "grouping.save_groups", None, None),
    (grouping, "load_groups", "grouping.load_groups", None, None),
]


class Tracer:
    """Records spans while installed; `remove()` undoes every patch."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def install(self):
        for owner, attr, name, after, before in TARGETS:
            raw = owner.__dict__[attr]
            self._saved.append((owner, attr, raw))
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(raw.__func__, name, after,
                                                before))
            else:
                wrapped = self.wrap(raw, name, after, before)
            setattr(owner, attr, wrapped)
        return self

    def remove(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def wrap(self, fn, name, after=None, before=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            pre = before(args, kwargs) if before else None
            span = Span(name, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if after or pre:
                span.counters = dict(pre or {})
                if after:
                    span.counters.update(after(args, kwargs, out))
            return out

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def region(self, name):
        """Record a span around a block of the benchmark's own code."""
        span = Span(name, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()


# -- reduction to per-layer metrics ----------------------------------------------

def layer_totals(spans):
    """name -> {"calls", "total_s", "self_s", <summed counters>}."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals = {}
    for pos, span in enumerate(spans):
        t = totals.setdefault(span.name,
                              {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        dur = span.end - span.start
        t["calls"] += 1
        t["total_s"] += dur
        t["self_s"] += dur - child_time[pos]
        for key, val in (span.counters or {}).items():
            t[key] = t.get(key, 0) + val
    return totals


def step_times_ms(spans, loop_name, step_name):
    """Per-iteration wall times of a greedy loop, in ms.

    An iteration runs from one selection span's start to the next one's,
    and the last from its selection to the end of the enclosing loop span.
    """
    out = []
    for pos, loop in enumerate(spans):
        if loop.name != loop_name:
            continue
        starts = [s.start for s in spans
                  if s.name == step_name and s.parent == pos]
        bounds = starts + [loop.end]
        out.extend(1e3 * (b - a) for a, b in zip(bounds[:-1], bounds[1:]))
    return out
