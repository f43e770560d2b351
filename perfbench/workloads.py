"""The three benchmark workloads: set-up, the timed call, and output checks.

Each workload has
  setup(rng, workdir) -> inputs    generate inputs from a seed (set-up time)
  digest(inputs)      -> str       sha256 of the generated inputs
  run(inputs, region) -> raw       the timed section: calls into textomp only
  evaluate(inputs, raw) -> Outcome checks and statistics, outside the timing

`region(name)` is a context manager the traced run uses to record a span
around a block of benchmark code; untraced runs pass a no-op.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import tempfile
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen
from textomp import cli, evaluation, gomp, logistic, omp
from textomp.groups import Group, GroupStructure
from textomp.sparse import SparseMatrix

# A fitted model must beat this held-out accuracy; the planted model must
# too, and always-predict-the-majority-class must not.
ACCURACY_FLOOR = 0.6


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    fits: int = 0
    nonconverged: int = 0
    accuracy: float = float("nan")
    support_sha256: str = ""
    model_sha256: str = ""
    checks: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)
    wall_s: float = float("nan")


def _sha(*parts):
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes)
                 else np.ascontiguousarray(part).tobytes())
        h.update(b"|")
    return h.hexdigest()


def _file_sha(paths):
    return _sha(*(Path(p).read_bytes() for p in paths))


def _ints(values):
    return np.asarray(list(values), dtype=np.int64)


def _accuracy_checks(checks, acc, planted_acc, y):
    majority = max(np.mean(y > 0), np.mean(y < 0))
    checks["accuracy_above_floor"] = bool(acc >= ACCURACY_FLOOR)
    checks["planted_model_clears_floor"] = planted_acc >= ACCURACY_FLOOR
    checks["chance_below_floor"] = bool(majority < ACCURACY_FLOOR)


def _selection_checks(checks, selected, bias_col):
    checks["no_feature_selected_twice"] = len(set(selected)) == len(selected)
    checks["bias_never_selected"] = bias_col not in set(selected)


def _overshoot_ok(n_selected, last_group_size, budget):
    """Group OMP may pass the budget only with its last activated group."""
    return n_selected >= budget and n_selected - last_group_size < budget


# -- library workloads --------------------------------------------------------

class _InMemory:
    """Shared shape of omp_refit and gomp_overlap: a Zipfian bag-of-words
    matrix, 2000 docs x 20k words plus bias, 150 tokens per doc, and a
    4000-doc held-out split from the same planted model."""

    n_docs = 2000
    n_heldout = 4000
    vocab = 20000
    tokens_per_doc = 150
    lam = 1.0

    def setup(self, rng, workdir):
        d = gen.bag_of_words(rng, self.n_docs, self.n_heldout, self.vocab,
                             self.tokens_per_doc)
        inputs = {
            "X": SparseMatrix(d["train_n"], self.vocab + 1, *d["train"],
                              bias_col=self.vocab),
            "y": d["train_y"],
            "X_heldout": SparseMatrix(d["heldout_n"], self.vocab + 1,
                                      *d["heldout"], bias_col=self.vocab),
            "y_heldout": d["heldout_y"],
            "planted_acc": d["heldout_planted_acc"],
        }
        self.add_inputs(rng, d, inputs)
        return inputs

    def add_inputs(self, rng, d, inputs):
        pass

    def digest(self, inputs):
        X = inputs["X"]
        return _sha(X.indptr, X.rows, X.vals, inputs["y"],
                    inputs["X_heldout"].vals, inputs["y_heldout"])

    def run(self, inputs, region):
        try:
            model, traj = self.fit(inputs)
        except Exception:
            traceback.print_exc()
            return {"failed": True}
        return {"failed": False, "model": model, "traj": traj}

    def evaluate(self, inputs, raw):
        out = Outcome(attempted=1, failed=int(raw["failed"]))
        out.checks["no_call_raised"] = not raw["failed"]
        if raw["failed"]:
            return out
        model, records = raw["model"], raw["traj"].records
        X = inputs["X"]
        out.fits = len(records)
        out.nonconverged = sum(not r.converged for r in records)
        selected = self.selected(records)
        self.check_budget(out, records, selected,
                          model.active.n_selected(X.bias_col))
        _selection_checks(out.checks, selected, X.bias_col)
        out.accuracy = evaluation.accuracy(model, inputs["X_heldout"],
                                           inputs["y_heldout"])
        _accuracy_checks(out.checks, out.accuracy, inputs["planted_acc"],
                         inputs["y_heldout"])
        grad = logistic.gradient(X, inputs["y"], model.theta, self.lam)
        out.extras["final_grad_inf"] = float(
            np.max(np.abs(grad[model.active.ascending()])))
        out.support_sha256 = _sha(_ints(selected))
        out.model_sha256 = _sha(model.theta)
        return out


class OmpRefit(_InMemory):
    name = "omp_refit"
    budget = 150

    def fit(self, inputs):
        cfg = omp.OMPConfig(budget=self.budget, lam=self.lam)
        return omp.run_omp(inputs["X"], inputs["y"], cfg)

    def selected(self, records):
        return [r.index for r in records]

    def check_budget(self, out, records, selected, n_selected):
        out.checks["selects_exactly_budget"] = \
            len(selected) == n_selected == self.budget


class GompOverlap(_InMemory):
    """Group OMP with the CLI defaults (criterion "averaged", singletons
    appended). An averaged group score never exceeds its best member's
    singleton score, so a multi-member group wins only on an exact tie:
    this workload measures the per-step overhead of the default path."""

    name = "gomp_overlap"
    budget = 60
    group_size = 10
    overlap = 0.25
    planted_groups = 10

    def add_inputs(self, rng, d, inputs):
        pairs = gen.planted_groups(rng, self.vocab, d["w"], self.group_size,
                                   self.overlap, self.planted_groups)
        inputs["groups"] = GroupStructure(
            [Group(name, tuple(members)) for name, members in pairs])

    def digest(self, inputs):
        members = [j for g in inputs["groups"] for j in g.members + (-1,)]
        return _sha(super().digest(inputs).encode(), _ints(members))

    def fit(self, inputs):
        cfg = gomp.GOMPConfig(budget=self.budget, lam=self.lam)
        return gomp.run_gomp(inputs["X"], inputs["y"], inputs["groups"], cfg)

    def selected(self, records):
        return [j for r in records for j in r.members_added]

    def check_budget(self, out, records, selected, n_selected):
        out.checks["overshoot_at_most_last_group"] = \
            len(selected) == n_selected and _overshoot_ok(
                n_selected, len(records[-1].members_added), self.budget)
        out.extras["multi_member_wins"] = sum(
            len(r.members_added) > 1 for r in records)


# -- CLI pipeline ---------------------------------------------------------------

@contextlib.contextmanager
def capture_greedy_fits():
    """Collect the (model, Trajectory) pairs that the CLI's greedy fits
    return, since the CLI keeps trajectories in memory only. Installed for
    the timed section of every run, traced or not; it adds one list append
    per fit."""
    fits = []
    saved = [(omp, "run_omp", omp.run_omp), (gomp, "run_gomp", gomp.run_gomp)]

    def tap(fn):
        def call(*args, **kwargs):
            result = fn(*args, **kwargs)
            fits.append(result)
            return result
        return call

    for module, attr, fn in saved:
        setattr(module, attr, tap(fn))
    try:
        yield fits
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)


class CliPipeline:
    """vectorize -> group -> grid -> train (lasso, gomp) -> eval -> top-weights,
    each an in-process textomp.cli.main call on files under the work dir."""

    name = "cli_pipeline"
    vocab = 20000
    n_docs = 4000
    n_test = 4000
    tokens_per_doc = 100
    embedded = 5000
    dim = 50
    k = 1000
    budget = 50
    grid_lambdas = "0.1,1,10"
    lasso_lambda = "10"  # from the default grid; hits the iteration cap

    def setup(self, rng, workdir):
        workdir = Path(workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        rank_to_word = rng.permutation(self.vocab)
        w = gen.planted_weights(rng, self.vocab, rank_to_word, 0.01, 4000,
                                4.0, self.tokens_per_doc)
        words = gen.word_strings(self.vocab)
        planted = {}
        for name, n in (("train", self.n_docs), ("test", self.n_test)):
            tokens = gen.draw_tokens(rng, n, self.tokens_per_doc,
                                     rank_to_word)
            y, planted[name] = gen.labels_from(rng, tokens, w)
            gen.write_corpus(workdir / f"{name}.tsv", tokens, y, words)
        top = rank_to_word[:self.embedded]
        emb = gen.clustered_embeddings(rng, top, self.dim, self.k, w)
        gen.write_embeddings(workdir / "emb.txt", [words[j] for j in top], emb)
        return {"dir": workdir, "planted_acc": planted["test"]}

    def digest(self, inputs):
        d = inputs["dir"]
        return _file_sha([d / "train.tsv", d / "test.tsv", d / "emb.txt"])

    def commands(self, src, out):
        v = out / "vec"
        data = ["--matrix", v / "train.matrix", "--labels", v / "train.labels"]
        steps = [
            ["vectorize", "--corpus", src / "train.tsv",
             "--test-corpus", src / "test.tsv",
             "--label-map", "neg=-1,pos=+1", "--out-dir", v],
            ["group", "--embeddings", src / "emb.txt",
             "--vocab", v / "vocab.txt", "--k", self.k, "--max-iter", 10,
             "--neighbors", 5, "--out", out / "groups.txt"],
            ["grid", "--method", "omp", "--budget", self.budget,
             "--lambdas", self.grid_lambdas, *data,
             "--dev-matrix", v / "dev.matrix", "--dev-labels", v / "dev.labels",
             "--test-matrix", v / "test.matrix",
             "--test-labels", v / "test.labels", "--out-dir", out / "grid"],
            ["train", "--method", "lasso", "--lambda", self.lasso_lambda,
             *data, "--out-dir", out / "lasso"],
            ["train", "--method", "gomp", "--criterion", "orthonormal",
             "--no-augment-singletons", "--groups", out / "groups.txt",
             "--budget", self.budget, *data, "--out-dir", out / "gomp"],
            ["eval", "--model", out / "grid" / "best_model.txt",
             "--matrix", v / "test.matrix", "--labels", v / "test.labels"],
            ["top-weights", "--model", out / "grid" / "best_model.txt",
             "--vocab", v / "vocab.txt"],
        ]
        return [[str(a) for a in step] for step in steps]

    def run(self, inputs, region):
        out = Path(tempfile.mkdtemp(prefix="run-", dir=inputs["dir"]))
        steps = []
        with capture_greedy_fits() as fits:
            for argv in self.commands(inputs["dir"], out):
                buf = io.StringIO()
                start = time.perf_counter()
                with region("cli." + argv[0]):
                    try:
                        with contextlib.redirect_stdout(buf):
                            code = cli.main(argv)
                    except Exception:  # counted as a failed call
                        traceback.print_exc()
                        code = None
                steps.append({"subcommand": argv[0], "exit": code,
                              "stdout": buf.getvalue(),
                              "seconds": time.perf_counter() - start})
        return {"out": out, "steps": steps, "fits": fits}

    def evaluate(self, inputs, raw):
        out, steps, fits = raw["out"], raw["steps"], raw["fits"]
        res = Outcome(attempted=len(steps),
                      failed=sum(s["exit"] != 0 for s in steps))
        res.checks["every_subcommand_exits_0"] = res.failed == 0
        exits = Counter()
        for s in steps:
            exits[s["subcommand"]] += int(s["exit"] != 0)
        res.extras["exit_nonzero"] = dict(exits)
        res.extras["step_s"] = [(s["subcommand"], round(s["seconds"], 3))
                                for s in steps]
        if res.failed:
            return res
        bias_col = len((out / "vec" / "vocab.txt").read_text(
            encoding="utf-8").splitlines())
        omp_fits = [t for _, t in fits
                    if isinstance(t.records[0], omp.SelectionRecord)]
        gomp_fits = [t for _, t in fits
                     if isinstance(t.records[0], gomp.GroupSelectionRecord)]
        selected_lists = [t.selected_indices() for t in omp_fits] + [
            [j for r in t.records for j in r.members_added] for t in gomp_fits]
        res.checks["grid_fits_select_exactly_budget"] = len(omp_fits) == 3 \
            and all(len(s) == self.budget for s in selected_lists[:3])
        res.checks["no_feature_selected_twice"] = all(
            len(set(s)) == len(s) for s in selected_lists)
        res.checks["bias_never_selected"] = all(
            bias_col not in s for s in selected_lists)
        g_records = gomp_fits[0].records if len(gomp_fits) == 1 else []
        res.checks["gomp_overshoot_at_most_last_group"] = bool(g_records) \
            and _overshoot_ok(len(selected_lists[-1]),
                              len(g_records[-1].members_added), self.budget)
        res.extras["multi_member_wins"] = sum(
            len(r.members_added) > 1 for r in g_records)

        # refits from trajectories, whole fits from the lasso FitReport
        records = [r for _, t in fits for r in t.records]
        lasso = evaluation.read_reports(out / "lasso" / "report.txt")
        res.fits = len(records) + len(lasso)
        res.nonconverged = sum(not r.converged for r in records) \
            + sum(not r.converged for r in lasso)

        eval_out = next(s["stdout"] for s in steps if s["subcommand"] == "eval")
        res.accuracy = float(eval_out.strip().rpartition("accuracy=")[2])
        y_test = np.loadtxt(out / "vec" / "test.labels")
        _accuracy_checks(res.checks, res.accuracy, inputs["planted_acc"],
                         y_test)
        models = [out / "grid" / "best_model.txt", out / "lasso" / "model.txt",
                  out / "gomp" / "model.txt"]
        supports = [np.nonzero(cli.load_model(p)[0])[0] for p in models]
        res.support_sha256 = _sha(*(_ints(s) for s in selected_lists),
                                  *supports)
        res.model_sha256 = _file_sha(models)
        return res


WORKLOADS = {wl.name: wl for wl in (OmpRefit(), GompOverlap(), CliPipeline())}
