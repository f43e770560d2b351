"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

The reference-corpus check needs a real sentiment dataset, which is not
bundled; point TEXTOMP_ACCEPT_CORPUS / TEXTOMP_ACCEPT_TEST /
TEXTOMP_ACCEPT_LABELMAP at one to run it (it records numbers and never
gates the suite).
"""

import math
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import textomp.omp as omp_mod
from textomp import (FitOptions, GOMPConfig, GridSpec, GroupStructure,
                     OMPConfig, PenaltyConfig, SparseMatrix, fit_penalized,
                     grid_search, run_gomp, run_omp)
from textomp.baselines import kkt_violation
from textomp.cli import main as cli_main
from textomp.evaluation import (DEFAULT_LAMBDA_GRID, accuracy, atoms_curve,
                                 write_reports)
from textomp.gomp import select_group
from textomp.logistic import ActiveSet, fit_restricted, gradient, sigmoid
from textomp.omp import select_feature

from conftest import group_trajectory_errors

# the benchmark's seeded corpus generator, shared at test size
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import gen  # noqa: E402

# Held-out accuracy of group OMP ("orthonormal" on unit-norm columns,
# budget 60, lambda 1) on the planted-group corpus of each seed. Unit-norm
# OMP at the same budget reached 0.844 / 0.830 / 0.821.
PLANTED_GOMP_ACCURACY = {0: 0.8665, 1: 0.8445, 2: 0.832}


def report_line(name, passed, detail=""):
    print(f"[{'PASS' if passed else 'FAIL'}] {name}"
          + (f" -- {detail}" if detail else ""))
    assert passed, f"{name}: {detail}"


def random_instance(rng, n, d, with_bias=True):
    dense = np.where(rng.random((n, d)) < 0.7, rng.normal(size=(n, d)), 0.0)
    if with_bias:
        dense[:, -1] = 1.0
    y = rng.choice([-1.0, 1.0], size=n)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = SparseMatrix.from_dense(dense, bias_col=d - 1 if with_bias else None)
    return dense, X, y


def planted_instance(rng, n, d, k, margin_scale=6.0, lam_bias=True):
    dense = rng.normal(size=(n, d))
    dense /= np.linalg.norm(dense, axis=0, keepdims=True)
    dense[:, -1] = 1.0
    support = np.sort(rng.choice(d - 1, size=k, replace=False))
    coefs = rng.choice([-1.0, 1.0], size=k)
    m = dense[:, support] @ coefs
    m = m / np.std(m) * margin_scale
    y = np.where(rng.random(n) < sigmoid(m), 1.0, -1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    X = SparseMatrix.from_dense(dense, bias_col=d - 1)
    return X, y, set(int(j) for j in support)


def scalar_objective(dense, y, theta, lam):
    total = 0.0
    for i in range(dense.shape[0]):
        z = -y[i] * float(np.dot(dense[i], theta))
        total += z + math.log1p(math.exp(-z)) if z > 30 \
            else math.log1p(math.exp(z))
    return total + lam * float(np.sum(np.asarray(theta) ** 2))


def test_gradient_matches_central_differences_on_random_instances():
    started = time.perf_counter()
    h = 1e-6
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(4, 21))
        d = int(rng.integers(2, 11))
        dense, X, y = random_instance(rng, n, d)
        theta = rng.normal(size=d)
        norm = np.linalg.norm(theta)
        if norm > 1.0:
            theta /= norm
        lam = float(rng.uniform(0.0, 2.0))
        g = gradient(X, y, theta, lam)
        for j in range(d):
            up, down = theta.copy(), theta.copy()
            up[j] += h
            down[j] -= h
            fd = (scalar_objective(dense, y, up, lam)
                  - scalar_objective(dense, y, down, lam)) / (2 * h)
            worst = max(worst, abs(g[j] - fd))
    elapsed = time.perf_counter() - started
    report_line("gradient matches central differences (50 instances)",
                worst < 1e-5 and elapsed < 5.0,
                f"max deviation {worst:.2e}, {elapsed:.2f}s")


def test_greedy_selection_matches_exhaustive_scan_and_never_repeats(
        monkeypatch):
    started = time.perf_counter()
    real = select_feature
    mismatches = []

    def exhaustive(X, r, candidates):
        best = None
        for j in range(X.n_cols):
            if j == X.bias_col or not candidates[j]:
                continue
            s = abs(X.correlations(r)[j])
            if best is None or s > best[1]:
                best = (j, s)
        return best[0]

    def checked(X, r, candidates, col_norms=None, bands=None):
        j, corr = real(X, r, candidates, col_norms=col_norms, bands=bands)
        jb = exhaustive(X, r, candidates)
        if j != jb:
            mismatches.append((j, jb))
        return j, corr

    monkeypatch.setattr(omp_mod, "select_feature", checked)
    repeats = 0
    for seed in range(20):
        rng = np.random.default_rng(2000 + seed)
        _, X, y = random_instance(rng, 12, 8)
        _, traj = run_omp(X, y, OMPConfig(budget=7, lam=0.5))
        picked = traj.selected_indices()
        if len(picked) != len(set(picked)):
            repeats += 1
    elapsed = time.perf_counter() - started
    report_line("every selection equals the exhaustive argmax, no repeats "
                "(20 instances)",
                not mismatches and repeats == 0 and elapsed < 5.0,
                f"{len(mismatches)} mismatches, {repeats} repeat "
                f"trajectories, {elapsed:.2f}s")


def test_group_score_criteria_reduce_to_each_other():
    rng = np.random.default_rng(7)
    dense = np.column_stack([rng.normal(size=(16, 9)), np.ones(16)])
    X = SparseMatrix.from_dense(dense, bias_col=9)
    r = rng.normal(size=16)

    singleton = GroupStructure([("s", [7])])
    gap_avg = abs(select_group(X, singleton, r, criterion="averaged")[1]
                  - select_group(X, singleton, r, criterion="orthonormal")[1])

    _, Xr, y = random_instance(np.random.default_rng(8), 25, 10)
    singles = GroupStructure([(f"s{j}", [j]) for j in range(9)])
    cfg = GOMPConfig(budget=9, lam=0.5, criterion="averaged",
                     augment_singletons=False)
    _, gtraj = run_gomp(Xr, y, singles, cfg)
    _, otraj = run_omp(Xr, y, OMPConfig(budget=9, lam=0.5))
    gomp_seq = [rec.members_added[0] for rec in gtraj.records]
    same_seq = gomp_seq == otraj.selected_indices()

    report_line("averaged score equals orthonormal score on singletons",
                gap_avg == 0.0, f"gap {gap_avg:.2e}")
    report_line("all-singleton group run replays the plain greedy sequence",
                same_seq, f"{gomp_seq} vs {otraj.selected_indices()}")


def test_inactive_groups_disjoint_from_active_set_on_random_structures():
    violations = []
    for seed in range(100):
        rng = np.random.default_rng(3000 + seed)
        dense, X, y = random_instance(rng, 12, 10)
        n_groups = int(rng.integers(3, 8))
        groups = GroupStructure([
            (f"g{i}",
             sorted(rng.choice(9, size=int(rng.integers(1, 5)),
                               replace=False).tolist()))
            for i in range(n_groups)
        ])
        cfg = GOMPConfig(budget=9, lam=0.5, augment_singletons=False,
                         checkpoint_interval=1)
        _, traj = run_gomp(X, y, groups, cfg)
        violations += [(seed, error) for error in group_trajectory_errors(
            dense, X, y, groups, cfg.criterion, traj)]
    report_line("inactive groups stay disjoint from the active set "
                "(100 random overlapping structures)", not violations,
                f"{len(violations)} violations")


def test_planted_support_recovery_rate():
    hits = 0
    for seed in range(50):
        rng = np.random.default_rng(4000 + seed)
        X, y, support = planted_instance(rng, 200, 101, 5)
        _, traj = run_omp(X, y, OMPConfig(budget=5, lam=0.1))
        if len(set(traj.selected_indices()) & support) >= 4:
            hits += 1
    report_line("recovers >=4 of 5 planted features in >=90% of 50 trials",
                hits >= 45, f"{hits}/50 trials")


def planted_group_instance(seed):
    """1000 training and 2000 held-out docs of 100 Zipfian tokens over
    4000 words plus a bias, labelled by 40 planted signal words, with the
    vocabulary cut into overlapping groups of 10 whose first few hold the
    signal words (perfbench's generator). Returns the train and held-out
    (X, y) pairs, the groups and the planted weights."""
    rng = np.random.default_rng([2, seed])
    vocab = 4000
    d = gen.bag_of_words(rng, 1000, 2000, vocab, 100, candidate_ranks=1500)
    groups = gen.planted_groups(rng, vocab, d["w"], 10, 0.25, 10)
    X = SparseMatrix(d["train_n"], vocab + 1, *d["train"], bias_col=vocab)
    X_held = SparseMatrix(d["heldout_n"], vocab + 1, *d["heldout"],
                          bias_col=vocab)
    return (X, d["train_y"]), (X_held, d["heldout_y"]), groups, d["w"]


def test_group_omp_beats_unit_norm_omp_on_planted_groups():
    for seed, recorded in PLANTED_GOMP_ACCURACY.items():
        started = time.perf_counter()
        (X, y), held, groups, w = planted_group_instance(seed)
        omp_model, _ = run_omp(X, y, OMPConfig(budget=60, lam=1.0,
                                               normalize_columns=True))
        gomp_model, traj = run_gomp(X, y, GroupStructure(groups), GOMPConfig(
            budget=60, lam=1.0, normalize_columns=True,
            criterion="orthonormal"))
        omp_acc = accuracy(omp_model, *held)
        gomp_acc = accuracy(gomp_model, *held)
        # share of planted signal words among each activated group's members
        signal = [float(np.mean(w[list(rec.members_original)] != 0))
                  for rec in traj.records]
        elapsed = time.perf_counter() - started
        report_line(
            f"seed {seed}: group OMP finds planted groups first and beats "
            "unit-norm OMP at equal budget",
            min(signal[:4]) >= 0.5 and gomp_acc > omp_acc
            and gomp_acc >= recorded - 0.005,
            f"group OMP {gomp_acc:.4f} (recorded {recorded}), OMP "
            f"{omp_acc:.4f}, signal share "
            f"{[round(f, 2) for f in signal]}, {elapsed:.2f}s")


def row_split(X, y, n_first):
    """(X, y) of the first n_first rows and of the rest."""
    cols = np.repeat(np.arange(X.n_cols), np.diff(X.indptr))
    halves = []
    for keep, shift, n in ((X.rows < n_first, 0, n_first),
                           (X.rows >= n_first, n_first, X.n_rows - n_first)):
        halves.append((SparseMatrix.from_triplets(
            n, X.n_cols, X.rows[keep] - shift, cols[keep], X.vals[keep],
            bias_col=X.bias_col), y[shift:shift + n]))
    return halves


def test_unit_norm_omp_is_as_accurate_as_lasso_with_half_its_nonzeros():
    """The paper's claim: OMP's models are at least as accurate as the
    lasso's and much sparser. Each method is tuned on a dev split, OMP over
    (lambda, atom count) at every 5th atom, the lasso over lambda, both on
    the default lambda grid, with dev ties going to the sparser model; the
    winners then face each other on a test split."""
    for seed in range(3):
        started = time.perf_counter()
        d = gen.bag_of_words(np.random.default_rng([4, seed]), 1000, 2000,
                             4000, 100, candidate_ranks=1500)
        X = SparseMatrix(d["train_n"], 4001, *d["train"], bias_col=4000)
        y = d["train_y"]
        held = SparseMatrix(d["heldout_n"], 4001, *d["heldout"],
                            bias_col=4000)
        dev, test = row_split(held, d["heldout_y"], 1000)
        best = None
        for lam in DEFAULT_LAMBDA_GRID:
            _, traj = run_omp(X, y, OMPConfig(
                budget=200, lam=lam, normalize_columns=True,
                checkpoint_interval=5))
            for (count, theta), (_, acc) in zip(traj.checkpoints,
                                                atoms_curve(traj, *dev)):
                if best is None or (-acc, count) < (-best[0], best[1]):
                    best = acc, count, theta
        omp_acc, omp_nnz = accuracy(best[2], *test), best[1]
        lasso, report, _ = grid_search(X, y, *dev, GridSpec(method="lasso"))
        lasso_acc, lasso_nnz = accuracy(lasso, *test), report.n_active
        report_line(
            f"seed {seed}: unit-norm OMP is at least as accurate as the "
            "lasso with at most half its nonzeros",
            omp_acc >= lasso_acc and 2 * omp_nnz <= lasso_nnz,
            f"OMP {omp_acc:.3f} at {omp_nnz} atoms, lasso {lasso_acc:.3f} "
            f"at {lasso_nnz} nonzeros, "
            f"{time.perf_counter() - started:.1f}s")


def test_full_budget_run_equals_ridge_on_all_features():
    rng = np.random.default_rng(9)
    _, X, y = random_instance(rng, 40, 12)
    model, _ = run_omp(X, y, OMPConfig(budget=12, epsilon=0.0, lam=1.0))
    ridge = fit_restricted(X, y, ActiveSet(range(12)), lam=1.0)
    gap = float(np.max(np.abs(model.theta - ridge.theta)))
    report_line("exhausted budget equals ridge on all features (1e-6 "
                "per weight)", gap <= 1e-6, f"max weight gap {gap:.2e}")


def test_dev_tie_selects_sparser_model():
    rng = np.random.default_rng(11)

    def separable(n):
        y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        if np.all(y == y[0]):
            y[0] = -y[0]
        dense = np.column_stack([
            3.0 * y, 3.0 * y + 0.01 * rng.normal(size=n),
            rng.normal(size=(n, 4)), np.ones(n)])
        return SparseMatrix.from_dense(dense, bias_col=6), y

    def with_private_word(X, rows):
        col = np.zeros(X.n_rows)
        col[rows] = 1.0
        return SparseMatrix.from_dense(
            np.insert(X.densify_columns(range(X.n_cols)), -1, col, axis=1),
            bias_col=X.n_cols)

    X, y = separable(40)
    Xd, yd = separable(20)
    # one mislabeled training document holds a word of its own: the weak
    # penalty fits it with that word, which no dev document holds, so
    # both fits classify dev alike with different nonzero counts
    X, Xd = with_private_word(X, [0]), with_private_word(Xd, [])
    y[0] = -y[0]
    spec = GridSpec(method="lasso", lambda_values=(0.01, 2.0))
    model, best, reports = grid_search(X, y, Xd, yd, spec)
    tied = reports[0].dev_accuracy == reports[1].dev_accuracy
    sparser_won = best.n_active == min(r.n_active for r in reports) \
        and best.hyperparams["lambda"] == 2.0 \
        and int(np.count_nonzero(model.theta[:-1])) == best.n_active
    report_line("dev-accuracy tie resolved toward the sparser model",
                tied and sparser_won,
                f"accuracies {[r.dev_accuracy for r in reports]}, "
                f"nonzeros {[r.n_active for r in reports]}")


def test_reference_corpus_reproduction(tmp_path):
    corpus = os.environ.get("TEXTOMP_ACCEPT_CORPUS")
    test_corpus = os.environ.get("TEXTOMP_ACCEPT_TEST")
    label_map = os.environ.get("TEXTOMP_ACCEPT_LABELMAP")
    if not (corpus and test_corpus and label_map):
        print("[SKIP] reference-corpus reproduction -- no dataset provided "
              "(set TEXTOMP_ACCEPT_CORPUS/_TEST/_LABELMAP); this check "
              "records numbers and never gates the suite")
        pytest.skip("no reference corpus provided")

    from textomp import Corpus, SplitSpec, build_matrix, stratified_split
    from textomp.textpipe import load_raw_corpus, map_labels

    mapping = {}
    for part in label_map.split(","):
        name, _, val = part.partition("=")
        mapping[name] = int(val)
    train_docs = map_labels(load_raw_corpus(corpus), mapping)
    test_docs = map_labels(load_raw_corpus(test_corpus), mapping)
    train_docs, dev_docs = stratified_split(train_docs,
                                            SplitSpec(train_fraction=0.8,
                                                      seed=0))
    built = Corpus.build(train_docs)
    X, y = build_matrix(built, train_docs)
    Xd, yd = build_matrix(built, dev_docs)
    Xt, yt = build_matrix(built, test_docs)

    budget = int(os.environ.get("TEXTOMP_ACCEPT_BUDGET", "2000"))
    spec = GridSpec(method="omp")
    best_model, best, reports = grid_search(X, y, Xd, yd, spec,
                                            FitOptions(budget=budget))
    from textomp import accuracy
    best.test_accuracy = accuracy(best_model, Xt, yt)
    out = tmp_path / "reference_reports.txt"
    write_reports(reports, out)
    print(f"[INFO] reference-corpus reproduction -- test accuracy "
          f"{best.test_accuracy:.4f} (reference window 0.750..0.850), "
          f"nonzero {best.sparsity_pct:.2f}% (reference <=10%), "
          f"reports at {out}")
    within = abs(best.test_accuracy - 0.800) <= 0.05 \
        and best.sparsity_pct <= 10.0
    print(f"[{'PASS' if within else 'INFO'}] reference numbers "
          f"{'inside' if within else 'outside'} the expected window; "
          "deviations trigger investigation, not rejection")


def test_lasso_kkt_conditions_on_random_instances():
    tol = 1e-6
    worst = 0.0
    all_converged = True
    for seed in range(20):
        rng = np.random.default_rng(5000 + seed)
        n = int(rng.integers(8, 16))
        d = int(rng.integers(4, 9))
        _, X, y = random_instance(rng, n, d)
        cfg = PenaltyConfig(lambda_l1=float(rng.uniform(0.05, 0.5)),
                            lambda_l2=0.0)
        model = fit_penalized(X, y, cfg, tol=tol, max_iter=200000)
        all_converged &= model.converged
        worst = max(worst, kkt_violation(X, y, model.theta, cfg))
    report_line("lasso fits satisfy soft-threshold optimality "
                "(20 instances, tol 1e-6)", all_converged and worst <= tol,
                f"max violation {worst:.2e}")


def test_model_files_identical_across_reruns(tmp_path):
    rng = np.random.default_rng(21)
    X, y, _ = planted_instance(rng, 60, 31, 3)
    matrix = tmp_path / "train.matrix"
    labels = tmp_path / "train.labels"
    X.save(matrix)
    from textomp.textpipe import save_labels
    save_labels(y, labels)

    digests = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        code = cli_main(["train", "--matrix", str(matrix),
                         "--labels", str(labels),
                         "--method", "omp", "--budget", "8",
                         "--lambda", "0.5", "--out-dir", str(out)])
        assert code == 0
        digests.append([(out / name).read_bytes()
                        for name in ("model.txt", "manifest.json")])
    report_line("identical train reruns produce identical model and "
                "manifest files", digests[0] == digests[1])
