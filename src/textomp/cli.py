"""Command-line entry point.

Subcommands wire the library into a file-based pipeline:

  vectorize    raw labeled text -> matrices, labels, vocabulary
  group        word embeddings -> overlapping cluster groups
  train        fit one model (omp / gomp / lasso / ridge / elastic / none)
  grid         dev-set grid search over the penalty grid
  eval         accuracy of a saved model on a matrix
  top-weights  highest-weighted vocabulary terms of a saved model

Every mutating run writes a JSON manifest whose config is every parsed
argument except the output locations: two runs with equal manifests read
the same input paths with the same settings.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import baselines, evaluation, gomp as gomp_mod, grouping, omp, textpipe
from .evaluation import FitOptions, GridSpec, accuracy
from .logistic import check_count, check_non_negative
from .sparse import SparseMatrix, _text_lines


class CliError(Exception):
    """Carries the exit code for a failed command."""

    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _usage(message):
    return CliError(message, 1)


def _data(message):
    return CliError(message, 2)


def _check_flags(args, counts, amounts=()):
    """Check numeric flags before any file is read or written, with the
    library's two value rules under each flag's own name: counts maps a
    flag to its lowest value (`check_count`), and each of amounts must be
    finite and >= 0 (`check_non_negative`). Their ValueError exits 2.
    train's penalty flags find their attribute in _PENALTY_FLAGS."""
    def value(flag):
        name = flag.lstrip("-").replace("-", "_")
        return getattr(args, _PENALTY_FLAGS.get(name, (name,))[0])

    for flag, low in counts.items():
        check_count(flag, value(flag), low)
    for flag in amounts:
        check_non_negative(flag, value(flag))


# -- model files ---------------------------------------------------------------

def save_model(theta, bias_col, path):
    """Header "d bias_col" (bias_col -1 when absent), then "index weight"
    lines for the nonzero coordinates in ascending index order."""
    theta = np.asarray(theta, dtype=np.float64)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{len(theta)} {-1 if bias_col is None else bias_col}\n")
        for j in np.nonzero(theta)[0]:
            fh.write(f"{j} {float(theta[j])!r}\n")


def load_model(path):
    """Inverse of save_model; returns (theta, bias_col)."""
    lines = _text_lines(path)
    _, header = next(lines, (1, ""))
    try:
        d, bias_col = map(int, header.split())
        if d < 0:
            raise ValueError
    except ValueError:
        raise ValueError(f"{path}:1: expected header 'd bias_col'") from None
    theta = np.zeros(d)
    for lineno, line in lines:
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'index weight'")
        try:
            j, w = int(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad entry ({exc})") from None
        if not 0 <= j < d:
            raise ValueError(f"{path}:{lineno}: index {j} out of range")
        theta[j] = w
    return theta, (None if bias_col < 0 else bias_col)


def top_weights(theta, vocab, n):
    """Top-n (term, weight) lists for both weight signs.

    vocab maps token -> column; the model must align with it (its feature
    count is the vocabulary size plus the bias column).
    """
    check_count("n", n, low=0)  # a negative slice would drop the last terms
    theta = np.asarray(theta, dtype=np.float64)
    if len(theta) != len(vocab) + 1:
        raise ValueError(
            f"model has {len(theta)} features but vocabulary has "
            f"{len(vocab)} tokens (+1 bias expected)")
    inverse = {j: tok for tok, j in vocab.items()}
    scored = [(float(theta[j]), inverse[j]) for j in range(len(vocab))
              if theta[j] != 0.0]
    positives = [(tok, w) for w, tok in
                 sorted((s for s in scored if s[0] > 0),
                        key=lambda s: (-s[0], s[1]))][:n]
    negatives = [(tok, w) for w, tok in
                 sorted((s for s in scored if s[0] < 0),
                        key=lambda s: (s[0], s[1]))][:n]
    return positives, negatives


# -- manifest ------------------------------------------------------------------

def _write_manifest(path, args):
    """The subcommand and, as its config, every parsed argument that is
    neither dispatch nor an output location."""
    config = {name: value for name, value in vars(args).items() if name not in
              ("func", "subcommand", "out_dir", "out", "manifest_out")}
    manifest = {"subcommand": args.subcommand, "config": config}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- vectorize -----------------------------------------------------------------

def _parse_label_map(text):
    mapping = {}
    for part in text.split(","):
        name, _, val = part.partition("=")
        if not name or val not in ("-1", "+1", "1"):
            raise _usage(f"bad label mapping {part!r}; use name=-1 or name=+1")
        mapping[name] = 1 if val in ("+1", "1") else -1
    return mapping


def cmd_vectorize(args):
    mapping = _parse_label_map(args.label_map)
    _check_flags(args, {"--min-df": 1, "--seed": 0})
    spec = textpipe.SplitSpec(train_fraction=args.train_fraction,
                              seed=args.seed)

    train_docs = textpipe.map_labels(textpipe.load_raw_corpus(args.corpus),
                                     mapping)
    if args.dev_corpus:
        dev_docs = textpipe.map_labels(
            textpipe.load_raw_corpus(args.dev_corpus), mapping)
    else:
        train_docs, dev_docs = textpipe.stratified_split(train_docs, spec)

    corpus = textpipe.Corpus.build(train_docs, min_df=args.min_df)
    if not corpus.vocabulary:
        raise _data("training corpus produced an empty vocabulary")
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Token lists are the bulk of memory: hold one split's at a time, so
    # the test corpus is read only once train and dev are written.
    sizes = f"train {len(train_docs)} docs, dev {len(dev_docs)} docs"
    _write_split(corpus, "train", train_docs, out)
    del train_docs
    _write_split(corpus, "dev", dev_docs, out)
    del dev_docs
    if args.test_corpus:
        _write_split(corpus, "test", textpipe.map_labels(
            textpipe.load_raw_corpus(args.test_corpus), mapping), out)
    textpipe.save_vocabulary(corpus.vocabulary, out / "vocab.txt")

    _write_manifest(out / "manifest.json", args)
    print(f"vocabulary size {len(corpus.vocabulary)}; {sizes}")
    return 0


def _write_split(corpus, name, docs, out):
    X, y = textpipe.build_matrix(corpus, docs)
    X.save(out / f"{name}.matrix")
    textpipe.save_labels(y, out / f"{name}.labels")


# -- group ---------------------------------------------------------------------

def cmd_group(args):
    _check_flags(args, {"--k": 1, "--neighbors": 0, "--max-iter": 1,
                        "--seed": 0})
    emb = grouping.load_embeddings(args.embeddings)
    vocab = textpipe.load_vocabulary(args.vocab)
    n_embedded = sum(1 for tok in vocab if tok in emb)
    if n_embedded == 0:
        raise _data("no vocabulary token has an embedding")
    args.k = min(args.k, n_embedded)  # the manifest records the k used
    cfg = grouping.KMeansConfig(k=args.k, max_iter=args.max_iter,
                                seed=args.seed)
    structure = grouping.kmeans_cluster(emb, vocab, cfg)
    structure = grouping.expand_overlap(structure, emb, vocab,
                                        neighbors=args.neighbors,
                                        metric=args.metric)
    grouping.save_groups(structure, args.out)
    _write_manifest(str(args.out) + ".manifest.json", args)
    print(f"wrote {len(structure)} groups (k-means on {n_embedded} "
          f"embedded tokens) to {args.out}")
    return 0


# -- train / grid --------------------------------------------------------------

def _load_design(matrix_path, labels_path):
    X = SparseMatrix.load(matrix_path)
    y = textpipe.load_labels(labels_path)
    if len(y) != X.n_rows:
        raise _data(f"{labels_path}: {len(y)} labels for {X.n_rows} rows")
    return X, y


def _load_held_out(X, matrix_path, labels_path):
    """A dev or test design, which must have the training matrix's
    columns; loaded before any fit, so a mismatch costs no fit."""
    X_held, y_held = _load_design(matrix_path, labels_path)
    if X_held.n_cols != X.n_cols:
        raise _data(f"{matrix_path}: {X_held.n_cols} columns, but --matrix "
                    f"has {X.n_cols}")
    return X_held, y_held


# train's penalty flags: fit's hp key -> (argument attribute, default, help)
_PENALTY_FLAGS = {
    "lambda": ("lam", omp.GreedyConfig.lam, "penalty strength"),
    "lambda_l1": ("lambda_l1", baselines.PenaltyConfig.lambda_l1,
                  "elastic net L1 strength"),
    "lambda_l2": ("lambda_l2", baselines.PenaltyConfig.lambda_l2,
                  "elastic net L2 strength")}


def _check_method_settings(args):
    """Reject a solver or penalty flag that the method does not read unless
    it is left at its default, and a gomp run with no group at all."""
    settings = [(f.name, getattr(args, f.name), f.default,
                 evaluation.METHOD_SETTINGS)
                for f in dataclasses.fields(FitOptions)]
    if args.subcommand == "train":  # grid's penalties come from --lambdas
        settings += [(name, getattr(args, attr), default,
                      evaluation.METHOD_PENALTIES)
                     for name, (attr, default, _) in _PENALTY_FLAGS.items()]
    for name, value, default, readers in settings:
        if name not in readers[args.method] and value != default:
            flag = ("no-" if value is False else "") + name.replace("_", "-")
            methods = " or ".join(m for m in readers if name in readers[m])
            raise _usage(f"--{flag} is read by --method {methods} only")
    if args.method == "gomp" and not args.groups \
            and not args.augment_singletons:
        raise _usage("gomp needs --groups and/or --augment-singletons")


def _fit_options(args, X):
    settings = {f.name: getattr(args, f.name)
                for f in dataclasses.fields(FitOptions)}
    settings["groups"] = None
    if args.groups:  # _check_method_settings allows them with gomp only
        settings["groups"] = grouping.load_groups(args.groups, X.n_cols,
                                                  bias_col=X.bias_col)
    return FitOptions(**settings)


def cmd_train(args):
    _check_method_settings(args)
    if bool(args.dev_matrix) != bool(args.dev_labels):
        raise _usage("--dev-matrix and --dev-labels go together")
    hp = {name: getattr(args, _PENALTY_FLAGS[name][0])
          for name in evaluation.METHOD_PENALTIES[args.method]}
    _check_flags(args, {"--budget": 1, "--max-iter": 1},
                 ["--epsilon", "--tol",
                  *(f"--{name.replace('_', '-')}" for name in hp)])
    X, y = _load_design(args.matrix, args.labels)
    if args.dev_matrix:
        X_dev, y_dev = _load_held_out(X, args.dev_matrix, args.dev_labels)
    options = _fit_options(args, X)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    model, traj, report = evaluation.fit(args.method, hp, X, y, options)
    if args.dev_matrix:
        evaluation.score_on_dev(report, model, traj, X_dev, y_dev)
        if report.atoms_curve:
            _write_curve(report.atoms_curve, out / "curve.csv")

    save_model(model.theta, X.bias_col, out / "model.txt")
    evaluation.write_reports([report], out / "report.txt")
    _write_manifest(out / "manifest.json", args)
    print(evaluation.human_table([report]))
    return 0


def _write_curve(curve, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("atoms,accuracy\n")
        for count, acc in curve:
            fh.write(f"{count},{acc!r}\n")


def _write_scatter(reports, path):
    """Accuracy-vs-sparsity points, one row per successful fit."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("method,hyperparams,sparsity_pct,dev_accuracy\n")
        for r in reports:
            if not r.ok():
                continue
            hp = ";".join(f"{k}={v}" for k, v in sorted(r.hyperparams.items()))
            fh.write(f"{r.method},{hp},{r.sparsity_pct!r},{r.dev_accuracy!r}\n")


def cmd_grid(args):
    _check_method_settings(args)
    _check_flags(args, {"--budget": 1, "--max-iter": 1},
                 ["--epsilon", "--tol"])
    if bool(args.test_matrix) != bool(args.test_labels):
        raise _usage("--test-matrix and --test-labels go together")
    try:
        spec = GridSpec(method=args.method, lambda_values=[
            float(v) for v in args.lambdas.split(",") if v])
    except ValueError as exc:
        raise _data(f"--lambdas: {exc}") from None
    X, y = _load_design(args.matrix, args.labels)
    X_dev, y_dev = _load_held_out(X, args.dev_matrix, args.dev_labels)
    if args.test_matrix:
        X_test, y_test = _load_held_out(X, args.test_matrix, args.test_labels)
    options = _fit_options(args, X)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    try:
        best_model, best, reports = evaluation.grid_search(
            X, y, X_dev, y_dev, spec, options)
    except RuntimeError as exc:
        raise CliError(str(exc), 3) from exc

    if args.test_matrix:
        best.test_accuracy = accuracy(best_model, X_test, y_test)

    save_model(best_model.theta, X.bias_col, out / "best_model.txt")
    evaluation.write_reports(reports, out / "reports.txt")
    _write_scatter(reports, out / "scatter.csv")
    if best.atoms_curve:
        _write_curve(best.atoms_curve, out / "curve.csv")
    _write_manifest(out / "manifest.json", args)
    print(evaluation.human_table(reports))
    print(f"\nbest: {evaluation.format_report(best)}")
    return 0


# -- eval / top-weights ----------------------------------------------------------

def cmd_eval(args):
    theta, _ = load_model(args.model)
    X, y = _load_design(args.matrix, args.labels)
    if len(theta) != X.n_cols:
        raise _data(f"model has {len(theta)} features, matrix has {X.n_cols}")
    acc = accuracy(theta, X, y)
    print(f"accuracy={acc!r}")
    if args.manifest_out:
        _write_manifest(args.manifest_out, args)
    return 0


def cmd_top_weights(args):
    _check_flags(args, {"-n": 0})  # a negative slice would drop terms
    theta, _ = load_model(args.model)
    vocab = textpipe.load_vocabulary(args.vocab)
    positives, negatives = top_weights(theta, vocab, args.n)
    print("largest positive weights:")
    for tok, w in positives:
        print(f"  +{w:.6g}  {tok}")
    print("largest negative weights:")
    for tok, w in negatives:
        print(f"  {w:.6g}  {tok}")
    if args.manifest_out:
        _write_manifest(args.manifest_out, args)
    return 0


# -- parser ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        # whole flags only: an abbreviation would read grid's --lambda as
        # --lambdas instead of rejecting a flag that grid does not take
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_solver_flags(p):
    """One flag per FitOptions field, with its default."""
    p.add_argument("--budget", type=int, default=FitOptions.budget,
                   help="max selected features (omp/gomp)")
    p.add_argument("--epsilon", type=float, default=FitOptions.epsilon,
                   help="stop once the winner's ||X_W^T r|| is at most this")
    p.add_argument("--groups", default=None, help="group file for gomp")
    p.add_argument("--criterion", choices=gomp_mod.CRITERIA,
                   default=FitOptions.criterion)
    p.add_argument("--augment-singletons", action=argparse.BooleanOptionalAction,
                   default=FitOptions.augment_singletons,
                   help="append every feature as its own gomp group")
    p.add_argument("--normalize-columns", action=argparse.BooleanOptionalAction,
                   default=FitOptions.normalize_columns,
                   help="score selection correlations against unit-L2 columns")
    p.add_argument("--penalize-bias", action=argparse.BooleanOptionalAction,
                   default=FitOptions.penalize_bias,
                   help="include the bias in the L2 penalty")
    p.add_argument("--tol", type=float, default=FitOptions.tol)
    p.add_argument("--max-iter", type=int, default=FitOptions.max_iter)


def build_parser():
    parser = _Parser(prog="textomp",
                     description="Greedy sparse feature selection for "
                                 "logistic text classifiers.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("vectorize", help="text corpus to sparse matrices")
    p.add_argument("--corpus", required=True,
                   help="training file, one 'label<TAB>text' per line")
    p.add_argument("--dev-corpus", default=None)
    p.add_argument("--test-corpus", default=None)
    p.add_argument("--label-map", required=True,
                   help="category mapping, e.g. 'med=-1,space=+1'")
    p.add_argument("--train-fraction", type=float,
                   default=textpipe.SplitSpec.train_fraction)
    p.add_argument("--min-df", type=int, default=1)
    p.add_argument("--seed", type=int, default=textpipe.SplitSpec.seed)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_vectorize)

    p = sub.add_parser("group", help="k-means word-embedding groups")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("--k", type=int, default=grouping.KMeansConfig.k)
    p.add_argument("--max-iter", type=int,
                   default=grouping.KMeansConfig.max_iter)
    p.add_argument("--neighbors", type=int, default=5)
    p.add_argument("--metric", choices=("euclidean", "cosine"),
                   default="euclidean")
    p.add_argument("--seed", type=int, default=grouping.KMeansConfig.seed)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("train", help="fit one model")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--method", required=True, choices=evaluation.METHODS)
    p.add_argument("--dev-matrix", default=None,
                   help="optional dev split for accuracy and atom curves")
    p.add_argument("--dev-labels", default=None)
    for name, (attr, default, text) in _PENALTY_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), dest=attr, type=float,
                       default=default, help=text)
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid", help="grid search tuned on the dev split")
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--dev-matrix", required=True)
    p.add_argument("--dev-labels", required=True)
    p.add_argument("--test-matrix", default=None)
    p.add_argument("--test-labels", default=None)
    p.add_argument("--method", required=True, choices=evaluation.METHODS)
    p.add_argument("--lambdas", default=",".join(
        f"{v:g}" for v in evaluation.DEFAULT_LAMBDA_GRID))
    _add_solver_flags(p)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("eval", help="accuracy of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--manifest-out", default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("top-weights", help="largest-weight terms")
    p.add_argument("--model", required=True)
    p.add_argument("--vocab", required=True)
    p.add_argument("-n", type=int, default=10)
    p.add_argument("--manifest-out", default=None)
    p.set_defaults(func=cmd_top_weights)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # before ValueError: LinAlgError subclasses it but is a numerical failure
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
