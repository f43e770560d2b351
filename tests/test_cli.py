import dataclasses
import json

import numpy as np
import pytest

from textomp import (FitOptions, OMPConfig, PenaltyConfig, SparseMatrix,
                     evaluation, grouping, textpipe)
from textomp.cli import build_parser, load_model, main, save_model, top_weights
from textomp.textpipe import load_labels, load_vocabulary, save_labels

SPACE_WORDS = ["orbit", "rocket", "lunar"]
MED_WORDS = ["patient", "doctor", "dosage"]
FILLER = ["the", "report", "about", "new", "study"]


def write_corpus(path, n_per_class=12, seed=0):
    rng = np.random.default_rng(seed)
    lines = []
    for i in range(n_per_class):
        words = [SPACE_WORDS[i % 3], SPACE_WORDS[(i + 1) % 3]] \
            + list(rng.choice(FILLER, size=3))
        lines.append("space\t" + " ".join(words))
        words = [MED_WORDS[i % 3], MED_WORDS[(i + 1) % 3]] \
            + list(rng.choice(FILLER, size=3))
        lines.append("med\t" + " ".join(words))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.fixture
def vectorized(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    write_corpus(corpus)
    test_corpus = tmp_path / "test_corpus.tsv"
    write_corpus(test_corpus, n_per_class=4, seed=9)
    out = tmp_path / "vec"
    code = main(["vectorize", "--corpus", str(corpus),
                 "--test-corpus", str(test_corpus),
                 "--label-map", "med=-1,space=+1",
                 "--train-fraction", "0.75", "--seed", "7",
                 "--out-dir", str(out)])
    assert code == 0
    return out


def test_vectorize_outputs_and_label_mapping(vectorized):
    for name in ("train.matrix", "train.labels", "dev.matrix", "dev.labels",
                 "test.matrix", "test.labels", "vocab.txt", "manifest.json"):
        assert (vectorized / name).exists()
    labels = load_labels(vectorized / "train.labels")
    assert set(labels.tolist()) == {-1.0, 1.0}
    vocab = load_vocabulary(vectorized / "vocab.txt")
    assert "orbit" in vocab and "patient" in vocab
    manifest = json.loads((vectorized / "manifest.json").read_text())
    assert manifest["subcommand"] == "vectorize"
    assert manifest["config"]["seed"] == 7


def test_vectorize_unmapped_label_is_an_error(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("politics\tthe vote happened\n", encoding="utf-8")
    code = main(["vectorize", "--corpus", str(corpus),
                 "--label-map", "med=-1,space=+1",
                 "--out-dir", str(tmp_path / "o")])
    assert code == 2
    assert "politics" in capsys.readouterr().err


@pytest.mark.parametrize("flags,message", [
    (["--min-df", "0"], "--min-df must be >= 1"),
    (["--min-df", "-3"], "--min-df must be >= 1"),
    (["--seed", "-1"], "--seed must be >= 0"),
    (["--train-fraction", "1.5"], "train_fraction must lie in (0, 1)")],
    ids=["min-df-0", "min-df-negative", "seed-negative", "train-fraction"])
def test_vectorize_numeric_flags_are_rejected_before_any_file(
        tmp_path, capsys, flags, message):
    # --min-df 0 and -3 ran as 1 and exited 0; --seed -1 and
    # --train-fraction 1.5 created --out-dir and read the corpus first
    corpus = tmp_path / "corpus.tsv"
    write_corpus(corpus)
    for path in (corpus, tmp_path / "absent.tsv"):
        out = tmp_path / "out"
        assert main(["vectorize", "--corpus", str(path),
                     "--label-map", "med=-1,space=+1", *flags,
                     "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_vectorize_reads_a_dev_corpus_instead_of_splitting(tmp_path):
    corpus, dev = tmp_path / "corpus.tsv", tmp_path / "dev.tsv"
    write_corpus(corpus)
    write_corpus(dev, n_per_class=3, seed=4)
    out = tmp_path / "vec"
    assert main(["vectorize", "--corpus", str(corpus),
                 "--dev-corpus", str(dev), "--label-map", "med=-1,space=+1",
                 "--out-dir", str(out)]) == 0
    assert len(load_labels(out / "train.labels")) == 24  # every train doc
    assert len(load_labels(out / "dev.labels")) == 6
    assert SparseMatrix.load(out / "dev.matrix").n_rows == 6


def test_vectorize_rejects_an_empty_vocabulary(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("".join(f"{label}\t?! ...\n" for label in
                              ["med", "space"] * 5), encoding="utf-8")
    out = tmp_path / "vec"
    assert main(["vectorize", "--corpus", str(corpus),
                 "--label-map", "med=-1,space=+1",
                 "--out-dir", str(out)]) == 2
    assert "empty vocabulary" in capsys.readouterr().err
    assert not (out / "train.matrix").exists()


@pytest.mark.parametrize("corpus_text, split, label_map, message", [
    ("pos\tgood film\nneg\tbad film\n", None, "neg=-1",
     "label 'pos' has no mapping to -1/+1"),
    ("pos\t?!\nneg\t...\n", None, "neg=-1,pos=+1", "empty vocabulary"),
    ("pos\tgood film\nneg\tbad film\n", ("dev", b"pos\tgood\nneg\tcaf\xe9\n"),
     "neg=-1,pos=+1", "dev.tsv:2: not valid UTF-8"),
    ("pos\tgood film\nneg\tbad film\n", ("test", b"pos\tgood\nmaybe\tfilm\n"),
     "neg=-1,pos=+1", "label 'maybe' has no mapping to -1/+1"),
    ("pos\tgood film\nneg\tbad film\n", ("test", b"pos\tgood\nneg\tcaf\xe9\n"),
     "neg=-1,pos=+1", "test.tsv:2: not valid UTF-8")],
    ids=["unmapped-label", "empty-vocabulary", "latin-1-dev-corpus",
         "unmapped-test-label", "latin-1-test-corpus"])
def test_vectorize_creates_out_dir_only_once_its_documents_load(
        tmp_path, capsys, corpus_text, split, label_map, message):
    # each of these exited 2 and left an empty or partial --out-dir behind
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text(corpus_text, encoding="utf-8")
    flags = []
    if split is not None:
        name, text = split
        (tmp_path / f"{name}.tsv").write_bytes(text)
        flags = [f"--{name}-corpus", str(tmp_path / f"{name}.tsv")]
    out = tmp_path / "vec"
    assert main(["vectorize", "--corpus", str(corpus), *flags,
                 "--label-map", label_map, "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_vectorize_is_byte_deterministic(tmp_path):
    corpus = tmp_path / "corpus.tsv"
    write_corpus(corpus)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["vectorize", "--corpus", str(corpus),
                     "--label-map", "med=-1,space=+1", "--seed", "3",
                     "--out-dir", str(out)]) == 0
        outs.append(out)
    for name in ("train.matrix", "train.labels", "dev.matrix", "dev.labels",
                 "vocab.txt", "manifest.json"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_train_omp_budget_limits_model_size(vectorized, tmp_path):
    out = tmp_path / "omp"
    code = main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "omp", "--budget", "5", "--lambda", "1.0",
                 "--out-dir", str(out)])
    assert code == 0
    theta, bias_col = load_model(out / "model.txt")
    non_bias = np.count_nonzero(np.delete(theta, bias_col))
    assert non_bias <= 5
    assert (out / "report.txt").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert "seed" not in manifest["config"]  # no fit reads a seed


def test_train_ridge_is_dense(vectorized, tmp_path, capsys):
    out = tmp_path / "ridge"
    code = main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "ridge", "--lambda", "10.0",
                 "--out-dir", str(out)])
    assert code == 0
    [report] = evaluation.read_reports(out / "report.txt")
    assert report.sparsity_pct == 100.0


def test_train_gomp_with_group_file(vectorized, tmp_path):
    vocab = load_vocabulary(vectorized / "vocab.txt")
    g = tmp_path / "groups.txt"
    g.write_text(
        "space_words\t" + " ".join(str(vocab[w]) for w in SPACE_WORDS) + "\n"
        "med_words\t" + " ".join(str(vocab[w]) for w in MED_WORDS) + "\n",
        encoding="utf-8")
    out = tmp_path / "gomp"
    code = main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "gomp", "--groups", str(g),
                 "--criterion", "averaged", "--no-augment-singletons",
                 "--budget", "6", "--lambda", "1.0",
                 "--out-dir", str(out)])
    assert code == 0
    theta, bias_col = load_model(out / "model.txt")
    active = set(np.nonzero(np.delete(theta, bias_col))[0].tolist())
    group_indices = {vocab[w] for w in SPACE_WORDS + MED_WORDS}
    assert active <= group_indices


@pytest.mark.parametrize("subcommand", ["train", "grid"])
def test_a_bad_group_file_is_rejected_before_the_out_dir_exists(
        vectorized, tmp_path, capsys, subcommand):
    # the groups were read after --out-dir was created, which stayed empty
    g = tmp_path / "groups.txt"
    g.write_text("far\t999\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main([subcommand, "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(vectorized / "dev.matrix"),
                 "--dev-labels", str(vectorized / "dev.labels"),
                 "--method", "gomp", "--groups", str(g),
                 "--out-dir", str(out)]) == 2
    assert str(g) in capsys.readouterr().err
    assert not out.exists()


def test_train_gomp_without_any_groups_is_usage_error(vectorized, tmp_path):
    code = main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "gomp", "--no-augment-singletons",
                 "--out-dir", str(tmp_path / "x")])
    assert code == 1


def test_train_reruns_give_identical_model_and_manifest(vectorized, tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                     "--labels", str(vectorized / "train.labels"),
                     "--method", "omp", "--budget", "6", "--lambda", "0.5",
                     "--out-dir", str(out)]) == 0
        outs.append(out)
    assert (outs[0] / "model.txt").read_bytes() \
        == (outs[1] / "model.txt").read_bytes()
    assert (outs[0] / "manifest.json").read_bytes() \
        == (outs[1] / "manifest.json").read_bytes()


def test_grid_search_cli_end_to_end(vectorized, tmp_path, capsys):
    out = tmp_path / "grid"
    code = main(["grid", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(vectorized / "dev.matrix"),
                 "--dev-labels", str(vectorized / "dev.labels"),
                 "--test-matrix", str(vectorized / "dev.matrix"),
                 "--test-labels", str(vectorized / "dev.labels"),
                 "--method", "lasso", "--lambdas", "0.1,1",
                 "--out-dir", str(out)])
    assert code == 0
    assert (out / "best_model.txt").exists()
    reports = evaluation.read_reports(out / "reports.txt")
    assert len(reports) == 2
    assert sum(r.test_accuracy is not None for r in reports) == 1  # the best
    scatter = (out / "scatter.csv").read_text().strip().splitlines()
    assert scatter[0] == "method,hyperparams,sparsity_pct,dev_accuracy"
    assert len(scatter) == 3


@pytest.mark.parametrize("subcommand", ["train", "grid"])
@pytest.mark.parametrize("flag,value", [
    ("--budget", "0"), ("--epsilon", "-1"), ("--tol", "-0.5"),
    ("--max-iter", "0"), ("--max-iter", "-3"), ("--atoms-per-step", "0")])
def test_solver_flags_out_of_range_are_rejected_before_loading(
        vectorized, tmp_path, capsys, subcommand, flag, value):
    # train --max-iter 0 fitted an all-zero model and exited 0; grid
    # --budget 0 failed every grid point and exited 3
    rule = "must be finite and >= 0" if flag in ("--epsilon", "--tol") \
        else "must be >= "
    for matrix in (vectorized / "train.matrix", tmp_path / "absent.matrix"):
        out = tmp_path / "out"
        code = main([subcommand, "--matrix", str(matrix),
                     "--labels", str(vectorized / "train.labels"),
                     "--dev-matrix", str(vectorized / "dev.matrix"),
                     "--dev-labels", str(vectorized / "dev.labels"),
                     "--method", "omp", flag, value, "--out-dir", str(out)])
        assert code == 2
        assert f"{flag} {rule}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("value", ["-0.5", "nan", "inf"])
def test_a_bad_amount_flag_gets_one_message(tmp_path, capsys, value):
    # -0.5 and nan read "must be >= 0", inf read "must be finite"
    for flag in ("--tol", "--epsilon", "--lambda"):
        assert main(["train", "--matrix", str(tmp_path / "absent.matrix"),
                     "--labels", str(tmp_path / "absent.labels"),
                     "--method", "omp", flag, value,
                     "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err \
            == f"error: {flag} must be finite and >= 0\n"


@pytest.mark.parametrize("subcommand", ["train", "grid"])
@pytest.mark.parametrize("method,flag", [
    pytest.param("omp", "--tol", id="omp"),
    pytest.param("lasso", "--tol", id="lasso"),
    pytest.param("omp", "--epsilon", id="omp-epsilon"),
    pytest.param("gomp", "--epsilon", id="gomp-epsilon")])
def test_an_infinite_tol_is_rejected_before_loading(
        vectorized, tmp_path, capsys, subcommand, method, flag):
    # train --tol inf wrote an all-zero model whose report said converged;
    # train --epsilon inf selected nothing and wrote "epsilon": Infinity,
    # which strict JSON rejects, into its report
    for matrix in (vectorized / "train.matrix", tmp_path / "absent.matrix"):
        out = tmp_path / "out"
        code = main([subcommand, "--matrix", str(matrix),
                     "--labels", str(vectorized / "train.labels"),
                     "--dev-matrix", str(vectorized / "dev.matrix"),
                     "--dev-labels", str(vectorized / "dev.labels"),
                     "--method", method, flag, "inf",
                     "--out-dir", str(out)])
        assert code == 2
        assert f"{flag} must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("method", ["omp", "lasso", "ridge", "elastic"])
@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_penalties_not_finite_and_non_negative_are_rejected_before_loading(
        vectorized, tmp_path, capsys, method, value):
    # train --method lasso --lambda nan failed its fit and exited 3, and
    # grid --method omp --lambdas inf fitted every point and exited 0
    flags = ["--lambda-l1", "--lambda-l2"] if method == "elastic" \
        else ["--lambda"]
    for matrix in (vectorized / "train.matrix", tmp_path / "absent.matrix"):
        data = ["--matrix", str(matrix),
                "--labels", str(vectorized / "train.labels"),
                "--method", method, "--out-dir", str(tmp_path / "out")]
        for flag in flags:
            assert main(["train", *data, flag, value]) == 2
            assert f"{flag} must be finite and >= 0" \
                in capsys.readouterr().err
        assert main(["grid", *data, "--lambdas", f"1,{value}",
                     "--dev-matrix", str(vectorized / "dev.matrix"),
                     "--dev-labels", str(vectorized / "dev.labels")]) == 2
        assert "lambda grid values must be finite and positive" \
            in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("lambdas, message", [
    ("1,x", "--lambdas: could not convert string to float: 'x'"),
    ("1,nan", "--lambdas: lambda grid values must be finite and positive")])
def test_grid_lambda_errors_name_the_flag(vectorized, tmp_path, capsys,
                                          lambdas, message):
    out = tmp_path / "out"
    assert main(["grid", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(vectorized / "dev.matrix"),
                 "--dev-labels", str(vectorized / "dev.labels"),
                 "--method", "omp", "--lambdas", lambdas,
                 "--out-dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_grid_exits_3_when_every_point_fails(vectorized, tmp_path,
                                            monkeypatch, capsys):
    def failing(*args, **kwargs):
        raise FloatingPointError("objective is not finite")

    monkeypatch.setattr(evaluation, "fit", failing)
    assert main(["grid", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(vectorized / "dev.matrix"),
                 "--dev-labels", str(vectorized / "dev.labels"),
                 "--method", "lasso", "--lambdas", "0.1,1",
                 "--out-dir", str(tmp_path / "grid")]) == 3
    assert "every grid point failed" in capsys.readouterr().err
    assert not (tmp_path / "grid" / "best_model.txt").exists()


def test_grid_scatter_skips_the_failed_points(vectorized, tmp_path,
                                              monkeypatch):
    fit = evaluation.fit

    def failing_at_one(method, hp, *args):
        if hp["lambda"] == 1.0:
            raise FloatingPointError("objective is not finite")
        return fit(method, hp, *args)

    monkeypatch.setattr(evaluation, "fit", failing_at_one)
    out = tmp_path / "grid"
    assert main(["grid", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(vectorized / "dev.matrix"),
                 "--dev-labels", str(vectorized / "dev.labels"),
                 "--method", "lasso", "--lambdas", "0.1,1",
                 "--out-dir", str(out)]) == 0
    reports = evaluation.read_reports(out / "reports.txt")
    assert [r.ok() for r in reports] == [True, False]
    scatter = (out / "scatter.csv").read_text().splitlines()
    assert len(scatter) == 2 and scatter[1].startswith("lasso,lambda=0.1,")


def test_grid_rejects_test_matrix_and_labels_apart(vectorized, tmp_path,
                                                   capsys):
    base = ["grid", "--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels"),
            "--dev-matrix", str(vectorized / "dev.matrix"),
            "--dev-labels", str(vectorized / "dev.labels"),
            "--method", "omp", "--budget", "2", "--lambdas", "1"]
    for half in (["--test-matrix", str(vectorized / "test.matrix")],
                 ["--test-labels", str(vectorized / "test.labels")]):
        out = tmp_path / half[0].lstrip("-")
        assert main(base + half + ["--out-dir", str(out)]) == 1
        assert "--test-matrix and --test-labels" in capsys.readouterr().err
        assert not out.exists()  # rejected before any fit


def test_train_rejects_dev_matrix_and_labels_apart(vectorized, tmp_path,
                                                   capsys):
    base = ["train", "--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels"),
            "--method", "omp", "--budget", "2"]
    for half in (["--dev-matrix", str(vectorized / "dev.matrix")],
                 ["--dev-labels", str(vectorized / "dev.labels")]):
        out = tmp_path / half[0].lstrip("-")
        assert main(base + half + ["--out-dir", str(out)]) == 1
        assert "--dev-matrix and --dev-labels" in capsys.readouterr().err
        assert not out.exists()  # rejected before any fit


@pytest.mark.parametrize("subcommand, held_out", [
    ("train", "dev"), ("grid", "dev"), ("grid", "test")])
def test_a_held_out_matrix_of_another_width_is_rejected_before_any_fit(
        vectorized, tmp_path, monkeypatch, capsys, subcommand, held_out):
    # train and grid fitted first, then failed on the narrow matrix with
    # "theta length (12,) != (3,)", leaving an empty --out-dir
    def no_fit(*args, **kwargs):
        raise AssertionError("fitted before checking the held-out matrix")

    monkeypatch.setattr(evaluation, "fit", no_fit)
    n_rows = len(load_labels(vectorized / f"{held_out}.labels"))
    narrow = tmp_path / "narrow.matrix"
    SparseMatrix.from_dense(np.ones((n_rows, 3)), bias_col=2).save(narrow)
    dev = narrow if held_out == "dev" else vectorized / "dev.matrix"
    test = ["--test-matrix", str(narrow), "--test-labels",
            str(vectorized / "test.labels")] if held_out == "test" else []
    out = tmp_path / "out"
    assert main([subcommand, "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--dev-matrix", str(dev),
                 "--dev-labels", str(vectorized / "dev.labels"), *test,
                 "--method", "lasso", "--out-dir", str(out)]) == 2
    assert f"{narrow}: 3 columns, but --matrix has 12" \
        in capsys.readouterr().err
    assert not out.exists()


def test_groups_flag_is_rejected_for_every_method_but_gomp(vectorized,
                                                         tmp_path, capsys):
    data = ["--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels")]
    dev = ["--dev-matrix", str(vectorized / "dev.matrix"),
           "--dev-labels", str(vectorized / "dev.labels"), "--lambdas", "1"]
    for sub, extra in (("train", []), ("grid", dev)):
        for method in ("omp", "lasso"):
            out = tmp_path / f"{sub}-{method}"
            # a groups file that does not exist: rejected before any load
            assert main([sub, "--method", method, *data, *extra,
                         "--groups", str(tmp_path / "absent.txt"),
                         "--out-dir", str(out)]) == 1
            assert "--groups is read by --method gomp only" \
                in capsys.readouterr().err
            assert not out.exists()


def test_flags_a_method_does_not_read_are_usage_errors(vectorized, tmp_path,
                                                       capsys):
    data = ["--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels")]
    dev = ["--dev-matrix", str(vectorized / "dev.matrix"),
           "--dev-labels", str(vectorized / "dev.labels"), "--lambdas", "1"]
    cases = [
        ("lasso", ["--lambda", "10", "--budget", "1",
                   "--criterion", "orthonormal"], "--budget"),
        ("lasso", ["--criterion", "orthonormal"], "--criterion"),
        ("omp", ["--no-augment-singletons"], "--no-augment-singletons"),
        ("omp", ["--criterion", "orthonormal"], "--criterion"),
        ("ridge", ["--normalize-columns", "--epsilon", "5"], "--epsilon"),
        ("ridge", ["--normalize-columns"], "--normalize-columns"),
        ("none", ["--epsilon", "5"], "--epsilon"),
        ("gomp", ["--atoms-per-step", "1"], "--atoms-per-step"),
        ("lasso", ["--atoms-per-step", "2"], "--atoms-per-step"),
    ]
    for sub, extra in (("train", []), ("grid", dev)):
        for method, flags, named in cases:
            if sub == "grid":  # grid takes no single penalty
                flags = [f for f in flags if f not in ("--lambda", "10")]
            out = tmp_path / f"{sub}-{method}"
            assert main([sub, "--method", method, *data, *extra, *flags,
                         "--out-dir", str(out)]) == 1, (sub, method, flags)
            err = capsys.readouterr().err
            assert f"{named} is read by --method " in err, err
            assert not out.exists()
    # a flag left at its default, or one the method reads, is accepted
    for method, flags in (("ridge", ["--budget", str(FitOptions.budget),
                                     "--augment-singletons",
                                     "--atoms-per-step",
                                     str(FitOptions.atoms_per_step)]),
                          ("omp", ["--budget", "2", "--epsilon", "0.5",
                                   "--normalize-columns",
                                   "--atoms-per-step", "1"])):
        assert main(["train", "--method", method, *data, *flags,
                     "--out-dir", str(tmp_path / f"ok-{method}")]) == 0


def test_gram_corrected_criterion_is_a_usage_error(vectorized, tmp_path,
                                                  capsys):
    data = ["--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels")]
    dev = ["--dev-matrix", str(vectorized / "dev.matrix"),
           "--dev-labels", str(vectorized / "dev.labels"), "--lambdas", "1"]
    for sub, extra in (("train", []), ("grid", dev)):
        out = tmp_path / sub
        assert main([sub, "--method", "gomp", *data, *extra,
                     "--criterion", "gram_corrected",
                     "--out-dir", str(out)]) == 1
        assert "invalid choice: 'gram_corrected'" in capsys.readouterr().err
        assert not out.exists()


def test_penalty_flags_a_method_does_not_read_are_usage_errors(
        vectorized, tmp_path, capsys):
    data = ["--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels")]
    absent = ["--matrix", str(tmp_path / "absent.matrix"),
              "--labels", str(tmp_path / "absent.labels")]
    cases = [
        ("ridge", ["--lambda", "1", "--lambda-l1", "5"], "--lambda-l1"),
        ("lasso", ["--lambda-l2", "0.5"], "--lambda-l2"),
        ("omp", ["--budget", "2", "--lambda-l1", "1"], "--lambda-l1"),
        ("elastic", ["--lambda-l1", "1", "--lambda", "2"], "--lambda"),
        ("none", ["--lambda", "10"], "--lambda"),
    ]
    for method, flags, named in cases:
        for files in (data, absent):  # rejected before any file is loaded
            out = tmp_path / f"train-{method}"
            assert main(["train", "--method", method, *files, *flags,
                         "--out-dir", str(out)]) == 1, (method, flags)
            err = capsys.readouterr().err
            assert f"{named} is read by --method " in err, err
            assert not out.exists()
    # a penalty left at its default, or one the method reads, is accepted
    for method, flags in (("lasso", ["--lambda", "10", "--lambda-l1", "0"]),
                          ("elastic", ["--lambda", "1", "--lambda-l1", "0.1",
                                       "--lambda-l2", "1"])):
        assert main(["train", "--method", method, *data, *flags,
                     "--out-dir", str(tmp_path / f"ok-{method}")]) == 0


def test_grid_takes_no_single_penalty_flag(vectorized, tmp_path):
    for flag in ("--lambda", "--lambda-l1", "--lambda-l2"):
        assert main(["grid", "--matrix", str(vectorized / "train.matrix"),
                     "--labels", str(vectorized / "train.labels"),
                     "--dev-matrix", str(vectorized / "dev.matrix"),
                     "--dev-labels", str(vectorized / "dev.labels"),
                     "--method", "omp", "--lambdas", "1", flag, "5",
                     "--out-dir", str(tmp_path / "g")]) == 1
    assert not (tmp_path / "g").exists()


def test_solver_flag_defaults_are_the_fit_options_defaults():
    for method in ("train", "grid"):
        args = build_parser().parse_args(
            [method, "--matrix", "m", "--labels", "l", "--dev-matrix", "dm",
             "--dev-labels", "dl", "--method", "omp", "--out-dir", "o"])
        for f in dataclasses.fields(FitOptions):
            assert getattr(args, f.name) == getattr(FitOptions(), f.name), \
                (method, f.name)
    args = build_parser().parse_args(
        ["train", "--matrix", "m", "--labels", "l", "--method", "omp",
         "--out-dir", "o"])
    assert (args.lam, args.lambda_l1, args.lambda_l2) == (
        OMPConfig.lam, PenaltyConfig.lambda_l1, PenaltyConfig.lambda_l2)


def test_other_flag_defaults_are_their_library_defaults():
    parser = build_parser()
    args = parser.parse_args(["vectorize", "--corpus", "c", "--label-map",
                              "a=-1,b=+1", "--out-dir", "o"])
    assert (args.train_fraction, args.seed) == (
        textpipe.SplitSpec.train_fraction, textpipe.SplitSpec.seed)
    args = parser.parse_args(["group", "--embeddings", "e", "--vocab", "v",
                              "--out", "o"])
    cfg = grouping.KMeansConfig()
    assert (args.k, args.max_iter, args.seed) == (cfg.k, cfg.max_iter,
                                                  cfg.seed)
    args = parser.parse_args(["grid", "--matrix", "m", "--labels", "l",
                              "--dev-matrix", "dm", "--dev-labels", "dl",
                              "--method", "omp", "--out-dir", "o"])
    assert args.lambdas == "0.01,0.1,1,10,100"
    assert evaluation.GridSpec(
        "omp", [float(v) for v in args.lambdas.split(",")]).lambda_values \
        == evaluation.DEFAULT_LAMBDA_GRID


def test_manifest_config_is_the_inputs_and_every_fit_setting(vectorized,
                                                              tmp_path):
    data = ["--matrix", str(vectorized / "train.matrix"),
            "--labels", str(vectorized / "train.labels"),
            "--method", "omp", "--budget", "2"]
    dev = ["--dev-matrix", str(vectorized / "dev.matrix"),
           "--dev-labels", str(vectorized / "dev.labels")]
    assert main(["train", *data, "--out-dir", str(tmp_path / "t")]) == 0
    assert main(["grid", *data, *dev, "--lambdas", "1",
                 "--out-dir", str(tmp_path / "g")]) == 0
    fit_keys = set("atoms_per_step augment_singletons budget criterion "
                   "epsilon groups labels matrix max_iter method "
                   "normalize_columns penalize_bias tol".split())
    train_keys = fit_keys | set("dev_labels dev_matrix lam lambda_l1 "
                                "lambda_l2".split())
    grid_keys = fit_keys | set("dev_labels dev_matrix lambdas "
                               "test_labels test_matrix".split())
    for name, keys in (("t", train_keys), ("g", grid_keys)):
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert set(manifest["config"]) == keys


def test_no_normalize_columns_spells_out_the_default(vectorized, tmp_path):
    # lasso does not read the setting, but the default value is accepted
    for method in ("omp", "lasso"):
        out = tmp_path / method
        assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                     "--labels", str(vectorized / "train.labels"),
                     "--method", method, "--no-normalize-columns",
                     "--out-dir", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["normalize_columns"] is False


def test_train_report_hyperparams_are_the_penalty_strengths(vectorized,
                                                            tmp_path):
    # omp's stop rule (budget, epsilon, criterion) is in the manifest alone
    for method, flags in (("omp", ["--budget", "2"]), ("ridge", [])):
        out = tmp_path / method
        assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                     "--labels", str(vectorized / "train.labels"),
                     "--method", method, *flags, "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.txt").read_text())
        assert report["hyperparams"] == {"lambda": 1.0}
    manifest = json.loads((tmp_path / "omp" / "manifest.json").read_text())
    assert manifest["config"]["budget"] == 2


def test_train_manifests_differ_when_the_penalty_does(vectorized, tmp_path):
    manifests = []
    for lam in ("1", "10"):
        out = tmp_path / lam
        assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                     "--labels", str(vectorized / "train.labels"),
                     "--method", "ridge", "--lambda", lam,
                     "--out-dir", str(out)]) == 0
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] != manifests[1]
    assert json.loads(manifests[1])["config"]["lam"] == 10.0


def test_eval_prints_accuracy(vectorized, tmp_path, capsys):
    out = tmp_path / "m"
    main(["train", "--matrix", str(vectorized / "train.matrix"),
          "--labels", str(vectorized / "train.labels"),
          "--method", "omp", "--budget", "4", "--lambda", "1.0",
          "--out-dir", str(out)])
    capsys.readouterr()
    code = main(["eval", "--model", str(out / "model.txt"),
                 "--matrix", str(vectorized / "dev.matrix"),
                 "--labels", str(vectorized / "dev.labels")])
    assert code == 0
    assert capsys.readouterr().out.startswith("accuracy=")


def test_eval_rejects_a_model_of_another_feature_count(vectorized, tmp_path,
                                                      capsys):
    model = tmp_path / "model.txt"
    save_model(np.zeros(3), 2, model)
    assert main(["eval", "--model", str(model),
                 "--matrix", str(vectorized / "dev.matrix"),
                 "--labels", str(vectorized / "dev.labels")]) == 2
    assert "model has 3 features, matrix has 12" in capsys.readouterr().err


def test_a_label_count_that_does_not_match_the_rows_is_a_data_error(
        vectorized, tmp_path, capsys):
    labels = tmp_path / "short.labels"
    save_labels(load_labels(vectorized / "train.labels")[:-1], labels)
    assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(labels), "--method", "ridge",
                 "--out-dir", str(tmp_path / "out")]) == 2
    assert "17 labels for 18 rows" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_eval_and_top_weights_write_a_manifest_on_request(vectorized,
                                                          tmp_path):
    out = tmp_path / "m"
    assert main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "omp", "--budget", "3",
                 "--out-dir", str(out)]) == 0
    model = str(out / "model.txt")
    runs = {"eval": ["--matrix", str(vectorized / "dev.matrix"),
                     "--labels", str(vectorized / "dev.labels")],
            "top-weights": ["--vocab", str(vectorized / "vocab.txt"),
                            "-n", "2"]}
    for subcommand, flags in runs.items():
        manifest = tmp_path / f"{subcommand}.json"
        assert main([subcommand, "--model", model, *flags,
                     "--manifest-out", str(manifest)]) == 0
        written = json.loads(manifest.read_text())
        assert written["subcommand"] == subcommand
        assert written["config"]["model"] == model
        assert "manifest_out" not in written["config"]


def test_top_weights_ranks_planted_keywords_first(vectorized, tmp_path,
                                                  capsys):
    out = tmp_path / "m"
    main(["train", "--matrix", str(vectorized / "train.matrix"),
          "--labels", str(vectorized / "train.labels"),
          "--method", "omp", "--budget", "6", "--lambda", "1.0",
          "--out-dir", str(out)])
    capsys.readouterr()
    code = main(["top-weights", "--model", str(out / "model.txt"),
                 "--vocab", str(vectorized / "vocab.txt"), "-n", "2"])
    assert code == 0
    printed = capsys.readouterr().out
    pos_section = printed.split("largest negative")[0]
    assert any(w in pos_section for w in SPACE_WORDS)
    neg_section = printed.split("largest negative")[1]
    assert any(w in neg_section for w in MED_WORDS)


def test_top_weights_rejects_negative_n_before_loading(vectorized, tmp_path,
                                                      capsys):
    # -n -1 sliced [:-1] and dropped the last term of each sign
    out = tmp_path / "m"
    main(["train", "--matrix", str(vectorized / "train.matrix"),
          "--labels", str(vectorized / "train.labels"),
          "--method", "omp", "--budget", "6", "--out-dir", str(out)])
    for model in (out / "model.txt", tmp_path / "absent.txt"):
        capsys.readouterr()
        assert main(["top-weights", "--model", str(model),
                     "--vocab", str(vectorized / "vocab.txt"),
                     "-n", "-1"]) == 2
        assert "-n must be >= 0" in capsys.readouterr().err
    assert main(["top-weights", "--model", str(out / "model.txt"),
                 "--vocab", str(vectorized / "vocab.txt"), "-n", "0"]) == 0
    assert capsys.readouterr().out.split() == [
        "largest", "positive", "weights:", "largest", "negative", "weights:"]


def test_top_weights_helper_single_weight():
    vocab = {"med": 0, "space": 1}
    theta = np.array([0.0, 2.0, 0.0])
    positives, negatives = top_weights(theta, vocab, 1)
    assert positives == [("space", 2.0)]
    assert negatives == []


def test_top_weights_all_zero_model():
    positives, negatives = top_weights(np.zeros(3), {"a": 0, "b": 1}, 5)
    assert positives == [] and negatives == []


def test_top_weights_misaligned_vocab_errors():
    with pytest.raises(ValueError):
        top_weights(np.zeros(4), {"a": 0, "b": 1}, 1)


def test_top_weights_helper_rejects_negative_n():
    # a negative n would slice off the last terms of each sign
    vocab = {f"w{j}": j for j in range(5)}
    theta = np.array([1.0, 2.0, -1.0, -2.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="n must be >= 0"):
        top_weights(theta, vocab, -1)
    assert top_weights(theta, vocab, 0) == ([], [])


def test_top_weights_helper_rejects_fractional_n():
    # 1.5 failed late, with a TypeError from the slice
    with pytest.raises(ValueError, match="n must be an integer"):
        top_weights(np.array([1.0, -1.0, 0.0]), {"a": 0, "b": 1}, 1.5)


def test_model_file_round_trip(tmp_path):
    theta = np.zeros(8)
    theta[[1, 5, 7]] = [0.25, -1.5, 3.0]
    path = tmp_path / "model.txt"
    save_model(theta, 7, path)
    loaded, bias_col = load_model(path)
    np.testing.assert_array_equal(loaded, theta)
    assert bias_col == 7
    save_model(loaded, bias_col, tmp_path / "again.txt")
    assert path.read_bytes() == (tmp_path / "again.txt").read_bytes()


def test_model_file_rejects_bad_entry_with_its_line(tmp_path):
    path = tmp_path / "model.txt"
    path.write_text("3 2\n0 1.0\nx 2.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"model\.txt:3:"):
        load_model(path)
    path.write_text("3 b\n0 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"model\.txt:1:"):
        load_model(path)
    # a negative count was "negative dimensions are not allowed"
    path.write_text("-3 -1\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"model\.txt:1: expected header"):
        load_model(path)


def test_model_file_names_a_line_that_is_not_utf8(tmp_path):
    # the header was blamed: "model.txt:1: expected header 'd bias_col'"
    path = tmp_path / "model.txt"
    path.write_bytes(b"3 2\n0 \xff\n")
    with pytest.raises(ValueError, match=r"model\.txt:2: not valid UTF-8$"):
        load_model(path)


@pytest.mark.parametrize("body,message", [
    ("3 2\n0 1.0 7\n", r"model\.txt:2: expected 'index weight'"),
    ("3 2\n3 1.0\n", r"model\.txt:2: index 3 out of range")])
def test_model_file_rejects_a_bad_line(tmp_path, body, message):
    path = tmp_path / "model.txt"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(ValueError, match=message):
        load_model(path)


def test_missing_file_is_data_error(tmp_path, capsys):
    code = main(["eval", "--model", str(tmp_path / "nope.txt"),
                 "--matrix", str(tmp_path / "nope.matrix"),
                 "--labels", str(tmp_path / "nope.labels")])
    assert code == 2


def test_numerical_failure_is_exit_code_3(tmp_path, capsys):
    X = SparseMatrix.from_dense([[1e200, 1], [-1e200, 1], [2e200, 1], [1, 1]],
                                bias_col=1)
    X.save(tmp_path / "x.matrix")
    save_labels(np.array([1.0, -1.0, 1.0, -1.0]), tmp_path / "x.labels")
    with np.errstate(over="ignore", invalid="ignore"):
        code = main(["train", "--matrix", str(tmp_path / "x.matrix"),
                     "--labels", str(tmp_path / "x.labels"),
                     "--method", "lasso", "--out-dir", str(tmp_path / "out")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_linalg_failure_is_exit_code_3(vectorized, tmp_path, monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(evaluation, "fit", singular)
    code = main(["train", "--matrix", str(vectorized / "train.matrix"),
                 "--labels", str(vectorized / "train.labels"),
                 "--method", "ridge", "--out-dir", str(tmp_path / "out")])
    assert code == 3


def test_bad_flag_is_usage_error(capsys):
    assert main(["train", "--method", "bogus"]) == 1


def test_group_subcommand_writes_groups(tmp_path, monkeypatch):
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"w{i} {float(i)} {float(i % 3)}\n"
                           for i in range(10)), encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"w{i}\n" for i in range(10)), encoding="utf-8")
    out = tmp_path / "groups.txt"
    code = main(["group", "--embeddings", str(emb), "--vocab", str(vocab),
                 "--k", "3", "--neighbors", "2", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    from textomp import load_groups
    gs = load_groups(out, n_cols=11, bias_col=10)
    assert len(gs) >= 3  # k clusters survive
    covered = {j for g in gs for j in g.members}
    assert covered == set(range(10))

    def no_clustering(*args, **kwargs):
        raise AssertionError("a negative --neighbors reached k-means")

    monkeypatch.setattr(grouping, "kmeans_cluster", no_clustering)
    assert main(["group", "--embeddings", str(emb), "--vocab", str(vocab),
                 "--k", "3", "--neighbors", "-1", "--out", str(out)]) == 2


def test_group_rejects_a_negative_seed_before_loading(tmp_path, capsys):
    # --seed -1 read both files, then failed inside k-means with numpy's
    # "expected non-negative integer"
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"w{i} {float(i)} 0.0\n" for i in range(6)),
                   encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"w{i}\n" for i in range(6)), encoding="utf-8")
    for embeddings in (emb, tmp_path / "absent.txt"):
        out = tmp_path / "groups.txt"
        assert main(["group", "--embeddings", str(embeddings),
                     "--vocab", str(vocab), "--k", "2", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert "--seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()


def test_group_needs_an_embedded_vocabulary_token(tmp_path, capsys):
    emb = tmp_path / "emb.txt"
    emb.write_text("a 0.0 1.0\nb 1.0 0.0\n", encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("x\ny\n", encoding="utf-8")
    out = tmp_path / "groups.txt"
    assert main(["group", "--embeddings", str(emb), "--vocab", str(vocab),
                 "--out", str(out)]) == 2
    assert "no vocabulary token has an embedding" in capsys.readouterr().err
    assert not out.exists()


def test_group_rejects_max_iter_below_one_before_loading(tmp_path, capsys):
    # zero Lloyd iterations assign no point: the group file would be empty
    emb = tmp_path / "emb.txt"
    emb.write_text("".join(f"w{i} {float(i)} 0.0\n" for i in range(6)),
                   encoding="utf-8")
    vocab = tmp_path / "vocab.txt"
    vocab.write_text("".join(f"w{i}\n" for i in range(6)), encoding="utf-8")
    # and no cluster at all is no grouping: --k is checked just as early
    cases = [(["--k", "2", "--max-iter", "0"], "--max-iter must be >= 1"),
             (["--k", "0"], "--k must be >= 1"),
             (["--k", "-2"], "--k must be >= 1")]
    for embeddings in (emb, tmp_path / "absent.txt"):
        for flags, message in cases:
            out = tmp_path / "groups.txt"
            assert main(["group", "--embeddings", str(embeddings),
                         "--vocab", str(vocab), *flags,
                         "--out", str(out)]) == 2
            assert message in capsys.readouterr().err
            assert not out.exists()
    with pytest.raises(ValueError, match="max_iter"):
        grouping.KMeansConfig(k=2, max_iter=0)
