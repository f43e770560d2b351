import re
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textomp import (Corpus, LabeledDoc, SparseMatrix, SplitSpec, build_matrix,
                     tokenize)
from textomp.textpipe import (load_labels, load_raw_corpus, load_vocabulary,
                              map_labels, save_labels, save_vocabulary,
                              stratified_split)


def docs_from(pairs):
    return [LabeledDoc(label=lab, tokens=list(toks)) for lab, toks in pairs]


# -- tokenize -------------------------------------------------------------------

def test_tokenize_lowercases_and_splits_punctuation():
    assert tokenize("The space-ship LANDED.") == ["the", "space", "ship",
                                                  "landed"]


def test_tokenize_empty_string():
    assert tokenize("") == []


def test_tokenize_preserves_duplicates():
    assert tokenize("a1 b2 a1") == ["a1", "b2", "a1"]


def test_tokenize_splits_on_underscore_and_symbols():
    assert tokenize("foo_bar baz!!qux") == ["foo", "bar", "baz", "qux"]


@settings(max_examples=80)
@given(st.text(max_size=60))
def test_tokenize_yields_lowercase_alphanumeric_runs(text):
    for tok in tokenize(text):
        assert tok
        assert tok == tok.lower()
        assert all(ch.isalnum() for ch in tok)


@settings(max_examples=300)
@given(st.text(st.characters(exclude_categories=())))
@example("a\x1cb\x1dc\x1ed\x1fe")  # separators that str.split splits on
@example("a\x85b\xa0c\u3000d\u2028e\u200bf")  # Unicode spaces, a Cf
@example("snake_case__x_")
@example("\u0661\u0662 x\u0663 \uff11\uff12\uff21")  # Arabic-Indic, fullwidth
@example("Straße STRASSE \u1e9e")  # ß, and capital sharp s lowercases to it
@example("\u0130stanbul \u0130")  # İ lowercases to i + combining dot
@example("a\ud800b \udfff")  # lone surrogates
def test_tokenize_equals_the_alphanumeric_run_regex(text):
    assert tokenize(text) == re.findall(r"[^\W_]+", text.lower())


# -- vocabulary -----------------------------------------------------------------

def test_vocabulary_first_occurrence_order():
    corpus = Corpus.build(docs_from([(1, ["b", "a", "b"]), (-1, ["c", "a"])]))
    assert corpus.vocabulary == {"b": 0, "a": 1, "c": 2}
    assert corpus.bias_col == 3
    assert corpus.n_features == 4


def test_vocabulary_min_document_frequency():
    corpus = Corpus.build(docs_from([(1, ["a", "b"]), (-1, ["a", "c"]),
                                     (1, ["a", "b"])]), min_df=2)
    assert corpus.vocabulary == {"a": 0, "b": 1}


def test_min_document_frequency_follows_the_count_rule():
    # min_df 0 and -3 kept every token, as if they were 1
    docs = docs_from([(1, ["a", "b"]), (-1, ["a"])])
    for bad in (0, -3):
        with pytest.raises(ValueError, match="min_df must be >= 1"):
            Corpus.build(docs, min_df=bad)
    with pytest.raises(ValueError, match="min_df must be an integer"):
        Corpus.build(docs, min_df=1.5)


def vocabulary_by_loop(docs, min_df):
    order, seen, df = [], set(), Counter()
    for doc in docs:
        df.update(set(doc.tokens))
        for tok in doc.tokens:
            if tok not in seen:
                seen.add(tok)
                order.append(tok)
    if min_df > 1:
        order = [t for t in order if df[t] >= min_df]
    return {tok: j for j, tok in enumerate(order)}


def test_vocabulary_equals_the_first_occurrence_loop():
    rng = np.random.default_rng(8)
    words = [f"w{i}" for i in range(60)]
    docs = docs_from((1 if i % 3 else -1,
                      rng.choice(words, rng.integers(0, 20)).tolist())
                     for i in range(40))
    for min_df in (1, 2, 3):
        corpus = Corpus.build(docs, min_df=min_df)
        expected = vocabulary_by_loop(docs, min_df)
        assert list(corpus.vocabulary.items()) == list(expected.items())
    assert len(Corpus.build(docs, min_df=2).vocabulary) < len(
        Corpus.build(docs).vocabulary)


def test_corpus_rejects_bad_labels():
    with pytest.raises(ValueError):
        Corpus.build(docs_from([(2, ["a"])]))


# -- build_matrix ----------------------------------------------------------------

def test_build_matrix_counts_tokens():
    docs = docs_from([(1, ["a", "b", "a"])])
    X, y = build_matrix(Corpus.build(docs), docs)
    assert X.densify_columns(range(X.n_cols)).tolist() == [[2.0, 1.0, 1.0]]
    assert y.tolist() == [1.0]
    assert X.bias_col == 2


def test_build_matrix_oov_document_keeps_only_bias():
    corpus = Corpus.build(docs_from([(1, ["a"])]))
    X, _ = build_matrix(corpus, docs_from([(-1, ["zz", "qq"])]))
    assert X.densify_columns(range(X.n_cols)).tolist() == [[0.0, 1.0]]


def test_build_matrix_on_no_documents_and_on_all_oov_documents():
    corpus = Corpus.build(docs_from([(1, ["a", "b"]), (-1, ["b"])]))
    X, y = build_matrix(corpus, [])
    assert (X.shape, X.nnz, X.bias_col, y.shape) == ((0, 3), 0, 2, (0,))
    X, y = build_matrix(corpus, docs_from([(1, ["zz"]), (-1, []),
                                           (1, ["qq", "zz", "qq"])]))
    assert X.densify_columns(range(X.n_cols)).tolist() == [[0.0, 0.0, 1.0]] * 3
    assert y.tolist() == [1.0, -1.0, 1.0]


def test_build_matrix_passes_its_entries_in_storage_order(monkeypatch):
    # column-major keys need no sort in from_triplets
    seen = []
    build = SparseMatrix.from_triplets

    def spy(n_rows, n_cols, rows, cols, vals, bias_col=None):
        seen.append(np.asarray(cols) * n_rows + np.asarray(rows))
        return build(n_rows, n_cols, rows, cols, vals, bias_col=bias_col)

    monkeypatch.setattr(SparseMatrix, "from_triplets", spy)
    corpus = Corpus.build(docs_from([(1, ["a", "b", "a"]), (-1, ["c", "b"])]))
    X, _ = build_matrix(corpus, docs_from([(1, ["c", "a", "zz", "c"]),
                                           (-1, ["b", "a"])]))
    [key] = seen
    assert np.all(np.diff(key) > 0)
    assert X.densify_columns(range(4)).tolist() == [[1.0, 0.0, 2.0, 1.0],
                                                    [1.0, 1.0, 0.0, 1.0]]


def test_build_matrix_matches_hand_count():
    docs = docs_from([
        (1, ["red", "blue", "red"]),
        (-1, ["blue", "green"]),
        (1, ["green", "green", "red"]),
    ])
    X, y = build_matrix(Corpus.build(docs), docs)
    # hand-counted: vocab order red, blue, green; bias last
    expected = [
        [2.0, 1.0, 0.0, 1.0],
        [0.0, 1.0, 1.0, 1.0],
        [1.0, 0.0, 2.0, 1.0],
    ]
    assert X.densify_columns(range(X.n_cols)).tolist() == expected
    assert y.tolist() == [1.0, -1.0, 1.0]


def test_build_matrix_equals_a_per_document_counter():
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(40)]
    train = docs_from((1 if i % 2 else -1, rng.choice(words[:30], 12))
                      for i in range(20))
    corpus = Corpus.build(train)
    docs = docs_from((1, rng.choice(words, rng.integers(0, 15)))
                     for _ in range(30))
    docs.append(LabeledDoc(label=-1, tokens=["w35", "w39", "w35", "oov"]))
    docs.append(LabeledDoc(label=1, tokens=[]))
    X, y = build_matrix(corpus, docs)
    ref = np.zeros((len(docs), corpus.n_features))
    for i, doc in enumerate(docs):
        for tok, n in Counter(doc.tokens).items():
            if tok in corpus.vocabulary:
                ref[i, corpus.vocabulary[tok]] = n
    ref[:, corpus.bias_col] = 1.0
    assert any(len(d.tokens) > len(set(d.tokens)) for d in docs)
    assert not any(ref[-2, :-1]) and not any(ref[-1, :-1])
    np.testing.assert_array_equal(X.densify_columns(range(X.n_cols)), ref)
    assert y.tolist() == [d.label for d in docs]


def test_build_matrix_row_sums_equal_in_vocab_counts():
    train = docs_from([(1, ["a", "b"]), (-1, ["b", "c", "c"])])
    corpus = Corpus.build(train)
    eval_docs = docs_from([(1, ["a", "a", "zz", "c"]), (-1, ["zz"])])
    X, _ = build_matrix(corpus, eval_docs)
    dense = X.densify_columns(range(X.n_cols))
    for i, doc in enumerate(eval_docs):
        in_vocab = sum(1 for t in doc.tokens if t in corpus.vocabulary)
        assert dense[i, :-1].sum() == in_vocab


def test_build_matrix_never_extends_vocabulary():
    corpus = Corpus.build(docs_from([(1, ["a"]), (-1, ["b"])]))
    before = dict(corpus.vocabulary)
    build_matrix(corpus, docs_from([(1, ["new", "words", "только"])]))
    assert corpus.vocabulary == before


def test_build_matrix_empty_vocabulary_errors():
    with pytest.raises(ValueError):
        build_matrix(Corpus({}), docs_from([(1, ["a"])]))


def zipf_raw_corpus(n_docs, tokens_per_doc, n_words, seed):
    """(label, text) pairs whose words repeat as natural text does: the
    word of rank r (from 1) is drawn with probability proportional to
    r^-1.1."""
    rng = np.random.default_rng(seed)
    p = np.arange(1, n_words + 1) ** -1.1
    ranks = rng.choice(n_words, size=(n_docs, tokens_per_doc), p=p / p.sum())
    return [("pos" if i % 2 else "neg", " ".join(f"word{r}" for r in row))
            for i, row in enumerate(ranks.tolist())]


def traced_memory(fn, *args):
    """fn(*args), and the (held, peak) bytes it allocated."""
    tracemalloc.start()
    try:
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, held, peak


def test_map_labels_shares_one_string_per_distinct_token():
    raw = zipf_raw_corpus(1000, 150, 3000, seed=1)
    docs, held, _ = traced_memory(map_labels, raw, {"neg": -1, "pos": 1})
    n_tokens = sum(len(doc.tokens) for doc in docs)
    assert n_tokens == 150_000
    # a string per occurrence alone would be over 50 bytes a token
    assert held <= 16 * n_tokens, held / n_tokens
    first = {}
    assert all(first.setdefault(tok, tok) is tok
               for doc in docs for tok in doc.tokens)
    assert [doc.tokens for doc in docs] == [tokenize(text) for _, text in raw]


def test_build_matrix_memory_per_token_is_bounded():
    raw = zipf_raw_corpus(2000, 100, 20000, seed=2)
    docs = map_labels(raw, {"neg": -1, "pos": 1})
    corpus = Corpus.build(docs[:1000])  # the rest holds unknown tokens
    (X, _), _, peak = traced_memory(build_matrix, corpus, docs)
    n_tokens = sum(len(doc.tokens) for doc in docs)
    assert X.nnz > n_tokens // 2  # mostly distinct (doc, word) pairs
    assert peak <= 40 * n_tokens, peak / n_tokens


# -- stratified_split --------------------------------------------------------------

def test_split_ten_docs_eighty_twenty():
    docs = docs_from([(1, [f"p{i}"]) for i in range(5)]
                     + [(-1, [f"n{i}"]) for i in range(5)])
    train, dev = stratified_split(docs, SplitSpec(train_fraction=0.8, seed=1))
    assert len(train) == 8 and len(dev) == 2
    assert sum(1 for d in train if d.label == 1) == 4
    assert sum(1 for d in dev if d.label == 1) == 1


def test_split_deterministic_for_a_seed():
    docs = docs_from([(1 if i % 2 else -1, [f"w{i}"]) for i in range(30)])
    spec = SplitSpec(train_fraction=0.7, seed=42)
    t1, d1 = stratified_split(docs, spec)
    t2, d2 = stratified_split(docs, spec)
    assert [d.tokens for d in t1] == [d.tokens for d in t2]
    assert [d.tokens for d in d1] == [d.tokens for d in d2]
    t3, _ = stratified_split(docs, SplitSpec(train_fraction=0.7, seed=43))
    assert [d.tokens for d in t1] != [d.tokens for d in t3]


def test_split_1175_docs_gives_940_235_within_one_per_class():
    # two classes summing to the pre-split size of a 1175-document corpus
    docs = docs_from([(1, [f"p{i}"]) for i in range(600)]
                     + [(-1, [f"n{i}"]) for i in range(575)])
    train, dev = stratified_split(docs, SplitSpec(train_fraction=0.8, seed=0))
    assert len(train) + len(dev) == 1175
    assert abs(len(train) - 940) <= 2 and abs(len(dev) - 235) <= 2
    for label, size in ((1, 600), (-1, 575)):
        got = sum(1 for d in train if d.label == label)
        assert abs(got - 0.8 * size) <= 1


def test_split_single_class_errors():
    docs = docs_from([(1, ["a"]), (1, ["b"])])
    with pytest.raises(ValueError):
        stratified_split(docs, SplitSpec())


def test_split_spec_validates_fraction():
    with pytest.raises(ValueError):
        SplitSpec(train_fraction=1.0)


def test_split_spec_seed_is_a_count_of_at_least_zero():
    # seed=-1 and seed=2.5 were accepted; the split then failed inside
    # numpy with "expected non-negative integer", naming no setting
    with pytest.raises(ValueError, match="seed must be >= 0"):
        SplitSpec(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        SplitSpec(seed=2.5)
    assert SplitSpec(seed=0).seed == 0


# -- file formats --------------------------------------------------------------------

def test_raw_corpus_and_label_mapping(tmp_path):
    p = tmp_path / "corpus.tsv"
    p.write_text("med\tthe patient recovered\nspace\tthe rocket launched\n",
                 encoding="utf-8")
    raw = load_raw_corpus(p)
    docs = map_labels(raw, {"med": -1, "space": 1})
    assert [d.label for d in docs] == [-1, 1]
    assert docs[1].tokens == ["the", "rocket", "launched"]


def test_unmapped_label_is_named_in_error(tmp_path):
    with pytest.raises(ValueError, match="'politics'"):
        map_labels([("politics", "hello")], {"med": -1})


def test_raw_corpus_requires_tab(tmp_path):
    p = tmp_path / "bad.tsv"
    p.write_text("no tab here\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        load_raw_corpus(p)


def test_raw_corpus_names_a_line_that_is_not_utf8(tmp_path):
    # the error was a bare "'utf-8' codec can't decode byte 0xe9 ..."
    p = tmp_path / "corpus.tsv"
    p.write_bytes("med\tcafé au lait\n".encode() + b"space\tcaf\xe9\n")
    with pytest.raises(ValueError, match=r"corpus\.tsv:2: not valid UTF-8$"):
        load_raw_corpus(p)


def test_vocabulary_file_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "vocab.txt"
    path.write_bytes("alpha\ncafé\n".encode() + b"caf\xe9\n")
    with pytest.raises(ValueError, match=r"vocab\.txt:3: not valid UTF-8$"):
        load_vocabulary(path)


def test_vocabulary_file_round_trip(tmp_path):
    vocab = {"alpha": 0, "beta": 1, "gamma": 2}
    path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, path)
    assert load_vocabulary(path) == vocab


def test_labels_file_round_trip(tmp_path):
    y = np.array([1.0, -1.0, -1.0, 1.0])
    path = tmp_path / "y.labels"
    save_labels(y, path)
    np.testing.assert_array_equal(load_labels(path), y)


def test_labels_file_rejects_other_values(tmp_path):
    path = tmp_path / "y.labels"
    path.write_text("+1\n0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_labels(path)
    path.write_text("+1\n1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"y\.labels:2:"):
        load_labels(path)


def test_labels_file_names_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "y.labels"
    path.write_bytes(b"+1\n-1\n\xff1\n")
    with pytest.raises(ValueError, match=r"y\.labels:3: not valid UTF-8$"):
        load_labels(path)
