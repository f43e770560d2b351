"""Corpus ingestion: labeled text to a unigram-count design matrix.

Documents are tokenized by lowercasing and splitting on any
non-alphanumeric character. The vocabulary is built from the training
split only, in first-occurrence order, so dev/test tokens can never
extend it; out-of-vocabulary tokens are simply dropped when vectorizing.
Every matrix gets a trailing all-ones bias column.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .logistic import check_count
from .sparse import SparseMatrix


class _SplitTable(dict):
    """str.translate table that maps every non-alphanumeric code point to
    a space and every alphanumeric one to itself, filled as code points
    are first seen. Each entry depends on its code point alone, so one
    shared table gives every call the same tokens."""

    def __missing__(self, code):
        ch = chr(code)
        self[code] = out = ch if ch.isalnum() else " "
        return out


_SPLIT = _SplitTable()


def tokenize(text):
    r"""Lowercase and split on non-alphanumeric characters; keeps duplicates.

    The tokens are the alphanumeric runs of the lowercased text: what
    `re.findall(r"[^\W_]+", text.lower())` returns, since `re`'s Unicode
    `\w` without the underscore is `str.isalnum`. Once every other code
    point is a space, those spaces are the only whitespace left to split on.
    """
    return text.lower().translate(_SPLIT).split()


@dataclass
class LabeledDoc:
    label: int  # -1 or +1
    tokens: list


@dataclass
class SplitSpec:
    train_fraction: float = 0.8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must lie in (0, 1)")


class Corpus:
    """The vocabulary that the training documents induce.

    vocabulary maps token -> column index, dense in [0, V); the bias
    column sits at index V.
    """

    def __init__(self, vocabulary):
        self.vocabulary = dict(vocabulary)

    @classmethod
    def build(cls, train_docs, min_df=1):
        """Vocabulary in first-occurrence order over the training docs.

        min_df drops tokens appearing in fewer than that many documents
        (default 1 keeps everything).
        """
        check_count("min_df", min_df)
        train_docs = list(train_docs)
        for doc in train_docs:
            if doc.label not in (-1, 1):
                raise ValueError(f"label must be -1 or +1, got {doc.label!r}")
        order = dict.fromkeys(chain.from_iterable(
            doc.tokens for doc in train_docs))  # keys in first-occurrence order
        if min_df > 1:
            df = Counter(chain.from_iterable(
                set(doc.tokens) for doc in train_docs))
            order = [t for t in order if df[t] >= min_df]
        vocab = {tok: j for j, tok in enumerate(order)}
        return cls(vocab)

    @property
    def n_features(self):
        """Total column count including the bias."""
        return len(self.vocabulary) + 1

    @property
    def bias_col(self):
        return len(self.vocabulary)


def build_matrix(corpus, docs):
    """Count matrix for `docs` under the corpus vocabulary.

    Entry (i, j) is how often vocabulary token j occurs in document i;
    unknown tokens are dropped. Returns (SparseMatrix, labels array).
    """
    vocab = corpus.vocabulary
    if not vocab:
        raise ValueError("vocabulary is empty")
    docs = list(docs)
    n_rows = len(docs)
    bias = corpus.bias_col
    labels = np.array([doc.label for doc in docs], dtype=np.float64)
    lengths = np.fromiter((len(doc.tokens) for doc in docs), dtype=np.int64,
                          count=n_rows)
    n_tokens = int(lengths.sum())
    # one column-major key, column * n_rows + doc, per token and the bias
    # once per doc, built in place in one array; an unknown token has
    # column -1, so a negative key, and sorts ahead of every known one
    keys = np.fromiter(chain(
        map(vocab.get, chain.from_iterable(doc.tokens for doc in docs),
            repeat(-1)),
        repeat(bias, n_rows)), dtype=np.int64, count=n_tokens + n_rows)
    keys *= n_rows
    keys[:n_tokens] += np.repeat(np.arange(n_rows), lengths)
    keys[n_tokens:] += np.arange(n_rows)
    keys.sort()
    keys = keys[np.searchsorted(keys, 0):]
    # run lengths of the sorted keys: each distinct key is one entry, in
    # storage order
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    del first
    counts = np.diff(starts, append=len(keys)).astype(np.float64)
    keys = keys[starts]
    del starts
    cols, rows = np.divmod(keys, n_rows)
    del keys  # before the matrix's own arrays allocate
    X = SparseMatrix.from_triplets(n_rows, bias + 1, rows, cols, counts,
                                   bias_col=bias)
    return X, labels


def stratified_split(docs, spec):
    """Deterministic per-class split into (train, dev) document lists.

    Per-class train counts are round(train_fraction * class size), so each
    class lands within one document of the requested fraction. Document
    order within each output follows the input order.
    """
    docs = list(docs)
    by_label = {}
    for i, doc in enumerate(docs):
        by_label.setdefault(doc.label, []).append(i)
    if len(by_label) < 2:
        raise ValueError("stratified split needs both classes present")
    rng = np.random.default_rng(spec.seed)
    train_idx = set()
    for label in sorted(by_label):
        members = np.array(by_label[label])
        n_train = int(round(spec.train_fraction * len(members)))
        perm = rng.permutation(len(members))
        train_idx.update(members[perm[:n_train]].tolist())
    train = [doc for i, doc in enumerate(docs) if i in train_idx]
    dev = [doc for i, doc in enumerate(docs) if i not in train_idx]
    return train, dev


# -- file formats -----------------------------------------------------------

def load_raw_corpus(path):
    """Read "label<TAB>text" lines; returns list of (label string, text)."""
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            if "\t" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'label<TAB>text'")
            label, text = line.split("\t", 1)
            out.append((label, text))
    return out


def map_labels(raw_docs, mapping):
    """Apply a category-name -> ±1 mapping; unmapped labels are an error.

    Equal tokens within one call share one string object, so a split holds
    each distinct word once, however often it occurs.
    """
    docs, pool = [], {}
    for label, text in raw_docs:
        if label not in mapping:
            raise ValueError(f"label {label!r} has no mapping to -1/+1")
        toks = tokenize(text)
        docs.append(LabeledDoc(label=mapping[label],
                               tokens=list(map(pool.setdefault, toks, toks))))
    return docs


def save_vocabulary(vocab, path):
    """One token per line; line number = column index."""
    inverse = sorted(vocab.items(), key=lambda kv: kv[1])
    with open(path, "w", encoding="utf-8") as fh:
        for tok, _ in inverse:
            fh.write(tok + "\n")


def load_vocabulary(path):
    vocab = {}
    with open(path, "r", encoding="utf-8") as fh:
        for j, line in enumerate(fh):
            vocab[line.rstrip("\n")] = j
    return vocab


def save_labels(labels, path):
    with open(path, "w", encoding="utf-8") as fh:
        for y in labels:
            fh.write(f"{int(y):+d}\n")


def load_labels(path):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                y = int(line)
            except ValueError:
                y = None
            if y not in (-1, 1):
                raise ValueError(f"{path}:{lineno}: label must be -1 or +1")
            out.append(y)
    return np.array(out, dtype=np.float64)
