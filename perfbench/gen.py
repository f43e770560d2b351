"""Seeded synthetic inputs for the benchmark workloads.

Everything here is a pure function of a numpy Generator, so one seed
always yields byte-identical matrices, labels, groups and files. The
textomp package only ever sees the arrays and files produced here.

Corpus model: each document draws a fixed number of tokens from a
Zipf(1.1) law over a shuffled vocabulary (so frequency is unrelated to
column index). Labels come from a planted sparse linear model over the
word counts plus standard logistic noise, which is exactly the model the
fitted classifiers assume.
"""

from __future__ import annotations

import numpy as np

ZIPF_EXPONENT = 1.1
SKIP_RANKS = 20


def zipf_probs(vocab):
    p = 1.0 / np.arange(1, vocab + 1) ** ZIPF_EXPONENT
    return p / p.sum()


def draw_tokens(rng, n_docs, tokens_per_doc, rank_to_word):
    """(n_docs, tokens_per_doc) word ids drawn from the Zipf law."""
    vocab = len(rank_to_word)
    ranks = rng.choice(vocab, size=(n_docs, tokens_per_doc), p=zipf_probs(vocab))
    return rank_to_word[ranks]


def count_columns(tokens, vocab):
    """CSC arrays (indptr, rows, vals) of the doc x word count matrix plus a
    trailing all-ones bias column; rows ascend within each column."""
    n_docs = tokens.shape[0]
    doc = np.repeat(np.arange(n_docs, dtype=np.int64), tokens.shape[1])
    key, counts = np.unique(tokens.ravel().astype(np.int64) * n_docs + doc,
                            return_counts=True)
    cols, rows = np.divmod(key, n_docs)  # key order is column-major
    per_col = np.bincount(cols, minlength=vocab)
    indptr = np.zeros(vocab + 2, dtype=np.int64)
    indptr[1:vocab + 1] = np.cumsum(per_col)
    indptr[vocab + 1] = indptr[vocab] + n_docs
    rows = np.concatenate([rows, np.arange(n_docs, dtype=np.int64)])
    vals = np.concatenate([counts.astype(np.float64), np.ones(n_docs)])
    return indptr, rows, vals


def planted_weights(rng, vocab, rank_to_word, density, candidate_ranks,
                    margin_scale, tokens_per_doc):
    """Sparse true weights over the vocabulary.

    Signal words are drawn from frequency ranks SKIP_RANKS..candidate_ranks,
    one per equal-width rank stratum, with equal magnitudes and random
    signs, so every seed plants a signal of about the same difficulty (the
    few most frequent words are skipped because whichever of them carried
    signal would dominate the margin). The magnitude makes the planted
    margin's standard deviation roughly `margin_scale`.
    """
    n_signal = max(1, int(round(density * vocab)))
    edges = np.linspace(SKIP_RANKS, candidate_ranks,
                        n_signal + 1).astype(np.int64)
    ranks = rng.integers(edges[:-1], np.maximum(edges[1:], edges[:-1] + 1))
    w = np.zeros(vocab)
    w[rank_to_word[ranks]] = rng.choice([-1.0, 1.0], size=n_signal)
    # Var(margin) ~ sum_j w_j^2 * E[count_j]; rescale to margin_scale.
    p = np.empty(vocab)
    p[rank_to_word] = zipf_probs(vocab)
    spread = np.sqrt(np.sum(w ** 2 * p * tokens_per_doc))
    return w * (margin_scale / spread)


def labels_from(rng, tokens, w):
    """+/-1 labels from the planted margin plus logistic noise.

    The margin is shifted so that both classes are expected to be equally
    frequent. Also returns the accuracy of the noiseless planted model on
    these labels.
    """
    margin = w[tokens].sum(axis=1)
    lo, hi = margin.min(), margin.max()
    for _ in range(60):  # bisect: mean P(y = +1) = 1/2
        mid = 0.5 * (lo + hi)
        if np.mean(1.0 / (1.0 + np.exp(mid - margin))) > 0.5:
            lo = mid
        else:
            hi = mid
    margin -= 0.5 * (lo + hi)
    y = np.where(margin + rng.logistic(size=len(margin)) > 0.0, 1.0, -1.0)
    return y, float(np.mean(np.where(margin > 0.0, 1.0, -1.0) == y))


def bag_of_words(rng, n_train, n_heldout, vocab, tokens_per_doc,
                 density=0.01, candidate_ranks=4000, margin_scale=4.0):
    """Train and held-out count matrices (as CSC arrays) with labels.

    Returns a dict with the planted weights "w" and, for each split, its
    CSC arrays, row count, labels and the planted model's accuracy.
    """
    rank_to_word = rng.permutation(vocab)
    w = planted_weights(rng, vocab, rank_to_word, density, candidate_ranks,
                        margin_scale, tokens_per_doc)
    out = {"w": w}
    for name, n in (("train", n_train), ("heldout", n_heldout)):
        tokens = draw_tokens(rng, n, tokens_per_doc, rank_to_word)
        out[name] = count_columns(tokens, vocab)
        out[name + "_n"] = n
        out[name + "_y"], out[name + "_planted_acc"] = labels_from(
            rng, tokens, w)
    return out


def planted_groups(rng, vocab, w, group_size, overlap, n_planted):
    """Overlapping groups over every word, with signal planted inside some.

    The vocabulary is cut into groups of `group_size` words. The first
    `n_planted` groups are filled with same-sign signal words, the rest
    with the remaining words in random order. Each group then takes
    Poisson(overlap * group_size) extra members drawn from the whole
    vocabulary, so almost all of them belong to other groups and the
    groups overlap. Returns a list of (name, sorted member list) pairs.
    """
    signal = np.nonzero(w)[0]
    pos = rng.permutation(signal[w[signal] > 0])
    neg = rng.permutation(signal[w[signal] < 0])
    planted = []
    for k in range(n_planted):
        src = pos if k % 2 == 0 else neg
        chunk = src[(k // 2) * group_size:(k // 2 + 1) * group_size]
        if len(chunk):
            planted.append(chunk)
    used = np.concatenate(planted) if planted else np.zeros(0, np.int64)
    rest = rng.permutation(np.setdiff1d(np.arange(vocab), used))
    blocks = planted + [rest[i:i + group_size]
                        for i in range(0, len(rest), group_size)]
    groups = []
    for k, block in enumerate(blocks):
        extra = rng.choice(vocab, size=rng.poisson(overlap * group_size),
                           replace=False)
        members = np.union1d(block, extra)
        groups.append((f"g{k}", [int(j) for j in members]))
    return groups


# -- text files for the CLI pipeline -------------------------------------------

def word_strings(vocab):
    """Distinct alphanumeric tokens that the CLI tokenizer keeps intact."""
    return [f"w{j}" for j in range(vocab)]


def write_corpus(path, tokens, labels, words):
    """One "label<TAB>text" line per document; labels are pos / neg."""
    with open(path, "w", encoding="utf-8") as fh:
        for row, y in zip(tokens, labels):
            fh.write(("pos" if y > 0 else "neg") + "\t"
                     + " ".join(words[j] for j in row) + "\n")


def clustered_embeddings(rng, word_ids, dim, n_clusters, w):
    """Embeddings that cluster: each word sits near one of `n_clusters`
    random centres. Signal words of one sign share centres, so embedding
    groups carry planted signal. Returns a (len(word_ids), dim) array."""
    centres = rng.normal(size=(n_clusters, dim))
    assign = rng.integers(0, n_clusters, size=len(word_ids))
    signs = np.sign(w[word_ids])
    n_sig = max(1, n_clusters // 50)
    assign[signs > 0] = rng.integers(0, n_sig, size=int((signs > 0).sum()))
    assign[signs < 0] = rng.integers(n_sig, 2 * n_sig,
                                     size=int((signs < 0).sum()))
    return centres[assign] + 0.3 * rng.normal(size=(len(word_ids), dim))


def write_embeddings(path, names, vectors):
    with open(path, "w", encoding="utf-8") as fh:
        for name, vec in zip(names, vectors):
            fh.write(name + " " + " ".join(f"{x:.6f}" for x in vec) + "\n")
