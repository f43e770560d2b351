"""Group-structure ingestion and generation.

Groups of vocabulary indices come either from a group file or from
clustering word embeddings: Lloyd's k-means partitions the embedded
vocabulary, then each cluster is expanded with every member's nearest
neighbors, which is what makes the groups overlap. Singleton groups (one
per feature) can be appended so single words stay selectable alongside
the structured groups.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .groups import (Group, GroupStructure, check_unique_names,
                     member_error)
from .logistic import check_count
from .sparse import _loadtxt, _text_lines


@dataclass
class KMeansConfig:
    k: int = 2000
    max_iter: int = 100
    seed: int = 0

    def __post_init__(self):
        check_count("k", self.k)
        check_count("max_iter", self.max_iter)  # 0 would assign no point
        check_count("seed", self.seed, low=0)


class EmbeddingTable:
    """token -> fixed-dimension real vector.

    The vectors are the rows of one (n, dim) float64 array, `matrix`, and
    `rows` maps each token to its row.
    """

    def __init__(self, vectors):
        self.dim = None
        arrays = []
        for tok, vec in vectors.items():
            vec = np.asarray(vec, dtype=np.float64)
            if self.dim is None:
                self.dim = len(vec)
            elif len(vec) != self.dim:
                raise ValueError(
                    f"embedding for {tok!r} has dimension {len(vec)}, "
                    f"expected {self.dim}")
            if not np.all(np.isfinite(vec)):
                raise ValueError(f"embedding for {tok!r} has non-finite entries")
            arrays.append(vec)
        self.rows = {tok: i for i, tok in enumerate(vectors)}
        self.matrix = np.array(arrays).reshape(len(arrays), self.dim or 0)

    @classmethod
    def _of_rows(cls, matrix, rows):
        """A table over `matrix`'s rows, already checked to be finite;
        `rows` maps each token to its row."""
        table = cls.__new__(cls)
        table.dim, table.matrix, table.rows = matrix.shape[1], matrix, rows
        return table

    def __contains__(self, tok):
        return tok in self.rows

    def __getitem__(self, tok):
        return self.matrix[self.rows[tok]]


def load_embeddings(path):
    """Text format: one "token v1 v2 ... vE" line per token.

    The values are parsed by one `np.loadtxt` call into one array. If that
    fails for any reason, the file is parsed again one line at a time,
    which either loads it or raises a ValueError that names the bad line
    as "path:lineno:" or the bad token. The fast path accepts a subset of
    what the line parser accepts, with the same values, so the result
    never depends on which path ran. A token on several lines keeps the
    vector of its last one.
    """
    table = _embeddings_fast(path)
    return table if table is not None else _embeddings_by_line(path)


def _embeddings_fast(path):
    """The EmbeddingTable of a well-formed embedding file, or None."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            tokens = [line.split(None, 1)[0] for line in fh
                      if not line.isspace()]
    except ValueError:
        return None
    if not tokens:
        return None
    # numpy splits fields on str.split()'s whitespace and, reading every
    # column, rejects a row of another width; the token column reads as 0
    values = _loadtxt(path, ndmin=2, encoding="utf-8",
                      converters={0: lambda tok: 0.0})
    if (values is None or values.shape[0] != len(tokens)
            or values.shape[1] < 2 or not np.isfinite(values).all()):
        return None
    return EmbeddingTable._of_rows(
        values[:, 1:], {tok: i for i, tok in enumerate(tokens)})


def _embeddings_by_line(path):
    """The EmbeddingTable of an embedding file read one line at a time."""
    vectors = {}
    for lineno, line in _text_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ValueError(f"{path}:{lineno}: expected token and values")
        try:
            vectors[parts[0]] = [float(p) for p in parts[1:]]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: bad value ({exc})") from None
    return EmbeddingTable(vectors)


# -- group files -------------------------------------------------------------

def load_groups(path, n_cols, bias_col):
    """Group file: one "name<TAB>index index ..." line per group.

    Indices are 0-based vocabulary columns, validated against n_cols and
    the bias column (None when the matrix has none). Overlap is fine.
    """
    groups = []
    for lineno, line in _text_lines(path):
        if not line:
            continue
        if "\t" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'name<TAB>index ...'")
        name, rest = line.split("\t", 1)
        try:
            idx = [int(p) for p in rest.split()]
        except ValueError:
            raise ValueError(
                f"{path}:{lineno}: indices must be integers") from None
        if not idx:
            raise ValueError(f"{path}:{lineno}: empty group {name!r}")
        error = member_error(idx, n_cols, bias_col)
        if error is not None:
            raise ValueError(f"{path}:{lineno}: {error[1]}")
        groups.append(Group.of(name, idx))
    return GroupStructure(groups)


def save_groups(structure, path):
    with open(path, "w", encoding="utf-8") as fh:
        for g in structure:
            fh.write(g.name + "\t" + " ".join(str(j) for j in g.members) + "\n")


# -- k-means over embeddings --------------------------------------------------

# float64 values per GEMM block, 8 MB: k-means assignment holds one
# (block x k) buffer and the neighbour search two (block x V) buffers.
_BLOCK_ELEMENTS = 2 ** 20


def _lloyd(points, k, rng, max_iter):
    """Plain Lloyd iterations; returns (labels, centers, wcss history).

    Centers start as a seeded sample of distinct points; a cluster that
    empties keeps its previous center. Assignment ties go to the lowest
    center index, and a squared distance that rounds below zero counts as
    0. Points are assigned in row blocks of `_BLOCK_ELEMENTS // k` rows, so
    memory holds one block of squared distances, never all n x k.
    """
    n, dim = points.shape
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    history = []
    psq = (points ** 2).sum(axis=1)
    twice = 2.0 * points  # exact, so (2 p).c rounds as 2 (p.c) does
    rows = max(1, _BLOCK_ELEMENTS // k)
    buf = np.empty((min(rows, n), k))
    nearest = np.empty(n)  # each point's squared distance to its centre
    for _ in range(max_iter):
        csq = (centers ** 2).sum(axis=1)
        new_labels = np.empty(n, dtype=np.intp)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            # ||p||^2 - 2 p.c + ||c||^2; cancellation can dip below 0
            d2 = np.matmul(twice[start:stop], centers.T,
                           out=buf[:stop - start])
            np.subtract(psq[start:stop, None], d2, out=d2)
            d2 += csq
            at = np.arange(stop - start)
            got = np.argmin(d2, axis=1)
            # the argmin of d2 clipped at 0: in a row that dips below 0,
            # the first entry at or below 0
            dips = np.flatnonzero(d2[at, got] < 0.0)
            got[dips] = np.argmax(d2[dips] <= 0.0, axis=1)
            new_labels[start:stop] = got
            np.maximum(d2[at, got], 0.0, out=nearest[start:stop])
        history.append(float(nearest.sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # member sums in row order, then the mean, as members.mean(axis=0);
        # bincount adds each (label, entry) key's weights in row order
        sums = np.bincount((labels[:, None] * dim + np.arange(dim)).ravel(),
                           weights=points.ravel(), minlength=k * dim)
        sums = sums.reshape(k, dim)
        sizes = np.bincount(labels, minlength=k)
        kept = sizes > 0
        centers[kept] = sums[kept] / sizes[kept, None]
    return labels, centers, history


def _embedded_columns(emb, vocab):
    """Ascending vocabulary columns that have an embedding, and their
    vectors as the rows of one array."""
    order = sorted((j, tok) for tok, j in vocab.items() if tok in emb)
    cols = np.array([j for j, _ in order], dtype=np.int64)
    rows = np.array([emb.rows[tok] for _, tok in order], dtype=np.intp)
    return cols, emb.matrix[rows]


def kmeans_cluster(emb, vocab, cfg):
    """Cluster the embedded vocabulary into at most k disjoint groups.

    Tokens without embeddings are left out entirely. Deterministic for a
    fixed seed. Empty clusters are dropped; cluster c is named cluster_{c}
    and holds its vocabulary column indices in ascending order.
    """
    cols, points = _embedded_columns(emb, vocab)
    if len(cols) < cfg.k:
        raise ValueError(
            f"k={cfg.k} exceeds the {len(cols)} embedded vocabulary tokens")
    rng = np.random.default_rng(cfg.seed)
    labels, _, _ = _lloyd(points, cfg.k, rng, cfg.max_iter)
    order = np.argsort(labels, kind="stable")  # columns stay ascending
    used, sizes = np.unique(labels[order], return_counts=True)
    return GroupStructure.from_arrays(
        [f"cluster_{c}" for c in used.tolist()],
        np.concatenate(([0], np.cumsum(sizes))), cols[order])


def _nearest(base, queries, width, metric):
    """Indices of the `width` rows of `base` nearest each query row.

    The reference distance from row q to row c is
    `np.linalg.norm(base[c] - base[q])` (euclidean) or `1 - base @ base[q]`
    at c (cosine, on unit rows); q itself counts as infinitely far, and
    ties go to the lower row. Each block of queries is filtered by one
    GEMM, and only the rows it keeps are ranked by the reference distance.
    """
    n_rows, dim = base.shape
    sq = np.einsum("ij,ij->i", base, base)
    # Filter bound, with u = 2^-53, E = dim, S = |q|^2 + max_c |b_c|^2 and
    # γ_k = k u / (1 - k u). A dot product or squared norm of E terms is off
    # by at most γ_E times the sum of its absolute terms, and
    # |q|.|b_c| <= S / 2.
    # - euclidean: a(c) = |q|^2 + |b_c|^2 - 2 q.b_c lies within 2 γ_{E+2} S
    #   of the real D(c) = |q - b_c|^2. The reference squares and sums E
    #   rounded non-negative terms, so its square is D(c)(1 + θ) with
    #   |θ| <= γ_{E+4}, and D <= 2S. If c is in the reference top `width`
    #   and c' is among the `width` smallest a but not in that top, then
    #   ref(c) <= ref(c') gives D(c) <= D(c') + 4.01 γ_{E+4} S, hence
    #   a(c) <= a(c') + 8.1 (E+4) u S.
    # - cosine: a(c) = 1 - q.b_c by GEMM and the reference's gemv differ in
    #   the dot product by at most γ_E S and in rounding 1 - dot by 3.02 u S
    #   (a nonzero unit query has S > 0.99; a zero query gives exact zeros
    #   in both), so a(c) <= a(c') + 2 γ_{E+4} S.
    # Either way every reference-top column lies within 8.1 (E+4) u S of
    # the width-th smallest a. The margin, 20 (E+4) u S, is over twice
    # that, plus (E+4) 2^-1070 for rounding among subnormals. The bound
    # assumes no overflow, so a row with S >= 2^1019 keeps every column. A
    # large common offset only widens the margin: the filter keeps more
    # columns, and the result stays exact.
    scale = sq + sq.max(initial=0.0)
    margin = (dim + 4) * (20 * 2.0 ** -53 * scale + 2.0 ** -1070)
    out = np.empty((len(queries), width), dtype=np.int64)
    # two (step x V) buffers, reused by every block: the filter values and
    # the copy that is partitioned in place for the width-th smallest
    step = max(1, _BLOCK_ELEMENTS // max(2 * n_rows, 1))
    bufs = np.empty((2, min(step, len(queries)), n_rows))
    for start in range(0, len(queries), step):
        block = queries[start:start + step]
        approx, ranked = bufs[:, :len(block)]
        np.matmul(base[block], base.T, out=approx)
        if metric == "euclidean":
            approx *= -2.0
            approx += sq
            approx += sq[block, None]
        else:
            np.subtract(1.0, approx, out=approx)
        approx[np.arange(len(block)), block] = np.inf  # not its own neighbor
        np.copyto(ranked, approx)
        ranked.partition(width - 1, axis=1)
        keep = approx <= (ranked[:, width - 1] + margin[block])[:, None]
        keep[scale[block] >= 2.0 ** 1019] = True
        for i, pos in enumerate(block):
            cand = np.flatnonzero(keep[i])  # ascending: ties to the lower
            if metric == "euclidean":
                dist = np.linalg.norm(base[cand] - base[pos], axis=1)
            else:
                dist = (1.0 - base @ base[pos])[cand]
            dist[cand == pos] = np.inf
            out[start + i] = cand[np.argsort(dist, kind="stable")[:width]]
    return out


def expand_overlap(groups, emb, vocab, neighbors=5, metric="euclidean"):
    """Add each group member's `neighbors` nearest embedded words to its group.

    Distances are measured in embedding space (Euclidean by default,
    "cosine" optional); candidates are the embedded in-vocabulary words,
    never the query word itself, and a distance tie goes to the lower
    column. Each distinct embedded member's neighbors are computed once,
    however many groups hold it. Members without embeddings contribute no
    neighbors. Original members are always kept, so every input group is a
    subset of its expansion; members come out ascending and duplicate-free.

    The search is exact. Blocks of queries are filtered with one matrix
    product each, which keeps every word within a proven rounding margin of
    the n-th nearest; only those are ranked by the reference distance,
    `np.linalg.norm(points[c] - points[q], axis=1)` or the full-row
    `1 - unit @ unit[q]`, so the neighbors equal those of a full scan.
    Cosine scales each row to unit norm; a row whose norm overflows is
    divided by its largest absolute entry first, so it keeps its direction.
    """
    if metric not in ("euclidean", "cosine"):
        raise ValueError("metric must be 'euclidean' or 'cosine'")
    check_count("neighbors", neighbors, low=0)
    token_cols, points = _embedded_columns(emb, vocab)
    if metric == "cosine":
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(points, axis=1)
        huge = ~np.isfinite(norms)
        if huge.any():
            points[huge] /= np.abs(points[huge]).max(axis=1, keepdims=True)
            norms[huge] = np.linalg.norm(points[huge], axis=1)
        points = points / np.where(norms > 0, norms, 1.0)[:, None]

    members = groups.indices
    owner = np.repeat(np.arange(len(groups)), np.diff(groups.offsets))
    embedded = np.isin(members, token_cols) & (neighbors > 0)  # 0: no query
    queries, row = np.unique(np.searchsorted(token_cols, members[embedded]),
                             return_inverse=True)
    nearest = _nearest(points, queries, min(neighbors, len(token_cols)),
                       metric)

    # one sorted, duplicate-free key group * span + column per output member
    span = int(max(members.max(initial=-1), token_cols.max(initial=-1))) + 1
    keys = np.unique(np.concatenate((
        owner * span + members,
        np.repeat(owner[embedded], nearest.shape[1]) * span
        + token_cols[nearest[row]].ravel())))
    return GroupStructure.from_arrays(
        groups.names(),
        np.searchsorted(keys, np.arange(len(groups) + 1) * span), keys % span)


def augment_singletons(groups, n_cols, bias_col):
    """Append every non-bias feature as its own group to a GroupStructure.

    Existing groups keep their positions; singletons follow in column
    order. Calling this twice would duplicate names and fail, so callers
    guard against double augmentation.
    """
    singles = np.arange(n_cols, dtype=np.int64)
    if bias_col is not None:
        singles = singles[singles != bias_col]
    # formatted from Python ints: numpy scalars take over twice as long
    names = check_unique_names(
        groups.names() + [f"single_{j}" for j in singles.tolist()])
    offsets = np.concatenate(
        (groups.offsets, groups.offsets[-1] + np.arange(1, len(singles) + 1)))
    return GroupStructure.from_arrays(
        names, offsets, np.concatenate((groups.indices, singles)))
