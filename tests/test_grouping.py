from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from textomp import (EmbeddingTable, GroupStructure, KMeansConfig,
                     augment_singletons, expand_overlap, kmeans_cluster,
                     load_embeddings, load_groups, save_groups)
from textomp import grouping
from textomp.grouping import _lloyd, _nearest


def embedding_of(points):
    return EmbeddingTable({f"w{i}": np.asarray(p, dtype=float)
                           for i, p in enumerate(points)})


def vocab_of(n):
    return {f"w{i}": i for i in range(n)}


# -- group files -----------------------------------------------------------------

def test_load_groups_parses_named_index_sets(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("topics_1\t0 4 7\n", encoding="utf-8")
    gs = load_groups(p, n_cols=9)
    assert gs[0].name == "topics_1"
    assert gs[0].members == (0, 4, 7)


def test_load_groups_accepts_overlap(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("a\t0 4\nb\t4 5\n", encoding="utf-8")
    gs = load_groups(p, n_cols=7)
    assert set(gs[0].members) & set(gs[1].members) == {4}


def test_load_groups_rejects_out_of_range_with_line_number(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("ok\t0\nbad\t99\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_groups(p, n_cols=10)


def test_load_groups_rejects_bias_membership(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("a\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bias"):
        load_groups(p, n_cols=4)


def test_group_file_round_trip(tmp_path):
    gs = GroupStructure([("a", [0, 2]), ("b", [1, 2, 4])])
    path = tmp_path / "g.txt"
    save_groups(gs, path)
    loaded = load_groups(path, n_cols=6)
    assert loaded.names() == gs.names()
    assert [g.members for g in loaded] == [g.members for g in gs]


# -- k-means -----------------------------------------------------------------------

def wcss_of_partition(points, assignment):
    total = 0.0
    for c in set(assignment):
        members = points[[i for i, a in enumerate(assignment) if a == c]]
        total += float(((members - members.mean(axis=0)) ** 2).sum())
    return total


def test_two_separated_clouds_recovered_exactly():
    pts = [(0.0, 0.1), (0.2, -0.1), (-0.1, 0.0), (0.1, 0.1),
           (10.0, 9.9), (10.2, 10.1), (9.9, 10.0), (10.1, 9.8)]
    emb = embedding_of(pts)
    vocab = vocab_of(8)
    gs = kmeans_cluster(emb, vocab, KMeansConfig(k=2, seed=3))
    found = sorted(sorted(g.members) for g in gs)
    assert found == [[0, 1, 2, 3], [4, 5, 6, 7]]

    # exhaustive oracle: the returned split minimizes WCSS over all
    # 2-partitions of these 8 points
    points = np.array(pts)
    best = min((wcss_of_partition(points, assign)
                for assign in product([0, 1], repeat=8)
                if len(set(assign)) == 2))
    got = wcss_of_partition(points, [0, 0, 0, 0, 1, 1, 1, 1])
    assert got == pytest.approx(best)


def test_k_equal_to_token_count_gives_singletons():
    emb = embedding_of([(0.0,), (5.0,), (9.0,)])
    gs = kmeans_cluster(emb, vocab_of(3), KMeansConfig(k=3, seed=0))
    assert sorted(g.members for g in gs) == [(0,), (1,), (2,)]


def test_same_seed_reproduces_clustering():
    rng = np.random.default_rng(0)
    emb = embedding_of(rng.normal(size=(20, 3)))
    vocab = vocab_of(20)
    a = kmeans_cluster(emb, vocab, KMeansConfig(k=4, seed=11))
    b = kmeans_cluster(emb, vocab, KMeansConfig(k=4, seed=11))
    assert [g.members for g in a] == [g.members for g in b]


def test_kmeans_requires_enough_embedded_tokens():
    emb = embedding_of([(0.0,), (1.0,)])
    with pytest.raises(ValueError):
        kmeans_cluster(emb, vocab_of(2), KMeansConfig(k=3))


def test_unembedded_tokens_are_excluded():
    emb = EmbeddingTable({"w0": [0.0], "w2": [9.0]})
    vocab = {"w0": 0, "w1": 1, "w2": 2}
    gs = kmeans_cluster(emb, vocab, KMeansConfig(k=2, seed=0))
    covered = sorted(j for g in gs for j in g.members)
    assert covered == [0, 2]


def test_clusters_partition_embedded_tokens():
    rng = np.random.default_rng(5)
    emb = embedding_of(rng.normal(size=(30, 4)))
    vocab = vocab_of(30)
    gs = kmeans_cluster(emb, vocab, KMeansConfig(k=6, seed=2))
    all_members = [j for g in gs for j in g.members]
    assert sorted(all_members) == list(range(30))  # disjoint and covering


def test_lloyd_never_increases_wcss():
    rng = np.random.default_rng(9)
    points = rng.normal(size=(40, 3))
    _, _, history = _lloyd(points, 5, np.random.default_rng(1), max_iter=50)
    for prev, cur in zip(history, history[1:]):
        assert cur <= prev * (1 + 1e-12) + 1e-12


# -- overlap expansion ----------------------------------------------------------------

def test_expand_with_zero_neighbors_is_identity():
    emb = embedding_of([(0.0,), (1.0,), (2.0,)])
    gs = GroupStructure([("a", [0, 1]), ("b", [2])])
    out = expand_overlap(gs, emb, vocab_of(3), neighbors=0)
    assert [g.members for g in out] == [(0, 1), (2,)]


def test_expand_rejects_negative_neighbors():
    # unchecked, -1 slices the ranking as [:-1]: every word but the query
    emb = embedding_of([(float(i),) for i in range(8)])
    gs = GroupStructure([("a", [0])])
    with pytest.raises(ValueError, match="neighbors"):
        expand_overlap(gs, emb, vocab_of(8), neighbors=-1)


def test_expand_makes_adjacent_clusters_overlap():
    emb = embedding_of([(0.0,), (1.0,), (2.0,), (3.0,)])
    gs = GroupStructure([("left", [0, 1]), ("right", [2, 3])])
    out = expand_overlap(gs, emb, vocab_of(4), neighbors=2)
    assert set(out[0].members) & set(out[1].members)


def test_expand_matches_all_pairs_distance_oracle():
    pts = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.5), (4.0, 4.0), (4.5, 4.0),
           (8.0, 0.0)]
    emb = embedding_of(pts)
    vocab = vocab_of(6)
    gs = GroupStructure([("a", [0, 3]), ("b", [5])])
    out = expand_overlap(gs, emb, vocab, neighbors=2)

    def brute_neighbors(q, n):
        dists = []
        for j, p in enumerate(pts):
            if j == q:
                continue
            dists.append((sum((a - b) ** 2 for a, b in zip(pts[q], p)), j))
        return [j for _, j in sorted(dists)[:n]]

    expected_a = {0, 3} | set(brute_neighbors(0, 2)) | set(brute_neighbors(3, 2))
    expected_b = {5} | set(brute_neighbors(5, 2))
    assert set(out[0].members) == expected_a
    assert set(out[1].members) == expected_b


def test_expand_only_adds_indices():
    rng = np.random.default_rng(17)
    emb = embedding_of(rng.normal(size=(12, 3)))
    gs = GroupStructure([("a", [0, 5, 7]), ("b", [2])])
    out = expand_overlap(gs, emb, vocab_of(12), neighbors=3)
    for before, after in zip(gs, out):
        assert set(before.members) <= set(after.members)


def test_expand_with_cosine_metric():
    emb = embedding_of([(1.0, 0.0), (2.0, 0.1), (0.0, 3.0), (-1.0, 0.2)])
    gs = GroupStructure([("a", [0])])
    out = expand_overlap(gs, emb, vocab_of(4), neighbors=1, metric="cosine")
    assert set(out[0].members) == {0, 1}  # same direction despite length


def exact_rank_key(a, b, metric):
    """Exact distance order between integer vectors: the squared Euclidean
    distance, or minus the signed squared cosine (a zero vector has cosine
    0, as a clamped norm gives)."""
    if metric == "euclidean":
        return sum((x - y) ** 2 for x, y in zip(a, b))
    dot = sum(x * y for x, y in zip(a, b))
    norms = sum(x * x for x in a) * sum(y * y for y in b)
    if norms == 0:
        return Fraction(0)
    return -Fraction(dot * abs(dot), norms)


def brute_force_expansion(vectors, groups, neighbors, metric):
    """All-pairs oracle: each embedded member adds its `neighbors` closest
    other embedded columns, exact ties going to the lower column."""
    out = []
    for _, members in groups:
        expanded = set(members)
        for q in members:
            if q not in vectors:
                continue
            ranked = sorted((exact_rank_key(vectors[q], vectors[c], metric), c)
                            for c in vectors if c != q)
            expanded.update(c for _, c in ranked[:neighbors])
        out.append(tuple(sorted(expanded)))
    return out


def test_expand_matches_brute_force_oracle_on_exact_ties():
    # power-of-two multiples of a few lattice directions: unit vectors and
    # distances are exact in floating point, so every tie is exact
    directions = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0), (1, 1, 0),
                  (-1, -1, 0), (0, 0, 1)]
    points = [tuple(k * x for x in d) for d in directions for k in (1, 2, 4)]
    points.append((0, 0, 0))
    n = len(points) + 3  # three vocabulary words have no embedding
    cols = np.random.default_rng(4).permutation(n)  # columns not in token order
    vocab = {f"w{i}": int(cols[i]) for i in range(n)}
    emb = EmbeddingTable({**{f"w{i}": np.asarray(p, dtype=float)
                             for i, p in enumerate(points)},
                          "stray": np.zeros(3)})  # embedded, not in vocab
    vectors = {int(cols[i]): p for i, p in enumerate(points)}
    bare = [int(c) for c in cols[len(points):]]
    shared = int(cols[4])
    groups = [("a", sorted({int(cols[0]), shared, bare[0]})),
              ("b", sorted({shared, int(cols[13])})),
              ("c", [bare[1]]),
              ("d", sorted({int(cols[21]), int(cols[9]), bare[2]}))]
    structure = GroupStructure(groups)
    for metric in ("euclidean", "cosine"):
        for neighbors in (0, 1, 2, 3, 5, 8, 40):
            out = expand_overlap(structure, emb, vocab, neighbors=neighbors,
                                 metric=metric)
            assert out.names() == ["a", "b", "c", "d"]
            assert [g.members for g in out] == brute_force_expansion(
                vectors, groups, neighbors, metric), (metric, neighbors)
            # a member without an embedding adds no neighbor; both groups
            # that hold the shared member gain its neighbors
            assert out[2].members == (bare[1],)
            gained, = brute_force_expansion(vectors, [("s", [shared])],
                                            neighbors, metric)
            assert len(gained) == 1 + min(neighbors, len(points) - 1)
            assert set(gained) <= set(out[0].members) & set(out[1].members)


def unit_rows(points):
    norms = np.linalg.norm(points, axis=1)
    return points / np.where(norms > 0, norms, 1.0)[:, None]


def per_query_nearest(points, neighbors, metric):
    """The reference neighbour table: one full scan and one stable argsort
    per embedded row, the query itself ranked last (a distance that
    overflows to inf ties with it)."""
    if metric == "cosine":
        points = unit_rows(points)
    table = []
    for pos in range(len(points)):
        if metric == "euclidean":
            dist = np.linalg.norm(points - points[pos], axis=1)
        else:
            dist = 1.0 - points @ points[pos]
        dist[pos] = np.inf
        table.append(np.argsort(dist, kind="stable")[:neighbors])
    return np.array(table, dtype=np.int64).reshape(len(points), -1)


def neighbour_search_inputs():
    rng = np.random.default_rng(23)
    lattice = np.array(list(product(range(-1, 3), repeat=3)), dtype=float)
    centres = rng.normal(size=(6, 8))
    near_dupes = np.repeat(centres, 9, axis=0) \
        + 1e-9 * rng.normal(size=(54, 8)) * (rng.random((54, 1)) < 0.7)
    spread = rng.normal(size=(80, 50))
    zeros = np.vstack((np.zeros((3, 5)), rng.normal(size=(30, 5)),
                       2.0 * rng.normal(size=(1, 5)).repeat(4, axis=0)))
    return {"lattice": lattice,  # exact ties in both metrics
            "scaled lattice": 0.5 * lattice[rng.permutation(len(lattice))],
            "near duplicates": near_dupes,
            "offset 1e6": 1e6 + spread[:, :6],
            "offset 1e8": 1e8 + near_dupes,
            "spread": spread,
            "zero vectors": zeros,
            # squared distances overflow to inf, as in the reference
            "overflow": np.vstack((1e154 * rng.normal(size=(12, 4)),
                                   rng.normal(size=(12, 4))))}


# the "overflow" input overflows in the reference and in the filter alike
overflow_warnings_ok = pytest.mark.filterwarnings(
    "ignore:overflow encountered:RuntimeWarning",
    "ignore:invalid value encountered:RuntimeWarning")


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@overflow_warnings_ok
def test_blocked_neighbour_search_matches_per_query_reference(monkeypatch,
                                                               metric):
    for name, points in neighbour_search_inputs().items():
        n_rows = len(points)
        for block_rows in (1, 7, 53):  # queries span several GEMM blocks
            monkeypatch.setattr(grouping, "_BLOCK_ELEMENTS",
                                block_rows * n_rows)
            for neighbors in (1, 3, 5, 8, 12, 40, n_rows - 1, n_rows,
                              n_rows + 4):
                width = min(neighbors, n_rows)
                expected = per_query_nearest(points, width, metric)
                base = unit_rows(points) if metric == "cosine" else points
                got = _nearest(base, np.arange(n_rows), width, metric)
                np.testing.assert_array_equal(
                    got, expected, err_msg=f"{name} {neighbors} {block_rows}")


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@overflow_warnings_ok
def test_expand_matches_per_query_reference_across_blocks(monkeypatch,
                                                          metric):
    monkeypatch.setattr(grouping, "_BLOCK_ELEMENTS", 1000)
    rng = np.random.default_rng(5)
    for name, points in neighbour_search_inputs().items():
        n = len(points)
        cols = rng.permutation(n + 5)  # five columns without an embedding
        emb = EmbeddingTable({f"w{i}": p for i, p in enumerate(points)})
        vocab = {f"w{i}": int(cols[i]) for i in range(n + 5)}
        groups = [(f"g{g}", sorted(set(rng.choice(n + 5, 4).tolist())))
                  for g in range(12)]
        # embedded row r sits at the r-th smallest embedded column
        row_col = np.sort(cols[:n])
        row_of = {int(cols[i]): int(np.searchsorted(row_col, cols[i]))
                  for i in range(n)}
        sorted_points = points[np.argsort(cols[:n], kind="stable")]
        for neighbors in (0, 3, 5, n - 1, n + 2):
            table = per_query_nearest(sorted_points, min(neighbors, n), metric)
            out = expand_overlap(GroupStructure(groups), emb, vocab,
                                 neighbors=neighbors, metric=metric)
            for (_, members), got in zip(groups, out):
                expected = set(members)
                for j in members:
                    if j in row_of:
                        expected.update(row_col[table[row_of[j]]].tolist())
                assert got.members == tuple(sorted(expected)), \
                    (name, neighbors)


# -- singleton augmentation -------------------------------------------------------------

def test_augment_singletons_on_empty_structure():
    out = augment_singletons(GroupStructure([]), 4)
    assert [g.members for g in out] == [(0,), (1,), (2,)]


def test_augment_preserves_existing_groups_ahead_of_singletons():
    gs = GroupStructure([("topic", [0, 2])])
    out = augment_singletons(gs, 4)
    assert out[0].name == "topic"
    assert [g.members for g in out] == [(0, 2), (0,), (1,), (2,)]


def test_double_augmentation_collides_on_names():
    once = augment_singletons(GroupStructure([]), 3)
    with pytest.raises(ValueError):
        augment_singletons(once, 3)


# -- embedding files ------------------------------------------------------------------

def test_embedding_file_loading(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("alpha 1.0 2.0\nbeta -0.5 0.25\n", encoding="utf-8")
    emb = load_embeddings(p)
    assert emb.dim == 2
    np.testing.assert_array_equal(emb["beta"], [-0.5, 0.25])


def test_embedding_file_rejects_ragged_dimensions(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("alpha 1.0 2.0\nbeta 3.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="dimension"):
        load_embeddings(p)


def test_embedding_file_rejects_bad_values(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("alpha 1.0 oops\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        load_embeddings(p)
