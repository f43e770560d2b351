import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textomp import (EmbeddingTable, GOMPConfig, Group, GroupStructure,
                     KMeansConfig, SparseMatrix, augment_singletons,
                     expand_overlap, kmeans_cluster, load_embeddings,
                     load_groups, run_gomp, save_groups)
from textomp import grouping
from textomp.grouping import (_embeddings_by_line, _embeddings_fast, _lloyd,
                              _nearest)


def embedding_of(points):
    return EmbeddingTable({f"w{i}": np.asarray(p, dtype=float)
                           for i, p in enumerate(points)})


def vocab_of(n):
    return {f"w{i}": i for i in range(n)}


# -- group files -----------------------------------------------------------------

def test_load_groups_parses_named_index_sets(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("topics_1\t0 4 7\n", encoding="utf-8")
    gs = load_groups(p, n_cols=9, bias_col=8)
    assert gs[0].name == "topics_1"
    assert gs[0].members == (0, 4, 7)


def test_load_groups_accepts_overlap(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("a\t0 4\nb\t4 5\n", encoding="utf-8")
    gs = load_groups(p, n_cols=7, bias_col=6)
    assert set(gs[0].members) & set(gs[1].members) == {4}


def test_load_groups_rejects_out_of_range_with_line_number(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("ok\t0\nbad\t99\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":2"):
        load_groups(p, n_cols=10, bias_col=9)


def test_load_groups_skips_blank_lines(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("a\t0 1\n\nb\t2\n", encoding="utf-8")
    gs = load_groups(p, n_cols=4, bias_col=3)
    assert gs.names() == ["a", "b"]
    assert [g.members for g in gs] == [(0, 1), (2,)]


@pytest.mark.parametrize("line,message", [
    ("a 0 1", ":2: expected 'name<TAB>index ...'"),
    ("a\t0 x", ":2: indices must be integers"),
    ("a\t", ":2: empty group 'a'")])
def test_load_groups_rejects_a_malformed_line_with_its_number(
        tmp_path, line, message):
    p = tmp_path / "groups.txt"
    p.write_text(f"ok\t0\n{line}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_groups(p, n_cols=4, bias_col=3)
    assert str(err.value) == f"{p}{message}"


def test_load_groups_names_a_line_that_is_not_utf8(tmp_path):
    # the error was a bare "'utf-8' codec can't decode byte 0xff ..."
    p = tmp_path / "groups.txt"
    p.write_bytes("café\t0\n".encode() + b"b\xff\t1\n")
    with pytest.raises(ValueError) as err:
        load_groups(p, n_cols=4, bias_col=3)
    assert str(err.value) == f"{p}:2: not valid UTF-8"


def test_load_groups_rejects_bias_membership(tmp_path):
    p = tmp_path / "groups.txt"
    p.write_text("a\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bias"):
        load_groups(p, n_cols=4, bias_col=3)


def test_load_groups_groups_the_last_column_of_a_matrix_without_a_bias(
        tmp_path):
    p = tmp_path / "g.txt"
    p.write_text("g\t3\n", encoding="utf-8")
    assert [(g.name, g.members) for g in
            load_groups(p, n_cols=4, bias_col=None)] == [("g", (3,))]
    with pytest.raises(TypeError):
        load_groups(p, n_cols=4)  # no default guesses where the bias is


@pytest.mark.parametrize("member,message", [
    (99, "index 99 out of range for 10 features"),
    (-1, "index -1 out of range for 10 features"),
    (9, "bias column 9 cannot be grouped")])
def test_a_group_file_and_a_structure_reject_a_member_alike(
        tmp_path, member, message):
    p = tmp_path / "groups.txt"
    p.write_text(f"ok\t0\nbad\t1 {member}\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_groups(p, n_cols=10, bias_col=9)
    assert str(err.value) == f"{p}:2: {message}"
    # an empty group before the bad one must not take the blame
    structure = GroupStructure([("ok", [0]), ("empty", []),
                                ("bad", [1, member])])
    with pytest.raises(ValueError) as err:
        structure.validate_indices(10, bias_col=9)
    assert str(err.value) == f"group 'bad': {message}"


@pytest.mark.parametrize("first,second,message", [
    ([99], [9], "index 99 out of range for 10 features"),
    ([9], [99], "bias column 9 cannot be grouped")])
def test_the_first_bad_member_in_group_order_is_reported(
        tmp_path, first, second, message):
    groups = [("ok", [0, 1]), ("first", [2, *first]), ("second", second)]
    with pytest.raises(ValueError) as err:
        GroupStructure(groups).validate_indices(10, bias_col=9)
    assert str(err.value) == f"group 'first': {message}"
    p = tmp_path / "groups.txt"
    p.write_text("".join(f"{name}\t{' '.join(map(str, members))}\n"
                         for name, members in groups), encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_groups(p, n_cols=10, bias_col=9)
    assert str(err.value) == f"{p}:2: {message}"


def test_a_structure_rejects_a_member_listed_twice_in_one_group():
    # Group itself does not deduplicate; a repeat would reach the refit
    structure = GroupStructure([("ok", [0, 1]), ("shared", [1, 2]),
                                Group("bad", (3, 4, 3))])
    with pytest.raises(ValueError) as err:
        structure.validate_indices(10, bias_col=9)
    assert str(err.value) == "group 'bad': index 3 listed twice"
    X = SparseMatrix.from_dense(np.column_stack([np.eye(4)[:, :3],
                                                 np.ones(4)]), bias_col=3)
    with pytest.raises(ValueError, match="'g': index 1 listed twice"):
        run_gomp(X, np.array([1.0, -1.0, 1.0, -1.0]),
                 [Group("g", (1, 1, 2))],
                 GOMPConfig(budget=3, augment_singletons=False))


def test_group_file_round_trip(tmp_path):
    gs = GroupStructure([("a", [0, 2]), ("b", [1, 2, 4])])
    path = tmp_path / "g.txt"
    save_groups(gs, path)
    loaded = load_groups(path, n_cols=6, bias_col=5)
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


def _lloyd_by_cluster_loop(points, k, rng, max_iter):
    """Lloyd with the per-cluster mean update, the reference for _lloyd."""
    n = len(points)
    centers = points[rng.choice(n, size=k, replace=False)].copy()
    labels = np.full(n, -1)
    history, emptied = [], 0
    for _ in range(max_iter):
        # the full n x k matrix: ||p||^2 - 2 p.c + ||c||^2, clipped at 0
        d2 = np.maximum((points ** 2).sum(axis=1)[:, None]
                        - 2.0 * points @ centers.T
                        + (centers ** 2).sum(axis=1)[None, :], 0.0)
        new_labels = np.argmin(d2, axis=1)
        history.append(float(d2[np.arange(n), new_labels].sum()))
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            members = points[labels == c]
            if len(members):
                centers[c] = members.mean(axis=0)
            else:
                emptied += 1
    return labels, centers, history, emptied


def test_lloyd_centre_update_equals_the_per_cluster_mean():
    rng = np.random.default_rng(4)
    emptied = 0
    for shape, k in (((200, 7), 12), ((60, 3), 20), ((500, 50), 40)):
        points = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
        # repeated rows: a centre that ties a lower-indexed copy empties
        points[1::3] = points[::3][:len(points[1::3])]
        for seed in range(3):
            labels, centers, history = _lloyd(
                points, k, np.random.default_rng(seed), max_iter=20)
            ref = _lloyd_by_cluster_loop(
                points, k, np.random.default_rng(seed), max_iter=20)
            np.testing.assert_array_equal(labels, ref[0])
            np.testing.assert_array_equal(centers, ref[1])
            assert history == ref[2]
            emptied += ref[3]
    assert emptied > 0  # the emptied-cluster branch was exercised


def test_blocked_lloyd_equals_the_full_matrix_reference(monkeypatch):
    rng = np.random.default_rng(5)
    for shape, k in (((200, 7), 12), ((301, 50), 40), ((97, 3), 20)):
        points = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3, shape)
        points[1::3] = points[::3][:len(points[1::3])]
        n = len(points)
        ref = _lloyd_by_cluster_loop(points, k, np.random.default_rng(0),
                                     max_iter=20)
        # 1-row blocks, short blocks with a short tail, a 1-row tail, and
        # all n in one block
        for rows in (1, 8, 13, n - 1, n):
            monkeypatch.setattr(grouping, "_BLOCK_ELEMENTS", rows * k)
            labels, centers, history = _lloyd(
                points, k, np.random.default_rng(0), max_iter=20)
            np.testing.assert_array_equal(labels, ref[0])
            np.testing.assert_array_equal(centers, ref[1])
            # a short block can run through another BLAS kernel than the
            # full GEMM (gemv for one row), which rounds its last bits apart
            np.testing.assert_allclose(history, ref[2], rtol=1e-13)
            if rows == n:
                assert history == ref[2]


def test_a_distance_that_rounds_below_zero_ties_to_the_lowest_centre():
    # 1-D, so every distance is the same few IEEE roundings on any BLAS:
    # points scaled by 10^+-3, an exact duplicate of each and neighbours
    # one and two ulps away, many of them drawn as centres
    rng = np.random.default_rng(0)
    base = rng.normal(size=(10, 1)) * 10.0 ** rng.uniform(-3, 3, (10, 1))
    up = np.nextafter(base, np.inf)
    points = np.concatenate((base, base, up, np.nextafter(up, np.inf),
                             np.nextafter(base, -np.inf)))
    k = 20
    centers = points[np.random.default_rng(0).choice(len(points), size=k,
                                                     replace=False)]
    d2 = ((points ** 2).sum(axis=1)[:, None] - 2.0 * points @ centers.T
          + (centers ** 2).sum(axis=1))
    first = np.argmax(d2 <= 0.0, axis=1)
    # rows with several distances below 0, the most negative not the first
    tied = ((d2 < 0.0).sum(axis=1) >= 2) & (np.argmin(d2, axis=1) != first)
    assert tied.any()
    labels, _, _ = _lloyd(points, k, np.random.default_rng(0), max_iter=1)
    np.testing.assert_array_equal(labels[tied], first[tied])
    labels, centers, history = _lloyd(points, k, np.random.default_rng(0),
                                      max_iter=20)
    ref = _lloyd_by_cluster_loop(points, k, np.random.default_rng(0),
                                 max_iter=20)
    np.testing.assert_array_equal(labels, ref[0])
    np.testing.assert_array_equal(centers, ref[1])
    assert history == ref[2]


def test_lloyd_memory_is_bounded_by_its_row_blocks():
    # the full 20000 x 500 float64 distance matrix alone would be 80 MB
    points = np.random.default_rng(6).normal(size=(20000, 8))
    tracemalloc.start()
    try:
        _lloyd(points, 500, np.random.default_rng(0), max_iter=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2 ** 20


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


def test_expand_rejects_an_unknown_metric():
    emb = embedding_of([(float(i),) for i in range(3)])
    with pytest.raises(ValueError, match="metric must be"):
        expand_overlap(GroupStructure([("a", [0])]), emb, vocab_of(3),
                       neighbors=1, metric="manhattan")


def test_expand_rejects_fractional_neighbors():
    # 1.5 failed late, with a TypeError from the ranking's slice
    emb = embedding_of([(float(i),) for i in range(8)])
    gs = GroupStructure([("a", [0])])
    with pytest.raises(ValueError, match="neighbors must be an integer"):
        expand_overlap(gs, emb, vocab_of(8), neighbors=1.5)


def test_kmeans_config_counts_are_integers_of_at_least_one():
    # k=2.5, k=nan and max_iter=nan were accepted
    for name in ("k", "max_iter"):
        for value in (2.5, float("nan")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                KMeansConfig(**{name: value})
        with pytest.raises(ValueError, match=f"{name} must be >= 1"):
            KMeansConfig(**{name: 0})


def test_kmeans_config_seed_is_a_count_of_at_least_zero():
    # seed=-1 was accepted and failed later inside numpy's generator
    with pytest.raises(ValueError, match="seed must be >= 0"):
        KMeansConfig(seed=-1)
    with pytest.raises(ValueError, match="seed must be an integer"):
        KMeansConfig(seed=2.5)
    assert KMeansConfig(seed=0).seed == 0


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
    """Rows over their L2 norms; a row whose norm overflows is divided by
    its largest absolute entry first."""
    points = np.array(points, dtype=float)
    norms = np.linalg.norm(points, axis=1)
    for r in np.flatnonzero(~np.isfinite(norms)):
        points[r] /= np.abs(points[r]).max()
        norms[r] = np.linalg.norm(points[r])
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
def test_neighbour_search_memory_stays_within_one_block_budget(metric):
    # 2000 rows give blocks of 262 queries: 800 queries span four blocks
    points = np.random.default_rng(7).normal(size=(2000, 8))
    base = unit_rows(points) if metric == "cosine" else points
    queries = np.arange(800)
    assert len(queries) > 3 * (grouping._BLOCK_ELEMENTS // (2 * len(base)))
    tracemalloc.start()
    try:
        _nearest(base, queries, 5, metric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 8 * grouping._BLOCK_ELEMENTS, peak


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


def test_cosine_expansion_ignores_a_norm_that_overflows():
    # a = 1e200 * [1, 0] has an inf norm; it must not become a zero vector
    for scale in (1.0, 1e200):
        emb = embedding_of([[scale, 0.0], [0.0, 1.0], [-1.0, 0.05],
                            [0.99, 0.1]])
        out = expand_overlap(GroupStructure([("a", [0]), ("d", [3])]), emb,
                             vocab_of(4), neighbors=1, metric="cosine")
        assert [g.members for g in out] == [(0, 3), (0, 3)], scale


# -- singleton augmentation -------------------------------------------------------------

def test_augment_singletons_on_empty_structure():
    out = augment_singletons(GroupStructure([]), 4, bias_col=3)
    assert [g.members for g in out] == [(0,), (1,), (2,)]


def test_augment_singletons_keeps_the_last_column_without_a_bias():
    out = augment_singletons(GroupStructure([]), 4, bias_col=None)
    assert out.names() == [f"single_{j}" for j in range(4)]
    with pytest.raises(TypeError):
        augment_singletons(GroupStructure([]), 4)


def test_augment_preserves_existing_groups_ahead_of_singletons():
    gs = GroupStructure([("topic", [0, 2])])
    out = augment_singletons(gs, 4, bias_col=3)
    assert out[0].name == "topic"
    assert [g.members for g in out] == [(0, 2), (0,), (1,), (2,)]


def test_double_augmentation_collides_on_names():
    once = augment_singletons(GroupStructure([]), 3, bias_col=2)
    with pytest.raises(ValueError):
        augment_singletons(once, 3, bias_col=2)


def test_both_name_checks_report_the_first_duplicate_alike():
    with pytest.raises(ValueError, match="^duplicate group name 'b'$"):
        GroupStructure([("a", [0]), ("b", [1]), ("b", [2]), ("a", [3])])
    taken = GroupStructure([("single_2", [0]), ("single_1", [1])])
    with pytest.raises(ValueError, match="^duplicate group name 'single_1'$"):
        augment_singletons(taken, 4, bias_col=3)


# -- embedding files ------------------------------------------------------------------

def test_embedding_file_loading(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("alpha 1.0 2.0\nbeta -0.5 0.25\n", encoding="utf-8")
    assert _embeddings_fast(p) is not None  # the numpy path loads it
    emb = load_embeddings(p)
    assert emb.dim == 2
    np.testing.assert_array_equal(emb["beta"], [-0.5, 0.25])
    # plain text that numpy, given this path, would read as an xz archive
    p = p.rename(tmp_path / "emb.txt.xz")
    assert _embeddings_fast(p) is None
    np.testing.assert_array_equal(load_embeddings(p)["beta"], [-0.5, 0.25])


def test_embedding_file_names_a_line_that_is_not_utf8(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_bytes("café 1.0 2.0\nbeta 3.0 4.0\n".encode()
                  + b"caf\xe9 5.0 6.0\n")
    assert _embeddings_fast(p) is None
    with pytest.raises(ValueError) as err:
        load_embeddings(p)
    assert str(err.value) == f"{p}:3: not valid UTF-8"


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


def _table_or_error(load, path):
    try:
        emb = load(path)
    except ValueError as exc:
        return str(exc)
    return emb.dim, {tok: emb[tok].tobytes() for tok in emb.rows}


_ODD_SPACES = "\x0b\x0c\x1c\x85\xa0\u2003"


@st.composite
def embedding_files(draw):
    """File text: lines of `dim` drawn values, some ragged or blank."""
    dim = draw(st.integers(1, 3))
    token = st.text(st.sampled_from("ab\u00e9\u4e2d" + _ODD_SPACES),
                    min_size=1, max_size=3)
    value = st.one_of(
        st.floats().map(repr),
        st.sampled_from(["1_0", "\u0661.\u0665", "\uff11.5", "-0.0", "1e400",
                         "Infinity", "0x10", "x"]))
    gap = st.sampled_from([" ", "\t", " \u2003 "])

    def line(low, high):
        return st.builds(lambda tok, vals, sep: sep.join((tok, *vals)), token,
                         st.lists(value, min_size=low, max_size=high), gap)

    # lines of `dim` values twice as often as ragged ones
    lines = st.lists(st.one_of(line(dim, dim), line(dim, dim),
                               line(0, dim + 1), st.sampled_from(["", " "])),
                     min_size=1, max_size=6)
    return draw(st.sampled_from(["\n", "\r\n"])).join(draw(lines))


@settings(max_examples=300, deadline=None)
@given(embedding_files())
# each odd space after a token, and then inside one
@example("a\x0b1 2\nb\x0c1 2\nc\x1c1 2\nd\x851 2\ne\xa01 2\nf\u20031 2\n")
@example("a\x0bb 1 2\n")
@example("a\x0cb 1 2\n")
@example("a\x1cb 1 2\n")
@example("a\x85b 1 2\n")
@example("a\xa0b 1 2\n")
@example("a\u2003b 1 2\n")
@example("a 1_0 \u0661.\u0665\nb \uff11.5 2\n")  # values only float() reads
@example("a 1 nan\n")
@example("a inf 1\nb 1 -Infinity\n")
@example("\r\n a 1 2 \r\n \t\r\n\r\nb 3 4\r\n  ")  # blank lines, CRLF
@example("a 1 2\nb 3 4\na 5 6\n")  # the last line of a token wins
@example("a 1 2\nb 3\n")  # ragged rows
@example("a 1\nb 2 3\n")
def test_the_embedding_fast_path_loads_what_the_line_parser_loads(
        tmp_path_factory, text):
    path = tmp_path_factory.mktemp("emb") / "emb.txt"
    path.write_bytes(text.encode())
    ref = _table_or_error(_embeddings_by_line, path)
    if _embeddings_fast(path) is not None:
        assert _table_or_error(_embeddings_fast, path) == ref
    assert _table_or_error(load_embeddings, path) == ref


def test_values_numpy_rejects_load_as_float_reads_them(tmp_path):
    p = tmp_path / "emb.txt"
    p.write_text("a 1_0 \u0661.\u0665\nb \uff11.5 2\n", encoding="utf-8")
    assert _embeddings_fast(p) is None
    emb = load_embeddings(p)
    assert emb["a"].tolist() == [10.0, 1.5] and emb["b"].tolist() == [1.5, 2.0]


def test_embedding_file_memory_is_its_array_and_token_strings(tmp_path):
    rng = np.random.default_rng(0)
    tokens = [f"word{i}" for i in range(5000)]
    vectors = rng.normal(size=(5000, 50))
    path = tmp_path / "emb.txt"
    path.write_text("".join(
        tok + " " + " ".join(map(repr, vec)) + "\n"
        for tok, vec in zip(tokens, vectors.tolist())), encoding="utf-8")
    tracemalloc.start()
    try:
        emb = load_embeddings(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(emb.matrix, vectors)
    # the line parser held a Python float per value: 10.9 MiB at this size
    assert peak <= 2 * vectors.nbytes + sum(map(sys.getsizeof, tokens))
