import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textomp import SparseMatrix, sparse
from textomp.sparse import _parse_fast, _parse_lines

from conftest import random_design


def test_correlations_hand_sum():
    X = SparseMatrix.from_triplets(3, 2, [0, 2], [0, 0], [1.0, 2.0])
    assert X.correlations([1.0, 5.0, 1.0])[0] == 3.0


def test_correlations_empty_column():
    X = SparseMatrix.from_triplets(3, 2, [0, 2], [0, 0], [1.0, 2.0])
    assert X.correlations([7.0, 8.0, 9.0])[1] == 0.0


def test_correlations_match_dense_oracle(rng):
    dense, X = random_design(rng, 6, 4, with_bias=False)
    v = rng.normal(size=6)
    np.testing.assert_allclose(X.correlations(v), dense.T @ v, rtol=0,
                               atol=1e-12)


def test_correlations_length_mismatch():
    X = SparseMatrix.from_triplets(2, 1, [0], [0], [1.0])
    with pytest.raises(ValueError):
        X.correlations([1.0, 1.0, 1.0])


def test_mat_vec_identity_pattern():
    X = SparseMatrix.from_dense(np.eye(3))
    np.testing.assert_allclose(X.mat_vec([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])


def test_mat_vec_zero_vector(rng):
    _, X = random_design(rng, 4, 5, with_bias=False)
    np.testing.assert_array_equal(X.mat_vec(np.zeros(5)), np.zeros(4))


def test_mat_vec_matches_dense_oracle(rng):
    dense, X = random_design(rng, 5, 7, with_bias=False)
    theta = rng.normal(size=7)
    np.testing.assert_allclose(X.mat_vec(theta), dense @ theta, atol=1e-12)


def test_mat_vec_dense_theta_matches_sparse_theta_path(rng):
    # both accumulation branches (few vs many nonzero coefficients) agree
    dense, X = random_design(rng, 8, 12, with_bias=False)
    theta = rng.normal(size=12)
    sparse_theta = np.zeros(12)
    sparse_theta[3] = theta[3]
    np.testing.assert_allclose(X.mat_vec(theta), dense @ theta, atol=1e-12)
    np.testing.assert_allclose(X.mat_vec(sparse_theta), dense @ sparse_theta,
                               atol=1e-12)


def test_mat_vec_is_bit_equal_to_a_column_by_column_sum(rng):
    # every active count, so both arms (gather and every entry) are pinned
    _, X = random_design(rng, 30, 40, density=0.3, with_bias=False)
    for k in range(41):
        theta = np.zeros(40)
        cols = rng.choice(40, size=k, replace=False)
        theta[cols] = rng.normal(size=k) * 10.0 ** rng.uniform(-8, 8, k)
        ref = np.zeros(30)
        for j in range(40):
            if theta[j] != 0:
                r, v = X.col(j)
                ref[r] += v * theta[j]
        out = X.mat_vec(theta)
        assert out.dtype == np.float64
        np.testing.assert_array_equal(out.view(np.int64), ref.view(np.int64))


def test_weighted_sq_norms_match_the_dense_sum(rng):
    dense, X = random_design(rng, 9, 6, with_bias=True)
    w = rng.random(9)
    np.testing.assert_allclose(X.weighted_sq_norms(w),
                               (w[:, None] * dense ** 2).sum(axis=0),
                               rtol=1e-13)


def test_mat_vec_length_mismatch(rng):
    _, X = random_design(rng, 4, 5, with_bias=False)
    with pytest.raises(ValueError):
        X.mat_vec(np.zeros(6))


def test_mat_vec_distributes_over_addition(rng):
    _, X = random_design(rng, 6, 9, with_bias=False)
    a, b = rng.normal(size=9), rng.normal(size=9)
    np.testing.assert_allclose(X.mat_vec(a + b), X.mat_vec(a) + X.mat_vec(b),
                               atol=1e-12)


def test_submatrix_identity_case(rng):
    dense, X = random_design(rng, 5, 4, with_bias=False)
    sub = X.submatrix(range(4))
    np.testing.assert_array_equal(sub.densify_columns(range(4)), dense)


def test_submatrix_empty():
    X = SparseMatrix.from_triplets(3, 2, [0, 1], [0, 1], [1.0, 2.0])
    sub = X.submatrix([])
    assert sub.shape == (3, 0)


def test_submatrix_ascending_order(rng):
    dense, X = random_design(rng, 5, 4, with_bias=False)
    sub = X.submatrix([3, 1])
    np.testing.assert_array_equal(sub.densify_columns(range(2)),
                                  dense[:, [1, 3]])


def test_submatrix_out_of_range(rng):
    _, X = random_design(rng, 5, 4, with_bias=False)
    with pytest.raises(IndexError):
        X.submatrix([0, 4])
    for ascending in (np.array([0, 4]), np.array([-1, 2])):
        with pytest.raises(IndexError):
            X.submatrix(ascending)


def test_submatrix_is_one_matrix_whatever_the_index_form(rng):
    dense, X = random_design(rng, 7, 6)
    expected = X.submatrix(np.array([1, 3, 5]))
    np.testing.assert_array_equal(expected.densify_columns(range(3)),
                                  dense[:, [1, 3, 5]])
    assert expected.bias_col == 2
    for form in ([5, 1, 3, 1], np.array([5, 3, 1]), np.array([1, 3, 3, 5]),
                 range(1, 6, 2), np.array([1, 3, 5], dtype=np.int32),
                 np.array([1, 3, 5], dtype=np.uint8)):
        sub = X.submatrix(form)
        assert (sub.n_cols, sub.bias_col) == (3, 2)
        for name in ("indptr", "rows", "vals"):
            np.testing.assert_array_equal(getattr(sub, name),
                                          getattr(expected, name))
    # narrow signed indices are widened first: 127 + 1 must not wrap
    dense, X = random_design(rng, 4, 300, with_bias=False)
    for dtype in (np.int8, np.int16):
        sub = X.submatrix(np.array([1, 127], dtype=dtype))
        np.testing.assert_array_equal(sub.densify_columns(range(2)),
                                      dense[:, [1, 127]])


def test_submatrix_then_mat_vec_equals_masked_mat_vec(rng):
    # the penalized baselines run every product on such a copy, so each
    # must equal X's product over the kept columns exactly
    dense, X = random_design(rng, 40, 12, with_bias=False)
    keep = [1, 4, 5, 8, 9, 11]
    sub = X.submatrix(keep)
    counts = np.diff(sub.indptr)
    for n_nonzero in (1, len(keep)):
        theta = np.zeros(len(keep))
        theta[:n_nonzero] = rng.normal(size=n_nonzero)
        # one nonzero takes mat_vec's gather arm, every one its dense arm
        gathers = 3 * counts[theta != 0].sum() <= sub.nnz
        assert gathers == (n_nonzero == 1)
        masked = np.zeros(12)
        masked[keep] = theta
        np.testing.assert_array_equal(sub.mat_vec(theta), X.mat_vec(masked))
    v = rng.normal(size=40)
    np.testing.assert_array_equal(sub.correlations(v),
                                  X.correlations(v)[keep])
    w = rng.random(40)
    np.testing.assert_array_equal(sub.weighted_sq_norms(w),
                                  X.weighted_sq_norms(w)[keep])


def test_submatrix_tracks_bias_column(rng):
    _, X = random_design(rng, 5, 4, with_bias=True)
    assert X.submatrix([0, 3]).bias_col == 1
    assert X.submatrix([0, 1]).bias_col is None


@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 300), st.integers(1, 12))
def test_submatrix_correlations_are_bit_equal_to_the_full_scan(seed, n, d):
    # a screened scan correlates column subsets and must get X's own bits;
    # up to 300 rows, so reduceat's pairwise blocks split long columns
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < rng.random(d), rng.normal(
        size=(n, d)), 0.0)
    X = SparseMatrix.from_dense(dense)
    cols = rng.integers(d, size=rng.integers(0, 2 * d))
    v = rng.normal(size=n)
    got = X.submatrix(cols).correlations(v)
    assert got.tobytes() == X.correlations(v)[np.unique(cols)].tobytes()


def test_correlations_are_bit_equal_to_a_per_column_reduceat(rng):
    _, X = random_design(rng, 30, 11, density=0.3, with_bias=True)
    v = rng.normal(size=30)
    ref = np.zeros(11)
    for j in range(11):
        r, x = X.col(j)
        if len(r):
            ref[j] = np.add.reduceat(x * v[r], [0])[0]
    np.testing.assert_array_equal(X.correlations(v).view(np.int64),
                                  ref.view(np.int64))


def test_validation_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(3, 1, [1, 1], [0, 0], [1.0, 2.0])
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(3, 2, [1, 0, 1], [0, 1, 0], [1.0, 2.0, 3.0])


def test_triplets_in_any_order_build_the_column_layout():
    X = SparseMatrix.from_triplets(3, 3, [2, 0, 1, 0], [0, 2, 0, 0],
                                   [3.0, 4.0, 2.0, 1.0])
    np.testing.assert_array_equal(X.indptr, [0, 3, 3, 4])
    np.testing.assert_array_equal(X.rows, [0, 1, 2, 0])
    np.testing.assert_array_equal(X.vals, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="column index out of range"):
        SparseMatrix.from_triplets(3, 2, [0], [2], [1.0])


def test_validation_rejects_out_of_range_row():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 1, [2], [0], [1.0])


def test_validation_rejects_zero_and_nonfinite_values():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 1, [0], [0], [0.0])
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 1, [0], [0], [np.inf])


def test_validation_rejects_bad_bias_column():
    with pytest.raises(ValueError):
        SparseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, 2.0],
                                   bias_col=0)
    with pytest.raises(ValueError):  # missing a row
        SparseMatrix.from_triplets(2, 1, [0], [0], [1.0], bias_col=0)


def test_file_round_trip(tmp_path, rng):
    dense, X = random_design(rng, 6, 5, with_bias=True)
    path = tmp_path / "m.matrix"
    X.save(path)
    loaded = SparseMatrix.load(path)
    np.testing.assert_array_equal(loaded.densify_columns(range(5)), dense)
    assert loaded.bias_col == 4
    # not strided views of the parser's records, which slow every kernel
    assert loaded.rows.flags.c_contiguous and loaded.vals.flags.c_contiguous
    # byte-identical on re-save
    path2 = tmp_path / "m2.matrix"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_file_text_is_column_major_with_repr_values(tmp_path):
    X = SparseMatrix.from_dense([[0.0, 0.1, 0.0, 1.0],
                                 [0.0, 0.0, -2.5e-300, 1.0],
                                 [0.0, 3.0, 1 / 3, 1.0]], bias_col=3)
    path = tmp_path / "m.matrix"
    X.save(path)  # column 0 is empty and writes no line
    assert path.read_text() == ("3 4\n0 1 0.1\n2 1 3.0\n1 2 -2.5e-300\n"
                                "2 2 0.3333333333333333\n0 3 1.0\n1 3 1.0\n"
                                "2 3 1.0\n")


def per_entry_text(X):
    """The matrix file as the per-entry formatting writes it."""
    cols = np.repeat(np.arange(X.n_cols), np.diff(X.indptr))
    return f"{X.n_rows} {X.n_cols}\n" + "".join(
        f"{i} {j} {x!r}\n" for i, j, x in zip(X.rows.tolist(), cols.tolist(),
                                              X.vals.tolist()))


def test_file_text_across_save_chunks_is_the_per_entry_text(tmp_path,
                                                             monkeypatch,
                                                             rng):
    _, X = random_design(rng, 9, 6, with_bias=True, scale=1e3)
    expected = per_entry_text(X)
    path = tmp_path / "m.matrix"
    for chunk in (1, 7, X.nnz - 1, X.nnz, X.nnz + 1):
        monkeypatch.setattr(sparse, "_SAVE_CHUNK", chunk)
        X.save(path)
        assert path.read_text() == expected, chunk


def test_file_text_of_distinct_and_extreme_values_is_the_per_entry_text(
        tmp_path, monkeypatch, rng):
    # more than one default chunk of distinct values, then extremes and
    # repeats that straddle small chunks
    n_rows, n_cols = 300, 150
    nnz = sparse._SAVE_CHUNK + 1000
    keys = rng.choice(n_rows * n_cols, nnz, replace=False)
    vals = rng.standard_normal(nnz) * 10.0 ** rng.integers(-20, 20, nnz)
    assert len(np.unique(vals)) == nnz
    X = SparseMatrix.from_triplets(n_rows, n_cols, keys % n_rows,
                                   keys // n_rows, vals)
    path = tmp_path / "m.matrix"
    X.save(path)
    assert path.read_text() == per_entry_text(X)
    extremes = [5e-324, -5e-324, 2.5e-310, -1e-300, 1e-300, 1e300, -1e300,
                1.7976931348623157e308, -0.1, 0.1, 1.0, -1.0, 3.0, 1 / 3]
    vals = np.resize(extremes, 97)
    X = SparseMatrix.from_triplets(10, 12, np.arange(97) % 10,
                                   np.arange(97) // 10 + 1, vals)
    for chunk in (1, 5, 14, 96, 97, 98):
        monkeypatch.setattr(sparse, "_SAVE_CHUNK", chunk)
        X.save(path)
        assert path.read_text() == per_entry_text(X), chunk


def test_save_memory_does_not_grow_with_the_entry_count(tmp_path,
                                                      monkeypatch, rng):
    # a 1000 x 200 matrix with 4k, then 100k entries, in chunks of 512;
    # an nnz-sized array of column indices would add 800 kB
    monkeypatch.setattr(sparse, "_SAVE_CHUNK", 512)
    peaks = []
    for nnz in (4000, 100000):
        keys = rng.choice(200_000, nnz, replace=False)
        X = SparseMatrix.from_triplets(1000, 200, keys % 1000, keys // 1000,
                                       rng.standard_normal(nnz))
        tracemalloc.start()
        try:
            X.save(tmp_path / "m.matrix")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 100_000, peaks


@pytest.mark.parametrize("order", ["sorted", "reversed", "shuffled"])
def test_from_triplets_orders_entries_as_a_lexsort_does(rng, order):
    dense = np.where(rng.random((9, 7)) < 0.5, rng.standard_normal((9, 7)),
                     0.0)
    rows, cols = np.nonzero(dense.T)[::-1]  # column-major
    perm = {"sorted": np.arange(rows.size),
            "reversed": np.arange(rows.size)[::-1],
            "shuffled": rng.permutation(rows.size)}[order]
    rows, cols = rows[perm], cols[perm]
    vals = dense[rows, cols]
    X = SparseMatrix.from_triplets(9, 7, rows, cols, vals)
    ref = np.lexsort((rows, cols))
    np.testing.assert_array_equal(X.rows, rows[ref])
    np.testing.assert_array_equal(X.vals, vals[ref])
    np.testing.assert_array_equal(
        X.indptr, np.concatenate(([0], np.cumsum(np.bincount(cols,
                                                             minlength=7)))))
    assert X.rows.flags.c_contiguous and X.vals.flags.c_contiguous


def test_from_triplets_rejects_a_repeat_in_sorted_input_and_a_huge_shape():
    with pytest.raises(ValueError, match="strictly ascending"):
        SparseMatrix.from_triplets(3, 2, [0, 1, 1, 2], [0, 0, 0, 1],
                                   [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError, match="overflow"):
        SparseMatrix.from_triplets(2 ** 32, 2 ** 31, [0], [0], [1.0])


def densify_by_column(X, indices):
    out = np.zeros((X.n_rows, len(indices)))
    for k, j in enumerate(indices):
        r, v = X.col(j)
        out[r, k] = v
    return out


def test_densify_columns_equals_a_per_column_copy(rng):
    dense, X = random_design(rng, 8, 6, with_bias=True)
    dense[:, 2] = 0.0  # an empty column
    X = SparseMatrix.from_dense(dense, bias_col=5)
    for indices in ([], [2], [5, 0, 3], [1, 2, 1, 5, 2], range(6),
                    np.array([4, 4, 5])):
        got = X.densify_columns(indices)
        np.testing.assert_array_equal(got, densify_by_column(X, indices))
        np.testing.assert_array_equal(got, dense[:, list(indices)])
    np.testing.assert_array_equal(X.densify_columns(range(X.n_cols)), dense)
    for bad in ([6], [0, -1]):
        with pytest.raises(IndexError):
            X.densify_columns(bad)


def test_file_rejects_bad_entries(tmp_path):
    p = tmp_path / "bad.matrix"
    p.write_text("2 2\n0 0 1.0\n5 0 1.0\n")
    with pytest.raises(ValueError, match=":3"):
        SparseMatrix.load(p, bias_col=None)
    p.write_text("2 2\n0 0 0.0\n")
    with pytest.raises(ValueError, match="non-zero"):
        SparseMatrix.load(p, bias_col=None)
    p.write_text("2 2\n0 0 1.0\n1.5 0 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.matrix:3:"):
        SparseMatrix.load(p, bias_col=None)
    p.write_text("2 2\n0 x 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.matrix:2:"):
        SparseMatrix.load(p, bias_col=None)
    p.write_text("2 x\n0 0 1.0\n")
    with pytest.raises(ValueError, match=r"bad\.matrix:1:"):
        SparseMatrix.load(p, bias_col=None)


def assert_bitwise_equal(a, b):
    assert (a.n_rows, a.n_cols, a.bias_col) == (b.n_rows, b.n_cols, b.bias_col)
    for name in ("indptr", "rows", "vals"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


def test_numpy_and_line_parsers_load_the_same_matrix(tmp_path, rng):
    _, X = random_design(rng, 40, 25, density=0.3, with_bias=True,
                         scale=1e3)
    path = tmp_path / "m.matrix"
    X.save(path)
    saved = path.read_bytes()
    header, *body = path.read_text().splitlines()
    # entries in any order, blank lines and trailing spaces between them
    rng.shuffle(body)
    text = header + "\n\n" + "".join(
        line + (" \t" if k % 3 == 0 else "") + ("\n\n   \n" if k % 5 == 0
                                                  else "\n")
        for k, line in enumerate(body)) + "\n \n"
    for newline in ("\n", "\r\n"):
        path.write_bytes(text.replace("\n", newline).encode())
        assert _parse_fast(path) is not None  # the numpy path loads it
        loaded = SparseMatrix.load(path)
        assert_bitwise_equal(loaded, SparseMatrix.from_triplets(
            *_parse_lines(path), bias_col=X.bias_col))
        assert_bitwise_equal(loaded, X)
        resaved = tmp_path / "again.matrix"
        loaded.save(resaved)
        assert resaved.read_bytes() == saved


def test_header_only_file_loads(tmp_path, recwarn):
    path = tmp_path / "empty.matrix"
    for body in ("", "\n  \n"):
        path.write_text("3 4\n" + body)
        X = SparseMatrix.load(path, bias_col=None)
        assert (X.shape, X.nnz) == ((3, 4), 0)
    assert not recwarn.list


@pytest.mark.parametrize("body, message", [
    ("0 0 1.0\n# comment\n", ":3: expected 'row col value'"),
    ("# 1 1\n0 0 1.0\n", ":2: bad entry"),
    ("0 0 1.0 4\n1 1\n", ":2: expected 'row col value'"),
    ("0 0 1.0\n1 1\n0 1 1.0 4\n", ":3: expected 'row col value'"),
    ("0 0 1.0\n1 1 nan\n", ":3: value must be finite and non-zero"),
    ("1 1 -inf\n", ":2: value must be finite and non-zero"),
    ("0 0 1.0\n1.0 1 2.0\n", ":3: bad entry"),
    ("0 1.0 2.0\n", ":2: bad entry"),
    ("0 0 1.0\n1_0 1 2.0\n", ":3: index out of range"),  # int() reads 10
    ("1 0 x\n", ":2: bad entry"),
])
def test_malformed_file_names_its_first_bad_line(tmp_path, body, message):
    path = tmp_path / "bad.matrix"
    path.write_text("2 2\n" + body)
    assert _parse_fast(path) is None
    with pytest.raises(ValueError) as err:
        SparseMatrix.load(path, bias_col=None)
    assert str(err.value).startswith(f"{path}{message}")


def test_a_line_that_is_not_utf8_is_named(tmp_path):
    # the header was blamed: "bad.matrix:1: expected header 'n_rows n_cols'"
    path = tmp_path / "bad.matrix"
    path.write_bytes(b"2 2\n0 0 1.0\n1 1 \xff\n")
    with pytest.raises(ValueError) as err:
        SparseMatrix.load(path, bias_col=None)
    assert str(err.value) == f"{path}:3: not valid UTF-8"


@pytest.mark.parametrize("body, message", [
    ("0 0 1.0\n1 0 1.0\n0 1 2.0\n", "bias column must be 1.0 in every row"),
    ("0 0 1.0\n0 0 2.0\n",
     "row indices must be strictly ascending within each column")],
    ids=["bias-not-ones", "repeated-entry"])
def test_a_file_that_parses_to_no_valid_matrix_names_the_file(
        tmp_path, body, message):
    # each line parses, so only the matrix check fails; its message named
    # no file, and a run reading three matrices could not tell which
    path = tmp_path / "x.matrix"
    path.write_text("2 2\n" + body)
    with pytest.raises(ValueError) as err:
        SparseMatrix.load(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("header", ["-2 3", "2 -3", "-1 -1"])
def test_negative_header_counts_name_the_header_line(tmp_path, header):
    # "-2 3" said the bias column must be 1.0 in every row, and "2 -3"
    # leaked numpy's "'minlength' must not be negative"
    path = tmp_path / "neg.matrix"
    path.write_text(header + "\n0 0 1.0\n")
    assert _parse_fast(path) is None
    for bias_col in ("last", None):
        with pytest.raises(ValueError) as err:
            SparseMatrix.load(path, bias_col=bias_col)
        assert str(err.value) == f"{path}:1: expected header 'n_rows n_cols'"


def test_inputs_only_the_line_parser_reads_load_as_it_reads_them(tmp_path):
    path = tmp_path / "odd.matrix"
    # int() and float() read underscores, numpy's parser does not
    path.write_text("20 20\n1_0 0 1_5.0\n0 1 1.0\n")
    X = SparseMatrix.load(path, bias_col=None)
    assert X.col(0)[0].tolist() == [10] and X.col(0)[1].tolist() == [15.0]
    # numpy's integer parser reads this letter as a digit, int() does not
    path.write_text("20000 2\n\u01fe0 0 1.0\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"odd\.matrix:2: bad entry"):
        SparseMatrix.load(path, bias_col=None)
    # a plain text file that numpy, given its path, would read as gzip
    path = tmp_path / "odd.matrix.gz"
    path.write_text("2 2\n0 0 1.0\n")
    assert _parse_fast(path) is None
    assert SparseMatrix.load(path, bias_col=None).col(0)[1].tolist() == [1.0]


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_correlations_equal_dense_dot_property(n, d, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < 0.5, rng.normal(size=(n, d)), 0.0)
    X = SparseMatrix.from_dense(dense)
    v = rng.normal(size=n)
    corr = X.correlations(v)
    for j in range(d):
        ref = float(dense[:, j] @ v)
        assert corr[j] == pytest.approx(ref, rel=1e-12, abs=1e-12)
