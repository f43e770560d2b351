import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from textomp import SparseMatrix
from textomp.sparse import _parse_fast, _parse_lines

from conftest import random_design


def test_col_dot_hand_sum():
    X = SparseMatrix.from_columns(3, [([0, 2], [1.0, 2.0]), ([], [])])
    assert X.col_dot(0, [1.0, 5.0, 1.0]) == 3.0


def test_col_dot_empty_column():
    X = SparseMatrix.from_columns(3, [([0, 2], [1.0, 2.0]), ([], [])])
    assert X.col_dot(1, [7.0, 8.0, 9.0]) == 0.0


def test_col_dot_matches_dense_oracle(rng):
    dense, X = random_design(rng, 6, 4, with_bias=False)
    v = rng.normal(size=6)
    for j in range(4):
        assert X.col_dot(j, v) == pytest.approx(dense[:, j] @ v, abs=1e-12)


def test_col_dot_index_out_of_range():
    X = SparseMatrix.from_columns(2, [([0], [1.0])])
    with pytest.raises(IndexError):
        X.col_dot(1, [1.0, 1.0])


def test_col_dot_length_mismatch():
    X = SparseMatrix.from_columns(2, [([0], [1.0])])
    with pytest.raises(ValueError):
        X.col_dot(0, [1.0, 1.0, 1.0])


def test_mat_vec_identity_pattern():
    X = SparseMatrix.from_columns(3, [([0], [1.0]), ([1], [1.0]), ([2], [1.0])])
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
    np.testing.assert_array_equal(sub.to_dense(), dense)


def test_submatrix_empty():
    X = SparseMatrix.from_columns(3, [([0], [1.0]), ([1], [2.0])])
    sub = X.submatrix([])
    assert sub.shape == (3, 0)


def test_submatrix_ascending_order(rng):
    dense, X = random_design(rng, 5, 4, with_bias=False)
    sub = X.submatrix([3, 1])
    np.testing.assert_array_equal(sub.to_dense(), dense[:, [1, 3]])


def test_submatrix_out_of_range(rng):
    _, X = random_design(rng, 5, 4, with_bias=False)
    with pytest.raises(IndexError):
        X.submatrix([0, 4])


def test_submatrix_then_mat_vec_equals_masked_mat_vec(rng):
    dense, X = random_design(rng, 7, 6, with_bias=False)
    keep = [1, 4, 5]
    theta = rng.normal(size=6)
    masked = np.zeros(6)
    masked[keep] = theta[keep]
    np.testing.assert_allclose(X.submatrix(keep).mat_vec(theta[keep]),
                               X.mat_vec(masked), atol=1e-12)


def test_submatrix_tracks_bias_column(rng):
    _, X = random_design(rng, 5, 4, with_bias=True)
    assert X.submatrix([0, 3]).bias_col == 1
    assert X.submatrix([0, 1]).bias_col is None


def test_correlations_bitwise_equal_to_col_dot(rng):
    dense, X = random_design(rng, 30, 11, with_bias=True)
    v = rng.normal(size=30)
    corr = X.correlations(v)
    for j in range(11):
        assert corr[j] == X.col_dot(j, v)  # exact, not approximate


def test_validation_rejects_duplicate_rows():
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(3, [([1, 1], [1.0, 2.0])])
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
        SparseMatrix.from_columns(2, [([2], [1.0])])


def test_validation_rejects_zero_and_nonfinite_values():
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, [([0], [0.0])])
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, [([0], [np.inf])])


def test_validation_rejects_bad_bias_column():
    with pytest.raises(ValueError):
        SparseMatrix.from_columns(2, [([0, 1], [1.0, 2.0])], bias_col=0)
    with pytest.raises(ValueError):  # missing a row
        SparseMatrix.from_columns(2, [([0], [1.0])], bias_col=0)


def test_file_round_trip(tmp_path, rng):
    dense, X = random_design(rng, 6, 5, with_bias=True)
    path = tmp_path / "m.matrix"
    X.save(path)
    loaded = SparseMatrix.load(path)
    np.testing.assert_array_equal(loaded.to_dense(), dense)
    assert loaded.bias_col == 4
    # byte-identical on re-save
    path2 = tmp_path / "m2.matrix"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


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
    header, *body = path.read_text().splitlines()
    # entries in any order, blank lines and trailing spaces between them
    rng.shuffle(body)
    path.write_text(header + "\n\n" + "".join(
        line + (" \t" if k % 3 == 0 else "") + ("\n\n   \n" if k % 5 == 0
                                                  else "\n")
        for k, line in enumerate(body)) + "\n \n")
    assert _parse_fast(path) is not None  # the numpy path loads it
    loaded = SparseMatrix.load(path)
    assert_bitwise_equal(loaded, SparseMatrix.from_triplets(
        *_parse_lines(path), bias_col=X.bias_col))
    assert_bitwise_equal(loaded, X)
    resaved = tmp_path / "again.matrix"
    loaded.save(resaved)
    X.save(path)
    assert resaved.read_bytes() == path.read_bytes()


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


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_col_dot_equals_dense_dot_property(n, d, seed):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, d)) < 0.5, rng.normal(size=(n, d)), 0.0)
    X = SparseMatrix.from_dense(dense)
    v = rng.normal(size=n)
    for j in range(d):
        ref = float(dense[:, j] @ v)
        assert X.col_dot(j, v) == pytest.approx(ref, rel=1e-12, abs=1e-12)
