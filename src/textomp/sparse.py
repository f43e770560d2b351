"""Column-major sparse matrix storage and the inner-product kernels.

Every solver's hot loop is "correlate each column with a residual vector",
so the storage is CSC-like: one contiguous (row, value) run per column.
Matrices are immutable after construction and safe to share across threads.

Per-column sums always run left-to-right over the stored entries, so
``col_dot`` and ``correlations`` agree bit-for-bit.
"""

from __future__ import annotations

import warnings

import numpy as np


def _column_sums(products, starts, counts):
    """Sum ``products`` over the slices [starts[j], starts[j]+counts[j])."""
    out = np.zeros(len(counts))
    nonempty = counts > 0
    if products.size and nonempty.any():
        # reduceat sums each slice sequentially; empty columns are skipped
        # because their start offset would alias the next column's run.
        out[nonempty] = np.add.reduceat(products, starts[nonempty])
    return out


class SparseMatrix:
    """N x d design matrix stored by column.

    Parameters
    ----------
    n_rows, n_cols : int
        Matrix shape. Column indices run 0..n_cols-1.
    indptr : ndarray of shape (n_cols + 1,)
        Column j's entries live at positions indptr[j]:indptr[j+1].
    rows : ndarray of shape (nnz,)
        Row index of each stored entry, strictly ascending within a column.
    vals : ndarray of shape (nnz,)
        Stored values; finite and non-zero.
    bias_col : int or None
        Index of the always-one bias column, by convention the last one.
    """

    def __init__(self, n_rows, n_cols, indptr, rows, vals, bias_col=None):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.vals = np.asarray(vals, dtype=np.float64)
        self.bias_col = None if bias_col is None else int(bias_col)
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals, bias_col=None):
        """Build from parallel (row, column, value) arrays in any order.

        Entries are sorted by column, then row. The sort is stable, so a
        repeated (row, column) pair is kept and fails validation.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("row/column/value length mismatch")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        order = np.lexsort((rows, cols))  # by column, then row; stable
        indptr = np.concatenate(([0], np.cumsum(np.bincount(
            cols, minlength=n_cols))))
        return cls(n_rows, n_cols, indptr, rows[order], vals[order],
                   bias_col=bias_col)

    @classmethod
    def from_columns(cls, n_rows, columns, bias_col=None):
        """Build from a list of per-column (row_indices, values) pairs."""
        rows = [np.asarray(r, dtype=np.int64) for r, _ in columns]
        vals = [np.asarray(v, dtype=np.float64) for _, v in columns]
        for j, (r, v) in enumerate(zip(rows, vals)):
            if r.shape != v.shape:
                raise ValueError(f"column {j}: row/value length mismatch")
        cols = np.repeat(np.arange(len(rows)), [len(r) for r in rows])
        return cls.from_triplets(
            n_rows, len(rows), np.concatenate([np.zeros(0, np.int64), *rows]),
            cols, np.concatenate([np.zeros(0), *vals]), bias_col=bias_col)

    @classmethod
    def from_dense(cls, arr, bias_col=None):
        """Build from a dense 2-D array, dropping exact zeros."""
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(arr)
        return cls.from_triplets(arr.shape[0], arr.shape[1], rows, cols,
                                 arr[rows, cols], bias_col=bias_col)

    def _validate(self):
        if self.indptr.shape != (self.n_cols + 1,):
            raise ValueError("indptr length must be n_cols + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != len(self.rows):
            raise ValueError("indptr does not span the stored entries")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.rows) != len(self.vals):
            raise ValueError("rows/vals length mismatch")
        if len(self.rows):
            if self.rows.min() < 0 or self.rows.max() >= self.n_rows:
                raise ValueError("row index out of range")
            if not np.all(np.isfinite(self.vals)):
                raise ValueError("stored values must be finite")
            if np.any(self.vals == 0.0):
                raise ValueError("stored values must be non-zero")
            # ascending row order, no duplicates within a column
            d = np.diff(self.rows)
            boundary = self.indptr[1:-1] - 1
            boundary = boundary[(boundary >= 0) & (boundary < len(d))]
            interior = np.ones(len(d), dtype=bool)
            interior[boundary] = False
            if (interior & (d <= 0)).any():
                raise ValueError("row indices must be strictly ascending "
                                 "within each column")
        if self.bias_col is not None:
            if not 0 <= self.bias_col < self.n_cols:
                raise ValueError("bias column index out of range")
            r, v = self.col(self.bias_col)
            if len(r) != self.n_rows or not np.all(v == 1.0):
                raise ValueError("bias column must be 1.0 in every row")

    # -- basic views -------------------------------------------------------

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return len(self.vals)

    def col(self, j):
        """Return (row_indices, values) views of column j."""
        if not 0 <= j < self.n_cols:
            raise IndexError(f"column index {j} out of range")
        s, e = self.indptr[j], self.indptr[j + 1]
        return self.rows[s:e], self.vals[s:e]

    def to_dense(self):
        return self.densify_columns(range(self.n_cols))

    # -- kernels -----------------------------------------------------------

    def col_dot(self, j, v):
        """Inner product of column j with a length-n_rows vector."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"vector length {v.shape} != ({self.n_rows},)")
        r, x = self.col(j)
        if len(r) == 0:
            return 0.0
        p = x * v[r]
        # same sequential reduction as correlations(); keeps both bit-equal
        return float(np.add.reduceat(p, np.array([0]))[0])

    def correlations(self, v):
        """All column inner products X^T v as a length-n_cols vector."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"vector length {v.shape} != ({self.n_rows},)")
        products = self.vals * v[self.rows]
        return _column_sums(products, self.indptr[:-1], np.diff(self.indptr))

    def mat_vec(self, theta):
        """Dense product X @ theta, accumulated in ascending column order."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_cols,):
            raise ValueError(f"theta length {theta.shape} != ({self.n_cols},)")
        out = np.zeros(self.n_rows)
        active = np.nonzero(theta)[0]
        if len(active) == 0:
            return out
        if len(active) > 0.25 * self.n_cols:
            counts = np.diff(self.indptr)
            products = self.vals * np.repeat(theta, counts)
            # bincount accumulates in entry order = ascending column order
            return np.bincount(self.rows, weights=products,
                               minlength=self.n_rows).astype(np.float64)
        for j in active:
            r, v = self.col(j)
            out[r] += v * theta[j]
        return out

    def col_norms(self):
        """Euclidean norm of every column."""
        counts = np.diff(self.indptr)
        return np.sqrt(_column_sums(self.vals ** 2, self.indptr[:-1], counts))

    # -- structural ops ----------------------------------------------------

    def submatrix(self, indices):
        """Columns at the given indices, arranged ascending by original index."""
        idx = sorted(set(int(j) for j in indices))
        for j in idx:
            if not 0 <= j < self.n_cols:
                raise IndexError(f"column index {j} out of range")
        cols = [self.col(j) for j in idx]
        bias = self.bias_col
        new_bias = idx.index(bias) if bias is not None and bias in idx else None
        return SparseMatrix.from_columns(self.n_rows, cols, bias_col=new_bias)

    def densify_columns(self, indices):
        """Dense n_rows x len(indices) block of the given columns, in order."""
        out = np.zeros((self.n_rows, len(indices)))
        for k, j in enumerate(indices):
            r, v = self.col(int(j))
            out[r, k] = v
        return out

    # -- file format -------------------------------------------------------

    def save(self, path):
        """Write as text: header "n_rows n_cols", then "row col value" lines.

        Entries are emitted column-major so save/load round-trips exactly.
        """
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.n_rows} {self.n_cols}\n")
            for j in range(self.n_cols):
                r, v = self.col(j)
                for i, x in zip(r, v):
                    fh.write(f"{i} {j} {float(x)!r}\n")

    @classmethod
    def load(cls, path, bias_col="last"):
        """Read the text format written by save().

        bias_col: "last" designates the final column as the bias (validated),
        None loads a plain matrix, an int designates an explicit column.

        The body is parsed by one `np.loadtxt` call and checked with array
        operations. If that fails for any reason, the file is parsed again
        one line at a time, which either loads it or raises a ValueError
        that names the first bad line as "path:lineno:". The fast path
        accepts a subset of what the line parser accepts, with the same
        values, so the result never depends on which path ran.
        """
        n_rows, n_cols, rows, cols, vals = \
            _parse_fast(path) or _parse_lines(path)
        if bias_col == "last":
            bias_col = n_cols - 1 if n_cols else None
        return cls.from_triplets(n_rows, n_cols, rows, cols, vals,
                                 bias_col=bias_col)


# One "row col value" line of the matrix file format.
_ENTRY = [("r", np.int64), ("c", np.int64), ("v", np.float64)]


def _parse_fast(path):
    """(n_rows, n_cols, rows, cols, vals) of a valid matrix file, or None."""
    try:
        # ASCII only: numpy's integer parser reads some non-ASCII letters
        # as digits, where int() rejects them
        with open(path, "r", encoding="ascii") as fh:
            n_rows, n_cols = map(int, fh.readline().split())
            with warnings.catch_warnings():  # a header-only body
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                entries = np.loadtxt(fh, dtype=_ENTRY, comments=None,
                                     ndmin=1)
    except ValueError:
        return None
    rows, cols, vals = entries["r"], entries["c"], entries["v"]
    if not (np.all((rows >= 0) & (rows < n_rows) & (cols >= 0)
                   & (cols < n_cols))
            and np.all(np.isfinite(vals)) and np.all(vals != 0.0)):
        return None
    return n_rows, n_cols, rows, cols, vals


def _parse_lines(path):
    """(n_rows, n_cols, rows, cols, vals) of a matrix file read one line at
    a time, or a ValueError that names the first bad line as "path:lineno:".
    """
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        try:
            n_rows, n_cols = map(int, fh.readline().split())
        except ValueError:
            raise ValueError(
                f"{path}:1: expected header 'n_rows n_cols'") from None
        for lineno, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'row col value'")
            try:
                i, j, x = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{lineno}: bad entry ({exc})") from None
            if not 0 <= i < n_rows or not 0 <= j < n_cols:
                raise ValueError(f"{path}:{lineno}: index out of range")
            if x == 0.0 or not np.isfinite(x):
                raise ValueError(f"{path}:{lineno}: value must be finite "
                                 "and non-zero")
            rows.append(i)
            cols.append(j)
            vals.append(x)
    return n_rows, n_cols, rows, cols, vals
