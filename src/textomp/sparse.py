"""Column-major sparse matrix storage and the inner-product kernels.

Every solver's hot loop is "correlate each column with a residual vector",
so the storage is CSC-like: one contiguous (row, value) run per column.
Matrices are immutable after construction and safe to share across threads.

``correlations`` sums each column's products with one ``np.add.reduceat``
over its stored entries, whose result depends only on those products
(reduceat sums a slice pairwise, not strictly left-to-right). ``mat_vec``
sums each row in ascending column order, by ``np.bincount``. So a column
subset (``submatrix``) gives its columns' correlations, and X theta for a
theta that is zero off its columns, with the same bits as the whole
matrix.
"""

from __future__ import annotations

import os
import warnings

import numpy as np


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
        # contiguous: a strided view (a field of the loader's records)
        # would slow every gather and bincount over the entries
        self.rows = np.ascontiguousarray(rows, dtype=np.int64)
        self.vals = np.ascontiguousarray(vals, dtype=np.float64)
        self.bias_col = None if bias_col is None else int(bias_col)
        # the column layout the kernels share; reduceat skips the empty
        # columns, whose start offset would alias the next column's run
        self._counts = np.diff(self.indptr)
        self._nonempty = self._counts > 0
        self._nonempty_starts = self.indptr[:-1][self._nonempty]
        self._all_nonempty = bool(self._nonempty.all())
        self._validate()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_triplets(cls, n_rows, n_cols, rows, cols, vals, bias_col=None):
        """Build from parallel (row, column, value) arrays in any order.

        Entries are ordered by column, then row, by one stable sort on the
        column-major key col * n_rows + row, which is skipped when the
        entries already come in that order (as `save` writes them). A
        repeated (row, column) pair is kept and fails validation.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not rows.shape == cols.shape == vals.shape:
            raise ValueError("row/column/value length mismatch")
        if cols.size and (cols.min() < 0 or cols.max() >= n_cols):
            raise ValueError("column index out of range")
        if int(n_rows) * int(n_cols) >= 2 ** 63:
            raise ValueError("n_rows * n_cols overflows the int64 entry key")
        key = cols * n_rows + rows
        if np.any(key[1:] < key[:-1]):
            order = np.argsort(key, kind="stable")
            rows, vals = rows[order], vals[order]
        del key  # before the constructor's copies allocate
        indptr = np.concatenate(([0], np.cumsum(np.bincount(
            cols, minlength=n_cols))))
        return cls(n_rows, n_cols, indptr, rows, vals, bias_col=bias_col)

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
        if np.any(self._counts < 0):
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

    def correlations(self, v):
        """All column inner products X^T v as a length-n_cols vector."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.n_rows,):
            raise ValueError(f"vector length {v.shape} != ({self.n_rows},)")
        products = v[self.rows]
        products *= self.vals
        return self._column_sums(products)

    def mat_vec(self, theta):
        """Dense product X @ theta, accumulated in ascending column order."""
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (self.n_cols,):
            raise ValueError(f"theta length {theta.shape} != ({self.n_cols},)")
        counts = self._counts
        if 3 * int(counts[theta != 0].sum()) > self.nnz:
            # mostly dense: every entry, no gather
            rows = self.rows
            products = np.repeat(theta, counts)
            products *= self.vals
        else:
            active = np.flatnonzero(theta)
            entries = self._entries(active)
            rows = self.rows[entries]
            products = np.repeat(theta[active], counts[active])
            products *= self.vals[entries]
        # bincount accumulates in entry order = ascending column order; it
        # returns integers when there is no entry
        return np.bincount(rows, weights=products, minlength=self.n_rows
                           ).astype(np.float64, copy=False)

    def _entries(self, cols):
        """Positions of the stored entries of `cols`, column by column."""
        starts = self.indptr[cols]
        counts = self.indptr[cols + 1] - starts
        offsets = np.cumsum(counts) - counts
        return np.arange(counts.sum()) + np.repeat(starts - offsets, counts)

    def _column_sums(self, products):
        """Per-column sums of `products`, one per stored entry."""
        if self._all_nonempty and products.size:
            # no empty column to skip: the mask's scatter would cost about
            # as much again as the reduceat on a block of many short columns
            return np.add.reduceat(products, self._nonempty_starts)
        out = np.zeros(self.n_cols)
        if products.size:
            out[self._nonempty] = np.add.reduceat(products,
                                                  self._nonempty_starts)
        return out

    def col_norms(self):
        """Euclidean norm of every column."""
        return np.sqrt(self._column_sums(self.vals ** 2))

    def col_abs_sums(self):
        """L1 norm of every column."""
        return self._column_sums(np.abs(self.vals))

    def weighted_sq_norms(self, w):
        """sum_i w[i] * X[i, j]**2 for every column j."""
        sq = w[self.rows]
        sq *= self.vals
        sq *= self.vals
        return self._column_sums(sq)

    # -- structural ops ----------------------------------------------------

    def submatrix(self, indices):
        """Columns at the given indices, arranged ascending by original index."""
        idx = np.unique(np.asarray(indices, dtype=np.int64))
        if idx.size and (idx[0] < 0 or idx[-1] >= self.n_cols):
            bad = idx[0] if idx[0] < 0 else idx[-1]
            raise IndexError(f"column index {bad} out of range")
        entries = self._entries(idx)
        bias = None
        if self.bias_col is not None and self.bias_col in idx:
            bias = int(np.searchsorted(idx, self.bias_col))
        return SparseMatrix(self.n_rows, len(idx), np.concatenate(
            ([0], np.cumsum(self._counts[idx]))), self.rows[entries],
            self.vals[entries], bias_col=bias)

    def densify_columns(self, indices):
        """Dense n_rows x len(indices) block of the given columns, in order."""
        cols = np.asarray(indices, dtype=np.int64)
        bad = (cols < 0) | (cols >= self.n_cols)
        if bad.any():
            raise IndexError(f"column index {cols[bad][0]} out of range")
        entries = self._entries(cols)
        out = np.zeros((self.n_rows, len(cols)))
        out[self.rows[entries], np.repeat(np.arange(len(cols)),
                                          self._counts[cols])] = \
            self.vals[entries]
        return out

    # -- file format -------------------------------------------------------

    def save(self, path):
        """Write as text: header "n_rows n_cols", then "row col value" lines.

        Entries are emitted column-major so save/load round-trips exactly;
        a value is written as its repr. Each line is three pieces looked up
        in string tables: one "i " per row, one "j" per column, and, per
        chunk of `_SAVE_CHUNK` entries, one " value\\n" per distinct value.
        A chunk is written by one join, so memory is bounded by the chunk
        and the shape whatever the entry count.
        """
        row_text = _strings(range(self.n_rows), "{} ")
        col_text = _strings(range(self.n_cols), "{}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{self.n_rows} {self.n_cols}\n")
            for s in range(0, self.nnz, _SAVE_CHUNK):
                e = min(s + _SAVE_CHUNK, self.nnz)
                uniq, inv = np.unique(self.vals[s:e], return_inverse=True)
                pieces = np.empty((e - s, 3), dtype=object)
                pieces[:, 0] = row_text[self.rows[s:e]]
                pieces[:, 1] = col_text[np.searchsorted(
                    self.indptr, np.arange(s, e), side="right") - 1]
                pieces[:, 2] = _strings(uniq.tolist(), " {!r}\n")[inv]
                fh.write("".join(pieces.ravel().tolist()))

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
        values, so the result never depends on which path ran. A file that
        parses but does not make a valid matrix, such as one with a repeated
        entry or a bias column not all ones, raises a ValueError that starts
        with "path: ".
        """
        n_rows, n_cols, rows, cols, vals = \
            _parse_fast(path) or _parse_lines(path)
        if bias_col == "last":
            bias_col = n_cols - 1 if n_cols else None
        try:
            return cls.from_triplets(n_rows, n_cols, rows, cols, vals,
                                     bias_col=bias_col)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


# Entries formatted per chunk in SparseMatrix.save.
_SAVE_CHUNK = 2 ** 15


def _strings(items, fmt):
    """Object array of fmt.format(item) for each item."""
    return np.array([fmt.format(x) for x in items], dtype=object)


# One "row col value" line of the matrix file format.
_ENTRY = [("r", np.int64), ("c", np.int64), ("v", np.float64)]


# Suffixes that np.loadtxt, given a path, opens as compressed archives.
_ARCHIVE_SUFFIXES = (".bz2", ".gz", ".lzma", ".xz")


def _loadtxt(path, **kwargs):
    """np.loadtxt(path, comments=None, **kwargs), or None if it fails.

    Given a path, numpy reads the file in chunks; given an open file, it
    iterates over the lines in Python, which takes about 1.6 times as long.
    A path with an archive suffix gets None, as numpy would decompress it.
    """
    if os.path.splitext(path)[1] in _ARCHIVE_SUFFIXES:
        return None
    try:
        with warnings.catch_warnings():  # a body with no data line
            warnings.filterwarnings(
                "ignore", "loadtxt: input contained no data", UserWarning)
            return np.loadtxt(path, comments=None, **kwargs)
    except ValueError:  # UnicodeDecodeError included
        return None


def _text_lines(path):
    """(lineno, line) for each line of a UTF-8 text file, counted from 1,
    with its "\\n" stripped; universal newlines apply. A line whose bytes
    are not UTF-8 raises a ValueError that names it as "path:lineno:" (a
    strict decode fails on the whole chunk it reads, naming no line).
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            # a bad byte decodes to a lone surrogate, which cannot encode
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(
                        f"{path}:{lineno}: not valid UTF-8") from None
            yield lineno, line.rstrip("\n")


def _parse_fast(path):
    """(n_rows, n_cols, rows, cols, vals) of a valid matrix file, or None."""
    # ASCII only: numpy's integer parser reads some non-ASCII letters as
    # digits, where int() rejects them
    try:
        with open(path, "r", encoding="ascii") as fh:
            n_rows, n_cols = map(int, fh.readline().split())
    except ValueError:
        return None
    if min(n_rows, n_cols) < 0:
        return None
    entries = _loadtxt(path, dtype=_ENTRY, ndmin=1, skiprows=1,
                       encoding="ascii")
    if entries is None:
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
    lines = _text_lines(path)
    _, header = next(lines, (1, ""))
    try:
        n_rows, n_cols = map(int, header.split())
        if min(n_rows, n_cols) < 0:
            raise ValueError
    except ValueError:
        raise ValueError(
            f"{path}:1: expected header 'n_rows n_cols'") from None
    for lineno, line in lines:
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
