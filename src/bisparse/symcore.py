"""Symmetric-matrix primitives.

All matrices are dense float64 numpy arrays.  A "symmetric matrix" here is an
n-by-n array that equals its transpose; `read_matrix` produces one exactly,
every other entry point asserts symmetry up to a small tolerance.  A "support"
is a strictly increasing array of 0-based indices; restricting a matrix to a
support S zeroes every entry outside S x S.

Everything in this module is pure and treats its inputs as immutable, so the
functions are safe to call concurrently.
"""

from __future__ import annotations

import warnings

import numpy as np

__all__ = [
    "check_sym",
    "check_support",
    "project_rank",
    "read_matrix",
    "write_matrix",
]

# asymmetry allowed on inputs that claim to be symmetric (relative to max entry)
SYM_ATOL = 1e-12
# asymmetry above which the text reader warns before symmetrizing
READ_WARN_ATOL = 1e-9


def _square_finite(mat) -> np.ndarray:
    """`mat` as float64, validated to be a nonempty, finite square matrix."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        raise ValueError("matrix must be nonempty")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def check_sym(mat) -> np.ndarray:
    """Validate that `mat` is square, finite and symmetric; return it as float64."""
    m = _square_finite(mat)
    scale = max(1.0, float(np.max(np.abs(m))))
    asym = float(np.max(np.abs(m - m.T)))
    if asym > SYM_ATOL * scale:
        raise ValueError(f"matrix is not symmetric (max asymmetry {asym:.3e})")
    return m


def check_support(indices, n: int) -> np.ndarray:
    """Validate a support set for an n-dim matrix: unique indices in [0, n).

    Accepts any 1-D integer collection and returns it sorted ascending.
    """
    s = np.asarray(indices, dtype=int)
    if s.ndim != 1:
        raise ValueError("support must be one-dimensional")
    if s.size:
        if s.min() < 0 or s.max() >= n:
            raise ValueError(f"support index out of range [0, {n})")
        s = np.sort(s)
        if np.any(np.diff(s) == 0):
            raise ValueError("support contains duplicate indices")
    return s


def _check_sparsity(s: int, n: int) -> None:
    if not 1 <= s <= n:
        raise ValueError(f"sparsity must satisfy 1 <= s <= {n}, got {s}")


def _check_structure_params(n: int, s: int, r: int) -> None:
    _check_sparsity(s, n)
    if not 1 <= r <= s:
        raise ValueError(f"rank must satisfy 1 <= r <= s={s}, got {r}")


def _restrict(m: np.ndarray, support: np.ndarray, kernel=None) -> np.ndarray:
    """A validated matrix's k x k block on a sorted in-range support, or kernel(block), written
    into zeros: every entry outside support x support is zero, and a kernel sees only the block."""
    flat = (support[:, None] * len(m) + support).ravel()    # the block's entries, row-major
    block = m.take(flat).reshape(len(support), len(support))
    out = np.zeros_like(m)
    out.put(flat, block if kernel is None else kernel(block))
    return out


def _top_eigen(m: np.ndarray, k: int):
    """The k eigenpairs of largest magnitude of a validated symmetric matrix, largest first.

    Ties keep eigh's ascending order; each kept vector's first nonzero component is made
    positive.
    """
    vals, vecs = np.linalg.eigh(m)
    order = (-np.abs(vals)).argsort(kind="stable")[:k]
    vals, vecs = vals[order], vecs[:, order]
    # flip every column whose first nonzero component is negative
    vecs *= np.sign(vecs[(vecs != 0).argmax(axis=0), np.arange(k)])
    return vals, vecs


def project_rank(mat, rank: int) -> np.ndarray:
    """Best Frobenius approximation of a symmetric matrix by rank <= `rank`.

    Keeps the `rank` eigenpairs of largest magnitude.  The result is exactly
    symmetric and supported inside the bisupport of the input.
    """
    m = check_sym(mat)
    if rank < 0:
        raise ValueError("rank bound must be nonnegative")
    if rank == 0:
        return np.zeros_like(m)
    return _project_rank_vectors(m, min(rank, m.shape[0]))[0]


def _sign_canonical(m: np.ndarray):
    """(sign, M * sign + 0.0) for sign that of M's first nonzero entry in row-major order, or 0.

    The rank kernels run on it, so project_rank(-M) == -project_rank(M) bitwise as the solvers'
    odd iteration maps need; + 0.0 clears the sign bit of zeros, which LAPACK would see.
    """
    flat = m.ravel()
    sign = np.sign(flat[(flat != 0).argmax()])
    return sign, m * sign + 0.0


def _project_rank_vectors(m: np.ndarray, r: int):
    """Rank-project a validated symmetric n x n matrix, 1 <= r <= n.

    Returns `project_rank` of the matrix and its kept eigenvectors, an n x r
    array.  The vectors span the column space of a nonzero projection and are the
    same bits for M and -M (they come from the sign-canonical input).
    """
    sign, canon = _sign_canonical(m)
    vals, vecs = _top_eigen(canon, r)
    out = (vecs * vals) @ vecs.T
    out = (out + out.T) / 2.0 * sign if sign else np.zeros_like(out)    # a zero M gives +0.0
    return out, vecs


def read_matrix(lines) -> np.ndarray:
    """Read the matrix text format: a line with n, then n rows of n numbers.

    The matrix is symmetrized on the way in; if the raw asymmetry exceeds
    1e-9 a warning is emitted.  Entries must be finite and at most half the
    float64 maximum, so M - M^T and M + M^T cannot overflow.  Errors name the
    offending 1-based line number.
    """
    it = iter(lines)

    def next_line(lineno):
        try:
            return next(it)
        except StopIteration:
            raise ValueError(f"line {lineno}: unexpected end of matrix input") from None

    header = next_line(1).split()
    if len(header) != 1:
        raise ValueError(f"line 1: expected a single dimension, got {len(header)} tokens")
    try:
        n = int(header[0])
    except ValueError:
        raise ValueError(f"line 1: dimension is not an integer: {header[0]!r}") from None
    if n < 1:
        raise ValueError(f"line 1: dimension must be positive, got {n}")
    rows = []    # the array is built from the rows read, never sized from the header alone
    for lineno in range(2, n + 2):
        parts = next_line(lineno).split()
        if len(parts) != n:
            raise ValueError(f"line {lineno}: expected {n} values, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    rows = np.array(rows)
    if not np.all(np.abs(rows) <= np.finfo(float).max / 2):    # also false for nan
        raise ValueError("matrix entries must be finite and at most half the float64 maximum")
    asym = float(np.max(np.abs(rows - rows.T)))
    if asym > READ_WARN_ATOL:
        warnings.warn(f"input matrix asymmetry {asym:.3e} exceeds {READ_WARN_ATOL}; symmetrizing")
    return (rows + rows.T) / 2.0


def write_matrix(mat, stream) -> None:
    """Write a matrix in the text format read by `read_matrix`."""
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    stream.write(f"{m.shape[0]}\n")
    for row in m:
        stream.write(" ".join(format(v, ".17g") for v in row) + "\n")
