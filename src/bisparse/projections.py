"""Exact, tail and head projections for bisparse and jointly low-rank structure.

The target sets are symmetric matrices supported on an s x s principal
submatrix ("bisparse"), possibly intersected with a rank bound.  The exact
projection enumerates supports and is exponential in s, so it is guarded by a
cap; the tail and head operators are the polynomial-time surrogates, each with
a known approximation constant relative to the exact optimum:

  exact_project        exact, enumeration (desk scale only)
  tail_bisparse        near-best bisparse restriction, factor sqrt(2)
  tail_joint           near-best joint projection, factor 1 + 2*sqrt(2)
  head_square          support head with constant 1, support grows to s^2
  head_rowcol          support head into 2s indices, constant sqrt(s/n)
  head_anchor          support head staying at s indices, constant 1/sqrt(s)
  head_psd_lowrank     head for PSD rank-r inputs into r*s indices, 1/sqrt(r)
  head_joint           rank-truncated head_anchor, constant sqrt(r)/s
  head_square_variant  rank-truncated head_square (used inside head-tail IHT)
  head_shrink          averaging shrink of a given support to s indices
  project_hierarchical best (s-column, t-per-column)-sparse approximation

All argmax/argmin ties break toward the lexicographically smallest index set,
which keeps every operator deterministic.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .symcore import _restrict, _sign_canonical, _top_eigen, check_support, check_sym, project_rank

__all__ = [
    "ProjectionOutcome",
    "ShrinkOutcome",
    "EnumerationCapError",
    "ENUMERATION_CAP",
    "exact_project",
    "tail_bisparse",
    "tail_joint",
    "head_square",
    "head_rowcol",
    "head_anchor",
    "head_psd_lowrank",
    "head_joint",
    "head_square_variant",
    "head_shrink",
    "hierarchical_mask",
    "project_hierarchical",
]

# supports an enumeration (exact_project, iht_exact, brute_force_decode) may visit
ENUMERATION_CAP = 2_000_000
# the least k with C(2k, k) > ENUMERATION_CAP (12); C(n, s) >= C(2k, k) once min(s, n - s) >= k
_ENUMERATION_K = next(k for k in itertools.count() if math.comb(2 * k, k) > ENUMERATION_CAP)

# PSD check: min eigenvalue may dip this far below zero (times ||M||_F)
PSD_TOL = 1e-8
# eigenvalues below this fraction of the largest magnitude count as rank zero
RANK_TOL = 1e-10


class EnumerationCapError(ValueError):
    """Raised when exact support enumeration would exceed the configured cap."""


def _check_enumeration(n: int, s: int) -> None:
    """The one cap check: refuse enumerating the C(n, s) supports above ENUMERATION_CAP.

    Refuses at once when min(s, n - s) >= _ENUMERATION_K, before math.comb, which takes
    seconds for n in the millions.
    """
    if min(s, n - s) >= _ENUMERATION_K or math.comb(n, s) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"support enumeration over C({n},{s}) exceeds the cap {ENUMERATION_CAP}; "
            "use tail_joint (iht_head_tail in recovery) for polynomial time")


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of a projection: the matrix, its support, and the kept norm.

    `objective` is the Frobenius norm of `matrix`; for every operator here the
    output is of the form P^[rank](M restricted to support), so maximizing the
    kept norm is the same as minimizing the residual.  `rank_used` is an upper
    bound on the rank of `matrix` (the truncation rank, or the support size
    when no truncation was applied).
    """

    matrix: np.ndarray
    support: np.ndarray
    rank_used: int
    objective: float


@dataclass(frozen=True)
class ShrinkOutcome(ProjectionOutcome):
    """head_shrink result; also records the row and column halves of the support."""

    rows: np.ndarray = None
    cols: np.ndarray = None


def _select(mags: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries in each row of `mags`, largest first.

    The one sort behind every support selection in this module: a stable sort
    of -mags, so of equal magnitudes the lower index wins.  A 1-D array is a
    single row.
    """
    return (-mags).argsort(axis=-1, kind="stable")[..., :k]


def _kept_energy(mags: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Score of each row of `mags`: the sum of squares of its entries at `idx`."""
    return (mags[np.arange(len(mags))[:, None], idx] ** 2).sum(axis=1)


def _support(n: int, *parts) -> np.ndarray:
    """Sorted union of index arrays (of any shapes) in range(n), via a membership mask."""
    members = np.zeros(n, dtype=bool)
    members[np.concatenate(parts, axis=None)] = True
    return members.nonzero()[0]


def _partners(absm: np.ndarray, k: int):
    """Partner rule of the square and anchor heads, on the rows of an n x n |M|.

    Each row's partners are its k < n largest off-diagonal magnitudes; its
    score is their energy plus the squared diagonal.  Overwrites the diagonal
    of `absm` (with -inf, so it ranks last).
    """
    diag_sq = absm.diagonal() ** 2
    absm.flat[::len(absm) + 1] = -np.inf
    partners = _select(absm, k)
    return partners, diag_sq + _kept_energy(absm, partners)


def _check_sparsity(s: int, n: int) -> None:
    if not 1 <= s <= n:
        raise ValueError(f"sparsity must satisfy 1 <= s <= {n}, got {s}")


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise ValueError(f"rank bound must satisfy 1 <= r <= {n}, got {r}")


def _outcome(mat: np.ndarray, support: np.ndarray, rank_used: int) -> ProjectionOutcome:
    return ProjectionOutcome(mat, support, rank_used, float(np.linalg.norm(mat)))


def rank_project_on_support(mat: np.ndarray, support: np.ndarray, rank: int) -> np.ndarray:
    """project_rank followed by re-restriction to the support.

    The eigensolver can leave O(1e-17) dirt outside the block of an exactly
    restricted matrix; zeroing it keeps outputs exactly structured.
    """
    out = project_rank(mat, rank)
    return _restrict(out, check_support(support, out.shape[0]))


def _truncate(m: np.ndarray, s: int, r: int, pick) -> np.ndarray:
    """Unchecked _rank_truncated matrix, for M as check_sym returns it and 1 <= s, r <= n.

    `_project_rank_vectors` of M restricted to the support, from the block alone: eigh
    sees the same sign-canonical n x n input, but only the block of the product is
    symmetrized and signed (a zero block gives +0.0 everywhere, as there).
    """
    support = pick(m, s)
    flat = (support[:, None] * len(m) + support).ravel()    # the block's entries, row-major
    sign, block = _sign_canonical(m.take(flat))
    out = np.zeros_like(m)
    if sign:
        out.put(flat, block)
        vals, vecs = _top_eigen(out, r)
        block = ((vecs * vals) @ vecs.T).take(flat).reshape(len(support), -1)
        out.put(flat, (block + block.T) / 2.0 * sign)
    return out


def _rank_truncated(mat, s: int, r: int, pick) -> ProjectionOutcome:
    """M restricted to pick(M, s), truncated to rank r; M faults first, then r, then s."""
    _check_rank(r, check_sym(mat).shape[0])
    base = _projection(mat, s, pick)
    return _outcome(rank_project_on_support(base.matrix, base.support, r), base.support, r)


def _projection(mat, s: int, pick) -> ProjectionOutcome:
    """Validated restriction of M to the support pick(M, s)."""
    m = check_sym(mat)
    _check_sparsity(s, m.shape[0])
    support = pick(m, s)
    return _outcome(_restrict(m, support), support, support.size)


def exact_project(mat, s: int, r: int) -> ProjectionOutcome:
    """Exact projection onto rank <= r matrices supported on some s x s block.

    Enumerates every size-s support, keeps the one whose rank-r restriction
    has the largest Frobenius norm, and returns that restriction.  Refuses
    when the number of supports exceeds ENUMERATION_CAP.
    """
    m = check_sym(mat)
    n = m.shape[0]
    _check_sparsity(s, n)
    if not 1 <= r <= s:
        raise ValueError(f"rank bound must satisfy 1 <= r <= s={s}, got {r}")
    _check_enumeration(n, s)
    best_obj, best_support = -1.0, None
    for cand in itertools.combinations(range(n), s):
        block = m[np.ix_(cand, cand)]
        vals = np.linalg.eigvalsh(block)
        kept = np.sort(vals * vals)[::-1][:r]
        obj = float(np.sum(kept))
        if obj > best_obj:
            best_obj, best_support = obj, cand
    support = np.array(best_support, dtype=int)
    out = rank_project_on_support(_restrict(m, support), support, r)
    return _outcome(out, support, r)


def tail_bisparse(mat, s: int) -> ProjectionOutcome:
    """Restriction to the s columns of largest l2 norm.

    The residual is within a factor sqrt(2) of the best possible over all
    size-s supports.
    """
    return _projection(mat, s, _tail_support)


def _tail_support(m: np.ndarray, s: int) -> np.ndarray:
    return np.sort(_select(np.sqrt((m * m).sum(axis=0)), s))    # np.linalg.norm(m, axis=0)


def tail_joint(mat, s: int, r: int) -> ProjectionOutcome:
    """Near-best joint projection: bisparse tail followed by rank truncation.

    Composing the sqrt(2)-tail with the exact rank projection gives a tail
    operator for the joint structure with constant 1 + 2*sqrt(2).
    """
    return _rank_truncated(mat, s, r, _tail_support)


def head_square(mat, s: int) -> ProjectionOutcome:
    """Support head with constant 1, output supported on at most s^2 indices.

    For each row i, pick the s-1 largest off-diagonal magnitudes as partners
    and score the row by the l2 norm of those entries plus the diagonal; keep
    the s best rows together with their partners.  The restriction to the
    resulting index set carries at least as much energy as any s x s block.
    """
    return _projection(mat, s, _square_support)


def _square_support(m: np.ndarray, s: int) -> np.ndarray:
    partners, scores = _partners(np.abs(m), s - 1)
    anchors = _select(scores, s)
    return _support(m.shape[0], anchors, partners[anchors])


def head_rowcol(mat, s: int) -> ProjectionOutcome:
    """Support head from the s heaviest rows and then the s heaviest columns.

    The union has at most 2s indices and retains at least an s/n fraction of
    the energy of the best s x s block.
    """
    return _projection(mat, s, _rowcol_support)


def _rowcol_support(m: np.ndarray, s: int) -> np.ndarray:
    rows = np.sort(_select(np.linalg.norm(m, axis=1), s))
    cols = _select(np.linalg.norm(m[rows, :], axis=0), s)
    return _support(m.shape[0], rows, cols)


def head_anchor(mat, s: int) -> ProjectionOutcome:
    """Support head staying at s indices, constant 1/sqrt(s).

    For each anchor column j, pair j with the s-1 rows of largest magnitude in
    that column; keep the anchor whose column segment has the largest norm
    (the first such anchor on ties).
    """
    return _projection(mat, s, _anchor_support)


def _anchor_support(m: np.ndarray, s: int) -> np.ndarray:
    # the partner rule on columns: row j of |M|^T is column j of |M|
    partners, scores = _partners(np.abs(m).T, s - 1)
    best = np.argmax(scores)  # the first of equally good anchors
    return _support(m.shape[0], partners[best], best)


def head_psd_lowrank(mat, s: int, rank_override: int | None = None) -> ProjectionOutcome:
    """Head for positive semidefinite low-rank inputs, constant 1/sqrt(rank).

    Factors M into a sum of rank-one terms via its eigendecomposition, keeps
    the s largest-magnitude entries of each factor, and restricts M to the
    union (at most rank * s indices).  Significantly indefinite inputs are
    rejected; the rank is inferred from the spectrum unless overridden.
    """
    m = check_sym(mat)
    n = m.shape[0]
    _check_sparsity(s, n)
    fro = float(np.linalg.norm(m))
    vals, vecs = np.linalg.eigh(m)
    if vals.size and float(vals.min()) < -PSD_TOL * fro:
        raise ValueError(
            f"matrix is significantly indefinite (min eigenvalue {vals.min():.3e}); "
            "this head applies to positive semidefinite inputs"
        )
    order = np.argsort(-vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    if rank_override is not None:
        if rank_override < 0:
            raise ValueError("rank override must be nonnegative")
        r = min(rank_override, n)
    else:
        top = abs(vals[0]) if vals.size else 0.0
        r = int(np.sum(vals > RANK_TOL * top)) if top > 0 else 0
    support = _support(n, _select(np.abs(vecs[:, :r].T), s))
    out = _restrict(m, support)
    return _outcome(out, support, support.size)


def head_joint(mat, s: int, r: int) -> ProjectionOutcome:
    """Head for the joint structure: rank-truncated head_anchor, constant sqrt(r)/s."""
    if r > s:
        raise ValueError(f"rank bound must not exceed sparsity, got r={r} > s={s}")
    return _rank_truncated(mat, s, r, _anchor_support)


def head_square_variant(mat, s: int, r: int) -> ProjectionOutcome:
    """Rank-truncated head_square: the head operator used inside head-tail IHT.

    Maps into matrices of rank <= r supported on at most s^2 indices; keeps at
    least an r/s^2 fraction (in squared norm) of the best rank-r s x s block.
    """
    return _rank_truncated(mat, s, r, _square_support)


def head_shrink(mat, sprime, s: int) -> ShrinkOutcome:
    """Shrink a given support to s indices by row/column averaging.

    Keeps the s/2 rows of the given support with the largest norms inside it,
    then the s/2 columns with the largest norms across those rows.  With
    C = |support|/s, the kept rows-by-columns block retains at least a
    1/(4 C^2) fraction of the squared energy of the original block.
    """
    m = check_sym(mat)
    n = m.shape[0]
    sp = check_support(sprime, n)
    if s % 2 != 0:
        raise ValueError(f"sparsity must be even, got {s}")
    if s < 2:
        raise ValueError(f"sparsity must be at least 2, got {s}")
    if sp.size < s:
        raise ValueError(f"given support has {sp.size} indices, need at least s={s}")
    half = s // 2
    row_scores = np.linalg.norm(m[np.ix_(sp, sp)], axis=1)
    rows = sp[np.sort(_select(row_scores, half))]
    col_scores = np.linalg.norm(m[np.ix_(rows, sp)], axis=0)
    cols = sp[np.sort(_select(col_scores, half))]
    support = _support(n, rows, cols)
    out = _restrict(m, support)
    return ShrinkOutcome(
        out, support, support.size, float(np.linalg.norm(out)), rows=rows, cols=cols
    )


def hierarchical_mask(mat, s: int, t: int) -> np.ndarray:
    """Boolean mask of the best (s-column, t-per-column)-sparse support.

    Works on arbitrary rectangular matrices: keep the t largest magnitudes in
    each column, score columns by the kept energy, keep the s best columns.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    n_rows, n_cols = m.shape
    if not 1 <= t <= n_rows:
        raise ValueError(f"per-column sparsity must satisfy 1 <= t <= {n_rows}, got {t}")
    if not 1 <= s <= n_cols:
        raise ValueError(f"column sparsity must satisfy 1 <= s <= {n_cols}, got {s}")
    lines = np.abs(m).T  # row j is column j of |M|
    rows = _select(lines, t)
    cols = _select(_kept_energy(lines, rows), s)
    mask = np.zeros(m.shape, dtype=bool)
    mask[rows[cols], cols[:, None]] = True
    return mask


def project_hierarchical(mat, s: int, t: int) -> np.ndarray:
    """Best Frobenius approximation with s nonzero columns of t entries each."""
    m = np.asarray(mat, dtype=float)
    mask = hierarchical_mask(m, s, t)
    return np.where(mask, m, 0.0)
