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

from .symcore import (_check_sparsity, _check_structure_params, _project_rank_vectors, _restrict,
                      check_support, check_sym, project_rank)

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
    kept norm is the same as minimizing the residual.
    """

    matrix: np.ndarray
    support: np.ndarray

    @property
    def objective(self) -> float:
        return float(np.linalg.norm(self.matrix))


@dataclass(frozen=True)
class ShrinkOutcome(ProjectionOutcome):
    """head_shrink result; also records the row and column halves of the support."""

    rows: np.ndarray
    cols: np.ndarray


def _select(mags: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k largest entries in each row of `mags`, largest first.

    The one tie rule of every support selection in this module: a stable sort
    of -mags, so of equal magnitudes the lower index wins.  A 1-D array is a
    single row.  The pickers sort only the lines that win: a line's score
    needs its top-k values alone, which `_top_energy` finds by partition.
    """
    return (-mags).argsort(axis=-1, kind="stable")[..., :k]


def _top_energy(lines: np.ndarray, k: int) -> np.ndarray:
    """Score of each row of `lines`: the sum of squares of its k largest entries, largest first.

    np.partition finds the k values without ordering the row.  Sorted in descending order they
    are the values at `_select(lines, k)`, as entries that tie are equal, so the C-order sum
    has the bits of gathering the entries at those indices.
    """
    top = np.negative(lines, order="C")
    top.partition(k - 1, axis=1)    # k = 0 partitions at -1, the last column, and keeps none
    return (np.sort(top[:, :k], axis=1) ** 2).sum(axis=1)


def _rescaled_on_overflow(pick):
    """`pick(m, ...)`, rerun on M scaled by a power of two if squaring its magnitudes overflows.

    Above about 1e154 a squared magnitude is inf, and inf scores tie.  Scaling by 2^e is exact
    short of underflow, so the scores keep their order and the picks are M's.  The largest
    magnitude scaled below 2^500 lets up to 2^23 squares sum below the float64 maximum.
    Inputs whose squares stay finite run once and keep their bits.
    """
    def picked(m, *args):
        try:
            with np.errstate(over="raise"):
                return pick(m, *args)
        except FloatingPointError:
            return pick(np.ldexp(m, 500 - np.frexp(np.abs(m).max())[1]), *args)
    return picked


def _support(n: int, *parts) -> np.ndarray:
    """Sorted union of index arrays (of any shapes) in range(n), via a membership mask."""
    members = np.zeros(n, dtype=bool)
    members[np.concatenate(parts, axis=None)] = True
    return members.nonzero()[0]


def _partner_scores(absm: np.ndarray, k: int) -> np.ndarray:
    """Row scores of the square and anchor heads' partner rule, on the rows of an n x n |M|.

    Each row's partners are its k < n largest off-diagonal magnitudes; its
    score is their energy plus the squared diagonal.  Overwrites the diagonal
    of `absm` with -inf, so it ranks last, and `_select` of a winning row of
    `absm` then gives that row's partners.
    """
    diag_sq = absm.diagonal() ** 2
    absm.flat[::len(absm) + 1] = -np.inf
    return diag_sq + _top_energy(absm, k)


def _check_rank(r: int, n: int) -> None:
    if not 1 <= r <= n:
        raise ValueError(f"rank bound must satisfy 1 <= r <= {n}, got {r}")


def _truncate(m: np.ndarray, support: np.ndarray, r: int) -> np.ndarray:
    """M on a sorted support truncated to rank r >= 1, unchecked (M from check_sym); exactly odd."""
    return _restrict(m, support, lambda block: _project_rank_vectors(block, min(r, len(block)))[0])


def _projection(mat, s: int, pick, r: int | None = None) -> ProjectionOutcome:
    """Validated restriction of M to the support pick(M, s), truncated to rank r if given.

    M faults first, then r, then s.  The truncation is `project_rank` of the support block
    (a public call, which perfbench's per-layer counts see), the bits of the solvers' `_truncate`.
    """
    m = check_sym(mat)
    if r is not None:
        _check_rank(r, m.shape[0])
    _check_sparsity(s, m.shape[0])
    support = pick(m, s)
    kernel = None if r is None else lambda block: project_rank(block, r)
    return ProjectionOutcome(_restrict(m, support, kernel), support)


def exact_project(mat, s: int, r: int) -> ProjectionOutcome:
    """Exact projection onto rank <= r matrices supported on some s x s block.

    Enumerates every size-s support, keeps the one whose rank-r restriction
    has the largest Frobenius norm, and returns that restriction.  Refuses
    when the number of supports exceeds ENUMERATION_CAP.
    """
    m = check_sym(mat)
    n = m.shape[0]
    _check_structure_params(n, s, r)
    _check_enumeration(n, s)
    support = _exact_support(m, s, r)
    return ProjectionOutcome(_truncate(m, support, r), support)


@_rescaled_on_overflow
def _exact_support(m: np.ndarray, s: int, r: int) -> np.ndarray:
    best_obj, best_support = -1.0, None
    for cand in itertools.combinations(range(m.shape[0]), s):
        vals = np.linalg.eigvalsh(m[np.ix_(cand, cand)])
        obj = float(np.sum(np.sort(vals * vals)[::-1][:r]))
        if obj > best_obj:
            best_obj, best_support = obj, cand
    return np.array(best_support, dtype=int)


def tail_bisparse(mat, s: int) -> ProjectionOutcome:
    """Restriction to the s columns of largest l2 norm.

    The residual is within a factor sqrt(2) of the best possible over all
    size-s supports.
    """
    return _projection(mat, s, _tail_support)


@_rescaled_on_overflow
def _tail_support(m: np.ndarray, s: int) -> np.ndarray:
    return np.sort(_select(np.sqrt((m * m).sum(axis=0)), s))    # np.linalg.norm(m, axis=0)


def tail_joint(mat, s: int, r: int) -> ProjectionOutcome:
    """Near-best joint projection: bisparse tail followed by rank truncation.

    Composing the sqrt(2)-tail with the exact rank projection gives a tail
    operator for the joint structure with constant 1 + 2*sqrt(2).
    """
    return _projection(mat, s, _tail_support, r)


def head_square(mat, s: int) -> ProjectionOutcome:
    """Support head with constant 1, output supported on at most s^2 indices.

    For each row i, pick the s-1 largest off-diagonal magnitudes as partners
    and score the row by the l2 norm of those entries plus the diagonal; keep
    the s best rows together with their partners.  The restriction to the
    resulting index set carries at least as much energy as any s x s block.
    """
    return _projection(mat, s, _square_support)


@_rescaled_on_overflow
def _square_support(m: np.ndarray, s: int) -> np.ndarray:
    absm = np.abs(m)
    anchors = _select(_partner_scores(absm, s - 1), s)
    return _support(m.shape[0], anchors, _select(absm[anchors], s - 1))


def head_rowcol(mat, s: int) -> ProjectionOutcome:
    """Support head from the s heaviest rows and then the s heaviest columns.

    The union has at most 2s indices and retains at least an s/n fraction of
    the energy of the best s x s block.
    """
    return _projection(mat, s, _rowcol_support)


@_rescaled_on_overflow
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


@_rescaled_on_overflow
def _anchor_support(m: np.ndarray, s: int) -> np.ndarray:
    absm = np.abs(m).T    # the partner rule on columns: row j of |M|^T is column j of |M|
    best = np.argmax(_partner_scores(absm, s - 1))  # the first of equally good anchors
    return _support(m.shape[0], _select(absm[best], s - 1), best)


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
    top = float(np.abs(m).max())
    fro = top * float(np.linalg.norm(m / top)) if top > 0 else 0.0    # no overflow above 1e154
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
    return ProjectionOutcome(_restrict(m, support), support)


def head_joint(mat, s: int, r: int) -> ProjectionOutcome:
    """Head for the joint structure: rank-truncated head_anchor, constant sqrt(r)/s."""
    def pick(m, s):    # after M's, r's and s's checks
        _check_structure_params(len(m), s, r)
        return _anchor_support(m, s)

    return _projection(mat, s, pick, r)


def head_square_variant(mat, s: int, r: int) -> ProjectionOutcome:
    """Rank-truncated head_square: the head operator used inside head-tail IHT.

    Maps into matrices of rank <= r supported on at most s^2 indices; keeps at
    least an r/s^2 fraction (in squared norm) of the best rank-r s x s block.
    """
    return _projection(mat, s, _square_support, r)


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
    rows, cols = _shrink_halves(m, sp, s // 2)
    support = _support(n, rows, cols)
    return ShrinkOutcome(_restrict(m, support), support, rows, cols)


@_rescaled_on_overflow
def _shrink_halves(m: np.ndarray, sp: np.ndarray, half: int):
    """head_shrink's picks in a support: its `half` heaviest rows there, then columns."""
    rows = sp[np.sort(_select(np.linalg.norm(m[np.ix_(sp, sp)], axis=1), half))]
    return rows, sp[np.sort(_select(np.linalg.norm(m[np.ix_(rows, sp)], axis=0), half))]


def hierarchical_mask(mat, s: int, t: int) -> np.ndarray:
    """Boolean mask of the best (s-column, t-per-column)-sparse support.

    Works on arbitrary rectangular matrices: keep the t largest magnitudes in
    each column, score columns by the kept energy, keep the s best columns.
    """
    m = np.asarray(mat, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    n_rows, n_cols = m.shape
    if not 1 <= t <= n_rows:
        raise ValueError(f"per-column sparsity must satisfy 1 <= t <= {n_rows}, got {t}")
    if not 1 <= s <= n_cols:
        raise ValueError(f"column sparsity must satisfy 1 <= s <= {n_cols}, got {s}")
    return _hierarchical_pick(m, s, t)


@_rescaled_on_overflow
def _hierarchical_pick(m: np.ndarray, s: int, t: int) -> np.ndarray:
    lines = np.abs(m).T  # row j is column j of |M|
    cols = _select(_top_energy(lines, t), s)
    mask = np.zeros(m.shape, dtype=bool)
    mask[_select(lines[cols], t), cols[:, None]] = True
    return mask


def project_hierarchical(mat, s: int, t: int) -> np.ndarray:
    """Best Frobenius approximation with s nonzero columns of t entries each."""
    m = np.asarray(mat, dtype=float)
    mask = hierarchical_mask(m, s, t)
    return np.where(mask, m, 0.0)
