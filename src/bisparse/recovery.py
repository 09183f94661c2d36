"""Recovery solvers for jointly low-rank and bisparse symmetric matrices.

Five hard-thresholding iterations plus an exhaustive decoder.  The iterations
all run in one loop, `_iterate`, from the zero matrix and with the same
stopping rules (relative residual, stall between iterates, iteration cap, and
a divergence guard):

  iht_exact            hard thresholding with the exact (enumerating) joint
                       projection; desk scale only
  iht_head_tail        hard thresholding with the polynomial square head at
                       doubled parameters followed by a tail projection
  iht_rank_one         the head-tail iteration adapted to rank-one
                       measurements: sign of the residual in the gradient and
                       an l1-residual step size
  iht_lowrank          rank-only hard thresholding on p x p matrices (stage
                       one of the factorized pipeline); Gauss-Newton steps
                       on the rank-r manifold from a spectral start
  hihtp                hard thresholding pursuit with the hierarchical
                       (s, t)-sparse projection against the map Z -> B Z B^T
  two_step_factorized  iht_lowrank then hihtp for factorized measurements
  brute_force_decode   per-support least squares (or least absolute
                       deviations) over all size-s supports

`solve` runs the solver named by one of ALGOS; the bench and the CLI both
dispatch through it.  Every solver refuses at its door a y that is not m finite
measurements (hihtp: a finite basis and target whose products B^T B and
B^T Yhat B stay finite), the iterations also one whose norm overflows, and the
enumerating solvers share one cap check.

`converged` on a result means the iteration settled (residual or stall rule
fired, but not a stall at the zero matrix); whether the estimate equals the
ground truth is a separate question answered by the benchmark harness.  The
two-step pipeline also requires its estimate to fit y: both stages settled and
||y - A(X)|| <= sqrt(tol_residual) ||y||, since HiHTP settles on a best sparse
fit whether or not it fits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .measurements import (
    MeasurementMap,
    _check_entries,
    _check_structure_params,
    _measurements,
    estimate_rip,
    factorized_inner_map,
)
from .projections import (
    ProjectionOutcome,
    _check_enumeration,
    _check_rank,
    _square_support,
    _tail_support,
    _truncate,
    exact_project,
    head_square_variant,
    hierarchical_mask,
    tail_joint,
)
from .symcore import _project_rank_vectors, _square_finite

__all__ = [
    "ALGOS",
    "RecoveryConfig",
    "RecoveryResult",
    "iht_exact",
    "iht_head_tail",
    "iht_rank_one",
    "iht_lowrank",
    "hihtp",
    "two_step_factorized",
    "brute_force_decode",
    "solve",
]

# algorithm names used by the bench and the CLI -> names of their solvers in this module
_SOLVERS = {"exact-iht": "iht_exact", "head-tail": "iht_head_tail", "rank-one": "iht_rank_one",
            "two-step": "two_step_factorized", "brute": "brute_force_decode"}
ALGOS = tuple(_SOLVERS)

# residual must exceed 10x the initial residual this many consecutive
# iterations before a run is abandoned as diverging
DIVERGENCE_FACTOR = 10.0
DIVERGENCE_PATIENCE = 20
# an iterate that moves by at most this fraction of the previous one has stalled
TOL_STALL = 1e-12

# probes of the estimate_rip call that derives iht_rank_one's l1 step normalizer
BETA_TRIALS = 200
BETA_SEED = 0

# brute_force_decode's rank polish and least-absolute-deviations fit stop after this many rounds
POLISH_ROUNDS = 25
L1_FIT_ITERS = 50


@dataclass
class RecoveryConfig:
    """Stopping rules shared by all iterative solvers."""

    max_iters: int = 500
    tol_residual: float = 1e-9

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if not 0 < self.tol_residual < 1:    # also false for nan
            raise ValueError(f"tol_residual must lie in (0, 1), got {self.tol_residual}")


@dataclass
class RecoveryResult:
    """Outcome of a solve: estimate, per-iteration residuals, and convergence flag."""

    estimate: np.ndarray
    iterations: int
    residual_trace: list = field(default_factory=list)
    converged: bool = False
    support: np.ndarray = None


def _support_of(mat: np.ndarray) -> np.ndarray:
    return np.nonzero(np.any(mat != 0.0, axis=0))[0]


def _l2(a: np.ndarray) -> float:
    """np.linalg.norm(a) without its Python wrapper: the same dot of the same raveled entries."""
    v = a.ravel("K")
    return math.sqrt(v.dot(v))


def _norm(y: np.ndarray) -> float:
    """||y||, refused when it overflows: the residual rule would then pass any residual."""
    with np.errstate(over="ignore"):
        ynorm = float(np.linalg.norm(y))
    if ynorm == math.inf:
        raise ValueError("the norm of the measurements overflows")
    return ynorm


def _iterate(y: np.ndarray, n, step_fn, cfg, callback=None) -> RecoveryResult:
    """The shared loop: x, A(x) = step_fn(x, y - A(x)) from x = 0 until a stopping rule fires."""
    cfg = cfg or RecoveryConfig()
    ynorm = _norm(y)
    x = np.zeros((n, n))
    res = y.copy()    # A(0) is +0.0 for every map, so the start is not measured
    trace = []
    converged = False
    grow_streak = 0
    for _ in range(cfg.max_iters):
        x_new, measured = step_fn(x, res)
        if callback is not None:
            callback(x_new)
        res = y - measured
        rnorm = _l2(res)
        trace.append(rnorm)
        step_size = _l2(x_new - x)
        prev_norm = _l2(x)
        x = x_new
        if rnorm <= cfg.tol_residual * ynorm:
            converged = True
            break
        if step_size <= TOL_STALL * prev_norm:
            converged = prev_norm > 0.0    # stuck at the zero matrix is no settled fit
            break
        if not math.isfinite(rnorm):
            break
        if rnorm > DIVERGENCE_FACTOR * ynorm:
            grow_streak += 1
            if grow_streak >= DIVERGENCE_PATIENCE:
                break
        else:
            grow_streak = 0
    return RecoveryResult(x, len(trace), trace, converged, _support_of(x))


def _measure_block(mp: MeasurementMap, mat: np.ndarray, support: np.ndarray) -> np.ndarray:
    """A(mat) for a symmetric mat that is zero off the block of a nonempty sorted support."""
    return mp._apply_blocks(support[None], mat[np.ix_(support, support)][None])[0]


def _projected_gradient(mp: MeasurementMap, y, update, cfg, callback) -> RecoveryResult:
    """`_iterate` on the checked y with steps x -> update(x, res), each measured by the map.

    update returns a ProjectionOutcome whose matrix is zero off its (nonempty) support
    block, so the map measures that block alone.
    """
    y = _measurements(mp, y)

    def step(x, res):
        out = update(x, res)
        return out.matrix, _measure_block(mp, out.matrix, out.support)

    return _iterate(y, mp.n, step, cfg, callback)


def _head_tail_step(x: np.ndarray, grad: np.ndarray, nu: float, s: int,
                    r: int) -> ProjectionOutcome:
    """tail_joint(x + nu * H, s, r) for H the square head of grad at (2s, 2r), capped at n.

    From zero it runs the checked public projections, as a profiler wrapping them sees; later
    steps run their kernels on the exactly symmetric matrices it built, after a finiteness check.
    """
    n = grad.shape[0]
    if not x.any():
        head = head_square_variant(grad, min(2 * s, n), min(2 * r, n)).matrix
        return tail_joint(x + nu * head, s, r)
    grad = _square_finite(grad)
    head = _truncate(grad, _square_support(grad, min(2 * s, n)), min(2 * r, n))
    step = _square_finite(x + nu * head)
    support = _tail_support(step, s)
    return ProjectionOutcome(_truncate(step, support, r), support)


def iht_exact(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
              callback=None) -> RecoveryResult:
    """Iterative hard thresholding with the exact joint projection.

    Each step projects the gradient update exactly (by support enumeration),
    so this is exponential in s and intended for desk-scale problems only.
    """
    _check_structure_params(mp.n, s, r)
    _check_enumeration(mp.n, s)
    return _projected_gradient(
        mp, y, lambda x, res: exact_project(x + mp.adjoint(res), s, r), cfg, callback)


def iht_head_tail(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
                  callback=None) -> RecoveryResult:
    """Head-tail iterative hard thresholding.

    The gradient is compressed by the square head run at doubled structure
    parameters (the update direction lives in the doubled set), the summed
    iterate is then pulled back by the near-best tail projection.  Polynomial
    time; the head grows the intermediate support to at most (2s)^2.
    """
    _check_structure_params(mp.n, s, r)
    return _projected_gradient(
        mp, y, lambda x, res: _head_tail_step(x, mp.adjoint(res), 1.0, s, r), cfg, callback)


def iht_rank_one(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
                 callback=None) -> RecoveryResult:
    """Sign-modified head-tail iteration for rank-one measurements.

    Rank-one maps obey an l1-flavoured restricted isometry, so the gradient
    uses the sign of the residual (sign(0) = 0) and the step size is the l1
    residual divided by the squared upper normalizer beta.  The iteration map
    is exactly odd: negating y negates every iterate bitwise.
    """
    if mp.kind != "rank-one":
        raise ValueError("iht_rank_one needs a rank-one measurement map")
    _check_structure_params(mp.n, s, r)
    beta = estimate_rip(mp, min(2 * s, mp.n), min(2 * r, mp.n), BETA_TRIALS,
                        seed=BETA_SEED).beta_hat
    if beta == 0.0:    # the map measures every probe as zero
        raise ValueError("the probed l1-RIP constant beta is 0, so the step size is undefined")

    def update(x, res):
        nu = float(np.abs(res).sum()) / (beta * beta)
        return _head_tail_step(x, mp.adjoint(np.sign(res)), nu, s, r)

    return _projected_gradient(mp, y, update, cfg, callback)


def _normal_solve(gram: np.ndarray, rhs: np.ndarray, rows: int) -> np.ndarray | None:
    """x with gram x = rhs, for the Gram matrix of a design with `rows` rows, or None.

    The normal equations give lstsq's solution only for a design of full column rank.  An
    underdetermined design (fewer rows than unknowns) is refused outright; a rank-deficient
    or ill-conditioned one shows as a squared Cholesky pivot at most 1e-5 of the Gram
    matrix's largest diagonal entry.  Above that the solution agrees with lstsq's to about
    1e-9 relative (sampled designs stay above 0.07).  On None the caller runs its own lstsq.
    """
    if rows < len(gram):
        return None
    try:
        pivot = np.linalg.cholesky(gram).diagonal().min() ** 2
    except np.linalg.LinAlgError:
        return None
    return np.linalg.solve(gram, rhs) if pivot > 1e-5 * gram.diagonal().max() else None


def _tangent_lstsq(times: np.ndarray, u: np.ndarray, res: np.ndarray) -> np.ndarray:
    """Least-norm W = argmin ||res - A(U W^T + W U^T)|| for times = A_i U, u = U orthonormal.

    A_i(U W^T + W U^T) = 2 <A_i U, W>, so the design D is A_i U flattened.  W -> W + U S, S
    antisymmetric, leaves U W^T + W U^T unchanged, so D has an r(r-1)/2-dimensional null
    space, spanned by the columns vec(U (E_ab - E_ba)) of `gauge` (each a != b twice, norm
    sqrt(2)).  Adding c times the projection onto it to D^T D, c its mean diagonal, makes
    the normal equations' solution lstsq's least-norm W whenever that is D's whole null
    space; the pin counts as r(r-1)/2 more rows.  `_normal_solve` refuses a design
    rank-deficient beyond the gauge (repeated measurements, say) and an underdetermined
    one, which then go to lstsq.
    """
    m, p, r = times.shape
    design = times.reshape(m, -1)
    k = p * r
    gram = design.T @ design
    if r > 1:
        units = np.einsum("ja,cb->jcab", u, np.eye(r))
        gauge = (units - units.swapaxes(2, 3)).reshape(k, -1)
        gram += (np.trace(gram) / (4.0 * k)) * (gauge @ gauge.T)
    w = _normal_solve(gram, design.T @ res, m + r * (r - 1) // 2)
    if w is None:
        w = np.linalg.lstsq(design, res, rcond=None)[0]
    return w.reshape(p, r) / 2.0


def iht_lowrank(mp: MeasurementMap, y, r: int, cfg: RecoveryConfig | None = None,
                callback=None) -> RecoveryResult:
    """Rank-only iterative hard thresholding on p x p symmetric matrices.

    Every step is a Gauss-Newton step on the rank-r manifold (Luo, Huang, Li
    and Zhang, 2023) at x = U L U^T; the first is at x = 0 with U the top-r
    eigenvectors of A*(y), the spectral start of Wirtinger flow (Candes, Li
    and Soltanolkotabi, 2015).  A step solves the least squares over the
    tangent space, W = argmin ||res - A(U W^T + W U^T)|| over p x r matrices
    W, whose design is 2 A_i U since A_i(U W^T + W U^T) = 2 <A_i U, W> for
    symmetric A_i, by `_tangent_lstsq`.
    Then x + U W^T + W U^T, which lies in span Q = span{U, W}, is
    rank-projected through its 2r x 2r core Q^T (.) Q.  The new iterate is
    measured from A_i U_new, which is also the next step's design, so a step
    makes one pass over the payload and returns the new iterate with its
    measurement.  The step is invariant to the scale of the map and of y.
    The iteration map is exactly odd: negating y negates every iterate
    bitwise, as the rank kernel gives the same basis for A*(y) and -A*(y).
    """
    p = mp.n
    _check_rank(r, p)
    y = _measurements(mp, y)
    _norm(y)    # before the spectral start, which an overflowing y can make non-finite
    # spectral start: the tangent space at U holds mu P_r(A*(y)) for every mu, so the first
    # least squares fits y at least as well as a gradient step from zero of any length
    basis = _project_rank_vectors(mp.adjoint(y), r)[1]
    times = mp._times(basis)    # the (m, p, r) stack A_i U

    def step(x, res):
        nonlocal basis, times
        w = _tangent_lstsq(times, basis, res)
        q = np.linalg.qr(np.hstack([basis, w]))[0]
        uq, wq = q.T @ basis, q.T @ w
        core = q.T @ x @ q + uq @ wq.T + wq @ uq.T
        core, vecs = _project_rank_vectors((core + core.T) / 2.0, r)
        out = q @ core @ q.T
        out, basis = (out + out.T) / 2.0, q @ vecs
        times = mp._times(basis)
        return out, times.reshape(mp.m, -1) @ (out @ basis).ravel()

    return _iterate(y, p, step, cfg, callback)


def _restricted_lstsq(basis: np.ndarray, target_vec: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """lstsq's least-norm fit of B Z B^T to the target over entries of Z in the mask."""
    p, n = basis.shape
    idx = np.argwhere(mask)
    # column k is the flattened outer product of basis columns idx[k, 0] and idx[k, 1]
    design = (basis[:, None, idx[:, 0]] * basis[None, :, idx[:, 1]]).reshape(p * p, -1)
    out = np.zeros((n, n))
    out[idx[:, 0], idx[:, 1]] = np.linalg.lstsq(design, target_vec, rcond=None)[0]
    return out


def _restricted_fit(basis: np.ndarray, target_vec: np.ndarray, mask: np.ndarray,
                    gram: np.ndarray, projected: np.ndarray) -> np.ndarray:
    """`_restricted_lstsq`'s fit from the basis Gram G = B^T B and projected = B^T Yhat B.

    The design column of entry (i, j) is vec(b_i b_j^T), so the normal matrix of entries (i, j)
    and (k, l) is G_ik G_jl and the right-hand side of (i, j) is projected[i, j]: a k x k
    system for the k entries in the mask, in place of lstsq on the p^2 x k design.  A system
    that `_normal_solve` refuses goes to `_restricted_lstsq`, so a rank-deficient or
    underdetermined fit is still lstsq's least-norm one.
    """
    rows, cols = np.nonzero(mask)
    sol = _normal_solve(gram[rows[:, None], rows] * gram[cols[:, None], cols],
                        projected[rows, cols], len(target_vec))
    if sol is None:
        return _restricted_lstsq(basis, target_vec, mask)
    out = np.zeros_like(gram)
    out[rows, cols] = sol
    return out


def hihtp(basis, target, s: int, t: int, cfg: RecoveryConfig | None = None,
          callback=None) -> RecoveryResult:
    """Hard thresholding pursuit with the hierarchical (s, t)-sparse projection.

    Recovers an (s, t)-sparse n x n matrix X from a p x p observation of
    B X B^T: identify a candidate support from a normalized gradient step,
    then least-squares fit the k <= s*t selected entries, from the normal
    equations of B^T B and B^T Yhat B, formed once per call (`_restricted_fit`):
    a k x k solve per iteration in place of lstsq on a p^2 x k design.  A basis
    or target whose products overflow is refused.  It stops on
    the shared rules of `_iterate`: an unchanged support refits the same
    least squares, so the iterate repeats exactly and the stall rule fires,
    as it does when the support changes only among entries fitted to zero.
    The returned estimate is symmetrized.
    """
    b = np.asarray(basis, dtype=float)
    yhat = np.asarray(target, dtype=float)
    if b.ndim != 2 or b.shape[0] < 1:
        raise ValueError(f"expected a p x n basis matrix with p >= 1, got shape {b.shape}")
    p, n = b.shape
    if yhat.shape != (p, p):
        raise ValueError(f"expected a {p} x {p} target, got shape {yhat.shape}")
    if not 1 <= t <= n or not 1 <= s <= n:
        raise ValueError(f"need 1 <= s, t <= {n}, got s={s}, t={t}")
    if not (np.all(np.isfinite(b)) and np.all(np.isfinite(yhat))):
        raise ValueError("basis and target must be finite")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = b.T @ b
        projected = b.T @ yhat @ b
    if not np.all(np.isfinite(gram)):
        raise ValueError("the basis Gram matrix B^T B overflows")
    if not np.all(np.isfinite(projected)):
        raise ValueError("the projected target B^T Y B overflows")
    # B^T B has mean trace p for unit-variance Gaussian B, so the pullback of
    # the residual overshoots by (tr(B^T B)/n)^2; for orthonormal B this is 1
    tau = float(np.trace(gram)) / n
    scale = tau * tau
    target_vec = yhat.ravel()

    def step(x, res):
        grad = b.T @ res @ b / scale
        out = _restricted_fit(b, target_vec, hierarchical_mask(x + grad, s, t), gram, projected)
        return out, b @ out @ b.T

    fit = _iterate(yhat, n, step, cfg, callback)
    est = (fit.estimate + fit.estimate.T) / 2.0
    return RecoveryResult(est, fit.iterations, fit.residual_trace, fit.converged,
                          _support_of(est))


def _final_residual(mp: MeasurementMap, y: np.ndarray, est: np.ndarray, support) -> float:
    """||y - A(est)|| for a symmetric est that is zero off its support block."""
    if not support.size:
        return float(np.linalg.norm(y))
    return float(np.linalg.norm(y - _measure_block(mp, est, support)))


def two_step_factorized(mp: MeasurementMap, y, s: int, r: int,
                        cfg: RecoveryConfig | None = None) -> RecoveryResult:
    """Two-step recovery for factorized measurements.

    Step one recovers the p x p matrix B X B^T by low-rank hard thresholding
    on the inner measurement matrices; step two recovers X from that matrix by
    HiHTP with per-column sparsity equal to the bisparsity s.  Stage one runs
    on y itself, since its step is invariant to the scale of the inner map.
    The residual trace is stage one's residuals on y, then HiHTP's on the
    p x p target, except that its last entry is the measurement residual
    ||y - A(X)|| of the returned estimate.  `converged` needs both stages
    settled and that residual at most sqrt(tol_residual) times ||y||.
    """
    cfg = cfg or RecoveryConfig()
    if mp.kind != "factorized":
        raise ValueError("two_step_factorized needs a factorized measurement map")
    _check_structure_params(mp.n, s, r)
    y = _measurements(mp, y)
    stage1 = iht_lowrank(factorized_inner_map(mp), y, r, cfg)
    stage2 = hihtp(mp.basis, stage1.estimate, s, s, cfg)
    rnorm = _final_residual(mp, y, stage2.estimate, stage2.support)
    return RecoveryResult(
        stage2.estimate,
        stage1.iterations + stage2.iterations,
        stage1.residual_trace + stage2.residual_trace[:-1] + [rnorm],
        stage1.converged and stage2.converged
        and rnorm <= math.sqrt(cfg.tol_residual) * float(np.linalg.norm(y)),
        stage2.support,
    )


def _check_brute(n: int, s: int, r: int, m: int) -> None:
    """brute_force_decode's refusals of its sizes, before allocating; the bench asks it too."""
    _check_structure_params(n, s, r)
    _check_enumeration(n, s)
    unknowns = s * (s + 1) // 2
    if unknowns > m:
        raise ValueError(f"per-support fit has {unknowns} unknowns but only {m} measurements")
    _check_entries("the brute-force pair design", m * (n * (n + 1) // 2))


def _pair_basis_columns(mp: MeasurementMap) -> np.ndarray:
    """Measurement of every symmetric pair basis matrix E_ij + E_ji, in np.triu_indices order."""
    rows, cols = np.triu_indices(mp.n)
    design = np.empty((mp.m, len(rows)))
    basis = np.zeros((mp.n, mp.n))
    for k, (i, j) in enumerate(zip(rows, cols)):
        basis[i, j] = basis[j, i] = 1.0
        design[:, k] = mp._apply(basis)
        basis[i, j] = basis[j, i] = 0.0
    return design


def _objective(res: np.ndarray, mode: str) -> float:
    if mode == "l2":
        return float(np.linalg.norm(res))
    return float(np.sum(np.abs(res)))


def _weighted_l1_fit(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least absolute deviations by iteratively reweighted least squares."""
    sol = np.linalg.lstsq(design, y, rcond=None)[0]
    for _ in range(L1_FIT_ITERS):
        res = y - design @ sol
        w = 1.0 / np.sqrt(np.maximum(np.abs(res), 1e-10))
        new = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)[0]
        if np.max(np.abs(new - sol)) <= 1e-12 * max(1.0, float(np.max(np.abs(new)))):
            return new
        sol = new
    return sol


def _fit(design: np.ndarray, y: np.ndarray, mode: str) -> np.ndarray:
    if mode == "l2":
        return np.linalg.lstsq(design, y, rcond=None)[0]
    return _weighted_l1_fit(design, y)


def _polish_rank(design, tri, y, block, r, mode):
    """Alternating refinement: rank-project, then refit within the kept eigenspace.

    `tri` is the np.triu_indices pair of the block; `design` has one column per pair.  A
    round fits the block sum_{a <= b} c_ab T_ab over the best block's top-r eigenvectors u,
    T_aa = u_a u_a^T and T_ab = u_a u_b^T + u_b u_a^T.
    """
    best_block, vecs = _project_rank_vectors(block, r)
    best_obj = _objective(y - design @ best_block[tri], mode)
    a, b = np.triu_indices(r)
    for _ in range(POLISH_ROUNDS):
        outer = vecs[:, None, a] * vecs[None, :, b]    # outer[:, :, k] = u_a u_b^T
        terms = np.where(a == b, outer, outer + outer.swapaxes(0, 1))
        current = terms @ _fit(design @ terms[tri], y, mode)
        current = (current + current.T) / 2.0
        obj = _objective(y - design @ current[tri], mode)
        if not obj < best_obj - 1e-15:
            break
        best_obj, best_block = obj, current
        vecs = _project_rank_vectors(current, r)[1]
    return best_block, best_obj


def brute_force_decode(mp: MeasurementMap, y, s: int, r: int,
                       noise_mode: str = "l2") -> RecoveryResult:
    """Best structured fit by support enumeration (the impractical decoder).

    For every size-s support, fit a symmetric block to the measurements by
    least squares (noise_mode="l2") or least absolute deviations ("l1"); when
    r < s the fit is polished toward rank r by alternating rank projection and
    refitting within the kept eigenspace, a heuristic that is exact whenever
    the residual reaches zero.  Returns the best-objective candidate; ties
    keep the lexicographically smallest support.  The fits share one design
    of the map applied to every pair basis matrix, m n(n+1)/2 entries; a
    design of more than PAYLOAD_CAP entries is refused before allocating, and
    one with non-finite entries after.  Raises ValueError when no support has
    a finite objective.
    """
    if noise_mode not in ("l2", "l1"):
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    n = mp.n
    _check_brute(n, s, r, mp.m)
    y = _measurements(mp, y)
    design_cols = _pair_basis_columns(mp)
    if not np.all(np.isfinite(design_cols)):
        raise ValueError("the brute-force pair design has non-finite entries")
    # pair_id[i, j] is the design column of the pair (i, j), i <= j
    pair_id = np.zeros((n, n), dtype=int)
    pair_id[np.triu_indices(n)] = np.arange(design_cols.shape[1])
    tri = np.triu_indices(s)
    best_obj, best_support, best_block = np.inf, None, None
    for cand in itertools.combinations(range(n), s):
        support = np.array(cand, dtype=int)
        design = design_cols[:, pair_id[support[tri[0]], support[tri[1]]]]
        coeffs = _fit(design, y, noise_mode)
        block = np.zeros((s, s))
        block[tri] = coeffs
        block[tri[::-1]] = coeffs
        if r < s:
            block, obj = _polish_rank(design, tri, y, block, r, noise_mode)
        else:
            obj = _objective(y - design @ block[tri], noise_mode)
        if obj < best_obj:
            best_obj, best_support, best_block = obj, support, block
    if best_support is None:
        raise ValueError("no support has a finite objective")
    estimate = np.zeros((n, n))
    estimate[np.ix_(best_support, best_support)] = best_block
    return RecoveryResult(estimate, 1, [best_obj], True, _support_of(estimate))


def solve(algo: str, mp: MeasurementMap, y, s: int, r: int,
          cfg: RecoveryConfig | None = None) -> RecoveryResult:
    """Run the solver named `algo` (one of ALGOS); brute ignores cfg.

    The solver is looked up in this module at call time, so rebinding it here
    (as a profiler that wraps module functions does) also affects solve.
    """
    if algo not in _SOLVERS:
        raise ValueError(f"unknown algorithm {algo!r}")
    solver = globals()[_SOLVERS[algo]]
    return solver(mp, y, s, r) if algo == "brute" else solver(mp, y, s, r, cfg)
