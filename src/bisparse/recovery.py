"""Recovery solvers for jointly low-rank and bisparse symmetric matrices.

Five hard-thresholding iterations plus an exhaustive decoder.  The iterations
all run in one loop, `_iterate`, from the zero matrix and with the same
stopping rules (relative residual, stall between iterates, iteration cap, and
a divergence guard):

  iht_exact            hard thresholding with the exact (enumerating) joint
                       projection; desk scale only
  iht_head_tail        hard thresholding with a polynomial head projection at
                       doubled parameters followed by a tail projection
  iht_rank_one         the head-tail iteration adapted to rank-one
                       measurements: sign of the residual in the gradient and
                       an l1-residual step size
  iht_lowrank          rank-only hard thresholding on p x p matrices (stage
                       one of the factorized pipeline); Riemannian steps along
                       the tangent space of the rank-r iterate
  hihtp                hard thresholding pursuit with the hierarchical
                       (s, t)-sparse projection against the map Z -> B Z B^T
  two_step_factorized  iht_lowrank then hihtp for factorized measurements
  brute_force_decode   per-support least squares (or least absolute
                       deviations) over all size-s supports

`solve` runs the solver named by one of ALGOS; the bench and the CLI both
dispatch through it.

`converged` on a result means the iteration settled (residual or stall rule
fired); whether the estimate equals the ground truth is a separate question
answered by the benchmark harness.  The two-step pipeline also requires its
estimate to fit y: both stages settled and ||y - A(X)|| <= sqrt(tol_residual)
||y||, since HiHTP settles on a best sparse fit whether or not it fits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .measurements import MeasurementMap, estimate_rip, factorized_inner_map
from .projections import (
    ENUMERATION_CAP,
    EnumerationCapError,
    exact_project,
    head_joint,
    head_rowcol,
    head_square_variant,
    hierarchical_mask,
    rank_project_on_support,
    tail_joint,
)
from .symcore import _project_rank_vectors, eigen, project_rank

__all__ = [
    "ALGOS",
    "HEAD_CHOICES",
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

HEAD_CHOICES = ("square", "anchor", "rowcol")

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

# defaults for deriving the l1 step normalizer when cfg.step_beta is unset
BETA_TRIALS = 200
BETA_SEED = 0


@dataclass
class RecoveryConfig:
    """Solver parameters shared by all iterative recovery algorithms.

    step_beta is the l1-RIP upper normalizer of iht_rank_one (--algo
    rank-one) and affects no other solver; when None it is estimated from the
    map at doubled structure parameters.
    """

    max_iters: int = 500
    tol_residual: float = 1e-9
    head_choice: str = "square"
    step_beta: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")
        if self.tol_residual <= 0:
            raise ValueError("tolerances must be positive")
        if self.head_choice not in HEAD_CHOICES:
            raise ValueError(f"unknown head choice {self.head_choice!r}")


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


def _iterate(apply, y, x0, step_fn, cfg, callback=None) -> RecoveryResult:
    """The shared loop: run step_fn(x, y - apply(x)) from x0 until a stopping rule fires."""
    y = np.asarray(y, dtype=float)
    ynorm = float(np.linalg.norm(y))
    x = x0
    res = y - apply(x)
    res0 = float(np.linalg.norm(res))
    trace = []
    converged = False
    grow_streak = 0
    for _ in range(cfg.max_iters):
        x_new = step_fn(x, res)
        if callback is not None:
            callback(x_new)
        res = y - apply(x_new)
        rnorm = float(np.linalg.norm(res))
        trace.append(rnorm)
        step_size = float(np.linalg.norm(x_new - x))
        prev_norm = float(np.linalg.norm(x))
        x = x_new
        if rnorm <= cfg.tol_residual * ynorm:
            converged = True
            break
        if step_size <= TOL_STALL * prev_norm:
            converged = True
            break
        if not np.isfinite(rnorm):
            break
        if rnorm > DIVERGENCE_FACTOR * res0:
            grow_streak += 1
            if grow_streak >= DIVERGENCE_PATIENCE:
                break
        else:
            grow_streak = 0
    return RecoveryResult(x, len(trace), trace, converged, _support_of(x))


def _joint_head(grad: np.ndarray, s: int, r: int, choice: str) -> np.ndarray:
    """Head projection of a gradient at the doubled parameters (2s, 2r), capped at n."""
    s2 = min(2 * s, grad.shape[0])
    r2 = min(2 * r, grad.shape[0])
    if choice == "square":
        return head_square_variant(grad, s2, r2).matrix
    if choice == "anchor":
        return head_joint(grad, s2, r2).matrix
    base = head_rowcol(grad, s2)
    return rank_project_on_support(base.matrix, base.support, r2)


def _check_structure_params(n: int, s: int, r: int) -> None:
    if not 1 <= s <= n:
        raise ValueError(f"sparsity must satisfy 1 <= s <= {n}, got {s}")
    if not 1 <= r <= s:
        raise ValueError(f"rank must satisfy 1 <= r <= s={s}, got {r}")


def iht_exact(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
              callback=None) -> RecoveryResult:
    """Iterative hard thresholding with the exact joint projection.

    Each step projects the gradient update exactly (by support enumeration),
    so this is exponential in s and intended for desk-scale problems only.
    """
    cfg = cfg or RecoveryConfig()
    _check_structure_params(mp.n, s, r)
    if math.comb(mp.n, s) > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"exact projection over {math.comb(mp.n, s)} supports exceeds the cap; "
            "use iht_head_tail instead"
        )

    def step(x, res):
        return exact_project(x + mp.adjoint(res), s, r).matrix

    return _iterate(mp.apply, y, np.zeros((mp.n, mp.n)), step, cfg, callback)


def iht_head_tail(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
                  callback=None) -> RecoveryResult:
    """Head-tail iterative hard thresholding.

    The gradient is compressed by a head projection run at doubled structure
    parameters (the update direction lives in the doubled set), the summed
    iterate is then pulled back by the near-best tail projection.  Polynomial
    time; the default square head grows the intermediate support to (2s)^2.
    """
    cfg = cfg or RecoveryConfig()
    _check_structure_params(mp.n, s, r)

    def step(x, res):
        h = _joint_head(mp.adjoint(res), s, r, cfg.head_choice)
        return tail_joint(x + h, s, r).matrix

    return _iterate(mp.apply, y, np.zeros((mp.n, mp.n)), step, cfg, callback)


def iht_rank_one(mp: MeasurementMap, y, s: int, r: int, cfg: RecoveryConfig | None = None,
                 callback=None) -> RecoveryResult:
    """Sign-modified head-tail iteration for rank-one measurements.

    Rank-one maps obey an l1-flavoured restricted isometry, so the gradient
    uses the sign of the residual (sign(0) = 0) and the step size is the l1
    residual divided by the squared upper normalizer beta.  The iteration map
    is exactly odd: negating y negates every iterate bitwise.
    """
    cfg = cfg or RecoveryConfig()
    if mp.kind != "rank-one":
        raise ValueError("iht_rank_one needs a rank-one measurement map")
    _check_structure_params(mp.n, s, r)
    beta = cfg.step_beta
    if beta is None:
        beta = estimate_rip(mp, min(2 * s, mp.n), min(2 * r, mp.n), BETA_TRIALS,
                            seed=BETA_SEED).beta_hat
    elif beta <= 0:
        raise ValueError("step_beta must be positive")

    def step(x, res):
        nu = float(np.sum(np.abs(res))) / (beta * beta)
        h = _joint_head(mp.adjoint(np.sign(res)), s, r, cfg.head_choice)
        return tail_joint(x + nu * h, s, r).matrix

    return _iterate(mp.apply, y, np.zeros((mp.n, mp.n)), step, cfg, callback)


def _tangent_project(u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project a symmetric g onto the tangent space at a matrix with orthonormal column basis u.

    P_T(G) = UU^T G + G UU^T - UU^T G UU^T, evaluated as H + H^T with
    H = U (U^T G - (U^T G U) U^T / 2), so the result is exactly symmetric and
    exactly odd in G.
    """
    ug = u.T @ g
    h = u @ (ug - 0.5 * (ug @ u) @ u.T)
    return h + h.T


def iht_lowrank(mp: MeasurementMap, y, r: int, cfg: RecoveryConfig | None = None,
                callback=None) -> RecoveryResult:
    """Rank-only iterative hard thresholding on p x p symmetric matrices.

    Every step is the Riemannian gradient step (Wei, Cai, Chan and Leung,
    2016): the gradient G is projected onto the tangent space of the rank-r
    iterate, P_T(G), the step size is <P_T(G), G> / ||A(P_T(G))||^2 (the
    exact line search along P_T(G)), and x + step * P_T(G) is rank-projected.
    The step is invariant to the scale of the map and of y.  The zero start
    has no tangent space, so the first step runs along G itself.  The column
    basis of the iterate comes with its rank projection, so no second
    eigendecomposition is paid.  The iteration map is exactly odd: negating y
    negates every iterate bitwise.
    """
    cfg = cfg or RecoveryConfig()
    p = mp.n
    if not 1 <= r <= p:
        raise ValueError(f"rank must satisfy 1 <= r <= {p}, got {r}")
    basis = None    # column basis of the current iterate; None while it is zero

    def step(x, res):
        nonlocal basis
        grad = mp.adjoint(res)
        direction = grad if basis is None else _tangent_project(basis, grad)
        measured = mp._apply(direction)
        denom = float(measured @ measured)
        mu = float(np.sum(direction * grad)) / denom if denom > 0 else 1.0
        out, vecs = _project_rank_vectors((x + mu * direction)[None], r)
        basis = vecs[0] if np.any(out) else None
        return out[0]

    return _iterate(mp._apply, y, np.zeros((p, p)), step, cfg, callback)


def _restricted_lstsq(basis: np.ndarray, target_vec: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Least-squares fit of B Z B^T to the target over entries of Z in the mask."""
    p, n = basis.shape
    idx = np.argwhere(mask)
    # column k is the flattened outer product of basis columns idx[k, 0] and idx[k, 1];
    # C order keeps the summation order of design.T @ target_vec on the ridge path
    design = np.multiply(basis[:, None, idx[:, 0]], basis[None, :, idx[:, 1]],
                         order="C").reshape(p * p, -1)
    sol, _, rank, _ = np.linalg.lstsq(design, target_vec, rcond=None)
    if rank < design.shape[1]:
        warnings.warn("restricted least-squares system is rank-deficient; using ridge 1e-10")
        gram = design.T @ design + 1e-10 * np.eye(design.shape[1])
        sol = np.linalg.solve(gram, design.T @ target_vec)
    out = np.zeros((n, n))
    out[idx[:, 0], idx[:, 1]] = sol
    return out


def hihtp(basis, target, s: int, t: int, cfg: RecoveryConfig | None = None,
          callback=None) -> RecoveryResult:
    """Hard thresholding pursuit with the hierarchical (s, t)-sparse projection.

    Recovers an (s, t)-sparse n x n matrix X from a p x p observation of
    B X B^T: identify a candidate support from a normalized gradient step,
    then least-squares fit the (at most s*t) selected entries.  It stops on
    the shared rules of `_iterate`: an unchanged support refits the same
    least squares, so the iterate repeats exactly and the stall rule fires,
    as it does when the support changes only among entries fitted to zero.
    The returned estimate is symmetrized.
    """
    cfg = cfg or RecoveryConfig()
    b = np.asarray(basis, dtype=float)
    yhat = np.asarray(target, dtype=float)
    if b.ndim != 2:
        raise ValueError(f"expected a p x n basis matrix, got shape {b.shape}")
    p, n = b.shape
    if yhat.shape != (p, p):
        raise ValueError(f"expected a {p} x {p} target, got shape {yhat.shape}")
    if not 1 <= t <= n or not 1 <= s <= n:
        raise ValueError(f"need 1 <= s, t <= {n}, got s={s}, t={t}")
    # B^T B has mean trace p for unit-variance Gaussian B, so the pullback of
    # the residual overshoots by (tr(B^T B)/n)^2; for orthonormal B this is 1
    tau = float(np.trace(b.T @ b)) / n
    scale = tau * tau
    target_vec = yhat.ravel()

    def step(x, res):
        grad = b.T @ res @ b / scale
        return _restricted_lstsq(b, target_vec, hierarchical_mask(x + grad, s, t))

    fit = _iterate(lambda z: b @ z @ b.T, yhat, np.zeros((n, n)), step, cfg, callback)
    est = (fit.estimate + fit.estimate.T) / 2.0
    return RecoveryResult(est, fit.iterations, fit.residual_trace, fit.converged,
                          _support_of(est))


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
    y = np.asarray(y, dtype=float)
    stage1 = iht_lowrank(factorized_inner_map(mp), y, r, cfg)
    stage2 = hihtp(mp.basis, stage1.estimate, s, s, cfg)
    rnorm = float(np.linalg.norm(y - mp._apply(stage2.estimate)))
    return RecoveryResult(
        stage2.estimate,
        stage1.iterations + stage2.iterations,
        stage1.residual_trace + stage2.residual_trace[:-1] + [rnorm],
        stage1.converged and stage2.converged
        and rnorm <= math.sqrt(cfg.tol_residual) * float(np.linalg.norm(y)),
        stage2.support,
    )


def _pair_basis_columns(mp: MeasurementMap) -> np.ndarray:
    """Measurement of every symmetric pair basis matrix E_ij + E_ji, in np.triu_indices order."""
    n = mp.n
    cols = []
    for i, j in zip(*np.triu_indices(n)):
        basis = np.zeros((n, n))
        basis[i, j] = 1.0
        basis[j, i] = 1.0
        cols.append(mp.apply(basis))
    return np.stack(cols, axis=1)


def _objective(res: np.ndarray, mode: str) -> float:
    if mode == "l2":
        return float(np.linalg.norm(res))
    return float(np.sum(np.abs(res)))


def _weighted_l1_fit(design: np.ndarray, y: np.ndarray, iters: int = 50) -> np.ndarray:
    """Least absolute deviations by iteratively reweighted least squares."""
    sol = np.linalg.lstsq(design, y, rcond=None)[0]
    for _ in range(iters):
        res = y - design @ sol
        w = 1.0 / np.sqrt(np.maximum(np.abs(res), 1e-10))
        new = np.linalg.lstsq(design * w[:, None], y * w, rcond=None)[0]
        if np.max(np.abs(new - sol)) <= 1e-12 * max(1.0, float(np.max(np.abs(new)))):
            sol = new
            break
        sol = new
    return sol


def _fit(design: np.ndarray, y: np.ndarray, mode: str) -> np.ndarray:
    if mode == "l2":
        return np.linalg.lstsq(design, y, rcond=None)[0]
    return _weighted_l1_fit(design, y)


def _polish_rank(design, tri, y, block, r, mode, rounds=25):
    """Alternating refinement: rank-project, then refit within the kept eigenspace.

    `tri` is the np.triu_indices pair of the block; `design` has one column per pair.
    """
    best_block = project_rank(block, r)
    best_obj = _objective(y - design @ best_block[tri], mode)
    current = best_block
    core_pairs = [(a, b) for a in range(r) for b in range(a, r)]
    for _ in range(rounds):
        dec = eigen(project_rank(current, r))
        vecs = dec.eigenvectors[:, :r]
        terms = []
        for a, b in core_pairs:
            term = np.outer(vecs[:, a], vecs[:, b])
            terms.append(term + term.T if a != b else term)
        core_design = np.stack([design @ term[tri] for term in terms], axis=1)
        core = _fit(core_design, y, mode)
        current = np.zeros_like(block)
        for val, term in zip(core, terms):
            current += val * term
        current = (current + current.T) / 2.0
        obj = _objective(y - design @ current[tri], mode)
        if obj < best_obj - 1e-15:
            best_obj = obj
            best_block = current
        else:
            break
    return best_block, best_obj


def brute_force_decode(mp: MeasurementMap, y, s: int, r: int,
                       noise_mode: str = "l2") -> RecoveryResult:
    """Best structured fit by support enumeration (the impractical decoder).

    For every size-s support, fit a symmetric block to the measurements by
    least squares (noise_mode="l2") or least absolute deviations ("l1"); when
    r < s the fit is polished toward rank r by alternating rank projection and
    refitting within the kept eigenspace, a heuristic that is exact whenever
    the residual reaches zero.  Returns the best-objective candidate; ties
    keep the lexicographically smallest support.
    """
    if noise_mode not in ("l2", "l1"):
        raise ValueError(f"unknown noise mode {noise_mode!r}")
    n = mp.n
    _check_structure_params(n, s, r)
    n_supports = math.comb(n, s)
    if n_supports > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"decoding over {n_supports} supports exceeds the cap {ENUMERATION_CAP}"
        )
    unknowns = s * (s + 1) // 2
    if unknowns > mp.m:
        raise ValueError(
            f"per-support fit has {unknowns} unknowns but only {mp.m} measurements"
        )
    y = np.asarray(y, dtype=float)
    design_cols = _pair_basis_columns(mp)
    # pair_id[i, j] is the design column of the pair (i, j), i <= j
    pair_id = np.zeros((n, n), dtype=int)
    pair_id[np.triu_indices(n)] = np.arange(design_cols.shape[1])
    tri = np.triu_indices(s)
    best_obj = np.inf
    best_support = None
    best_block = None
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
            best_obj = obj
            best_support = support
            best_block = block
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
