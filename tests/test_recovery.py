import itertools
import math
import warnings

import numpy as np
import pytest

from bisparse.measurements import (
    MeasurementMap,
    factorized_inner_map,
    isometry_map,
    sample_map,
    sample_structured,
)
from bisparse.projections import head_square_variant, hierarchical_mask, tail_bisparse, tail_joint
from bisparse.recovery import (
    RecoveryConfig,
    TOL_STALL,
    _restricted_lstsq,
    brute_force_decode,
    hihtp,
    iht_exact,
    iht_head_tail,
    iht_lowrank,
    iht_rank_one,
    two_step_factorized,
)
from bisparse.symcore import project_rank, restrict, sym_enforce


def assert_structured(s, r):
    """A solver callback that fails as soon as an iterate has more than s
    support indices or rank above r."""

    def check(mat):
        nz = np.nonzero(np.any(mat != 0.0, axis=0))[0]
        if nz.size > s:
            raise AssertionError(f"iterate support size {nz.size} exceeds s={s}")
        if nz.size:
            vals = np.abs(np.linalg.eigvalsh(mat[np.ix_(nz, nz)]))
            top = float(vals.max())
            if top > 0 and int(np.sum(vals > 1e-9 * top)) > r:
                raise AssertionError(f"iterate rank exceeds r={r}")

    return check


def planted_instance(kind, n, s, r, m, seed, **kwargs):
    mp = sample_map(kind, n, m, seed=seed, **kwargs)
    x, support = sample_structured(n, s, r, np.random.default_rng(seed + 100_000))
    return mp, x, support


def criterion_10_instance(t, inner="dense"):
    """Factorized map, signal and measurements of criterion 10's instance t (n=40, s=3, r=1)."""
    n, s, r = 40, 3, 1
    p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
    m = math.ceil(6 * r * p)
    mp = sample_map("factorized", n, m, p=p, seed=3000 + t, inner=inner)
    x, _ = sample_structured(n, s, r, np.random.default_rng(4000 + t))
    return mp, x, mp.apply(x)


def criterion_10_stage_one(t, inner="dense"):
    """Stage-one map and measurements of criterion 10's instance t."""
    mp, _, y = criterion_10_instance(t, inner)
    return factorized_inner_map(mp), y


class TestConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            RecoveryConfig(max_iters=0)
        with pytest.raises(ValueError):
            RecoveryConfig(tol_residual=0.0)
        with pytest.raises(ValueError):
            RecoveryConfig(head_choice="nope")


class TestIhtExact:
    def test_zero_measurements_give_zero(self):
        mp = sample_map("dense-gaussian", 6, 20, seed=1)
        res = iht_exact(mp, np.zeros(20), 2, 1)
        assert np.array_equal(res.estimate, np.zeros((6, 6)))
        assert res.iterations == 1
        assert res.converged
        assert res.residual_trace == [0.0]

    def test_isometry_recovers_in_one_step(self):
        mp = isometry_map(6)
        x, _ = sample_structured(6, 2, 1, np.random.default_rng(2))
        steps = []
        res = iht_exact(mp, mp.apply(x), 2, 1, callback=steps.append)
        assert np.linalg.norm(steps[0] - x) <= 1e-10
        assert res.converged and res.iterations <= 2

    def test_noiseless_recovery(self):
        mp, x, support = planted_instance("dense-gaussian", 10, 2, 1, 40, seed=9000)
        res = iht_exact(mp, mp.apply(x), 2, 1, callback=assert_structured(2, 1))
        assert np.linalg.norm(res.estimate - x) <= 1e-6
        assert np.array_equal(res.support, support)
        assert len(res.residual_trace) == res.iterations

    def test_iterates_eventually_contract(self):
        mp, x, _ = planted_instance("dense-gaussian", 10, 2, 1, 40, seed=9003)
        iterates = []
        iht_exact(mp, mp.apply(x), 2, 1, callback=iterates.append)
        errors = [float(np.linalg.norm(x - xk)) for xk in iterates]
        tail = errors[len(errors) // 2 :]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(tail, tail[1:]))
        assert errors[-1] <= 1e-6

    def test_noise_robustness_linear_scaling(self):
        mp, x, _ = planted_instance("dense-gaussian", 10, 2, 1, 40, seed=9001)
        y = mp.apply(x)
        ratios = []
        for eps in (1e-4, 1e-3, 1e-2):
            rng = np.random.default_rng(int(eps * 1e6))
            e = rng.standard_normal(40)
            e *= eps * np.linalg.norm(y) / np.linalg.norm(e)
            res = iht_exact(mp, y + e, 2, 1)
            err = np.linalg.norm(res.estimate - x)
            assert err <= 20.0 * np.linalg.norm(e)
            ratios.append(err / np.linalg.norm(e))
        assert max(ratios) <= 3.0 * min(ratios)


class TestIhtHeadTail:
    def test_zero_measurements_give_zero(self):
        mp = sample_map("dense-gaussian", 8, 30, seed=3)
        res = iht_head_tail(mp, np.zeros(30), 2, 1)
        assert np.array_equal(res.estimate, np.zeros((8, 8)))

    def test_solution_is_stationary_point(self):
        # one application of the iteration map at the true solution returns it
        mp, x, _ = planted_instance("dense-gaussian", 12, 2, 1, 60, seed=4)
        y = mp.apply(x)
        grad = mp.adjoint(y - mp.apply(x))
        head = head_square_variant(grad, 4, 2).matrix
        assert np.array_equal(head, np.zeros_like(head))
        step = tail_joint(x + head, 2, 1).matrix
        assert np.max(np.abs(step - x)) <= 1e-12

    def test_noiseless_recovery_square_head(self):
        n, s, r = 30, 2, 1
        m = math.ceil(8 * r * (2 * s) ** 2 * math.log(math.e * n / s))
        mp, x, _ = planted_instance("dense-gaussian", n, s, r, m, seed=1000)
        res = iht_head_tail(mp, mp.apply(x), s, r, callback=assert_structured(s, r))
        assert np.linalg.norm(res.estimate - x) <= 1e-6

    @pytest.mark.parametrize("head", ["anchor", "rowcol"])
    def test_other_heads_run_and_stay_structured(self, head):
        mp, x, _ = planted_instance("dense-gaussian", 12, 2, 1, 70, seed=5)
        cfg = RecoveryConfig(head_choice=head, max_iters=50)
        res = iht_head_tail(mp, mp.apply(x), 2, 1, cfg, callback=assert_structured(2, 1))
        assert res.support.size <= 2


class TestIhtRankOne:
    def test_residual_zero_is_stationary(self):
        mp, x, _ = planted_instance("rank-one", 10, 2, 1, 80, seed=6)
        y = mp.apply(x)
        res_vec = y - mp.apply(x)
        nu = float(np.sum(np.abs(res_vec)))
        assert nu == 0.0
        grad = mp.adjoint(np.sign(res_vec))
        assert np.array_equal(grad, np.zeros_like(grad))

    def test_requires_rank_one_map(self):
        mp = sample_map("dense-gaussian", 6, 20, seed=7)
        with pytest.raises(ValueError, match="rank-one"):
            iht_rank_one(mp, np.zeros(20), 2, 1)

    def test_rejects_nonpositive_beta(self):
        mp = sample_map("rank-one", 6, 20, seed=8)
        with pytest.raises(ValueError, match="beta"):
            iht_rank_one(mp, np.zeros(20), 2, 1, RecoveryConfig(step_beta=-1.0))

    def test_sign_symmetry_bitwise(self):
        n, s, r = 24, 2, 1
        m = math.ceil(10 * s**2 * math.log(math.e * n / s))
        for seed in range(5):
            mp, x, _ = planted_instance("rank-one", n, s, r, m, seed=5000 + seed)
            y = mp.apply(x)
            pos = iht_rank_one(mp, y, s, r)
            neg = iht_rank_one(mp, -y, s, r)
            assert np.array_equal(neg.estimate, -pos.estimate)

    def test_recovers_majority_of_seeds(self):
        n, s, r = 24, 2, 1
        m = math.ceil(10 * s**2 * math.log(math.e * n / s))
        hits = 0
        for seed in range(10):
            mp, x, _ = planted_instance("rank-one", n, s, r, m, seed=5000 + seed)
            res = iht_rank_one(mp, mp.apply(x), s, r)
            hits += np.linalg.norm(res.estimate - x) <= 1e-3
        assert hits >= 5


class TestIhtLowrank:
    def test_zero_measurements_give_zero(self):
        mp = sample_map("dense-gaussian", 8, 30, seed=10)
        res = iht_lowrank(mp, np.zeros(30), 2)
        assert np.array_equal(res.estimate, np.zeros((8, 8)))

    def test_full_rank_isometry_one_step(self):
        mp = isometry_map(5)
        x = sym_enforce(np.random.default_rng(11).standard_normal((5, 5)))
        res = iht_lowrank(mp, mp.apply(x), 5)
        assert np.linalg.norm(res.estimate - x) <= 1e-9
        assert res.iterations == 1

    def test_gaussian_recovery_rate(self):
        p, r = 16, 2
        m = 6 * r * p
        hits = 0
        for seed in range(50):
            mp = sample_map("dense-gaussian", p, m, seed=7000 + seed)
            rng = np.random.default_rng(8000 + seed)
            x = project_rank(sym_enforce(rng.standard_normal((p, p))), r)
            x /= np.linalg.norm(x)
            res = iht_lowrank(mp, mp.apply(x), r)
            hits += np.linalg.norm(res.estimate - x) <= 1e-6
        assert hits >= 45

    @pytest.mark.parametrize("inner_kind", ["dense", "rank-one"])
    def test_odd_symmetry_bitwise(self, inner_kind):
        # the tangent basis comes from the rank kernel's sign-canonical evaluation;
        # a basis taken from eigh of the raw update x + mu P_T(G) breaks this
        for t in range(10):
            inner, y = criterion_10_stage_one(t, inner_kind)
            pos, neg = [], []
            a = iht_lowrank(inner, y, 1, callback=pos.append)
            b = iht_lowrank(inner, -y, 1, callback=neg.append)
            assert a.iterations == b.iterations == len(pos) == len(neg)
            for k, (u, v) in enumerate(zip(pos, neg)):
                assert np.array_equal(v, -u), (t, k)
            assert np.array_equal(b.estimate, -a.estimate)

    def test_iteration_budget_on_criterion_10(self):
        # total stage-one iterations on criterion 10's first 20 instances (one BLAS
        # thread): 4467 with the full-gradient step, 918 with the tangent-space step
        total = 0
        for t in range(20):
            inner, y = criterion_10_stage_one(t)
            total += iht_lowrank(inner, y, 1).iterations
        assert total <= 1200

    def test_rank_one_payload_variant(self):
        p, r = 12, 1
        mp = sample_map("rank-one", p, 8 * p, seed=12)
        rng = np.random.default_rng(13)
        g = rng.standard_normal(p)
        x = np.outer(g, g) - 0.5 * project_rank(sym_enforce(rng.standard_normal((p, p))), 1)
        x = project_rank(sym_enforce(x), r)
        x /= np.linalg.norm(x)
        res = iht_lowrank(mp, mp.apply(x), r, RecoveryConfig(max_iters=300))
        assert np.linalg.norm(res.estimate - x) <= 1e-2


class TestHihtp:
    def test_zero_target_gives_zero(self):
        basis = np.random.default_rng(14).standard_normal((9, 6))
        res = hihtp(basis, np.zeros((9, 9)), 2, 2)
        assert np.array_equal(res.estimate, np.zeros((6, 6)))

    def test_orthogonal_basis_single_identification(self):
        q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((7, 7)))
        x, _ = sample_structured(7, 2, 1, np.random.default_rng(16))
        res = hihtp(q, q @ x @ q.T, 2, 2)
        assert np.linalg.norm(res.estimate - x) <= 1e-10
        assert res.iterations <= 2

    def test_gaussian_recovery_rate(self):
        n, s = 40, 3
        p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
        hits = 0
        for seed in range(50):
            basis = np.random.default_rng(1700 + seed).standard_normal((p, n))
            x, _ = sample_structured(n, s, 1, np.random.default_rng(1800 + seed))
            res = hihtp(basis, basis @ x @ basis.T, s, s)
            hits += np.linalg.norm(res.estimate - x) <= 1e-6
        assert hits >= 45

    def test_estimate_is_symmetric(self):
        basis = np.random.default_rng(18).standard_normal((10, 8))
        x, _ = sample_structured(8, 2, 1, np.random.default_rng(19))
        res = hihtp(basis, basis @ x @ basis.T, 2, 2)
        assert np.array_equal(res.estimate, res.estimate.T)

    def test_rank_deficient_fit_warns_and_regularizes(self):
        # a single-row basis makes the restricted system 1 x k, k > 1
        basis = np.array([[1.0, 2.0, 0.5]])
        with pytest.warns(UserWarning, match="ridge"):
            res = hihtp(basis, np.array([[4.0]]), 2, 1, RecoveryConfig(max_iters=3))
        assert np.all(np.isfinite(res.estimate))


class TestTwoStep:
    def test_zero_measurements_give_zero(self):
        mp = sample_map("factorized", 10, 30, p=12, seed=20)
        res = two_step_factorized(mp, np.zeros(30), 2, 1)
        assert np.array_equal(res.estimate, np.zeros((10, 10)))

    def test_requires_factorized_map(self):
        mp = sample_map("dense-gaussian", 6, 20, seed=21)
        with pytest.raises(ValueError, match="factorized"):
            two_step_factorized(mp, np.zeros(20), 2, 1)

    def test_equals_stage_composition(self):
        n, s, r = 20, 2, 1
        p, m = 20, 60
        mp, x, _ = planted_instance("factorized", n, s, r, m, seed=22, p=p)
        y = mp.apply(x)
        combined = two_step_factorized(mp, y, s, r)
        stage1 = iht_lowrank(factorized_inner_map(mp), y, r)
        stage2 = hihtp(mp.basis, stage1.estimate, s, s)
        assert np.array_equal(combined.estimate, (stage2.estimate + stage2.estimate.T) / 2)
        assert combined.iterations == stage1.iterations + stage2.iterations
        # the last residual is the measurement residual of the returned estimate, and
        # converged also needs it within sqrt(tol_residual) of ||y||
        rnorm = float(np.linalg.norm(y - mp.apply(combined.estimate)))
        assert combined.residual_trace[-1] == rnorm
        assert combined.residual_trace[:-1] == (stage1.residual_trace
                                                + stage2.residual_trace[:-1])
        assert combined.converged == (
            stage1.converged and stage2.converged
            and rnorm <= math.sqrt(RecoveryConfig().tol_residual) * float(np.linalg.norm(y)))

    def test_rank_one_inner_recovery_rate(self):
        # criterion 10's first 20 instances on rank-one inner maps: 20/20 with the
        # tangent-space stage one; the sign-modified stage one recovered 6/20
        hits = 0
        for t in range(20):
            mp, x, y = criterion_10_instance(t, inner="rank-one")
            res = two_step_factorized(mp, y, 3, 1)
            hits += np.linalg.norm(res.estimate - x) <= 1e-6
        assert hits >= 18

    def test_recovery_at_theorem_scaling(self):
        n, s, r = 40, 3, 1
        p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
        m = 6 * r * p
        mp, x, _ = planted_instance("factorized", n, s, r, m, seed=3000, p=p)
        y = mp.apply(x)
        res = two_step_factorized(mp, y, s, r)
        assert np.linalg.norm(res.estimate - x) <= 1e-6
        assert res.converged
        assert res.residual_trace[-1] <= 1e-8 * np.linalg.norm(y)

    def test_failed_recovery_is_not_converged(self):
        # a signal on 4 indices solved at s=2: stage one recovers B X B^T and HiHTP
        # settles on its best 2-sparse fit, so both stages converge, yet the
        # estimate leaves a relative measurement residual of about 0.66
        mp = sample_map("factorized", 10, 64, p=16, seed=0)
        x, _ = sample_structured(10, 4, 1, np.random.default_rng(0))
        y = mp.apply(x)
        stage1 = iht_lowrank(factorized_inner_map(mp), y, 1)
        stage2 = hihtp(mp.basis, stage1.estimate, 2, 2)
        assert stage1.converged and stage2.converged
        res = two_step_factorized(mp, y, 2, 1)
        assert not res.converged
        assert res.residual_trace[-1] == float(np.linalg.norm(y - mp.apply(res.estimate)))
        assert res.residual_trace[-1] > 0.1 * np.linalg.norm(y)

    def test_injected_stage_one_output(self):
        # bypassing stage one with the exact lifted matrix isolates HiHTP
        n, s, r = 30, 2, 1
        p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
        mp, x, _ = planted_instance("factorized", n, s, r, 50, seed=23, p=p)
        lifted = mp.basis @ x @ mp.basis.T
        res = hihtp(mp.basis, lifted, s, s)
        assert np.linalg.norm(res.estimate - x) <= 1e-6


def restricted_lstsq_reference(basis, target_vec, mask):
    # _restricted_lstsq before its design was built from index arrays: one np.outer per entry
    n = mask.shape[0]
    idx = np.argwhere(mask)
    design = np.stack([np.outer(basis[:, i], basis[:, j]).ravel() for i, j in idx], axis=1)
    sol, _, rank, _ = np.linalg.lstsq(design, target_vec, rcond=None)
    if rank < design.shape[1]:
        warnings.warn("restricted least-squares system is rank-deficient; using ridge 1e-10")
        gram = design.T @ design + 1e-10 * np.eye(design.shape[1])
        sol = np.linalg.solve(gram, design.T @ target_vec)
    out = np.zeros((n, n))
    out[idx[:, 0], idx[:, 1]] = sol
    return out


def hihtp_reference(basis, target, s, t, cfg):
    """hihtp before it ran on _iterate: its own loop, which stopped on the
    residual or when the mask repeated.

    Returns (estimate, iterations, residual trace, converged, support) and
    (iterations, estimate) at the first iterate that moved by at most TOL_STALL
    of the previous one's norm, or None when none did before the loop stopped.
    """
    b = np.asarray(basis, dtype=float)
    yhat = np.asarray(target, dtype=float)
    n = b.shape[1]
    tau = float(np.trace(b.T @ b)) / n
    scale = tau * tau
    target_vec = yhat.ravel()
    tnorm = float(np.linalg.norm(yhat))
    x = np.zeros((n, n))
    prev_mask = None
    trace = []
    converged = False
    stall = None
    for _ in range(cfg.max_iters):
        grad = b.T @ (yhat - b @ x @ b.T) @ b / scale
        mask = hierarchical_mask(x + grad, s, t)
        x_prev, x = x, restricted_lstsq_reference(b, target_vec, mask)
        rnorm = float(np.linalg.norm(yhat - b @ x @ b.T))
        trace.append(rnorm)
        if stall is None and np.linalg.norm(x - x_prev) <= TOL_STALL * np.linalg.norm(x_prev):
            stall = (len(trace), (x + x.T) / 2.0)
        if prev_mask is not None and np.array_equal(mask, prev_mask):
            converged = True
            break
        if rnorm <= cfg.tol_residual * tnorm:
            converged = True
            break
        prev_mask = mask
    est = (x + x.T) / 2.0
    support = np.nonzero(np.any(est != 0.0, axis=0))[0]
    return (est, len(trace), trace, converged, support), stall


def hihtp_cases():
    """(basis, target, s, t, cfg) inputs for the loop-reference comparison."""
    cfgs = (RecoveryConfig(max_iters=3), RecoveryConfig(max_iters=100), RecoveryConfig(max_iters=30))
    # stage-one outputs of factorized maps, the two-step pipeline's HiHTP inputs
    shapes = [(40, 3, 43, 258)] + [(12, 2, 16, 48)] * 12
    for k, (n, s, p, m) in enumerate(shapes):
        mp, x, _ = planted_instance("factorized", n, s, 1, m, seed=4200 + k, p=p)
        stage1 = iht_lowrank(factorized_inner_map(mp), mp.apply(x), 1)
        for t in sorted({1, s, min(s + 2, n)}):
            yield mp.basis, stage1.estimate, s, t, RecoveryConfig()
    rng = np.random.default_rng(4300)
    # exact and noisy lifts B X B^T of structured X, t in {1, s, s + 2}
    for k in range(120):
        n = int(rng.integers(2, 16))
        s = int(rng.integers(1, min(4, n) + 1))
        p = int(rng.integers(2, 20))
        basis = rng.standard_normal((p, n))
        x, _ = sample_structured(n, s, int(rng.integers(1, s + 1)), rng)
        lift = basis @ x @ basis.T
        for noise in (0.0, 1e-3, 1e-1):
            noisy = lift + noise * sym_enforce(rng.standard_normal((p, p)))
            for t in sorted({1, s, min(s + 2, n)}):
                yield basis, noisy, s, t, cfgs[k % 3]
    # small random cases: square and non-symmetric targets, ridge fits where
    # p * p < s * t, the iteration cap, zero targets, and targets outside the
    # range of B, whose first fit is zero
    for k in range(600):
        p, n = (int(v) for v in rng.integers(1, 8, size=2))
        s, t = (int(v) for v in rng.integers(1, n + 1, size=2))
        basis = rng.standard_normal((p, n))
        target = rng.standard_normal((p, p)) if k % 10 else np.zeros((p, p))
        if k % 2:
            target = sym_enforce(target)
        if k % 50 == 7:
            basis = np.vstack([basis, np.zeros((1, n))])
            target = np.zeros((p + 1, p + 1))
            target[p, p] = 1.0
        yield basis, target, s, t, cfgs[k % 3]


class TestHihtpMatchesLoopReference:
    def test_restricted_lstsq_matches_outer_product_columns(self):
        rng = np.random.default_rng(4000)
        ridge = 0
        for _ in range(2000):
            p, n = (int(v) for v in rng.integers(1, 9, size=2))
            basis = rng.standard_normal((p, n))
            mask = rng.random((n, n)) < rng.random()
            mask[rng.integers(n), rng.integers(n)] = True
            target_vec = rng.standard_normal(p * p)
            with warnings.catch_warnings(record=True) as got_warns:
                warnings.simplefilter("always")
                got = _restricted_lstsq(basis, target_vec, mask)
            with warnings.catch_warnings(record=True) as want_warns:
                warnings.simplefilter("always")
                want = restricted_lstsq_reference(basis, target_vec, mask)
            assert np.array_equal(got, want)
            assert len(got_warns) == len(want_warns)
            ridge += bool(want_warns)
        assert 0 < ridge < 2000

    def test_hihtp_matches_loop_reference(self):
        # the shared stall rule replaces the mask-repeat rule: an unchanged mask
        # refits the same least squares, so the iterate repeats and the stall
        # rule fires on the same iteration.  The rules part only where the
        # iterate stalls while the mask still changes (entries whose fitted
        # value is zero or at rounding level trade places); hihtp now stops
        # there, at the former loop's state at that iteration, as settled.
        count = ridge = capped = zero = stopped_sooner = 0
        for basis, target, s, t, cfg in hihtp_cases():
            with warnings.catch_warnings(record=True) as got_warns:
                warnings.simplefilter("always")
                got = hihtp(basis, target, s, t, cfg)
            with warnings.catch_warnings(record=True) as want_warns:
                warnings.simplefilter("always")
                want, stall = hihtp_reference(basis, target, s, t, cfg)
            est, iterations, trace, converged, support = want
            if stall is not None and (stall[0] < iterations or not converged):
                iterations, est = stall
                trace, converged = trace[:iterations], True
                support = np.nonzero(np.any(est != 0.0, axis=0))[0]
                stopped_sooner += 1
            else:
                assert len(got_warns) == len(want_warns)
            case = (count, basis.shape, s, t, cfg.max_iters)
            assert np.array_equal(got.estimate, est), case
            assert got.iterations == iterations, case
            assert got.residual_trace == trace, case
            assert got.converged == converged, case
            assert np.array_equal(got.support, support), case
            count += 1
            ridge += bool(want_warns)
            capped += got.iterations == cfg.max_iters == 3
            zero += not np.any(target)
        assert count >= 1000
        assert ridge and capped and zero
        assert stopped_sooner


class TestBruteForce:
    def test_zero_measurements_give_zero(self):
        mp = sample_map("dense-gaussian", 6, 20, seed=24)
        res = brute_force_decode(mp, np.zeros(20), 2, 1)
        assert np.array_equal(res.estimate, np.zeros((6, 6)))

    def test_noiseless_recovery(self):
        mp, x, support = planted_instance("dense-gaussian", 8, 2, 1, 30, seed=1200)
        res = brute_force_decode(mp, mp.apply(x), 2, 1)
        assert np.linalg.norm(res.estimate - x) <= 1e-8
        assert res.residual_trace[0] <= 1e-10
        assert np.array_equal(res.support, support)

    def test_full_rank_matches_normal_equations(self):
        mp, x, _ = planted_instance("dense-gaussian", 6, 2, 2, 25, seed=25)
        rng = np.random.default_rng(26)
        y = mp.apply(x) + 0.05 * rng.standard_normal(25)
        res = brute_force_decode(mp, y, 2, 2)
        sup = res.support
        # independent refit of the winning support by explicit normal equations
        cols = []
        for a in range(2):
            for b in range(a, 2):
                basis = np.zeros((6, 6))
                basis[sup[a], sup[b]] = 1.0
                basis[sup[b], sup[a]] = 1.0
                cols.append(mp.apply(basis))
        design = np.stack(cols, axis=1)
        z = np.linalg.solve(design.T @ design, design.T @ y)
        block = res.estimate[np.ix_(sup, sup)]
        got = [block[0, 0], block[0, 1], block[1, 1]]
        assert np.allclose(got, z, atol=1e-8)

    def test_matches_loop_reference(self):
        # the decoder's former loops: a pair -> column dict over all pairs, then
        # per-support column lists, so lstsq sees the same design
        n, s = 6, 3
        mp = sample_map("dense-gaussian", n, 12, seed=28)
        y = np.random.default_rng(29).standard_normal(12)
        pair_index, cols = {}, []
        for i in range(n):
            for j in range(i, n):
                basis = np.zeros((n, n))
                basis[i, j] = basis[j, i] = 1.0
                pair_index[(i, j)] = len(cols)
                cols.append(mp.apply(basis))
        design_cols = np.stack(cols, axis=1)
        best = (np.inf, None)
        for cand in itertools.combinations(range(n), s):
            pairs = [(a, b) for a in range(s) for b in range(a, s)]
            design = design_cols[:, [pair_index[(cand[a], cand[b])] for a, b in pairs]]
            coeffs = np.linalg.lstsq(design, y, rcond=None)[0]
            obj = float(np.linalg.norm(y - design @ coeffs))
            if obj < best[0]:
                est = np.zeros((n, n))
                for val, (a, b) in zip(coeffs, pairs):
                    est[cand[a], cand[b]] = est[cand[b], cand[a]] = val
                best = (obj, est)
        res = brute_force_decode(mp, y, s, s)
        assert res.residual_trace[0] == best[0]
        assert np.array_equal(res.estimate, best[1])

    def test_l1_mode_recovers_noiseless(self):
        mp, x, _ = planted_instance("rank-one", 8, 2, 1, 30, seed=77)
        res = brute_force_decode(mp, mp.apply(x), 2, 1, noise_mode="l1")
        assert np.linalg.norm(res.estimate - x) <= 1e-6

    def test_too_few_measurements_rejected(self):
        mp = sample_map("dense-gaussian", 8, 2, seed=27)
        with pytest.raises(ValueError, match="unknowns"):
            brute_force_decode(mp, np.zeros(2), 2, 1)


class TestTailRestrictionAnalogue:
    def test_tail_joint_restriction_consistency(self):
        # when the tail support is inside the restriction set, projecting the
        # restriction gives the same output
        rng = np.random.default_rng(30)
        checked = 0
        for seed in range(20):
            m = sym_enforce(np.random.default_rng(seed + 500).standard_normal((8, 8)))
            out = tail_joint(m, 2, 1)
            sup = set(out.support.tolist())
            extra = [i for i in range(8) if i not in sup][:2]
            bigger = sorted(sup | set(extra))
            again = tail_joint(restrict(m, bigger), 2, 1)
            if np.array_equal(tail_bisparse(restrict(m, bigger), 2).support, out.support):
                checked += 1
                assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-12
        assert checked > 0


class TestDivergenceFlag:
    @pytest.mark.filterwarnings("ignore:overflow")
    def test_bad_beta_flags_not_converged(self):
        # a tiny beta makes the step size enormous and the iteration explode
        mp, x, _ = planted_instance("rank-one", 10, 2, 1, 60, seed=31)
        cfg = RecoveryConfig(step_beta=1e-6, max_iters=200)
        res = iht_rank_one(mp, mp.apply(x), 2, 1, cfg)
        assert not res.converged
        assert res.iterations < 200
