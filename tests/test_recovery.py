import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from bisparse import measurements, projections, recovery, symcore
from bisparse.measurements import (
    MeasurementMap,
    factorized_inner_map,
    sample_map,
    sample_structured,
)
from bisparse.projections import head_square_variant, hierarchical_mask, tail_bisparse, tail_joint
from bisparse.recovery import (
    RecoveryConfig,
    TOL_STALL,
    _fit,
    _iterate,
    _objective,
    _restricted_fit,
    _restricted_lstsq,
    brute_force_decode,
    hihtp,
    iht_exact,
    iht_head_tail,
    iht_lowrank,
    iht_rank_one,
    two_step_factorized,
)
from bisparse.symcore import _project_rank_vectors, _restrict, _top_eigen, project_rank
from helpers import isometry_map, sym


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


def head_tail_reference(mp, y, s, r, cfg, beta=None):
    """iht_head_tail (beta None) or iht_rank_one validating every step, with _iterate's rules.

    Every step calls the public head_square_variant, tail_joint, apply and adjoint, and every
    norm is np.linalg.norm.  Returns (estimate, residual trace, converged).
    """
    n = mp.n
    x = np.zeros((n, n))
    res = y.copy()
    ynorm = np.linalg.norm(y)
    trace, converged, grow = [], False, 0
    for _ in range(cfg.max_iters):
        if beta is None:
            nu, grad = 1.0, mp.adjoint(res)
        else:
            nu, grad = float(np.sum(np.abs(res))) / (beta * beta), mp.adjoint(np.sign(res))
        head = head_square_variant(grad, min(2 * s, n), min(2 * r, n)).matrix
        x_new = tail_joint(x + nu * head, s, r).matrix
        res = y - mp.apply(x_new)
        trace.append(float(np.linalg.norm(res)))
        step, prev = float(np.linalg.norm(x_new - x)), float(np.linalg.norm(x))
        x = x_new
        if trace[-1] <= cfg.tol_residual * ynorm:
            converged = True
            break
        if step <= TOL_STALL * prev:
            converged = prev > 0.0
            break
        if not np.isfinite(trace[-1]):
            break
        grow = grow + 1 if trace[-1] > recovery.DIVERGENCE_FACTOR * ynorm else 0
        if grow >= recovery.DIVERGENCE_PATIENCE:
            break
    return x, trace, converged


class TestMatchesValidatedLoop:
    """Whole solves follow a loop that validates every step, to rounding.

    The solvers measure each iterate on its support block and rank-project only that block,
    where the loop measures and projects n x n matrices; so the stops and supports are equal,
    and the estimates and residual traces agree to 1e-12 relative.
    """

    @staticmethod
    def _check(got, want, y):
        est, trace, converged = want
        assert got.iterations == len(trace)
        assert got.converged == converged
        assert np.array_equal(got.support, np.nonzero(np.any(est != 0.0, axis=0))[0])
        assert np.linalg.norm(got.estimate - est) <= 1e-12 * np.linalg.norm(est)
        assert np.max(np.abs(np.subtract(got.residual_trace, trace))) <= 1e-12 * np.linalg.norm(y)

    @pytest.mark.parametrize("n, m, noise, max_iters", [(12, 80, 0.0, 500), (12, 80, 0.05, 40),
                                                        (30, 475, 0.0, 500), (30, 475, 0.01, 60)])
    def test_head_tail(self, n, m, noise, max_iters):
        cfg = RecoveryConfig(max_iters=max_iters)
        outcomes = set()
        for seed in range(3):
            mp, x, _ = planted_instance("dense-gaussian", n, 2, 1, m, seed=6100 + seed)
            y = mp.apply(x) + noise * np.random.default_rng(seed).standard_normal(m)
            got = iht_head_tail(mp, y, 2, 1, cfg)
            self._check(got, head_tail_reference(mp, y, 2, 1, cfg), y)
            outcomes.add((got.converged, got.iterations == max_iters))
        # noiseless solves settle; some noisy ones run to the cap
        assert outcomes == {(True, False)} if noise == 0.0 else (False, True) in outcomes

    def test_rank_one_on_y_and_minus_y(self):
        cfg = RecoveryConfig(max_iters=60)
        stalled = capped = 0
        for seed in (5000, 5001, 5002, 5025):
            mp, x, _ = planted_instance("rank-one", 24, 2, 1, 300, seed=seed)
            beta = measurements.estimate_rip(mp, 4, 2, recovery.BETA_TRIALS,
                                             seed=recovery.BETA_SEED).beta_hat
            for y in (mp.apply(x), -mp.apply(x)):
                got = iht_rank_one(mp, y, 2, 1, cfg)
                self._check(got, head_tail_reference(mp, y, 2, 1, cfg, beta), y)
                stalled += got.converged and got.residual_trace[-1] > 1e-9 * np.linalg.norm(y)
                capped += got.iterations == cfg.max_iters
        assert stalled >= 2 and capped >= 2


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
        x = sym(np.random.default_rng(11).standard_normal((5, 5)))
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
            x = project_rank(sym(rng.standard_normal((p, p))), r)
            x /= np.linalg.norm(x)
            res = iht_lowrank(mp, mp.apply(x), r)
            hits += np.linalg.norm(res.estimate - x) <= 1e-6
        assert hits >= 45

    @pytest.mark.parametrize("inner_kind,r", [
        pytest.param("dense", 1, id="dense"), pytest.param("rank-one", 1, id="rank-one"),
        pytest.param("dense", 2, id="dense-r2"), pytest.param("rank-one", 2, id="rank-one-r2"),
        pytest.param("dense", 3, id="dense-r3"), pytest.param("rank-one", 3, id="rank-one-r3"),
    ])
    def test_odd_symmetry_bitwise(self, inner_kind, r):
        # the spectral start and every tangent basis come from the rank kernel's
        # sign-canonical evaluation, the same bits for y and -y; a basis taken from eigh
        # of the raw update breaks this.  r = 1 runs criterion 10's stage one, r >= 2
        # p = 16 maps, whose steps solve the gauge-pinned normal equations
        for t in range(10):
            if r == 1:
                inner, y = criterion_10_stage_one(t, inner_kind)
            else:
                kind = "dense-gaussian" if inner_kind == "dense" else "rank-one"
                inner = sample_map(kind, 16, 6 * r * 16, seed=7100 + t)
                rng = np.random.default_rng(8100 + t)
                y = inner.apply(project_rank(sym(rng.standard_normal((16, 16))), r))
            pos, neg = [], []
            a = iht_lowrank(inner, y, r, callback=pos.append)
            b = iht_lowrank(inner, -y, r, callback=neg.append)
            assert a.iterations == b.iterations == len(pos) == len(neg)
            for k, (u, v) in enumerate(zip(pos, neg)):
                assert np.array_equal(v, -u), (t, k)
            assert np.array_equal(b.estimate, -a.estimate)

    @pytest.mark.parametrize("inner_kind", ["dense", "rank-one"])
    def test_matches_dense_reference_loop(self, inner_kind):
        # the Gauss-Newton step done densely from the top eigenvector of A*(y) (by
        # magnitude, from eigh): a design column per tangent basis matrix U E^T + E U^T
        # measured with _apply, lstsq, and a full p x p rank projection of
        # x + U W^T + W U^T; iht_lowrank takes the same steps inside span{U, W}
        def dense_step(mp, y):
            vals, vecs = np.linalg.eigh(mp.adjoint(y))
            basis = vecs[:, [int(np.argmax(np.abs(vals)))]]

            def step(x, res):
                nonlocal basis
                cols = []
                for e in np.eye(basis.size):
                    h = basis @ e.reshape(basis.shape).T
                    cols.append(mp._apply(h + h.T))
                w = np.linalg.lstsq(np.stack(cols, axis=1), res, rcond=None)[0]
                h = basis @ w.reshape(basis.shape).T
                out, basis = _project_rank_vectors(sym(x + h + h.T), 1)
                return out, mp._apply(out)

            return step

        for t in range(5):
            inner, y = criterion_10_stage_one(t, inner_kind)
            ref, got = [], []
            want = _iterate(y, inner.n, dense_step(inner, y), RecoveryConfig(), ref.append)
            res = iht_lowrank(inner, y, 1, callback=got.append)
            assert res.iterations == want.iterations == len(got) == len(ref)
            for k, (a, b) in enumerate(zip(got, ref)):
                assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b), (t, k)

    def test_subspace_steps_measure_nothing_twice(self, monkeypatch):
        # a solve makes one adjoint and one _times for its spectral start; every step then
        # makes one _times, A_i U of its new basis, which measures the new iterate and is
        # the next step's design
        inner, y = criterion_10_stage_one(0)
        calls = {"_apply": 0, "_times": 0, "adjoint": 0}
        for name in calls:
            def counted(self, arg, _name=name, _orig=getattr(MeasurementMap, name)):
                calls[_name] += 1
                return _orig(self, arg)
            monkeypatch.setattr(MeasurementMap, name, counted)
        res = iht_lowrank(inner, y, 1)
        assert res.iterations > 2
        assert calls["adjoint"] == 1 and calls["_times"] == res.iterations + 1
        assert calls["_apply"] == 0

    def test_iteration_budget_on_criterion_10(self):
        # total stage-one iterations on criterion 10's first 20 instances (one BLAS
        # thread): 4467 with the full-gradient step, 918 with the Riemannian gradient
        # step, 100 with Gauss-Newton steps after a gradient step from zero, 80 with
        # Gauss-Newton steps from the spectral start
        total = 0
        for t in range(20):
            inner, y = criterion_10_stage_one(t)
            total += iht_lowrank(inner, y, 1).iterations
        assert total <= 100

    @pytest.mark.parametrize("kind,m", [("dense-gaussian", 15), ("rank-one", 10)])
    def test_fewer_measurements_than_tangent_dimensions(self, kind, m):
        # p = 20, r = 1: the tangent space has 20 dimensions, so every Gauss-Newton
        # least-squares problem is underdetermined and lstsq takes its minimum-norm solution
        mp = sample_map(kind, 20, m, seed=24)
        y = np.random.default_rng(25).standard_normal(m)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = iht_lowrank(mp, y, 1, RecoveryConfig(max_iters=100))
            zero = iht_lowrank(mp, np.zeros(m), 1)
        assert np.all(np.isfinite(res.estimate))
        assert np.array_equal(res.estimate, res.estimate.T)
        assert np.array_equal(zero.estimate, np.zeros((20, 20)))

    @pytest.mark.parametrize("r", [1, 2])
    def test_overdetermined_solve_calls_no_lstsq(self, monkeypatch, r):
        # with more measurements than tangent dimensions every Gauss-Newton step solves
        # the pinned normal equations; lstsq is left for underdetermined or singular systems
        if r == 1:
            inner, y = criterion_10_stage_one(0)
        else:
            inner = sample_map("dense-gaussian", 16, 6 * r * 16, seed=7000)
            rng = np.random.default_rng(8000)
            y = inner.apply(project_rank(sym(rng.standard_normal((16, 16))), r))
        calls = []
        lstsq = np.linalg.lstsq
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        res = iht_lowrank(inner, y, r)
        assert res.iterations > 2 and res.converged
        assert calls == []

    def test_rank_one_payload_variant(self):
        p, r = 12, 1
        mp = sample_map("rank-one", p, 8 * p, seed=12)
        rng = np.random.default_rng(13)
        g = rng.standard_normal(p)
        x = np.outer(g, g) - 0.5 * project_rank(sym(rng.standard_normal((p, p))), 1)
        x = project_rank(sym(x), r)
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

    def test_rank_deficient_fit_is_least_norm_without_warning(self):
        # a single-row basis makes the restricted system 1 x k, k > 1
        basis = np.array([[1.0, 2.0, 0.5]])
        mask = np.array([[True, True, False], [False, True, False], [True, False, True]])
        idx = np.argwhere(mask)
        design = np.array([[basis[0, i] * basis[0, j] for i, j in idx]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _restricted_lstsq(basis, np.array([4.0]), mask)
            res = hihtp(basis, np.array([[4.0]]), 2, 1, RecoveryConfig(max_iters=3))
        assert np.allclose(got[mask], np.linalg.pinv(design) @ [4.0], rtol=1e-12, atol=0)
        assert not got[~mask].any()
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
        # the last residual is the measurement residual of the returned estimate, measured on
        # its support block, and converged also needs it within sqrt(tol_residual) of ||y||
        rnorm = combined.residual_trace[-1]
        assert abs(rnorm - np.linalg.norm(y - mp.apply(combined.estimate))) <= (
            1e-12 * np.linalg.norm(y))
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
        assert abs(res.residual_trace[-1] - np.linalg.norm(y - mp.apply(res.estimate))) <= (
            1e-12 * np.linalg.norm(y))
        assert res.residual_trace[-1] > 0.1 * np.linalg.norm(y)

    def test_injected_stage_one_output(self):
        # bypassing stage one with the exact lifted matrix isolates HiHTP
        n, s, r = 30, 2, 1
        p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
        mp, x, _ = planted_instance("factorized", n, s, r, 50, seed=23, p=p)
        lifted = mp.basis @ x @ mp.basis.T
        res = hihtp(mp.basis, lifted, s, s)
        assert np.linalg.norm(res.estimate - x) <= 1e-6

    @pytest.mark.parametrize("inner", ["dense", "rank-one"])
    def test_final_residual_on_the_support_block_matches_apply(self, inner):
        # recovered and failed solves (s + 2 active indices solved at s) on both inner kinds
        for seed, active in itertools.product(range(6), (2, 4)):
            mp = sample_map("factorized", 12, 60, p=16, seed=50 + seed, inner=inner)
            x, _ = sample_structured(12, active, 1, np.random.default_rng(60 + seed))
            y = mp.apply(x)
            res = two_step_factorized(mp, y, 2, 1)
            assert res.support.size
            block = res.estimate[np.ix_(res.support, res.support)]
            got = mp._apply_blocks(res.support[None], block[None])[0]
            want = mp._apply(res.estimate)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
            assert abs(res.residual_trace[-1] - np.linalg.norm(y - want)) <= (
                1e-12 * np.linalg.norm(y))

    def test_zero_estimate_residual_is_the_norm_of_y(self):
        mp = sample_map("factorized", 8, 30, p=10, seed=24)
        y = np.random.default_rng(25).standard_normal(30)
        zero = np.zeros((8, 8))
        assert recovery._final_residual(mp, y, zero, np.zeros(0, dtype=int)) == np.linalg.norm(y)
        # through the solver: y = 0 gives the zero estimate and an empty support
        res = two_step_factorized(mp, np.zeros(30), 1, 1)
        assert not res.estimate.any() and res.residual_trace[-1] == 0.0


def restricted_lstsq_reference(basis, target_vec, mask):
    """_restricted_lstsq before its design was built from index arrays: one np.outer per
    entry.  Returns the fit and whether lstsq found the system rank-deficient."""
    n = mask.shape[0]
    idx = np.argwhere(mask)
    design = np.stack([np.outer(basis[:, i], basis[:, j]).ravel() for i, j in idx], axis=1)
    sol, _, rank, _ = np.linalg.lstsq(design, target_vec, rcond=None)
    out = np.zeros((n, n))
    out[idx[:, 0], idx[:, 1]] = sol
    return out, rank < design.shape[1]


def hihtp_reference(basis, target, s, t, cfg):
    """hihtp before it ran on _iterate: its own loop, which stopped on the
    residual or when the mask repeated.

    Returns (estimate, iterations, residual trace, converged, support),
    (iterations, estimate, settled) at the first iterate that moved by at most
    TOL_STALL of the previous one's norm, or None when none did before the loop
    stopped, and the number of rank-deficient fits; `settled` is false when that
    iterate and the previous one are both zero.  The fit is the module's kernel, fed the same
    B^T B and B^T Yhat B as hihtp; the reference's outer-product lstsq counts the
    rank-deficient fits.
    """
    b = np.asarray(basis, dtype=float)
    yhat = np.asarray(target, dtype=float)
    n = b.shape[1]
    gram, projected = b.T @ b, b.T @ yhat @ b
    tau = float(np.trace(gram)) / n
    scale = tau * tau
    target_vec = yhat.ravel()
    tnorm = float(np.linalg.norm(yhat))
    x = np.zeros((n, n))
    prev_mask = None
    trace = []
    converged = False
    stall = None
    deficient = 0
    for _ in range(cfg.max_iters):
        grad = b.T @ (yhat - b @ x @ b.T) @ b / scale
        mask = hierarchical_mask(x + grad, s, t)
        x_prev, x = x, _restricted_fit(b, target_vec, mask, gram, projected)
        deficient += restricted_lstsq_reference(b, target_vec, mask)[1]
        rnorm = float(np.linalg.norm(yhat - b @ x @ b.T))
        trace.append(rnorm)
        if stall is None and np.linalg.norm(x - x_prev) <= TOL_STALL * np.linalg.norm(x_prev):
            stall = (len(trace), (x + x.T) / 2.0, bool(np.any(x_prev)))
        if prev_mask is not None and np.array_equal(mask, prev_mask):
            converged = True
            break
        if rnorm <= cfg.tol_residual * tnorm:
            converged = True
            break
        prev_mask = mask
    est = (x + x.T) / 2.0
    support = np.nonzero(np.any(est != 0.0, axis=0))[0]
    return (est, len(trace), trace, converged, support), stall, deficient


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
            noisy = lift + noise * sym(rng.standard_normal((p, p)))
            for t in sorted({1, s, min(s + 2, n)}):
                yield basis, noisy, s, t, cfgs[k % 3]
    # small random cases: square and non-symmetric targets, rank-deficient fits
    # where p * p < s * t, the iteration cap, zero targets, and targets outside the
    # range of B, whose first fit is zero
    for k in range(600):
        p, n = (int(v) for v in rng.integers(1, 8, size=2))
        s, t = (int(v) for v in rng.integers(1, n + 1, size=2))
        basis = rng.standard_normal((p, n))
        target = rng.standard_normal((p, p)) if k % 10 else np.zeros((p, p))
        if k % 2:
            target = sym(target)
        if k % 50 == 7:
            basis = np.vstack([basis, np.zeros((1, n))])
            target = np.zeros((p + 1, p + 1))
            target[p, p] = 1.0
        yield basis, target, s, t, cfgs[k % 3]


class TestHihtpMatchesLoopReference:
    def test_restricted_lstsq_matches_outer_product_columns(self):
        rng = np.random.default_rng(4000)
        deficient = 0
        for _ in range(2000):
            p, n = (int(v) for v in rng.integers(1, 9, size=2))
            basis = rng.standard_normal((p, n))
            mask = rng.random((n, n)) < rng.random()
            mask[rng.integers(n), rng.integers(n)] = True
            target_vec = rng.standard_normal(p * p)
            want, rank_deficient = restricted_lstsq_reference(basis, target_vec, mask)
            assert np.array_equal(_restricted_lstsq(basis, target_vec, mask), want)
            deficient += rank_deficient
        assert 0 < deficient < 2000

    def test_gram_fit_matches_outer_product_lstsq(self, monkeypatch):
        # full-rank systems that the Gram fit solves agree with lstsq to 1e-10 relative when
        # the design is well conditioned; both are then within a few kappa^2 eps of the true
        # fit, kappa the design's condition number, so the gap is bounded by that in general.
        # Rank-deficient and underdetermined systems go to _restricted_lstsq: lstsq's bits
        fallbacks = []

        def counted(*args):
            fallbacks.append(1)
            return _restricted_lstsq(*args)

        monkeypatch.setattr(recovery, "_restricted_lstsq", counted)
        rng = np.random.default_rng(4100)
        solved = worst_conditioned = 0
        for _ in range(2000):
            p, n = (int(v) for v in rng.integers(1, 9, size=2))
            basis = rng.standard_normal((p, n))
            mask = rng.random((n, n)) < rng.random()
            mask[rng.integers(n), rng.integers(n)] = True
            target = rng.standard_normal((p, p))
            want, rank_deficient = restricted_lstsq_reference(basis, target.ravel(), mask)
            before = len(fallbacks)
            got = _restricted_fit(basis, target.ravel(), mask, basis.T @ basis,
                                  basis.T @ target @ basis)
            if len(fallbacks) > before or rank_deficient or p * p < mask.sum():
                assert len(fallbacks) > before
                assert np.array_equal(got, want)
                continue
            solved += 1
            idx = np.argwhere(mask)
            design = (basis[:, None, idx[:, 0]] * basis[None, :, idx[:, 1]]).reshape(p * p, -1)
            kappa = np.linalg.cond(design)
            worst_conditioned = max(worst_conditioned, kappa)
            bound = 1e-10 if kappa <= 1e3 else 1e-15 * kappa ** 2
            assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
            assert not got[~mask].any()
        assert solved >= 500 and len(fallbacks) >= 500
        assert worst_conditioned > 1e3

    def test_hihtp_matches_loop_reference(self):
        # the shared stall rule replaces the mask-repeat rule: an unchanged mask
        # refits the same least squares, so the iterate repeats and the stall
        # rule fires on the same iteration.  The rules part only where the
        # iterate stalls while the mask still changes (entries whose fitted
        # value is zero or at rounding level trade places); hihtp now stops
        # there, at the former loop's state at that iteration, as settled,
        # unless it is stuck at the zero matrix (a target outside the range of B).
        count = deficient = capped = zero = stopped_sooner = stuck_at_zero = 0
        for basis, target, s, t, cfg in hihtp_cases():
            got = hihtp(basis, target, s, t, cfg)
            want, stall, rank_deficient = hihtp_reference(basis, target, s, t, cfg)
            est, iterations, trace, converged, support = want
            if stall is not None and (stall[0] < iterations or not converged):
                iterations, est, converged = stall
                trace = trace[:iterations]
                support = np.nonzero(np.any(est != 0.0, axis=0))[0]
                stopped_sooner += 1
            case = (count, basis.shape, s, t, cfg.max_iters)
            assert np.array_equal(got.estimate, est), case
            assert got.iterations == iterations, case
            assert got.residual_trace == trace, case
            assert got.converged == converged, case
            assert np.array_equal(got.support, support), case
            count += 1
            deficient += bool(rank_deficient)
            capped += got.iterations == cfg.max_iters == 3
            zero += not np.any(target)
            stuck_at_zero += np.any(target) and not got.estimate.any() and not got.converged
        assert count >= 1000
        assert deficient and capped and zero and stuck_at_zero
        assert stopped_sooner


def polish_rank_reference(design, tri, y, block, r, mode, rounds=25):
    """_polish_rank before it took its eigenvectors from its own rank projection: each
    round rank-projected the last fit and then eigendecomposed the projection."""
    best_block = project_rank(block, r)
    best_obj = _objective(y - design @ best_block[tri], mode)
    current = best_block
    core_pairs = [(a, b) for a in range(r) for b in range(a, r)]
    for _ in range(rounds):
        vecs = _top_eigen(project_rank(current, r), r)[1]
        terms = []
        for a, b in core_pairs:
            term = np.outer(vecs[:, a], vecs[:, b])
            terms.append(term + term.T if a != b else term)
        core = _fit(np.stack([design @ term[tri] for term in terms], axis=1), y, mode)
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


MAP_LAYOUTS = [("dense-gaussian", {}), ("rank-one", {}), ("factorized", {"p": 5}),
               ("factorized", {"p": 5, "inner": "rank-one"})]


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

    @pytest.mark.parametrize("kind,kwargs", [("rank-one", {}),
                                             ("factorized", {"p": 3, "inner": "rank-one"})])
    def test_oversized_design_refused_before_allocating(self, kind, kwargs):
        # C(2000, 2) supports pass ENUMERATION_CAP, but the pair design would hold
        # 100 * 2000 * 2001 / 2 entries (1.6 GB)
        mp = sample_map(kind, 2000, 100, seed=1, **kwargs)
        assert math.comb(2000, 2) <= projections.ENUMERATION_CAP
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="pair design of 200100000 entries exceeds the cap"):
                brute_force_decode(mp, np.zeros(100), 2, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**7

    @pytest.mark.parametrize("kind,kwargs", MAP_LAYOUTS)
    def test_pair_design_matches_per_pair_reference(self, kind, kwargs):
        # the design before it was preallocated: a fresh basis matrix per pair, then a stack
        n = 7
        mp = sample_map(kind, n, 18, seed=31, **kwargs)
        cols = []
        for i, j in zip(*np.triu_indices(n)):
            basis = np.zeros((n, n))
            basis[i, j] = basis[j, i] = 1.0
            cols.append(mp.apply(basis))
        want = np.stack(cols, axis=1)
        got = recovery._pair_basis_columns(mp)
        assert got.flags.c_contiguous
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("mode", ["l2", "l1"])
    @pytest.mark.parametrize("kind,kwargs", MAP_LAYOUTS)
    def test_polish_matches_double_eigendecomposition_reference(self, monkeypatch, kind, kwargs,
                                                                mode):
        def refuse(*args):
            raise AssertionError("a decode called project_rank")

        n, s, m = 6, 3, 20
        for k, r in enumerate((1, 2)):
            mp, x, _ = planted_instance(kind, n, s, r, m, seed=5100 + k, **kwargs)
            y = mp.apply(x)
            noise = np.random.default_rng(k).standard_normal(m)
            y = y + 0.05 * np.linalg.norm(y) / np.sqrt(m) * noise
            with monkeypatch.context() as patched:
                for module in (symcore, projections, recovery):
                    patched.setattr(module, "project_rank", refuse, raising=False)
                got = brute_force_decode(mp, y, s, r, mode)
            with monkeypatch.context() as patched:
                patched.setattr(recovery, "_polish_rank", polish_rank_reference)
                want = brute_force_decode(mp, y, s, r, mode)
            assert np.array_equal(got.support, want.support)
            gap = np.linalg.norm(got.estimate - want.estimate)
            assert gap <= 1e-10 * np.linalg.norm(want.estimate)
            assert got.residual_trace[0] == pytest.approx(want.residual_trace[0], rel=1e-10)

    def test_non_finite_pair_design_refused(self):
        sampled = sample_map("dense-gaussian", 6, 12, seed=32)
        matrices = sampled.matrices.copy()
        matrices[3, 4, 5] = np.nan
        mp = MeasurementMap("dense-gaussian", 6, 12, matrices=matrices)
        with pytest.raises(ValueError, match="pair design has non-finite entries"):
            brute_force_decode(mp, np.ones(12), 2, 1)

    @pytest.mark.parametrize("r", [1, 2])
    def test_no_finite_objective_refused(self, r):
        # finite measurements whose residual norms all overflow
        mp = sample_map("dense-gaussian", 6, 12, seed=33)
        y = 1e200 * np.random.default_rng(34).standard_normal(12)
        with np.errstate(over="ignore"), pytest.raises(ValueError,
                                                       match="no support has a finite objective"):
            brute_force_decode(mp, y, 2, r)


class TestTailRestrictionAnalogue:
    def test_tail_joint_restriction_consistency(self):
        # when the tail support is inside the restriction set, projecting the
        # restriction gives the same output
        rng = np.random.default_rng(30)
        checked = 0
        for seed in range(20):
            m = sym(np.random.default_rng(seed + 500).standard_normal((8, 8)))
            out = tail_joint(m, 2, 1)
            sup = set(out.support.tolist())
            extra = [i for i in range(8) if i not in sup][:2]
            bigger = _restrict(m, np.array(sorted(sup | set(extra))))
            again = tail_joint(bigger, 2, 1)
            if np.array_equal(tail_bisparse(bigger, 2).support, out.support):
                checked += 1
                assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-12
        assert checked > 0


class TestDivergenceFlag:
    def test_bad_beta_flags_not_converged(self):
        # an injected payload 10x its N(0, 1/m) scale makes the unit step
        # overshoot by about 100x, so the iteration explodes
        sampled, x, _ = planted_instance("dense-gaussian", 10, 2, 1, 60, seed=31)
        mp = MeasurementMap("dense-gaussian", 10, 60, matrices=10 * sampled.matrices)
        cfg = RecoveryConfig(max_iters=200)
        res = iht_head_tail(mp, mp.apply(x), 2, 1, cfg)
        assert not res.converged
        assert res.iterations < 200


# one head-tail n=30 solve and one rank-one y / -y pair; prints a digest of the estimates
THREADS_SCRIPT = """
import hashlib
import numpy as np
from bisparse.measurements import sample_map, sample_structured
from bisparse.recovery import iht_head_tail, iht_rank_one
digest = hashlib.sha256()
for kind, n, m, solver, signs in (("dense-gaussian", 30, 475, iht_head_tail, (1,)),
                                  ("rank-one", 24, 300, iht_rank_one, (1, -1))):
    mp = sample_map(kind, n, m, seed=5002)
    x, _ = sample_structured(n, 2, 1, np.random.default_rng(105002))
    for sign in signs:
        res = solver(mp, sign * mp.apply(x), 2, 1)
        digest.update(res.estimate.tobytes())
        digest.update(str(res.iterations).encode())
print(digest.hexdigest())
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # apply and adjoint are BLAS matrix-vector products, which may split work across threads
    src = Path(__file__).resolve().parent.parent / "src"
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-c", THREADS_SCRIPT], env=env, capture_output=True,
                              text=True, check=True, timeout=300)
        digests.append(proc.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


class TestStuckAtZero:
    def test_stall_at_the_zero_matrix_is_not_converged(self):
        # an all-zero map keeps every iterate at zero, so the stall rule fires at once
        mp = MeasurementMap("dense-gaussian", 6, 20, matrices=np.zeros((20, 6, 6)))
        res = iht_head_tail(mp, np.ones(20), 2, 1)
        assert res.iterations == 1 and not res.converged
        assert res.residual_trace == [math.sqrt(20)] and not res.estimate.any()

    def test_zero_measurements_still_converge_at_zero(self):
        mp = MeasurementMap("dense-gaussian", 6, 20, matrices=np.zeros((20, 6, 6)))
        assert iht_head_tail(mp, np.zeros(20), 2, 1).converged

    @pytest.mark.parametrize("value", [1.0, 0.0])
    def test_rank_one_refuses_a_zero_beta(self, value):
        mp = MeasurementMap("rank-one", 6, 20, vectors=np.zeros((20, 6)))
        with pytest.raises(ValueError, match="beta is 0"):
            iht_rank_one(mp, np.full(20, value), 2, 1)


class TestStepValidation:
    """The head-tail step validates at the start of a solve, then runs unchecked kernels."""

    @staticmethod
    def _nan_payload(kind):
        sampled, x, _ = planted_instance(kind, 10, 2, 1, 60, seed=31)
        payload = (sampled.vectors if kind == "rank-one" else sampled.matrices).copy()
        payload[3, 4] = np.nan
        field = "vectors" if kind == "rank-one" else "matrices"
        mp = MeasurementMap(kind, 10, 60, **{field: payload})
        return mp, sampled.apply(x)

    @pytest.mark.parametrize("kind, solver", [("rank-one", iht_rank_one),
                                              ("dense-gaussian", iht_head_tail)])
    def test_nan_payload_fails_as_non_finite(self, kind, solver):
        mp, y = self._nan_payload(kind)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError,
                                                          match="matrix entries must be finite"):
            solver(mp, y, 2, 1)

    def test_overflow_after_the_first_step_fails_as_non_finite(self):
        # a 1e200 payload on 1e-270 measurements: the first step and its residual
        # are finite, the second gradient overflows, so the unchecked kernels'
        # finiteness check is the one that fires
        sampled, x, _ = planted_instance("dense-gaussian", 10, 2, 1, 60, seed=31)
        mp = MeasurementMap("dense-gaussian", 10, 60, matrices=1e200 * sampled.matrices)
        steps = []
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="matrix entries must be finite"):
            iht_head_tail(mp, 1e-270 * sampled.apply(x), 2, 1, callback=steps.append)
        assert len(steps) == 1 and np.all(np.isfinite(steps[0])) and np.any(steps[0])

    @pytest.mark.parametrize("kind, solver, n, m", [("rank-one", iht_rank_one, 24, 300),
                                                    ("dense-gaussian", iht_head_tail, 16, 60)])
    def test_check_sym_calls_do_not_grow_with_iterations(self, monkeypatch, kind, solver, n, m):
        calls = []
        original = symcore.check_sym

        def counting(mat):
            calls.append(1)
            return original(mat)

        for module in (symcore, projections, measurements):
            monkeypatch.setattr(module, "check_sym", counting)
        mp, x, _ = planted_instance(kind, n, 2, 1, m, seed=8)
        y = mp.apply(x)
        counts, iterations = [], []
        for max_iters in (2, 20):
            calls.clear()
            res = solver(mp, y, 2, 1, RecoveryConfig(max_iters=max_iters))
            counts.append(len(calls))
            iterations.append(res.iterations)
        assert iterations[0] == 2 and iterations[1] > 10
        assert counts[0] == counts[1]


def _stage_one(mp, y, s, r):
    return iht_lowrank(factorized_inner_map(mp), y, r)


# every solver of a map and m = 12 measurements, called as solver(map, y, s=2, r=1)
MAP_SOLVERS = [
    (two_step_factorized, "factorized", {"p": 5}),
    (brute_force_decode, "dense-gaussian", {}),
    (iht_exact, "dense-gaussian", {}),
    (iht_head_tail, "dense-gaussian", {}),
    (iht_rank_one, "rank-one", {}),
    (_stage_one, "factorized", {"p": 5}),
]
# finite measurements whose 2-norm overflows float64
OVERFLOWING = [np.full(12, 1e200), np.r_[np.ones(11), 1.7e308]]


class TestMeasurementValidation:
    """Every solver refuses measurements that are not m finite values before solving."""

    @pytest.mark.parametrize("solver, kind, kwargs", MAP_SOLVERS)
    @pytest.mark.parametrize("y, message", [
        (np.r_[np.ones(11), np.nan], "measurements must be finite"),
        (np.r_[np.ones(11), -np.inf], "measurements must be finite"),
        (np.ones(11), r"expected 12 measurements, got shape \(11,\)"),
    ])
    def test_bad_measurements_refused(self, solver, kind, kwargs, y, message):
        mp = sample_map(kind, 6, 12, seed=35, **kwargs)
        with pytest.raises(ValueError, match=message) as info:
            solver(mp, y, 2, 1)
        assert not isinstance(info.value, np.linalg.LinAlgError)

    @pytest.mark.parametrize("solver, kind, kwargs",
                             [case for case in MAP_SOLVERS if case[0] is not brute_force_decode])
    @pytest.mark.parametrize("y", OVERFLOWING)
    def test_overflowing_norm_refused(self, solver, kind, kwargs, y):
        # the residual rule compares against ||y||; at ||y|| = inf any residual would pass it.
        # brute_force_decode has no residual rule; test_no_finite_objective_refused covers it
        mp = sample_map(kind, 6, 12, seed=35, **kwargs)
        with pytest.raises(ValueError, match="^the norm of the measurements overflows$"):
            solver(mp, y, 2, 1)

    @pytest.mark.parametrize("fault, message", [
        ("nan target", "basis and target must be finite"),
        ("inf target", "basis and target must be finite"),
        ("nan basis", "basis and target must be finite"),
        ("short target", r"expected a 5 x 5 target, got shape \(4, 5\)"),
        ("overflowing target", "the norm of the measurements overflows"),
    ])
    def test_hihtp_refuses_bad_input(self, fault, message):
        rng = np.random.default_rng(36)
        basis = rng.standard_normal((5, 6))
        target = basis @ np.diag([1.0, 0, 0, 0, 0, 0]) @ basis.T
        if fault == "nan target":
            target[2, 3] = np.nan
        elif fault == "inf target":
            target[0, 0] = np.inf
        elif fault == "nan basis":
            basis[1, 4] = np.nan
        elif fault == "short target":
            target = target[:4]
        else:
            target = np.full((5, 5), 1e200)
        with pytest.raises(ValueError, match=message):
            hihtp(basis, target, 1, 1)

    @pytest.mark.parametrize("fault, message", [
        ("basis", "^the basis Gram matrix B\\^T B overflows$"),
        ("target", "^the projected target B\\^T Y B overflows$"),
    ])
    def test_hihtp_refuses_overflowing_gram_products_at_its_door(self, fault, message):
        # finite inputs, and a target of finite norm, whose products overflow; the fit used to
        # fail inside LAPACK, or a matmul raised a RuntimeWarning (an error under the suite's
        # filter)
        basis = np.random.default_rng(37).standard_normal((6, 5))
        target = np.eye(6)
        if fault == "basis":
            basis *= 1e160
        else:
            basis *= 1e80
            target[0, 0] = 1e150
        assert np.all(np.isfinite(basis)) and np.isfinite(np.linalg.norm(target))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                hihtp(basis, target, 2, 2)

    def test_hihtp_refuses_an_empty_basis_at_its_door(self):
        # p = 0 would divide 0/0 in the first gradient, a RuntimeWarning under the suite's filter
        with pytest.raises(ValueError, match=r"basis matrix with p >= 1, got shape \(0, 3\)"):
            hihtp(np.zeros((0, 3)), np.zeros((0, 0)), 1, 1)
