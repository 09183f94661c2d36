"""Properties of the pieces behind iht_lowrank's Gauss-Newton step.

At a rank-r symmetric matrix x = U L U^T, the tangent space of the rank-r
manifold is {U W^T + W U^T}, and P_T(G) = UU^T G + G UU^T - UU^T G UU^T is the
orthogonal projection onto it.  The solver measures a tangent matrix through
the stack A_i U of `MeasurementMap._times`, since A_i(U W^T + W U^T) =
2 <A_i U, W> for symmetric A_i, and takes W from the least squares of
`_tangent_lstsq` on that design; the bases come from the rank kernel the
solver uses.  `_normal_solve` is the pivot rule behind that least squares and HiHTP's
restricted fit: it solves the normal equations of a design of full column rank, and
refuses an underdetermined, rank-deficient or ill-conditioned one, which then goes to lstsq.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse.measurements import MeasurementMap, sample_map  # noqa: E402
from bisparse.recovery import _normal_solve, _tangent_lstsq  # noqa: E402
from bisparse.symcore import _project_rank_vectors, project_rank  # noqa: E402
from helpers import sym  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


def tangent_project(u, g):
    """P_T(G) = UU^T G + G UU^T - UU^T G UU^T for an orthonormal basis u."""
    uu = u @ u.T
    return uu @ g + g @ uu - uu @ g @ uu


@st.composite
def tangent_case(draw, overdetermined=False):
    """A small map of each kind, an iterate x of rank <= r, its kept basis u, and a residual.

    With overdetermined=True the map has at least twice as many measurements as the
    tangent space has dimensions, n r - r (r - 1) / 2.
    """
    kind, inner = draw(st.sampled_from([("dense-gaussian", "dense"), ("rank-one", "dense"),
                                        ("factorized", "dense"), ("factorized", "rank-one")]))
    n = draw(st.integers(1, 9))
    r = draw(st.integers(1, min(n, 3)))
    seed = draw(st.integers(0, 2**32 - 1))
    p = n + 2 if kind == "factorized" else None
    low = 2 * (n * r - r * (r - 1) // 2) if overdetermined else 1
    mp = sample_map(kind, n, draw(st.integers(low, low + 29)), p=p, seed=seed, inner=inner)
    rng = np.random.default_rng(seed)
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    out, vecs = _project_rank_vectors(sym(rng.standard_normal((n, n))), r)
    return mp, out, vecs, rng.standard_normal(mp.m) * scale


def tangent_matrix(u, w):
    h = u @ w.T
    return h + h.T


@SETTINGS
@hypothesis.given(tangent_case(), st.integers(0, 2**32 - 1))
def test_times_measures_tangent_matrices_like_the_map(case, seed):
    mp, _, u, _ = case
    w = np.random.default_rng(seed).standard_normal(u.shape)
    times = mp._times(u)
    assert times.shape == (mp.m, mp.n, u.shape[1])
    got = 2.0 * times.reshape(mp.m, -1) @ w.ravel()
    want = mp._apply(tangent_matrix(u, w))
    assert np.linalg.norm(got - want) <= 1e-12 * max(float(np.linalg.norm(want)), 1e-300)


@SETTINGS
@hypothesis.given(tangent_case())
def test_times_measures_the_iterate_like_the_map(case):
    # the solver measures x = U L U^T as <A_i U, x U>
    mp, x, u, _ = case
    got = mp._times(u).reshape(mp.m, -1) @ (x @ u).ravel()
    want = mp._apply(x)
    assert np.linalg.norm(got - want) <= 1e-12 * max(float(np.linalg.norm(want)), 1e-300)


@SETTINGS
@hypothesis.given(tangent_case())
def test_fixes_the_iterate(case):
    # the step and the iterate lie in the tangent space, so the update x + U W^T + W U^T
    # that the solver retracts inside span{U, W} does too
    mp, x, u, res = case
    step = tangent_matrix(u, _tangent_lstsq(mp._times(u), u, res))
    for mat in (step, x, x + step):
        atol = 1e-12 * max(1.0, float(np.max(np.abs(mat))))
        assert np.allclose(tangent_project(u, mat), mat, rtol=0.0, atol=atol)


@SETTINGS
@hypothesis.given(tangent_case())
def test_step_solves_the_tangent_least_squares(case):
    # the normal equations: the residual after the step is orthogonal to every A_i U column
    mp, _, u, res = case
    design = 2.0 * mp._times(u).reshape(mp.m, -1)
    left = res - mp._apply(tangent_matrix(u, _tangent_lstsq(mp._times(u), u, res)))
    bound = 1e-10 * float(np.linalg.norm(design)) * max(float(np.linalg.norm(res)), 1e-300)
    assert np.linalg.norm(design.T @ left) <= bound


@SETTINGS
@hypothesis.given(tangent_case())
def test_exactly_odd(case):
    # the step's W, and with it every later piece of the step, is exactly odd in res
    mp, _, u, res = case
    times = mp._times(u)
    assert np.array_equal(_tangent_lstsq(times, u, -res), -_tangent_lstsq(times, u, res))


@SETTINGS
@hypothesis.given(tangent_case(overdetermined=True))
def test_overdetermined_step_matches_lstsq(case):
    # the pinned normal equations give lstsq's tangent matrix, and a W with no gauge
    # component U S (S antisymmetric), i.e. with U^T W symmetric
    mp, _, u, res = case
    times = mp._times(u)
    w = _tangent_lstsq(times, u, res)
    want = np.linalg.lstsq(times.reshape(mp.m, -1), res, rcond=None)[0].reshape(u.shape) / 2.0
    step, want_step = tangent_matrix(u, w), tangent_matrix(u, want)
    assert np.linalg.norm(step - want_step) <= 1e-10 * max(float(np.linalg.norm(want_step)),
                                                            1e-300)
    core = u.T @ w
    assert np.linalg.norm(core - core.T) <= 1e-12 * max(float(np.linalg.norm(w)), 1e-300)


def test_repeated_measurements_step_matches_lstsq():
    # 32 measurements that are 8 distinct matrices repeated 4 times: the p = 12, r = 1
    # design has rank 8 < 12 although m >= 12, so its Gram matrix is singular beyond the
    # gauge; the step must still be lstsq's least-norm tangent matrix
    base = sample_map("dense-gaussian", 12, 8, seed=5)
    mp = MeasurementMap("dense-gaussian", 12, 32, matrices=np.tile(base.matrices, (4, 1, 1)))
    rng = np.random.default_rng(6)
    y = mp._apply(project_rank(sym(rng.standard_normal((12, 12))), 1))
    u = _project_rank_vectors(mp.adjoint(y), 1)[1]
    times = mp._times(u)
    want = np.linalg.lstsq(times.reshape(32, -1), y, rcond=None)[0].reshape(u.shape) / 2.0
    got = tangent_matrix(u, _tangent_lstsq(times, u, y))
    want_step = tangent_matrix(u, want)
    assert np.linalg.norm(got - want_step) <= 1e-10 * np.linalg.norm(want_step)


@st.composite
def normal_case(draw):
    """A design D and target b of each shape the fits meet, with kind and perturbation size.

    "generic": Gaussian D with at least as many rows as columns, its columns scaled apart by
    up to 1e3; "wide": fewer rows than columns (p < n); "repeated": one column a scaled copy
    of another; "near": one column such a copy up to a relative perturbation delta.
    """
    kind = draw(st.sampled_from(["generic", "wide", "repeated", "near"]))
    cols = draw(st.integers(1 if kind == "generic" else 2, 8))
    rows = draw(st.integers(1, cols - 1) if kind == "wide" else st.integers(cols, 3 * cols + 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    design = rng.standard_normal((rows, cols))
    if kind == "generic":
        design *= 10.0 ** rng.uniform(-1.5, 1.5, size=cols)
    delta = 10.0 ** -draw(st.integers(2, 16)) if kind == "near" else 0.0
    if kind in ("repeated", "near"):
        i, j = rng.choice(cols, size=2, replace=False)
        design[:, j] = draw(st.sampled_from([-3.0, 1.0, 1e-4])) * design[:, i]
        design[:, j] += delta * np.linalg.norm(design[:, j]) * rng.standard_normal(rows)
    return kind, delta, design, rng.standard_normal(rows)


def normal_solve(design, target):
    return _normal_solve(design.T @ design, design.T @ target, len(design))


@SETTINGS
@hypothesis.given(normal_case())
def test_normal_solve_refuses_wide_and_repeated_designs(case):
    kind, delta, design, target = case
    if kind == "wide" or kind == "repeated" or kind == "near" and delta <= 1e-9:
        assert normal_solve(design, target) is None


@SETTINGS
@hypothesis.given(normal_case())
def test_normal_solve_is_lstsq_where_it_solves(case):
    # a solved system agrees with lstsq to the accuracy both reach (kappa^2 eps, kappa the
    # design's condition number).  A refused tall one has a Gram squared pivot <= 1e-5 of its
    # diagonal, and each squared pivot is at least the Gram's smallest eigenvalue, so kappa^2
    # >= 1e5; a tall design with a smaller kappa is always solved
    _, _, design, target = case
    got = normal_solve(design, target)
    kappa = np.linalg.cond(design)
    if len(design) >= design.shape[1] and kappa <= 300.0:
        assert got is not None
    if got is None:
        assert len(design) < design.shape[1] or kappa >= 300.0
        return
    want = np.linalg.lstsq(design, target, rcond=None)[0]
    bound = max(1e-10, 1e-15 * kappa ** 2)
    assert np.linalg.norm(got - want) <= bound * max(float(np.linalg.norm(want)), 1e-300)
    assert np.array_equal(normal_solve(design, -target), -got)


@SETTINGS
@hypothesis.given(st.integers(-9, -1), st.sampled_from([0.3, 3.0]))
def test_normal_solve_pivot_threshold(exponent, mantissa):
    # diag(1, d) has squared Cholesky pivots 1 and d: solved iff d > 1e-5 of the largest
    d = mantissa * 10.0 ** exponent
    for scale in (1e-200, 1.0, 1e200):
        got = _normal_solve(scale * np.diag([1.0, d]), scale * np.ones(2), 2)
        assert (got is None) == (d <= 1e-5)
        if got is not None:
            assert np.allclose(got, [1.0, 1.0 / d], rtol=1e-14, atol=0.0)


def test_normal_solve_is_as_accurate_as_lstsq_where_it_solves():
    # overdetermined designs U diag(sigma) V^T with singular values log-spaced from 1 down to
    # 1/kappa, kappa log-uniform in [1, 1e6]: every system the rule solves agrees with lstsq
    # to 1e-8 relative, and both the solved and the refused side occur above kappa = 100
    rng = np.random.default_rng(2300)
    solved = refused = 0
    for _ in range(3000):
        cols = int(rng.integers(1, 13))
        rows = int(rng.integers(cols, 40))
        kappa = 10.0 ** rng.uniform(0.0, 6.0)
        u = np.linalg.qr(rng.standard_normal((rows, cols)))[0]
        v = np.linalg.qr(rng.standard_normal((cols, cols)))[0]
        design = (u * np.geomspace(1.0, 1.0 / kappa, cols)) @ v.T
        target = rng.standard_normal(rows)
        got = normal_solve(design, target)
        if got is None:
            refused += kappa > 100.0
            continue
        solved += kappa > 100.0
        want = np.linalg.lstsq(design, target, rcond=None)[0]
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want), (rows, cols, kappa)
    assert solved >= 100 and refused >= 100
