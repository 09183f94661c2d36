"""Properties of the pieces behind iht_lowrank's Riemannian step.

At a rank-r symmetric matrix x = U L U^T, P_T(G) = UU^T G + G UU^T - UU^T G UU^T
is the orthogonal projection onto the tangent space of the rank-r manifold, so
it is symmetric, idempotent, self-adjoint in the Frobenius inner product, and
fixes x.  The solver holds it in factor form, P_T(G) = U K^T + K U^T with
K = G U - U (U^T G U) / 2; the bases come from the rank kernel the solver uses.
It measures a matrix Q C Q^T through the blocks Q^T A_i Q of `_compress`.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse.measurements import sample_map  # noqa: E402
from bisparse.recovery import _tangent_factor  # noqa: E402
from bisparse.symcore import _project_rank_vectors, sym_enforce  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


def tangent_project(u, g):
    """P_T(G) assembled from the solver's factor K as H + H^T, H = U K^T."""
    h = u @ _tangent_factor(u, g)[0].T
    return h + h.T


@st.composite
def tangent_case(draw):
    """An iterate x of rank <= r, its kept basis u, and two symmetric directions."""
    p = draw(st.integers(1, 12))
    r = draw(st.integers(1, p))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    out, vecs = _project_rank_vectors(sym_enforce(rng.standard_normal((p, p)))[None], r)
    a = sym_enforce(rng.standard_normal((p, p))) * scale
    b = sym_enforce(rng.standard_normal((p, p)))
    return out[0], vecs[0], a, b


def close(got, want, ref):
    return np.allclose(got, want, rtol=0.0, atol=1e-12 * max(1.0, float(np.max(np.abs(ref)))))


@SETTINGS
@hypothesis.given(tangent_case())
def test_output_is_exactly_symmetric(case):
    _, u, a, _ = case
    out = tangent_project(u, a)
    assert np.array_equal(out, out.T)


@SETTINGS
@hypothesis.given(tangent_case())
def test_idempotent(case):
    _, u, a, _ = case
    once = tangent_project(u, a)
    assert close(tangent_project(u, once), once, a)


@SETTINGS
@hypothesis.given(tangent_case())
def test_self_adjoint(case):
    _, u, a, b = case
    lhs = float(np.sum(tangent_project(u, a) * b))
    rhs = float(np.sum(a * tangent_project(u, b)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b)))


@SETTINGS
@hypothesis.given(tangent_case())
def test_fixes_the_iterate(case):
    x, u, _, _ = case
    assert close(tangent_project(u, x), x, x)


@SETTINGS
@hypothesis.given(tangent_case())
def test_exactly_odd(case):
    _, u, a, _ = case
    k, gu = _tangent_factor(u, a)
    k_neg, gu_neg = _tangent_factor(u, -a)
    assert np.array_equal(k_neg, -k) and np.array_equal(gu_neg, -gu)
    assert np.array_equal(tangent_project(u, -a), -tangent_project(u, a))


@st.composite
def compress_case(draw):
    """A small map of each kind, an orthonormal n x k Q with k in 1..4, and a symmetric k x k C."""
    kind, inner = draw(st.sampled_from([("dense-gaussian", "dense"), ("rank-one", "dense"),
                                        ("factorized", "dense"), ("factorized", "rank-one")]))
    n = draw(st.integers(4, 9))
    k = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    p = n + 2 if kind == "factorized" else None
    mp = sample_map(kind, n, draw(st.integers(1, 30)), p=p, seed=seed, inner=inner)
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return mp, q, sym_enforce(rng.standard_normal((k, k)))


@SETTINGS
@hypothesis.given(compress_case())
def test_compressed_blocks_measure_like_the_map(case):
    mp, q, c = case
    blocks = mp._compress(q)
    assert blocks.shape == (mp.m, len(c), len(c))
    want = mp._apply(sym_enforce(q @ c @ q.T))
    got = blocks.reshape(mp.m, -1) @ c.ravel()
    assert np.linalg.norm(got - want) <= 1e-12 * max(float(np.linalg.norm(want)), 1e-300)
