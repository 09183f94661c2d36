"""Properties of the tangent-space projection behind iht_lowrank's Riemannian step.

At a rank-r symmetric matrix x = U L U^T, P_T(G) = UU^T G + G UU^T - UU^T G UU^T
is the orthogonal projection onto the tangent space of the rank-r manifold, so
it is symmetric, idempotent, self-adjoint in the Frobenius inner product, and
fixes x.  The bases come from the rank kernel the solver uses.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse.recovery import _tangent_project  # noqa: E402
from bisparse.symcore import _project_rank_vectors, sym_enforce  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)


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
    out = _tangent_project(u, a)
    assert np.array_equal(out, out.T)


@SETTINGS
@hypothesis.given(tangent_case())
def test_idempotent(case):
    _, u, a, _ = case
    once = _tangent_project(u, a)
    assert close(_tangent_project(u, once), once, a)


@SETTINGS
@hypothesis.given(tangent_case())
def test_self_adjoint(case):
    _, u, a, b = case
    lhs = float(np.sum(_tangent_project(u, a) * b))
    rhs = float(np.sum(a * _tangent_project(u, b)))
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, float(np.linalg.norm(a) * np.linalg.norm(b)))


@SETTINGS
@hypothesis.given(tangent_case())
def test_fixes_the_iterate(case):
    x, u, _, _ = case
    assert close(_tangent_project(u, x), x, x)


@SETTINGS
@hypothesis.given(tangent_case())
def test_exactly_odd(case):
    _, u, a, _ = case
    assert np.array_equal(_tangent_project(u, -a), -_tangent_project(u, a))
