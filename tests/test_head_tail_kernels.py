"""The head-tail step's kernels against the argsort-based pickers and n x n rank kernel.

After its first step, head-tail IHT (and the rank-one variant) runs `projections._truncate`
with the square head's and the tail's support pickers.  The pickers write the diagonal
through a flat view, gather kept entries by fancy indexing and build the support from one
membership mask; `_truncate` builds the sign-canonical input from the support block and
symmetrizes only that block of the rank-r product.  Each must return the bits of the
formulation it replaced, written out below with argsort, take_along_axis, fill_diagonal
and a restriction round trip: ties, -0.0 entries, -inf diagonals and zero matrices included.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse import projections as P  # noqa: E402
from bisparse.symcore import _project_rank_vectors, _restrict  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=200, deadline=None)


def select_reference(mags, k):
    return np.argsort(-mags, axis=-1, kind="stable")[..., :k]


def kept_energy_reference(mags, idx):
    return np.sum(np.take_along_axis(mags, idx, axis=1) ** 2, axis=1)


def support_reference(*parts):
    return np.unique(np.concatenate(parts, axis=None))


def partners_reference(absm, k):
    diag_sq = np.diagonal(absm) ** 2
    np.fill_diagonal(absm, -np.inf)
    partners = select_reference(absm, k)
    return partners, diag_sq + kept_energy_reference(absm, partners)


def square_support_reference(m, s):
    partners, scores = partners_reference(np.abs(m), s - 1)
    anchors = select_reference(scores, s)
    return support_reference(anchors, partners[anchors])


def anchor_support_reference(m, s):
    partners, scores = partners_reference(np.abs(m).T, s - 1)
    best = np.argmax(scores)
    return support_reference(partners[best], best)


def tail_support_reference(m, s):
    return np.sort(select_reference(np.linalg.norm(m, axis=0), s))


PICKERS = [(P._square_support, square_support_reference),
           (P._anchor_support, anchor_support_reference),
           (P._tail_support, tail_support_reference)]

# integer ties, signed zeros, and entries of mixed scale
ENTRIES = st.one_of(st.integers(-3, 3).map(float), st.sampled_from([0.0, -0.0]),
                    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))


@st.composite
def symmetric(draw):
    """A symmetric n x n matrix that keeps its -0.0 entries; sometimes all (signed) zeros."""
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["entries", "entries", "entries", "zero", "negative zero"]))
    if kind == "entries":
        upper = np.array(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n))).reshape(n, n)
    else:
        upper = np.full((n, n), 0.0 if kind == "zero" else -0.0)
    return np.where(np.tri(n, k=-1, dtype=bool), upper.T, upper)


def bits(a):
    return np.ascontiguousarray(a).tobytes()


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_pickers_match_argsort_references(m, data):
    s = data.draw(st.integers(1, len(m)))
    for picker, reference in PICKERS:
        got = picker(m, s)
        assert np.array_equal(got, reference(m, s)), picker.__name__
        assert got.dtype.kind == "i"


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_partners_match_on_inf_diagonals(m, data):
    # the diagonal overwrite is idempotent: |M| that already carries -inf there scores inf
    absm = np.abs(m)
    if data.draw(st.booleans()):
        np.fill_diagonal(absm, -np.inf)
    k = data.draw(st.integers(0, max(len(m) - 1, 0)))
    got_partners, got_scores = P._partners(absm.copy(), k)
    want_partners, want_scores = partners_reference(absm.copy(), k)
    assert np.array_equal(got_partners, want_partners)
    assert bits(got_scores) == bits(want_scores)


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_truncate_matches_the_restricted_rank_kernel(m, data):
    n = len(m)
    s = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n))
    for pick in (P._square_support, P._tail_support):
        support = pick(m, s)
        want = _restrict(_project_rank_vectors(_restrict(m, support), r)[0], support)
        got = P._truncate(m, s, r, pick)
        assert bits(got) == bits(want)
        assert np.array_equal(P._truncate(-m, s, r, pick), -got)    # odd, as the solvers need


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_hierarchical_mask_matches_argsort_reference(m, data):
    s, t = (data.draw(st.integers(1, len(m))) for _ in range(2))
    lines = np.abs(m).T
    rows = select_reference(lines, t)
    cols = select_reference(kept_energy_reference(lines, rows), s)
    want = np.zeros(m.shape, dtype=bool)
    want[rows[cols], cols[:, None]] = True
    assert np.array_equal(P.hierarchical_mask(m, s, t), want)
