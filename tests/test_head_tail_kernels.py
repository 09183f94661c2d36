"""The head-tail step's kernels against the argsort-based pickers and the rank kernel.

After its first step, head-tail IHT (and the rank-one variant) runs `projections._truncate`
on the square head's and the tail's supports, and exact_project runs it on its winning
support.  The pickers write the diagonal through a flat view, gather kept entries by fancy
indexing and build the support from one membership mask.  Each must return the bits of the
formulation it replaced, written out below with argsort, take_along_axis and fill_diagonal:
ties, -0.0 entries, -inf diagonals and zero matrices included.  `_truncate` rank-projects
the k x k support block alone, through `symcore._restrict`, the one writer of a support's
block (or a kernel of it) into zeros, so it is the rank kernel of that block placed on the
support, bitwise, and agrees with the n x n kernel of the restriction wherever the rank-r
projection is unique.  The public joint projections run `project_rank` on the same block, so
they are `_truncate` on their picker's support, bit for bit, and the head-tail step from
zero (which runs them) is its kernel step.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse import projections as P  # noqa: E402
from bisparse.recovery import _head_tail_step  # noqa: E402
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
    got = absm.copy()
    got_scores = P._partner_scores(got, k)
    want_partners, want_scores = partners_reference(absm.copy(), k)
    assert np.array_equal(P._select(got, k), want_partners)    # the winners' partners, any row
    assert bits(got_scores) == bits(want_scores)


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_truncate_matches_the_restricted_rank_kernel(m, data):
    n = len(m)
    s = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n))
    # the pickers' supports, as the head-tail step runs, and any sorted one, as exact_project
    drawn = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1))), dtype=int)
    for support in (P._square_support(m, s), P._tail_support(m, s), drawn):
        k = len(support)
        block = m[np.ix_(support, support)]
        want = np.zeros_like(m)
        want[np.ix_(support, support)] = _project_rank_vectors(block, min(r, k))[0]
        got = P._truncate(m, support, r)
        assert bits(got) == bits(want)
        assert np.array_equal(P._truncate(-m, support, r), -got)    # odd, as the solvers need
        # the n x n kernel of the restriction, where the r-th and (r+1)-th eigenvalue
        # magnitudes of the block are apart, so that the rank-r projection is unique
        scale = float(np.linalg.norm(block))
        mags = np.sort(np.abs(np.linalg.eigvalsh(block)))[::-1]
        if r >= k or mags[r - 1] - mags[r] > 1e-2 * scale:
            full = _restrict(_project_rank_vectors(_restrict(m, support), r)[0], support)
            assert np.linalg.norm(got - full) <= 1e-12 * scale


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_restrict_is_the_fancy_index_write(m, data):
    # the one block writer: a support's block, or a kernel of it, put into zeros by flat
    # index has the fancy-index write's bits, with no kernel and with `_truncate`'s rank kernel
    n = len(m)
    r = data.draw(st.integers(1, n))
    drawn = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1)))), dtype=int)

    def rank(block):    # an empty block has no rank projection and stays empty
        return _project_rank_vectors(block, min(r, len(block)))[0] if len(block) else block

    for support in (drawn, np.array([], dtype=int), np.arange(n)):
        for kernel in (None, rank):
            block = m[support[:, None], support]
            want = np.zeros_like(m)
            want[support[:, None], support] = block if kernel is None else kernel(block)
            assert bits(_restrict(m, support, kernel)) == bits(want)


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_public_joint_projections_are_the_kernel(m, data):
    n = len(m)
    s = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n))
    for public, picker in ((P.tail_joint, P._tail_support), (P.head_joint, P._anchor_support),
                           (P.head_square_variant, P._square_support)):
        if public is P.head_joint and r > s:
            continue
        got = public(m, s, r)
        support = picker(m, s)
        assert np.array_equal(got.support, support), public.__name__
        assert bits(got.matrix) == bits(P._truncate(m, support, r)), public.__name__
        assert np.array_equal(public(-m, s, r).matrix, -got.matrix), public.__name__


@SETTINGS
@hypothesis.given(symmetric(), st.data())
def test_head_tail_step_from_zero_is_the_kernel_step(grad, data):
    n = len(grad)
    s = data.draw(st.integers(1, n))
    r = data.draw(st.integers(1, n))
    nu = data.draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
    x = np.zeros_like(grad)
    got = _head_tail_step(x, grad, nu, s, r)
    # the branch after the first step, by hand: square head at (2s, 2r), then the tail
    head = P._truncate(grad, P._square_support(grad, min(2 * s, n)), min(2 * r, n))
    step = x + nu * head
    support = P._tail_support(step, s)
    assert np.array_equal(got.support, support)
    assert bits(got.matrix) == bits(P._truncate(step, support, r))


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


# np.partition chooses its selection path by line length and k, so the partition kernel is
# checked against the references at sizes the 8 x 8 strategy above never reaches, on
# rectangles for hierarchical_mask, and on lines of tied entries
KINDS = ["gaussian", "integer ties", "equal rows", "sparse", "zero"]


def entries(kind, shape, seed):
    rng = np.random.default_rng(seed)
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "integer ties":
        return rng.integers(-3, 4, shape).astype(float)
    if kind == "equal rows":    # each row one value; symmetrized, rows tie in long runs
        return np.repeat(rng.integers(-2, 3, (shape[0], 1)).astype(float), shape[1], axis=1)
    if kind == "sparse":
        return rng.standard_normal(shape) * (rng.random(shape) < 0.1)
    return np.zeros(shape)


def symmetrized(a):
    return np.where(np.tri(len(a), k=-1, dtype=bool), a.T, a)


def hierarchical_mask_reference(m, s, t):
    lines = np.abs(m).T
    rows = select_reference(lines, t)
    cols = select_reference(kept_energy_reference(lines, rows), s)
    want = np.zeros(m.shape, dtype=bool)
    want[rows[cols], cols[:, None]] = True
    return want


def assert_pickers_match(m, s):
    for picker, reference in PICKERS:
        assert np.array_equal(picker(m, s), reference(m, s)), (picker.__name__, len(m), s)


def assert_top_energy_matches(lines, k):
    # a C-order and a transposed (F-order) line matrix, as the square and anchor heads pass
    for view in (lines, np.asfortranarray(lines)):
        want = kept_energy_reference(view, select_reference(view, k))
        assert bits(P._top_energy(view, k)) == bits(want), (view.shape, k)


def sparsity(data, n):
    return data.draw(st.one_of(st.sampled_from([1, n]), st.integers(1, n)))


@SETTINGS
@hypothesis.given(st.integers(1, 64), st.sampled_from(KINDS), st.integers(0, 2**32 - 1), st.data())
def test_pickers_match_argsort_references_up_to_n64(n, kind, seed, data):
    m = symmetrized(entries(kind, (n, n), seed))
    assert_pickers_match(m, sparsity(data, n))
    assert_top_energy_matches(np.abs(m), data.draw(st.integers(0, n)))


@SETTINGS
@hypothesis.given(st.integers(1, 64), st.integers(1, 64), st.sampled_from(KINDS),
                  st.integers(0, 2**32 - 1), st.data())
def test_hierarchical_mask_matches_argsort_reference_on_rectangles(rows, cols, kind, seed, data):
    m = entries(kind, (rows, cols), seed)
    s, t = sparsity(data, cols), sparsity(data, rows)
    assert np.array_equal(P.hierarchical_mask(m, s, t), hierarchical_mask_reference(m, s, t))


@pytest.mark.parametrize("n", [100, 300])
@pytest.mark.parametrize("kind", KINDS)
def test_pickers_match_argsort_references_at_large_n(n, kind):
    m = symmetrized(entries(kind, (n, n), n))
    for s in (1, 2, 4, 9, n):
        assert_pickers_match(m, s)
        assert_top_energy_matches(np.abs(m), s)
    for shape in ((n, n // 3), (n // 3, n)):
        rect = entries(kind, shape, n + 1)
        for s, t in ((1, 1), (3, 5), (shape[1], shape[0]), (shape[1] // 2, 2)):
            assert np.array_equal(P.hierarchical_mask(rect, s, t),
                                  hierarchical_mask_reference(rect, s, t)), (shape, s, t)
