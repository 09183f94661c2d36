"""Properties of the measurements the solvers take of their iterates.

Head-tail, rank-one and exact IHT measure each iterate through
`MeasurementMap._apply_blocks` on its support block, in place of `_apply` on the n x n
matrix.  A dense-gaussian map stores the packed upper triangles of its A_i, so its
`_apply` is one matrix-vector product with the packed entries of X, off-diagonal ones
doubled, and its `adjoint` one product written into both triangles.  Each agrees with the
einsum over the unpacked (m, n, n) stack to 1e-13 of the Cauchy-Schwarz bound on its
entries: |A_i(X)| <= ||A_i|| ||X|| for a measurement, |sum_i w_i (A_i)_jk| <= ||w||
||(A_.)_jk|| for an adjoint entry, and |(A_i Q)_jk| <= ||A_i|| ||Q|| for an entry of the
stack `_times` forms of the A_i `_restrict` unpacks.  The block measurement is exactly odd, as the rank-one solver's
odd iteration map needs, and the adjoint exactly symmetric.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse.measurements import MeasurementMap, _times, sample_map  # noqa: E402
from helpers import dense_stack, sym  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, derandomize=True)

MAPS = [("dense-gaussian", "dense"), ("rank-one", "dense"), ("factorized", "dense"),
        ("factorized", "rank-one")]


@st.composite
def map_cases(draw, kinds=MAPS):
    """A small map of one of the kinds and a seeded generator for its operands."""
    kind, inner = draw(st.sampled_from(kinds))
    n = draw(st.integers(1, 9))
    seed = draw(st.integers(0, 2**32 - 1))
    p = n + 2 if kind == "factorized" else None
    mp = sample_map(kind, n, draw(st.integers(1, 40)), p=p, seed=seed, inner=inner)
    return mp, np.random.default_rng(seed)


@SETTINGS
@hypothesis.given(map_cases(), st.data(), st.sampled_from([1e-3, 1.0, 1e3]))
def test_block_measurement_is_apply_on_the_support(case, data, scale):
    mp, rng = case
    support = np.array(sorted(data.draw(st.sets(st.integers(0, mp.n - 1), min_size=1))))
    block = sym(rng.standard_normal((len(support), len(support)))) * scale
    x = np.zeros((mp.n, mp.n))
    x[np.ix_(support, support)] = block
    got = mp._apply_blocks(support[None], block[None])[0]
    want = mp._apply(x)
    # the map's matrices A_i = adjoint(e_i), for the Cauchy-Schwarz bound
    norms = [np.linalg.norm(mp.adjoint(unit)) for unit in np.eye(mp.m)]
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(norms) * np.linalg.norm(x)
    assert np.array_equal(mp._apply_blocks(support[None], -block[None])[0], -got)


@SETTINGS
@hypothesis.given(map_cases([("dense-gaussian", "dense"), ("factorized", "dense")]),
                  st.sampled_from([1e-3, 1.0, 1e3]))
def test_dense_adjoint_is_the_symmetric_einsum(case, scale):
    # a factorized map's stage one starts from the symmetrized sum of its inner matrices
    mp, rng = case
    w = rng.standard_normal(mp.m) * scale
    if mp.kind == "factorized":
        stack, got = mp.matrices, mp._gather(w)
        got = (got + got.T) / 2.0
    else:
        stack, got = dense_stack(mp), mp.adjoint(w)
    assert np.array_equal(got, got.T)
    want = np.einsum("k,kij->ij", w, stack)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(w) * np.linalg.norm(stack)


@SETTINGS
@hypothesis.given(map_cases([("dense-gaussian", "dense")]), st.data(),
                  st.sampled_from([1e-3, 1.0, 1e3]))
def test_packed_kernels_are_the_einsum_over_the_unpacked_stack(case, data, scale):
    mp, rng = case
    stack = dense_stack(mp)
    bound = 1e-13 * np.linalg.norm(stack)
    x = sym(rng.standard_normal((mp.n, mp.n))) * scale
    want = np.einsum("kij,ij->k", stack, x)
    assert np.linalg.norm(mp.apply(x) - want) <= bound * np.linalg.norm(x)
    w = rng.standard_normal(mp.m) * scale
    got = mp.adjoint(w)
    assert np.array_equal(got, got.T)
    assert np.linalg.norm(got - np.einsum("k,kij->ij", w, stack)) <= bound * np.linalg.norm(w)
    support = np.array(sorted(data.draw(st.sets(st.integers(0, mp.n - 1), min_size=1))))
    block = x[np.ix_(support, support)]
    got = mp._apply_blocks(support[None], block[None])[0]
    want = np.einsum("kij,ij->k", stack[:, support[:, None], support], block)
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(block)
    q = rng.standard_normal((mp.n, data.draw(st.integers(1, 3)))) * scale
    got = _times(mp._restrict(np.arange(mp.n)), q)    # the stack iht_lowrank unpacks
    assert np.linalg.norm(got - np.einsum("kij,jl->kil", stack, q)) <= bound * np.linalg.norm(q)


@SETTINGS
@hypothesis.given(map_cases([("dense-gaussian", "dense")]))
def test_a_symmetric_stack_stores_the_sampled_packed_bits(case):
    mp, _ = case
    injected = MeasurementMap("dense-gaussian", mp.n, mp.m, matrices=dense_stack(mp))
    assert np.array_equal(injected.matrices.view(np.uint64), mp.matrices.view(np.uint64))


@SETTINGS
@hypothesis.given(map_cases([("dense-gaussian", "dense")]))
def test_a_non_symmetric_stack_measures_as_its_symmetric_part(case):
    # <G_i, X> = <(G_i + G_i^T) / 2, X> for symmetric X, so the stack and its symmetric
    # part are one map; the map stores that part's upper triangles
    mp, rng = case
    raw = rng.standard_normal((mp.m, mp.n, mp.n))
    injected = MeasurementMap("dense-gaussian", mp.n, mp.m, matrices=raw)
    part = (raw + raw.transpose(0, 2, 1)) / 2.0
    rows, cols = np.triu_indices(mp.n)
    assert np.array_equal(injected.matrices, part[:, rows, cols])
    x = sym(rng.standard_normal((mp.n, mp.n)))
    want = np.einsum("kij,ij->k", raw, x)
    assert np.linalg.norm(injected.apply(x) - want) <= (
        1e-13 * np.linalg.norm(raw) * np.linalg.norm(x))
    w = rng.standard_normal(mp.m)
    want = np.einsum("k,kij->ij", w, part)
    assert np.linalg.norm(injected.adjoint(w) - want) <= (
        1e-13 * np.linalg.norm(w) * np.linalg.norm(part))
