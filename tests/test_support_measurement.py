"""Properties of the measurements the solvers take of their iterates.

Head-tail, rank-one and exact IHT measure each iterate through
`MeasurementMap._apply_blocks` on its support block, in place of `_apply` on the n x n
matrix, and a dense payload's `_apply` and `adjoint` are one matrix-vector product on the
(m, n^2) view of the payload.  Each agrees with the formulation it replaced to 1e-13 of the
Cauchy-Schwarz bound on its entries: |A_i(X)| <= ||A_i|| ||X|| for a measurement, and
|sum_i w_i (A_i)_jk| <= ||w|| ||(A_.)_jk|| for an adjoint entry.  The block measurement is
exactly odd, as the rank-one solver's odd iteration map needs, and the adjoint exactly
symmetric.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from bisparse.measurements import factorized_inner_map, sample_map  # noqa: E402
from helpers import sym  # noqa: E402

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
    mp, rng = case
    if mp.kind == "factorized":
        mp = factorized_inner_map(mp)    # the p x p map whose adjoint reads the payload
    w = rng.standard_normal(mp.m) * scale
    got = mp.adjoint(w)
    assert np.array_equal(got, got.T)
    want = np.einsum("k,kij->ij", w, mp.matrices)
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(w) * np.linalg.norm(mp.matrices)
