import hashlib
import io
import tracemalloc

import numpy as np
import pytest

from bisparse import measurements
from bisparse.measurements import (
    PROBE_CACHE_CHUNKS,
    PROBE_CHUNK,
    MeasurementMap,
    RipEstimate,
    _times,
    check_rip_cross_term,
    estimate_rip,
    read_measurement_file,
    sample_map,
    sample_structured,
    write_map_header,
    write_measurement_file,
)
from bisparse.symcore import project_rank
from helpers import dense_stack, isometry_map, stored, sym


def random_sym(n, seed):
    return sym(np.random.default_rng(seed).standard_normal((n, n)))


ALL_KINDS = [
    ("dense-gaussian", {}),
    ("rank-one", {}),
    ("factorized", {"p": 6}),
    ("factorized", {"p": 6, "inner": "rank-one"}),
]


# sha256 of each sampled payload array's bytes.  The rank-one and factorized ones were taken
# when sample_map still scaled and symmetrized into fresh arrays; sampling in place keeps every
# bit.  A dense-gaussian digest is of the unpacked (m, n, n) stack, taken since the packed
# triangles are drawn directly
PAYLOAD_SHA256 = [
    ("dense-gaussian", {}, 5, 7, 0, {
        "matrices": "a48e9f87e00b593347991ed2f98f378a2a27000b7aa366ec91345f8283a49023"}),
    ("dense-gaussian", {}, 12, 30, 3, {
        "matrices": "7e09ec215bdb589cf0ae806dc902ad5bf000d81002cc2f127855c6bf9cbb5a29"}),
    ("rank-one", {}, 6, 9, 0, {
        "vectors": "08737a4e0cbf5d26c9150a4e9bce9886be8a26fcd601d99368484d89c459deb4"}),
    ("rank-one", {}, 20, 50, 3, {
        "vectors": "21bd13675d35fc737de10b716e6296102261f4667b55eac5d40ea7e9928a4d7d"}),
    ("rank-one", {"scale": "unit"}, 6, 9, 0, {
        "vectors": "8cbc056d6dadbfb3dfb8b419323828e5534690d19d1edc4fdc94c339dc81bc68"}),
    ("rank-one", {"scale": "unit"}, 20, 50, 3, {
        "vectors": "83927b379d5892b98b37f606ab214c489e5caa354f2b0f31ffa031e4b1b10bfd"}),
    ("factorized", {"p": 4}, 6, 9, 0, {
        "basis": "0109e58c26417499773e18cd899518a0dad0e5393adccb8a705eaa1de742f6fb",
        "matrices": "7b166c525b42717dae8fecce58ac9fdfda913a378d3b60066fcf7fdad1628e61"}),
    ("factorized", {"p": 8}, 15, 30, 3, {
        "basis": "d62eb815f7a0d1cdd5b0d90b4ba8807e2bdec74ff73515d93f882b6a6b08d80e",
        "matrices": "ba0f32bef6107356cb43a390a42369b9477b8addf0deb314394762a529daf4bc"}),
    ("factorized", {"p": 4, "inner": "rank-one"}, 6, 9, 0, {
        "basis": "0109e58c26417499773e18cd899518a0dad0e5393adccb8a705eaa1de742f6fb",
        "vectors": "08089cbb41999c47e072fcc97cdd541da32bb147061c92bc141781e8ecf55cdf"}),
    ("factorized", {"p": 8, "inner": "rank-one"}, 15, 30, 3, {
        "basis": "d62eb815f7a0d1cdd5b0d90b4ba8807e2bdec74ff73515d93f882b6a6b08d80e",
        "vectors": "4bb27318f7175c8ae5dec7a12f8743ca472dc21a906c60c67710cb0cd6681bd3"}),
]


class TestSampling:
    def test_seed_determinism(self):
        a = sample_map("dense-gaussian", 4, 10, seed=7)
        b = sample_map("dense-gaussian", 4, 10, seed=7)
        assert np.array_equal(a.matrices, b.matrices)

    def test_different_seeds_differ(self):
        a = sample_map("rank-one", 4, 10, seed=7)
        b = sample_map("rank-one", 4, 10, seed=8)
        assert not np.array_equal(a.vectors, b.vectors)

    def test_dense_entry_variance(self):
        # N(0, 1/m) before symmetrization: diagonal keeps variance 1/m,
        # off-diagonal averaging halves it
        m_count, n = 10_000, 4
        mp = sample_map("dense-gaussian", n, m_count, seed=1)
        stack = dense_stack(mp)
        diag = stack[:, range(n), range(n)]
        assert np.var(diag) == pytest.approx(1.0 / m_count, rel=0.05)
        triu = np.triu_indices(n, k=1)
        off = stack[:, triu[0], triu[1]]
        assert np.var(off) == pytest.approx(0.5 / m_count, rel=0.05)

    def test_packed_draw_has_the_moments_of_the_symmetrized_draw(self):
        # each packed column is i.i.d. N(0, 1/m) on the diagonal, N(0, 1/(2m)) off it: the law
        # of a symmetrized N(0, 1/m) stack, whose packed columns are sampled here for comparison
        m_count, n = 20_000, 3
        packed = sample_map("dense-gaussian", n, m_count, seed=5).matrices
        rng = np.random.default_rng(6)
        sym_draw = measurements._pack(rng.standard_normal((m_count, n, n)) / np.sqrt(m_count))
        diagonal = np.array([r == c for r, c in zip(*np.triu_indices(n))])
        for cols in (packed, sym_draw):
            var = np.var(cols, axis=0) * m_count
            assert var[diagonal] == pytest.approx(1.0, rel=0.05)
            assert var[~diagonal] == pytest.approx(0.5, rel=0.05)
            assert np.all(np.abs(np.mean(cols, axis=0)) * m_count < 4 * np.sqrt(var))    # 4 sd
            corr = np.corrcoef(cols, rowvar=False)
            assert np.abs(corr - np.eye(len(corr))).max() < 0.05
            kurt = np.mean(cols ** 4, axis=0) / np.var(cols, axis=0) ** 2
            assert kurt == pytest.approx(3.0, abs=0.2)

    def test_rank_one_scales(self):
        m_count = 5000
        inv = sample_map("rank-one", 3, m_count, seed=2)
        unit = sample_map("rank-one", 3, m_count, seed=2, scale="unit")
        assert np.var(inv.vectors) == pytest.approx(1.0 / m_count, rel=0.05)
        assert np.var(unit.vectors) == pytest.approx(1.0, rel=0.05)

    def test_factorized_needs_p(self):
        with pytest.raises(ValueError, match="p"):
            sample_map("factorized", 4, 10)

    @pytest.mark.parametrize("kind,kwargs", [
        ("dense-gaussian", {"matrices": np.zeros((2, 3, 3)), "vectors": np.zeros((2, 3))}),
        ("dense-gaussian", {"matrices": np.zeros((2, 3, 3)), "basis": np.zeros((4, 3))}),
        ("rank-one", {"vectors": np.zeros((2, 3)), "matrices": np.zeros((2, 3, 3))}),
        ("factorized", {"p": 4, "basis": np.zeros((4, 3)), "matrices": np.zeros((2, 4, 4)),
                        "vectors": np.zeros((2, 4))}),
    ])
    def test_stray_payload_rejected(self, kind, kwargs):
        # dispatch follows the payload layout, so a stray field would change apply
        with pytest.raises(ValueError, match="payload takes no"):
            MeasurementMap(kind, 3, 2, **kwargs)

    @pytest.mark.parametrize("args,kwargs,match", [
        (("gaussian", 3, 2), {}, "kind"),
        (("rank-one", 3, 0), {"vectors": np.zeros((0, 3))}, "positive"),
        (("dense-gaussian", 3, 2), {}, "dense-gaussian.*matrices"),
        (("dense-gaussian", 3, 2), {"matrices": np.zeros((2, 3, 4))}, "dense-gaussian.*matrices"),
        (("rank-one", 3, 2), {"vectors": np.zeros((2, 4))}, "rank-one.*vectors"),
        (("factorized", 3, 2), {"basis": np.zeros((4, 3)), "matrices": np.zeros((2, 4, 4))},
         "factorized.*p"),
        (("factorized", 3, 2), {"p": 4, "basis": np.zeros((3, 3)), "matrices": np.zeros((2, 4, 4))},
         "factorized.*basis"),
        (("factorized", 3, 2), {"p": 4, "basis": np.zeros((4, 3)), "matrices": np.zeros((2, 3, 3))},
         "factorized.*matrices"),
        (("factorized", 3, 2), {"p": 4, "inner": "rank-one", "basis": np.zeros((4, 3)),
                                "vectors": np.zeros((2, 3))}, "factorized.*vectors"),
        (("factorized", 3, 2), {"p": 4, "inner": "sparse", "basis": np.zeros((4, 3)),
                                "vectors": np.zeros((2, 4))}, "inner"),
    ])
    def test_payload_layout_enforced(self, args, kwargs, match):
        with pytest.raises(ValueError, match=match):
            MeasurementMap(*args, **kwargs)

    @pytest.mark.parametrize("kind,kwargs,match", [
        ("rank-one", {"scale": "half"}, "scale"),
        ("factorized", {"p": 4, "inner": "sparse"}, "inner"),
    ])
    def test_unknown_option_refused(self, kind, kwargs, match):
        with pytest.raises(ValueError, match=match):
            sample_map(kind, 3, 2, seed=1, **kwargs)

    @pytest.mark.parametrize("kind,kwargs,option", [
        ("dense-gaussian", {"scale": "unit"}, "scale"),
        ("dense-gaussian", {"p": 4}, "p"),
        ("dense-gaussian", {"inner": "rank-one"}, "inner"),
        ("rank-one", {"p": 4}, "p"),
        ("rank-one", {"inner": "rank-one"}, "inner"),
        ("factorized", {"p": 4, "scale": "unit"}, "scale"),
    ])
    def test_option_the_kind_does_not_take_is_refused(self, kind, kwargs, option):
        # an option that does not apply would otherwise be dropped without a word
        with pytest.raises(ValueError, match=rf"{kind}.*\b{option}\b"):
            sample_map(kind, 3, 2, seed=1, **kwargs)
        payload = sample_map(kind, 3, 2, seed=1, p=4 if kind == "factorized" else None)
        with pytest.raises(ValueError, match=rf"{kind}.*\b{option}\b"):
            MeasurementMap(kind, 3, 2, **kwargs, matrices=payload.matrices,
                           vectors=payload.vectors, basis=payload.basis)

    def test_oversized_payload_refused_before_allocating(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            sample_map("dense-gaussian", 10_000, 10_000, seed=1)
        with pytest.raises(ValueError, match="exceeds the cap"):
            sample_map("factorized", 10, 10**6, p=1000, seed=1)

    @pytest.mark.parametrize("kind,kwargs,n,m,seed,digests", PAYLOAD_SHA256)
    def test_payload_bytes_are_pinned(self, kind, kwargs, n, m, seed, digests):
        mp = sample_map(kind, n, m, seed=seed, **kwargs)
        arrays = {name: getattr(mp, name) for name in digests}
        if kind == "dense-gaussian":
            arrays["matrices"] = dense_stack(mp)
        got = {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in arrays.items()}
        assert got == digests

    @pytest.mark.parametrize("kind,kwargs,n,m", [
        ("dense-gaussian", {}, 60, 300),
        ("rank-one", {}, 1000, 1000),
        ("rank-one", {"scale": "unit"}, 1000, 1000),
        ("factorized", {"p": 40}, 50, 600),
        ("factorized", {"p": 500, "inner": "rank-one"}, 500, 1000),
    ])
    def test_sampling_holds_one_payload(self, kind, kwargs, n, m):
        tracemalloc.start()
        try:
            mp = sample_map(kind, n, m, seed=3, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = sum(getattr(mp, name).nbytes for name in ("matrices", "vectors", "basis")
                      if getattr(mp, name) is not None)
        assert payload > 4 * 2**20
        assert peak <= payload + 2 * 2**20

    def test_injected_rank_one_payload(self):
        vectors = np.zeros((2, 3))
        vectors[0, 0] = 1.0
        vectors[1] = [0.0, 1.0, 1.0]
        mp = MeasurementMap("rank-one", 3, 2, vectors=vectors)
        y = mp.apply(np.eye(3))
        assert y[0] == 1.0
        assert y[1] == 2.0


class TestApplyAdjoint:
    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_zero_maps_to_zero(self, kind, kwargs):
        mp = sample_map(kind, 5, 8, seed=3, **kwargs)
        assert np.array_equal(mp.apply(np.zeros((5, 5))), np.zeros(8))

    def test_rank_one_identity(self):
        mp = sample_map("rank-one", 4, 9, seed=5)
        y = mp.apply(np.eye(4))
        assert np.allclose(y, np.sum(mp.vectors**2, axis=1))

    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_linearity(self, kind, kwargs):
        mp = sample_map(kind, 5, 8, seed=4, **kwargs)
        x = random_sym(5, 10)
        z = random_sym(5, 11)
        lhs = mp.apply(2.5 * x - 0.5 * z)
        rhs = 2.5 * mp.apply(x) - 0.5 * mp.apply(z)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))

    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_adjoint_basis_vectors(self, kind, kwargs):
        mp = sample_map(kind, 5, 8, seed=6, **kwargs)
        unit = np.zeros(8)
        unit[3] = 1.0
        got = mp.adjoint(unit)
        if kind == "dense-gaussian":
            assert np.allclose(got, dense_stack(mp)[3], atol=1e-15)
        elif kind == "rank-one":
            assert np.allclose(got, np.outer(mp.vectors[3], mp.vectors[3]), atol=1e-12)
        assert np.array_equal(mp.adjoint(np.zeros(8)), np.zeros((5, 5)))

    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_adjointness_identity(self, kind, kwargs):
        mp = sample_map(kind, 5, 12, seed=7, **kwargs)
        rng = np.random.default_rng(20)
        for _ in range(5):
            x = sym(rng.standard_normal((5, 5)))
            u = rng.standard_normal(12)
            lhs = float(mp.apply(x) @ u)
            rhs = np.sum(x * mp.adjoint(u))
            assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(lhs))

    def test_factorized_equals_flattened_dense(self):
        mp = sample_map("factorized", 5, 7, p=6, seed=8)
        flat = np.einsum("ji,kjl,lm->kim", mp.basis, mp.matrices, mp.basis)
        dense = MeasurementMap("dense-gaussian", 5, 7, matrices=(flat + flat.transpose(0, 2, 1)) / 2)
        x = random_sym(5, 21)
        assert np.max(np.abs(mp.apply(x) - dense.apply(x))) <= 1e-8 * np.max(np.abs(dense.apply(x)))
        u = np.random.default_rng(22).standard_normal(7)
        assert np.max(np.abs(mp.adjoint(u) - dense.adjoint(u))) <= 1e-8

    @pytest.mark.parametrize("kind,kwargs", [
        ("rank-one", {}),
        ("rank-one", {"scale": "unit"}),
        ("factorized", {"p": 7, "inner": "rank-one"}),
    ])
    def test_rank_one_kernel_matches_einsum(self, kind, kwargs):
        # the einsum contraction apply replaced is the reference; a float64 sum of
        # n^2 products agrees to 1e-12 of the summed magnitudes
        for n, m, seed in ((1, 3, 50), (5, 8, 51), (24, 300, 52)):
            mp = sample_map(kind, n, m, seed=seed, **kwargs)
            x = random_sym(n, seed + 1)
            inner = mp.basis @ x @ mp.basis.T if kind == "factorized" else x
            ref = np.einsum("ki,ij,kj->k", mp.vectors, inner, mp.vectors)
            scale = np.einsum("ki,ij,kj->k", np.abs(mp.vectors), np.abs(inner), np.abs(mp.vectors))
            assert np.all(np.abs(mp.apply(x) - ref) <= 1e-12 * scale)

    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_apply_is_odd_bitwise(self, kind, kwargs):
        mp = sample_map(kind, 9, 40, seed=53, **kwargs)
        x = random_sym(9, 54)
        assert np.array_equal(mp.apply(-x), -mp.apply(x))

    def test_dimension_mismatch(self):
        mp = sample_map("dense-gaussian", 4, 5, seed=9)
        with pytest.raises(ValueError):
            mp.apply(np.eye(5))
        with pytest.raises(ValueError):
            mp.adjoint(np.zeros(6))

    def test_inner_map_consistency(self):
        # the inner matrices, stage one's design A_i Q at Q = I, measure B X B^T to the
        # factorized map's own y, unscaled
        x = random_sym(5, 31)
        for inner_kind in ("dense", "rank-one"):
            mp = sample_map("factorized", 5, 7, p=6, seed=30, inner=inner_kind)
            lifted = sym(mp.basis @ x @ mp.basis.T)
            got = _times(stored(mp), np.eye(6)).reshape(7, -1) @ lifted.ravel()
            assert np.max(np.abs(got - mp.apply(x))) <= 1e-10, inner_kind


BLOCK_KINDS = [
    ("dense-gaussian", {}),
    ("rank-one", {}),
    ("rank-one", {"scale": "unit"}),
    ("factorized", {"p": 6}),
    ("factorized", {"p": 6, "inner": "rank-one"}),
]


def random_blocks(n, s, count, rng):
    supports = np.array([np.sort(rng.choice(n, size=s, replace=False)) for _ in range(count)])
    g = rng.standard_normal((count, s, s))
    return supports, (g + g.transpose(0, 2, 1)) / 2.0


class TestApplyBlocks:
    @pytest.mark.parametrize("kind,kwargs", BLOCK_KINDS)
    def test_matches_apply_of_the_embedded_matrix(self, kind, kwargs):
        rng = np.random.default_rng(60)
        for n in (1, 4, 7):
            mp = sample_map(kind, n, 23, seed=n, **kwargs)
            for s in sorted({1, min(3, n), n}):
                supports, blocks = random_blocks(n, s, 9, rng)
                got = mp._apply_blocks(supports, blocks)
                assert got.shape == (9, mp.m)
                for support, block, y in zip(supports, blocks, got):
                    x = np.zeros((n, n))
                    x[np.ix_(support, support)] = block
                    want = mp.apply(x)
                    assert np.linalg.norm(y - want) <= 1e-12 * np.linalg.norm(want), (n, s)

    @pytest.mark.parametrize("kind,kwargs", BLOCK_KINDS)
    def test_each_block_gets_the_same_bits_in_any_batch(self, kind, kwargs):
        rng = np.random.default_rng(61)
        mp = sample_map(kind, 8, 31, seed=2, **kwargs)
        for s in (2, 8):
            supports, blocks = random_blocks(8, s, 12, rng)
            batch = mp._apply_blocks(supports, blocks)
            for k in range(12):
                one = mp._apply_blocks(supports[k:k + 1], blocks[k:k + 1])[0]
                assert np.array_equal(one.view(np.uint64), batch[k].view(np.uint64))

    def test_dense_batch_at_s_equal_n_holds_about_one_payload(self):
        # a dense block measurement gathers m s^2 entries per block; at s = n that is a
        # whole payload, so a batch of several blocks is split into one block at a time
        n, m = 30, 200
        mp = sample_map("dense-gaussian", n, m, seed=7)
        supports, blocks = random_blocks(n, n, 4, np.random.default_rng(62))
        tracemalloc.start()
        try:
            mp._apply_blocks(supports, blocks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * mp.matrices.nbytes


class TestStructuredSampler:
    def test_unit_norm_and_structure(self):
        rng = np.random.default_rng(40)
        for _ in range(10):
            x, support = sample_structured(9, 3, 2, rng)
            assert np.linalg.norm(x) == pytest.approx(1.0)
            assert support.size == 3
            outside = np.ones((9, 9), dtype=bool)
            outside[np.ix_(support, support)] = False
            assert np.max(np.abs(x[outside])) == 0.0
            vals = np.linalg.svd(x[np.ix_(support, support)], compute_uv=False)
            assert np.sum(vals > 1e-9) <= 2


def structured_reference(n, s, r, rng):
    # sample_structured before probes were projected in stacks
    while True:
        support = np.sort(rng.choice(n, size=s, replace=False))
        g = rng.standard_normal((s, s))
        block = project_rank((g + g.T) / 2.0, r)
        nrm = float(np.linalg.norm(block))
        if nrm > 0.0:
            break
    out = np.zeros((n, n))
    out[np.ix_(support, support)] = block / nrm
    return out, support


def estimate_rip_reference(mp, s, r, trials, seed=0):
    # estimate_rip one probe at a time, each measured on its own s x s block
    delta = 0.0
    alpha = np.inf
    beta = -np.inf
    for t in range(trials):
        probe, support = structured_reference(mp.n, s, r, np.random.default_rng([seed, t]))
        block = probe[np.ix_(support, support)]
        y = mp._apply_blocks(support[None], block[None])[0]
        zf2 = float(np.sum(block * block))
        zf = np.sqrt(zf2)
        delta = max(delta, abs(float(np.sum(y * y)) - zf2) / zf2)
        ratio1 = float(np.sum(np.abs(y))) / zf
        alpha = min(alpha, ratio1)
        beta = max(beta, ratio1)
    return RipEstimate(delta, alpha, beta, trials, s, r)


def estimate_rip_full_apply_reference(mp, s, r, trials, seed=0):
    # estimate_rip before probes were measured on their blocks: each n x n probe through apply
    delta = 0.0
    alpha = np.inf
    beta = -np.inf
    for t in range(trials):
        probe, _ = structured_reference(mp.n, s, r, np.random.default_rng([seed, t]))
        y = mp.apply(probe)
        zf2 = float(np.sum(probe * probe))
        zf = np.sqrt(zf2)
        delta = max(delta, abs(float(y @ y) - zf2) / zf2)
        ratio1 = float(np.sum(np.abs(y))) / zf
        alpha = min(alpha, ratio1)
        beta = max(beta, ratio1)
    return RipEstimate(delta, alpha, beta, trials, s, r)


class ZeroFirstBlock:
    """A generator whose first Gaussian block is all zeros, so it projects to zero."""

    def __init__(self, rng):
        self.rng = rng
        self.blocks = 0

    def choice(self, *args, **kwargs):
        return self.rng.choice(*args, **kwargs)

    def standard_normal(self, shape):
        self.blocks += 1
        g = self.rng.standard_normal(shape)
        return np.zeros(shape) if self.blocks == 1 else g


@pytest.fixture
def fresh_probe_cache():
    """Empty estimate_rip's probe cache before and after the test."""
    measurements._probe_chunk.cache_clear()
    yield measurements._probe_chunk
    measurements._probe_chunk.cache_clear()


class TestBatchedProbes:
    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_estimate_matches_loop_reference(self, kind, kwargs):
        n = 5
        for map_seed in (0, 1):
            mp = sample_map(kind, n, 30, seed=map_seed, **kwargs)
            for s in (1, 2, n):
                for r in sorted({1, s}):
                    for seed in (0, 11):
                        for trials in (1, PROBE_CHUNK + 3):
                            got = estimate_rip(mp, s, r, trials, seed=seed)
                            want = estimate_rip_reference(mp, s, r, trials, seed)
                            assert got == want, (kind, map_seed, s, r, seed, trials)

    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_estimate_agrees_with_full_apply_reference(self, kind, kwargs):
        # measuring a probe's block instead of the n x n probe only changes rounding
        n = 6
        mp = sample_map(kind, n, 40, seed=3, **kwargs)
        for s in (1, 3, n):
            for r in sorted({1, s}):
                got = estimate_rip(mp, s, r, PROBE_CHUNK + 5, seed=2)
                want = estimate_rip_full_apply_reference(mp, s, r, PROBE_CHUNK + 5, 2)
                for a, b in ((got.delta_lower, want.delta_lower),
                             (got.alpha_hat, want.alpha_hat), (got.beta_hat, want.beta_hat)):
                    assert abs(a - b) <= 1e-12 * abs(b), (kind, s, r)

    def test_many_chunks_match_loop_reference(self):
        mp = sample_map("rank-one", 12, 80, seed=4)
        trials = 3 * PROBE_CHUNK + 5
        assert estimate_rip(mp, 4, 2, trials, seed=9) == estimate_rip_reference(
            mp, 4, 2, trials, 9)

    def test_sample_structured_matches_reference(self):
        for n, s, r in ((1, 1, 1), (6, 2, 1), (6, 3, 3), (9, 9, 2)):
            a = np.random.default_rng(n * 10 + s)
            b = np.random.default_rng(n * 10 + s)
            for _ in range(5):
                x, sx = sample_structured(n, s, r, a)
                y, sy = structured_reference(n, s, r, b)
                assert np.array_equal(sx, sy)
                assert np.array_equal(x.view(np.uint64), y.view(np.uint64))

    def test_zero_block_is_redrawn_from_its_own_stream(self):
        a = ZeroFirstBlock(np.random.default_rng(21))
        b = ZeroFirstBlock(np.random.default_rng(21))
        x, sx = sample_structured(7, 3, 2, a)
        y, sy = structured_reference(7, 3, 2, b)
        assert a.blocks == b.blocks == 2
        assert np.array_equal(sx, sy)
        assert np.array_equal(x, y)
        assert np.linalg.norm(x) == pytest.approx(1.0)

    def test_zero_block_in_a_batch_matches_loop_reference(self, monkeypatch, fresh_probe_cache):
        # trials on both sides of a chunk boundary draw a zero first block
        zeroed = {3, PROBE_CHUNK - 1, PROBE_CHUNK}
        made = []
        real = np.random.default_rng

        def default_rng(seed):
            rng = real(seed)
            if seed[1] in zeroed:
                rng = ZeroFirstBlock(rng)
                made.append(rng)
            return rng

        mp = sample_map("rank-one", 8, 40, seed=2)
        monkeypatch.setattr(measurements.np.random, "default_rng", default_rng)
        trials = PROBE_CHUNK + 4
        got = estimate_rip(mp, 3, 2, trials, seed=5)
        assert [rng.blocks for rng in made] == [2, 2, 2]
        made.clear()
        assert got == estimate_rip_reference(mp, 3, 2, trials, 5)
        assert [rng.blocks for rng in made] == [2, 2, 2]


class TestProbeCache:
    def test_cold_and_warm_estimates_are_identical(self, fresh_probe_cache):
        maps = [sample_map("rank-one", 12, 80, seed=seed) for seed in (4, 5)]
        trials = 2 * PROBE_CHUNK + 5
        for first, second in (maps, maps[::-1]):
            fresh_probe_cache.cache_clear()
            cold = estimate_rip(first, 4, 2, trials, seed=9)
            hits = fresh_probe_cache.cache_info().hits
            other = estimate_rip(second, 4, 2, trials, seed=9)
            warm = estimate_rip(first, 4, 2, trials, seed=9)
            assert fresh_probe_cache.cache_info().hits == hits + 6
            assert warm == cold == estimate_rip_reference(first, 4, 2, trials, 9)
            assert other == estimate_rip_reference(second, 4, 2, trials, 9)

    def test_cache_is_bounded_and_holds_only_blocks(self, fresh_probe_cache):
        assert fresh_probe_cache.cache_info().maxsize == PROBE_CACHE_CHUNKS
        mp = sample_map("dense-gaussian", 6, 20, seed=1)
        estimate_rip(mp, 2, 1, (PROBE_CACHE_CHUNKS + 3) * PROBE_CHUNK, seed=2)
        assert fresh_probe_cache.cache_info().currsize == PROBE_CACHE_CHUNKS
        n, s, r, trials = 9, 3, 2, PROBE_CHUNK + 7
        estimate_rip(sample_map("rank-one", n, 40, seed=3), s, r, trials, seed=4)
        misses = fresh_probe_cache.cache_info().misses
        for start in range(0, trials, PROBE_CHUNK):
            c = min(PROBE_CHUNK, trials - start)
            chunk = fresh_probe_cache(n, s, r, 4, start, start + c)
            supports, blocks, zf2 = chunk
            # one stacked array each: supports, s x s blocks and their squared norms
            assert supports.shape == (c, s) and blocks.shape == (c, s, s) and zf2.shape == (c,)
            assert not any(arr.flags.writeable for arr in chunk)
            assert np.array_equal(zf2, [float(np.sum(block * block)) for block in blocks])
        assert fresh_probe_cache.cache_info().misses == misses


class TestEstimateRip:
    def test_isometry_hook_gives_zero_delta(self):
        mp = isometry_map(5)
        est = estimate_rip(mp, 2, 1, 50, seed=0)
        assert est.delta_lower <= 1e-12

    def test_fields_and_ordering(self):
        mp = sample_map("rank-one", 10, 60, seed=13)
        est = estimate_rip(mp, 2, 1, 100, seed=5)
        assert est.alpha_hat <= est.beta_hat
        assert est.delta_lower >= 0.0
        assert est.trials == 100

    def test_seed_determinism(self):
        mp = sample_map("dense-gaussian", 8, 40, seed=14)
        a = estimate_rip(mp, 2, 1, 50, seed=3)
        b = estimate_rip(mp, 2, 1, 50, seed=3)
        assert a == b

    def test_delta_decreases_with_m(self):
        medians = []
        for m in (30, 60, 120, 240):
            deltas = []
            for sd in range(5):
                mp = sample_map("dense-gaussian", 20, m, seed=301 + sd)
                deltas.append(estimate_rip(mp, 3, 1, 200, seed=23 + sd).delta_lower)
            medians.append(float(np.median(deltas)))
        assert all(a > b for a, b in zip(medians, medians[1:]))

    def test_l1_ratio_shrinks_with_m(self):
        ratios = []
        for m in (100, 400):
            per_seed = []
            for sd in range(3):
                mp = sample_map("rank-one", 20, m, seed=401 + sd)
                est = estimate_rip(mp, 3, 1, 200, seed=31 + sd)
                per_seed.append(est.beta_hat / est.alpha_hat)
            ratios.append(float(np.median(per_seed)))
        assert ratios[0] > ratios[1] > 1.0


class TestCrossTerm:
    def test_isometry_hook_zero(self):
        mp = isometry_map(5)
        report = check_rip_cross_term(mp, 2, 1, 50, delta=0.1, seed=1)
        assert report.worst_ratio <= 1e-12
        assert report.within

    @staticmethod
    def reference_worst(mp, s, r, trials, seed):
        """The worst cross-term ratio with n x n probes: trial t's pair is two sample_structured
        draws from default_rng([seed, t]), each measured with apply."""
        worst = 0.0
        for t in range(trials):
            rng = np.random.default_rng([seed, t])
            za, _ = sample_structured(mp.n, s, r, rng)
            zb, _ = sample_structured(mp.n, s, r, rng)
            num = abs(float(mp.apply(za) @ mp.apply(zb)) - float(np.sum(za * zb)))
            worst = max(worst, num / (np.linalg.norm(za) * np.linalg.norm(zb)))
        return worst

    # n=9, s=8: a pair's supports share at least 7 of their 8 indices; 70 trials span 3 chunks
    @pytest.mark.parametrize("n,s,r,trials", [(9, 3, 2, 40), (9, 8, 3, 70)])
    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_blocks_match_the_dense_probe_reference(self, kind, kwargs, n, s, r, trials):
        mp = sample_map(kind, n, 60, seed=17, **kwargs)
        report = check_rip_cross_term(mp, s, r, trials, delta=0.5, seed=4)
        want = self.reference_worst(mp, s, r, trials, seed=4)
        assert report.worst_ratio == pytest.approx(want, rel=1e-12)
        assert report.within == (report.worst_ratio <= 0.5) and report.delta == 0.5


class TestSerialization:
    @pytest.mark.parametrize("kind,kwargs", ALL_KINDS)
    def test_header_roundtrip(self, kind, kwargs):
        mp = sample_map(kind, 5, 8, seed=19, **kwargs)
        x = random_sym(5, 60)
        buf = io.StringIO()
        write_measurement_file(mp, mp.apply(x), buf)
        back, _ = read_measurement_file(io.StringIO(buf.getvalue()))
        assert back.kind == mp.kind and back.n == mp.n and back.m == mp.m
        assert np.array_equal(back.apply(x), mp.apply(x))

    def test_measurement_file_roundtrip(self):
        mp = sample_map("rank-one", 6, 9, seed=23)
        y = mp.apply(random_sym(6, 61))
        buf = io.StringIO()
        write_measurement_file(mp, y, buf)
        back_map, back_y = read_measurement_file(io.StringIO(buf.getvalue()))
        assert np.array_equal(back_y, y)
        assert np.array_equal(back_map.vectors, mp.vectors)

    def test_injected_payload_refuses_serialization(self):
        mp = isometry_map(3)
        with pytest.raises(ValueError, match="seed"):
            write_map_header(mp, io.StringIO())

    def test_unknown_header_key_rejected(self):
        text = "kind factorized\nn 4\nm 6\np 5\ninnr rank-one\nseed 3\n"
        with pytest.raises(ValueError, match="innr"):
            read_measurement_file(io.StringIO(text + "y\n" + "1.0\n" * 6))

    @pytest.mark.parametrize("header,key,lineno", [
        ("kind dense-gaussian\nn 4\nm 6\nn 5\nseed 3\n", "n", 4),
        ("kind rank-one\nn 4\nm 6\nscale unit\n\nscale unit\nseed 3\n", "scale", 6),
        ("kind rank-one\nkind dense-gaussian\nn 4\nm 6\nseed 3\n", "kind", 2),
    ])
    def test_repeated_header_key_rejected(self, header, key, lineno):
        # the last value used to win silently: the first case built an n=5 map
        with pytest.raises(ValueError, match=f"^line {lineno}: repeated map header key '{key}'$"):
            read_measurement_file(io.StringIO(header + "y\n" + "1.0\n" * 6))

    def test_header_option_the_kind_does_not_take_rejected(self):
        text = "kind dense-gaussian\nn 4\nm 6\nscale unit\ninner rank-one\nseed 3\n"
        with pytest.raises(ValueError, match="dense-gaussian.*inner.*scale"):
            read_measurement_file(io.StringIO(text + "y\n" + "1.0\n" * 6))

    def test_values_after_last_measurement_rejected(self):
        mp = sample_map("rank-one", 3, 2, seed=31)
        buf = io.StringIO()
        write_measurement_file(mp, [1.0, 2.0], buf)
        read_measurement_file(io.StringIO(buf.getvalue() + "\n"))
        with pytest.raises(ValueError, match="after the 2 measurements"):
            read_measurement_file(io.StringIO(buf.getvalue() + "3.0\n"))

    def test_missing_sentinel_rejected(self):
        mp = sample_map("dense-gaussian", 3, 4, seed=29)
        buf = io.StringIO()
        write_map_header(mp, buf)
        buf.write("1.0\n")
        with pytest.raises(ValueError, match="sentinel"):
            read_measurement_file(io.StringIO(buf.getvalue()))
