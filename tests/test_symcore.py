import io
import warnings

import numpy as np
import pytest

from bisparse.symcore import (
    _project_rank_vectors,
    check_support,
    eigen,
    frob_inner,
    project_rank,
    read_matrix,
    restrict,
    sym_enforce,
    write_matrix,
)


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    return sym_enforce(rng.standard_normal((n, n)))


class TestSymEnforce:
    def test_averages_asymmetric_pair(self):
        out = sym_enforce([[1.0, 2.0], [0.0, 1.0]])
        assert np.array_equal(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_symmetric_fixed_point(self):
        m = random_sym(5, 0)
        assert np.array_equal(sym_enforce(m), m)

    def test_antisymmetric_maps_to_zero(self):
        out = sym_enforce([[0.0, 4.0], [-4.0, 0.0]])
        assert np.array_equal(out, np.zeros((2, 2)))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            sym_enforce(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            sym_enforce([[1.0, np.inf], [np.inf, 1.0]])


class TestRestrict:
    def test_ones_block(self):
        m = np.ones((3, 3))
        out = restrict(m, [0, 1])
        expected = np.zeros((3, 3))
        expected[:2, :2] = 1.0
        assert np.array_equal(out, expected)

    def test_full_support_is_identity(self):
        m = random_sym(4, 1)
        assert np.array_equal(restrict(m, range(4)), m)

    def test_empty_support_gives_zero(self):
        m = random_sym(4, 2)
        assert np.array_equal(restrict(m, []), np.zeros((4, 4)))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            restrict(np.eye(3), [0, 3])

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            check_support([1, 1], 3)

    def test_is_orthogonal_projection(self):
        # the residual M - M|_S is disjointly supported from any N|_S,
        # so the inner product vanishes exactly
        support = [1, 3]
        for seed in range(5):
            m = random_sym(5, seed)
            n = random_sym(5, seed + 100)
            inner = frob_inner(m - restrict(m, support), restrict(n, support))
            assert inner == 0.0


class TestEigen:
    def test_diagonal_ordering_by_magnitude(self):
        dec = eigen(np.diag([3.0, 1.0, -2.0]))
        assert np.allclose(dec.eigenvalues, [3.0, -2.0, 1.0])

    def test_zero_matrix(self):
        dec = eigen(np.zeros((3, 3)))
        assert np.array_equal(dec.eigenvalues, np.zeros(3))

    def test_reconstruction(self):
        for seed in range(5):
            m = random_sym(5, seed)
            dec = eigen(m)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T
            assert np.linalg.norm(m - rebuilt) <= 1e-8 * np.linalg.norm(m)

    def test_magnitude_sorted(self):
        m = random_sym(6, 7)
        mags = np.abs(eigen(m).eigenvalues)
        assert np.all(np.diff(mags) <= 1e-14)

    def test_orthonormal_columns(self):
        v = eigen(random_sym(6, 8)).eigenvectors
        assert np.allclose(v.T @ v, np.eye(6), atol=1e-12)

    def test_deterministic_signs(self):
        m = random_sym(5, 3)
        a = eigen(m)
        b = eigen(m.copy())
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for k in range(5):
            col = a.eigenvectors[:, k]
            nz = np.nonzero(col)[0]
            assert col[nz[0]] > 0

    def test_signs_match_loop_reference(self):
        # the per-column loop the vectorized sign fix replaced; a zero first row
        # makes the first nonzero component sit below row 0
        m = random_sym(6, 4)
        m[0, :] = m[:, 0] = 0.0
        vals, vecs = np.linalg.eigh(m)
        vecs = vecs[:, np.argsort(-np.abs(vals), kind="stable")]
        for k in range(vecs.shape[1]):
            nz = np.nonzero(vecs[:, k])[0]
            if nz.size and vecs[nz[0], k] < 0:
                vecs[:, k] = -vecs[:, k]
        assert np.array_equal(eigen(m).eigenvectors, vecs)


class TestProjectRank:
    def test_diagonal_keeps_largest_magnitudes(self):
        out = project_rank(np.diag([3.0, 1.0, -2.0]), 2)
        assert np.allclose(out, np.diag([3.0, 0.0, -2.0]), atol=1e-14)

    def test_full_rank_is_identity(self):
        m = random_sym(4, 9)
        assert np.linalg.norm(project_rank(m, 4) - m) <= 1e-12 * np.linalg.norm(m)

    def test_rank_zero(self):
        assert np.array_equal(project_rank(random_sym(3, 1), 0), np.zeros((3, 3)))

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            project_rank(np.eye(2), -1)

    def test_dominates_random_candidates(self):
        # best rank-2 approximation beats 10^4 random symmetric rank-2 matrices
        m = random_sym(6, 11)
        best = np.linalg.norm(m - project_rank(m, 2))
        rng = np.random.default_rng(12)
        for _ in range(10_000):
            q, _ = np.linalg.qr(rng.standard_normal((6, 2)))
            cand = q @ np.diag(rng.standard_normal(2) * 3.0) @ q.T
            assert best <= np.linalg.norm(m - cand) + 1e-12

    def test_idempotent(self):
        for seed in range(5):
            m = random_sym(6, seed)
            once = project_rank(m, 2)
            twice = project_rank(once, 2)
            assert np.max(np.abs(twice - once)) <= 1e-10

    def test_pythagoras(self):
        for seed in range(5):
            m = random_sym(6, seed + 50)
            p = project_rank(m, 2)
            lhs = np.linalg.norm(m) ** 2
            rhs = np.linalg.norm(m - p) ** 2 + np.linalg.norm(p) ** 2
            assert abs(lhs - rhs) <= 1e-8 * lhs

    def test_preserves_support(self):
        m = restrict(random_sym(7, 21), [1, 2, 5])
        p = project_rank(m, 2)
        outside = np.ones((7, 7), dtype=bool)
        outside[np.ix_([1, 2, 5], [1, 2, 5])] = False
        assert np.max(np.abs(p[outside])) <= 1e-12

    def test_exactly_odd(self):
        for seed in range(10):
            m = restrict(random_sym(8, seed), [0, 2, 3])
            assert np.array_equal(project_rank(-m, 2), -project_rank(m, 2))

    @staticmethod
    def reference(m, rank):
        # project_rank before it ran on stacks: one matrix, sign canonicalized
        # by its first nonzero entry, eigenpairs by stable descending |value|,
        # each eigenvector's first nonzero component made positive
        r = min(rank, m.shape[0])
        nz = np.nonzero(m.ravel())[0]
        if r == 0 or nz.size == 0:
            return np.zeros_like(m)
        sign = 1.0 if m.ravel()[nz[0]] > 0 else -1.0
        vals, vecs = np.linalg.eigh((m if sign > 0 else -m) + 0.0)
        order = np.argsort(-np.abs(vals), kind="stable")
        vals = vals[order]
        vecs = vecs[:, order]
        for k in range(vecs.shape[1]):
            first = np.nonzero(vecs[:, k])[0][0]
            if vecs[first, k] < 0:
                vecs[:, k] *= -1.0
        vecs = vecs[:, :r]
        out = (vecs * vals[:r]) @ vecs.T
        out = (out + out.T) / 2.0
        return out if sign > 0 else -out

    @staticmethod
    def family(name, n, rng):
        if name == "gaussian":
            a = rng.standard_normal((n, n))
        elif name == "integer-ties":
            a = rng.integers(-2, 3, (n, n)).astype(float)
        elif name == "mostly-zero":
            a = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
        else:
            # signed zeros with a few nonzero entries: -0.0 must not reach LAPACK
            a = np.where(rng.random((n, n)) < 0.5, -0.0, 0.0)
            a[rng.random((n, n)) < 0.15] = 1.5
            return np.where(np.triu(np.ones((n, n), dtype=bool)), a, a.T)
        return a + a.T

    @staticmethod
    def bits(a):
        return a.view(np.uint64)

    @pytest.mark.parametrize("name", ["gaussian", "integer-ties", "mostly-zero", "signed-zero"])
    def test_matches_reference_bitwise(self, name):
        rng = np.random.default_rng(["gaussian", "integer-ties", "mostly-zero",
                                     "signed-zero"].index(name) + 70)
        for n in range(1, 30):
            for _ in range(3):
                m = self.family(name, n, rng)
                for rank in sorted({0, 1, 2, n, n + 1}):
                    for x in (m, -m):
                        got = project_rank(x, rank)
                        assert np.array_equal(self.bits(got), self.bits(self.reference(x, rank))), (
                            n, rank)

    def test_zero_matrix_bitwise(self):
        for z in (np.zeros((5, 5)), -np.zeros((5, 5))):
            assert np.array_equal(self.bits(project_rank(z, 2)), self.bits(np.zeros((5, 5))))

    def test_kernel_matches_project_rank(self):
        # the solvers and the probe sampler call the unchecked kernel directly
        rng = np.random.default_rng(77)
        for n in (1, 3, 8):
            mats = [self.family(name, n, rng)
                    for name in ("gaussian", "integer-ties", "mostly-zero", "signed-zero")]
            mats.append(np.zeros((n, n)))
            for r in sorted({1, n}):
                for x in mats + [-x for x in mats]:
                    out = _project_rank_vectors(x, r)[0]
                    assert np.array_equal(self.bits(out), self.bits(project_rank(x, r)))

    def test_kept_vectors_span_projection_and_ignore_sign(self):
        # iht_lowrank takes the tangent space of its iterate from these vectors,
        # so they must be the same bits for M and -M
        rng = np.random.default_rng(78)
        for n in (1, 3, 8):
            for name in ("gaussian", "integer-ties", "mostly-zero", "signed-zero"):
                x = self.family(name, n, rng)
                for r in sorted({1, n}):
                    (out, u), (neg, v) = (_project_rank_vectors(z, r) for z in (x, -x))
                    assert np.array_equal(self.bits(out), self.bits(project_rank(x, r)))
                    assert np.array_equal(self.bits(neg), self.bits(project_rank(-x, r)))
                    assert u.shape == v.shape == (n, r)
                    assert np.array_equal(self.bits(u), self.bits(v))
                    assert np.allclose(u.T @ u, np.eye(r), atol=1e-12)
                    assert np.allclose(u @ (u.T @ out), out, atol=1e-12)


class TestFrobInner:
    def test_identity_pair(self):
        assert frob_inner(np.eye(3), np.eye(3)) == 3.0

    def test_zero(self):
        assert frob_inner(random_sym(4, 0), np.zeros((4, 4))) == 0.0

    def test_matches_trace(self):
        a = random_sym(4, 5)
        b = random_sym(4, 6)
        assert abs(frob_inner(a, b) - np.trace(a.T @ b)) <= 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            frob_inner(np.eye(2), np.eye(3))


class TestMatrixText:
    def test_roundtrip(self):
        m = random_sym(4, 33)
        buf = io.StringIO()
        write_matrix(m, buf)
        back = read_matrix(io.StringIO(buf.getvalue()))
        assert np.array_equal(back, m)

    def test_warns_on_asymmetry(self):
        text = "2\n1.0 2.0\n0.5 1.0\n"
        with pytest.warns(UserWarning, match="asymmetry"):
            out = read_matrix(io.StringIO(text))
        assert np.allclose(out, [[1.0, 1.25], [1.25, 1.0]])

    def test_bad_value_names_line(self):
        text = "2\n1.0 2.0\n2.0 oops\n"
        with pytest.raises(ValueError, match="line 3"):
            read_matrix(io.StringIO(text))

    def test_short_row_names_line(self):
        text = "2\n1.0\n2.0 1.0\n"
        with pytest.raises(ValueError, match="line 2"):
            read_matrix(io.StringIO(text))

    def test_rows_give_the_bits_of_a_preallocated_fill(self):
        rng = np.random.default_rng(34)
        vals = rng.standard_normal((5, 5)) * 10.0 ** rng.integers(-300, 300, (5, 5))
        vals = (vals + vals.T) / 2.0
        text = "5\n" + "".join(" ".join(format(v, ".17g") for v in row) + "\n" for row in vals)
        want = np.empty((5, 5))
        for i, line in enumerate(text.splitlines()[1:]):
            want[i] = [float(tok) for tok in line.split()]
        got = read_matrix(io.StringIO(text))
        assert np.array_equal(got.view(np.uint64), sym_enforce(want).view(np.uint64))

    @pytest.mark.parametrize("text", ["1\n1.7e308\n", "2\n1 -1.7e308\n-1.7e308 1\n",
                                      "2\n1 nan\nnan 1\n"])
    def test_entries_whose_symmetrization_could_overflow_refused(self, text):
        with pytest.raises(ValueError, match="finite and at most half the float64 maximum"):
            read_matrix(io.StringIO(text))

    def test_opposite_entries_up_to_half_the_maximum_read_without_overflow(self):
        with pytest.warns(UserWarning, match="asymmetry 1.780e\\+308"):
            out = read_matrix(io.StringIO("2\n1 8.9e307\n-8.9e307 1\n"))
        assert np.array_equal(out, np.eye(2))

    def test_truncated_input(self):
        with pytest.raises(ValueError, match="line 3"):
            read_matrix(io.StringIO("2\n1.0 2.0\n"))
