import itertools
import math
import time

import numpy as np
import pytest

from bisparse.projections import (
    ENUMERATION_CAP,
    RANK_TOL,
    EnumerationCapError,
    _check_enumeration,
    exact_project,
    head_anchor,
    head_joint,
    head_psd_lowrank,
    head_rowcol,
    head_shrink,
    head_square,
    head_square_variant,
    hierarchical_mask,
    project_hierarchical,
    tail_bisparse,
    tail_joint,
)
from bisparse.symcore import _restrict
from helpers import sym


def random_sym(n, seed):
    rng = np.random.default_rng(seed)
    return sym(rng.standard_normal((n, n)))


# ---------------------------------------------------------------------------
# independent oracles: plain enumeration + SVD truncation (no library calls)

def block_energy(m, support):
    sub = m[np.ix_(support, support)]
    return float(np.sum(sub * sub))


def best_block_energy(m, s):
    """max over |S| = s of ||M_{S x S}||_F^2 by enumeration."""
    n = m.shape[0]
    return max(block_energy(m, list(c)) for c in itertools.combinations(range(n), s))


def svd_truncate(block, r):
    u, sv, vt = np.linalg.svd(block)
    return (u[:, :r] * sv[:r]) @ vt[:r, :]


def best_joint_distance(m, s, r):
    """min over supports of || M - embed(best rank-r of M_{S x S}) ||_F."""
    n = m.shape[0]
    best = np.inf
    for cand in itertools.combinations(range(n), s):
        embedded = np.zeros_like(m)
        embedded[np.ix_(cand, cand)] = svd_truncate(m[np.ix_(cand, cand)], r)
        best = min(best, float(np.linalg.norm(m - embedded)))
    return best


def best_joint_energy(m, s, r):
    """max over supports of || best rank-r of M_{S x S} ||_F^2."""
    n = m.shape[0]
    best = 0.0
    for cand in itertools.combinations(range(n), s):
        sv = np.linalg.svd(m[np.ix_(cand, cand)], compute_uv=False)
        best = max(best, float(np.sum(sv[:r] ** 2)))
    return best


def best_bisparse_residual(m, s):
    """min over supports of || M - M_{S x S} ||_F by enumeration."""
    total = float(np.sum(m * m))
    return np.sqrt(max(total - best_block_energy(m, s), 0.0))


# ---------------------------------------------------------------------------
# input families for the bitwise comparisons against the replaced loop versions

FAMILIES = ["gaussian", "integer-ties", "mostly-zero"]


def family_draw(rng, family, shape):
    """A random array of the family: Gaussian, small integers (many exact ties)
    or Gaussian with about 90% exact zeros."""
    if family == "gaussian":
        return rng.standard_normal(shape)
    if family == "integer-ties":
        return rng.integers(-2, 3, shape).astype(float)
    return rng.standard_normal(shape) * (rng.random(shape) < 0.1)


def family_sym(family, seed):
    """(n, a + a^T) for n = 1..40, `a` drawn from the family."""
    rng = np.random.default_rng(seed)
    for n in range(1, 41):
        a = family_draw(rng, family, (n, n))
        yield n, a + a.T


def top_indices_reference(values, k):
    # the 1-D selection every projection used before the shared kernel
    return np.sort(np.argsort(-values, kind="stable")[:k])


# ---------------------------------------------------------------------------


class TestExactProject:
    def test_diagonal(self):
        out = exact_project(np.diag([5.0, 3.0, 1.0]), 2, 1)
        assert np.array_equal(out.support, [0, 1])
        assert np.allclose(out.matrix, np.diag([5.0, 0.0, 0.0]), atol=1e-12)

    def test_member_is_fixed_point(self):
        m = _restrict(random_sym(6, 3), np.array([1, 4]))
        out = exact_project(m, 2, 2)
        assert np.allclose(out.matrix, m, atol=1e-12)
        assert out.objective == pytest.approx(np.linalg.norm(m))

    def test_minimizes_distance_over_enumeration(self):
        for seed in range(10):
            m = random_sym(8, seed)
            out = exact_project(m, 3, 2)
            dist = np.linalg.norm(m - out.matrix)
            assert dist <= best_joint_distance(m, 3, 2) + 1e-10

    def test_pythagoras_identity(self):
        m = random_sym(7, 40)
        out = exact_project(m, 3, 2)
        lhs = np.linalg.norm(m - out.matrix) ** 2
        rhs = np.linalg.norm(m) ** 2 - out.objective**2
        assert abs(lhs - rhs) <= 1e-8 * np.linalg.norm(m) ** 2

    def test_restriction_property(self):
        # projecting the restriction to any superset of the winning support
        # returns the same projection
        for seed in range(5):
            m = random_sym(7, seed + 60)
            out = exact_project(m, 2, 1)
            star = set(out.support.tolist())
            rest = [i for i in range(7) if i not in star]
            for k in range(len(rest) + 1):
                for extra in itertools.combinations(rest, k):
                    sup = sorted(star | set(extra))
                    again = exact_project(_restrict(m, np.array(sup)), 2, 1)
                    assert np.max(np.abs(again.matrix - out.matrix)) <= 1e-10

    def test_cap_refusal(self):
        with pytest.raises(EnumerationCapError, match="tail_joint"):
            exact_project(np.eye(40), 20, 1)

    @pytest.mark.parametrize("n,s", [(10**5, 5 * 10**4), (10**6, 5 * 10**5), (24, 12)])
    def test_cap_refuses_large_enumerations_at_once(self, n, s):
        # C(n, s) >= C(24, 12) > ENUMERATION_CAP once min(s, n - s) >= 12; math.comb of the
        # (10**6, 5 * 10**5) pair alone takes seconds
        start = time.perf_counter()
        with pytest.raises(EnumerationCapError) as info:
            _check_enumeration(n, s)
        assert time.perf_counter() - start < 0.1
        assert str(info.value) == (
            f"support enumeration over C({n},{s}) exceeds the cap {ENUMERATION_CAP}; "
            "use tail_joint (iht_head_tail in recovery) for polynomial time")

    def test_cap_still_counts_below_the_early_refusal(self):
        assert math.comb(22, 11) <= ENUMERATION_CAP < math.comb(24, 12)
        _check_enumeration(22, 11)
        _check_enumeration(10**6, 1)
        with pytest.raises(EnumerationCapError):
            _check_enumeration(3000, 2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            exact_project(np.eye(3), 0, 1)
        with pytest.raises(ValueError):
            exact_project(np.eye(3), 2, 3)


class TestTailBisparse:
    def test_exactly_bisparse_input(self):
        m = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        out = tail_bisparse(m, 2)
        assert np.array_equal(out.support, [1, 2])
        assert np.array_equal(out.matrix, m)

    def test_tie_breaks_to_lower_index(self):
        m = np.array([[0.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        out = tail_bisparse(m, 1)
        assert np.array_equal(out.support, [1])
        residual_sq = np.linalg.norm(m - out.matrix) ** 2
        assert residual_sq == pytest.approx(9.0)
        # exhaustive minimum over single-index supports is also 9
        assert best_bisparse_residual(m, 1) ** 2 == pytest.approx(9.0)

    def test_sqrt2_bound_against_enumeration(self):
        for seed in range(10):
            m = random_sym(10, seed + 80)
            out = tail_bisparse(m, 3)
            residual = np.linalg.norm(m - out.matrix)
            assert residual <= np.sqrt(2.0) * best_bisparse_residual(m, 3) + 1e-10


class TestTailJoint:
    def test_member_is_fixed_point(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 1)))
        block = q @ np.diag([2.0]) @ q.T
        m = np.zeros((6, 6))
        m[np.ix_([0, 2, 5], [0, 2, 5])] = block
        out = tail_joint(m, 3, 1)
        assert np.allclose(out.matrix, m, atol=1e-12)

    def test_diagonal_matches_exact(self):
        out = tail_joint(np.diag([5.0, 3.0, 1.0]), 2, 1)
        assert np.allclose(out.matrix, np.diag([5.0, 0.0, 0.0]), atol=1e-12)

    def test_constant_against_exact_project(self):
        bound = 1.0 + 2.0 * np.sqrt(2.0)
        for seed in range(10):
            m = random_sym(8, seed + 100)
            approx = np.linalg.norm(m - tail_joint(m, 3, 1).matrix)
            exact = np.linalg.norm(m - exact_project(m, 3, 1).matrix)
            assert approx <= bound * exact + 1e-10


class TestHeadSquare:
    def test_s1_keeps_largest_diagonal(self):
        m = np.diag([1.0, -7.0, 3.0])
        out = head_square(m, 1)
        assert np.array_equal(out.support, [1])
        assert out.matrix[1, 1] == -7.0

    def test_member_energy_preserved(self):
        m = _restrict(random_sym(9, 4), np.array([2, 3, 6]))
        out = head_square(m, 3)
        assert np.linalg.norm(out.matrix) >= np.linalg.norm(m) - 1e-12

    def test_beats_enumeration(self):
        # both sides evaluated by the same block-energy reduction so that the
        # exact inequality is not blurred by summation order on ties
        for seed in range(10):
            m = random_sym(9, seed + 120)
            out = head_square(m, 2)
            assert out.support.size <= 4
            assert block_energy(m, out.support) >= best_block_energy(m, 2)

    @staticmethod
    def loop_reference(m, s):
        # the per-row loop head_square replaced: each row's s-1 largest
        # off-diagonal magnitudes (stable order) are its partners
        n = m.shape[0]
        absm = np.abs(m)
        scores = np.empty(n)
        partners = []
        for i in range(n):
            others = np.delete(np.arange(n), i)
            chosen = others[np.argsort(-absm[i, others], kind="stable")][: s - 1]
            partners.append(chosen)
            scores[i] = absm[i, i] ** 2 + float(np.sum(absm[i, chosen] ** 2))
        anchors = np.sort(np.argsort(-scores, kind="stable")[:s])
        members = set(anchors.tolist())
        for i in anchors:
            members.update(partners[i].tolist())
        return np.array(sorted(members), dtype=int)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop_reference(self, family):
        seed = {"gaussian": 1, "integer-ties": 2, "mostly-zero": 3}[family]
        for n, m in family_sym(family, seed):
            for s in range(1, n + 1):
                out = head_square(m, s)
                support = self.loop_reference(m, s)
                assert np.array_equal(out.support, support), (n, s)
                assert np.array_equal(out.matrix, _restrict(m, out.support)), (n, s)


class TestHeadRowcol:
    def test_dominant_block_selected(self):
        m = np.zeros((6, 6))
        m[np.ix_([1, 4], [1, 4])] = np.array([[5.0, 4.0], [4.0, 5.0]])
        m += 0.01 * random_sym(6, 9)
        out = head_rowcol(m, 2)
        assert {1, 4}.issubset(set(out.support.tolist()))

    def test_full_sparsity_keeps_everything(self):
        m = random_sym(5, 10)
        out = head_rowcol(m, 5)
        assert np.array_equal(out.matrix, m)

    def test_s_over_n_bound(self):
        for seed in range(10):
            m = random_sym(10, seed + 140)
            out = head_rowcol(m, 2)
            assert out.support.size <= 4
            assert np.linalg.norm(out.matrix) ** 2 >= 0.2 * best_block_energy(m, 2)

    @staticmethod
    def union_reference(m, s):
        # head_rowcol before the membership mask: np.union1d of rows and columns
        rows = top_indices_reference(np.linalg.norm(m, axis=1), s)
        cols = top_indices_reference(np.linalg.norm(m[rows, :], axis=0), s)
        return np.union1d(rows, cols)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_union_reference(self, family):
        for n, m in family_sym(family, 11):
            for s in range(1, n + 1):
                out = head_rowcol(m, s)
                support = self.union_reference(m, s)
                assert np.array_equal(out.support, support), (n, s)
                assert np.array_equal(out.matrix, _restrict(m, out.support)), (n, s)


class TestHeadAnchor:
    def test_s1_keeps_largest_diagonal(self):
        out = head_anchor(np.diag([1.0, -7.0, 3.0]), 1)
        assert np.array_equal(out.support, [1])

    def test_rank_one_basis_vector(self):
        m = np.zeros((5, 5))
        m[0, 0] = 1.0
        out = head_anchor(m, 2)
        assert 0 in out.support.tolist()
        assert np.linalg.norm(out.matrix) == 1.0

    def test_one_over_s_bound(self):
        for seed in range(10):
            m = random_sym(8, seed + 160)
            out = head_anchor(m, 3)
            assert out.support.size <= 3
            assert np.linalg.norm(out.matrix) ** 2 >= best_block_energy(m, 3) / 3.0

    @staticmethod
    def orders_reference(m):
        # per anchor column j: the other rows by decreasing |M[., j]|, stable
        n = m.shape[0]
        absm = np.abs(m)
        orders = []
        for j in range(n):
            others = np.delete(np.arange(n), j)
            orders.append(others[np.argsort(-absm[others, j], kind="stable")])
        return absm, orders

    @staticmethod
    def loop_reference(absm, orders, s):
        # the per-column loop head_anchor replaced: the first anchor column
        # whose s-1 partners carry the most energy wins
        best_val = -1.0
        best_support = None
        for j, order in enumerate(orders):
            chosen = order[: s - 1]
            val = absm[j, j] ** 2 + float(np.sum(absm[chosen, j] ** 2))
            if val > best_val:
                best_val = val
                best_support = np.append(chosen, j)
        return np.sort(best_support)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop_reference(self, family):
        rng = np.random.default_rng(12)
        for n, sym in family_sym(family, 13):
            # asymmetry within check_sym's tolerance: columns, not rows, must decide
            dirty = sym + 1e-14 * rng.standard_normal((n, n))
            for m in (sym, dirty):
                absm, orders = self.orders_reference(m)
                for s in range(1, n + 1):
                    out = head_anchor(m, s)
                    support = self.loop_reference(absm, orders, s)
                    assert np.array_equal(out.support, support), (n, s)
                    assert np.array_equal(out.matrix, _restrict(m, out.support)), (n, s)


def random_psd(n, r, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, r))
    return g @ g.T


class TestHeadPsdLowrank:
    def test_rank_one_exact(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(6)
        m = np.outer(x, x)
        out = head_psd_lowrank(m, 3)
        expected = np.sort(np.argsort(-np.abs(x), kind="stable")[:3])
        assert np.array_equal(out.support, expected)
        assert np.linalg.norm(out.matrix) ** 2 >= best_block_energy(m, 3) - 1e-10

    def test_diagonal_psd(self):
        out = head_psd_lowrank(np.diag([3.0, 5.0, 1.0, 0.0]), 1)
        assert set(out.support.tolist()) == {0, 1, 2}

    def test_wishart_bound(self):
        for seed in range(10):
            m = random_psd(10, 2, seed + 180)
            out = head_psd_lowrank(m, 3)
            assert out.support.size <= 6
            assert np.linalg.norm(out.matrix) ** 2 >= best_block_energy(m, 3) / 2.0

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="indefinite"):
            head_psd_lowrank(np.diag([1.0, -1.0]), 1)

    def test_rank_override(self):
        m = random_psd(6, 3, 77)
        out = head_psd_lowrank(m, 2, rank_override=1)
        assert out.support.size <= 2

    @staticmethod
    def factors_reference(m, rank_override):
        # head_psd_lowrank's factors: |eigenvectors| of the r leading eigenvalues
        n = m.shape[0]
        vals, vecs = np.linalg.eigh(m)
        order = np.argsort(-vals, kind="stable")
        vals, vecs = vals[order], vecs[:, order]
        if rank_override is not None:
            r = min(rank_override, n)
        else:
            top = abs(vals[0])
            r = int(np.sum(vals > RANK_TOL * top)) if top > 0 else 0
        return [np.abs(vecs[:, k]) for k in range(r)]

    @staticmethod
    def loop_reference(factors, s):
        # the per-factor set loop head_psd_lowrank replaced
        members = set()
        for factor in factors:
            members.update(top_indices_reference(factor, s).tolist())
        return np.array(sorted(members), dtype=int)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_loop_reference(self, family):
        rng = np.random.default_rng(14)
        for n in range(1, 41):
            a = family_draw(rng, family, (n, n))
            m = a @ a.T
            for rank_override in (None, 1):
                factors = self.factors_reference(m, rank_override)
                for s in range(1, n + 1):
                    out = head_psd_lowrank(m, s, rank_override=rank_override)
                    support = self.loop_reference(factors, s)
                    assert np.array_equal(out.support, support), (n, s, rank_override)
                    assert np.array_equal(out.matrix, _restrict(m, out.support)), (n, s)


class TestHeadJoint:
    def test_rank_one_atom(self):
        m = np.zeros((4, 4))
        m[2, 2] = 3.0
        out = head_joint(m, 1, 1)
        assert np.array_equal(out.support, [2])
        assert out.matrix[2, 2] == pytest.approx(3.0)

    def test_full_rank_reduces_to_anchor(self):
        m = random_sym(6, 12)
        assert np.allclose(
            head_joint(m, 3, 3).matrix, head_anchor(m, 3).matrix, atol=1e-10
        )

    def test_r_over_s_squared_bound(self):
        for seed in range(10):
            m = random_sym(8, seed + 200)
            out = head_joint(m, 3, 1)
            assert np.linalg.norm(out.matrix) ** 2 >= best_joint_energy(m, 3, 1) / 9.0

    def test_rank_exceeding_sparsity_rejected(self):
        with pytest.raises(ValueError):
            head_joint(np.eye(4), 2, 3)


class TestHeadSquareVariant:
    def test_member_norm_preserved(self):
        rng = np.random.default_rng(8)
        q, _ = np.linalg.qr(rng.standard_normal((2, 1)))
        m = np.zeros((7, 7))
        m[np.ix_([1, 5], [1, 5])] = q @ np.diag([3.0]) @ q.T
        out = head_square_variant(m, 2, 1)
        assert np.linalg.norm(out.matrix) == pytest.approx(np.linalg.norm(m))

    def test_full_rank_equals_head_square(self):
        m = random_sym(6, 13)
        assert np.allclose(
            head_square_variant(m, 2, 6).matrix, head_square(m, 2).matrix, atol=1e-12
        )

    def test_joint_bound(self):
        for seed in range(10):
            m = random_sym(9, seed + 220)
            out = head_square_variant(m, 2, 1)
            assert out.support.size <= 4
            assert np.linalg.norm(out.matrix) ** 2 >= best_joint_energy(m, 2, 1) / 4.0


class TestHeadShrink:
    def test_tight_support_keeps_half_energy(self):
        m = random_sym(8, 30)
        sup = np.arange(4)
        out = head_shrink(m, sup, 4)
        block = np.linalg.norm(m[np.ix_(sup, sup)]) ** 2
        kept = np.linalg.norm(m[np.ix_(out.rows, sup)]) ** 2
        assert kept >= 0.5 * block - 1e-12

    def test_uniform_matrix_meets_bound_with_equality(self):
        m = np.ones((8, 8))
        # tight support (|S'| = s, so C = 1): kept quarter of the block energy
        out = head_shrink(m, np.arange(4), 4)
        kept = np.linalg.norm(m[np.ix_(out.rows, out.cols)]) ** 2
        assert kept == pytest.approx(16.0 / 4.0)
        # loose support (C = 2): the 1/(4 C^2) = 1/16 bound is met exactly
        out = head_shrink(m, np.arange(8), 4)
        kept = np.linalg.norm(m[np.ix_(out.rows, out.cols)]) ** 2
        assert kept == pytest.approx(64.0 / 16.0)

    def test_averaging_bound_random(self):
        rng = np.random.default_rng(5)
        for seed in range(10):
            m = random_sym(12, seed + 240)
            sup = np.sort(rng.choice(12, size=8, replace=False))
            out = head_shrink(m, sup, 4)
            constant = sup.size / 4
            kept = np.linalg.norm(m[np.ix_(out.rows, out.cols)]) ** 2
            total = np.linalg.norm(m[np.ix_(sup, sup)]) ** 2
            assert kept >= total / (4 * constant**2)
            assert out.support.size <= 4

    def test_odd_sparsity_rejected(self):
        with pytest.raises(ValueError, match="even"):
            head_shrink(np.eye(6), np.arange(5), 3)

    @staticmethod
    def union_reference(m, sp, s):
        # head_shrink before the membership mask: np.union1d of rows and columns
        half = s // 2
        rows = sp[top_indices_reference(np.linalg.norm(m[np.ix_(sp, sp)], axis=1), half)]
        cols = sp[top_indices_reference(np.linalg.norm(m[np.ix_(rows, sp)], axis=0), half)]
        return rows, cols, np.union1d(rows, cols)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_matches_union_reference(self, family):
        rng = np.random.default_rng(15)
        for n, m in family_sym(family, 16):
            subset = np.sort(rng.choice(n, size=rng.integers(1, n + 1), replace=False))
            for sp in (np.arange(n), subset):
                for s in range(2, sp.size + 1, 2):
                    out = head_shrink(m, sp, s)
                    rows, cols, support = self.union_reference(m, sp, s)
                    assert np.array_equal(out.rows, rows), (n, s)
                    assert np.array_equal(out.cols, cols), (n, s)
                    assert np.array_equal(out.support, support), (n, s)
                    assert np.array_equal(out.matrix, _restrict(m, out.support)), (n, s)


class TestProjectHierarchical:
    def test_already_sparse_fixed_point(self):
        m = np.zeros((5, 5))
        m[1, 2] = 4.0
        m[3, 2] = -1.0
        m[0, 4] = 2.0
        out = project_hierarchical(m, 2, 2)
        assert np.array_equal(out, m)

    def test_full_parameters_identity(self):
        m = np.random.default_rng(4).standard_normal((4, 6))
        assert np.array_equal(project_hierarchical(m, 6, 4), m)

    def test_frobenius_optimal_by_enumeration(self):
        rng = np.random.default_rng(9)
        for seed in range(5):
            m = np.random.default_rng(seed + 260).standard_normal((6, 6))
            out = project_hierarchical(m, 2, 2)
            achieved = np.linalg.norm(m - out)
            best = np.inf
            for cols in itertools.combinations(range(6), 2):
                for rows_a in itertools.combinations(range(6), 2):
                    for rows_b in itertools.combinations(range(6), 2):
                        cand = np.zeros_like(m)
                        cand[list(rows_a), cols[0]] = m[list(rows_a), cols[0]]
                        cand[list(rows_b), cols[1]] = m[list(rows_b), cols[1]]
                        best = min(best, np.linalg.norm(m - cand))
            assert achieved <= best + 1e-10

    def test_idempotent(self):
        m = np.random.default_rng(77).standard_normal((7, 7))
        once = project_hierarchical(m, 3, 2)
        assert np.array_equal(project_hierarchical(once, 3, 2), once)

    def test_mask_counts(self):
        m = np.random.default_rng(78).standard_normal((8, 8))
        mask = hierarchical_mask(m, 3, 2)
        assert np.count_nonzero(mask.any(axis=0)) <= 3
        assert np.max(mask.sum(axis=0)) <= 2

    @staticmethod
    def columns_reference(m, t):
        # the per-column loop hierarchical_mask replaced: each column's t
        # largest magnitudes (stable order) and their energy
        scores = np.empty(m.shape[1])
        kept_rows = []
        for j in range(m.shape[1]):
            order = np.argsort(-np.abs(m[:, j]), kind="stable")[:t]
            kept_rows.append(order)
            scores[j] = float(np.sum(m[order, j] ** 2))
        return kept_rows, scores

    @staticmethod
    def mask_reference(shape, kept_rows, scores, s):
        mask = np.zeros(shape, dtype=bool)
        for j in top_indices_reference(scores, s):
            mask[kept_rows[j], j] = True
        return mask

    @pytest.mark.parametrize("shape", ["square", "tall", "wide"])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_mask_matches_loop_reference(self, family, shape):
        rng = np.random.default_rng(17)
        for n in range(1, 41):
            dims = {"square": (n, n), "tall": (n + 7, n), "wide": (n, n + 7)}[shape]
            m = family_draw(rng, family, dims)
            rows, cols = dims
            for t in range(1, rows + 1):
                kept_rows, scores = self.columns_reference(m, t)
                for s in range(1, cols + 1):
                    if t in (1, s // 2, s, rows):
                        expected = self.mask_reference(dims, kept_rows, scores, s)
                        assert np.array_equal(hierarchical_mask(m, s, t), expected), (dims, s, t)


# Squares of magnitudes above about 1e154 overflow to inf.  Every picker must still rank 1e300
# above 1e200 (both within read_matrix's range), not tie them at inf and keep index 0; a
# RuntimeWarning fails the suite.
HUGE = np.array([[1e200, 0.0], [0.0, 1e300]])
HUGE_PICKS = {
    "tail_bisparse": lambda: tail_bisparse(HUGE, 1).support,
    "tail_joint": lambda: tail_joint(HUGE, 1, 1).support,
    "head_square": lambda: head_square(HUGE, 1).support,
    "head_square_variant": lambda: head_square_variant(HUGE, 1, 1).support,
    "head_rowcol": lambda: head_rowcol(HUGE, 1).support,
    "head_anchor": lambda: head_anchor(HUGE, 1).support,
    "head_joint": lambda: head_joint(HUGE, 1, 1).support,
    "head_shrink rows": lambda: head_shrink(HUGE, [0, 1], 2).rows,
    "head_shrink cols": lambda: head_shrink(HUGE, [0, 1], 2).cols,
    "hierarchical_mask": lambda: np.argwhere(hierarchical_mask(HUGE, 1, 1))[0],
}


@pytest.mark.parametrize("name", HUGE_PICKS)
def test_pickers_rank_magnitudes_whose_squares_overflow(name):
    assert np.all(HUGE_PICKS[name]() == 1)


class TestSupportMonotone:
    def test_outputs_on_restriction_stay_inside(self):
        sup = [0, 2, 3, 6]
        for seed in range(5):
            m = _restrict(random_sym(8, seed + 280), np.array(sup))
            outside = np.ones((8, 8), dtype=bool)
            outside[np.ix_(sup, sup)] = False
            for op in (
                lambda x: tail_bisparse(x, 2).matrix,
                lambda x: tail_joint(x, 2, 1).matrix,
                lambda x: head_square(x, 2).matrix,
                lambda x: head_rowcol(x, 2).matrix,
                lambda x: head_anchor(x, 2).matrix,
                lambda x: head_square_variant(x, 2, 1).matrix,
            ):
                assert np.max(np.abs(op(m)[outside])) <= 1e-15
