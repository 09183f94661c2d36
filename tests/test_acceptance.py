"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and trial count is fixed here, nothing is calibrated at
run time.
"""

import io
import itertools
import math
import time

import numpy as np
import pytest

from bisparse.bench import ExperimentSpec, run_phase_transition, write_csv
from bisparse.measurements import (
    check_rip_cross_term,
    estimate_rip,
    sample_map,
    sample_structured,
)
from bisparse.projections import (
    exact_project,
    head_anchor,
    head_joint,
    head_psd_lowrank,
    head_rowcol,
    head_shrink,
    head_square,
    tail_bisparse,
    tail_joint,
)
from bisparse.recovery import RecoveryConfig, hihtp, iht_exact, iht_head_tail, iht_rank_one, two_step_factorized
from bisparse.symcore import _restrict
from helpers import sym


def check(criterion, description, condition):
    print(f"[criterion {criterion}] {'PASS' if condition else 'FAIL'}: {description}")
    assert condition, f"criterion {criterion} failed: {description}"


def random_sym(n, seed):
    return sym(np.random.default_rng(seed).standard_normal((n, n)))


def support_energy(squared, sup):
    """Block energy evaluated through one fixed code path (tie-safe)."""
    return float(np.sum(squared[np.ix_(sup, sup)]))


def exhaustive_best_energy(mat, combos):
    squared = mat * mat
    gathered = squared[combos[:, :, None], combos[:, None, :]].sum(axis=(1, 2))
    best = int(np.argmax(gathered))
    return support_energy(squared, combos[best])


def combos_array(n, s):
    return np.array(list(itertools.combinations(range(n), s)), dtype=int)


def svd_truncate_energy(block, r):
    sv = np.linalg.svd(block, compute_uv=False)
    return float(np.sum(sv[:r] ** 2))


def test_criterion_1_exact_projection_oracle():
    start = time.time()
    combos = combos_array(8, 3)
    worst_gap = 0.0
    for seed in range(200):
        m = random_sym(8, 10_000 + seed)
        out = exact_project(m, 3, 2)
        achieved = float(np.linalg.norm(m - out.matrix))
        best = np.inf
        for cand in combos:
            block = m[np.ix_(cand, cand)]
            u, sv, vt = np.linalg.svd(block)
            embedded = np.zeros_like(m)
            embedded[np.ix_(cand, cand)] = (u[:, :2] * sv[:2]) @ vt[:2, :]
            best = min(best, float(np.linalg.norm(m - embedded)))
        worst_gap = max(worst_gap, achieved - best)
    elapsed = time.time() - start
    check(1, f"exact_project distance-minimal on 200 instances (worst gap {worst_gap:.2e})",
          worst_gap <= 1e-10)
    check(1, f"runtime {elapsed:.1f}s < 10s", elapsed < 10.0)


def test_criterion_2_head_square_constant_one():
    combos = {s: combos_array(10, s) for s in (2, 3)}
    violations = 0
    oversized = 0
    for seed in range(1000):
        m = random_sym(10, 20_000 + seed)
        squared = m * m
        for s in (2, 3):
            out = head_square(m, s)
            if out.support.size > s * s:
                oversized += 1
            if support_energy(squared, out.support) < exhaustive_best_energy(m, combos[s]):
                violations += 1
    check(2, "head_square support size <= s^2 on 1000 matrices, s in {2, 3}", oversized == 0)
    check(2, "head_square energy >= exhaustive max (exact inequality)", violations == 0)


def test_criterion_3_head_constants():
    # anchor: 1/s on 8x8, s = 3
    combos83 = combos_array(8, 3)
    bad = 0
    for seed in range(500):
        m = random_sym(8, 30_000 + seed)
        out = head_anchor(m, 3)
        if support_energy(m * m, out.support) < exhaustive_best_energy(m, combos83) / 3.0:
            bad += 1
    check(3, "head_anchor >= (1/s) * max on 500 instances", bad == 0)

    # rowcol: s/n on 10x10, s = 2
    combos102 = combos_array(10, 2)
    bad = 0
    for seed in range(500):
        m = random_sym(10, 31_000 + seed)
        out = head_rowcol(m, 2)
        if support_energy(m * m, out.support) < 0.2 * exhaustive_best_energy(m, combos102):
            bad += 1
    check(3, "head_rowcol >= (s/n) * max on 500 instances", bad == 0)

    # psd low-rank: 1/r on rank-2 Wishart 10x10, s = 3
    combos103 = combos_array(10, 3)
    bad = 0
    for seed in range(500):
        g = np.random.default_rng(32_000 + seed).standard_normal((10, 2))
        m = g @ g.T
        out = head_psd_lowrank(m, 3)
        if out.support.size > 6:
            bad += 1
        if support_energy(m * m, out.support) < exhaustive_best_energy(m, combos103) / 2.0:
            bad += 1
    check(3, "head_psd_lowrank >= (1/r) * max on 500 rank-2 instances", bad == 0)

    # joint: r/s^2 on 8x8, s = 3, r = 1 (rank-projected energies on both sides)
    bad = 0
    for seed in range(500):
        m = random_sym(8, 33_000 + seed)
        out = head_joint(m, 3, 1)
        lhs = float(np.linalg.norm(out.matrix)) ** 2
        rhs = max(svd_truncate_energy(m[np.ix_(c, c)], 1) for c in combos83)
        if lhs < rhs / 9.0:
            bad += 1
    check(3, "head_joint >= (r/s^2) * max on 500 instances", bad == 0)


def test_criterion_4_tail_constants():
    combos103 = combos_array(10, 3)
    bad = 0
    for seed in range(500):
        m = random_sym(10, 40_000 + seed)
        squared = m * m
        total = float(np.sum(squared))
        out = tail_bisparse(m, 3)
        residual = np.sqrt(max(total - support_energy(squared, out.support), 0.0))
        best_energy = exhaustive_best_energy(m, combos103)
        best_residual = np.sqrt(max(total - best_energy, 0.0))
        if residual > np.sqrt(2.0) * best_residual + 1e-10:
            bad += 1
    check(4, "tail_bisparse residual <= sqrt(2) * exhaustive min on 500 instances", bad == 0)

    bound = 1.0 + 2.0 * np.sqrt(2.0)
    bad = 0
    for seed in range(500):
        m = random_sym(8, 41_000 + seed)
        approx = float(np.linalg.norm(m - tail_joint(m, 3, 1).matrix))
        exact = float(np.linalg.norm(m - exact_project(m, 3, 1).matrix))
        if approx > bound * exact + 1e-10:
            bad += 1
    check(4, "tail_joint residual <= (1 + 2 sqrt(2)) * exact residual on 500 instances", bad == 0)


def test_criterion_5_head_shrink_bound():
    rng = np.random.default_rng(99)
    bad = 0
    for seed in range(500):
        m = random_sym(12, 50_000 + seed)
        sprime = np.sort(rng.choice(12, size=8, replace=False))
        out = head_shrink(m, sprime, 4)
        constant = 8 / 4
        kept = float(np.sum(m[np.ix_(out.rows, out.cols)] ** 2))
        block = float(np.sum(m[np.ix_(sprime, sprime)] ** 2))
        if kept < block / (4.0 * constant**2):
            bad += 1
    check(5, "head_shrink rows-by-cols energy >= 1/(4C^2) of the block on 500 instances",
          bad == 0)


def test_criterion_6_restriction_property():
    worst = 0.0
    for seed in range(100):
        m = random_sym(7, 60_000 + seed)
        out = exact_project(m, 2, 1)
        star = set(out.support.tolist())
        rest = [i for i in range(7) if i not in star]
        for k in range(len(rest) + 1):
            for extra in itertools.combinations(rest, k):
                sup = sorted(star | set(extra))
                again = exact_project(_restrict(m, np.array(sup)), 2, 1)
                worst = max(worst, float(np.max(np.abs(again.matrix - out.matrix))))
    check(6, f"exact_project invariant under restriction to supersets (worst dev {worst:.2e})",
          worst <= 1e-10)


def test_criterion_7_idealized_iht():
    start = time.time()
    n, s, r, m_count, trials = 10, 2, 1, 40, 50
    clean_hits = 0
    noisy_hits = 0
    noisy_converged = 0
    for t in range(trials):
        mp = sample_map("dense-gaussian", n, m_count, seed=9000 + t)
        x, _ = sample_structured(n, s, r, np.random.default_rng(9500 + t))
        y = mp.apply(x)
        res = iht_exact(mp, y, s, r)
        if np.linalg.norm(res.estimate - x) / np.linalg.norm(x) <= 1e-6:
            clean_hits += 1
        rng = np.random.default_rng(9900 + t)
        e = rng.standard_normal(m_count)
        e *= 1e-3 * np.linalg.norm(y) / np.linalg.norm(e)
        noisy = iht_exact(mp, y + e, s, r)
        if noisy.converged:
            noisy_converged += 1
            if np.linalg.norm(noisy.estimate - x) <= 20.0 * np.linalg.norm(e):
                noisy_hits += 1
    elapsed = time.time() - start
    check(7, f"noiseless exact recovery in {clean_hits}/50 trials (need >= 45)", clean_hits >= 45)
    check(7, f"noisy error <= 20||e|| in {noisy_hits}/{noisy_converged} converged (need >= 90%)",
          noisy_hits >= math.ceil(0.9 * noisy_converged))
    check(7, f"runtime {elapsed:.1f}s < 60s", elapsed < 60.0)


def test_criterion_8_cross_term_lemma():
    mp = sample_map("dense-gaussian", 16, 150, seed=808)
    delta_hat = estimate_rip(mp, 4, 2, 1000, seed=1).delta_lower
    report = check_rip_cross_term(mp, 2, 1, 1000, delta_hat, seed=2)
    check(8, f"worst cross-term ratio {report.worst_ratio:.4f} <= delta_hat {delta_hat:.4f} + 0.05",
          report.worst_ratio <= delta_hat + 0.05)


def test_criterion_9_head_tail_iht():
    n, s, r, trials = 30, 2, 1, 50
    base = math.ceil(8 * r * (2 * s) ** 2 * math.log(math.e * n / s))
    hits = {}
    for mult in (0.5, 1.0, 2.0):
        m_count = math.ceil(mult * base)
        wins = 0
        for t in range(trials):
            mp = sample_map("dense-gaussian", n, m_count, seed=1000 + t)
            x, _ = sample_structured(n, s, r, np.random.default_rng(2000 + t))
            res = iht_head_tail(mp, mp.apply(x), s, r)
            wins += np.linalg.norm(res.estimate - x) <= 1e-6
        hits[mult] = wins
    check(9, f"head-tail success at m={base}: {hits[1.0]}/50 (need >= 40)", hits[1.0] >= 40)
    rates = [float(hits[0.5]) / trials, float(hits[1.0]) / trials, float(hits[2.0]) / trials]
    monotone = True
    for lo, hi in zip(rates, rates[1:]):
        pooled = (lo + hi) / 2.0
        slack = 2.0 * math.sqrt(max(pooled * (1 - pooled), 1e-12) * (2.0 / trials))
        if hi < lo - slack:
            monotone = False
    check(9, f"success rates nondecreasing in m within noise: {rates}", monotone)


def test_criterion_10_two_step_factorized():
    n, s, r, trials = 40, 3, 1, 50
    p = math.ceil(3 * s * math.log(math.e * n / s)) + 10
    m_count = math.ceil(6 * r * p)
    full = 0
    stage2_only = 0
    for t in range(trials):
        mp = sample_map("factorized", n, m_count, p=p, seed=3000 + t)
        x, _ = sample_structured(n, s, r, np.random.default_rng(4000 + t))
        res = two_step_factorized(mp, mp.apply(x), s, r)
        full += np.linalg.norm(res.estimate - x) <= 1e-6
        lifted = mp.basis @ x @ mp.basis.T
        res2 = hihtp(mp.basis, lifted, s, s)
        stage2_only += np.linalg.norm(res2.estimate - x) <= 1e-6
    check(10, f"two-step recovery {full}/50 at p={p}, m={m_count} (need >= 40)", full >= 40)
    check(10, f"stage-two-only recovery {stage2_only}/50 (need >= 48)", stage2_only >= 48)


def test_criterion_11_l1_rip_trend():
    medians = []
    for m_count in (100, 200, 400):
        ratios = []
        for sd in range(5):
            mp = sample_map("rank-one", 20, m_count, seed=101 + sd)
            est = estimate_rip(mp, 3, 1, 300, seed=17 + sd)
            ratios.append(est.beta_hat / est.alpha_hat)
        medians.append(float(np.median(ratios)))
    check(11, f"median beta/alpha strictly decreasing over m=100,200,400: "
              f"{[round(v, 3) for v in medians]}",
          medians[0] > medians[1] > medians[2])


def test_criterion_12_rank_one_modified_iht():
    n, s, r, trials = 24, 2, 1, 50
    m_count = math.ceil(10 * s**2 * math.log(math.e * n / s))
    wins = 0
    symmetric = True
    for t in range(trials):
        mp = sample_map("rank-one", n, m_count, seed=5000 + t)
        x, _ = sample_structured(n, s, r, np.random.default_rng(6000 + t))
        y = mp.apply(x)
        res = iht_rank_one(mp, y, s, r)
        if np.linalg.norm(res.estimate - x) / np.linalg.norm(x) <= 1e-3:
            wins += 1
        neg = iht_rank_one(mp, -y, s, r)
        if not np.array_equal(neg.estimate, -res.estimate):
            symmetric = False
    check(12, f"rank-one modified IHT success {wins}/50 at m={m_count} (need >= 25)", wins >= 25)
    check(12, "sign-symmetry holds exactly on every trial", symmetric)


def test_criterion_13_bench_determinism():
    spec = ExperimentSpec(
        algo="head-tail",
        ensemble="dense-gaussian",
        n=[12],
        s=[2],
        r=[1],
        m=["60", "2x"],
        trials_per_cell=4,
        noise_level=0.001,
        base_seed=77,
    )
    first = io.StringIO()
    second = io.StringIO()
    write_csv(run_phase_transition(spec), first)
    write_csv(run_phase_transition(spec), second)
    check(13, "rerunning the bench spec yields byte-identical CSV",
          first.getvalue() == second.getvalue())
