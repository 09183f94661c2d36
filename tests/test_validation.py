"""Error parity: public entry points raise the same ValueError as before internal
calls stopped re-validating.

Each message below is what the function raised when every internal call still
went through check_sym/check_support; faults are tried one at a time, plus the
precedence between a bad matrix, a bad rank and a bad sparsity.
"""

import io
import re

import numpy as np
import pytest

from bisparse import bench as B
from bisparse import measurements as M
from bisparse import projections as P
from bisparse import recovery as R
from bisparse import symcore as S

from helpers import sym

SYM4 = sym(np.random.default_rng(0).standard_normal((4, 4)))

MATRIX_FAULTS = {
    "non-square": (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
    "non-finite": (np.array([[1.0, np.nan], [np.nan, 1.0]]), "matrix entries must be finite"),
    "empty": (np.zeros((0, 0)), "matrix must be nonempty"),
    "asymmetric": (np.array([[1.0, 2.0], [0.0, 1.0]]),
                   "matrix is not symmetric (max asymmetry 2.000e+00)"),
}

# public functions of one matrix argument (the rest fixed to valid values)
MATRIX_FUNCTIONS = {
    "check_sym": S.check_sym,
    "project_rank": lambda m: S.project_rank(m, 1),
    "exact_project": lambda m: P.exact_project(m, 1, 1),
    "tail_bisparse": lambda m: P.tail_bisparse(m, 1),
    "tail_joint": lambda m: P.tail_joint(m, 1, 1),
    "head_square": lambda m: P.head_square(m, 1),
    "head_rowcol": lambda m: P.head_rowcol(m, 1),
    "head_anchor": lambda m: P.head_anchor(m, 1),
    "head_psd_lowrank": lambda m: P.head_psd_lowrank(m, 1),
    "head_joint": lambda m: P.head_joint(m, 1, 1),
    "head_square_variant": lambda m: P.head_square_variant(m, 1, 1),
    "head_shrink": lambda m: P.head_shrink(m, [0, 1], 2),
    "apply": lambda m: M.sample_map("rank-one", 2, 3, seed=0).apply(m),
}

SUPPORT_FAULTS = {
    "two-dimensional": ([[0, 1]], "support must be one-dimensional"),
    "out-of-range": ([0, 4], "support index out of range [0, 4)"),
    "negative": ([-1, 2], "support index out of range [0, 4)"),
    "duplicate": ([1, 1, 2], "support contains duplicate indices"),
}

SUPPORT_FUNCTIONS = {
    "check_support": lambda sp: S.check_support(sp, 4),
    "head_shrink": lambda sp: P.head_shrink(SYM4, sp, 2),
}

_RANK_ONE = M.sample_map("rank-one", 4, 10, seed=0)

SPEC = "algo = head-tail\nensemble = dense-gaussian\nn = 6\ns = 2\nr = 1\nm = 21\n"
HEADER = "kind dense-gaussian\nn 4\nm 2\nseed 7\ny\n1.0\n2.0\n"


def _spec(old, new):
    return lambda: B.parse_spec(io.StringIO(SPEC.replace(old, new)))


def _experiment(**fault):
    grid = dict(algo="head-tail", ensemble="dense-gaussian", n=[6], s=[2], r=[1], m=[21])
    return lambda: B.ExperimentSpec(**{**grid, **fault})


def _header(old, new):
    return lambda: M.read_measurement_file(io.StringIO(HEADER.replace(old, new)))

PARAMETER_FAULTS = {
    "project_rank negative rank": (lambda: S.project_rank(SYM4, -1),
                                   "rank bound must be nonnegative"),
    "exact_project s": (lambda: P.exact_project(SYM4, 0, 1),
                        "sparsity must satisfy 1 <= s <= 4, got 0"),
    "exact_project r": (lambda: P.exact_project(SYM4, 2, 3),
                        "rank bound must satisfy 1 <= r <= s=2, got 3"),
    "tail_bisparse s": (lambda: P.tail_bisparse(SYM4, 5),
                        "sparsity must satisfy 1 <= s <= 4, got 5"),
    "tail_joint s": (lambda: P.tail_joint(SYM4, 0, 1),
                     "sparsity must satisfy 1 <= s <= 4, got 0"),
    "tail_joint r": (lambda: P.tail_joint(SYM4, 2, 5),
                     "rank bound must satisfy 1 <= r <= 4, got 5"),
    "tail_joint s and r": (lambda: P.tail_joint(SYM4, 0, 0),
                           "rank bound must satisfy 1 <= r <= 4, got 0"),
    "tail_joint matrix and r": (lambda: P.tail_joint(np.ones((2, 3)), 1, 0),
                                "expected a square matrix, got shape (2, 3)"),
    "head_square s": (lambda: P.head_square(SYM4, 0),
                      "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_rowcol s": (lambda: P.head_rowcol(SYM4, 0),
                      "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_anchor s": (lambda: P.head_anchor(SYM4, 0),
                      "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_psd_lowrank s": (lambda: P.head_psd_lowrank(SYM4, 0),
                           "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_joint r above s": (lambda: P.head_joint(SYM4, 1, 2),
                             "rank bound must not exceed sparsity, got r=2 > s=1"),
    "head_joint r": (lambda: P.head_joint(SYM4, 2, 0),
                     "rank bound must satisfy 1 <= r <= 4, got 0"),
    "head_joint s and r": (lambda: P.head_joint(SYM4, 0, 0),
                           "rank bound must satisfy 1 <= r <= 4, got 0"),
    # the r <= s rule runs after the matrix's, r's and s's checks
    "head_joint matrix and r above s": (lambda: P.head_joint(np.ones((2, 3)), 1, 2),
                                        "expected a square matrix, got shape (2, 3)"),
    "head_joint s and r above s": (lambda: P.head_joint(SYM4, 0, 1),
                                   "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_square_variant s": (lambda: P.head_square_variant(SYM4, 0, 1),
                              "sparsity must satisfy 1 <= s <= 4, got 0"),
    "head_square_variant r": (lambda: P.head_square_variant(SYM4, 2, 0),
                              "rank bound must satisfy 1 <= r <= 4, got 0"),
    "head_square_variant s and r": (lambda: P.head_square_variant(SYM4, 5, 0),
                                    "rank bound must satisfy 1 <= r <= 4, got 0"),
    "head_shrink odd s": (lambda: P.head_shrink(SYM4, [0, 1], 1),
                          "sparsity must be even, got 1"),
    "hierarchical_mask vector": (lambda: P.hierarchical_mask(np.ones(3), 1, 1),
                                 "expected a matrix, got shape (3,)"),
    "project_hierarchical t": (lambda: P.project_hierarchical(SYM4, 1, 0),
                               "per-column sparsity must satisfy 1 <= t <= 4, got 0"),
    "hierarchical_mask nan": (lambda: P.hierarchical_mask(np.full((3, 3), np.nan), 1, 1),
                              "matrix entries must be finite"),
    "hierarchical_mask rectangular inf": (
        lambda: P.hierarchical_mask(np.array([[1.0, 2.0, -np.inf], [0.0, 1.0, 2.0]]), 1, 1),
        "matrix entries must be finite"),
    "project_hierarchical inf": (lambda: P.project_hierarchical([[np.inf, 1], [2, 3]], 1, 1),
                                 "matrix entries must be finite"),
    "project_hierarchical nan and t": (
        lambda: P.project_hierarchical([[np.nan, 1], [2, 3]], 1, 0),
        "matrix entries must be finite"),
    "sample_structured s": (lambda: M.sample_structured(4, 5, 1, np.random.default_rng(0)),
                            "sparsity must satisfy 1 <= s <= 4, got 5"),
    "sample_structured r": (lambda: M.sample_structured(4, 2, 3, np.random.default_rng(0)),
                            "rank must satisfy 1 <= r <= s=2, got 3"),
    "estimate_rip trials": (lambda: M.estimate_rip(_RANK_ONE, 5, 3, 0),
                            "need at least one trial"),
    "estimate_rip s": (lambda: M.estimate_rip(_RANK_ONE, 5, 1, 1),
                       "sparsity must satisfy 1 <= s <= 4, got 5"),
    "estimate_rip r": (lambda: M.estimate_rip(_RANK_ONE, 2, 3, 1),
                       "rank must satisfy 1 <= r <= s=2, got 3"),
    "apply dimension": (lambda: _RANK_ONE.apply(np.eye(3)),
                        "matrix dimension 3 != map dimension 4"),
    "apply asymmetric": (lambda: _RANK_ONE.apply(np.triu(np.ones((4, 4)))),
                         "matrix is not symmetric (max asymmetry 1.000e+00)"),
    # a value that does not parse names its key and line
    "parse_spec list entry": (_spec("n = 6", "n = 6, abc"),
                              "line 3: n takes int values, got 'abc'"),
    "parse_spec int scalar": (_spec("m = 21\n", "m = 21\ntrials_per_cell = 2.5\n"),
                              "line 7: trials_per_cell takes int values, got '2.5'"),
    "parse_spec float scalar": (_spec("m = 21\n", "m = 21\nnoise_level = lots\n"),
                                "line 7: noise_level takes float values, got 'lots'"),
    "map header n": (_header("n 4", "n x"), "line 2: n takes int values, got 'x'"),
    "map header m": (_header("m 2", "m 2.0"), "line 3: m takes int values, got '2.0'"),
    "map header seed": (_header("seed 7", "seed"), "line 4: seed takes int values, got ''"),
    "map header p": (_header("kind dense-gaussian", "kind factorized\np 1e3\ninner dense"),
                     "line 2: p takes int values, got '1e3'"),
    "map header unknown key": (_header("m 2\n", "m 2\nbogus 1\n"),
                               "line 4: unknown map header key 'bogus'"),
    "check_rip_cross_term trials": (lambda: M.check_rip_cross_term(_RANK_ONE, 5, 3, 0, 0.1),
                                    "need at least one trial"),
    "check_rip_cross_term s": (lambda: M.check_rip_cross_term(_RANK_ONE, 5, 1, 1, 0.1),
                               "sparsity must satisfy 1 <= s <= 4, got 5"),
    "check_rip_cross_term r": (lambda: M.check_rip_cross_term(_RANK_ONE, 2, 3, 1, 0.1),
                               "rank must satisfy 1 <= r <= s=2, got 3"),
    "solve algorithm": (lambda: R.solve("nope", _RANK_ONE, np.zeros(10), 2, 1),
                        "unknown algorithm 'nope'"),
    "hihtp s": (lambda: R.hihtp(np.ones((2, 3)), np.zeros((2, 2)), 0, 1),
                "need 1 <= s, t <= 3, got s=0, t=1"),
    "hihtp t": (lambda: R.hihtp(np.ones((2, 3)), np.zeros((2, 2)), 1, 4),
                "need 1 <= s, t <= 3, got s=1, t=4"),
    "brute_force_decode noise mode": (
        lambda: R.brute_force_decode(_RANK_ONE, np.zeros(10), 1, 1, noise_mode="l3"),
        "unknown noise mode 'l3'"),
    "ExperimentSpec algorithm": (_experiment(algo="nope"), "unknown algorithm 'nope'"),
    "ExperimentSpec ensemble": (_experiment(ensemble="nope"), "unknown ensemble 'nope'"),
    "ExperimentSpec empty grid": (_experiment(m=[]), "grid lists n, s, r, m must be nonempty"),
    "head_psd_lowrank negative override": (
        lambda: P.head_psd_lowrank(np.eye(4), 2, rank_override=-1),
        "rank override must be nonnegative"),
    "head_shrink s below 2": (lambda: P.head_shrink(SYM4, [0, 1], 0),
                              "sparsity must be at least 2, got 0"),
    "head_shrink short support": (lambda: P.head_shrink(SYM4, [0], 2),
                                  "given support has 1 indices, need at least s=2"),
    "hierarchical_mask s": (lambda: P.hierarchical_mask(np.ones((3, 2)), 3, 1),
                            "column sparsity must satisfy 1 <= s <= 2, got 3"),
    "read_matrix dimension": (lambda: S.read_matrix(io.StringIO("0\n")),
                              "line 1: dimension must be positive, got 0"),
    "write_matrix non-square": (lambda: S.write_matrix(np.ones((2, 3)), io.StringIO()),
                                "expected a square matrix, got shape (2, 3)"),
}


def _raises_exactly(call, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        call()


@pytest.mark.parametrize("fault", list(MATRIX_FAULTS))
@pytest.mark.parametrize("name", list(MATRIX_FUNCTIONS))
def test_matrix_faults(name, fault):
    mat, message = MATRIX_FAULTS[fault]
    _raises_exactly(lambda: MATRIX_FUNCTIONS[name](mat), message)


@pytest.mark.parametrize("fault", list(SUPPORT_FAULTS))
@pytest.mark.parametrize("name", list(SUPPORT_FUNCTIONS))
def test_support_faults(name, fault):
    support, message = SUPPORT_FAULTS[fault]
    _raises_exactly(lambda: SUPPORT_FUNCTIONS[name](support), message)


@pytest.mark.parametrize("case", list(PARAMETER_FAULTS))
def test_parameter_faults(case):
    _raises_exactly(*PARAMETER_FAULTS[case])


@pytest.mark.parametrize("name", ["tail_joint", "head_joint", "head_square_variant"])
def test_joint_projections_validate_the_matrix_once(name, monkeypatch):
    calls = []

    def counted(mat):
        calls.append(1)
        return S.check_sym(mat)

    monkeypatch.setattr(P, "check_sym", counted)
    for _ in range(2):
        getattr(P, name)(SYM4, 2, 1)
    assert len(calls) == 2
