"""Fuzzed text readers: every input yields a value or a ValueError, never another exception.

The three readers of user text are fuzzed: experiment specs (parse_spec and the
bench's grid expansion), measurement files (read_measurement_file, which samples
the map its header names) and matrix files (read_matrix).  No solver runs.
Header dimensions are drawn small, so no input samples a large map; a header
larger than its rows comes only from the matrix reader, which never sizes an
array from the header.
"""

import math
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bisparse import bench
from bisparse.measurements import INNER_KINDS, KINDS, SCALES, read_measurement_file
from bisparse.symcore import read_matrix

# text without decimal digits, so a junk token never parses as a large dimension
JUNK = st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=5)
FLOATS = st.floats().map(repr)    # includes nan, inf, subnormals and the float64 extremes
SMALL_INTS = st.integers(-2, 8).map(str)
TOKENS = st.one_of(SMALL_INTS, FLOATS, FLOATS.map(lambda v: v + "x"), JUNK,
                   st.sampled_from([str(10**400), "1e308x", "0x", "-2x"]))


def _mangle(draw, lines):
    """The lines, often as they are, else with one line dropped or one junk line added."""
    lines = list(lines)
    action = draw(st.integers(0, 3))
    if action == 1 and lines:
        del lines[draw(st.integers(0, len(lines) - 1))]
    elif action == 2:
        lines.insert(draw(st.integers(0, len(lines))), draw(JUNK))
    return lines


@st.composite
def spec_texts(draw):
    lists = st.lists(TOKENS, min_size=1, max_size=3).map(", ".join)
    pairs = [("algo", st.sampled_from(bench.ALGOS + ("nope",))),
             ("ensemble", st.sampled_from(KINDS)),
             ("n", lists), ("s", lists), ("r", lists), ("m", lists)]
    pairs += [(key, TOKENS) for key in draw(st.lists(st.sampled_from(
        ["trials_per_cell", "noise_level", "success_tol", "base_seed", "p"]), max_size=2))]
    lines = [f"{key} = {draw(values)}" for key, values in pairs]
    return "\n".join(_mangle(draw, draw(st.permutations(lines)))) + "\n"


@st.composite
def measurement_texts(draw):
    kind = draw(st.sampled_from(KINDS))
    m = draw(st.integers(1, 5))
    header = [f"kind {kind}", f"n {draw(st.integers(1, 6))}", f"m {m}"]
    if kind == "factorized":
        header += [f"p {draw(st.integers(1, 6))}", f"inner {draw(st.sampled_from(INNER_KINDS))}"]
    if kind == "rank-one":
        header.append(f"scale {draw(st.sampled_from(SCALES))}")
    header.append(f"seed {draw(st.integers(0, 2**70))}")
    values = draw(st.lists(st.one_of(FLOATS, JUNK), min_size=m, max_size=m))
    return "\n".join(_mangle(draw, [*header, "y", *values])) + "\n"


@st.composite
def matrix_texts(draw):
    n = draw(st.integers(1, 4))
    rows = [" ".join(draw(st.lists(FLOATS, min_size=n, max_size=n))) for _ in range(n)]
    return "\n".join(_mangle(draw, [str(n), *rows])) + "\n"


INF_SPEC = "algo = head-tail\nensemble = dense-gaussian\nn = 30\ns = 2\nr = 1\nm = infx\n"


@settings(max_examples=300)
@given(spec_texts())
@example(INF_SPEC)
@example(INF_SPEC.replace("infx", "2x, 1e308x"))
@example(INF_SPEC.replace("s = 2", "s = 0").replace("infx", "2x"))
def test_spec_text_gives_cells_or_value_error(text):
    try:
        cells = list(bench._cells(bench.parse_spec(text.splitlines())))
    except ValueError:
        return
    assert cells and all(isinstance(m, int) for *_, m in cells)


@settings(max_examples=300)
@given(measurement_texts())
@example("kind rank-one\nn 2\nm 3\nscale unit\nseed 1\ny\n1e200\n3e200\n2e200\n")
def test_measurement_text_gives_a_map_or_value_error(text):
    try:
        mp, y = read_measurement_file(text.splitlines())
    except ValueError:
        return
    assert y.shape == (mp.m,) and np.all(np.isfinite(y))


@settings(max_examples=300)
@given(matrix_texts())
@example("1000000000\n1 2\n")
@example("2\n1 1.7976931348623157e+308\n1.7976931348623157e+308 1\n")
def test_matrix_text_gives_a_matrix_or_value_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.filterwarnings("ignore", "input matrix asymmetry", UserWarning)
        try:
            mat = read_matrix(text.splitlines())
        except ValueError:
            return
    n = int(text.split()[0])
    assert mat.shape == (n, n) and mat.dtype == np.float64
    assert np.array_equal(mat, mat.T) and all(math.isfinite(v) for v in mat.ravel())
