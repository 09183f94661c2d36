import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import bisparse
from bisparse import bench, projections, recovery
from bisparse.cli import PROJECTIONS, main
from bisparse.measurements import (
    read_measurement_file,
    sample_map,
    sample_structured,
    write_measurement_file,
)
from bisparse.symcore import read_matrix, write_matrix


def write_matrix_file(path, mat):
    with open(path, "w") as fh:
        write_matrix(mat, fh)


@pytest.fixture
def diag_matrix(tmp_path):
    path = tmp_path / "m.txt"
    write_matrix_file(path, np.diag([5.0, 3.0, 1.0]))
    return path


def _hierarchical_outcome(mat, s, t):
    out = projections.project_hierarchical(mat, s, t)
    return projections.ProjectionOutcome(out, np.nonzero(np.any(out != 0.0, axis=0))[0])


# every --op: its extra flags and the library call they must reproduce
OP_CASES = {
    "exact": (["--s", "2", "--r", "1"], lambda m: projections.exact_project(m, 2, 1)),
    "tail-bisparse": (["--s", "3"], lambda m: projections.tail_bisparse(m, 3)),
    "tail-joint": (["--s", "3", "--r", "2"], lambda m: projections.tail_joint(m, 3, 2)),
    "head-square": (["--s", "2"], lambda m: projections.head_square(m, 2)),
    "head-rowcol": (["--s", "2"], lambda m: projections.head_rowcol(m, 2)),
    "head-anchor": (["--s", "3"], lambda m: projections.head_anchor(m, 3)),
    "head-psd": (["--s", "2", "--r", "2"],
                 lambda m: projections.head_psd_lowrank(m, 2, rank_override=2)),
    "head-joint": (["--s", "3", "--r", "1"], lambda m: projections.head_joint(m, 3, 1)),
    "head-square-variant": (["--s", "2", "--r", "1"],
                            lambda m: projections.head_square_variant(m, 2, 1)),
    "head-shrink": (["--s", "2", "--sprime", "1,3,4,6"],
                    lambda m: projections.head_shrink(m, [0, 2, 3, 5], 2)),
    "hierarchical": (["--s", "2", "--t", "3"], lambda m: _hierarchical_outcome(m, 2, 3)),
}


class TestProject:
    def test_op_cases_cover_every_op(self):
        assert list(OP_CASES) == list(PROJECTIONS)

    @pytest.mark.parametrize("op", list(OP_CASES))
    def test_exact_matches_module(self, op, tmp_path, capsys):
        g = np.random.default_rng(3).standard_normal((7, 7))
        # PSD so that head-psd accepts it; low rank so that the ops disagree
        mat = g[:, :3] @ g[:, :3].T if op == "head-psd" else (g + g.T) / 2
        src = tmp_path / "m.txt"
        write_matrix_file(src, mat)
        out = tmp_path / "out.txt"
        flags, library_call = OP_CASES[op]
        code = main(["project", "--op", op, *flags, "--input", str(src), "--output", str(out)])
        assert code == 0
        expected = library_call(read_matrix(src.read_text().splitlines()))
        with open(out) as fh:
            support = [int(tok) - 1 for tok in fh.readline().split()]  # 1-based on disk
            objective = float(fh.readline())
            # parsed raw: read_matrix would symmetrize the hierarchical output
            got = np.array([[float(v) for v in line.split()] for line in fh.readlines()[1:]])
        assert support == expected.support.tolist()
        assert objective == expected.objective
        assert np.array_equal(got, expected.matrix)
        assert "# seed none" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "project" in capsys.readouterr().out

    def test_unknown_subcommand_exits_two(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_unknown_flag_exits_two(self, diag_matrix):
        assert main(["project", "--op", "exact", "--s", "2", "--r", "1",
                     "--wat", "1", "--input", str(diag_matrix)]) == 2

    def test_malformed_matrix_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("2\n1.0 2.0\n2.0\n")
        code = main(["project", "--op", "tail-bisparse", "--s", "1",
                     "--input", str(bad)])
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    def test_head_shrink_via_flags(self, tmp_path):
        mat = np.random.default_rng(0).standard_normal((6, 6))
        mat = (mat + mat.T) / 2
        src = tmp_path / "m.txt"
        write_matrix_file(src, mat)
        out = tmp_path / "o.txt"
        code = main(["project", "--op", "head-shrink", "--s", "2",
                     "--sprime", "1,2,3,4", "--input", str(src), "--output", str(out)])
        assert code == 0

    @pytest.mark.parametrize("sprime, message", [
        ("0,2", "error: --sprime index 0 out of range [1, 3]"),
        ("1,4", "error: --sprime index 4 out of range [1, 3]"),
        ("1, x", "error: --sprime index is not an integer: 'x'"),
    ])
    def test_bad_sprime_names_the_flag_in_one_based_terms(self, diag_matrix, capsys, sprime,
                                                          message):
        code = main(["project", "--op", "head-shrink", "--s", "2", "--sprime", sprime,
                     "--input", str(diag_matrix)])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == message

    def test_hierarchical_op(self, tmp_path, diag_matrix):
        out = tmp_path / "o.txt"
        code = main(["project", "--op", "hierarchical", "--s", "2", "--t", "1",
                     "--input", str(diag_matrix), "--output", str(out)])
        assert code == 0

    def test_header_larger_than_the_rows_exits_two_without_allocating(self, tmp_path, capsys):
        # the array is built from the rows read, not sized n x n from the header
        path = tmp_path / "m.txt"
        path.write_text("1000000000\n1 2\n")
        tracemalloc.start()
        try:
            code = main(["project", "--op", "tail-bisparse", "--s", "1", "--input", str(path)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "error: line 2: expected 1000000000 values, got 2" in capsys.readouterr().err
        assert peak < 10**7

    def test_hierarchical_t_zero_exits_two(self, tmp_path, diag_matrix, capsys):
        code = main(["project", "--op", "hierarchical", "--s", "2", "--t", "0",
                     "--input", str(diag_matrix), "--output", str(tmp_path / "o.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert "per-column sparsity must satisfy 1 <= t <= 3, got 0" in err


    @pytest.mark.parametrize("op", ["exact", "tail-joint", "head-joint", "head-square-variant"])
    def test_op_without_rank_exits_two(self, op, tmp_path, diag_matrix, capsys):
        out = tmp_path / "o.txt"
        code = main(["project", "--op", op, "--s", "2", "--input", str(diag_matrix),
                     "--output", str(out)])
        assert code == 2
        assert f"error: --op {op} needs --r" in capsys.readouterr().err
        assert not out.exists()

    def test_stdout_stays_open_across_calls(self, diag_matrix, capsys):
        # "-" is the process's stdout; one command must not close it for the next
        argv = ["project", "--op", "tail-bisparse", "--s", "1", "--input", str(diag_matrix)]
        assert main(argv) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out == "1\n5\n3\n5 0 0\n0 0 0\n0 0 0\n" * 2

    def test_eigensolver_failure_exits_one(self, diag_matrix, monkeypatch, capsys):
        # LinAlgError subclasses ValueError, so it must not be reported as an input error
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        code = main(["project", "--op", "tail-joint", "--s", "2", "--r", "1",
                     "--input", str(diag_matrix)])
        assert code == 1
        assert "numerical error: Eigenvalues did not converge" in capsys.readouterr().err

    def test_stdin_stays_open(self, diag_matrix, monkeypatch, capsys):
        stdin = io.StringIO(diag_matrix.read_text())
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["project", "--op", "tail-bisparse", "--s", "1"]) == 0
        assert not stdin.closed


class TestMeasureRecover:
    def test_pipeline_roundtrip(self, tmp_path, capsys):
        x, _ = sample_structured(8, 2, 1, np.random.default_rng(42))
        xfile = tmp_path / "x.txt"
        write_matrix_file(xfile, x)
        meas = tmp_path / "meas.txt"
        code = main(["measure", "--kind", "dense-gaussian", "--m", "40",
                     "--seed", "7", "--input", str(xfile), "--output", str(meas)])
        assert code == 0
        assert "# seed 7" in capsys.readouterr().err
        with open(meas) as fh:
            mp, y = read_measurement_file(fh)
        assert np.allclose(y, mp.apply(x), atol=1e-12)

        rec = tmp_path / "rec.txt"
        code = main(["recover", "--algo", "exact-iht", "--s", "2", "--r", "1",
                     "--input", str(meas), "--output", str(rec)])
        assert code == 0
        lines = rec.read_text().split("\n")
        assert lines[0] == "converged 1"
        with open(rec) as fh:
            for _ in range(4):
                fh.readline()
            est = read_matrix(fh)
        assert np.linalg.norm(est - x) <= 1e-6

    def test_strict_flag_reports_failure(self, tmp_path):
        x, _ = sample_structured(8, 2, 1, np.random.default_rng(43))
        xfile = tmp_path / "x.txt"
        write_matrix_file(xfile, x)
        meas = tmp_path / "meas.txt"
        main(["measure", "--kind", "rank-one", "--m", "60", "--seed", "8",
              "--input", str(xfile), "--output", str(meas)])
        code = main(["recover", "--algo", "rank-one", "--s", "2", "--r", "1",
                     "--max-iters", "2", "--strict",
                     "--input", str(meas), "--output", str(tmp_path / "r.txt")])
        assert code == 1

    def test_strict_two_step_fails_on_measurement_residual(self, tmp_path):
        # the golden factorized input: both stages settle, but the estimate
        # leaves a relative residual of about 0.57 on y
        meas = Path(__file__).parent / "golden" / "outputs" / "measure-factorized.txt"
        out = tmp_path / "r.txt"
        argv = ["recover", "--algo", "two-step", "--s", "2", "--r", "1",
                "--input", str(meas), "--output", str(out)]
        assert main(argv) == 0
        with open(meas) as fh:
            mp, y = read_measurement_file(fh)
        with open(out) as fh:
            header = [fh.readline().split() for _ in range(4)]
            est = read_matrix(fh)
        assert header[0] == ["converged", "0"]
        # the residual is measured on the estimate's support block, so it agrees with apply
        # to rounding, not bit for bit
        assert abs(float(header[2][1]) - np.linalg.norm(y - mp.apply(est))) <= (
            1e-12 * np.linalg.norm(y))
        assert main(argv + ["--strict"]) == 1

    def test_seed_flag_is_gone(self, tmp_path, capsys):
        # the map is regenerated from the file header's seed, and no solver draws randomness
        meas = Path(__file__).parent / "golden" / "outputs" / "measure-dense.txt"
        code = main(["recover", "--algo", "head-tail", "--s", "2", "--r", "1", "--seed", "1",
                     "--input", str(meas), "--output", str(tmp_path / "r.txt")])
        assert code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert main(["recover", "--help"]) == 0
        assert "--seed" not in capsys.readouterr().out

    def test_echoes_the_seed_of_the_file(self, tmp_path, capsys):
        # the golden dense measurements were taken at seed 7
        meas = Path(__file__).parent / "golden" / "outputs" / "measure-dense.txt"
        assert main(["recover", "--algo", "head-tail", "--s", "2", "--r", "1",
                     "--input", str(meas), "--output", str(tmp_path / "r.txt")]) == 0
        assert "# seed 7" in capsys.readouterr().err.splitlines()

    @pytest.mark.parametrize("flag", [["--head", "anchor"], ["--beta", "1"]], ids=["head", "beta"])
    def test_head_and_beta_flags_are_gone(self, tmp_path, capsys, flag):
        meas = Path(__file__).parent / "golden" / "outputs" / "measure-dense.txt"
        code = main(["recover", "--algo", "head-tail", "--s", "2", "--r", "1", *flag,
                     "--input", str(meas), "--output", str(tmp_path / "r.txt")])
        assert code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["inf", "nan", "0", "1", "-0.5"])
    def test_tol_outside_unit_interval_exits_two(self, tmp_path, capsys, tol):
        # an infinite tolerance would report converged 1 after one step at any residual,
        # and nan would switch the residual rule off
        meas = Path(__file__).parent / "golden" / "outputs" / "measure-dense.txt"
        out = tmp_path / "r.txt"
        code = main(["recover", "--algo", "head-tail", "--s", "2", "--r", "1", "--tol", tol,
                     "--strict", "--input", str(meas), "--output", str(out)])
        assert code == 2
        assert "tol_residual must lie in (0, 1)" in capsys.readouterr().err
        assert not out.exists()

    # every --algo: the ensemble it measures with and the solver call it must reproduce
    ALGO_CASES = {
        "exact-iht": ("dense-gaussian", [], lambda mp, y, cfg: recovery.iht_exact(mp, y, 2, 1, cfg)),
        "head-tail": ("dense-gaussian", [],
                      lambda mp, y, cfg: recovery.iht_head_tail(mp, y, 2, 1, cfg)),
        "rank-one": ("rank-one", [], lambda mp, y, cfg: recovery.iht_rank_one(mp, y, 2, 1, cfg)),
        "two-step": ("factorized", ["--p", "12"],
                     lambda mp, y, cfg: recovery.two_step_factorized(mp, y, 2, 1, cfg)),
        "brute": ("dense-gaussian", [],
                  lambda mp, y, cfg: recovery.brute_force_decode(mp, y, 2, 1)),
    }

    def test_algo_cases_cover_every_algo(self):
        assert tuple(self.ALGO_CASES) == recovery.ALGOS

    @pytest.mark.parametrize("algo", list(ALGO_CASES))
    def test_recover_matches_module(self, algo, tmp_path):
        kind, flags, library_call = self.ALGO_CASES[algo]
        x, _ = sample_structured(8, 2, 1, np.random.default_rng(11))
        xfile = tmp_path / "x.txt"
        write_matrix_file(xfile, x)
        meas = tmp_path / "meas.txt"
        assert main(["measure", "--kind", kind, "--m", "60", *flags, "--seed", "4",
                     "--input", str(xfile), "--output", str(meas)]) == 0
        rec = tmp_path / "rec.txt"
        code = main(["recover", "--algo", algo, "--s", "2", "--r", "1", "--max-iters", "300",
                     "--input", str(meas), "--output", str(rec)])
        assert code == 0
        with open(meas) as fh:
            mp, y = read_measurement_file(fh)
        result = library_call(mp, y, recovery.RecoveryConfig(max_iters=300))
        with open(rec) as fh:
            header = [fh.readline().split() for _ in range(4)]
            est = read_matrix(fh)
        assert header[0] == ["converged", str(int(result.converged))]
        assert header[1] == ["iterations", str(result.iterations)]
        assert float(header[2][1]) == result.residual_trace[-1]
        assert header[3][1:] == [str(i + 1) for i in result.support]
        assert np.array_equal(est, result.estimate)

    def _recover_text(self, tmp_path, text, algo="head-tail"):
        meas = tmp_path / "meas.txt"
        meas.write_text(text)
        return main(["recover", "--algo", algo, "--s", "2", "--r", "1",
                     "--input", str(meas), "--output", str(tmp_path / "rec.txt")])

    def test_oversized_header_exits_two_without_allocating(self, tmp_path, capsys):
        # 2e12 payload entries: refused from the header alone, before any sampling
        text = "kind dense-gaussian\nn 1000000\nm 2\nseed 1\ny\n1.0\n2.0\n"
        tracemalloc.start()
        try:
            code = self._recover_text(tmp_path, text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "exceeds the cap" in capsys.readouterr().err
        assert peak < 10**7

    def test_oversized_brute_design_exits_two_without_allocating(self, tmp_path, capsys):
        # a 1.6 MB rank-one map whose brute-force pair design would be 1.6 GB
        text = "kind rank-one\nn 2000\nm 100\nseed 1\ny\n" + "1.0\n" * 100
        tracemalloc.start()
        try:
            code = self._recover_text(tmp_path, text, algo="brute")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "pair design" in capsys.readouterr().err
        assert peak < 10**7

    def test_unknown_header_key_exits_two(self, tmp_path, capsys):
        mp = sample_map("factorized", 4, 3, p=5, seed=3, inner="rank-one")
        buf = io.StringIO()
        write_measurement_file(mp, [1.0, 2.0, 3.0], buf)
        text = buf.getvalue().replace("inner rank-one", "innr rank-one")
        assert self._recover_text(tmp_path, text) == 2
        assert "innr" in capsys.readouterr().err

    def test_repeated_header_key_exits_two(self, tmp_path, capsys):
        mp = sample_map("dense-gaussian", 4, 3, seed=3)
        buf = io.StringIO()
        write_measurement_file(mp, [1.0, 2.0, 3.0], buf)
        text = buf.getvalue().replace("n 4\n", "n 4\nn 5\n")
        assert self._recover_text(tmp_path, text) == 2
        assert "line 3: repeated map header key 'n'" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["head-tail", "rank-one"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_measurement_exits_two(self, tmp_path, capsys, algo, value):
        mp = sample_map("rank-one" if algo == "rank-one" else "dense-gaussian", 4, 5, seed=3)
        buf = io.StringIO()
        write_measurement_file(mp, [1.0, 2.0, 3.0, 4.0, 5.0], buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[-2] = value + "\n"
        meas = tmp_path / "meas.txt"
        meas.write_text("".join(lines))
        code = main(["recover", "--algo", algo, "--s", "2", "--r", "1",
                     "--input", str(meas), "--output", str(tmp_path / "rec.txt")])
        assert code == 2
        assert f"measurement 4 of 5 is not finite: {float(value)}" in capsys.readouterr().err

    @pytest.mark.parametrize("strict", [[], ["--strict"]])
    def test_overflowing_norm_exits_two(self, tmp_path, capsys, strict):
        # finite measurements of diag(1e200) whose 2-norm overflows: the residual rule
        # would hold at an infinite residual, so recover must refuse them, not converge
        xfile = tmp_path / "x.txt"
        write_matrix_file(xfile, np.diag([1e200, 0.0]))
        meas = tmp_path / "meas.txt"
        assert main(["measure", "--kind", "rank-one", "--m", "3", "--seed", "1",
                     "--scale", "unit", "--input", str(xfile), "--output", str(meas)]) == 0
        assert all(np.isfinite(read_measurement_file(meas.read_text().splitlines())[1]))
        out = tmp_path / "rec.txt"
        code = main(["recover", "--algo", "head-tail", "--s", "1", "--r", "1",
                     "--input", str(meas), "--output", str(out), *strict])
        assert code == 2
        assert "error: the norm of the measurements overflows" in capsys.readouterr().err
        assert not out.exists()

    def test_trailing_values_exit_two(self, tmp_path, capsys):
        mp = sample_map("dense-gaussian", 4, 3, seed=3)
        buf = io.StringIO()
        write_measurement_file(mp, [1.0, 2.0, 3.0], buf)
        assert self._recover_text(tmp_path, buf.getvalue() + "4.0\n") == 2
        assert "after the 3 measurements" in capsys.readouterr().err

    def test_byte_stable_output(self, tmp_path):
        x, _ = sample_structured(6, 2, 1, np.random.default_rng(44))
        xfile = tmp_path / "x.txt"
        write_matrix_file(xfile, x)
        outs = []
        for name in ("a", "b"):
            meas = tmp_path / f"meas_{name}.txt"
            main(["measure", "--kind", "dense-gaussian", "--m", "21", "--seed", "5",
                  "--input", str(xfile), "--output", str(meas)])
            outs.append(meas.read_text())
        assert outs[0] == outs[1]


def test_library_never_imports_numpy_ma(tmp_path):
    # numpy.ma is imported lazily, by np.union1d among others; it costs about
    # 1 MB of resident memory, so no projection or head-tail solve may pull it in
    g = np.random.default_rng(3).standard_normal((7, 7))
    sym, psd = tmp_path / "sym.txt", tmp_path / "psd.txt"
    write_matrix_file(sym, (g + g.T) / 2)
    write_matrix_file(psd, g[:, :3] @ g[:, :3].T)
    x, _ = sample_structured(8, 2, 1, np.random.default_rng(11))
    xfile, meas = tmp_path / "x.txt", tmp_path / "meas.txt"
    write_matrix_file(xfile, x)
    assert main(["measure", "--kind", "dense-gaussian", "--m", "60", "--seed", "4",
                 "--input", str(xfile), "--output", str(meas)]) == 0
    runs = [["project", "--op", op, *flags, "--input", str(psd if op == "head-psd" else sym),
             "--output", os.devnull] for op, (flags, _) in OP_CASES.items()]
    runs.append(["recover", "--algo", "head-tail", "--s", "2", "--r", "1",
                 "--input", str(meas), "--output", os.devnull])
    script = (
        "import json, sys\n"
        "from bisparse.cli import main\n"
        "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by import bisparse.cli'\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    assert main(argv) == 0, argv\n"
        "    assert 'numpy.ma' not in sys.modules, 'numpy.ma imported by ' + ' '.join(argv[:7])\n"
    )
    src = str(Path(bisparse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs)],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


class TestRip:
    def test_estimate_output(self, tmp_path, capsys):
        out = tmp_path / "rip.txt"
        code = main(["rip", "--ensemble", "dense-gaussian", "--n", "10", "--m", "60",
                     "--s", "2", "--r", "1", "--trials", "50", "--seed", "3",
                     "--output", str(out)])
        assert code == 0
        text = out.read_text()
        assert text.startswith("trials 50\n")
        assert "delta_lower" in text

    def test_cross_term_flag(self, tmp_path):
        out = tmp_path / "rip.txt"
        code = main(["rip", "--ensemble", "dense-gaussian", "--n", "10", "--m", "60",
                     "--s", "2", "--r", "1", "--trials", "50", "--seed", "3",
                     "--cross-term", "--delta", "0.9", "--output", str(out)])
        assert code == 0
        assert "cross_within 1" in out.read_text()

    @pytest.mark.parametrize("command,flags", [
        (["rip", "--ensemble", "dense-gaussian", "--n", "4", "--s", "2", "--r", "1"],
         ["--scale", "unit"]),
        (["rip", "--ensemble", "rank-one", "--n", "4", "--s", "2", "--r", "1"],
         ["--inner", "rank-one"]),
        (["measure", "--kind", "dense-gaussian"], ["--p", "5"]),
        (["measure", "--kind", "factorized", "--p", "5"], ["--scale", "unit"]),
    ])
    def test_option_the_kind_does_not_take_exits_two(self, command, flags, tmp_path,
                                                     diag_matrix, capsys):
        # diag_matrix is the --input of measure; rip takes no input
        out = tmp_path / "out.txt"
        argv = [*command, "--m", "20", *flags, "--seed", "3", "--output", str(out)]
        if command[0] == "measure":
            argv += ["--input", str(diag_matrix)]
        assert main(argv) == 2
        assert f"take no {flags[0][2:]}" in capsys.readouterr().err
        assert not out.exists()

    def test_mode_flag_is_gone(self, tmp_path, capsys):
        code = main(["rip", "--ensemble", "dense-gaussian", "--n", "10", "--m", "60",
                     "--s", "2", "--r", "1", "--mode", "l1", "--seed", "3",
                     "--output", str(tmp_path / "rip.txt")])
        assert code == 2
        assert "unrecognized arguments: --mode l1" in capsys.readouterr().err


class TestBench:
    SPEC = (
        "algo = exact-iht\n"
        "ensemble = dense-gaussian\n"
        "n = 6\n"
        "s = 2\n"
        "r = 1\n"
        "m = 21\n"
        "trials_per_cell = 2\n"
        "base_seed = 9\n"
    )

    def test_phase_run_and_byte_identical(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        csvs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            code = main(["bench", "--spec", str(spec), "--output", str(out)])
            assert code == 0
            csvs.append(out.read_bytes())
        assert csvs[0] == csvs[1]

    def test_echoes_the_seed_the_sweep_uses(self, tmp_path, capsys):
        # the spec's base_seed, or the --seed that overrides it
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        for flags, seed in [([], 9), (["--seed", "123"], 123)]:
            out = tmp_path / "o.csv"
            assert main(["bench", "--spec", str(spec), *flags, "--output", str(out)]) == 0
            assert f"# seed {seed}" in capsys.readouterr().err.splitlines()

    def test_aggregate_output(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        agg = tmp_path / "agg.csv"
        code = main(["bench", "--spec", str(spec), "--output", str(tmp_path / "o.csv"),
                     "--aggregate", str(agg)])
        assert code == 0
        assert agg.read_text().count("\n") == 2

    def test_rip_mode(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC.replace("trials_per_cell = 2", "trials_per_cell = 30"))
        out = tmp_path / "rip.csv"
        code = main(["bench", "--spec", str(spec), "--mode", "rip", "--output", str(out)])
        assert code == 0
        assert out.read_text().startswith("ensemble,n,s,r,m,trials,")

    def test_rip_mode_flag_is_gone(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        code = main(["bench", "--spec", str(spec), "--mode", "rip", "--rip-mode", "l1",
                     "--output", str(tmp_path / "rip.csv")])
        assert code == 2
        assert "unrecognized arguments: --rip-mode l1" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_two(self, tmp_path, capsys, threads):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        out = tmp_path / "o.csv"
        code = main(["bench", "--spec", str(spec), "--threads", threads, "--output", str(out)])
        assert code == 2
        assert f"threads must be at least 1, got {threads}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("noise_level", "nan"), ("noise_level", "inf"), ("noise_level", "-0.5"),
        ("success_tol", "nan"), ("success_tol", "inf"), ("success_tol", "0"),
    ])
    def test_out_of_range_spec_values_exit_two(self, tmp_path, capsys, key, value):
        # a nan noise_level would write nan noise rows, a nan success_tol fail every trial
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC + f"{key} = {value}\n")
        out = tmp_path / "o.csv"
        code = main(["bench", "--spec", str(spec), "--output", str(out)])
        assert code == 2
        bound = "nonnegative" if key == "noise_level" else "positive"
        assert f"{key} must be finite and {bound}, got {float(value)}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ensemble,p,message", [
        ("dense-gaussian", 12, "dense-gaussian maps take no p"),
        ("factorized", 0, "factorized maps need a positive inner dimension p, got 0"),
    ])
    def test_p_a_map_cannot_take_exits_two(self, tmp_path, capsys, ensemble, p, message):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC.replace("dense-gaussian", ensemble) + f"p = {p}\n")
        out = tmp_path / "o.csv"
        assert main(["bench", "--spec", str(spec), "--output", str(out)]) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_spec_key_exits_two(self, tmp_path, capsys):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC + "n = 12\n")
        out = tmp_path / "o.csv"
        assert main(["bench", "--spec", str(spec), "--output", str(out)]) == 2
        assert "error: line 9: repeated spec key 'n'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["phase", "rip"])
    @pytest.mark.parametrize("entry", ["infx", "nanx", "x", "2xx", "1.5"])
    def test_bad_m_entry_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch, mode,
                                                   entry):
        monkeypatch.setattr(bench, "_cell_map", lambda *args: pytest.fail("a cell ran"))
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC.replace("m = 21", f"m = 21, {entry}")
                        .replace("exact-iht", "head-tail"))
        out = tmp_path / "o.csv"
        assert main(["bench", "--spec", str(spec), "--mode", mode, "--output", str(out)]) == 2
        assert f"error: m entry '{entry}' is neither an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_cell_over_payload_cap_does_not_abort_the_sweep(self, tmp_path):
        # the n = 500, m = 500 dense payload has 1.25e8 entries, over the 1e8 cap
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC.replace("n = 6", "n = 6, 500").replace("m = 21", "m = 500")
                        .replace("exact-iht", "head-tail"))
        out = tmp_path / "o.csv"
        tracemalloc.start()
        try:
            with pytest.warns(UserWarning, match="payload of 125000000 entries exceeds the cap"):
                assert main(["bench", "--spec", str(spec), "--output", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10**7
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[2], row[10]) for row in rows][2:] == [("500", "nan")] * 2
        assert [row[2] for row in rows[:2]] == ["6"] * 2 and "nan" not in rows[0]

    def test_factorized_cell_beyond_float_range_is_skipped(self, tmp_path):
        # the default inner dimension takes logs of n, so e n never overflows a float; the
        # cell's basis then exceeds the payload cap and the sweep goes on
        huge = 10**400
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC.replace("n = 6", f"n = 6, {huge}").replace("m = 21", "m = 5")
                        .replace("exact-iht", "two-step").replace("dense-gaussian", "factorized"))
        out = tmp_path / "o.csv"
        with pytest.warns(UserWarning, match=f"skipping infeasible cell \\(n={huge}, s=2, r=1, "
                          "m=5\\): a factorized payload of .* entries exceeds the cap"):
            assert main(["bench", "--spec", str(spec), "--output", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [(row[2], row[10]) for row in rows[2:]] == [(str(huge), "nan")] * 2
        assert all(row[10] != "nan" for row in rows[:2])

    def test_seed_override(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text(self.SPEC)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        main(["bench", "--spec", str(spec), "--output", str(a)])
        main(["bench", "--spec", str(spec), "--seed", "123", "--output", str(b)])
        assert a.read_text() != b.read_text()
