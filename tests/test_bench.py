import io
import math

import numpy as np
import pytest

from bisparse import bench, measurements
from bisparse.bench import (
    ExperimentSpec,
    TrialRecord,
    aggregate,
    baseline_m,
    default_inner_dim,
    derive_seed,
    parse_spec,
    resolve_m,
    run_phase_transition,
    run_rip_sweep,
    write_aggregate_csv,
    write_csv,
    write_rip_csv,
)
from bisparse.measurements import RipEstimate


def small_spec(**overrides):
    kwargs = dict(
        algo="exact-iht",
        ensemble="dense-gaussian",
        n=[6],
        s=[2],
        r=[1],
        m=["21"],
        trials_per_cell=3,
        base_seed=11,
    )
    kwargs.update(overrides)
    return ExperimentSpec(**kwargs)


class TestSpecParsing:
    def test_every_key(self):
        text = ("algo = exact-iht\nensemble = dense-gaussian\nn = 6\ns = 2\nr = 1\nm = 21\n"
                "trials_per_cell = 3\nnoise_level = 0.01\nsuccess_tol = 1e-05\nbase_seed = 11\n")
        assert parse_spec(io.StringIO(text)) == small_spec(noise_level=0.01, success_tol=1e-5)

    def test_comments_and_blank_lines(self):
        text = "\n".join(
            [
                "# a comment",
                "algo = head-tail",
                "ensemble = dense-gaussian",
                "",
                "n = 10, 12",
                "s = 2",
                "r = 1",
                "m = 40, 2x  # scaled entry",
                "base_seed = 3",
            ]
        )
        spec = parse_spec(io.StringIO(text))
        assert spec.n == [10, 12]
        assert spec.m == ["40", "2x"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown spec key"):
            parse_spec(io.StringIO("algo = brute\nbogus = 1\n"))

    @pytest.mark.parametrize("extra,key,lineno", [
        ("n = 12\n", "n", 7),    # a second value used to replace the first
        ("n = 30\n", "n", 7),    # the same value twice
        ("trials_per_cell = 3\n# a comment\n\ntrials_per_cell = 5\n", "trials_per_cell", 10),
    ])
    def test_repeated_key_rejected(self, extra, key, lineno):
        base = "algo = head-tail\nensemble = dense-gaussian\nn = 30\ns = 2\nr = 1\nm = 40\n"
        with pytest.raises(ValueError, match=f"^line {lineno}: repeated spec key '{key}'$"):
            parse_spec(io.StringIO(base + extra))

    def test_missing_key_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            parse_spec(io.StringIO("algo = brute\n"))

    @pytest.mark.parametrize("overrides,message", [
        ({"p": 12}, "dense-gaussian maps take no p"),
        ({"ensemble": "rank-one", "p": 12}, "rank-one maps take no p"),
        ({"ensemble": "factorized", "p": 0}, "positive inner dimension p, got 0"),
        ({"ensemble": "factorized", "p": -3}, "positive inner dimension p, got -3"),
    ])
    def test_p_a_map_cannot_take_rejected(self, overrides, message):
        with pytest.raises(ValueError, match=message):
            small_spec(**overrides)

    def test_algo_ensemble_compatibility(self):
        with pytest.raises(ValueError, match="rank-one"):
            small_spec(algo="rank-one", ensemble="dense-gaussian")
        with pytest.raises(ValueError, match="factorized"):
            small_spec(algo="two-step", ensemble="dense-gaussian")


class TestSeedsAndScaling:
    def test_derive_seed_stable(self):
        assert derive_seed(1, "a", 2) == derive_seed(1, "a", 2)
        assert derive_seed(1, "a", 2) != derive_seed(1, "a", 3)
        assert 0 <= derive_seed(0) < 2**63

    def test_resolve_m(self):
        assert resolve_m("40", 10, 2, 1) == 40
        base = baseline_m(10, 2, 1)
        assert base == math.ceil(2 * math.log(math.e * 5))
        assert resolve_m("2x", 10, 2, 1) == 2 * base
        assert resolve_m("1.5x", 10, 2, 1) == math.ceil(1.5 * base)

    @pytest.mark.parametrize("entry", ["infx", "-infx", "nanx", "x", "2xx", "1.5", "forty", ""])
    def test_bad_m_entry_refused_at_construction(self, entry):
        with pytest.raises(ValueError, match=f"m entry '{entry}' is neither an integer"):
            small_spec(m=["21", entry])

    @pytest.mark.parametrize("entry,n,s,r", [
        ("1e308x", 10, 2, 1),           # the product overflows to inf
        ("2x", 10, 0, 1),               # no baseline at s = 0
        ("2x", 0, 1, 1),                # nor at n = 0
        ("2x", 10**400, 1, 1),          # n too large for a float
    ])
    def test_multiple_without_a_value_raises_value_error(self, entry, n, s, r):
        with pytest.raises(ValueError, match=f"m entry '{entry}' .* at n={n}, s={s}, r={r}"):
            resolve_m(entry, n, s, r)
        with pytest.raises(ValueError, match=f"m entry '{entry}'"):
            small_spec(n=[n], s=[s], r=[r], m=[entry])

    @pytest.mark.parametrize("entry,m", [("-4", -4), ("0x", 0), ("-2x", -10)])
    def test_zero_and_negative_entries_stay_placeholders(self, entry, m):
        with pytest.warns(UserWarning, match=f"m={m} < 1"):
            records = run_phase_transition(small_spec(m=[entry]))
        assert [rec.m for rec in records] == [m] * 3
        assert all(math.isnan(rec.rel_error) for rec in records)

    def test_default_inner_dim(self):
        assert default_inner_dim(40, 3) == math.ceil(3 * 3 * math.log(math.e * 40 / 3)) + 10


class TestPhaseTransition:
    def test_full_measurement_cell_always_succeeds(self):
        spec = small_spec()  # m = 21 = 6*7/2 full measurements at n=6
        records = run_phase_transition(spec)
        assert len(records) == 3
        assert all(rec.success for rec in records)
        rows = aggregate(records)
        assert rows[0]["success_rate"] == 1.0

    def test_byte_identical_reruns(self):
        spec = small_spec(trials_per_cell=2)
        a, b = io.StringIO(), io.StringIO()
        write_csv(run_phase_transition(spec), a)
        write_csv(run_phase_transition(spec), b)
        assert a.getvalue() == b.getvalue()

    def test_threaded_matches_serial(self):
        spec = small_spec(trials_per_cell=4)
        serial = io.StringIO()
        threaded = io.StringIO()
        write_csv(run_phase_transition(spec, threads=1), serial)
        write_csv(run_phase_transition(spec, threads=3), threaded)
        assert serial.getvalue() == threaded.getvalue()

    @pytest.mark.parametrize("threads,cpus,want", [(10**6, 8, 4), (10**6, 2, 2), (3, 8, 3),
                                                   (10**6, None, None)])
    def test_worker_count_is_bounded(self, monkeypatch, threads, cpus, want):
        # at most min(threads, trials, CPU count) workers; one runs on the calling thread
        made = []

        class Recorder:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(bench, "ThreadPoolExecutor", Recorder)
        monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
        spec = small_spec(trials_per_cell=4)
        assert len(run_phase_transition(spec, threads=threads)) == 4
        assert made == ([] if want is None else [want])

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, monkeypatch, threads):
        monkeypatch.setattr(bench, "_cells", lambda spec: pytest.fail("grid was expanded"))
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_phase_transition(small_spec(), threads=threads)

    def test_infeasible_cell_produces_warning_rows(self):
        spec = small_spec(m=["1"])  # brute/exact infeasible: fit needs 3 <= m
        spec.algo = "brute"
        with pytest.warns(UserWarning, match="infeasible"):
            records = run_phase_transition(spec)
        assert len(records) == 3
        assert all(math.isnan(rec.rel_error) for rec in records)
        assert aggregate(records) == []

    @pytest.mark.parametrize("overrides,reason", [
        ({"m": ["0"]}, "m=0 < 1"),
        ({"s": [7]}, "sparsity must satisfy 1 <= s <= 6, got 7"),
        ({"r": [3]}, "rank must satisfy 1 <= r <= s=2, got 3"),
        ({"n": [100], "s": [5]}, r"C\(100,5\) exceeds the cap"),
    ])
    def test_every_infeasible_reason_is_named(self, overrides, reason):
        with pytest.warns(UserWarning, match=reason):
            records = run_phase_transition(small_spec(**overrides))
        assert len(records) == 3
        assert all(math.isnan(rec.rel_error) and not rec.success for rec in records)

    @pytest.mark.parametrize("overrides,cap,reason", [
        ({}, 400, "a dense-gaussian payload of 756 entries exceeds the cap 400"),
        ({"algo": "two-step", "ensemble": "factorized", "p": 5}, 400,
         "a factorized payload of 555 entries exceeds the cap 400"),
        ({"algo": "brute", "ensemble": "rank-one"}, 300,
         "the brute-force pair design of 441 entries exceeds the cap 300"),
    ])
    def test_cell_over_payload_cap_skipped_after_earlier_cells(self, monkeypatch, overrides,
                                                               cap, reason):
        monkeypatch.setattr(measurements, "PAYLOAD_CAP", cap)
        spec = small_spec(m=["10", "21"], **overrides)
        with pytest.warns(UserWarning, match=reason):
            records = run_phase_transition(spec)
        assert [rec.m for rec in records] == [10] * 3 + [21] * 3
        assert [math.isnan(rec.rel_error) for rec in records] == [False] * 3 + [True] * 3

    def test_noise_level_recorded_and_applied(self):
        spec = small_spec(noise_level=0.5, trials_per_cell=2)
        records = run_phase_transition(spec)
        assert all(rec.noise == 0.5 for rec in records)
        assert all(rec.rel_error > 1e-9 for rec in records)

    def test_aggregate_recomputable_from_records(self):
        spec = small_spec(trials_per_cell=4, m=["10", "21"])
        records = run_phase_transition(spec)
        rows = aggregate(records)
        for row in rows:
            subset = [
                r
                for r in records
                if (r.algo, r.ensemble, r.n, r.s, r.r, r.m)
                == (row["algo"], row["ensemble"], row["n"], row["s"], row["r"], row["m"])
            ]
            assert row["trials"] == len(subset)
            assert row["successes"] == sum(r.success for r in subset)
            assert row["success_rate"] == row["successes"] / row["trials"]

    def test_csv_schema(self):
        spec = small_spec(trials_per_cell=1)
        buf = io.StringIO()
        write_csv(run_phase_transition(spec), buf)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "algo,ensemble,n,s,r,m,trial,seed,noise,success,rel_error,iters,ms"
        fields = lines[1].split(",")
        assert fields[0] == "exact-iht"
        assert fields[-1] == "0"  # ms column deterministic by default

    def test_timing_flag_emits_measured_ms(self):
        spec = small_spec(trials_per_cell=1)
        records = run_phase_transition(spec)
        assert records[0].wall_ms > 0
        buf = io.StringIO()
        write_csv(records, buf, timing=True)
        ms = buf.getvalue().strip().split("\n")[1].split(",")[-1]
        assert int(ms) >= 0

    def test_success_rate_nondecreasing_in_m(self):
        spec = small_spec(m=["8", "14", "21"], trials_per_cell=20, base_seed=4)
        rows = aggregate(run_phase_transition(spec))
        rates = [row["success_rate"] for row in sorted(rows, key=lambda r: r["m"])]
        trials = 20
        for lo, hi in zip(rates, rates[1:]):
            pooled = (lo + hi) / 2.0
            slack = 2.0 * math.sqrt(max(pooled * (1 - pooled), 1e-12) * (2.0 / trials))
            assert hi >= lo - slack

    def test_two_step_cell_runs(self):
        spec = ExperimentSpec(
            algo="two-step",
            ensemble="factorized",
            n=[20],
            s=[2],
            r=[1],
            m=["150"],
            trials_per_cell=1,
            base_seed=5,
        )
        records = run_phase_transition(spec)
        assert len(records) == 1
        assert records[0].success


class TestRipSweep:
    def test_rows_and_determinism(self):
        spec = small_spec(trials_per_cell=50, m=["30", "60"])
        rows1 = run_rip_sweep(spec)
        rows2 = run_rip_sweep(spec)
        assert len(rows1) == 2
        assert rows1[0]["estimate"] == rows2[0]["estimate"]
        buf = io.StringIO()
        write_rip_csv(rows1, buf)
        header = buf.getvalue().split("\n")[0]
        assert header == "ensemble,n,s,r,m,trials,seed,delta_lower,alpha_hat,beta_hat"

    def test_infeasible_cell_is_skipped(self):
        spec = small_spec(trials_per_cell=5, s=[2, 7], m=["30"])
        with pytest.warns(UserWarning, match="sparsity must satisfy 1 <= s <= 6, got 7"):
            rows = run_rip_sweep(spec)
        assert [row["s"] for row in rows] == [2]

    def test_cell_over_payload_cap_is_skipped(self, monkeypatch):
        monkeypatch.setattr(measurements, "PAYLOAD_CAP", 400)
        spec = small_spec(trials_per_cell=5, m=["10", "21"])
        with pytest.warns(UserWarning, match="payload of 756 entries exceeds the cap 400"):
            rows = run_rip_sweep(spec)
        assert [row["m"] for row in rows] == [10]

    def test_unstructured_probing_large_delta_when_undersampled(self):
        spec = ExperimentSpec(
            algo="exact-iht",
            ensemble="dense-gaussian",
            n=[8],
            s=[8],
            r=[8],
            m=["10"],
            trials_per_cell=50,
            base_seed=2,
        )
        rows = run_rip_sweep(spec)
        assert rows[0]["estimate"].delta_lower > 0.5

    def test_aggregate_csv_writer(self):
        spec = small_spec(trials_per_cell=2)
        rows = aggregate(run_phase_transition(spec))
        buf = io.StringIO()
        write_aggregate_csv(rows, buf)
        assert buf.getvalue().startswith("algo,ensemble,n,s,r,m,trials,successes,")


class TestCsvBytes:
    """The writers' exact bytes: floats as .17g, booleans as 0/1, integers as written."""

    RECORDS = [
        TrialRecord("head-tail", "dense-gaussian", 30, 2, 1, 238, 0, 9007199254740993,
                    0.001, True, 1 / 3, 17, 12.6),
        TrialRecord("brute", "dense-gaussian", 6, 2, 1, 1, 1, 5, 0, False, float("nan"), 0, 0.0),
    ]

    @pytest.mark.parametrize("timing,ms", [(False, "0"), (True, "13")])
    def test_trial_csv(self, timing, ms):
        buf = io.StringIO()
        write_csv(self.RECORDS, buf, timing=timing)
        assert buf.getvalue() == (
            "algo,ensemble,n,s,r,m,trial,seed,noise,success,rel_error,iters,ms\n"
            f"head-tail,dense-gaussian,30,2,1,238,0,9007199254740993,0.001,1,0.33333333333333331,17,{ms}\n"
            "brute,dense-gaussian,6,2,1,1,1,5,0,0,nan,0,0\n"
        )

    def test_aggregate_csv(self):
        buf = io.StringIO()
        write_aggregate_csv([{
            "algo": "rank-one", "ensemble": "rank-one", "n": 24, "s": 2, "r": 1, "m": 140,
            "trials": 3, "successes": 2, "success_rate": 2 / 3, "mean_rel_error": 0.1,
        }], buf)
        assert buf.getvalue() == (
            "algo,ensemble,n,s,r,m,trials,successes,success_rate,mean_rel_error\n"
            "rank-one,rank-one,24,2,1,140,3,2,0.66666666666666663,0.10000000000000001\n"
        )

    def test_rip_csv(self):
        buf = io.StringIO()
        write_rip_csv([{
            "ensemble": "rank-one", "n": 10, "s": 2, "r": 1, "m": 40, "trials": 20, "seed": 77,
            "estimate": RipEstimate(0.25, 1 / 3, 2.0, 20, 2, 1),
        }], buf)
        assert buf.getvalue() == (
            "ensemble,n,s,r,m,trials,seed,delta_lower,alpha_hat,beta_hat\n"
            "rank-one,10,2,1,40,20,77,0.25,0.33333333333333331,2\n"
        )
