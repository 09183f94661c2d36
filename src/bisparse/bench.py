"""Seeded Monte-Carlo experiment harness: phase transitions and RIP sweeps.

An experiment is described by a flat key/value spec (see `parse_spec`): one
algorithm, one measurement ensemble, and grids over n, s, r and m.  Each grid
cell runs `trials_per_cell` independent trials whose seeds are derived by
hashing (base_seed, cell, trial), so any run is reproducible bit-for-bit and
trials can execute in any order or thread.

Measurement counts in the m grid may be absolute ("40") or multiples of the
structure-driven baseline ceil(r * s * ln(e n / s)) ("2x").

CSV columns: algo,ensemble,n,s,r,m,trial,seed,noise,success,rel_error,iters,ms.
The ms column is written as 0 by default: wall-clock times are kept on the
in-memory TrialRecord but would break the byte-reproducibility contract of
the CSV; pass timing=True to include them.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .measurements import (KINDS, _check_payload, _check_structure_params, _parse_value,
                           _payload_shapes, estimate_rip, sample_map, sample_structured)
from .projections import _check_enumeration
from .recovery import ALGOS, _check_brute, solve

__all__ = [
    "CSV_HEADER",
    "ExperimentSpec",
    "TrialRecord",
    "derive_seed",
    "resolve_m",
    "default_inner_dim",
    "parse_spec",
    "run_phase_transition",
    "run_rip_sweep",
    "write_csv",
    "write_rip_csv",
    "aggregate",
    "write_aggregate_csv",
]

CSV_HEADER = "algo,ensemble,n,s,r,m,trial,seed,noise,success,rel_error,iters,ms"
RIP_CSV_HEADER = "ensemble,n,s,r,m,trials,seed,delta_lower,alpha_hat,beta_hat"
AGGREGATE_HEADER = "algo,ensemble,n,s,r,m,trials,successes,success_rate,mean_rel_error"


@dataclass
class ExperimentSpec:
    """A benchmark sweep: one algorithm/ensemble over a (n, s, r, m) grid.

    `m` entries are strings: either an absolute count ("40") or a finite
    multiple of the baseline ceil(r s ln(e n / s)) ("1.5x"), and nothing else.
    `p` optionally pins the inner dimension of factorized maps, at least 1; by
    default it tracks the sparsity via ceil(3 s ln(e n / s)) + 10.  Other
    ensembles take no `p`.
    """

    algo: str
    ensemble: str
    n: list = field(default_factory=list)
    s: list = field(default_factory=list)
    r: list = field(default_factory=list)
    m: list = field(default_factory=list)
    trials_per_cell: int = 1
    noise_level: float = 0.0
    success_tol: float = 1e-4
    base_seed: int = 0
    p: int | None = None

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.ensemble not in KINDS:
            raise ValueError(f"unknown ensemble {self.ensemble!r}")
        if not (self.n and self.s and self.r and self.m):
            raise ValueError("grid lists n, s, r, m must be nonempty")
        for n, s, r, entry in itertools.product(self.n, self.s, self.r, self.m):
            resolve_m(entry, n, s, r)    # a bad entry fails here, before any cell runs
        if self.trials_per_cell < 1:
            raise ValueError("trials_per_cell must be at least 1")
        if not 0 <= self.noise_level < math.inf:    # also false for nan
            raise ValueError(f"noise_level must be finite and nonnegative, got {self.noise_level}")
        if not 0 < self.success_tol < math.inf:
            raise ValueError(f"success_tol must be finite and positive, got {self.success_tol}")
        if self.algo == "rank-one" and self.ensemble != "rank-one":
            raise ValueError("the rank-one algorithm needs the rank-one ensemble")
        if self.algo == "two-step" and self.ensemble != "factorized":
            raise ValueError("the two-step algorithm needs the factorized ensemble")
        if self.p is not None:    # the map's own rule for p
            _payload_shapes(self.ensemble, 1, 1, self.p)


@dataclass
class TrialRecord:
    """One CSV row: cell parameters, derived seed, and the trial outcome.

    `seed` is derived by hashing (base_seed, algo, ensemble, n, s, r, m,
    trial); the map, signal and noise draws use role-suffixed hashes of the
    same tuple.  A skipped (infeasible) cell yields rel_error = nan.
    """

    algo: str
    ensemble: str
    n: int
    s: int
    r: int
    m: int
    trial: int
    seed: int
    noise: float
    success: bool
    rel_error: float
    iterations: int
    wall_ms: float


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from hashing the string forms of the parts."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") & (2**63 - 1)


def baseline_m(n: int, s: int, r: int) -> int:
    """The structure-driven measurement baseline ceil(r * s * ln(e n / s))."""
    return math.ceil(r * s * math.log(math.e * n / s))


def resolve_m(spec_value: str, n: int, s: int, r: int) -> int:
    """Resolve an m grid entry: absolute count, or "<mult>x" times the baseline.

    Any other entry, and a multiple with no finite value at the cell, raise ValueError.
    """
    text = str(spec_value).strip()
    try:
        if not text.endswith("x"):
            return int(text)
        return math.ceil(float(text[:-1]) * baseline_m(n, s, r))
    except (ArithmeticError, ValueError):    # nan, inf, or no baseline at s = 0 or n <= 0
        raise ValueError(f"m entry {spec_value!r} is neither an integer nor a finite number "
                         f"followed by x with a value at n={n}, s={s}, r={r}") from None


def default_inner_dim(n: int, s: int) -> int:
    """Default factorized inner dimension ceil(3 s ln(e n / s)) + 10, for any integer n.

    The log is taken as 1 + ln n - ln s, so an n beyond the float range still has a
    dimension (math.log takes any int) and its cell is refused by the payload cap.
    """
    return math.ceil(3 * s * (1.0 + math.log(n) - math.log(s))) + 10


_REQUIRED_KEYS = ("algo", "ensemble", "n", "s", "r", "m")
# the type each key's value is parsed as; the grid keys n, s, r and m take comma-separated lists
_KEY_TYPES = {
    "algo": str, "ensemble": str, "n": int, "s": int, "r": int, "m": str, "trials_per_cell": int,
    "noise_level": float, "success_tol": float, "base_seed": int, "p": int,
}


def parse_spec(lines) -> ExperimentSpec:
    """Parse the flat key = value spec format; lists are comma-separated."""
    kwargs = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ValueError(f"line {lineno}: expected 'key = value', got {text!r}")
        key, _, value = text.partition("=")
        key = key.strip()
        if key not in _KEY_TYPES:
            raise ValueError(f"line {lineno}: unknown spec key {key!r}")
        if key in kwargs:
            raise ValueError(f"line {lineno}: repeated spec key {key!r}")
        if key in _REQUIRED_KEYS[2:]:    # the grid lists
            kwargs[key] = [_parse_value(_KEY_TYPES[key], key, tok.strip(), lineno)
                           for tok in value.split(",") if tok.strip()]
        else:
            kwargs[key] = _parse_value(_KEY_TYPES[key], key, value.strip(), lineno)
    for key in _REQUIRED_KEYS:
        if key not in kwargs:
            raise ValueError(f"spec is missing the required key {key!r}")
    return ExperimentSpec(**kwargs)


def _cells(spec: ExperimentSpec):
    """(n, s, r, m) for every grid cell, in grid order."""
    for n, s, r, m_entry in itertools.product(spec.n, spec.s, spec.r, spec.m):
        yield n, s, r, resolve_m(m_entry, n, s, r)


def _refusal(check, *args) -> str | None:
    """The message of the ValueError that check(*args) raises, or None."""
    try:
        check(*args)
    except ValueError as exc:
        return str(exc)
    return None


def _cell_p(spec: ExperimentSpec, n: int, s: int) -> int | None:
    """The inner dimension of the cell's factorized maps; None for other ensembles."""
    if spec.ensemble != "factorized":
        return None
    return spec.p if spec.p is not None else default_inner_dim(n, s)


def _map_infeasible(spec: ExperimentSpec, n: int, s: int, r: int, m: int) -> str | None:
    """Why the cell has no structured matrix or no map payload within PAYLOAD_CAP, or None."""
    if m < 1:
        return f"m={m} < 1"
    return (_refusal(_check_structure_params, n, s, r)
            or _refusal(_check_payload, spec.ensemble, n, m, _cell_p(spec, n, s)))


def _cell_feasible(spec: ExperimentSpec, n: int, s: int, r: int, m: int) -> str | None:
    """Why the cell's map, or its solver's own size checks, refuse the cell, or None."""
    return _map_infeasible(spec, n, s, r, m) or (
        _refusal(_check_enumeration, n, s) if spec.algo == "exact-iht"
        else _refusal(_check_brute, n, s, r, m) if spec.algo == "brute" else None)


def _cell_map(spec: ExperimentSpec, n: int, s: int, m: int, cell: tuple):
    """The map of one cell, seeded by the cell tuple."""
    return sample_map(spec.ensemble, n, m, p=_cell_p(spec, n, s), seed=derive_seed(*cell, "map"))


def _run_single_trial(spec: ExperimentSpec, job: tuple) -> TrialRecord:
    """One (n, s, r, m, trial, infeasible) job; an infeasible cell's row is a NaN placeholder."""
    n, s, r, m, trial, infeasible = job
    cell = (spec.base_seed, spec.algo, spec.ensemble, n, s, r, m, trial)
    seed = derive_seed(*cell)
    if infeasible:
        return TrialRecord(spec.algo, spec.ensemble, n, s, r, m, trial, seed,
                           spec.noise_level, False, float("nan"), 0, 0.0)
    start = time.perf_counter()
    mp = _cell_map(spec, n, s, m, cell)
    signal, _ = sample_structured(n, s, r, np.random.default_rng(derive_seed(*cell, "signal")))
    y = mp.apply(signal)
    if spec.noise_level > 0:
        rng = np.random.default_rng(derive_seed(*cell, "noise"))
        y = y + rng.standard_normal(m) * (spec.noise_level * float(np.linalg.norm(y)) / np.sqrt(m))
    result = solve(spec.algo, mp, y, s, r)
    rel_error = float(np.linalg.norm(result.estimate - signal)) / float(np.linalg.norm(signal))
    wall_ms = (time.perf_counter() - start) * 1000.0
    return TrialRecord(
        spec.algo, spec.ensemble, n, s, r, m, trial, seed, spec.noise_level,
        rel_error <= spec.success_tol, rel_error, result.iterations, wall_ms,
    )


def run_phase_transition(spec: ExperimentSpec, threads: int = 1) -> list:
    """Run every (cell, trial) of the sweep; rows come back in grid order.

    Infeasible cells (no structured matrix, a support enumeration over
    ENUMERATION_CAP, or a map payload or brute pair design over PAYLOAD_CAP)
    are skipped with a warning and produce placeholder rows with
    rel_error = nan so the CSV stays rectangular.  At most
    min(threads, trials, CPU count) worker threads run the trials; with one,
    they run on the calling thread.
    """
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    jobs = []
    for n, s, r, m in _cells(spec):
        reason = _cell_feasible(spec, n, s, r, m)
        if reason is not None:
            warnings.warn(f"skipping infeasible cell (n={n}, s={s}, r={r}, m={m}): {reason}")
        jobs += [(n, s, r, m, t, reason is not None) for t in range(spec.trials_per_cell)]
    run = functools.partial(_run_single_trial, spec)
    workers = min(threads, len(jobs), os.cpu_count() or 1)
    if workers <= 1:
        return list(map(run, jobs))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))


def run_rip_sweep(spec: ExperimentSpec) -> list:
    """Estimate RIP statistics over the grid; returns (cell, seed, RipEstimate) rows.

    A cell with no structured matrix or with a map payload over PAYLOAD_CAP is
    skipped with a warning and leaves no row.
    """
    rows = []
    for n, s, r, m in _cells(spec):
        reason = _map_infeasible(spec, n, s, r, m)
        if reason is not None:
            warnings.warn(f"skipping infeasible cell (n={n}, s={s}, r={r}, m={m}): {reason}")
            continue
        cell = (spec.base_seed, "rip", spec.ensemble, n, s, r, m)
        mp = _cell_map(spec, n, s, m, cell)
        est = estimate_rip(mp, s, r, spec.trials_per_cell, seed=derive_seed(*cell, "probes"))
        rows.append({
            "ensemble": spec.ensemble, "n": n, "s": s, "r": r, "m": m,
            "trials": spec.trials_per_cell,
            "seed": derive_seed(*cell), "estimate": est,
        })
    return rows


def _write_rows(stream, header: str, rows) -> None:
    """Write a CSV: floats as .17g, booleans as 0/1, everything else with str."""
    stream.write(header + "\n")
    for row in rows:
        stream.write(",".join(
            format(v, ".17g") if isinstance(v, float)
            else str(int(v)) if isinstance(v, (bool, np.bool_)) else str(v)
            for v in row) + "\n")


def write_csv(records, stream, timing: bool = False) -> None:
    """Write trial records as CSV; ms is 0 unless timing=True (not reproducible)."""
    _write_rows(stream, CSV_HEADER, (
        (rec.algo, rec.ensemble, rec.n, rec.s, rec.r, rec.m, rec.trial, rec.seed,
         float(rec.noise), rec.success, rec.rel_error, rec.iterations,
         int(round(rec.wall_ms)) if timing else 0)
        for rec in records))


def write_rip_csv(rows, stream) -> None:
    _write_rows(stream, RIP_CSV_HEADER, (
        (row["ensemble"], row["n"], row["s"], row["r"], row["m"], row["trials"], row["seed"],
         row["estimate"].delta_lower, row["estimate"].alpha_hat, row["estimate"].beta_hat)
        for row in rows))


def aggregate(records) -> list:
    """Per-cell success statistics; placeholder (nan) rows are left out."""
    cells = {}
    for rec in records:
        if math.isnan(rec.rel_error):
            continue
        key = (rec.algo, rec.ensemble, rec.n, rec.s, rec.r, rec.m)
        entry = cells.setdefault(key, {"trials": 0, "successes": 0, "err_sum": 0.0})
        entry["trials"] += 1
        entry["successes"] += int(rec.success)
        entry["err_sum"] += rec.rel_error
    rows = []
    for key in sorted(cells):
        entry = cells[key]
        rows.append({
            "algo": key[0], "ensemble": key[1], "n": key[2], "s": key[3],
            "r": key[4], "m": key[5], "trials": entry["trials"],
            "successes": entry["successes"],
            "success_rate": entry["successes"] / entry["trials"],
            "mean_rel_error": entry["err_sum"] / entry["trials"],
        })
    return rows


def write_aggregate_csv(rows, stream) -> None:
    _write_rows(stream, AGGREGATE_HEADER,
                ([row[key] for key in AGGREGATE_HEADER.split(",")] for row in rows))
