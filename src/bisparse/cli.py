"""Command-line front end: project / measure / recover / rip / bench.

The stochastic subcommands, measure and rip, require an explicit --seed.  Every
run echoes on stderr the seed it uses: recover the one in its file's header,
bench its spec's base_seed after any --seed override.  Exit codes: 0 success,
2 usage or input error, 1 numerical failure (non-convergence under --strict, or
a LinAlgError).
"""

from __future__ import annotations

import argparse
import contextlib
import sys

import numpy as np

from . import bench, measurements, projections, recovery
from .symcore import read_matrix, write_matrix


# "-" is the process's stdin/stdout, which a command's `with` block must not close
def _open_in(path):
    return contextlib.nullcontext(sys.stdin) if path == "-" else open(path, "r")


def _open_out(path):
    return contextlib.nullcontext(sys.stdout) if path == "-" else open(path, "w")


def _echo_seed(seed) -> None:
    print(f"# seed {seed if seed is not None else 'none'}", file=sys.stderr)


def _parse_support(text: str, n: int) -> np.ndarray:
    """A --sprime list of 1-based indices in [1, n], matching the text output, made 0-based."""
    support = []
    for tok in filter(str.strip, text.split(",")):
        try:
            index = int(tok)
        except ValueError:
            raise ValueError(f"--sprime index is not an integer: {tok.strip()!r}") from None
        if not 1 <= index <= n:
            raise ValueError(f"--sprime index {index} out of range [1, {n}]")
        support.append(index - 1)
    return np.array(support, dtype=int)


def _rank(args) -> int:
    if args.r is None:
        raise ValueError(f"--op {args.op} needs --r")
    return args.r


def _head_shrink(mat, args):
    if args.sprime is None:
        raise ValueError("head-shrink needs --sprime")
    return projections.head_shrink(mat, _parse_support(args.sprime, len(mat)), args.s)


def _hierarchical(mat, args):
    out = projections.project_hierarchical(mat, args.s, args.s if args.t is None else args.t)
    return projections.ProjectionOutcome(out, np.nonzero(np.any(out != 0.0, axis=0))[0])


# --op name -> projection of (matrix, parsed arguments) to a ProjectionOutcome
PROJECTIONS = {
    "exact": lambda mat, a: projections.exact_project(mat, a.s, _rank(a)),
    "tail-bisparse": lambda mat, a: projections.tail_bisparse(mat, a.s),
    "tail-joint": lambda mat, a: projections.tail_joint(mat, a.s, _rank(a)),
    "head-square": lambda mat, a: projections.head_square(mat, a.s),
    "head-rowcol": lambda mat, a: projections.head_rowcol(mat, a.s),
    "head-anchor": lambda mat, a: projections.head_anchor(mat, a.s),
    "head-psd": lambda mat, a: projections.head_psd_lowrank(mat, a.s, rank_override=a.r),
    "head-joint": lambda mat, a: projections.head_joint(mat, a.s, _rank(a)),
    "head-square-variant": lambda mat, a: projections.head_square_variant(mat, a.s, _rank(a)),
    "head-shrink": _head_shrink,
    "hierarchical": _hierarchical,
}


def _cmd_project(args) -> int:
    _echo_seed(None)
    with _open_in(args.input) as fh:
        mat = read_matrix(fh)
    outcome = PROJECTIONS[args.op](mat, args)
    with _open_out(args.output) as fh:
        fh.write(" ".join(str(i + 1) for i in outcome.support) + "\n")
        fh.write(format(outcome.objective, ".17g") + "\n")
        write_matrix(outcome.matrix, fh)
    return 0


def _cmd_measure(args) -> int:
    _echo_seed(args.seed)
    with _open_in(args.input) as fh:
        mat = read_matrix(fh)
    mp = measurements.sample_map(
        args.kind, mat.shape[0], args.m, p=args.p, seed=args.seed,
        inner=args.inner, scale=args.scale,
    )
    y = mp.apply(mat)
    with _open_out(args.output) as fh:
        measurements.write_measurement_file(mp, y, fh)
    return 0


def _cmd_recover(args) -> int:
    with _open_in(args.input) as fh:
        mp, y = measurements.read_measurement_file(fh)
    _echo_seed(mp.seed)
    cfg = recovery.RecoveryConfig(max_iters=args.max_iters, tol_residual=args.tol)
    result = recovery.solve(args.algo, mp, y, args.s, args.r, cfg)
    final_res = result.residual_trace[-1] if result.residual_trace else float("nan")
    with _open_out(args.output) as fh:
        fh.write(f"converged {int(result.converged)}\n")
        fh.write(f"iterations {result.iterations}\n")
        fh.write(f"residual {format(final_res, '.17g')}\n")
        fh.write("support " + " ".join(str(i + 1) for i in result.support) + "\n")
        write_matrix(result.estimate, fh)
    if args.strict and not result.converged:
        print("error: solver did not converge", file=sys.stderr)
        return 1
    return 0


def _cmd_rip(args) -> int:
    _echo_seed(args.seed)
    mp = measurements.sample_map(
        args.ensemble, args.n, args.m, p=args.p, seed=args.seed,
        inner=args.inner, scale=args.scale,
    )
    est = measurements.estimate_rip(mp, args.s, args.r, args.trials, seed=args.seed)
    with _open_out(args.output) as fh:
        fh.write(f"trials {est.trials}\n")
        fh.write(f"delta_lower {format(est.delta_lower, '.17g')}\n")
        fh.write(f"alpha_hat {format(est.alpha_hat, '.17g')}\n")
        fh.write(f"beta_hat {format(est.beta_hat, '.17g')}\n")
        if args.cross_term:
            delta = args.delta if args.delta is not None else est.delta_lower
            report = measurements.check_rip_cross_term(
                mp, args.s, args.r, args.trials, delta, seed=args.seed
            )
            fh.write(f"cross_worst {format(report.worst_ratio, '.17g')}\n")
            fh.write(f"cross_within {int(report.within)}\n")
    return 0


def _cmd_bench(args) -> int:
    with _open_in(args.spec) as fh:
        spec = bench.parse_spec(fh)
    if args.seed is not None:
        spec.base_seed = args.seed
    _echo_seed(spec.base_seed)
    if args.mode == "phase":
        records = bench.run_phase_transition(spec, threads=args.threads)
        with _open_out(args.output) as fh:
            bench.write_csv(records, fh, timing=args.timing)
        if args.aggregate:
            with open(args.aggregate, "w") as fh:
                bench.write_aggregate_csv(bench.aggregate(records), fh)
    else:
        rows = bench.run_rip_sweep(spec)
        with _open_out(args.output) as fh:
            bench.write_rip_csv(rows, fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bisparse",
        description="Projections, measurement maps and recovery of jointly "
        "low-rank and bisparse symmetric matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_proj = sub.add_parser("project", help="apply a projection to a matrix")
    p_proj.add_argument("--op", required=True, choices=tuple(PROJECTIONS))
    p_proj.add_argument("--s", type=int, required=True, help="sparsity level")
    p_proj.add_argument("--r", type=int, default=None, help="rank bound")
    p_proj.add_argument("--t", type=int, default=None, help="per-column sparsity (hierarchical)")
    p_proj.add_argument("--sprime", default=None,
                        help="comma-separated 1-based support (head-shrink)")
    p_proj.add_argument("--input", default="-", help="matrix file (default stdin)")
    p_proj.add_argument("--output", default="-", help="output file (default stdout)")
    p_proj.set_defaults(func=_cmd_project)

    p_meas = sub.add_parser("measure", help="sample a map and measure a matrix")
    p_meas.add_argument("--kind", required=True, choices=measurements.KINDS)
    p_meas.add_argument("--m", type=int, required=True, help="number of measurements")
    p_meas.add_argument("--p", type=int, default=None, help="inner dimension (factorized)")
    p_meas.add_argument("--inner", default="dense", choices=measurements.INNER_KINDS)
    p_meas.add_argument("--scale", default="inv_m", choices=measurements.SCALES)
    p_meas.add_argument("--seed", type=int, required=True)
    p_meas.add_argument("--input", default="-", help="matrix file (default stdin)")
    p_meas.add_argument("--output", default="-")
    p_meas.set_defaults(func=_cmd_measure)

    p_rec = sub.add_parser("recover", help="recover a matrix from a measurement file")
    p_rec.add_argument("--algo", required=True, choices=recovery.ALGOS)
    p_rec.add_argument("--s", type=int, required=True)
    p_rec.add_argument("--r", type=int, required=True)
    p_rec.add_argument("--max-iters", type=int, default=recovery.RecoveryConfig.max_iters)
    p_rec.add_argument("--tol", type=float, default=recovery.RecoveryConfig.tol_residual)
    p_rec.add_argument("--strict", action="store_true",
                       help="exit 1 when the solver does not converge")
    p_rec.add_argument("--input", default="-", help="measurement file (default stdin)")
    p_rec.add_argument("--output", default="-")
    p_rec.set_defaults(func=_cmd_recover)

    p_rip = sub.add_parser("rip", help="estimate restricted-isometry statistics")
    p_rip.add_argument("--ensemble", required=True, choices=measurements.KINDS)
    p_rip.add_argument("--n", type=int, required=True)
    p_rip.add_argument("--m", type=int, required=True)
    p_rip.add_argument("--p", type=int, default=None)
    p_rip.add_argument("--inner", default="dense", choices=measurements.INNER_KINDS)
    p_rip.add_argument("--scale", default="inv_m", choices=measurements.SCALES)
    p_rip.add_argument("--s", type=int, required=True)
    p_rip.add_argument("--r", type=int, required=True)
    p_rip.add_argument("--trials", type=int, default=200)
    p_rip.add_argument("--cross-term", action="store_true",
                       help="also report the worst cross-term ratio")
    p_rip.add_argument("--delta", type=float, default=None,
                       help="delta to compare the cross-term ratio against")
    p_rip.add_argument("--seed", type=int, required=True)
    p_rip.add_argument("--output", default="-")
    p_rip.set_defaults(func=_cmd_rip)

    p_bench = sub.add_parser("bench", help="run a benchmark sweep from a spec file")
    p_bench.add_argument("--spec", required=True, help="spec file path ('-' for stdin)")
    p_bench.add_argument("--mode", default="phase", choices=("phase", "rip"))
    p_bench.add_argument("--seed", type=int, default=None,
                         help="override the spec's base_seed")
    p_bench.add_argument("--threads", type=int, default=1,
                         help="worker threads for the trials, at least 1; capped at the "
                              "trial count and the CPUs the process may run on (default 1)")
    p_bench.add_argument("--timing", action="store_true",
                         help="write measured wall times (breaks byte reproducibility)")
    p_bench.add_argument("--output", default="-", help="CSV output (default stdout)")
    p_bench.add_argument("--aggregate", default=None, help="also write per-cell aggregates")
    p_bench.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    try:
        return args.func(args)
    except np.linalg.LinAlgError as exc:  # a ValueError subclass, so it is caught first
        print(f"numerical error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
