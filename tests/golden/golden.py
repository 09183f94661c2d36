"""Golden CLI outputs: regenerate them, compare them, report their hashes.

`manifest.json` lists CLI commands.  Each names the exit code it returned
and the SHA-256 of every file it wrote; the files themselves are kept in
`outputs/`.  Arguments may use `{in}` for `inputs/` and `{out}` for the
directory the outputs are written to; later commands may read what earlier
ones wrote.  Every command writes to files, never to stdout.

    PYTHONPATH=src python tests/golden/golden.py            # report
    PYTHONPATH=src python tests/golden/golden.py --update   # re-baseline

The report prints one line per output, `same` or `DIFFERS`; a differing
output also gets how many of its tokens differ from `outputs/`, the largest
difference between two float tokens that are not both integers, and each
changed integer token, such as an iteration count.  It exits 0 either way;
it exits non-zero only when it cannot run.  `--update` rewrites the
manifest's exit codes and hashes and copies the outputs into `outputs/`.
`tests/test_golden.py` compares the regenerated outputs with `outputs/`
token by token: integers and words exactly, floats to a relative 1e-9.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
MANIFEST = HERE / "manifest.json"
INPUTS = HERE / "inputs"
OUTPUTS = HERE / "outputs"
REL_TOL = 1e-9

_INT = re.compile(r"[+-]?\d+")


def load_manifest() -> list:
    return json.loads(MANIFEST.read_text())["commands"]


def run_commands(commands, out_dir: Path) -> list:
    """Run every command in order with outputs under out_dir; returns the exit codes."""
    from bisparse.cli import main

    codes = []
    for cmd in commands:
        argv = [arg.format(**{"in": INPUTS, "out": out_dir}) for arg in cmd["argv"]]
        with warnings.catch_warnings(), contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("ignore")
            codes.append(main(argv))
    return codes


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _float(tok: str):
    try:
        return float(tok)
    except ValueError:
        return None


def _tokens(text: str) -> list:
    return re.split(r"[\s,]+", text.strip())


def token_mismatches(expected: str, actual: str) -> list:
    """Where two outputs disagree: integer pairs and words exactly, floats to REL_TOL."""
    exp, act = _tokens(expected), _tokens(actual)
    if len(exp) != len(act):
        return [f"{len(exp)} tokens expected, got {len(act)}"]
    bad = []
    for pos, (a, b) in enumerate(zip(exp, act)):
        if _INT.fullmatch(a) and _INT.fullmatch(b):
            same = int(a) == int(b)
        else:
            fa, fb = _float(a), _float(b)
            same = a == b if fa is None or fb is None else _close(fa, fb)
        if not same:
            bad.append(f"token {pos}: expected {a!r}, got {b!r}")
    return bad


def token_differences(expected: str, actual: str) -> str:
    """How far two outputs are apart: unequal tokens, the largest difference between two
    float tokens that are not both integers, and every changed integer token."""
    exp, act = _tokens(expected), _tokens(actual)
    if len(exp) != len(act):
        return f"{len(exp)} tokens expected, got {len(act)}"
    unequal = [(a, b) for a, b in zip(exp, act) if a != b]
    ints, floats = [], []
    for a, b in unequal:
        if _INT.fullmatch(a) and _INT.fullmatch(b):
            ints.append(f"{a} -> {b}")
        else:
            floats.append((_float(a), _float(b)))
    gaps = [(abs(fa - fb) if not math.isnan(fa - fb) else math.inf, fa)
            for fa, fb in floats if fa is not None and fb is not None]
    text = f"{len(unequal)} of {len(exp)} tokens differ"
    if gaps:
        gap, at = max(gaps)
        text += f", largest float difference {gap:.3g} at {at:.6g}"
    if ints:
        verb = "token differs" if len(ints) == 1 else "tokens differ"
        text += f", {len(ints)} integer {verb}: " + "; ".join(ints)
    return text


def report(commands, codes, out_dir: Path) -> int:
    """Print one line per exit code and output; returns how many differ.

    A differing output that was regenerated also says how far it is from `outputs/`.
    """
    differ = 0
    for cmd, code in zip(commands, codes):
        rows = [(f"{cmd['name']} exit", cmd["exit"] == code)]
        rows += [(name, (out_dir / name).is_file() and sha256(out_dir / name) == digest)
                 for name, digest in cmd["outputs"].items()]
        for label, same in rows:
            differ += not same
            detail = ""
            if not same and (out_dir / label).is_file() and (OUTPUTS / label).is_file():
                detail = "  (" + token_differences((OUTPUTS / label).read_text(),
                                                   (out_dir / label).read_text()) + ")"
            print(f"{'same' if same else 'DIFFERS'}  {label}{detail}")
    return differ


def update(commands, codes, out_dir: Path) -> None:
    OUTPUTS.mkdir(exist_ok=True)
    for stale in OUTPUTS.iterdir():
        stale.unlink()
    for cmd, code in zip(commands, codes):
        cmd["exit"] = code
        for name in cmd["outputs"]:
            cmd["outputs"][name] = sha256(out_dir / name)
            shutil.copyfile(out_dir / name, OUTPUTS / name)
    MANIFEST.write_text(json.dumps({"commands": commands}, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true",
                        help="rewrite the manifest and outputs/ from this run")
    args = parser.parse_args(argv)
    commands = load_manifest()
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        codes = run_commands(commands, out_dir)
        if args.update:
            update(commands, codes, out_dir)
            print(f"rewrote {MANIFEST.relative_to(HERE.parent.parent)}")
            return 0
        differ = report(commands, codes, out_dir)
    total = sum(1 + len(cmd["outputs"]) for cmd in commands)
    print(f"{differ} of {total} entries differ from the manifest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
