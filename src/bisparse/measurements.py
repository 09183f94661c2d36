"""Measurement ensembles, adjoints, and Monte-Carlo restricted-isometry probes.

Three linear measurement families on symmetric n x n matrices are supported:

  dense-gaussian   y_i = <X, A_i>        A_i symmetric, entries N(0, 1/m)
  rank-one         y_i = <X a_i, a_i>    a_i with N(0, 1/m) entries (or N(0,1)
                                         with scale="unit")
  factorized       y_i = <X, B^T A_i B>  B (p x n) and A_i (p x p) standard
                                         Gaussian; A_i may be rank-one a_i a_i^T

A map stores its payload arrays but is reproducible from (kind, n, m, p, seed,
inner, scale) alone, which is what the text serialization records.  Payloads
can also be injected directly for test hooks.  A dense-gaussian map stores each
symmetric A_i once, as its packed upper triangle.

The RIP estimators probe the structured set with random unit-Frobenius
members; the reported constants are empirical lower bounds on the true
extremal constants, never certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .symcore import _check_sparsity, _project_rank_vectors, check_sym

__all__ = [
    "KINDS",
    "MeasurementMap",
    "RipEstimate",
    "CrossTermReport",
    "sample_map",
    "sample_structured",
    "estimate_rip",
    "cross_term_ratio",
    "check_rip_cross_term",
    "write_map_header",
    "write_measurement_file",
    "read_measurement_file",
]

KINDS = ("dense-gaussian", "rank-one", "factorized")
INNER_KINDS = ("dense", "rank-one")
SCALES = ("inv_m", "unit")
_HEADER_KEYS = ("kind", "n", "m", "p", "inner", "scale", "seed")

# entries a payload-sized array (a sampled map, the brute-force design) may
# hold; larger ones are refused before allocating (8e8 bytes of float64)
PAYLOAD_CAP = 100_000_000
# probes estimate_rip measures in one block batch; bounds its memory for any trial count
PROBE_CHUNK = 32
PROBE_CACHE_CHUNKS = 16
# stored entries from which an adjoint's product runs as two column chunks (BENCH_28.json); a
# threaded GEMV per chunk was slower than one threaded GEMV, so only under one BLAS thread
SPLIT_ENTRIES = 1_000_000


# the map options each kind takes, in map-header order; any other option must keep its default
_OPTIONS = {"dense-gaussian": (), "rank-one": ("scale",), "factorized": ("p", "inner")}


def _payload_shapes(kind: str, n: int, m: int, p=None, inner="dense", scale="inv_m") -> dict:
    """{payload field: shape} of a map, listed in draw order; refuses options it does not take."""
    if kind not in KINDS:
        raise ValueError(f"unknown measurement kind {kind!r}")
    if m < 1 or n < 1:
        raise ValueError("dimensions must be positive")
    if inner not in INNER_KINDS:
        raise ValueError(f"unknown inner kind {inner!r}")
    if scale not in SCALES:
        raise ValueError(f"unknown scale {scale!r}")
    given = [name for name, value, default in (("p", p, None), ("inner", inner, "dense"),
                                               ("scale", scale, "inv_m"))
             if value != default and name not in _OPTIONS[kind]]
    if given:
        raise ValueError(f"{kind} maps take no {' or '.join(given)}")
    if kind == "dense-gaussian":
        return {"matrices": (m, n * (n + 1) // 2)}
    if kind == "rank-one":
        return {"vectors": (m, n)}
    if p is None or p < 1:
        raise ValueError(f"factorized maps need a positive inner dimension p, got {p}")
    if inner == "dense":
        return {"basis": (p, n), "matrices": (m, p, p)}
    return {"basis": (p, n), "vectors": (m, p)}


@functools.lru_cache(maxsize=16)
def _triangle(n: int) -> tuple:
    """The packed upper triangle of n x n matrices, in np.triu_indices order: its rows, columns
    and weights (2 off the diagonal, where an entry stands for two, 1 on it), and the n x n
    table of each entry's packed position, which unpacks a packed matrix by one `take`."""
    rows, cols = np.triu_indices(n)
    pos = np.empty((n, n), dtype=np.intp)
    pos[rows, cols] = pos[cols, rows] = np.arange(len(rows))
    out = rows, cols, np.where(rows == cols, 1.0, 2.0), pos
    for arr in out:
        arr.flags.writeable = False
    return out


def _one_blas_thread(env) -> bool:
    """Whether OpenBLAS runs one thread: at load it takes the first of these variables that is a
    positive count, else one thread per CPU."""
    values = map(env.get, ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"))
    counts = [int(v) for v in values if v and v.strip().isdigit() and int(v)]
    return counts[:1] == [1]


def _new_pool() -> None:    # a forked child needs its own: an inherited pool has no thread
    global _pool
    _pool = ThreadPoolExecutor(1, "bisparse-split")


_ONE_BLAS_THREAD = _one_blas_thread(os.environ)
_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _vecmat(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """w @ mat for an (m, k) payload.  From SPLIT_ENTRIES entries on, under one BLAS thread and on
    two usable CPUs or more, in two column chunks split at a multiple of 64 columns that the shape
    alone sets, so each keeps the whole GEMV's bits.  The caller runs the first chunk, and the
    second too unless the pool thread has started it: nested calls cannot deadlock."""
    m, k = mat.shape
    a = k // 128 * 64    # the second chunk has 64 columns or more, not the one numpy runs as a dot
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    if m * k < SPLIT_ENTRIES or not a or not _ONE_BLAS_THREAD or (cpus or 1) < 2:
        return w @ mat
    out = np.empty(k)
    def part(lo, hi):
        np.matmul(w, mat[:, lo:hi], out=out[lo:hi])
    job = _pool.submit(part, a, k)
    part(0, a)
    if job.cancel():
        part(a, k)
    else:
        job.result()
    return out


def _pack(stack: np.ndarray, out=None) -> np.ndarray:
    """(k, n(n+1)/2) packed upper triangles of the symmetric parts of a (k, n, n) stack."""
    k, n = stack.shape[:2]
    rows, cols = _triangle(n)[:2]
    stack = stack.reshape(k, -1)
    out = np.take(stack, rows * n + cols, axis=1, out=out, mode="clip")    # "raise" would buffer
    out += stack[:, cols * n + rows]    # a_ij + a_ji, the sum symmetrizing the whole stack adds
    out /= 2.0
    return out


@dataclass(frozen=True)
class MeasurementMap:
    """A tagged linear map from symmetric n x n matrices to R^m.

    Exactly one payload layout per kind: `matrices` (m, n(n+1)/2) for
    dense-gaussian, the packed upper triangles of the A_i (given an (m, n, n)
    stack, it packs the stack's symmetric parts, the map the stack measures);
    `vectors` (m, n) for rank-one; `basis` (p, n) plus either `matrices`
    (m, p, p) or `vectors` (m, p) for factorized.  Payload fields outside the
    kind's layout are rejected, and so are options the kind does not take: only
    rank-one maps take a `scale`, only factorized maps `p` and `inner`.  `seed`
    is the sampling seed when the payload came from `sample_map`, else None.
    """

    kind: str
    n: int
    m: int
    seed: int | None = None
    p: int | None = None
    inner: str = "dense"
    scale: str = "inv_m"
    matrices: np.ndarray | None = field(default=None, repr=False)
    vectors: np.ndarray | None = field(default=None, repr=False)
    basis: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        shapes = _payload_shapes(self.kind, self.n, self.m, self.p, self.inner, self.scale)
        stray = [name for name in ("matrices", "vectors", "basis")
                 if name not in shapes and getattr(self, name) is not None]
        if stray:
            raise ValueError(f"{self.kind} payload takes no {' or '.join(stray)}")
        if self.kind == "dense-gaussian" and \
                getattr(self.matrices, "shape", None) == (self.m, self.n, self.n):
            object.__setattr__(self, "matrices", _pack(np.asarray(self.matrices, dtype=float)))
        for name, shape in shapes.items():
            if getattr(self, name) is None or getattr(self, name).shape != shape:
                raise ValueError(f"{self.kind} payload needs {name} of shape {shape}")

    def apply(self, mat) -> np.ndarray:
        """Measure a symmetric n x n matrix; linear in the input."""
        x = check_sym(mat)
        if x.shape[0] != self.n:
            raise ValueError(f"matrix dimension {x.shape[0]} != map dimension {self.n}")
        return self._apply(x)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """apply without validation; x must be a symmetric n x n float64 array."""
        if self.kind == "dense-gaussian":
            rows, cols, weights, _ = _triangle(self.n)
            return self.matrices @ (x[rows, cols] * weights)    # one GEMV on the packed payload
        if self.kind == "factorized":
            x = self.basis @ x @ self.basis.T
        if self.matrices is not None:
            return self.matrices.reshape(self.m, -1) @ x.ravel()    # one GEMV on a view
        return ((self.vectors @ x) * self.vectors).sum(axis=1)

    def _apply_blocks(self, supports: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """(c, m) measurements of c matrices, each an s x s block on a sorted support.

        `supports` is (c, s) and `blocks` is (c, s, s) symmetric.  Only a support's
        slice of the payload is read: the s(s+1)/2 packed entries of its pairs in a dense
        map, the columns S of rank-one vectors or of a factorized basis.  The blocks are
        measured in batches whose gathered scratch holds about one payload at most, and
        each block's measurement is the same bits in any batch.
        """
        c, s = supports.shape
        if self.kind == "factorized" and self.matrices is not None:
            scratch = self.p * self.p    # one lifted p x p block B_S Z B_S^T per matrix
        else:
            scratch = self.m * (s * (s + 1) // 2 if self.matrices is not None else s)
        payload = sum(arr.size for arr in (self.matrices, self.vectors, self.basis)
                      if arr is not None)
        width = max(1, payload // scratch)
        return np.concatenate([self._apply_batch(supports[i:i + width], blocks[i:i + width])
                               for i in range(0, c, width)])

    def _apply_batch(self, supports: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """_apply_blocks of one batch; every block takes its own matrix-vector products."""
        c, s = supports.shape
        if self.kind == "factorized":
            bs = self.basis[:, supports].transpose(1, 0, 2)    # (c, p, s) columns B_S
        if self.vectors is not None:
            # <Z a_i, a_i> on S for a_i = v_i, or B_S^T v_i in a factorized map
            g = self.vectors[:, supports].transpose(1, 0, 2) if self.kind == "rank-one" \
                else self.vectors @ bs
            out = g @ blocks
            out *= g
            return out @ np.ones(s)
        if self.kind == "factorized":
            flat = (bs @ blocks @ bs.transpose(0, 2, 1)).reshape(c, -1, 1)
            return (self.matrices.reshape(self.m, -1) @ flat)[:, :, 0]
        rows, cols, weights, _ = _triangle(s)
        upper = rows * s + cols    # the upper triangle's entries of an s x s block, row-major
        pos = _triangle(self.n)[3][supports[:, :, None], supports[:, None, :]].reshape(c, -1)
        # (c, k, m) and (c, k) in C order: a block's product has one memory layout in any batch
        g = self.matrices.T[pos.take(upper, axis=1)]
        vals = blocks.reshape(c, -1).take(upper, axis=1) * weights
        return (vals[:, None, :] @ g)[:, 0]

    def _times(self, q: np.ndarray) -> np.ndarray:
        """(m, d, k) stack A_i Q for a d x k Q, in one payload pass: A_i(Q W^T) = <A_i Q, W>.

        The A_i are the stored ones, so d = p on a factorized map; a dense map unpacks them."""
        if self.vectors is not None:
            return self.vectors[:, :, None] * (self.vectors @ q)[:, None, :]
        mats = self.matrices if self.kind == "factorized" else \
            self.matrices.take(_triangle(self.n)[3], axis=1)
        return (mats.reshape(-1, len(q)) @ q).reshape(self.m, len(q), -1)

    def _gather(self, w: np.ndarray) -> np.ndarray:
        """sum_i w_i A_i over the stored A_i: n x n, or p x p inner ones in a factorized map."""
        if self.kind == "dense-gaussian":    # both triangles from one entry: exactly symmetric
            return _vecmat(w, self.matrices).take(_triangle(self.n)[3])
        if self.matrices is not None:
            return _vecmat(w, self.matrices.reshape(self.m, -1)).reshape(self.p, self.p)
        return self.vectors.T @ (w[:, None] * self.vectors)

    def adjoint(self, u) -> np.ndarray:
        """Adjoint sum_i u_i A_i; always lands on a symmetric matrix."""
        w = np.asarray(u, dtype=float)
        if w.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {w.shape}")
        out = self._gather(w)
        if self.kind == "factorized":
            out = self.basis.T @ out @ self.basis
        return out if self.kind == "dense-gaussian" else (out + out.T) / 2.0


def sample_map(
    kind: str,
    n: int,
    m: int,
    p: int | None = None,
    seed: int = 0,
    inner: str = "dense",
    scale: str = "inv_m",
) -> MeasurementMap:
    """Sample a measurement map; deterministic given the arguments.

    dense-gaussian matrices have i.i.d. N(0, 1/m) entries and are then
    symmetrized (which halves the off-diagonal variance); rank-one vectors
    have N(0, 1/m) entries, or N(0, 1) with scale="unit"; factorized draws the
    basis and the inner matrices/vectors with standard N(0, 1) entries.
    Refuses options the kind does not take, and payloads of more than
    PAYLOAD_CAP entries, before allocating.  Matrices are drawn, scaled,
    symmetrized and packed about 1 MiB of n x n (or p x p) slices at a time,
    the bits of one whole draw, so sampling holds the payload plus about
    1.5 MiB of scratch (more if one slice is larger).
    """
    shapes = _check_payload(kind, n, m, p, inner, scale)
    rng = np.random.default_rng(seed)
    # drawn in table order, so a factorized basis comes before its inner payload
    payload = {name: np.empty(shape) if name == "matrices" else rng.standard_normal(shape)
               for name, shape in shapes.items()}
    if kind == "rank-one" and scale == "inv_m":
        payload["vectors"] /= np.sqrt(m)
    if "matrices" in payload:
        d = n if kind == "dense-gaussian" else p
        rows = max(1, 2**17 // (d * d))    # ~1 MiB chunks cost what one whole pass does
        scratch = np.empty((min(rows, m), d, d))
        for start in range(0, m, rows):
            chunk = rng.standard_normal(out=scratch[:min(rows, m - start)])
            part = payload["matrices"][start:start + len(chunk)]
            if kind == "dense-gaussian":
                chunk /= np.sqrt(m)
                _pack(chunk, out=part)
            else:
                np.add(chunk, chunk.transpose(0, 2, 1), out=part)
                part /= 2.0
    return MeasurementMap(kind, n, m, seed=seed, p=p, inner=inner, scale=scale, **payload)


def _check_payload(kind: str, n: int, m: int, p=None, inner="dense", scale="inv_m") -> dict:
    """`_payload_shapes`, refusing more than PAYLOAD_CAP entries in all, before allocating."""
    shapes = _payload_shapes(kind, n, m, p, inner, scale)
    _check_entries(f"a {kind} payload", sum(math.prod(shape) for shape in shapes.values()))
    return shapes


def _measurements(mp: MeasurementMap, y) -> np.ndarray:
    """y as float64, validated to be the map's m finite measurements."""
    y = np.asarray(y, dtype=float)
    if y.shape != (mp.m,):
        raise ValueError(f"expected {mp.m} measurements, got shape {y.shape}")
    if not np.all(np.isfinite(y)):
        raise ValueError("measurements must be finite")
    return y


def _check_entries(what: str, entries: int) -> None:
    """Refuse, before allocating, an array of more than PAYLOAD_CAP entries."""
    if entries > PAYLOAD_CAP:
        raise ValueError(f"{what} of {entries} entries exceeds the cap {PAYLOAD_CAP}")


def _check_structure_params(n: int, s: int, r: int) -> None:
    _check_sparsity(s, n)
    if not 1 <= r <= s:
        raise ValueError(f"rank must satisfy 1 <= r <= s={s}, got {r}")


def _structured_probe(n: int, s: int, r: int, rng: np.random.Generator):
    """sample_structured's (support, unit-Frobenius s x s block); a zero projection is redrawn."""
    nrm = 0.0
    while nrm == 0.0:
        support = np.sort(rng.choice(n, size=s, replace=False))
        g = rng.standard_normal((s, s))
        block = _project_rank_vectors((g + g.T) / 2.0, r)[0]
        nrm = float(np.linalg.norm(block))
    return support, block / nrm


@functools.lru_cache(maxsize=PROBE_CACHE_CHUNKS)
def _probe_chunk(n: int, s: int, r: int, seed, start: int, stop: int) -> tuple:
    """Probes of trials start..stop-1 as (support, read-only s x s block, ||Z||_F^2)."""
    probes = [_structured_probe(n, s, r, np.random.default_rng([seed, t]))
              for t in range(start, stop)]
    chunk = tuple((support, block, float(np.sum(block * block))) for support, block in probes)
    for support, block, _ in chunk:
        support.flags.writeable = block.flags.writeable = False
    return chunk


def sample_structured(n: int, s: int, r: int, rng: np.random.Generator):
    """Random unit-Frobenius symmetric matrix of rank <= r on a random s x s block.

    The support is uniform over size-s subsets; the block is a symmetrized
    Gaussian projected to rank r, so the spectrum is signed.  Returns the
    matrix and its support.
    """
    _check_structure_params(n, s, r)
    support, block = _structured_probe(n, s, r, rng)
    out = np.zeros((n, n))
    out[support[:, None], support] = block
    return out, support


@dataclass(frozen=True)
class RipEstimate:
    """Empirical restricted-isometry statistics from random structured probes.

    delta_lower is the largest observed |  ||A(Z)||_2^2 - ||Z||_F^2 | over
    unit-norm probes; alpha_hat and beta_hat are the smallest and largest
    observed ||A(Z)||_1 / ||Z||_F.  Probing can only under-cover the
    structured set, so delta_lower and beta_hat under-estimate the true sup
    constants and alpha_hat over-estimates the true inf constant; none is a
    certificate.
    """

    delta_lower: float
    alpha_hat: float
    beta_hat: float
    trials: int
    s: int
    r: int


def estimate_rip(mp: MeasurementMap, s: int, r: int, trials: int, seed: int = 0) -> RipEstimate:
    """Probe the map with `trials` random structured matrices and record extremes.

    Each trial draws from an independent generator seeded by (seed, trial), so
    the result does not depend on evaluation order and is reproducible.  The
    probes are s x s blocks on their supports, drawn PROBE_CHUNK at a time and
    measured a chunk at a time through `MeasurementMap._apply_blocks`, which
    reads only the payload on each support; no n x n probe is formed.  The
    statistics agree with measuring each sample_structured probe with apply up
    to rounding (about 1e-15 relative), not bit for bit.  A cached 200-probe
    estimate at s=4, r=2 took 15 ms on a dense n=100, m=629 map, against 0.54 s
    through apply (one BLAS thread, 2-vCPU Xeon VM).  The probes do not depend
    on the map: the last PROBE_CACHE_CHUNKS chunks stay cached, keyed on
    (n, s, r, seed, trial range).
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_structure_params(mp.n, s, r)
    delta = 0.0
    alpha = np.inf
    beta = -np.inf
    for start in range(0, trials, PROBE_CHUNK):
        chunk = _probe_chunk(mp.n, s, r, seed, start, min(start + PROBE_CHUNK, trials))
        supports, blocks, zf2 = (np.array(part) for part in zip(*chunk))
        y = mp._apply_blocks(supports, blocks)
        delta = max(delta, float(np.max(np.abs(np.sum(y * y, axis=1) - zf2) / zf2)))
        ratio1 = np.sum(np.abs(y), axis=1) / np.sqrt(zf2)
        alpha = min(alpha, float(np.min(ratio1)))
        beta = max(beta, float(np.max(ratio1)))
    return RipEstimate(delta, alpha, beta, trials, s, r)


class CrossTermReport(NamedTuple):
    worst_ratio: float
    delta: float
    within: bool


def cross_term_ratio(mp: MeasurementMap, z, zp) -> float:
    """|<A(Z), A(Z')> - <Z, Z'>| / (||Z|| ||Z'||) for one pair of matrices."""
    za = np.asarray(z, dtype=float)
    zb = np.asarray(zp, dtype=float)
    num = abs(float(mp.apply(za) @ mp.apply(zb)) - float(np.sum(za * zb)))
    den = float(np.linalg.norm(za)) * float(np.linalg.norm(zb))
    return num / den


def check_rip_cross_term(
    mp: MeasurementMap, s: int, r: int, trials: int, delta: float, seed: int = 0
) -> CrossTermReport:
    """Worst cross-term ratio over random structured pairs, compared to delta.

    For Z, Z' in the structured set the ratio is bounded by the true RIP
    constant at doubled parameters (2s, 2r); pass such a delta to check it.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])
        za, _ = sample_structured(mp.n, s, r, rng)
        zb, _ = sample_structured(mp.n, s, r, rng)
        worst = max(worst, cross_term_ratio(mp, za, zb))
    return CrossTermReport(worst, delta, worst <= delta)


def write_map_header(mp: MeasurementMap, stream) -> None:
    """Serialize a sampled map as a compact text header (payload not stored)."""
    if mp.seed is None:
        raise ValueError("only maps sampled from a seed can be serialized")
    for key in ("kind", "n", "m", *_OPTIONS[mp.kind], "seed"):
        stream.write(f"{key} {getattr(mp, key)}\n")


def _parse_value(cast, key: str, text: str, lineno: int):
    """cast(text) for the value of a key on a line of user text; a bad value names both."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"line {lineno}: {key} takes {cast.__name__} values, "
                         f"got {text!r}") from None


def _parse_header_lines(it) -> dict:
    fields = {}
    for lineno, raw in enumerate(it, start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key not in _HEADER_KEYS:
            raise ValueError(f"line {lineno}: unknown map header key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: repeated map header key {key!r}")
        fields[key] = value.strip()
        if key in ("n", "m", "p", "seed"):
            fields[key] = _parse_value(int, key, fields[key], lineno)
        if key == "seed":
            break
    for key in ("seed", "kind", "n", "m"):
        if key not in fields:
            raise ValueError(f"map header is missing the {key} line")
    return fields


def write_measurement_file(mp: MeasurementMap, y, stream) -> None:
    """Write a map header, a `y` sentinel and the m finite measurements, one per line."""
    w = _measurements(mp, y)
    write_map_header(mp, stream)
    stream.write("y\n")
    for v in w:
        stream.write(format(v, ".17g") + "\n")


def read_measurement_file(lines):
    """Read a map header plus measurement vector; returns (map, y)."""
    it = iter(lines)
    fields = _parse_header_lines(it)
    sentinel = next(it, "").strip()
    if sentinel != "y":
        raise ValueError(f"expected 'y' sentinel after the map header, got {sentinel!r}")
    m = fields["m"]
    vals = [float(raw.strip()) for raw in itertools.islice(it, m)]
    if len(vals) < m:
        raise ValueError(f"expected {m} measurement lines, got {len(vals)}")
    bad = next((k for k, v in enumerate(vals) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"measurement {bad + 1} of {m} is not finite: {vals[bad]}")
    extra = next((raw for raw in it if raw.strip()), None)
    if extra is not None:
        raise ValueError(f"unexpected line after the {m} measurements: {extra.strip()!r}")
    return sample_map(**fields), np.array(vals)    # the header keys are sample_map's arguments
