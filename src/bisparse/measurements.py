"""Measurement ensembles, adjoints, and Monte-Carlo restricted-isometry probes.

Three linear measurement families on symmetric n x n matrices are supported:

  dense-gaussian   y_i = <X, A_i>        A_i symmetric, entries N(0, 1/m) on the
                                         diagonal and N(0, 1/(2m)) off it
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

from .symcore import _check_structure_params, _project_rank_vectors, check_sym

__all__ = [
    "KINDS",
    "MeasurementMap",
    "RipEstimate",
    "CrossTermReport",
    "sample_map",
    "sample_structured",
    "estimate_rip",
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
# a dense draw's second row half runs on the pool thread from here; break-even ~1e4 (BENCH_33.json)
DRAW_SPLIT_ENTRIES = 2**15


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask's where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_two(fn, first: tuple, second: tuple, parallel: bool) -> None:
    """fn(*first), and fn(*second) on the pool thread if `parallel` and two CPUs or more are usable;
    the caller runs that too unless the pool thread has started it, so no call can deadlock."""
    job = _pool.submit(fn, *second) if parallel and _usable_cpus() >= 2 else None
    fn(*first)
    if job is None or job.cancel():
        fn(*second)
    else:
        job.result()


def _vecmat(w: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """w @ mat for an (m, k) payload; from SPLIT_ENTRIES entries on under one BLAS thread, by
    `_in_two` as two column chunks split at a multiple of 64 that the shape alone sets, so each
    keeps the whole GEMV's bits."""
    m, k = mat.shape
    a = k // 128 * 64    # the second chunk has 64 columns or more, not the one numpy runs as a dot
    if m * k < SPLIT_ENTRIES or not a or not _ONE_BLAS_THREAD:
        return w @ mat
    out = np.empty(k)
    def part(lo, hi):
        np.matmul(w, mat[:, lo:hi], out=out[lo:hi])
    _in_two(part, (0, a), (a, k), True)
    return out


def _pack(stack: np.ndarray) -> np.ndarray:
    """(k, n(n+1)/2) packed upper triangles of the symmetric parts of a (k, n, n) stack."""
    k, n = stack.shape[:2]
    rows, cols = _triangle(n)[:2]
    stack = stack.reshape(k, -1)
    return (stack[:, rows * n + cols] + stack[:, cols * n + rows]) / 2.0


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
        payload = (self.vectors if self.matrices is None else self.matrices).size + \
            (0 if self.basis is None else self.basis.size)
        width = max(1, payload // scratch)
        parts = [self._apply_batch(supports[i:i + width], blocks[i:i + width])
                 for i in range(0, c, width)]
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

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

    def _restrict(self, support: np.ndarray) -> np.ndarray:
        """The stored A_i on a sorted support S, which measure |S| x |S| blocks as this map does
        on S: (m, k, k) blocks, a dense map's S x S ones or sym(B_S^T A_i B_S) in a factorized
        map; or (m, k) vectors, vectors[:, S] in a rank-one map or the B_S^T v_i."""
        if self.vectors is not None:
            return self.vectors[:, support] if self.kind == "rank-one" else \
                self.vectors @ self.basis[:, support]
        if self.kind == "dense-gaussian":
            return self.matrices.take(_triangle(self.n)[3][support[:, None], support], axis=1)
        mats = self.basis[:, support].T @ self.matrices @ self.basis[:, support]
        return (mats + mats.transpose(0, 2, 1)) / 2.0

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


def _times(stored: np.ndarray, q: np.ndarray) -> np.ndarray:
    """(m, d, k) stack A_i Q of stored A_i, (m, d) vectors or an (m, d, d) stack, for a d x k Q,
    in one pass: A_i(Q W^T) = <A_i Q, W>."""
    if stored.ndim == 2:
        return stored[:, :, None] * (stored @ q)[:, None, :]
    return (stored.reshape(-1, len(q)) @ q).reshape(len(stored), len(q), -1)


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

    dense-gaussian maps draw each A_i's packed upper triangle, N(0, 1/m) on the diagonal and
    N(0, 1/(2m)) off it (a symmetrized N(0, 1/m) matrix's law), as two row halves: [0, m//2)
    from default_rng(seed), the rest from its first spawned child stream, on the pool thread
    from DRAW_SPLIT_ENTRIES entries on with two CPUs or more; the bytes depend on (seed, n, m)
    alone.  rank-one vectors have N(0, 1/m) entries, or N(0, 1) with scale="unit"; factorized
    draws the basis and the inner vectors, or inner matrices then symmetrized, with N(0, 1)
    entries.  Refuses options the kind does not take, and payloads of more than PAYLOAD_CAP
    entries, before allocating.  Payloads are drawn in place, inner matrices about 1 MiB of
    p x p slices at a time, the bits of one whole draw, so sampling holds the payload plus
    about 1 MiB of scratch (more if one slice is larger).
    """
    shapes = _check_payload(kind, n, m, p, inner, scale)
    rng = np.random.default_rng(seed)
    # drawn in table order, so a factorized basis comes before its (m, p, p) inner stack
    payload = {name: rng.standard_normal(shape) if name != "matrices" else np.empty(shape)
               for name, shape in shapes.items()}
    if kind == "dense-gaussian":    # each half by sqrt(m) on the diagonal, sqrt(2m) off it
        mats, scale_by = payload["matrices"], np.sqrt(m * _triangle(n)[2])
        def draw(gen, rows):
            np.divide(gen.standard_normal(out=rows), scale_by, out=rows)
        child = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
        _in_two(draw, (rng, mats[:m // 2]), (child, mats[m // 2:]), mats.size >= DRAW_SPLIT_ENTRIES)
    if kind == "rank-one" and scale == "inv_m":
        payload["vectors"] /= np.sqrt(m)
    if kind == "factorized" and inner == "dense":
        rows = max(1, 2**17 // (p * p))    # ~1 MiB chunks cost what one whole pass does
        scratch = np.empty((min(rows, m), p, p))
        for start in range(0, m, rows):
            chunk = rng.standard_normal(out=scratch[:min(rows, m - start)])
            part = payload["matrices"][start:start + len(chunk)]
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
    """Trials start..stop-1 stacked read-only: (c, s) supports, (c, s, s) blocks, (c,) ||Z||_F^2."""
    probes = [_structured_probe(n, s, r, np.random.default_rng([seed, t]))
              for t in range(start, stop)]
    supports, blocks = (np.array(part) for part in zip(*probes))
    chunk = supports, blocks, np.array([float(np.sum(block * block)) for _, block in probes])
    for arr in chunk:
        arr.flags.writeable = False
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
        supports, blocks, zf2 = _probe_chunk(mp.n, s, r, seed, start,
                                             min(start + PROBE_CHUNK, trials))
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


def check_rip_cross_term(
    mp: MeasurementMap, s: int, r: int, trials: int, delta: float, seed: int = 0
) -> CrossTermReport:
    """Worst |<A(Z), A(Z')> - <Z, Z'>| / (||Z|| ||Z'||) over random structured pairs vs delta.

    For Z, Z' in the structured set the ratio is bounded by the true RIP
    constant at doubled parameters (2s, 2r); pass such a delta to check it.
    Trial t draws its pair as two sample_structured probes from one generator
    seeded by (seed, t).  As in estimate_rip, the probes stay s x s blocks, PROBE_CHUNK
    pairs measured per `MeasurementMap._apply_blocks` call, and <Z, Z'> = <M^T Z M, Z'>
    for the 0/1 matrix M_ij = [S_i = S'_j] matching the pair's supports.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_structure_params(mp.n, s, r)
    worst = 0.0
    for start in range(0, trials, PROBE_CHUNK):
        rngs = [np.random.default_rng([seed, t])
                for t in range(start, min(start + PROBE_CHUNK, trials))]
        probes = [_structured_probe(mp.n, s, r, rng) for rng in rngs for _ in range(2)]
        supports, blocks = (np.array(part) for part in zip(*probes))
        y = mp._apply_blocks(supports, blocks)    # Z on even rows, Z' on odd ones
        match = (supports[0::2, :, None] == supports[1::2, None, :]) * 1.0
        inner = np.sum(match.transpose(0, 2, 1) @ blocks[0::2] @ match * blocks[1::2],
                       axis=(1, 2))
        norms = np.sqrt(np.sum(blocks * blocks, axis=(1, 2)))
        ratio = np.abs(np.sum(y[0::2] * y[1::2], axis=1) - inner) / (norms[0::2] * norms[1::2])
        worst = max(worst, float(np.max(ratio)))
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
