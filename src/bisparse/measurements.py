"""Measurement ensembles, adjoints, and Monte-Carlo restricted-isometry probes.

Three linear measurement families on symmetric n x n matrices are supported:

  dense-gaussian   y_i = <X, A_i>        A_i symmetric, entries N(0, 1/m)
  rank-one         y_i = <X a_i, a_i>    a_i with N(0, 1/m) entries (or N(0,1)
                                         with scale="unit")
  factorized       y_i = <X, B^T A_i B>  B (p x n) and A_i (p x p) standard
                                         Gaussian; A_i may be rank-one a_i a_i^T

A map stores its payload arrays but is reproducible from (kind, n, m, p, seed,
inner, scale) alone, which is what the text serialization records.  Payloads
can also be injected directly for test hooks.

The RIP estimators probe the structured set with random unit-Frobenius
members; the reported constants are empirical lower bounds on the true
extremal constants, never certificates.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    "factorized_inner_map",
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
        return {"matrices": (m, n, n)}
    if kind == "rank-one":
        return {"vectors": (m, n)}
    if p is None or p < 1:
        raise ValueError(f"factorized maps need a positive inner dimension p, got {p}")
    if inner == "dense":
        return {"basis": (p, n), "matrices": (m, p, p)}
    return {"basis": (p, n), "vectors": (m, p)}


@dataclass(frozen=True)
class MeasurementMap:
    """A tagged linear map from symmetric n x n matrices to R^m.

    Exactly one payload layout per kind: `matrices` (m, n, n) for
    dense-gaussian; `vectors` (m, n) for rank-one; `basis` (p, n) plus either
    `matrices` (m, p, p) or `vectors` (m, p) for factorized.  Payload fields
    outside the kind's layout are rejected, and so are options the kind does
    not take: only rank-one maps take a `scale`, only factorized maps `p` and
    `inner`.  `seed` is the sampling seed when the payload came from
    `sample_map`, else None.
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
        if self.kind == "factorized":
            x = self.basis @ x @ self.basis.T
        if self.matrices is not None:
            return self.matrices.reshape(self.m, -1) @ x.ravel()    # one GEMV on a view
        return ((self.vectors @ x) * self.vectors).sum(axis=1)

    def _apply_blocks(self, supports: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """(c, m) measurements of c matrices, each an s x s block on a sorted support.

        `supports` is (c, s) and `blocks` is (c, s, s) symmetric.  Only a support's
        slice of the payload is read: the S x S slices of dense matrices, the columns
        S of rank-one vectors or of a factorized basis.  The blocks are measured in
        batches whose gathered scratch holds about one payload at most, and each
        block's measurement is the same bits in any batch.
        """
        c, s = supports.shape
        if self.kind == "factorized" and self.matrices is not None:
            scratch = self.p * self.p    # one lifted p x p block B_S Z B_S^T per matrix
        else:
            scratch = self.m * s ** (2 if self.matrices is not None else 1)
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
        g = self.matrices[:, supports[:, :, None], supports[:, None, :]]
        return (g.reshape(self.m, c, -1).transpose(1, 0, 2) @ blocks.reshape(c, -1, 1))[:, :, 0]

    def _times(self, q: np.ndarray) -> np.ndarray:
        """(m, n, k) stack A_i Q for an n x k Q, in one payload pass: A_i(Q W^T) = <A_i Q, W>."""
        bq = q if self.kind != "factorized" else self.basis @ q
        if self.matrices is not None:
            out = (self.matrices.reshape(-1, len(bq)) @ bq).reshape(self.m, len(bq), -1)
        else:
            out = self.vectors[:, :, None] * (self.vectors @ bq)[:, None, :]
        return out if self.kind != "factorized" else self.basis.T @ out

    def adjoint(self, u) -> np.ndarray:
        """Adjoint sum_i u_i A_i; always lands on a symmetric matrix."""
        w = np.asarray(u, dtype=float)
        if w.shape != (self.m,):
            raise ValueError(f"expected {self.m} coefficients, got shape {w.shape}")
        if self.matrices is not None:
            out = (w @ self.matrices.reshape(self.m, -1)).reshape(self.matrices.shape[1:])
        else:
            out = self.vectors.T @ (w[:, None] * self.vectors)
        if self.kind == "factorized":
            out = self.basis.T @ out @ self.basis
        return (out + out.T) / 2.0


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
    PAYLOAD_CAP entries, before allocating.  Each array is drawn once and
    scaled and symmetrized in place, so sampling holds the payload plus about
    1 MiB of scratch (one n x n or p x p slice, if that is larger).
    """
    shapes = _check_payload(kind, n, m, p, inner, scale)
    rng = np.random.default_rng(seed)
    # drawn in table order, so a factorized basis comes before its inner payload
    payload = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    if kind != "factorized" and scale == "inv_m":
        for arr in payload.values():
            arr /= np.sqrt(m)
    mats = payload.get("matrices")
    if mats is not None:
        # numpy buffers the overlapping transposed operand: one chunk of scratch, same bits;
        # ~1 MiB chunks keep the Python loop as cheap as one whole-payload pass
        rows = max(1, 2**17 // mats[0].size)
        for start in range(0, len(mats), rows):
            chunk = mats[start:start + rows]
            chunk += chunk.transpose(0, 2, 1)
        mats /= 2.0
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


def factorized_inner_map(mp: MeasurementMap) -> MeasurementMap:
    """The p x p stage-one map of a factorized map (measuring Y = B X B^T).

    The inner payload is returned as sampled, with standard Gaussian entries
    and no N(0, 1/m) rescale, so the inner map measures B X B^T to the same
    y as the factorized map.
    """
    if mp.kind != "factorized":
        raise ValueError("inner map is only defined for factorized maps")
    if mp.inner == "dense":
        return MeasurementMap("dense-gaussian", mp.p, mp.m, matrices=mp.matrices)
    return MeasurementMap("rank-one", mp.p, mp.m, scale="unit", vectors=mp.vectors)


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


def _parse_header_lines(it) -> dict:
    fields = {}
    for lineno, raw in enumerate(it, start=1):
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key not in _HEADER_KEYS:
            raise ValueError(f"unknown map header key {key!r}")
        if key in fields:
            raise ValueError(f"line {lineno}: repeated map header key {key!r}")
        fields[key] = value.strip()
        if key == "seed":
            break
    for key in ("seed", "kind", "n", "m"):
        if key not in fields:
            raise ValueError(f"map header is missing the {key} line")
    return fields


def _map_from_fields(fields: dict) -> MeasurementMap:
    return sample_map(
        fields["kind"],
        int(fields["n"]),
        int(fields["m"]),
        p=int(fields["p"]) if "p" in fields else None,
        seed=int(fields["seed"]),
        inner=fields.get("inner", "dense"),
        scale=fields.get("scale", "inv_m"),
    )


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
    m = int(fields["m"])
    vals = [float(raw.strip()) for raw in itertools.islice(it, m)]
    if len(vals) < m:
        raise ValueError(f"expected {m} measurement lines, got {len(vals)}")
    bad = next((k for k, v in enumerate(vals) if not math.isfinite(v)), None)
    if bad is not None:
        raise ValueError(f"measurement {bad + 1} of {m} is not finite: {vals[bad]}")
    extra = next((raw for raw in it if raw.strip()), None)
    if extra is not None:
        raise ValueError(f"unexpected line after the {m} measurements: {extra.strip()!r}")
    return _map_from_fields(fields), np.array(vals)
