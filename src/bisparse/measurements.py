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

from .symcore import _project_rank_vectors, check_sym, frob_inner

__all__ = [
    "KINDS",
    "MeasurementMap",
    "RipEstimate",
    "CrossTermReport",
    "sample_map",
    "isometry_map",
    "factorized_inner_map",
    "sample_structured",
    "estimate_rip",
    "cross_term_ratio",
    "check_rip_cross_term",
    "write_map_header",
    "read_map_header",
    "write_measurement_file",
    "read_measurement_file",
]

KINDS = ("dense-gaussian", "rank-one", "factorized")
INNER_KINDS = ("dense", "rank-one")
SCALES = ("inv_m", "unit")
_HEADER_KEYS = ("kind", "n", "m", "p", "inner", "scale", "seed")

# entries a payload-sized array (a sampled map, isometry_map, the brute-force design) may
# hold; larger ones are refused before allocating (8e8 bytes of float64)
PAYLOAD_CAP = 100_000_000
# probes estimate_rip rank-projects in one stacked call; bounds its memory for any trial count
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
            return np.einsum("kij,ij->k", self.matrices, x)
        return ((self.vectors @ x) * self.vectors).sum(axis=1)

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
            out = np.einsum("k,kij->ij", w, self.matrices)
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


def isometry_map(n: int) -> MeasurementMap:
    """Test hook: an orthonormal basis of symmetric matrices, so the map is an isometry.

    Uses m = n(n+1)/2 measurements; apply followed by adjoint is the identity
    on symmetric matrices.  Refuses n < 1, and payloads of more than
    PAYLOAD_CAP entries (n > 118), before allocating.
    """
    m = n * (n + 1) // 2
    _check_payload("dense-gaussian", n, m)
    mats = np.zeros((m, n, n))
    diag = np.arange(n)
    mats[diag, diag, diag] = 1.0
    rows, cols = np.triu_indices(n, 1)
    k = np.arange(n, m)
    mats[k, rows, cols] = mats[k, cols, rows] = 1.0 / np.sqrt(2.0)
    return MeasurementMap("dense-gaussian", n, m, matrices=mats)


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
    if not 1 <= s <= n:
        raise ValueError(f"sparsity must satisfy 1 <= s <= {n}, got {s}")
    if not 1 <= r <= s:
        raise ValueError(f"rank must satisfy 1 <= r <= s={s}, got {r}")


def _draw_block(n: int, s: int, rng: np.random.Generator):
    support = np.sort(rng.choice(n, size=s, replace=False))
    g = rng.standard_normal((s, s))
    return support, (g + g.T) / 2.0


def _structured_probes(n: int, s: int, r: int, rngs):
    """Yield sample_structured's (matrix, support) for each generator in turn.

    The blocks of all generators are rank-projected in one stacked pass; a
    block that projects to zero is redrawn from its own generator.
    """
    drawn = [_draw_block(n, s, rng) for rng in rngs]
    blocks = _project_rank_vectors(np.array([g for _, g in drawn]), r)[0]
    for rng, (support, _), block in zip(rngs, drawn, blocks):
        nrm = float(np.linalg.norm(block))
        while nrm == 0.0:
            support, g = _draw_block(n, s, rng)
            block = _project_rank_vectors(g[None], r)[0][0]
            nrm = float(np.linalg.norm(block))
        out = np.zeros((n, n))
        out[support[:, None], support] = block / nrm
        yield out, support


@functools.lru_cache(maxsize=PROBE_CACHE_CHUNKS)
def _probe_chunk(n: int, s: int, r: int, seed, start: int, stop: int) -> tuple:
    """Probes of trials start..stop-1 as (support, read-only s x s block, ||Z||_F^2 on n x n)."""
    rngs = [np.random.default_rng([seed, t]) for t in range(start, stop)]
    chunk = tuple((support, probe[support[:, None], support], float(np.sum(probe * probe)))
                  for probe, support in _structured_probes(n, s, r, rngs))
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
    return next(_structured_probes(n, s, r, [rng]))


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
    probes are drawn PROBE_CHUNK at a time, rank-projected in one stacked pass
    and measured one by one without re-validation; the statistics are
    bit-identical to sampling each probe with sample_structured and measuring
    it with apply.  The probes do not depend on the map: the last PROBE_CACHE_CHUNKS
    chunks stay cached, keyed on (n, s, r, seed, trial range), as s x s blocks.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    _check_structure_params(mp.n, s, r)
    delta = 0.0
    alpha = np.inf
    beta = -np.inf
    for start in range(0, trials, PROBE_CHUNK):
        for support, block, zf2 in _probe_chunk(mp.n, s, r, seed, start,
                                                min(start + PROBE_CHUNK, trials)):
            probe = np.zeros((mp.n, mp.n))
            probe[support[:, None], support] = block
            y = mp._apply(probe)
            zf = np.sqrt(zf2)
            delta = max(delta, abs(float(y @ y) - zf2) / zf2)
            ratio1 = float(np.sum(np.abs(y))) / zf
            alpha = min(alpha, ratio1)
            beta = max(beta, ratio1)
    return RipEstimate(delta, alpha, beta, trials, s, r)


class CrossTermReport(NamedTuple):
    worst_ratio: float
    delta: float
    within: bool


def cross_term_ratio(mp: MeasurementMap, z, zp) -> float:
    """|<A(Z), A(Z')> - <Z, Z'>| / (||Z|| ||Z'||) for one pair of matrices."""
    za = np.asarray(z, dtype=float)
    zb = np.asarray(zp, dtype=float)
    num = abs(float(mp.apply(za) @ mp.apply(zb)) - frob_inner(za, zb))
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
    for raw in it:
        line = raw.strip()
        if not line:
            continue
        key, _, value = line.partition(" ")
        if key not in _HEADER_KEYS:
            raise ValueError(f"unknown map header key {key!r}")
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


def read_map_header(lines) -> MeasurementMap:
    """Rebuild a map from its text header by resampling from the stored seed."""
    return _map_from_fields(_parse_header_lines(iter(lines)))


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
