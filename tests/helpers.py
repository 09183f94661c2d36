"""Builders the test modules share, which the package itself has no use for."""

import numpy as np

from bisparse.measurements import MeasurementMap


def sym(mat) -> np.ndarray:
    """The symmetric part (M + M^T)/2 of a square matrix."""
    m = np.asarray(mat, dtype=float)
    return (m + m.T) / 2.0


def isometry_map(n: int) -> MeasurementMap:
    """An orthonormal basis of symmetric matrices as a dense map, so the map is an isometry.

    Uses m = n(n+1)/2 measurements: the diagonal units first, then (E_ij + E_ji)/sqrt(2) for
    i < j in row-major order.  Apply followed by adjoint is the identity on symmetric matrices.
    """
    pairs = [(i, i) for i in range(n)] + [(i, j) for i in range(n) for j in range(i + 1, n)]
    mats = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        mats[k, i, j] = mats[k, j, i] = 1.0 if i == j else 1.0 / np.sqrt(2.0)
    return MeasurementMap("dense-gaussian", n, len(pairs), matrices=mats)


def dense_stack(mp: MeasurementMap) -> np.ndarray:
    """The (m, n, n) symmetric matrices of a dense-gaussian map, unpacked from its payload.

    The payload holds each matrix's upper triangle in np.triu_indices order.
    """
    rows, cols = np.triu_indices(mp.n)
    out = np.empty((mp.m, mp.n, mp.n))
    out[:, rows, cols] = mp.matrices
    out[:, cols, rows] = mp.matrices
    return out


def inner_map(mp: MeasurementMap) -> MeasurementMap:
    """A factorized map's inner payload as a p x p map of its own, unscaled.

    It measures Y = B X B^T to the factorized map's y of X: the map stage one works with,
    kept here as a reference for the solver, which runs on the factorized map itself.
    """
    if mp.inner == "dense":
        return MeasurementMap("dense-gaussian", mp.p, mp.m, matrices=mp.matrices)
    return MeasurementMap("rank-one", mp.p, mp.m, scale="unit", vectors=mp.vectors)


def stored(mp: MeasurementMap) -> np.ndarray:
    """The stored A_i that iht_lowrank's steps read through `measurements._times`.

    A factorized map's inner payload, (m, p, p) matrices or (m, p) vectors; otherwise the map
    restricted to every index: a dense map's unpacked (m, n, n) stack, a rank-one map's vectors.
    """
    if mp.kind == "factorized":
        return mp.vectors if mp.matrices is None else mp.matrices
    return mp._restrict(np.arange(mp.n))
