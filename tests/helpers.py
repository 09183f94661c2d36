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
