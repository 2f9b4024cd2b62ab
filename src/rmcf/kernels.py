"""Batch kernels for symmetric-function sweeps.

Plain numpy, vectorized across the batch axis: each kernel runs the
incremental sigma recurrence one curvature column at a time over all
rows at once.
"""

import numpy as np


def _sigma_table(k):
    m, n = k.shape
    e = np.zeros((m, n + 1))
    e[:, 0] = 1.0
    for i in range(n):
        # the rhs temporary is materialized before the in-place add,
        # so old values feed the update exactly as in a descending row loop
        e[:, 1 : i + 2] += k[:, i, None] * e[:, 0 : i + 1]
    return e


def sigma_table(k):
    """All elementary symmetric functions sigma_0..sigma_n, one row per curvature vector.

    ``k`` has shape (m, n); the result has shape (m, n + 1) with column j
    holding sigma_j of the row.
    """
    k = np.ascontiguousarray(k, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError("sigma_table expects a 2-d batch of curvature vectors")
    return _sigma_table(k)


def complement_sigma(k, r):
    """sigma_r of each row with one entry removed.

    Entry (p, i) of the result is sigma_r of row p of ``k`` with k[p, i]
    deleted. These are exactly the eigenvalues of the Newton transform
    P_r in the eigenbasis of a shape operator with spectrum k[p].
    """
    k = np.ascontiguousarray(k, dtype=np.float64)
    if k.ndim != 2:
        raise ValueError("complement_sigma expects a 2-d batch of curvature vectors")
    m, n = k.shape
    if r == 0:
        return np.ones_like(k)
    if r > n - 1:
        return np.zeros_like(k)
    out = np.empty((m, n))
    idx = np.arange(n)
    for i in range(n):
        # the private table, so a traced sigma_table counts caller requests only
        out[:, i] = _sigma_table(np.ascontiguousarray(k[:, idx != i]))[:, r]
    return out
