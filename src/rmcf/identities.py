"""Identity battery run by the command line on a configured surface.

Each check returns (id, max_err, tol, pass). The ids are stable strings
the CLI reports and its exit code keys off.

The battery works on one ``MeshGeometry`` of the sampled points: every
check is a stacked expression over its rows, set against an oracle that
shares no formula with the path it checks (subset enumeration for sigma,
determinants for the characteristic polynomial, the polynomial form of
P_r for the recursion, closed forms for the operators). Each section that
needs random numbers draws them for all rows in one call, in the order of
the rows.
"""

import itertools

import numpy as np

from .charts import (
    distance_sq_to,
    distance_to,
    fd_jet_error,
    linear_height,
    mesh_geometry,
    richardson_slope,
    rowdot,
)
from .symfun import char_poly_eval, newton_polynomial


def _interior_sample(chart, rng, count):
    lo, hi = chart.param_domain[:, 0], chart.param_domain[:, 1]
    return lo + (hi - lo) * rng.uniform(0.15, 0.85, size=(count, chart.n))


def _enum_sigma(k, r):
    """sigma_r of each row of k (m, n) as the sum of its r-fold products of distinct entries."""
    if r == 0:
        return np.ones(len(k))
    acc = 0.0
    for c in itertools.combinations(range(k.shape[1]), r):
        prod = k[:, c[0]]
        for j in c[1:]:
            prod = prod * k[:, j]
        acc = acc + prod
    return acc


def _dots(a, b):
    """Row-wise dot products of (m, k) stacks, with the bits of the 1-d ``a[i] @ b[i]``."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _unit_rows(rng, m, dim):
    """m random unit vectors: one stacked normal draw, each row divided by its norm."""
    V = rng.standard_normal((m, dim))
    return V / np.sqrt(_dots(V, V))[:, None]


def run_identity_suite(chart, rng):
    """All symmetric-function and chart identities on one surface, at 24 sampled points.

    The distance checks measure from the origin. Returns a list of dicts
    {id, max_err, tol, pass}, ordered so the first failure is the headline.
    """
    n = chart.n
    origin = np.zeros(n + 1)
    pts = _interior_sample(chart, rng, 24)
    mg = mesh_geometry(chart, pts)
    m = len(mg)
    results = []

    def record(cid, err, tol):
        results.append(
            {"id": cid, "max_err": float(err), "tol": float(tol), "pass": bool(err <= tol)}
        )

    # normals
    err_unit = float(np.max(np.abs(np.sqrt(rowdot(mg.N, mg.N)) - 1.0)))
    record("unit-normal", err_unit, 1e-12)
    err_orth = float(np.max(np.abs(np.matmul(np.swapaxes(mg.dX, 1, 2), mg.N[:, :, None]))))
    record("normal-orthogonal", err_orth, 1e-9)

    # analytic jet against central differences (Richardson order); the step
    # stays large enough that truncation dominates interpolation floors of
    # dense-output-backed charts
    worst_slope = np.inf
    ext = float(np.min(chart.param_domain[:, 1] - chart.param_domain[:, 0]))
    h = 3e-2 * min(ext, 1.0)
    (e1a, e1b), (e2a, e2b) = (e.tolist() for e in fd_jet_error(chart, pts[:6], (h, h / 2)))
    for i in range(len(e1a)):
        if e1b[i] > 1e-8:
            worst_slope = min(worst_slope, richardson_slope(e1a[i], e1b[i]))
        if e2b[i] > 1e-7:
            worst_slope = min(worst_slope, richardson_slope(e2a[i], e2b[i]))
    # report the order deficit so that 0 err means clean second order
    deficit = max(0.0, 1.9 - worst_slope) if np.isfinite(worst_slope) else 0.0
    record("fd-consistency", deficit, 0.0)

    # symmetric-function identities on the sampled shape operators
    err = max(float(np.max(np.abs(mg.sigma[:, r] - _enum_sigma(mg.k, r)))) for r in range(n + 1))
    record("sigma-eigencheck", err, 1e-9)

    scale = np.maximum(1.0, np.max(np.abs(mg.A), axis=(1, 2))) ** n
    t = rng.uniform(-2.0, 2.0, size=(m, 4))
    det = np.linalg.det(mg.A[:, None] - t[:, :, None, None] * np.eye(n))
    err = np.max(np.abs(char_poly_eval(mg.sigma, t) - det) / scale[:, None])
    record("char-poly", err, 1e-8)

    err_pol = 0.0
    err_comm = 0.0
    for r in range(n + 1):
        P = mg.newton(r)
        err_pol = max(err_pol, float(np.max(np.abs(P - newton_polynomial(mg.A, mg.sigma, r)))))
        err_comm = max(err_comm, float(np.max(np.abs(mg.A @ P - P @ mg.A))))
    record("newton-poly-vs-recursion", err_pol, 1e-10)
    record("newton-commutes", err_comm, 1e-10)

    record("cayley-hamilton", np.max(np.abs(mg.newton(n))), 1e-9)

    err = 0.0
    for r in range(1, n + 1):
        P = mg.newton(r - 1)
        trP = np.trace(P, axis1=1, axis2=2)
        trAP = np.trace(mg.A @ P, axis1=1, axis2=2)
        want_trP = (n - r + 1) * mg.sigma[:, r - 1]
        want_trAP = r * mg.sigma[:, r]
        scale = 1.0 + np.abs(want_trP) + np.abs(want_trAP)
        err = max(err, float(np.max(np.maximum(np.abs(trP - want_trP) / scale,
                                                np.abs(trAP - want_trAP) / scale))))
    record("trace-identities", err, 1e-9)

    # the recursion's P_0 is the identity
    err = np.max(np.abs(mg.newton(0) - np.eye(n)))
    record("newton-p0-identity", err, 1e-12)

    # operator identities; the height and gradient checks draw a direction per point
    V = _unit_rows(rng, m, n + 1)
    fV = linear_height(V)
    err = 0.0
    for r in range(1, n + 1):
        want = r * mg.sigma[:, r] * _dots(mg.N, V)
        err = max(err, float(np.max(np.abs(mg.L_operator(fV, r) - want) / (1.0 + mg.normA**2))))
    record("operator-height", err, 1e-7)

    y = mg.X - origin
    yy = rowdot(y, y)
    err = 0.0
    for r in range(1, n + 1):
        got = mg.L_operator(distance_sq_to(origin), r)
        want = 2 * (n - r + 1) * mg.sigma[:, r - 1] + 2 * r * mg.sigma[:, r] * rowdot(mg.N, y)
        err = max(err, float(np.max(np.abs(got - want) / ((1.0 + mg.normA**2) * (1.0 + yy)))))
    record("operator-distsq", err, 1e-7)

    W = _unit_rows(rng, m, n + 1)
    grads = mg.frame_gradient(linear_height(W))
    gn = np.sqrt(_dots(grads, grads))
    err = np.max(np.abs(gn**2 + _dots(mg.N, W) ** 2 - 1.0))
    record("grad-pythagoras", err, 1e-10)

    dist = distance_to(origin)
    grads = mg.take(np.sqrt(yy) >= 1e-6).frame_gradient(dist)
    err = float(np.max(np.sqrt(rowdot(grads, grads)) - 1.0, initial=0.0))
    record("distance-gradient-bound", err, 1e-12)

    far = mg.take(np.sqrt(yy) >= 1e-3)
    err = 0.0
    for r in range(1, n + 1):
        diff = far.L_distance(r, origin) - far.L_operator(dist, r)
        err = max(err, float(np.max(np.abs(diff), initial=0.0)))
    record("L-distance-closedform", err, 1e-6)

    flipped = mesh_geometry(chart.flipped(), pts[:8])
    signs = (-1.0) ** np.arange(n + 1)
    err = float(np.max(np.abs(flipped.sigma - signs * mg.sigma[:8])[:, 1:]))
    record("orientation-flip", err, 1e-10)

    return results
