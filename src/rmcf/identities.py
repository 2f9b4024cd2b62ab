"""Identity battery run by the command line on a configured surface.

Each check returns (id, max_err, tol, pass). The ids are stable strings
the CLI reports and its exit code keys off.
"""

import itertools

import numpy as np

from .charts import (
    L_operator,
    distance_sq_to,
    distance_to,
    fd_jet_error,
    gradient_norm,
    linear_height,
    mesh_geometry,
    richardson_slope,
    rowdot,
)
from .symfun import (
    char_poly_eval,
    min_eigen_Pr,
    newton_polynomial,
    newton_transform,
    trace_identities,
)


def _interior_sample(chart, rng, count):
    lo, hi = chart.param_domain[:, 0], chart.param_domain[:, 1]
    return lo + (hi - lo) * rng.uniform(0.15, 0.85, size=(count, chart.n))


def _enum_sigma(vals, r):
    if r == 0:
        return 1.0
    return float(sum(np.prod(c) for c in itertools.combinations(vals, r)))


def run_identity_suite(chart, rng, sample_count=24, origin=None):
    """All symmetric-function and chart identities on one surface.

    Returns a list of dicts {id, max_err, tol, pass}, ordered so the
    first failure is the headline.
    """
    n = chart.n
    origin = np.zeros(n + 1) if origin is None else np.asarray(origin, dtype=float)
    pts = _interior_sample(chart, rng, sample_count)
    mg = mesh_geometry(chart, pts)
    geos = list(mg)
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
    for u in pts[: min(6, len(pts))]:
        e1a, e2a = fd_jet_error(chart, u, h)
        e1b, e2b = fd_jet_error(chart, u, h / 2)
        if e1b > 1e-8:
            worst_slope = min(worst_slope, richardson_slope(e1a, e1b))
        if e2b > 1e-7:
            worst_slope = min(worst_slope, richardson_slope(e2a, e2b))
    # report the order deficit so that 0 err means clean second order
    deficit = max(0.0, 1.9 - worst_slope) if np.isfinite(worst_slope) else 0.0
    record("fd-consistency", deficit, 0.0)

    # symmetric-function identities on the sampled shape operators
    err = 0.0
    for pg in geos:
        vals = pg.A.eigenvalues()
        for r in range(n + 1):
            err = max(err, abs(pg.sigma_r(r) - _enum_sigma(vals, r)))
    record("sigma-eigencheck", err, 1e-9)

    err = 0.0
    for pg in geos:
        scale = max(1.0, float(np.max(np.abs(pg.A.entries)))) ** n
        for t in rng.uniform(-2.0, 2.0, size=4):
            det = float(np.linalg.det(pg.A.entries - t * np.eye(n)))
            err = max(err, abs(char_poly_eval(pg.A, float(t)) - det) / scale)
    record("char-poly", err, 1e-8)

    err_pol = 0.0
    err_comm = 0.0
    for pg in geos:
        for r in range(n + 1):
            P = newton_transform(pg.A, r)
            err_pol = max(
                err_pol,
                float(np.max(np.abs(P.entries - newton_polynomial(pg.A, r).entries))),
            )
            err_comm = max(
                err_comm,
                float(np.max(np.abs(pg.A.entries @ P.entries - P.entries @ pg.A.entries))),
            )
    record("newton-poly-vs-recursion", err_pol, 1e-10)
    record("newton-commutes", err_comm, 1e-10)

    err = max(
        float(np.max(np.abs(newton_transform(pg.A, n).entries))) for pg in geos
    )
    record("cayley-hamilton", err, 1e-9)

    err = 0.0
    for pg in geos:
        for r in range(1, n + 1):
            trP, trAP = trace_identities(pg.A, r)
            want_trP = (n - r + 1) * pg.sigma_r(r - 1)
            want_trAP = r * pg.sigma_r(r)
            scale = 1.0 + abs(want_trP) + abs(want_trAP)
            err = max(err, abs(trP - want_trP) / scale, abs(trAP - want_trAP) / scale)
    record("trace-identities", err, 1e-9)

    err = max(abs(min_eigen_Pr(pg.A, 0) - 1.0) for pg in geos)
    record("newton-p0-identity", err, 1e-12)  # P_0 = I has min eigenvalue 1

    # operator identities; the height and gradient checks draw a direction per point
    err = 0.0
    for u, pg in zip(pts, geos):
        V = rng.standard_normal(n + 1)
        V /= np.linalg.norm(V)
        fV = linear_height(V)
        for r in range(1, n + 1):
            got = L_operator(chart, fV, u, r, pg=pg)
            want = r * pg.sigma_r(r) * float(pg.N @ V)
            err = max(err, abs(got - want) / (1.0 + pg.normA**2))
    record("operator-height", err, 1e-7)

    y = mg.X - origin
    yy = rowdot(y, y)
    err = 0.0
    for r in range(1, n + 1):
        got = mg.L_operator(distance_sq_to(origin), r)
        want = 2 * (n - r + 1) * mg.sigma[:, r - 1] + 2 * r * mg.sigma[:, r] * rowdot(mg.N, y)
        err = max(err, float(np.max(np.abs(got - want) / ((1.0 + mg.normA**2) * (1.0 + yy)))))
    record("operator-distsq", err, 1e-7)

    err = 0.0
    for u, pg in zip(pts, geos):
        W = rng.standard_normal(n + 1)
        W /= np.linalg.norm(W)
        gn = gradient_norm(chart, linear_height(W), u, pg=pg)
        err = max(err, abs(gn**2 + float(pg.N @ W) ** 2 - 1.0))
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
