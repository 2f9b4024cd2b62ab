"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Mesh-based limsup checks in the gate reports are labeled empirical: the
noncompact statements themselves are not reproducible at desk scale, and
this property-based shadow substitutes for them.
"""

import contextlib
import itertools
import math
import time

import numpy as np

from rmcf.charts import (
    Mesh,
    linear_height,
    paraboloid_chart,
    point_geometry,
    sphere_chart,
)
from rmcf.maxprinciple import (
    GFunction,
    hypothesis_gate,
    oy_sequence,
)
from rmcf.regions import (
    BiHalfspace,
    Cone,
    Halfspace,
    ambient_cylinder_hessian,
    cylinder_distance,
    cylinder_hessian_frame,
    first_exit,
)
from rmcf.symfun import SymMatrix, char_poly_eval, newton_transform
from rmcf.translators import (
    asymptotic_fit,
    bowl_drift,
    grim_reaper_chart,
    rot_chart,
    solve_rotational_translator,
)
from conftest import MESH_COUNTS, TRANSLATOR_ORDERS
import g_quadrature
from scalar_api import (
    newton_polynomial,
    refined,
    soliton_residual,
    trace_identities,
)


@contextlib.contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] {name}: FAIL")
        raise
    else:
        print(f"[ACCEPTANCE] {name}: PASS")


def standard_charts():
    """The five registered charts the identity batteries run on."""
    bowl = solve_rotational_translator(2, 1, R_max=60.0, tol=1e-10)
    rbowl = solve_rotational_translator(3, 2, R_max=60.0, tol=1e-10)
    return [
        sphere_chart(2),
        paraboloid_chart(3, curvature=0.8),
        grim_reaper_chart(2, t_halfwidth=20.0),
        rot_chart(bowl),
        rot_chart(rbowl),
    ]


def test_algebraic_identity_suite():
    with criterion("algebraic-identity-suite"):
        rng = np.random.default_rng(2024)
        t0 = time.perf_counter()
        for n in range(2, 9):
            for _ in range(1000):
                a = rng.standard_normal((n, n))
                a = 0.5 * (a + a.T)
                rho = max(float(np.max(np.abs(np.linalg.eigvalsh(a)))), 1e-9)
                a *= 2.0 * rng.uniform(0.25, 1.0) / rho  # spectral radius <= 2
                A = SymMatrix(a)

                ts = rng.uniform(-2.0, 2.0, size=10)
                dets = np.linalg.det(a - ts[:, None, None] * np.eye(n))
                # one stacked Horner call for A's ten points keeps the oracle inside the gate
                polys = char_poly_eval(A.sigma_table()[None], ts[None])[0]
                for poly, det in zip(polys, dets):
                    assert abs(poly - det) <= 1e-8 * max(1.0, abs(det))

                r = int(rng.integers(0, n + 1))
                diff = newton_transform(A, r).entries - newton_polynomial(A, r).entries
                assert np.max(np.abs(diff)) <= 1e-10

                rr = int(rng.integers(1, n + 1))
                trP, trAP = trace_identities(A, rr)
                vals = np.linalg.eigvalsh(a)
                sig = [
                    float(sum(math.prod(c) for c in itertools.combinations(vals, k)))
                    if k else 1.0
                    for k in range(n + 1)
                ]
                want_trP = (n - rr + 1) * sig[rr - 1]
                want_trAP = rr * sig[rr]
                assert abs(trP - want_trP) <= 1e-9 * (1.0 + abs(want_trP))
                assert abs(trAP - want_trAP) <= 1e-9 * (1.0 + abs(want_trAP))

                pn = newton_transform(A, n)
                assert np.max(np.abs(pn.entries)) <= 1e-9
        elapsed = time.perf_counter() - t0
        print(f"  7000 matrices checked in {elapsed:.2f}s")
        assert elapsed < 10.0


def test_translator_residuals():
    with criterion("translator-residuals"):
        t0 = time.perf_counter()
        ch = grim_reaper_chart(2, t_halfwidth=12.0)
        mesh = Mesh.grid(ch, (20, 10))
        V = np.array([0.0, 0.0, 1.0])
        worst = max(abs(soliton_residual(ch, u, V, 1)) for u in mesh.points)
        print(f"  grim reaper sup residual {worst:.3e}")
        assert worst < 1e-10

        for (n, r) in TRANSLATOR_ORDERS:
            prof = solve_rotational_translator(n, r, R_max=100.0, tol=1e-10)
            chart = rot_chart(prof)
            m = Mesh.grid(chart, MESH_COUNTS[n])
            assert len(m) == 200
            vel = np.zeros(n + 1)
            vel[n] = 1.0
            sup = max(abs(soliton_residual(chart, u, vel, r)) for u in m.points)
            print(f"  bowl n={n} r={r} sup residual {sup:.3e} over {len(m)} points")
            assert sup < 1e-6
        elapsed = time.perf_counter() - t0
        print(f"  total {elapsed:.2f}s")
        assert elapsed < 30.0


def test_bowl_asymptotics(profiles):
    with criterion("bowl-asymptotics"):
        for n in (2, 3, 4):
            prof = profiles[(n, 1)]
            fit = asymptotic_fit(prof, 50.0, 100.0)
            target = 1.0 / (2.0 * (n - 1))
            drift = bowl_drift(prof, 80.0, 100.0)
            print(
                f"  n={n}: coefficient {fit['leading']:.6f} (target {target:.6f}), "
                f"drift {drift:.2e}"
            )
            assert abs(fit["leading"] - target) < 1e-3
            assert abs(drift) < 1e-2


def test_angle_function_rbowl(profiles, translator_charts):
    with criterion("angle-function-rbowl"):
        radii = (10.0, 50.0, 100.0)
        for n, r in ((3, 2), (4, 2), (4, 3)):
            prof = profiles[(n, r)]
            c1, c2 = math.comb(n - 1, r), math.comb(n - 1, r - 1)
            th = {R: float(prof.theta(R)) for R in radii}
            print(
                f"  (n,r)=({n},{r}) "
                + " ".join(f"Theta({R:g})={th[R]:.6e}" for R in radii)
                + " Theta R^r/C(n-1,r): "
                + " ".join(f"{th[R] * R**r / c1:.10f}" for R in radii)
            )
            # sigma_r = <N, E_{n+1}> gives Theta = C(n-1,r) w^r + C(n-1,r-1) w^(r-1) kappa with
            # w = u'/(R sqrt(1+u'^2)) < 1/R, so u' ~ R^r/C(n-1,r) and Theta ~ C(n-1,r)/R^r -> 0.
            assert float(prof.theta(0.0)) == 1.0
            assert th[10.0] > th[50.0] > th[100.0], "angle function is not decreasing"
            chart = translator_charts[(n, r)]
            angles = chart.param_domain[1:].mean(axis=1)
            for R in radii:
                if R >= 50.0:
                    want = c1 * R**-r * (1.0 + r * c1 * (c2 - c1 / 2.0) * R ** (-2 * r))
                    assert abs(th[R] / want - 1.0) < 1e-8, (n, r, R, th[R], want)
                N = point_geometry(chart, np.concatenate(([R], angles))).N[0]
                assert abs(float(N[-1]) - th[R]) < 1e-12, (n, r, R, N[-1], th[R])
            assert math.sqrt(1.0 - th[100.0] ** 2) > 0.95


def test_operator_identities_on_registered_charts():
    with criterion("operator-identities"):
        rng = np.random.default_rng(77)
        for chart in standard_charts():
            lo, hi = chart.param_domain[:, 0], chart.param_domain[:, 1]
            worst = 0.0
            for _ in range(100):
                u = lo + (hi - lo) * rng.uniform(0.1, 0.9, size=chart.n)
                pg = point_geometry(chart, u)
                V = rng.standard_normal(chart.n + 1)
                V /= np.linalg.norm(V)
                tol = 1e-6 * (1.0 + pg.normA[0]**2)
                from rmcf.charts import L_operator, distance_sq_to

                fV = linear_height(V)
                fD = distance_sq_to(np.zeros(chart.n + 1))
                for r in range(1, chart.n + 1):
                    got = L_operator(chart, fV, u, r)
                    want = r * pg.sigma_r(r)[0] * float(pg.N[0] @ V)
                    assert abs(got - want) < tol
                    worst = max(worst, abs(got - want) / tol)
                    got2 = L_operator(chart, fD, u, r)
                    want2 = 2 * (chart.n - r + 1) * pg.sigma_r(r - 1)[0] + 2 * r * pg.sigma_r(
                        r
                    )[0] * float(pg.N[0] @ pg.X[0])
                    scale2 = tol * (1.0 + float(pg.X[0] @ pg.X[0]))
                    assert abs(got2 - want2) < scale2
                    worst = max(worst, abs(got2 - want2) / scale2)
            print(f"  {chart.name}: worst normalized error {worst:.3e}")


def test_cylinder_distance_machinery():
    with criterion("cylinder-distance-machinery"):
        rng = np.random.default_rng(5150)
        R, a = 1.0, 0.6

        # spectrum {1/d, 0 x n}
        for _ in range(200):
            X = rng.normal(scale=4.0, size=5)
            d = cylinder_distance(R, a, X)
            if d < 0.2:
                continue
            H = ambient_cylinder_hessian(R, a, X)
            eig = np.sort(np.linalg.eigvalsh(H))
            assert abs(eig[-1] - 1.0 / d) < 1e-12
            assert np.max(np.abs(eig[:-1])) < 1e-12

        # O(h^2) reconstruction against central differences
        X = np.array([3.1, 1.3, 0.2, -0.4])
        H = ambient_cylinder_hessian(R, a, X)

        def fd_err(h):
            m = X.size
            worst = 0.0
            for i in range(m):
                ei = np.zeros(m); ei[i] = h
                dii = (
                    cylinder_distance(R, a, X + ei)
                    - 2 * cylinder_distance(R, a, X)
                    + cylinder_distance(R, a, X - ei)
                ) / h**2
                worst = max(worst, abs(dii - H[i, i]))
                for j in range(i + 1, m):
                    ej = np.zeros(m); ej[j] = h
                    dij = (
                        cylinder_distance(R, a, X + ei + ej)
                        - cylinder_distance(R, a, X + ei - ej)
                        - cylinder_distance(R, a, X - ei + ej)
                        + cylinder_distance(R, a, X - ei - ej)
                    ) / (4 * h**2)
                    worst = max(worst, abs(dij - H[i, j]))
            return worst

        slope = math.log2(fd_err(2e-2) / fd_err(1e-2))
        print(f"  reconstruction Richardson slope {slope:.3f}")
        assert slope >= 1.9

        # the two-sided normal inequality with 1e-12 slack on 1e4 points
        worst_slack = np.inf
        count = 0
        while count < 10000:
            X = rng.normal(scale=4.0, size=5)
            if cylinder_distance(R, a, X) < 1e-6:
                continue
            count += 1
            _, g, _ = cylinder_hessian_frame(R, a, X)
            N = rng.normal(size=5)
            N /= np.linalg.norm(N)
            lhs = N[-1] ** 2
            for s in (1.0, -1.0):
                worst_slack = min(worst_slack, 2.0 * (1.0 + s * float(N @ g)) - lhs)
        print(f"  inequality slack minimum {worst_slack:.3e} over 10^4 points")
        assert worst_slack >= -1e-12


def test_growth_comparison_closed_form():
    with criterion("growth-comparison-closed-form"):
        G = GFunction.iterated_log(1)
        worst = 0.0
        for rho in np.geomspace(10.0, 1000.0, 25):
            gamma = rho * rho
            got = g_quadrature.p_bound(G, gamma)
            want = 2.0 * rho**2 * math.log(rho) * math.log(math.log(rho))
            rel = abs(got - want) / want
            worst = max(worst, rel)
        print(f"  worst relative quadrature error {worst:.3e}")
        assert worst < 1e-6


def _halfspace_directions(dim):
    """20 deterministic directions with positive vertical component."""
    out = []
    for c in (0.1, 0.3, 0.5, 0.7, 0.9):
        s = math.sqrt(1.0 - c * c)
        for phi in (0.0, 0.5 * math.pi, math.pi, 1.5 * math.pi):
            w = np.zeros(dim)
            w[0] = s * math.cos(phi)
            w[1] = s * math.sin(phi)
            w[-1] = c
            out.append(w)
    return out


def test_theorem_consistency_battery(translator_charts, translator_meshes):
    with criterion("theorem-consistency-battery"):
        t0 = time.perf_counter()
        checked = 0
        for key, chart in translator_charts.items():
            mesh = translator_meshes[key]
            dim = chart.n + 1
            vel = np.zeros(dim)
            vel[-1] = 1.0

            for a in np.arange(0.1, 0.95, 0.1):
                res = first_exit(Cone(V=vel, a=float(a)), mesh)
                assert res.found, f"{key}: contained in cone complement a={a:.1f}"
                checked += 1

            for w in _halfspace_directions(dim):
                res = first_exit(Halfspace(B=np.zeros(dim), W=w), mesh)
                assert res.found, f"{key}: contained in half-space {w}"
                checked += 1

            for a in (0.2, 0.35, 0.5, 0.65, 0.8):
                b = math.sqrt(1.0 - a * a)
                w1 = np.zeros(dim); w1[0] = a; w1[1] = b
                w2 = np.zeros(dim); w2[0] = a; w2[1] = -b
                reg = BiHalfspace(
                    Halfspace(np.zeros(dim), w1),
                    Halfspace(np.zeros(dim), w2),
                    vertical_to=vel,
                )
                res = first_exit(reg, mesh)
                assert res.found, f"{key}: contained in bi-half-space a={a}"
                checked += 1
        elapsed = time.perf_counter() - t0
        print(f"  {checked} translator/region pairs, all with witnesses, {elapsed:.1f}s")
        assert checked == len(translator_charts) * (9 + 20 + 5)
        assert elapsed < 120.0


def test_oy_mechanics_and_gate_labels(translator_meshes):
    with criterion("oy-mechanics"):
        from rmcf.charts import AmbientField, sphere_chart

        ch = sphere_chart(2)
        u = linear_height(np.array([0.0, 0.0, 1.0]))
        e3 = np.array([0.0, 0.0, 1.0])
        gamma = AmbientField(
            lambda X: 2.0 - X @ e3, lambda X: -e3, lambda X: np.zeros((3, 3))
        )
        G = GFunction.iterated_log(1)
        coarse = Mesh.grid(ch, 25)
        run = oy_sequence(coarse, u, gamma, G, k_max=8)
        assert not run.boundary_dominated
        for i in run.idx:
            assert np.linalg.norm(coarse.points[i]) < 1e-12  # the pole sample
        assert np.all(run.grad_norms <= run.mesh_tol)
        fine = refined(coarse, 2)
        run_f = oy_sequence(fine, u, gamma, G, k_max=8)
        shift = float(np.max(np.abs(run.u_values - run_f.u_values)))
        print(f"  refinement shift {shift:.3e} vs mesh_tol {run.mesh_tol:.3e}")
        assert shift <= run.mesh_tol

        # gate labels every limsup check as empirical
        key = (2, 1)
        gate = hypothesis_gate(
            translator_meshes[key], Cone(V=[0.0, 0.0, 1.0], a=0.5), {"r": 1, "V": [0.0, 0.0, 1.0]}
        )
        growth_premises = [p for p in gate.premises if p["id"].startswith("growth")]
        assert growth_premises
        assert all(p["empirical"] for p in growth_premises)
        assert gate.consistent is True
        print("  growth premises labeled empirical; gate consistent")
