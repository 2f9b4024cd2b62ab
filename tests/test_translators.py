"""Tests for the explicit translator constructions and their asymptotics."""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from rmcf.charts import Mesh, point_geometry, soliton_residual
from rmcf.errors import (
    DegenerateODEError,
    DomainError,
    InvalidInputError,
    NumericalError,
)
from rmcf.translators import (
    asymptotic_fit,
    bowl_drift,
    domain_radius,
    export_profile,
    grim_reaper_chart,
    load_profile,
    rot_chart,
    rot_ode_rhs,
    solve_rotational_translator,
    vertex_curvature,
    vertex_series_coeffs,
)


@pytest.fixture(scope="module")
def bowl21():
    return solve_rotational_translator(2, 1, R_max=100.0, tol=1e-10)


@pytest.fixture(scope="module")
def rbowl32():
    return solve_rotational_translator(3, 2, R_max=100.0, tol=1e-10)


class TestVertexData:
    def test_umbilic_curvature(self):
        assert vertex_curvature(2, 1) == pytest.approx(0.5)
        assert vertex_curvature(3, 2) == pytest.approx(3 ** (-0.5))
        assert vertex_curvature(4, 3) == pytest.approx(4 ** (-1 / 3))

    def test_series_matches_grim_reaper(self):
        # -log cos R = R^2/2 + R^4/12 + O(R^6)
        k0, a4 = vertex_series_coeffs(1, 1)
        assert k0 == pytest.approx(1.0)
        assert a4 == pytest.approx(1.0 / 12.0)

    def test_series_matches_bowl(self):
        # classical bowl quartic coefficient 1/(4 n^3 (n+2))
        for n in (2, 3, 4):
            _, a4 = vertex_series_coeffs(n, 1)
            assert a4 == pytest.approx(1.0 / (4 * n**3 * (n + 2)))

    def test_series_solves_ode_to_quartic_order(self):
        # residual of the two-term series under the profile equation is O(R^3)
        for (n, r) in [(3, 2), (4, 3)]:
            k0, a4 = vertex_series_coeffs(n, r)
            errs = []
            for R in (1e-2, 5e-3):
                up = k0 * R + 4 * a4 * R**3
                upp_series = k0 + 12 * a4 * R**2
                errs.append(abs(rot_ode_rhs(n, r, R, up) - upp_series))
            assert errs[0] < 5e-6
            assert errs[1] < errs[0] / 4  # at least quadratic decay


class TestRotOdeRhs:
    def test_bowl_rhs_at_flat_state(self):
        assert rot_ode_rhs(2, 1, 1.0, 0.0) == pytest.approx(1.0)
        assert rot_ode_rhs(5, 1, 1.0, 0.0) == pytest.approx(1.0)

    def test_bowl_asymptotic_second_derivative(self):
        # along u' = R/(n-1) - 1/R the bowl equation gives u'' -> 1/(n-1)
        n = 3
        R = 1e4
        up = R / (n - 1) - 1.0 / R
        assert rot_ode_rhs(n, 1, R, up) == pytest.approx(1.0 / (n - 1), rel=1e-3)

    def test_umbilic_vertex_condition(self):
        # at the vertex limit w = kappa = k0, sigma_r = C(n,r) k0^r = 1
        for (n, r) in [(2, 1), (3, 2), (4, 2), (4, 3)]:
            k0 = vertex_curvature(n, r)
            c = math.comb(n, r)
            assert c * k0**r == pytest.approx(1.0, abs=1e-13)

    def test_degenerate_for_higher_order(self):
        with pytest.raises(DegenerateODEError):
            rot_ode_rhs(3, 2, 1.0, 0.0)

    def test_r1_never_degenerate(self):
        assert np.isfinite(rot_ode_rhs(4, 1, 2.0, 0.0))

    def test_validation(self):
        with pytest.raises(DomainError):
            rot_ode_rhs(2, 1, 0.0, 0.1)
        with pytest.raises(InvalidInputError):
            rot_ode_rhs(2, 3, 1.0, 0.1)


class TestSolve:
    def test_profile_invariants(self, bowl21):
        p = bowl21
        assert p.grid[0] == 0.0
        assert np.all(np.diff(p.grid) > 0)
        assert p.u[0] == 0.0 and p.up[0] == 0.0
        assert np.all(p.up >= 0.0)
        assert np.all(np.diff(p.u) >= 0.0)

    def test_grid_residual(self, bowl21, rbowl32):
        # grid radii from R = 0.01, the inner edge of rot_chart's default
        # domain, to R_max - h, so the centered difference stays inside
        def worst(p, h=1e-4):
            grid = p.grid[(p.grid >= 1e-2) & (p.grid <= p.R_max - h)]
            return max(abs(p.fd_residual(R, h)) for R in grid)

        for p in (bowl21, rbowl32):
            assert worst(p) < 1e-7
        # the bound catches a loose solve
        assert worst(solve_rotational_translator(3, 2, R_max=100.0, tol=1e-6)) > 1e-6

    def test_tolerance_ordering(self):
        # halving tol improves the fd residual across three decades
        grid = np.linspace(1.0, 45.0, 12)
        sups = []
        for tol in (1e-6, 1e-8, 1e-10):
            p = solve_rotational_translator(3, 2, R_max=50.0, tol=tol)
            sups.append(max(abs(p.fd_residual(R)) for R in grid))
        assert sups[0] > sups[1] > sups[2]

    def test_grim_reaper_limit(self):
        p = solve_rotational_translator(1, 1, R_max=1.45, tol=1e-11)
        R = np.linspace(0.0, 1.4, 300)
        diff = np.abs(np.asarray(p.eval_u(R)) + np.log(np.cos(R)))
        assert diff.max() < 1e-8

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            solve_rotational_translator(2, 1, tol=1e-5)
        with pytest.raises(InvalidInputError):
            solve_rotational_translator(2, 1, tol=1e-13)
        with pytest.raises(InvalidInputError):
            solve_rotational_translator(2, 1, R_max=2e4)

    def test_domain_guard(self, bowl21):
        with pytest.raises(DomainError):
            bowl21.eval_u(101.0)
        with pytest.raises(DomainError):
            bowl21.eval_u(-0.5)


class TestBoundedDomain:
    # R_*^n = n int_0^{pi/2} sin^{n-1}, with the Wallis integrals written out
    EXACT = {
        1: math.pi / 2,
        2: math.sqrt(2.0),
        3: (3.0 * math.pi / 4.0) ** (1.0 / 3.0),
        4: (4.0 * 2.0 / 3.0) ** 0.25,
    }

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_radius_closed_form(self, n):
        assert domain_radius(n, n) == pytest.approx(self.EXACT[n], rel=1e-15)
        for r in range(1, n):
            assert domain_radius(n, r) == math.inf

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rejects_radius_past_the_domain(self, n):
        R_star = domain_radius(n, n)
        for R_max in (R_star, 2.0 * R_star):
            t0 = time.perf_counter()
            with pytest.raises(DomainError, match=f"R_\\* = {R_star:.6f}"):
                solve_rotational_translator(n, n, R_max=R_max)
            assert time.perf_counter() - t0 < 0.1

    # int_0^phi sin^{n-1} in closed form
    SINE_INTEGRAL = {
        2: lambda phi: 1.0 - math.cos(phi),
        3: lambda phi: 0.5 * (phi - math.sin(phi) * math.cos(phi)),
    }

    @pytest.mark.parametrize("n", [2, 3])
    def test_angle_function_matches_meridian_oracle(self, n):
        # int_0^phi sin^{n-1} = R^n / n fixes the meridian angle; Theta = cos phi
        p = solve_rotational_translator(n, n, R_max=1.3, tol=1e-10)
        R = np.linspace(0.0, 1.3, 27)
        F = self.SINE_INTEGRAL[n]
        want = [
            math.cos(brentq(lambda phi: F(phi) - x**n / n, 0.0, math.pi / 2, xtol=1e-15))
            for x in R
        ]
        err = np.abs(np.asarray(p.theta(R)) - want)
        print(f"(n, r) = ({n}, {n}): max |Theta - cos phi| = {err.max():.2e}")
        assert err.max() < 1e-9


class TestAsymptotics:
    def test_bowl_leading_coefficient(self):
        for n in (2, 3, 4):
            p = solve_rotational_translator(n, 1, R_max=100.0, tol=1e-10)
            fit = asymptotic_fit(p, 50.0, 100.0)
            assert abs(fit["leading"] - 1.0 / (2 * (n - 1))) < 1e-3
            assert fit["log_coef"] == pytest.approx(-1.0, abs=0.1)

    def test_bowl_drift_and_derivative(self):
        for n in (2, 3, 4):
            p = solve_rotational_translator(n, 1, R_max=100.0, tol=1e-10)
            assert abs(bowl_drift(p, 80.0, 100.0)) < 1e-2
            # d/dR [u - R^2/(2(n-1)) + log R] -> 0; below 1e-3 at R = 100
            dd = p.eval_up(100.0) - 100.0 / (n - 1) + 1.0 / 100.0
            assert abs(dd) < 1e-3

    def test_theta_limit_exists(self, rbowl32):
        # Theta decreases to a limit; the empirical limit is 0, not in (0, 1]
        th = [float(rbowl32.theta(R)) for R in (10.0, 50.0, 100.0)]
        assert th[0] > th[1] > th[2]
        assert th[2] < 1e-3

    def test_drift_guard(self, rbowl32):
        with pytest.raises(DomainError):
            bowl_drift(rbowl32)


class TestRotChart:
    def test_residual_self_consistency(self, bowl21, rbowl32):
        for p, counts in ((bowl21, (20, 10)), (rbowl32, (8, 5, 5))):
            ch = rot_chart(p)
            mesh = Mesh.grid(ch, counts)
            V = np.zeros(p.n + 1)
            V[p.n] = 1.0
            worst = max(abs(soliton_residual(ch, u, V, p.r)) for u in mesh.points)
            assert worst < 1e-6

    def test_vertex_curvatures(self, rbowl32):
        ch = rot_chart(rbowl32, R_lo=5e-3)
        pg = point_geometry(ch, [5.5e-3, 1.0, 1.0])
        k0 = vertex_curvature(3, 2)
        assert np.allclose(pg.A.eigenvalues(), k0, atol=1e-4)

    def test_sigma_r_positive(self, rbowl32):
        ch = rot_chart(rbowl32)
        mesh = Mesh.grid(ch, (10, 4, 4))
        for pg in mesh.geometry():
            assert pg.sigma_r(2) > 0.0

    def test_curve_chart_n1(self):
        p = solve_rotational_translator(1, 1, R_max=1.4, tol=1e-10)
        ch = rot_chart(p)
        pg = point_geometry(ch, [0.7])
        assert pg.sigma_r(1) == pytest.approx(math.cos(0.7), abs=1e-8)

    def test_outside_radius(self, bowl21):
        ch = rot_chart(bowl21)
        with pytest.raises(DomainError):
            point_geometry(ch, [200.0, 1.0])


class TestGrimReaper:
    def test_tip_values(self):
        ch = grim_reaper_chart(2)
        pg = point_geometry(ch, [0.0, 0.0])
        assert pg.sigma_r(1) == pytest.approx(1.0, abs=1e-14)
        ks = np.sort(pg.A.eigenvalues())
        assert np.allclose(ks, [0.0, 1.0], atol=1e-14)
        assert float(pg.N[2]) == pytest.approx(1.0, abs=1e-14)

    def test_asymptote_angle(self):
        ch = grim_reaper_chart(1, eta=1e-3)
        pg = point_geometry(ch, [math.pi / 2 - 1.1e-3])
        assert abs(float(pg.N[1])) < 2e-3  # angle function heads to zero

    def test_intrinsic_distance(self):
        ch = grim_reaper_chart(2)
        # pure cylinder direction: intrinsic = euclidean
        assert ch.intrinsic_distance([0.0, 7.0]) == pytest.approx(7.0)
        # curve direction: arclength of the graph of -log cos
        x = 1.2
        want = math.asinh(math.tan(x))
        assert ch.intrinsic_distance([x, 0.0]) == pytest.approx(want, rel=1e-12)


class TestExport:
    def test_round_trip_bit_exact(self, tmp_path, bowl21):
        csv = tmp_path / "p.csv"
        js = tmp_path / "p.json"
        export_profile(bowl21, csv, js)
        back = load_profile(csv, js)
        assert np.array_equal(back.grid, bowl21.grid)
        assert np.array_equal(back.u, bowl21.u)
        assert np.array_equal(back.up, bowl21.up)
        assert back.n == bowl21.n and back.r == bowl21.r
        assert back.meta["method"] == "RK45"

    def test_loaded_profile_has_no_dense_output(self, tmp_path, bowl21):
        csv = tmp_path / "p.csv"
        js = tmp_path / "p.json"
        export_profile(bowl21, csv, js)
        back = load_profile(csv, js)
        with pytest.raises(NumericalError):
            back.eval_u(1.0)
