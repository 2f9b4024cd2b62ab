"""Tests for the explicit translator constructions and their asymptotics."""

import json
import math
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import LSODA
from scipy.optimize import brentq

from rmcf import translators
from rmcf.charts import Mesh, point_geometry
from rmcf.cli import main
from rmcf.errors import (
    DegenerateODEError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StiffFailureError,
)
from rmcf.translators import (
    R_MAX_LIMIT,
    TABLE_PARTS,
    RotProfile,
    _upp,
    asymptotic_fit,
    bowl_drift,
    domain_radius,
    export_profile,
    grim_reaper_chart,
    load_profile,
    rot_chart,
    solve_rotational_translator,
    vertex_curvature,
    vertex_series_coeffs,
)

from lsoda_oracle import dense_upp, solve_ivp_oracle
from scalar_api import rot_ode_rhs, soliton_residual


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

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 3), (5, 4)])
    def test_slope_matches_centred_difference(self, n, r):
        # points where Theta - C(n-1, r) w^r keeps its digits, so the
        # difference quotient of u'' is a fair oracle for d u''/d u'
        c1, c2 = math.comb(n - 1, r), math.comb(n - 1, r - 1)
        for R in (0.3, 1.0, 2.5):
            for up in (0.2, 1.0, 3.0):
                slope = _upp(c1, c2, r, R, up, slope=True)[1]
                h = 1e-5 * up
                fd = (rot_ode_rhs(n, r, R, up + h) - rot_ode_rhs(n, r, R, up - h)) / (2 * h)
                assert abs(slope - fd) <= 1e-7 * abs(fd), (R, up, slope, fd)

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
            return np.max(np.abs(p.fd_residual(grid, h)))

        for p in (bowl21, rbowl32):
            assert worst(p) < 1e-7
        # the bound catches a loose solve
        assert worst(solve_rotational_translator(3, 2, R_max=100.0, tol=1e-6)) > 1e-6

    def test_fd_residual_array_is_per_radius(self, bowl21, rbowl32):
        # one dense-output call over R and R +- h gives each radius its own bits
        for p in (bowl21, rbowl32):
            R = np.linspace(0.05, 0.9 * p.R_max, 27)
            got = p.fd_residual(R)
            assert got.shape == R.shape
            assert [float(v) for v in got] == [float(p.fd_residual(x)) for x in R]
            one = p.fd_residual(1.0)
            assert np.ndim(one) == 0 and one == p.fd_residual(np.array([1.0]))[0]

    @pytest.mark.parametrize("shape", [(), (6,), (2, 3)])
    def test_theta_and_fd_residual_keep_the_shape_of_R(self, bowl21, rbowl32, shape):
        # theta is row 1 of one dense-output call, and fd_residual is the
        # flat call's residual, both in R's shape and bit for bit
        for p in (bowl21, rbowl32):
            R = np.linspace(0.05, 0.9 * p.R_max, 6)[: max(1, math.prod(shape))].reshape(shape)
            up = p._dense_rows(R.ravel())[1]
            theta = p.theta(R)
            assert np.shape(theta) == shape
            assert np.array_equal(np.ravel(theta), 1.0 / np.sqrt(1.0 + np.square(up)))
            res = p.fd_residual(R)
            assert np.shape(res) == shape
            assert np.array_equal(np.ravel(res), p.fd_residual(R.ravel()))

    @pytest.mark.parametrize("n, r, R_max", [(2, 1, 300.0), (3, 1, 300.0), (3, 2, 1e3),
                                             (4, 3, 1e3)])
    def test_every_order_runs_lsoda_on_the_jacobian(self, n, r, R_max):
        meta = solve_rotational_translator(n, r, R_max=R_max, tol=1e-10).meta
        assert meta["method"] == "LSODA"
        assert meta["njev"] > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_bowl_at_the_largest_radius(self, n):
        # RK45 did not finish R_max 1e4 in a minute; the r = 1 far field is stiff
        t0 = time.perf_counter()
        p = solve_rotational_translator(n, 1, R_max=R_MAX_LIMIT, tol=1e-10)
        fit = asymptotic_fit(p, 0.5 * R_MAX_LIMIT, R_MAX_LIMIT)
        assert time.perf_counter() - t0 < 5.0
        assert abs(fit["leading"] - 1.0 / (2 * (n - 1))) < 1e-6

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
        diff = np.abs(p._dense_rows(R)[0] + np.log(np.cos(R)))
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
            bowl21._dense_rows(101.0)
        with pytest.raises(DomainError):
            bowl21._dense_rows(-0.5)


class TestTable:
    """The exported table: integrator nodes plus equal dense-output parts per step."""

    @pytest.mark.parametrize("n, r, R_max", [(2, 1, 300.0), (3, 1, 300.0), (3, 2, 1e3),
                                             (2, 2, 1.3)])
    def test_rows_read_linearly(self, n, r, R_max):
        p = solve_rotational_translator(n, r, R_max=R_max, tol=1e-10)
        grid, u, up = p.grid, p.u, p.up
        h = R_max / TABLE_PARTS
        assert np.all(np.diff(grid) > 0)
        assert np.max(np.diff(grid)) <= h * (1 + 1e-12)
        assert grid.size >= p.meta["steps"] + 1
        # every integrator state is a row, bit for bit
        R_nodes, u_nodes, up_nodes = p._nodes
        rows = np.searchsorted(grid, R_nodes)
        assert np.array_equal(grid[rows], R_nodes)
        assert np.array_equal(u[rows], u_nodes) and np.array_equal(up[rows], up_nodes)
        # linear reads between rows: (h^2 / 8) max |u''|, plus the dense-output error
        upp = max(abs(rot_ode_rhs(n, r, R, v)) for R, v in zip(grid[1:], up[1:]))
        mid = 0.5 * (grid[1:] + grid[:-1])
        err = np.max(np.abs(np.interp(mid, grid, u) - p._dense_rows(mid)[0]))
        print(f"({n}, {r}, {R_max:g}): {grid.size} rows for {p.meta['steps']} steps, "
              f"midpoint read error {err:.2e}")
        assert err <= h * h / 8.0 * upp

    def test_chart_geometry_leaves_the_table_unbuilt(self):
        p = solve_rotational_translator(3, 2, R_max=1e3, tol=1e-9)
        Mesh.grid(rot_chart(p), (13, 5, 5)).geometry()
        assert p._table is None
        p.grid
        assert p._table is not None

    def test_theorem_check_never_reads_a_table(self, tmp_path, monkeypatch):
        def unread(self):
            raise AssertionError("the profile table was built")

        monkeypatch.setattr(RotProfile, "_rows", unread)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({
            "surface": {"kind": "bowl", "n": 3, "r": 2, "R_max": 1e3, "tol": 1e-9},
            "region": {"kind": "halfspace", "W": [0.6, 0.0, 0.0, 0.8]},
            "theorem": "halfspace", "r": 2, "V": [0.0, 0.0, 0.0, 1.0],
        }))
        assert main(["theorem-check", "--config", str(cfg), "--mesh", "5",
                     "--out", str(tmp_path)]) == 0


def oracle_rows(sol, p, R):
    """u, u', arclength and u'' (4, m) from the OdeSolution.

    The first three rows are its values, each radius evaluated twice; u''
    is the derivative of its interpolants (``dense_upp``).
    """
    R = np.asarray(R, dtype=float).ravel()
    out = np.empty((4, R.size))
    low = R < p.R_start
    x = R[low]
    out[:, low] = (0.5 * p.k0 * x**2 + p.a4 * x**4, p.k0 * x + 4.0 * p.a4 * x**3,
                   x + p.k0**2 * x**3 / 6.0, p.k0 + 12.0 * p.a4 * x**2)
    high = R[~low]
    if high.size:
        out[:3, ~low] = sol.sol(np.concatenate((high, high)))[:, : high.size]
        out[3, ~low] = dense_upp(sol, high)
    return out


def same_rows(got, want):
    """u, u' and arclength bit for bit; u'' to round-off."""
    return same_bits(got[:3], want[:3]) and np.allclose(got[3], want[3], rtol=1e-12, atol=0.0)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestNordsieckOracle:
    """The recorded Nordsieck arrays against solve_ivp's OdeSolution, bit for bit."""

    @pytest.mark.parametrize("n, r, R_max", [
        (2, 1, 300.0), (3, 1, 300.0), (3, 2, 1e3), (4, 3, 1e3), (2, 2, 1.3), (3, 3, 1.3),
        (3, 3, domain_radius(3, 3) * (1.0 - 1e-6)),  # next to the rim, u' ~ 4e5
    ])
    def test_table_and_counts(self, n, r, R_max):
        p = solve_rotational_translator(n, r, R_max=R_max, tol=1e-10)
        sol = solve_ivp_oracle(n, r, R_max)
        assert (p.meta["steps"], p.meta["nfev"], p.meta["njev"]) == (
            sol.t.size - 1, sol.nfev, sol.njev)
        for got, want in zip(p._nodes, (sol.t, sol.y[0], sol.y[1])):
            assert same_bits(got, np.concatenate(([0.0], want)))
        node = np.isin(p.grid, p._nodes[0])
        want = oracle_rows(sol, p, p.grid[~node])
        assert same_bits(p.u[~node], want[0]) and same_bits(p.up[~node], want[1])

    @pytest.mark.parametrize("n, r, R_max", [(2, 1, 300.0), (3, 2, 1e3), (2, 2, 1.3)])
    def test_dense_rows(self, n, r, R_max):
        p = solve_rotational_translator(n, r, R_max=R_max, tol=1e-10)
        sol = solve_ivp_oracle(n, r, R_max)
        rng = np.random.default_rng(5)
        cases = {
            "random": rng.uniform(0.0, R_max, 2000),
            "step nodes": sol.t,
            "below R_start": rng.uniform(0.0, p.R_start, 20),
            "R_max": np.array([R_max]),
        }
        for name, R in cases.items():
            assert same_rows(p._dense_rows(R), oracle_rows(sol, p, R)), name
        # a lone radius, a node among them, gets the oracle's rows and the bits of a batch
        lone = np.concatenate((cases["random"][:30], sol.t[::40], [R_max]))
        batch = p._dense_rows(lone)
        for i, R in enumerate(lone):
            got = p._dense_rows(R)
            assert same_rows(got, oracle_rows(sol, p, R)) and same_bits(got[:, 0], batch[:, i])

    def test_stalled_solve(self, monkeypatch):
        # the oracle's LSODA steps fail after 40 accepted steps, and so do
        # rmcf's calls of the LSODA routine, with istate -5
        step = LSODA._step_impl
        calls = []

        def failing(self):
            calls.append(None)
            return (False, "Unexpected istate in LSODA.") if len(calls) > 40 else step(self)

        monkeypatch.setattr(LSODA, "_step_impl", failing)
        sol = solve_ivp_oracle(2, 1, 10.0)
        assert sol.status == -1
        lsoda = translators._odepack_lsoda()
        calls.clear()

        def failing_lsoda(fun, y, t, *args):
            calls.append(None)
            return (y, t, -5) if len(calls) > 40 else lsoda(fun, y, t, *args)

        monkeypatch.setattr(translators, "_odepack_lsoda", lambda: failing_lsoda)
        with pytest.raises(StiffFailureError) as info:
            solve_rotational_translator(2, 1, R_max=10.0, tol=1e-10)
        assert str(info.value) == (
            f"integrator stalled at R={sol.t[-1]:.6g}: LSODA istate -5: "
            "repeated convergence failures (perhaps bad Jacobian or tolerances)"
        )
        assert info.value.last_good_R == sol.t[-1]

    def test_istate_meanings_are_scipys(self):
        from scipy.integrate._ode import lsoda

        assert translators._ISTATE_MEANING == {
            code: text[0].lower() + text[1:].rstrip(".")
            for code, text in lsoda.messages.items() if code < 0
        }

    def test_extension_loaded_first(self):
        # in a fresh process the solve loads ODEPACK's LSODA without the
        # scipy.integrate package; a later import of the package shares it,
        # and solve_ivp then gives rmcf's nodes and counts
        code = (
            "import sys\n"
            "from rmcf.translators import solve_rotational_translator\n"
            "p = solve_rotational_translator(3, 2, R_max=1e3, tol=1e-10)\n"
            "print([m for m in ('scipy.integrate', 'scipy.special', 'scipy.optimize')"
            " if m in sys.modules])\n"
            "odepack = sys.modules['scipy.integrate._odepack']\n"
            "import scipy.integrate\n"
            "print(sys.modules['scipy.integrate._odepack'] is odepack)\n"
            "import numpy as np\n"
            "from lsoda_oracle import solve_ivp_oracle\n"
            "sol = solve_ivp_oracle(3, 2, 1e3)\n"
            "print(all(got.tobytes() == np.concatenate(([0.0], want)).tobytes()"
            " for got, want in zip(p._nodes, (sol.t, sol.y[0], sol.y[1]))))\n"
            "print((p.meta['nfev'], p.meta['njev']) == (sol.nfev, sol.njev) and p.meta['nfev'] > 0)\n"
        )
        src = os.path.dirname(os.path.dirname(translators.__file__))
        path = os.pathsep.join(
            filter(None, (src, os.path.dirname(__file__), os.environ.get("PYTHONPATH")))
        )
        proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == ["[]", "True", "True", "True"]

    def test_nonfinite_solve(self, monkeypatch):
        # u'' turns NaN past R = 5
        upp = translators._upp

        def nan_past_5(c1, c2, r, R, up, slope=False):
            if R > 5.0:
                return (math.nan, math.nan) if slope else math.nan
            return upp(c1, c2, r, R, up, slope)

        monkeypatch.setattr(translators, "_upp", nan_past_5)
        sol = solve_ivp_oracle(2, 1, 10.0)
        finite = np.isfinite(sol.y).all(axis=0)
        assert not finite.all()
        with pytest.raises(DomainError, match=f"past R = {sol.t[np.argmin(finite) - 1]:.12g}, "):
            solve_rotational_translator(2, 1, R_max=10.0, tol=1e-10)


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

    # int_0^phi sin^{n-1} in closed form, with 1 - cos phi = 2 sin^2(phi/2)
    # so that the n = 2 and n = 4 forms keep their digits near the vertex
    SINE_INTEGRAL = {
        2: lambda phi: 2.0 * math.sin(0.5 * phi) ** 2,
        3: lambda phi: 0.5 * (phi - math.sin(phi) * math.cos(phi)),
        4: lambda phi: (2.0 * math.sin(0.5 * phi) ** 2) ** 2 * (2.0 + math.cos(phi)) / 3.0,
    }

    def meridian_theta(self, n, R):
        """Theta = cos phi at each radius, with int_0^phi sin^{n-1} = R^n / n."""
        F = self.SINE_INTEGRAL[n]
        return np.array([
            math.cos(brentq(lambda phi: F(phi) - x**n / n, 0.0, math.pi / 2, xtol=1e-15))
            for x in R
        ])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_angle_function_matches_meridian_oracle(self, n):
        # int_0^phi sin^{n-1} = R^n / n fixes the meridian angle; Theta = cos phi,
        # from the dense output and, as exported, 1/sqrt(1 + u'^2) on the grid
        R_max = min(1.3, 0.98 * domain_radius(n, n))
        p = solve_rotational_translator(n, n, R_max=R_max, tol=1e-10)
        R = np.linspace(0.0, R_max, 27)
        err = np.abs(np.asarray(p.theta(R)) - self.meridian_theta(n, R))
        grid_theta = 1.0 / np.sqrt(1.0 + np.square(p.up))
        grid_err = np.abs(grid_theta - self.meridian_theta(n, p.grid))
        print(f"(n, r) = ({n}, {n}): max |Theta - cos phi| = {err.max():.2e}, "
              f"{grid_err.max():.2e} on {p.grid.size} grid points")
        assert err.max() < 1e-9
        assert grid_err.max() < 1e-9

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_next_to_the_rim_finite_or_domain_error(self, n, eps):
        # u' ~ 1/sqrt(R_* - R) is finite but huge; the solve either follows
        # it or says where it lost it, and never hands back NaN
        R_star = domain_radius(n, n)
        t0 = time.perf_counter()
        try:
            p = solve_rotational_translator(n, n, R_max=R_star * (1.0 - eps), tol=1e-10)
        except DomainError as exc:
            assert time.perf_counter() - t0 < 1.0
            assert f"R_* = {R_star:.12g}" in str(exc)
            return
        assert np.all(np.isfinite(p.u)) and np.all(np.isfinite(p.up))
        theta = 1.0 / np.sqrt(1.0 + np.square(p.up))
        assert np.max(np.abs(theta - self.meridian_theta(n, p.grid))) < 1e-9


class TestFarField:
    @pytest.mark.parametrize("n, r", [(5, 4), (6, 4), (6, 5)])
    def test_theta_two_term_asymptotics(self, n, r):
        # sigma_r = Theta forces Theta = C1 R^-r [1 + r C1 (C2 - C1/2) R^-2r + ...]
        # with C1 = C(n-1, r), C2 = C(n-1, r-1); the next term is O(R^-4r)
        p = solve_rotational_translator(n, r, R_max=1e4, tol=1e-10)
        c1, c2 = math.comb(n - 1, r), math.comb(n - 1, r - 1)
        R = np.array([0.1, 0.5, 0.9, 1.0]) * p.R_max
        want = c1 * R**-r * (1.0 + r * c1 * (c2 - c1 / 2.0) * R ** (-2 * r))
        err = np.abs(np.asarray(p.theta(R)) / want - 1.0)
        print(f"(n, r) = ({n}, {r}): relative Theta error {err.max():.2e}")
        assert err.max() < 1e-8

    def test_finest_tolerance_reaches_the_largest_radius(self):
        p = solve_rotational_translator(5, 4, R_max=1e4, tol=1e-12)
        assert p.grid[-1] == 1e4
        assert np.all(np.isfinite(p.up))


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
            dd = p._dense_rows(100.0)[1][0] - 100.0 / (n - 1) + 1.0 / 100.0
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
        ch = rot_chart(rbowl32)
        # the radii from 5e-3, below the chart's inner radius 1e-2
        ch = replace(ch, param_domain=np.vstack([[5e-3, rbowl32.R_max], ch.param_domain[1:]]))
        pg = point_geometry(ch, [5.5e-3, 1.0, 1.0])
        k0 = vertex_curvature(3, 2)
        assert np.allclose(pg.k[0], k0, atol=1e-4)

    def test_sigma_r_positive(self, rbowl32):
        ch = rot_chart(rbowl32)
        mesh = Mesh.grid(ch, (10, 4, 4))
        assert np.all(mesh.geometry().sigma_r(2) > 0.0)

    def test_curve_chart_n1(self):
        p = solve_rotational_translator(1, 1, R_max=1.4, tol=1e-10)
        ch = rot_chart(p)
        pg = point_geometry(ch, [0.7])
        assert pg.sigma_r(1)[0] == pytest.approx(math.cos(0.7), abs=1e-8)

    def test_outside_radius(self, bowl21):
        ch = rot_chart(bowl21)
        with pytest.raises(DomainError):
            point_geometry(ch, [200.0, 1.0])

    @pytest.mark.parametrize("n, r, tol", [(3, 2, 1e-9), (4, 2, 1e-10), (4, 3, 1e-10)])
    def test_far_field_second_derivative(self, n, r, tol):
        # the jets' u'' is the solution's own: it agrees with the centered
        # difference of the dense u' (h = 1e-3 R; its truncation error, h^2
        # times the fourth derivative over 6, is 3.3e-7 of u'' on (4, 3)) and
        # with the leading asymptotics u'' ~ r R^(r-1) / C(n-1, r); the
        # profile equation solved for u'' was off by 0.17 on (3, 2) at R = 950
        p = solve_rotational_translator(n, r, R_max=1e3, tol=tol)
        R = np.geomspace(50.0, 950.0, 25)
        U = np.column_stack([R] + [np.full(R.size, 1.0)] * (n - 1))
        upp = rot_chart(p).jets(U)[2][:, 0, 0, n]
        h = 1e-3 * R
        fd = (p._dense_rows(R + h)[1] - p._dense_rows(R - h)[1]) / (2 * h)
        assert np.max(np.abs(upp / fd - 1.0)) < 1e-6
        dev = np.abs(upp / (r * R ** (r - 1) / math.comb(n - 1, r)) - 1.0)
        assert np.max(dev) < 1e-5 and np.max(dev[R >= 400.0]) < 1e-8


class TestGrimReaper:
    def test_tip_values(self):
        ch = grim_reaper_chart(2)
        pg = point_geometry(ch, [0.0, 0.0])
        assert pg.sigma_r(1)[0] == pytest.approx(1.0, abs=1e-14)
        ks = np.sort(pg.k[0])
        assert np.allclose(ks, [0.0, 1.0], atol=1e-14)
        assert float(pg.N[0, 2]) == pytest.approx(1.0, abs=1e-14)

    def test_asymptote_angle(self):
        ch = grim_reaper_chart(1, eta=1e-3)
        pg = point_geometry(ch, [math.pi / 2 - 1.1e-3])
        assert abs(float(pg.N[0, 1])) < 2e-3  # angle function heads to zero

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
        assert back.meta["method"] == "LSODA"

    def test_loaded_profile_has_no_dense_output(self, tmp_path, bowl21):
        csv = tmp_path / "p.csv"
        js = tmp_path / "p.json"
        export_profile(bowl21, csv, js)
        back = load_profile(csv, js)
        with pytest.raises(NumericalError):
            back._dense_rows(1.0)
