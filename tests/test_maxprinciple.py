"""Tests for the growth profiles, maximizer sequences, and theorem drives."""

import math
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcf.charts import (
    AmbientField,
    Mesh,
    flat_chart,
    linear_height,
    paraboloid_chart,
    sphere_chart,
)
from rmcf.errors import BoundaryDominatedWarning, DomainError, InvalidInputError
from rmcf.maxprinciple import (
    BOUND_LOWER_LIMIT,
    GFunction,
    SPLICE_T0,
    alpha,
    cone_drive,
    halfspace_drive,
    hypothesis_gate,
    oy_sequence,
)
from rmcf.regions import BiHalfspace, Cone, Halfspace, bihalfspace_drive, first_exit
from rmcf.translators import grim_reaper_chart, rot_chart, solve_rotational_translator

import g_quadrature
from scalar_api import refined


@pytest.fixture(scope="module")
def bowl_chart():
    return rot_chart(solve_rotational_translator(2, 1, R_max=30.0, tol=1e-9))


def cone_gate(mesh, V, a, r):
    """The cone gate a cone drive reads: against the cone (V, a), on the proper branch."""
    return hypothesis_gate(mesh, Cone(V=V, a=a), {"r": r, "V": V})


def halfspace_gate(mesh, V, W, r):
    """The half-space gate a half-space drive reads: the half-space through 0 with normal W."""
    return hypothesis_gate(mesh, Halfspace(B=np.zeros(len(W)), W=W), {"r": r, "V": V})


class TestGFunction:
    def test_constant_phi(self):
        G = GFunction.constant_fn(1.0)
        for t in (0.0, 0.5, 2.0, 10.0):
            assert G.phi(t) == pytest.approx(math.log(t + 1.0), abs=1e-12)

    def test_constant_four(self):
        G = GFunction.constant_fn(4.0)
        for t in (0.0, 1.0, 6.0):
            assert G.phi(t) == pytest.approx(math.log(t / 2.0 + 1.0), abs=1e-12)

    def test_splice_floor_positive_monotone(self):
        G = GFunction.iterated_log(1)
        assert G.value(0.0) > 0.0
        ts = np.linspace(0.0, 1e3, 1000)
        vals = [G.value(t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tail_closed_form(self):
        # beyond the splice, int ds / (s log s) = loglog
        G = GFunction.iterated_log(1)
        lo, hi = 50.0, 400.0
        want = math.log(math.log(hi)) - math.log(math.log(lo))
        assert G.integral_inv_sqrt(lo, hi) == pytest.approx(want, rel=1e-12)
        assert g_quadrature.integral_inv_sqrt(G, lo, hi) == pytest.approx(want, rel=1e-9)

    def test_phi_quad_vs_closed(self):
        G = GFunction.iterated_log(1)
        for t in (0.5, 10.0, 123.0, 4e3):
            assert g_quadrature.phi(G, t) == pytest.approx(G.phi(t), abs=1e-9)

    def test_phi_monotone_concave(self):
        G = GFunction.iterated_log(1)
        ts = np.linspace(0.05, 2e3, 1000)
        ph = np.array([G.phi(t) for t in ts])
        assert np.all(np.diff(ph) > 0.0)
        second = np.diff(ph, 2)
        assert np.all(second < 1e-12)

    def test_phi_prime_matches_fd(self):
        G = GFunction.iterated_log(1)
        for t in (1.0, 20.0, 300.0):
            h = 1e-5 * max(t, 1.0)
            fd = (G.phi(t + h) - G.phi(t - h)) / (2 * h)
            assert G.phi_prime(t) == pytest.approx(fd, rel=1e-6)

    def test_levels_two_and_three(self):
        for lv in (2, 3):
            G = GFunction.iterated_log(lv)
            assert G.value(0.0) > 0.0
            lo, hi = 300.0, 900.0
            want = _log_iter(hi, lv + 1) - _log_iter(lo, lv + 1)
            assert G.integral_inv_sqrt(lo, hi) == pytest.approx(want, rel=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            GFunction.constant_fn(0.0)
        with pytest.raises(InvalidInputError):
            GFunction.iterated_log(4)
        with pytest.raises(DomainError):
            GFunction.iterated_log(1).phi(-1.0)


G_KINDS = {
    "constant": lambda: GFunction.constant_fn(2.5),
    "iterated_log-1": lambda: GFunction.iterated_log(1),
    "iterated_log-2": lambda: GFunction.iterated_log(2),
    "iterated_log-3": lambda: GFunction.iterated_log(3),
}
G_ARGS = st.one_of(
    st.sampled_from([0.0, SPLICE_T0, BOUND_LOWER_LIMIT, 1e7]), st.floats(0.0, 1e7)
)


class TestArrayGFunction:
    @given(kind=st.sampled_from(sorted(G_KINDS)), ts=st.lists(G_ARGS, min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_array_matches_scalar_loop_and_quadrature(self, kind, ts):
        G = G_KINDS[kind]()
        t = np.array(ts)
        calls = {name: getattr(G, name) for name in ("value", "phi", "phi_prime", "p_bound")}
        calls["integral_from_bound_limit"] = lambda x: G.integral_inv_sqrt(BOUND_LOWER_LIMIT, x)
        for name, fn in calls.items():
            got = fn(t)
            want = [fn(x) for x in ts]
            assert isinstance(got, np.ndarray) and got.shape == t.shape, name
            assert all(type(w) is float for w in want), name
            assert np.array_equal(got, want), name
        for name in ("phi", "p_bound"):
            closed = getattr(G, name)(t)
            quad = getattr(g_quadrature, name)(G, t)
            assert np.allclose(quad, closed, rtol=1e-8, atol=1e-9), name

    @pytest.mark.parametrize("kind", sorted(G_KINDS))
    def test_negative_entry_and_scalar_result(self, kind):
        G = G_KINDS[kind]()
        for fn in (G.value, G.phi, G.phi_prime, G.p_bound,
                   lambda x: G.integral_inv_sqrt(0.0, x)):
            for bad in (np.array([3.0, -1e-3]), np.array([np.nan, 3.0]), -2.0):
                with pytest.raises(DomainError):
                    fn(bad)
            for scalar in (5.0, np.float64(5.0), np.array(5.0), 5):
                assert type(fn(scalar)) is float


def _log_iter(t, j):
    for _ in range(j):
        t = math.log(t)
    return t


class TestPBoundIdentity:
    def test_closed_form_on_rho_range(self):
        # quadrature of sqrt(G(gamma)) (int_{e^{2e}}^gamma ds/sqrt(G) + 1)
        # equals 2 rho^2 log rho loglog rho for G = (t log t)^2, gamma = rho^2
        G = GFunction.iterated_log(1)
        assert BOUND_LOWER_LIMIT > SPLICE_T0
        for rho in (10.0, 31.6, 100.0, 316.0, 1000.0):
            gamma = rho * rho
            got = g_quadrature.p_bound(G, gamma)
            want = 2.0 * rho**2 * math.log(rho) * math.log(math.log(rho))
            assert got == pytest.approx(want, rel=1e-6)


class TestAlpha:
    def test_value_at_one(self):
        assert alpha(1.0, 0.6) == pytest.approx(0.4, abs=1e-14)

    def test_vanishing_radicand(self):
        a = 0.6
        t = 1.0 - a * a
        assert alpha(t, a) == pytest.approx(t, abs=1e-14)

    def test_decreasing(self):
        a = 0.5
        ts = np.linspace(1 - a * a, 1.0, 50)
        vals = [alpha(t, a) for t in ts]
        assert all(x >= y - 1e-14 for x, y in zip(vals, vals[1:]))

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            alpha(0.1, 0.5)


def _vertical_gamma(level=2.0):
    e3 = np.array([0.0, 0.0, 1.0])
    return AmbientField(
        lambda X: level - X @ e3,
        lambda X: -e3,
        lambda X: np.zeros((3, 3)),
    )


class TestOYSequence:
    def test_sphere_height_maximum(self):
        ch = sphere_chart(2)
        mesh = Mesh.grid(ch, 25)
        u = linear_height(np.array([0.0, 0.0, 1.0]))
        run = oy_sequence(mesh, u, _vertical_gamma(), GFunction.iterated_log(1), k_max=6)
        assert not run.boundary_dominated
        # the pole sample is the maximizer for every k
        for i in run.idx:
            assert np.linalg.norm(mesh.points[i]) < 1e-12
        assert np.all(run.grad_norms <= run.mesh_tol)
        assert np.all(run.passes)
        assert np.all(np.diff(run.eps) < 0)

    @pytest.mark.parametrize("r", [0, 3])
    def test_order_outside_one_to_n(self, r):
        # P_2 = 0 when n = 2, so r = 3 would read every L value as 0
        mesh = Mesh.grid(sphere_chart(2), 5)
        u = linear_height(np.array([0.0, 0.0, 1.0]))
        with pytest.raises(DomainError, match="1 <= r <= n"):
            oy_sequence(mesh, u, _vertical_gamma(), GFunction.iterated_log(1), r=r)

    def test_refinement_stability(self):
        ch = sphere_chart(2)
        u = linear_height(np.array([0.0, 0.0, 1.0]))
        G = GFunction.iterated_log(1)
        coarse = Mesh.grid(ch, 25)
        fine = refined(coarse, 2)
        run_c = oy_sequence(coarse, u, _vertical_gamma(), G, k_max=5)
        run_f = oy_sequence(fine, u, _vertical_gamma(), G, k_max=5)
        assert np.max(np.abs(run_c.u_values - run_f.u_values)) <= run_c.mesh_tol

    def test_constant_field(self):
        ch = flat_chart(2)
        mesh = Mesh.grid(ch, 9)
        u = AmbientField(lambda X: 5.0, lambda X: np.zeros(3), lambda X: np.zeros((3, 3)))
        gamma = AmbientField(
            lambda X: 1.0, lambda X: np.zeros(3), lambda X: np.zeros((3, 3))
        )
        with pytest.warns(BoundaryDominatedWarning):
            # every point maximizes; ties break to index 0 on the grid boundary
            run = oy_sequence(mesh, u, gamma, GFunction.constant_fn(1.0), k_max=4)
        assert np.all(run.idx == 0)
        assert np.all(run.grad_norms == 0.0)
        assert np.all(np.abs(run.L_values) < 1e-12)

    def test_grim_reaper_cone_field_boundary_dominated(self):
        ch = grim_reaper_chart(2, t_halfwidth=5.0)
        mesh = Mesh.grid(ch, (41, 9))
        from rmcf.charts import cone_excess, distance_sq_to

        psi = cone_excess(np.array([0.0, 0.0, 1.0]), 0.9)
        geom = mesh.geometry()
        rows = geom.take(np.linalg.norm(geom.X, axis=1) > 1e-6)
        with pytest.warns(BoundaryDominatedWarning):
            run = oy_sequence(
                mesh, psi, distance_sq_to(np.zeros(3)),
                GFunction.iterated_log(1), k_max=6, rows=rows,
            )
        assert run.boundary_dominated and not run.conclusive
        # maximizers drift toward the asymptotic planes, gradient norms
        # weakly decreasing along the run
        xs = np.abs(run.maximizers[:, 0])
        assert np.all(np.diff(xs) >= -1e-12)
        assert xs[-1] > 1.2
        assert np.all(np.diff(run.grad_norms) <= 1e-12)

    def test_gamma_positive_validation(self):
        ch = flat_chart(2)
        mesh = Mesh.grid(ch, 5)
        bad_gamma = AmbientField(
            lambda X: -1.0, lambda X: np.zeros(3), lambda X: np.zeros((3, 3))
        )
        u = linear_height(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            oy_sequence(mesh, u, bad_gamma, GFunction.constant_fn(1.0))


class TestConeDrive:
    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_bowl_containment_fails(self, bowl_chart):
        mesh = Mesh.grid(bowl_chart, (25, 13))
        gate = cone_gate(mesh, np.array([0.0, 0.0, 1.0]), 0.5, 1)
        rep = cone_drive(mesh, gate)
        assert "containment" in rep.failed_premises
        assert not rep.containment_holds
        assert rep.exit_margin == gate.exit.margin
        assert rep.residual_sup < 1e-6
        assert rep.grad_identity_err < 1e-8
        assert rep.L_identity_err < 1e-6
        assert rep.extras["min_eigen_P"] >= -1e-10

    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_identity_chain_on_maximizers(self, bowl_chart):
        mesh = Mesh.grid(bowl_chart, (25, 13))
        rep = cone_drive(mesh, cone_gate(mesh, np.array([0.0, 0.0, 1.0]), 0.6, 1))
        alphas = rep.extras["alpha_values"]
        finite = np.isfinite(alphas)
        # where defined, alpha stays within its range
        assert np.all(alphas[finite] <= 1.0 + 1e-12)
        assert np.all(alphas[finite] >= 1 - 0.6**2 - 1e-12)

    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_psi_hessian_cached_on_the_mesh_geometry(self, bowl_chart):
        # no bowl row sits at the origin, so the drive's rows are mesh.geometry()
        # itself, which keeps the Hessians of psi and of gamma = |X|^2
        mesh = Mesh.grid(bowl_chart, (9, 5))
        cone_drive(mesh, cone_gate(mesh, np.array([0.0, 0.0, 1.0]), 0.3, 1))
        assert [key[0] for key in mesh.geometry()._cache if key[0] == "hess"] == ["hess"] * 2

    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_non_translator_lists_residual_premise(self):
        # a paraboloid is no translator: the drive runs and names the premise
        ch = paraboloid_chart(2, halfwidth=10.0)
        mesh = Mesh.grid(ch, 13)
        rep = cone_drive(mesh, cone_gate(mesh, np.array([0.0, 0.0, 1.0]), 0.3, 1))
        assert "translator-residual" in rep.failed_premises
        assert rep.residual_sup > 1e-6


class TestHalfspaceDrive:
    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_grim_reaper_exits(self):
        ch = grim_reaper_chart(2, t_halfwidth=12.0)
        mesh = Mesh.grid(ch, (31, 9))
        V = np.array([0.0, 0.0, 1.0])
        W = np.array([math.sin(0.4), 0.0, math.cos(0.4)])
        rep = halfspace_drive(mesh, halfspace_gate(mesh, V, W, 1))
        assert "containment" in rep.failed_premises
        assert rep.grad_identity_err < 1e-9
        assert rep.L_identity_err < 1e-7
        assert rep.extras["frame_identity_err"] < 1e-10

    def test_control_chart_contained_but_wrong_limit(self):
        # a non-translator contained in the half-space: L psi at the
        # maximizers stays far from r <V, W>
        ch = sphere_chart(2, center=np.array([0.0, 0.0, 15.0]), cap="lower")
        mesh = Mesh.grid(ch, 15)
        V = np.array([0.0, 0.0, -1.0])
        W = np.array([0.0, 0.0, -1.0])
        rep = halfspace_drive(mesh, halfspace_gate(mesh, V, W, 1))
        assert rep.containment_holds
        assert "containment" not in rep.failed_premises
        assert not rep.oy.boundary_dominated
        L_at = rep.extras["L_at_maximizers"]
        assert np.all(np.abs(L_at - rep.extras["r_times_c"]) > 0.5)

    def test_needs_positive_inner_product(self):
        ch = grim_reaper_chart(2)
        mesh = Mesh.grid(ch, (9, 5))
        with pytest.raises(InvalidInputError):
            halfspace_gate(mesh, np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 1)


class TestHypothesisGate:
    def test_bowl_cone_gate(self, bowl_chart):
        mesh = Mesh.grid(bowl_chart, (25, 13))
        region = Cone(V=[0.0, 0.0, 1.0], a=0.5)
        gate = hypothesis_gate(mesh, region, {"r": 1, "V": [0.0, 0.0, 1.0]})
        ids = {p["id"]: p for p in gate.premises}
        assert ids["translator-residual"]["pass"]
        assert ids["sigma-r-bounded"]["pass"]
        assert ids["newton-psd"]["pass"]
        assert ids["growth-sigma-linear"]["empirical"]
        assert gate.contained is False
        assert gate.consistent is True

    def test_rbowl_eps_gate(self):
        p = solve_rotational_translator(3, 2, R_max=30.0, tol=1e-9)
        ch = rot_chart(p)
        mesh = Mesh.grid(ch, (15, 7, 9))
        V = np.array([0.0, 0.0, 0.0, 1.0])
        region = BiHalfspace(Halfspace(np.zeros(4), [0.6, 0.8, 0.0, 0.0]),
                             Halfspace(np.zeros(4), [0.6, -0.8, 0.0, 0.0]), vertical_to=V)
        gate = hypothesis_gate(mesh, region, {"r": 2, "V": V, "eps": 1e-6})
        ids = {p["id"]: p for p in gate.premises}
        assert ids["sigma-r-bounded"]["pass"]
        assert "newton-eps-definite" in ids
        assert ids["growth-sigma-quadlog"]["empirical"]
        assert isinstance(gate.contained, bool) and isinstance(gate.consistent, bool)

    def test_unknown_theorem(self):
        # a region type that states no theorem
        @dataclass(frozen=True)
        class Slab:
            W: np.ndarray
            width: float

        ch = flat_chart(2)
        mesh = Mesh.grid(ch, 5)
        slab = Slab(W=np.array([0.0, 0.0, 1.0]), width=1.0)
        with pytest.raises(InvalidInputError, match="no nonexistence statement for a Slab"):
            hypothesis_gate(mesh, slab, {"r": 1, "V": [0, 0, 1]})

    _E3 = [0.0, 0.0, 1.0]

    @pytest.mark.parametrize("region, params, error, match", [
        (Cone(V=_E3, a=0.3), {"r": 1, "V": [0.0, 0.0, 2.0]}, InvalidInputError, "unit vector"),
        (Halfspace(np.zeros(3), [1.0, 0.0, 0.0]), {"r": 1, "V": _E3}, InvalidInputError,
         "<V, W> > 0"),
        (Halfspace(np.zeros(3), [0.6, 0.0, -0.8]), {"r": 1, "V": _E3}, InvalidInputError,
         "<V, W> > 0"),
        (Cone(V=[0.0, 0.6, 0.8], a=0.3), {"r": 1, "V": _E3}, InvalidInputError, "axis"),
        (Cone(V=_E3, a=0.3), {"r": 0, "V": _E3}, DomainError, "1 <= r <= n"),
        (Cone(V=_E3, a=0.3), {"r": 3, "V": _E3}, DomainError, "1 <= r <= n"),
        (BiHalfspace(Halfspace(np.zeros(3), [0.6, 0.0, 0.8]),
                     Halfspace(np.zeros(3), [0.6, -0.8, 0.0])), {"r": 1, "V": _E3},
         InvalidInputError, "orthogonal to V"),
        (Cone(V=[0.0, 0.0, 0.0, 1.0], a=0.3), {"r": 1, "V": _E3}, InvalidInputError,
         "n \\+ 1 = 3 coordinates"),
        (Halfspace(np.zeros(4), [0.0, 0.0, 0.6, 0.8]), {"r": 1, "V": _E3}, InvalidInputError,
         "n \\+ 1 = 3 coordinates"),
        (BiHalfspace(Halfspace(np.zeros(4), [0.6, 0.8, 0.0, 0.0]),
                     Halfspace(np.zeros(4), [0.6, -0.8, 0.0, 0.0])), {"r": 1, "V": _E3},
         InvalidInputError, "n \\+ 1 = 3 coordinates"),
    ])
    def test_inputs_rejected_before_any_jet(self, region, params, error, match):
        # the gate checks r, V, the region's vector lengths, <V, W>, <V, W_i> and
        # the cone's axis before any geometry
        ch, calls = _counting(grim_reaper_chart(2))
        mesh = Mesh.grid(ch, (9, 5))
        with pytest.raises(error, match=match):
            hypothesis_gate(mesh, region, params)
        assert calls == {"calls": 0, "rows": 0}


class TestDrivesReadTheGate:
    def test_gate_of_another_theorem_rejected(self, bowl_chart):
        mesh = Mesh.grid(bowl_chart, (9, 5))
        V = np.array([0.0, 0.0, 1.0])
        gate = hypothesis_gate(mesh, Halfspace(B=np.zeros(3), W=V), {"r": 1, "V": V})
        with pytest.raises(InvalidInputError):
            cone_drive(mesh, gate)


def _counting(chart):
    """The chart with a jet that counts its calls and the rows they evaluate."""
    count = {"calls": 0, "rows": 0}

    def jet(U):
        count["calls"] += 1
        count["rows"] += len(U)
        return chart.jet(U)

    return replace(chart, jet=jet), count


# the wedge a x1 +- b x2 >= 0 with (a, b) = (0.6, 0.8) and V = e_3, already normalized
_WEDGE3 = (BiHalfspace(Halfspace(np.zeros(3), [0.6, 0.8, 0.0]),
                       Halfspace(np.zeros(3), [0.6, -0.8, 0.0])), np.array([0.0, 0.0, 1.0]))


class TestJetCount:
    """Mesh consumers read the jet that point geometry holds."""

    @pytest.mark.filterwarnings("ignore::rmcf.errors.BoundaryDominatedWarning")
    def test_one_jet_per_mesh_point(self):
        base = grim_reaper_chart(2, t_halfwidth=12.0)
        ch, calls = _counting(base)
        mesh = Mesh.grid(ch, (21, 5))
        V = np.array([0.0, 0.0, 1.0])
        cone = Cone(V=V, a=0.3)
        gate = hypothesis_gate(mesh, cone, {"r": 1, "V": V})
        cone_drive(mesh, gate)
        first_exit(cone, mesh)
        assert calls == {"calls": 1, "rows": len(mesh)}
        want = np.array([base.jets(u)[0][0] for u in mesh.points])
        assert np.array_equal(mesh.positions(), want)

    def test_bihalfspace_drive_reuses_geometry(self):
        ch, calls = _counting(grim_reaper_chart(2, t_halfwidth=2.0))
        mesh = Mesh.grid(ch, (21, 21))
        mesh.geometry()
        built = dict(calls)
        rep = bihalfspace_drive(mesh, *_WEDGE3, 0.5, 1, 1.0)
        assert not rep.empty
        assert calls == built == {"calls": 1, "rows": len(mesh)}

    def test_bihalfspace_drive_fresh_mesh(self):
        # without built geometry: one jet per mesh point, geometry only in the pocket
        base = grim_reaper_chart(2, t_halfwidth=2.0)
        ch, calls = _counting(base)
        rep = bihalfspace_drive(Mesh.grid(ch, (21, 21)), *_WEDGE3, 0.5, 1, 1.0)
        assert 0 < rep.n_points < 21 * 21
        assert calls == {"calls": 1, "rows": 21 * 21}
        built = Mesh.grid(base, (21, 21))
        built.geometry()
        want = bihalfspace_drive(built, *_WEDGE3, 0.5, 1, 1.0)
        assert rep.to_json_dict() == want.to_json_dict()
        assert np.array_equal(rep.argmin_param, want.argmin_param)
