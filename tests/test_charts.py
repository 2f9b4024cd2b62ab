"""Tests for chart geometry: metric, normal, shape operator, Hessians, L operator."""

import math

import numpy as np
import pytest

from rmcf.charts import (
    AmbientField,
    Mesh,
    cone_excess,
    distance_sq_to,
    distance_to,
    fd_jet_error,
    flat_chart,
    L_operator,
    linear_height,
    paraboloid_chart,
    point_geometry,
    richardson_slope,
    sphere_chart,
)
from rmcf.errors import (
    DomainError,
    InvalidInputError,
    NearOriginError,
    SingularPointError,
    ToleranceError,
)
from rmcf.translators import grim_reaper_chart

from fd_fields import ScalarField
from scalar_api import (
    L_distance,
    gradient_norm,
    intrinsic_hessian,
    refined,
    soliton_residual,
    transform_chart,
)


def laplace_beltrami(chart, f, u):
    """Trace of the intrinsic Hessian (the r = 1 case of the L operator)."""
    return float(np.trace(intrinsic_hessian(chart, f, u).entries))


def e_vec(n, i):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestPointGeometry:
    def test_unit_sphere_umbilic(self):
        ch = sphere_chart(2)
        for u in ([0.0, 0.0], [0.2, -0.3], [0.4, 0.1]):
            pg = point_geometry(ch, u)
            assert np.allclose(pg.A[0], np.eye(2), atol=1e-10)
            assert pg.sigma_r(1)[0] == pytest.approx(2.0, abs=1e-10)
            assert pg.sigma_r(2)[0] == pytest.approx(1.0, abs=1e-10)
            # inward normal points at the center
            assert pg.N[0] @ pg.X[0] == pytest.approx(-1.0, abs=1e-10)

    def test_paraboloid_vertex(self):
        ch = paraboloid_chart(3)
        pg = point_geometry(ch, np.zeros(3))
        assert np.allclose(pg.A[0], np.eye(3), atol=1e-12)
        assert np.allclose(pg.N[0], e_vec(4, 3), atol=1e-12)

    def test_grim_reaper_curvature(self):
        # graph curvature oracle k = y'' / (1 + y'^2)^(3/2) = cos(x)
        ch = grim_reaper_chart(1)
        pg = point_geometry(ch, [math.pi / 4])
        assert pg.sigma_r(1)[0] == pytest.approx(math.cos(math.pi / 4), abs=1e-12)

    def test_normal_unit_and_orthogonal(self):
        ch = paraboloid_chart(2, curvature=0.7)
        pg = point_geometry(ch, [0.3, -0.5])
        assert abs(np.linalg.norm(pg.N[0]) - 1.0) < 1e-12
        _, dX, _ = ch.jets(np.array([0.3, -0.5]))
        assert np.max(np.abs(dX[0].T @ pg.N[0])) < 1e-12

    def test_frame_orthonormal(self):
        ch = sphere_chart(3)
        pg = point_geometry(ch, [0.1, 0.2, -0.1])
        assert np.allclose(pg.E[0].T @ pg.E[0], np.eye(3), atol=1e-12)

    def test_metric_positive(self):
        ch = grim_reaper_chart(2)
        pg = point_geometry(ch, [1.2, 3.0])
        assert np.all(np.linalg.eigvalsh(pg.dX[0].T @ pg.dX[0]) > 0)

    def test_outside_domain(self):
        ch = paraboloid_chart(2)
        with pytest.raises(DomainError):
            point_geometry(ch, [5.0, 0.0])

    def test_rank_deficient_rejected(self):
        def jet(U):
            X = np.concatenate((U, U, np.zeros_like(U)), axis=1)
            dX = np.zeros((len(U), 3, 1))  # degenerate on purpose
            d2X = np.zeros((len(U), 1, 1, 3))
            return X, dX, d2X

        from rmcf.charts import Chart

        ch = Chart(n=1, param_domain=np.array([[-1.0, 1.0]]), jet=jet)
        with pytest.raises(SingularPointError):
            point_geometry(ch, [0.0])


class TestSolitonResidual:
    def test_grim_reaper_closed_form(self):
        ch = grim_reaper_chart(2)
        rng = np.random.default_rng(0)
        V = e_vec(3, 2)
        worst = 0.0
        for _ in range(100):
            u = np.array(
                [rng.uniform(-1.5, 1.5), rng.uniform(-40, 40)]
            )
            worst = max(worst, abs(soliton_residual(ch, u, V, 1)))
        assert worst < 1e-10

    def test_sphere_is_not_translator(self):
        ch = sphere_chart(2)
        res = soliton_residual(ch, [0.1, 0.1], e_vec(3, 2), 1)
        assert abs(res) > 0.5  # sigma_1 = 2 while <N,V> is in [-1, 1]

    def test_velocity_validation(self):
        ch = sphere_chart(2)
        with pytest.raises(InvalidInputError):
            soliton_residual(ch, [0.0, 0.0], [2.0, 0.0, 0.0], 1)

    def test_orientation_flip_parity(self):
        ch = paraboloid_chart(2, curvature=0.8)
        u = [0.3, 0.2]
        pg = point_geometry(ch, u)
        pg_f = point_geometry(ch.flipped(), u)
        for r in (1, 2):
            assert pg_f.sigma_r(r)[0] == pytest.approx(
                (-1.0) ** r * pg.sigma_r(r)[0], abs=1e-12
            )
        # odd r: residual flips sign with the orientation, same zero set
        res = soliton_residual(ch, u, e_vec(3, 2), 1)
        res_f = soliton_residual(ch.flipped(), u, e_vec(3, 2), 1)
        assert res_f == pytest.approx(-res, abs=1e-12)


class TestIntrinsicHessian:
    def test_flat_chart_euclidean(self):
        # the finite-difference oracle: on a flat chart hess f is the parameter Hessian
        ch = flat_chart(2)
        f = ScalarField(lambda U: 0.5 * np.sum(U * U, axis=-1))
        _, H = f.param_derivatives(ch, np.array([[0.2, -0.1]]))
        assert np.allclose(H[0], np.eye(2), atol=1e-6)

    def test_flat_chart_euclidean_analytic(self):
        ch = flat_chart(2)
        f = distance_sq_to(np.zeros(3))
        H = intrinsic_hessian(ch, f, [0.2, -0.1])
        assert np.allclose(H.entries, 2.0 * np.eye(2), atol=1e-12)

    def test_sphere_height_eigenfunction(self):
        # hess <X,V> = -<X,V> g on the unit sphere about the origin
        ch = sphere_chart(2)
        V = np.array([0.3, -0.5, 0.81])
        V /= np.linalg.norm(V)
        f = linear_height(V)
        for u in ([0.0, 0.0], [0.25, -0.2]):
            pg = point_geometry(ch, u)
            H = intrinsic_hessian(ch, f, u)
            want = -float(pg.X[0] @ V) * np.eye(2)
            assert np.allclose(H.entries, want, atol=1e-9)

    def test_height_hessian_is_shape_operator(self):
        # hess<X,W>(e_i,e_j) = <A e_i, e_j> <N, W> on any chart
        ch = paraboloid_chart(3, curvature=0.6)
        W = np.array([0.1, 0.7, -0.2, 0.4])
        W /= np.linalg.norm(W)
        u = [0.2, -0.3, 0.45]
        pg = point_geometry(ch, u)
        H = intrinsic_hessian(ch, linear_height(W), u)
        want = pg.A[0] * float(pg.N[0] @ W)
        assert np.max(np.abs(H.entries - want)) < 1e-10


class TestGradient:
    def test_linear_field_tangential_norm(self):
        ch = sphere_chart(2)
        W = np.array([0.0, 0.6, 0.8])
        u = [0.2, 0.1]
        pg = point_geometry(ch, u)
        gn = gradient_norm(ch, linear_height(W), u)
        assert gn == pytest.approx(math.sqrt(1.0 - float(pg.N[0] @ W) ** 2), abs=1e-12)

    def test_constant_field(self):
        ch = paraboloid_chart(2)
        f = AmbientField(lambda X: 3.0, lambda X: np.zeros(3), lambda X: np.zeros((3, 3)))
        assert gradient_norm(ch, f, [0.1, 0.4]) == pytest.approx(0.0, abs=1e-15)

    def test_distance_constant_on_sphere(self):
        ch = sphere_chart(2)
        f = distance_to(np.zeros(3))
        assert gradient_norm(ch, f, [0.15, -0.2]) == pytest.approx(0.0, abs=1e-10)

    def test_distance_gradient_bounded(self):
        ch = grim_reaper_chart(2)
        f = distance_to(np.array([0.3, 0.1, -0.2]))
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = np.array([rng.uniform(-1.5, 1.5), rng.uniform(-40, 40)])
            assert gradient_norm(ch, f, u) <= 1.0 + 1e-12

    def test_ambient_pythagoras(self):
        # |grad f|^2 + <ambient grad, N>^2 = |ambient grad|^2 for restrictions
        ch = paraboloid_chart(2, curvature=1.3)
        W = np.array([0.48, -0.6, 0.64])
        u = [0.25, -0.55]
        pg = point_geometry(ch, u)
        gn = gradient_norm(ch, linear_height(W), u)
        lhs = gn**2 + float(pg.N[0] @ W) ** 2
        assert lhs == pytest.approx(float(W @ W), abs=1e-10)


class TestLOperator:
    def test_r1_is_laplace_beltrami(self):
        ch = sphere_chart(2)
        f = linear_height(np.array([0.2, 0.3, 0.933]))
        u = [0.1, -0.2]
        assert L_operator(ch, f, u, 1) == pytest.approx(
            laplace_beltrami(ch, f, u), abs=1e-12
        )

    def test_height_identity_all_charts(self):
        # L_{r-1} <X,V> = r sigma_r <N,V>
        charts = [
            sphere_chart(2),
            paraboloid_chart(3, curvature=0.8),
            grim_reaper_chart(2),
        ]
        rng = np.random.default_rng(9)
        for ch in charts:
            lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
            for _ in range(20):
                u = lo + (hi - lo) * rng.uniform(0.05, 0.95, size=ch.n)
                V = rng.standard_normal(ch.n + 1)
                V /= np.linalg.norm(V)
                pg = point_geometry(ch, u)
                for r in range(1, ch.n + 1):
                    got = L_operator(ch, linear_height(V), u, r)
                    want = r * pg.sigma_r(r)[0] * float(pg.N[0] @ V)
                    assert abs(got - want) < 1e-7 * (1.0 + pg.normA[0]**2)

    def test_distance_sq_identity(self):
        # L_{r-1} |X|^2 = 2(n-r+1) sigma_{r-1} + 2 r sigma_r <N, X>
        ch = paraboloid_chart(3, curvature=0.9)
        rng = np.random.default_rng(13)
        f = distance_sq_to(np.zeros(4))
        for _ in range(20):
            u = rng.uniform(-0.8, 0.8, size=3)
            pg = point_geometry(ch, u)
            for r in range(1, 4):
                got = L_operator(ch, f, u, r)
                want = 2 * (3 - r + 1) * pg.sigma_r(r - 1)[0] + 2 * r * pg.sigma_r(r)[0] * float(
                    pg.N[0] @ pg.X[0]
                )
                assert abs(got - want) < 1e-7 * (1.0 + pg.normA[0]**2) * (1 + pg.X[0] @ pg.X[0])

    def test_r_range(self):
        ch = sphere_chart(2)
        with pytest.raises(DomainError):
            L_operator(ch, linear_height(e_vec(3, 2)), [0.0, 0.0], 3)


class TestLDistance:
    def test_sphere_constant_distance(self):
        ch = sphere_chart(2)
        for u in ([0.0, 0.0], [0.2, 0.3]):
            assert L_distance(ch, u, 1, np.zeros(3)) == pytest.approx(0.0, abs=1e-10)

    def test_flat_chart_euclidean_laplacian(self):
        # hyperplane through the origin: L_0 of |X| is (n-1)/|X|
        ch = flat_chart(2)
        u = [0.4, 0.25]
        d = math.hypot(*u)
        assert L_distance(ch, u, 1, np.zeros(3)) == pytest.approx((2 - 1) / d, abs=1e-10)

    def test_matches_operator_route(self):
        ch = paraboloid_chart(2, curvature=1.1)
        origin = np.array([0.05, -0.1, 0.3])
        f = distance_to(origin)
        rng = np.random.default_rng(17)
        for _ in range(15):
            u = rng.uniform(-0.9, 0.9, size=2)
            pg = point_geometry(ch, u)
            for r in (1, 2):
                closed = L_distance(ch, u, r, origin)
                direct = L_operator(ch, f, u, r)
                assert closed == pytest.approx(direct, abs=1e-6)

    def test_near_origin_error(self):
        ch = flat_chart(2)
        with pytest.raises(NearOriginError):
            L_distance(ch, [0.3, 0.4], 1, np.array([0.3, 0.4, 0.0]))


class TestFdConsistency:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: sphere_chart(2),
            lambda: paraboloid_chart(2, curvature=0.75),
            lambda: grim_reaper_chart(2),
        ],
    )
    def test_richardson_order(self, make):
        ch = make()
        lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
        u = lo + 0.43 * (hi - lo)
        h = 1e-3 * min(float(np.min(hi - lo)), 1.0)
        err1, err2 = fd_jet_error(ch, u[None], (h, h / 2))
        (e1a, e1b), (e2a, e2b) = err1[:, 0], err2[:, 0]
        if e1b > 1e-11:
            assert richardson_slope(e1a, e1b) > 1.9
        if e2b > 1e-9:
            assert richardson_slope(e2a, e2b) > 1.9

    def test_one_stacked_call_matches_the_point_loop(self):
        # the stencil's jets come from one stacked call; the per-point loop
        # it replaced, on one-row calls, must give the same bits
        def loop(ch, u, h):
            def pos(q):
                return ch.jets(q)[0][0]

            _, dX, d2X = (a[0] for a in ch.jets(u))
            err1 = err2 = 0.0
            for i in range(ch.n):
                ei = h * np.eye(ch.n)[i]
                xp, xm, x0 = pos(u + ei), pos(u - ei), pos(u)
                err1 = max(err1, float(np.max(np.abs((xp - xm) / (2 * h) - dX[:, i]))))
                err2 = max(err2, float(np.max(np.abs((xp - 2 * x0 + xm) / h**2 - d2X[i, i]))))
                for j in range(i + 1, ch.n):
                    ej = h * np.eye(ch.n)[j]
                    mixed = (pos(u + ei + ej) - pos(u + ei - ej) - pos(u - ei + ej)
                             + pos(u - ei - ej)) / (4 * h**2)
                    err2 = max(err2, float(np.max(np.abs(mixed - d2X[i, j]))))
            return err1, err2

        for ch in (sphere_chart(3), paraboloid_chart(3, curvature=0.75), grim_reaper_chart(2)):
            lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
            for frac in (0.13, 0.43, 0.77):
                u = lo + frac * (hi - lo)
                stacked = tuple(e[0, 0] for e in fd_jet_error(ch, u[None], [1e-2]))
                assert stacked == loop(ch, u, 1e-2), (ch.name, frac)

    def test_corrupted_jet_detected(self):
        ch = paraboloid_chart(2, derivative_bias=1e-3)
        e1 = fd_jet_error(ch, np.array([[0.3, 0.2]]), [1e-4])[0][0, 0]
        assert e1 > 1e-5

    def test_fd_step_underflow(self):
        ch = paraboloid_chart(2)
        f = ScalarField(lambda U: U[..., 0], step=1e-12)
        with pytest.raises(ToleranceError):
            f.param_grads(ch, np.zeros((1, 2)))


class TestTransformChart:
    def test_rigid_motion_preserves_curvatures(self):
        ch = paraboloid_chart(2, curvature=0.9)
        th = 0.7
        Q = np.array(
            [
                [math.cos(th), -math.sin(th), 0.0],
                [math.sin(th), math.cos(th), 0.0],
                [0.0, 0.0, 1.0],
            ]
        )
        moved = transform_chart(ch, Q, shift=np.array([1.0, -2.0, 0.5]))
        u = [0.3, -0.4]
        pg0 = point_geometry(ch, u)
        pg1 = point_geometry(moved, u)
        assert np.allclose(
            np.sort(pg0.k[0]), np.sort(pg1.k[0]), atol=1e-10
        )
        assert np.allclose(pg1.X[0], Q @ pg0.X[0] + np.array([1.0, -2.0, 0.5]), atol=1e-12)

    def test_rejects_non_orthogonal(self):
        ch = paraboloid_chart(2)
        with pytest.raises(InvalidInputError):
            transform_chart(ch, np.diag([2.0, 1.0, 1.0]))


class TestMesh:
    def test_grid_shape_and_boundary(self):
        ch = paraboloid_chart(2)
        mesh = Mesh.grid(ch, (5, 7))
        assert len(mesh) == 35
        assert mesh.boundary.sum() == 2 * 5 + 2 * 7 - 4

    def test_boundary_margin(self):
        ch = paraboloid_chart(2, halfwidth=1.0)
        mesh = Mesh.grid(ch, 4)
        assert np.all(np.abs(mesh.points) < 1.0)

    def test_positions_and_spacing(self):
        ch = flat_chart(2, halfwidth=1.0)
        mesh = Mesh.grid(ch, 5)
        xs = mesh.positions()
        assert xs.shape == (25, 3)
        assert np.allclose(xs[:, 2], 0.0)
        assert mesh.spacing() == pytest.approx(0.5, rel=1e-4)

    def test_refined(self):
        ch = flat_chart(2)
        m = refined(Mesh.grid(ch, 4), 2)
        assert m.shape == (7, 7)


class TestConeExcessField:
    def test_value_and_gradient(self):
        f = cone_excess(np.array([0.0, 0.0, 1.0]), 0.5)
        X = np.array([3.0, 0.0, 4.0])
        assert f.value_at(X) == pytest.approx(4.0 - 0.5 * 5.0)
        g = f.grad_at(X)
        want = np.array([0.0, 0.0, 1.0]) - 0.5 * X / 5.0
        assert np.allclose(g, want, atol=1e-14)
