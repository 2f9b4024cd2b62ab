"""Tests for region predicates, growth estimators, and the cylinder machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rmcf.charts
from rmcf.charts import (
    Mesh,
    _matvec,
    _simpson,
    flat_chart,
    oscillating_graph_chart,
    paraboloid_chart,
    rowdot,
    segment_arclength,
    sphere_chart,
)
from rmcf.errors import DomainError, InvalidInputError, SingularPointError
from rmcf.regions import (
    _LOGLOG_FLOOR,
    BiHalfspace,
    Cone,
    Halfspace,
    ambient_cylinder_hessian,
    bihalfspace_drive,
    check_vertical,
    cylinder_distance,
    cylinder_hessian_frame,
    first_exit,
    growth_report,
    in_pocket,
    min_eigen_over_mesh,
    normalize_bihalfspace,
    pocket_mask,
    violation_margins,
)
from rmcf.translators import grim_reaper_chart, rot_chart, solve_rotational_translator

from scalar_api import region_contains, transform_chart


@pytest.fixture(scope="module")
def bowl21_chart():
    return rot_chart(solve_rotational_translator(2, 1, R_max=100.0, tol=1e-9))


class TestRegionContains:
    def test_cone_axis_point(self):
        reg = Cone(V=[0.0, 0.0, 1.0], a=0.5)
        assert not region_contains(reg, [0.0, 0.0, 1.0])  # ratio 1 > 0.5

    def test_halfspace(self):
        reg = Halfspace(B=np.zeros(3), W=[1.0, 0.0, 0.0])
        assert region_contains(reg, [-1.0, 0.0, 0.0])
        assert not region_contains(reg, [0.5, 0.0, 0.0])

    def test_bihalfspace_wedge_coordinates(self):
        a, b = 0.6, 0.8
        reg = BiHalfspace(
            Halfspace(np.zeros(4), [a, b, 0.0, 0.0]),
            Halfspace(np.zeros(4), [a, -b, 0.0, 0.0]),
        )
        for R in (1.0, 5.0):
            x = np.array([R / a, 0.0, 0.0, 0.0])
            assert region_contains(reg, x)
            assert (x @ reg.first.W) == pytest.approx(R)
            assert (x @ reg.second.W) == pytest.approx(R)

    def test_cone_vertex_rejected(self):
        reg = Cone(V=[0.0, 0.0, 1.0], a=0.5)
        with pytest.raises(DomainError):
            region_contains(reg, np.zeros(3))

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            Cone(V=[0, 0, 1], a=1.0)
        with pytest.raises(InvalidInputError):
            BiHalfspace(
                Halfspace(np.zeros(3), [1, 0, 0]),
                Halfspace(np.zeros(3), [1, 1e-9, 0]),
            )
        with pytest.raises(InvalidInputError):
            check_vertical(BiHalfspace(Halfspace(np.zeros(3), [1, 0, 0]),
                                       Halfspace(np.zeros(3), [0, 1, 0])), [1.0, 0.0, 0.0])

    def test_translation_invariance_of_containment(self):
        # set-level invariance: translating a contained mesh by -tV keeps it contained
        reg = Cone(V=[0.0, 0.0, 1.0], a=0.5)
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(100, 3))
        pts[:, 2] = -np.abs(pts[:, 2]) - 1.0  # below the cone: contained
        assert all(region_contains(reg, p) for p in pts)
        for t in (0.5, 2.0, 10.0):
            shifted = pts - t * np.array([0.0, 0.0, 1.0])
            assert all(region_contains(reg, p) for p in shifted)


class TestFirstExit:
    def test_grim_reaper_exits_every_cone(self):
        ch = grim_reaper_chart(2, t_halfwidth=5.0)
        mesh = Mesh.grid(ch, (121, 5))
        for a in np.arange(0.1, 0.95, 0.1):
            res = first_exit(Cone(V=[0.0, 0.0, 1.0], a=float(a)), mesh)
            assert res.found, f"no witness for a={a}"

    def test_bowl_exits_shifted_halfspace(self, bowl21_chart):
        ch = bowl21_chart
        mesh = Mesh.grid(ch, (40, 16))
        W = np.array([0.6, 0.0, 0.8])
        for t in (0.0, 5.0, 25.0):
            reg = Halfspace(B=-t * np.array([0.0, 0.0, 1.0]), W=W)
            res = first_exit(reg, mesh)
            assert res.found

    def test_bounded_chart_inside_huge_cone_complement(self):
        from rmcf.charts import sphere_chart

        ch = sphere_chart(2, center=np.array([10.0, 0.0, 0.0]))
        mesh = Mesh.grid(ch, 8)
        reg = Cone(V=[0.0, 0.0, 1.0], a=0.9)
        res = first_exit(reg, mesh)
        assert not res.found
        assert res.witness is None


class TestGrowthReport:
    def test_bowl_linear_hypothesis_trivially_satisfied(self, bowl21_chart):
        # r = 1: sigma_0 = 1, so sigma_0/delta -> 0 under any positive bound
        mesh = Mesh.grid(bowl21_chart, (30, 8))
        rep = growth_report(mesh, "HS2-1", {"r": 1, "a": 0.5})
        assert rep.satisfied
        assert rep.bound == pytest.approx(1.0 * 0.5 / (0.5 * 2.0))
        assert rep.to_json_dict()["note"] == "empirical"

    def test_grim_reaper_curvature_hypothesis(self):
        ch = grim_reaper_chart(2, t_halfwidth=1100.0)
        mesh = Mesh.grid(ch, (15, 41))
        rep = growth_report(mesh, "HS2-2", {"r": 1})
        assert rep.satisfied  # |A| <= 1 everywhere on the grim reaper
        assert rep.conclusive  # mesh reaches intrinsic scale 1e3

    def test_synthetic_violation(self):
        from rmcf.charts import oscillating_graph_chart

        ch = oscillating_graph_chart(2, x_lo=3.0, x_hi=1050.0)
        mesh = Mesh.grid(ch, (400, 3))
        rep = growth_report(mesh, "HS1-1", {"r": 2})
        assert not rep.satisfied
        assert rep.tail_estimate > rep.bound

    def test_rotation_about_the_axis_keeps_the_curvature_report(self):
        # a rotation about the bowl's own axis maps the bowl onto itself, and a
        # moved chart keeps its intrinsic distances: the HS2-2 reports agree
        ch = rot_chart(solve_rotational_translator(3, 2, R_max=40.0, tol=1e-9))
        c, s = math.cos(0.7), math.sin(0.7)
        Q = np.array([[c, -s, 0.0, 0.0], [s, c, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0]])
        reports = [growth_report(Mesh.grid(chart, 13), "HS2-2", {"r": 2})
                   for chart in (ch, transform_chart(ch, Q))]
        got, want = (rep.to_json_dict() for rep in reports)
        assert np.array_equal(reports[0].scales, reports[1].scales)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-12), key

    @pytest.mark.parametrize("kind", ["paraboloid", "flat"])
    def test_segment_arclength_fallback(self, kind):
        # without intrinsic_distance, HS2-2 measures each point by the
        # arclength of its parameter segment from the domain centre: the
        # meridian arclength (rho sqrt(1 + c^2 rho^2) + asinh(c rho) / c) / 2
        # on the paraboloid of curvature c, and |u| on the plane
        c = 1.0
        if kind == "paraboloid":
            ch, tol = paraboloid_chart(2, curvature=c, halfwidth=10.0), 1e-9
        else:
            ch, tol = flat_chart(2, halfwidth=10.0), 1e-12
        assert ch.intrinsic_distance is None
        mesh = Mesh.grid(ch, 13)
        rho = np.linalg.norm(mesh.points, axis=1)
        if kind == "paraboloid":
            want = (rho * np.sqrt(1.0 + (c * rho) ** 2) + np.arcsinh(c * rho) / c) / 2.0
        else:
            want = rho
        rep = growth_report(mesh, "HS2-2", {"r": 1})
        want = want[want > _LOGLOG_FLOOR]
        assert rep.scales.shape == want.shape
        assert np.max(np.abs(rep.scales / want - 1.0)) <= tol
        assert rep.scale_reached == pytest.approx(float(np.max(want)), rel=tol)

    @pytest.mark.parametrize("chunk_segments", [3, None])
    def test_segment_arclength_rows_are_one_segment_calls(self, monkeypatch, chunk_segments):
        # each stacked row has the bits of the one-segment quadrature, whose
        # jets, speeds and Simpson sum ran on that segment's nodes alone; a
        # chunk of 3 segments puts boundaries between rows, the default chunk
        # between rows 168 and 169 on the n = 2 charts
        def one_segment(chart, u, b):
            ts = np.linspace(0.0, 1.0, rmcf.charts._SEGMENT_QUAD_POINTS)
            du = u - b
            _, dX, _ = chart.jets(b + ts[:, None] * du)
            velocity = _matvec(dX, du)
            return float(_simpson(np.sqrt(rowdot(velocity, velocity)), ts))

        rng = np.random.default_rng(21)
        for ch in (paraboloid_chart(2, halfwidth=10.0), paraboloid_chart(3, curvature=0.7),
                   sphere_chart(2, radius=30.0), flat_chart(2, halfwidth=10.0),
                   oscillating_graph_chart(2, x_hi=30.0)):
            n = ch.n
            if chunk_segments is not None:
                monkeypatch.setattr(rmcf.charts, "_SEGMENT_CHUNK_ENTRIES",
                                    chunk_segments * rmcf.charts._SEGMENT_QUAD_POINTS
                                    * n * n * (n + 1))
            lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
            U = lo + rng.uniform(0.0, 1.0, (10 if chunk_segments else 400, n)) * (hi - lo)
            for b in (0.5 * (lo + hi), U[1]):
                got = segment_arclength(ch, U, b)
                assert got.shape == (len(U),)
                want = [one_segment(ch, u, b) for u in U]
                assert got.tolist() == want, ch.name
                assert segment_arclength(ch, U[4], b).tolist() == want[4:5]

    def test_simpson_is_scipys_to_the_bit(self):
        # the segment quadrature is scipy.integrate.simpson's arithmetic for
        # an odd sample count, without importing scipy.integrate
        from scipy.integrate import simpson

        rng = np.random.default_rng(3)
        for count in (3, 5, 129, 1001):
            for x in (np.linspace(0.0, 1.0, count), np.sort(rng.uniform(-5.0, 5.0, count))):
                y = rng.standard_normal(count) * 10.0 ** rng.uniform(-3.0, 3.0)
                assert _simpson(y, x).tobytes() == simpson(y, x=x).tobytes()

    def test_small_mesh_rejected(self):
        ch = paraboloid_chart(2)
        mesh = Mesh.grid(ch, 5)
        with pytest.raises(InvalidInputError):
            growth_report(mesh, "HS2-1", {"r": 1, "a": 0.5})

    def test_inconclusive_below_kiloscale(self, bowl21_chart):
        mesh = Mesh.grid(bowl21_chart, (12, 6))
        rep = growth_report(mesh, "HS1-1", {"r": 1})
        assert rep.scale_reached < 1e3 or rep.conclusive


class TestCylinderDistance:
    def test_on_axis(self):
        assert cylinder_distance(2.0, 0.5, [4.0, 0.0, 1.0, -3.0]) == 0.0

    def test_three_four_five(self):
        assert cylinder_distance(1.0, 0.2, [8.0, 4.0, 9.0]) == pytest.approx(5.0)

    def test_trailing_coordinates_ignored(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            tail = rng.normal(size=3)
            X = np.concatenate(([2.0 / 0.4, 0.0], tail))
            assert cylinder_distance(2.0, 0.4, X) == pytest.approx(0.0, abs=1e-14)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            cylinder_distance(-1.0, 0.5, [0.0, 0.0])
        with pytest.raises(InvalidInputError):
            cylinder_distance(1.0, 1.5, [0.0, 0.0])


class TestCylinderHessian:
    def test_eigenvalues(self):
        X = np.array([2.0 / 0.5 + 2.0, 0.0, 7.0])
        d, _, _ = cylinder_hessian_frame(2.0, 0.5, X)
        assert 1.0 / d == pytest.approx(0.5)
        # the Hessian (1/d) chi chi^T: 1/d along chi, zero along the other directions
        eig = np.linalg.eigvalsh(ambient_cylinder_hessian(2.0, 0.5, X))
        assert eig[-1] == pytest.approx(1.0 / d)
        assert np.allclose(eig[:-1], 0.0)

    def test_orthogonality_and_unit(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            X = rng.normal(scale=3.0, size=4)
            try:
                _, g, chi = cylinder_hessian_frame(1.5, 0.6, X)
            except SingularPointError:
                continue
            assert abs(g @ chi) < 1e-14
            assert np.linalg.norm(g) == pytest.approx(1.0, abs=1e-14)
            assert np.linalg.norm(chi) == pytest.approx(1.0, abs=1e-14)
            assert g[-1] == 0.0  # independent of the vertical coordinate

    def test_fd_reconstruction_richardson(self):
        R, a = 1.0, 0.6
        X = np.array([3.2, 1.1, 0.4, -0.7])
        H = ambient_cylinder_hessian(R, a, X)

        def fd_hess(h):
            m = X.size
            out = np.empty((m, m))
            for i in range(m):
                ei = np.zeros(m); ei[i] = h
                out[i, i] = (
                    cylinder_distance(R, a, X + ei)
                    - 2 * cylinder_distance(R, a, X)
                    + cylinder_distance(R, a, X - ei)
                ) / h**2
                for j in range(i + 1, m):
                    ej = np.zeros(m); ej[j] = h
                    out[i, j] = out[j, i] = (
                        cylinder_distance(R, a, X + ei + ej)
                        - cylinder_distance(R, a, X + ei - ej)
                        - cylinder_distance(R, a, X - ei + ej)
                        + cylinder_distance(R, a, X - ei - ej)
                    ) / (4 * h**2)
            return out

        e1 = np.max(np.abs(fd_hess(1e-2) - H))
        e2 = np.max(np.abs(fd_hess(5e-3) - H))
        assert math.log2(e1 / e2) > 1.9

    def test_on_axis_rejected(self):
        with pytest.raises(SingularPointError):
            cylinder_hessian_frame(1.0, 0.5, [2.0, 0.0, 0.0])

    def test_en_inequality(self):
        # <E_{n+1}, N>^2 <= 2 (1 +- <N, grad d>) with 1e-12 slack
        rng = np.random.default_rng(12)
        worst = np.inf
        for _ in range(2000):
            X = rng.normal(scale=4.0, size=4)
            try:
                _, g, _ = cylinder_hessian_frame(1.0, 0.5, X)
            except SingularPointError:
                continue
            N = rng.normal(size=4)
            N /= np.linalg.norm(N)
            lhs = N[-1] ** 2
            for s in (1.0, -1.0):
                worst = min(worst, 2.0 * (1.0 + s * float(N @ g)) - lhs)
        assert worst >= -1e-12


class TestPocket:
    def test_mask_rows_are_in_pocket(self):
        # the stacked mask is in_pocket row by row, also on the wedge walls
        # a x1 = +-b x2, on the cylinder d_R = R and at the tangency abscissa
        a, b, R = 0.6, 0.8, 1.0
        t = np.linspace(0.0, 1.0, 11)
        walls = np.concatenate([np.stack([b * t, s * a * t], axis=-1) for s in (1.0, -1.0)])
        theta = np.linspace(0.0, 2.0 * np.pi, 25)
        cylinder = np.stack([R / a + R * np.cos(theta), R * np.sin(theta)], axis=-1)
        special = np.array([[R / a - R, 0.0], [R / a + R, 0.0], [R * b * b / a, 0.3],
                            [R * b * b / a + 1e-12, 0.0], [0.0, 0.0]])
        rng = np.random.default_rng(15)
        scattered = np.stack([rng.uniform(-0.5, 2.5, 400), rng.uniform(-2.0, 2.0, 400)], axis=-1)
        X = np.concatenate([walls, cylinder, special, scattered])
        X = np.concatenate([X, rng.normal(size=(len(X), 2))], axis=1)  # trailing coordinates
        mask = pocket_mask(X, a, b, R)
        assert mask.dtype == bool and mask.shape == (len(X),)
        assert mask.tolist() == [in_pocket(x, a, b, R) for x in X]
        assert all(type(in_pocket(x, a, b, R)) is bool for x in X[:3])
        assert mask[: len(walls)].any()
        assert mask.reshape(2, -1).tolist() == pocket_mask(X.reshape(2, -1, 4), a, b, R).tolist()

    def test_geometry(self):
        a, b, R = 0.6, 0.8, 1.0
        assert in_pocket([0.3, 0.0, 0.0], a, b, R)  # near the wedge vertex
        assert not in_pocket([R / a, 0.0, 0.0], a, b, R)  # on the axis, inside cylinder
        assert not in_pocket([5.0, 0.0, 0.0], a, b, R)  # far side
        assert not in_pocket([0.3, 1.0, 0.0], a, b, R)  # outside the wedge
        # pocket d stays in (R, R/a]
        rng = np.random.default_rng(14)
        for _ in range(500):
            X = np.array([rng.uniform(0, 2), rng.uniform(-2, 2), 0.0])
            if in_pocket(X, a, b, R):
                d = cylinder_distance(R, a, X)
                assert R < d <= R / a + 1e-12


def _wedge(m, W1=(0.6, 0.8), W2=(0.6, -0.8), B1=None, B2=None):
    """A vertical pair in R^m, velocity e_m, through B_i (default the origin)."""
    V = np.eye(m)[-1]
    zero = np.zeros(m)
    halves = [Halfspace(zero if B is None else B, np.append(W, np.zeros(m - 2)))
              for W, B in ((W1, B1), (W2, B2))]
    return BiHalfspace(*halves), V


class TestBiHalfspaceDrive:
    def test_grim_reaper_identity_case(self):
        # r = 1: P_0 = I, eps = 1, and the inequality is an identity
        ch = grim_reaper_chart(2, t_halfwidth=2.0)
        mesh = Mesh.grid(ch, (41, 41))
        rep = bihalfspace_drive(mesh, *_wedge(3), 0.5, 1, 1.0)
        assert not rep.empty
        assert rep.n_points > 10
        assert rep.min_slack >= -1e-6
        assert rep.min_slack == pytest.approx(0.0, abs=1e-6)

    def test_rbowl_nonnegative_slack(self):
        p = solve_rotational_translator(3, 2, R_max=30.0, tol=1e-9)
        ch = rot_chart(p)
        mesh = Mesh.grid(ch, (25, 9, 17))
        eps = min_eigen_over_mesh(mesh, 2)
        assert eps >= -1e-10
        rep = bihalfspace_drive(mesh, *_wedge(4), 2.0, 2, max(eps, 0.0))
        assert not rep.empty
        assert rep.min_slack >= -1e-6

    @pytest.mark.parametrize("turned", [False, True])
    def test_pair_order(self, turned):
        # the verdict does not depend on which half-space is listed first
        ch = rot_chart(solve_rotational_translator(3, 2, R_max=40.0, tol=1e-9))
        mesh = Mesh.grid(ch, 13)
        W1, W2 = np.array([0.6, 0.8]), np.array([0.6, -0.8])
        B1 = B2 = None
        if turned:
            c, s = math.cos(0.4), math.sin(0.4)
            W1, W2 = (np.array([[c, -s], [s, c]]) @ W for W in (W1, W2))
            B1, B2 = np.array([0.3, -0.2, 0.0, 1.0]), np.array([-0.1, 0.4, 0.5, 0.0])
        got, want = (bihalfspace_drive(mesh, *_wedge(4, *pair), 2.0, 2, 0.01).to_json_dict()
                     for pair in ((W1, W2, B1, B2), (W2, W1, B2, B1)))
        assert got["n_points"] > 0
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10, abs=1e-14), key

    def test_empty_intersection(self):
        from rmcf.charts import sphere_chart

        ch = sphere_chart(2, center=np.array([-40.0, 0.0, 0.0]))
        mesh = Mesh.grid(ch, 6)
        rep = bihalfspace_drive(mesh, *_wedge(3), 1.0, 1, 1.0)
        assert rep.empty
        assert rep.min_slack is None

    def test_degenerate_alignment_identity(self):
        # N orthogonal to chi and parallel to grad d: rhs reduces to
        # +- r <E,N> evaluated directly
        d, grad, chi = cylinder_hessian_frame(1.0, 0.6, np.array([0.2, 0.3, 0.0]))
        N = grad.copy()
        assert d == cylinder_distance(1.0, 0.6, np.array([0.2, 0.3, 0.0]))
        eps, r = 0.7, 2
        rhs = eps * (1.0 - float(chi @ N) ** 2) / d + r * float(N[-1]) * float(grad @ N)
        assert rhs == pytest.approx(eps / d + r * N[-1], abs=1e-12)


class TestNormalizeBiHalfspace:
    @given(st.integers(0, 1000))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        m = 4
        V = np.zeros(m)
        V[-1] = 1.0
        # random vertical transversal pair
        w1 = np.append(rng.normal(size=m - 1), 0.0)
        w2 = np.append(rng.normal(size=m - 1), 0.0)
        w1 /= np.linalg.norm(w1)
        w2 /= np.linalg.norm(w2)
        if np.linalg.norm(w2 - (w2 @ w1) * w1) < 1e-3 or np.linalg.norm(w1 + w2) < 1e-3:
            return
        bhs = BiHalfspace(
            Halfspace(rng.normal(size=m), w1), Halfspace(rng.normal(size=m), w2)
        )
        Q, shift, a, b = normalize_bihalfspace(bhs, V)
        assert a**2 + b**2 == pytest.approx(1.0, abs=1e-12)
        # the frame (e1, e2, V): orthonormal rows, the last one V
        assert Q.shape == (3, m)
        assert np.allclose(Q @ Q.T, np.eye(3), atol=1e-12)
        assert np.array_equal(Q[-1], V)
        # transformed membership matches the wedge inequalities
        for _ in range(20):
            X = rng.normal(scale=5.0, size=m)
            Xp = Q @ (X - shift)
            lhs1 = a * Xp[0] + b * Xp[1]
            lhs2 = a * Xp[0] - b * Xp[1]
            assert lhs1 == pytest.approx(float((X - bhs.first.B) @ w1), abs=1e-9)
            assert lhs2 == pytest.approx(float((X - bhs.second.B) @ w2), abs=1e-9)

    def test_vertical_to_of_the_wrong_length(self):
        # normals in R^4 and a velocity in R^3: a typed error, not numpy's matmul error
        pair = BiHalfspace(Halfspace(np.zeros(4), [0.6, 0.8, 0.0, 0.0]),
                           Halfspace(np.zeros(4), [0.6, -0.8, 0.0, 0.0]))
        with pytest.raises(InvalidInputError, match="4 coordinates"):
            normalize_bihalfspace(pair, [0.0, 0.0, 1.0])


def test_margins_vectorized_consistency():
    reg = Cone(V=[0.0, 0.0, 1.0], a=0.4)
    pts = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, -2.0], [3.0, 0.0, 1.0]])
    ms = violation_margins(reg, pts)
    for p, m in zip(pts, ms):
        assert region_contains(reg, p) == (m <= 0.0)
