"""The batched mesh geometry against the per-point algebra it replaced.

The scalar graph jets, the scalar hyperspherical jet, the scalar
rotational-chart jet closure, the per-point geometry body and the
per-point operators (parameter derivatives corrected by Christoffel
symbols) live on here as reference oracles; the batched path
must match them row by row, and permuting or sub-selecting the parameter
rows must permute its outputs bit for bit.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcf import kernels
from rmcf.charts import (
    AmbientField,
    Chart,
    L_operator,
    Mesh,
    MeshGeometry,
    _matvec,
    cone_excess,
    distance_sq_to,
    flat_chart,
    linear_height,
    mesh_geometry,
    oscillating_graph_chart,
    paraboloid_chart,
    point_geometry,
    sphere_chart,
)
from rmcf.errors import DomainError, SingularPointError
from rmcf.regions import (
    BiHalfspace,
    Halfspace,
    bihalfspace_drive,
    min_eigen_over_mesh,
    normalize_bihalfspace,
)
from rmcf.symfun import SymMatrix
from rmcf.translators import _omega_jet, grim_reaper_chart, rot_chart, solve_rotational_translator

from fd_fields import ScalarField
from lsoda_oracle import dense_upp, solve_ivp_oracle
from scalar_api import frame_gradient, transform_chart

# ---------------------------------------------------------------------------
# oracles: the scalar code the batched path replaced


def _omega_jet_scalar(phi):
    phi = np.asarray(phi, dtype=float)
    m = phi.size
    n = m + 1
    sin, cos = np.sin(phi), np.cos(phi)
    omega = np.empty(n)
    dom = np.zeros((m, n))
    ddom = np.zeros((m, m, n))

    for i in range(n):
        if i < n - 1:
            angles = list(range(i + 1))
            kinds = ["sin"] * i + ["cos"]
        else:
            angles = list(range(m))
            kinds = ["sin"] * m
        vals = np.array([sin[a] if k == "sin" else cos[a] for a, k in zip(angles, kinds)])
        d1 = np.array([cos[a] if k == "sin" else -sin[a] for a, k in zip(angles, kinds)])

        def prod_except(skip=()):
            p = 1.0
            for t, v in enumerate(vals):
                if t not in skip:
                    p *= v
            return p

        omega[i] = prod_except()
        for t, a in enumerate(angles):
            dom[a, i] = prod_except((t,)) * d1[t]
        for t, a in enumerate(angles):
            ddom[a, a, i] = prod_except((t,)) * (-vals[t])
            for t2 in range(t + 1, len(angles)):
                b = angles[t2]
                val = prod_except((t, t2)) * d1[t] * d1[t2]
                ddom[a, b, i] = val
                ddom[b, a, i] = val
    return omega, dom, ddom


def _rot_jet_scalar(profile, tol=1e-10):
    """The scalar rotational-chart jet closure of a profile solved at ``tol``.

    u and u' come from the profile's dense-output rows, and u'' from the
    derivative of the interpolants of scipy's ``OdeSolution`` for the same
    solve (``dense_upp``).
    """
    n = profile.n
    sol = solve_ivp_oracle(n, profile.r, profile.R_max, tol)

    def jet(q):
        q = np.asarray(q, dtype=float)
        R = float(q[0])
        u_val, up = (float(v[0]) for v in profile._dense_rows([R])[:2])
        upp = float(dense_upp(sol, R)[0])
        if n == 1:
            X = np.array([R, u_val])
            dX = np.array([[1.0], [up]])
            d2X = np.zeros((1, 1, 2))
            d2X[0, 0, 1] = upp
            return X, dX, d2X
        omega, dom_, ddom = _omega_jet_scalar(q[1:])
        X = np.concatenate((R * omega, [u_val]))
        dX = np.zeros((n + 1, n))
        dX[:n, 0] = omega
        dX[n, 0] = up
        for a in range(n - 1):
            dX[:n, a + 1] = R * dom_[a]
        d2X = np.zeros((n, n, n + 1))
        d2X[0, 0, n] = upp
        for a in range(n - 1):
            d2X[0, a + 1, :n] = dom_[a]
            d2X[a + 1, 0, :n] = dom_[a]
            for b in range(n - 1):
                d2X[a + 1, b + 1, :n] = R * ddom[a, b]
        return X, dX, d2X

    return jet


def _graph_jet_scalar(n, height, grad, hess):
    """The scalar graph-chart jet of X = (u, h(u))."""

    def jet(u):
        u = np.asarray(u, dtype=float)
        d2X = np.zeros((n, n, n + 1))
        d2X[:, :, n] = hess(u)
        return np.append(u, height(u)), np.vstack((np.eye(n), grad(u))), d2X

    return jet


def _paraboloid_jet_scalar(n, c):
    return _graph_jet_scalar(
        n, lambda u: 0.5 * c * float(u @ u), lambda u: c * u, lambda u: c * np.eye(n)
    )


def _upper_sphere_jet_scalar(n, rho):
    """The upper cap of the sphere of radius rho about the origin."""

    def s(u):
        return math.sqrt(rho**2 - float(u @ u))

    return _graph_jet_scalar(
        n, s, lambda u: -u / s(u), lambda u: -(np.eye(n) / s(u) + np.outer(u, u) / s(u) ** 3)
    )


def _grim_reaper_jet_scalar(n):
    e0 = np.eye(n)[0]
    return _graph_jet_scalar(
        n,
        lambda u: -math.log(math.cos(u[0])),
        lambda u: math.tan(u[0]) * e0,
        lambda u: np.outer(e0, e0) / math.cos(u[0]) ** 2,
    )


def _moved_jet_scalar(base_jet, Q, s):
    def jet(u):
        X, dX, d2X = base_jet(u)
        return Q @ X + s, Q @ dX, d2X @ Q.T

    return jet


def _generalized_cross_scalar(dX):
    n1 = dX.shape[0]
    minors = np.empty(n1)
    for i in range(n1):
        rows = [j for j in range(n1) if j != i]
        minors[i] = np.linalg.det(dX[rows, :])
    signs = np.where(np.arange(n1) % 2 == 0, 1.0, -1.0)
    return signs * minors


def _point_geometry_scalar(chart, u, jet):
    """The per-point geometry body, with the chart's jet supplied by ``jet``."""
    X, dX, d2X = (np.asarray(a, dtype=float) for a in jet(u))
    g = dX.T @ dX
    assert np.min(np.linalg.eigvalsh(g)) > 1e-16
    L = np.linalg.cholesky(g)
    raw = _generalized_cross_scalar(dX)
    N = raw / np.linalg.norm(raw)
    if float(N @ chart.orient_ref) < 0.0:
        N = -N
    II = d2X @ N
    Linv = np.linalg.inv(L)
    A = SymMatrix(Linv @ II @ Linv.T)
    k = A.eigenvalues()
    return {
        "u": np.asarray(u, dtype=float), "X": X, "dX": dX, "d2X": d2X, "N": N, "L": L,
        "E": dX @ Linv.T, "A": A.entries, "k": k, "sigma": kernels.sigma_table(k[None])[0],
        "normA": float(np.linalg.norm(A.entries)), "g": g,
    }


def _newton_scalar(A, sig, r):
    n = A.shape[0]
    P = np.eye(n)
    for j in range(1, r + 1):
        P = sig[j] * np.eye(n) - A @ P
    return 0.5 * (P + P.T)


def _param_derivatives_scalar(chart, f, pg):
    """Parameter gradient and Hessian of a field at one point, per-point algebra.

    An ambient field's derivatives are pulled back through the point's jet;
    a parameter field gets its central-difference stencils.
    """
    X, dX, d2X = pg["X"], pg["dX"], pg["d2X"]
    if isinstance(f, AmbientField):
        G = np.asarray(f.grad_at(X), dtype=float)
        H = np.asarray(f.hess_at(X), dtype=float)
        return dX.T @ G, dX.T @ H @ dX + d2X @ G
    df, d2f = f.param_derivatives(chart, pg["u"][None])
    return df[0], d2f[0]


def _operators_scalar(chart, f, pg, r):
    """Frame gradient, intrinsic Hessian and L_{r-1} f at one point, per-point algebra."""
    n = chart.n
    dX, d2X = pg["dX"], pg["d2X"]
    df, d2f = _param_derivatives_scalar(chart, f, pg)
    c = d2X @ dX
    gamma = np.linalg.solve(pg["g"], c.reshape(-1, n).T).T.reshape(c.shape)
    Linv = np.linalg.inv(pg["L"])
    H = Linv @ (d2f - gamma @ df) @ Linv.T
    H = 0.5 * (H + H.T)
    P = _newton_scalar(pg["A"], pg["sigma"], r - 1)
    return np.linalg.solve(pg["L"], df), H, float(np.trace(P @ H))


# ---------------------------------------------------------------------------
# charts under test, each with its oracle jet


def _rotation(m, angle):
    Q = np.eye(m)
    c, s = math.cos(angle), math.sin(angle)
    Q[0, 0], Q[0, 1], Q[1, 0], Q[1, 1] = c, -s, s, c
    return Q


@pytest.fixture(scope="module")
def cases(translator_charts, profiles):
    reaper_jet = _grim_reaper_jet_scalar(2)
    out = {
        "graph-grim-reaper": (translator_charts["grim-reaper"], reaper_jet),
        "graph-paraboloid": (paraboloid_chart(3, curvature=0.8), _paraboloid_jet_scalar(3, 0.8)),
        "sphere-2": (sphere_chart(2), _upper_sphere_jet_scalar(2, 1.0)),
        "sphere-3": (sphere_chart(3, radius=2.0), _upper_sphere_jet_scalar(3, 2.0)),
    }
    for key in ((2, 1), (3, 2), (4, 3)):
        out[f"rot-{key}"] = (translator_charts[key], _rot_jet_scalar(profiles[key]))
    Q = _rotation(4, 0.7)
    shift = np.array([1.0, -2.0, 0.5, 3.0])
    out["moved-rot"] = (
        transform_chart(translator_charts[(3, 2)], Q, shift=shift),
        _moved_jet_scalar(_rot_jet_scalar(profiles[(3, 2)]), Q, shift),
    )
    Q3 = _rotation(3, -1.1)[::-1].copy()
    out["moved-graph"] = (
        transform_chart(translator_charts["grim-reaper"], Q3),
        _moved_jet_scalar(reaper_jet, Q3, np.zeros(3)),
    )
    return out


def _rows(data, chart, max_rows=8):
    lo, hi = chart.param_domain[:, 0], chart.param_domain[:, 1]
    fracs = data.draw(st.lists(
        st.lists(st.floats(0.02, 0.98), min_size=chart.n, max_size=chart.n),
        min_size=1, max_size=max_rows,
    ))
    return lo + np.asarray(fracs) * (hi - lo)


def _assert_close(got, want, what, scale=None):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    ref = np.abs(want) if scale is None else scale
    bad = np.abs(got - want) > 1e-12 * ref + 1e-13
    assert not np.any(bad), (
        f"{what}: max deviation {np.max(np.abs(got - want)):.3e} at {np.argwhere(bad)[0]}"
    )


# closed-form charts whose derivatives stay moderate up to the domain edge; the
# Grim Reaper's blow up near x = +-pi/2, where second differences lose digits
FD_CASE_NAMES = ["graph-paraboloid", "sphere-2", "sphere-3"]
CASE_NAMES = ["graph-grim-reaper", "graph-paraboloid", "sphere-2", "sphere-3", "rot-(2, 1)",
              "rot-(3, 2)", "rot-(4, 3)", "moved-rot", "moved-graph"]


class TestAgainstScalarOracles:
    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_omega_jet(self, data):
        m = data.draw(st.integers(1, 4))
        phi = np.asarray(data.draw(st.lists(
            st.lists(st.floats(0.3, 2.0 * math.pi - 0.3), min_size=m, max_size=m),
            min_size=1, max_size=6,
        )))
        got = _omega_jet(phi)
        for i, row in enumerate(phi):
            for g, w, what in zip(got, _omega_jet_scalar(row), ("omega", "dom", "ddom")):
                _assert_close(g[i], w, what)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_jets_and_geometry_rows(self, cases, data):
        name = data.draw(st.sampled_from(CASE_NAMES))
        chart, jet = cases[name]
        U = _rows(data, chart)
        X, dX, d2X = chart.jets(U)
        mg = mesh_geometry(chart, U)
        assert len(mg) == len(U)
        for i, u in enumerate(U):
            want = _point_geometry_scalar(chart, u, jet)
            for key, got in (("X", X), ("dX", dX), ("d2X", d2X)):
                _assert_close(got[i], want[key], f"{name} jet {key}")
            for key in ("X", "N", "E", "A", "k", "sigma", "normA"):
                _assert_close(getattr(mg, key)[i], want[key], f"{name} {key}")
            pg = point_geometry(chart, u)
            _assert_close(pg.A[0], want["A"], f"{name} row A")
            _assert_close(pg.sigma_r(chart.n)[0], want["sigma"][chart.n], f"{name} row sigma_n")

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_operators(self, cases, data):
        name = data.draw(st.sampled_from(CASE_NAMES))
        chart, jet = cases[name]
        U = _rows(data, chart)
        r = data.draw(st.integers(1, chart.n))
        m1 = chart.n + 1
        V = np.zeros(m1)
        V[-1] = 1.0
        fields = [linear_height(_rotation(m1, 0.4) @ V), distance_sq_to(np.full(m1, 0.1)),
                  cone_excess(V, 0.3, origin=np.full(m1, -5.0))]
        mg = mesh_geometry(chart, U)
        for f in fields:
            grads, hess, Ls = mg.frame_gradient(f), mg.intrinsic_hessian(f), mg.L_operator(f, r)
            for i, u in enumerate(U):
                pg = _point_geometry_scalar(chart, u, jet)
                want_grad, want_H, want_L = _operators_scalar(chart, f, pg, r)
                # L sums n^2 products of Hessian and P entries: scale by their size
                scale = 1.0 + np.sum(np.abs(want_H)) * (1.0 + pg["normA"]) ** (r - 1)
                _assert_close(grads[i], want_grad, f"{name} frame gradient")
                _assert_close(hess[i], want_H, f"{name} hessian", scale=scale)
                _assert_close(Ls[i], want_L, f"{name} L_{r - 1}", scale=scale)
                _assert_close(L_operator(chart, f, u, r), want_L, f"{name} scalar L", scale=scale)
                _assert_close(frame_gradient(chart, f, u), want_grad, f"{name} scalar grad")

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_gauss_formula_against_finite_differences(self, cases, data):
        # F o X differentiated by central differences in the parameters and
        # corrected by per-point Christoffel symbols shares no algebra with
        # the tangential projection and Gauss formula of the batched path
        name = data.draw(st.sampled_from(FD_CASE_NAMES))
        chart, jet = cases[name]
        U = _rows(data, chart)
        r = data.draw(st.integers(1, chart.n))
        m1 = chart.n + 1
        f = cone_excess(_rotation(m1, 0.4)[:, -1], 0.3, origin=np.full(m1, -5.0))
        composed = ScalarField(lambda P: f.value_at(chart.jets(P)[0]))
        mg = mesh_geometry(chart, U)
        grads, hess, Ls = mg.frame_gradient(f), mg.intrinsic_hessian(f), mg.L_operator(f, r)
        for i, u in enumerate(U):
            pg = _point_geometry_scalar(chart, u, jet)
            want_grad, want_H, want_L = _operators_scalar(chart, composed, pg, r)
            # second differences at step 3e-4 leave up to about 6e-8 relative
            # error on these charts, first differences about 6e-11
            scale = 1.0 + np.sum(np.abs(want_H)) * (1.0 + pg["normA"]) ** (r - 1)
            assert np.max(np.abs(grads[i] - want_grad)) < 1e-8, name
            assert np.max(np.abs(hess[i] - want_H)) < 1e-6 * scale, name
            assert abs(Ls[i] - want_L) < 1e-6 * scale, name


class TestRowIndependence:
    FIELDS = ("u", "X", "dX", "N", "E", "A", "k", "sigma", "normA")

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_permuted_and_subselected_rows(self, cases, data):
        name = data.draw(st.sampled_from(CASE_NAMES))
        chart, _ = cases[name]
        U = _rows(data, chart, max_rows=24)
        idx = np.asarray(data.draw(st.one_of(
            st.permutations(range(len(U))),
            st.lists(st.integers(0, len(U) - 1), min_size=1, max_size=len(U), unique=True),
        )), dtype=int)
        full, part = mesh_geometry(chart, U), mesh_geometry(chart, U[idx])
        for key in self.FIELDS:
            assert np.array_equal(getattr(part, key), getattr(full, key)[idx]), key
        # d2X lives on the jets, not on the geometry
        assert np.array_equal(chart.jets(U[idx])[2], chart.jets(U)[2][idx])
        taken = full.take(idx)
        for key in self.FIELDS:
            assert np.array_equal(getattr(taken, key), getattr(part, key)), key
        f = cone_excess(np.eye(chart.n + 1)[-1], 0.3, origin=np.full(chart.n + 1, -5.0))
        r = chart.n
        assert np.array_equal(part.L_operator(f, r), full.L_operator(f, r)[idx])
        assert np.array_equal(part.frame_gradient(f), full.frame_gradient(f)[idx])
        assert np.array_equal(part.L_distance(r, np.full(chart.n + 1, -5.0)),
                              full.L_distance(r, np.full(chart.n + 1, -5.0))[idx])


    def test_intrinsic_distance_rows(self, translator_charts):
        # the array call gives each row the bits of its one-row call
        for key, ch in translator_charts.items():
            lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
            rng = np.random.default_rng(11)
            U = lo + rng.uniform(0.0, 1.0, (300, ch.n)) * (hi - lo)
            U[:100, 0] = np.linspace(lo[0], hi[0], 100)
            got = ch.intrinsic_distance(U)
            assert got.shape == (len(U),)
            want = np.array([ch.intrinsic_distance(u[None])[0] for u in U])
            assert np.array_equal(got, want), key

    def test_batch_rows_are_one_row_calls(self, translator_charts):
        # every built-in chart kind: row i of a batch has the bits of a
        # one-row call (for the rotational charts many radii share each
        # dense-output segment in the batch)
        reaper = translator_charts["grim-reaper"]
        built_in = {
            "flat": flat_chart(3, halfwidth=2.0),
            "paraboloid": paraboloid_chart(3, curvature=0.8),
            "sphere": sphere_chart(3, radius=2.0, center=[0.5, -1.0, 0.2, 3.0], cap="lower"),
            "oscillating": oscillating_graph_chart(2, x_hi=30.0),
            "grim-reaper": reaper,
            "moved": transform_chart(reaper, _rotation(3, 0.9), shift=[1.0, 2.0, -3.0]),
        }
        built_in.update({key: translator_charts[key] for key in ((2, 1), (3, 2), (4, 3))})
        rng = np.random.default_rng(5)
        for key, ch in built_in.items():
            lo, hi = ch.param_domain[:, 0], ch.param_domain[:, 1]
            U = lo + rng.uniform(0.0, 1.0, (400, ch.n)) * (hi - lo)
            U[:, 0] = np.linspace(lo[0], hi[0], 400)
            batch = ch.jets(U)
            for i, u in enumerate(U):
                for got, want in zip(ch.jets(u), batch):
                    assert np.array_equal(got[0], want[i]), (key, i)


class TestMeshGeometry:
    def test_one_batched_jet_call_per_mesh(self, translator_charts):
        base = translator_charts[(3, 2)]
        calls = []

        def jet(U):
            calls.append(len(U))
            return base.jet(U)

        ch = replace(base, jet=jet)
        mesh = Mesh.grid(ch, (7, 4, 5))
        geom = mesh.geometry()
        assert np.array_equal(mesh.positions(), geom.X)
        assert calls == [len(mesh)]
        assert len(geom) == len(mesh) == len(geom.u)

    def test_positions_then_geometry_one_jet_per_point(self):
        base = paraboloid_chart(2)
        calls = []

        def jet(U):
            calls.append(len(U))
            return base.jet(U)

        mesh = Mesh.grid(replace(base, jet=jet), (6, 5))
        xs = mesh.positions()
        geom = mesh.geometry()
        assert calls == [len(mesh)]
        assert np.array_equal(xs, geom.X)
        assert mesh.positions() is mesh.geometry().X
        assert np.array_equal(geom.take(xs[:, 0] > 0.0).X, geom.X[xs[:, 0] > 0.0])
        assert calls == [len(mesh)]

    def test_take_of_every_row_is_the_geometry(self):
        geom = Mesh.grid(paraboloid_chart(2), 5).geometry()
        every = np.ones(len(geom), dtype=bool)
        assert geom.take(every) is geom
        # index arrays and partial masks copy the rows they keep
        for idx in (np.arange(len(geom)), np.arange(len(geom)) > 0):
            rows = geom.take(idx)
            assert rows is not geom and rows._cache is not geom._cache
            assert np.array_equal(rows.index, geom.index[idx])

    def test_point_geometry_is_a_row(self, translator_charts):
        ch = translator_charts[(4, 2)]
        mesh = Mesh.grid(ch, (3, 2, 2, 3))
        u = mesh.points[7]
        pg, geom = point_geometry(ch, u), mesh.geometry()
        assert isinstance(pg, MeshGeometry) and len(pg) == 1
        for key in ("X", "N", "normA"):
            assert np.array_equal(getattr(pg, key)[0], getattr(geom, key)[7]), key
        assert np.array_equal(pg.A[0], geom.A[7])
        assert np.array_equal(pg.sigma[0], geom.sigma[7])
        # the one-row MeshGeometry of mesh_geometry(chart, [u]), bit for bit
        row = mesh_geometry(ch, [u])
        for key in TestRowIndependence.FIELDS + ("index",):
            assert np.array_equal(getattr(pg, key), getattr(row, key)), key
        assert np.array_equal(ch.jets(u)[2][0], ch.jets(mesh.points)[2][7])

    def test_singular_row_names_its_index(self):
        # X(u) = (u^3, u^2) has dX = 0 at u = 0 only, the centre of the mesh
        def jet(U):
            t = U[:, 0]
            X = np.stack([t**3, t**2], axis=-1)
            dX = np.stack([3.0 * t * t, 2.0 * t], axis=-1)[:, :, None]
            d2X = np.stack([6.0 * t, np.full_like(t, 2.0)], axis=-1)[:, None, None, :]
            return X, dX, d2X

        ch = Chart(n=1, param_domain=np.array([[-1.0, 1.0]]), jet=jet, orient_ref=[0.0, 1.0])
        mesh = Mesh.grid(ch, 5)
        assert mesh.points[2, 0] == 0.0
        with pytest.raises(SingularPointError, match=r"mesh index 2, u = \[0\.\]"):
            mesh.geometry()
        mesh_geometry(ch, mesh.points[[0, 1, 3, 4]])  # the other rows are regular
        with pytest.raises(SingularPointError, match=r"mesh index 1, u = \[0\.\]"):
            mesh_geometry(ch, mesh.points[1:4])  # the singular point is row 1 of these

    def test_rank_errors_keep_their_text(self):
        # a row whose dX has the singular value 1e-9 (its Cholesky factor
        # exists), and a row whose metric eigvalsh calls positive but whose
        # Cholesky factorization fails: the exact messages of the stagewise checks
        def thin(U):
            # X = (u1, u2^3 / 3 + 1e-9 u2, 0)
            m = len(U)
            X = np.zeros((m, 3))
            X[:, 0], X[:, 1] = U[:, 0], U[:, 1] ** 3 / 3.0 + 1e-9 * U[:, 1]
            dX = np.zeros((m, 3, 2))
            dX[:, 0, 0], dX[:, 1, 1] = 1.0, U[:, 1] ** 2 + 1e-9
            return X, dX, np.zeros((m, 2, 2, 3))

        folded_dX = np.array([[-271.13530711663304, -271.13530711663446],
                              [799.4917921672036, 799.4917921672093],
                              [-579.4001859135368, -579.4001859135398]])

        def folded(U):
            m = len(U)
            X = np.zeros((m, 3))
            X[:, :2] = U
            dX = np.zeros((m, 3, 2))
            dX[:, 0, 0] = dX[:, 1, 1] = 1.0
            dX[U[:, 0] > 0.5] = folded_dX
            return X, dX, np.zeros((m, 2, 2, 3))

        U = np.array([[0.0, 0.5], [0.25, -0.5], [0.5, 0.0], [0.75, 0.0], [-0.5, 0.0], [0.9, 0.3]])
        box = np.array([[-1.0, 1.0], [-1.0, 1.0]])
        g = folded_dX.T @ folded_dX
        assert np.min(np.linalg.eigvalsh(g)) > 1e-16
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(g)
        np.linalg.cholesky(np.diag([1.0, 1e-18]))  # thin's metric at u2 = 0
        want = {
            thin: "rank-deficient chart point: smallest singular value 1.000e-09 <= 1e-08"
                  " at mesh index 2, u = [0.5 0. ]",
            folded: "metric not positive definite at mesh index 3, u = [0.75 0.  ]:"
                    " Matrix is not positive definite",
        }
        for jet, text in want.items():
            with pytest.raises(SingularPointError) as err:
                mesh_geometry(Chart(n=2, param_domain=box, jet=jet, orient_ref=np.eye(3)[2]), U)
            assert str(err.value) == text

    def test_mesh_theorems_meshes_take_one_eigvalsh(self, monkeypatch):
        # on the (3, 2) bowl meshes of the bi-half-space, cone and half-space
        # checks, every metric row is certified from its Cholesky factor: the
        # one eigvalsh call is the spectrum of A
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for R_max in (40.0, 1e3):
            ch = rot_chart(solve_rotational_translator(3, 2, R_max=R_max, tol=1e-9))
            calls.clear()
            Mesh.grid(ch, 13).geometry()
            assert calls == [(13**3, 3, 3)], R_max

    def test_domain_error_names_the_row(self):
        ch = paraboloid_chart(2)
        U = np.array([[0.0, 0.0], [0.2, 0.1], [-0.3, 0.4], [5.0, 0.0], [0.1, 0.1]])
        named = r"\[5\. 0\.\] outside chart domain \(mesh index 3\)"
        with pytest.raises(DomainError, match=named):
            mesh_geometry(ch, U)

    def test_empty_selection(self):
        ch = grim_reaper_chart(2)
        mg = mesh_geometry(ch, np.empty((0, 2)))
        assert len(mg) == 0 and mg.sigma.shape == (0, 3)


class TestMovedMesh:
    """Meshes over ``transform_chart``, the rigid-motion oracle of the bi-half-space drive."""

    FIELDS = TestRowIndependence.FIELDS

    @staticmethod
    def _case(translator_charts, name):
        shift4 = np.array([1.0, -2.0, 0.5, 3.0])
        reflect4 = _rotation(4, 0.7) @ np.diag([1.0, -1.0, 1.0, 1.0])
        flip3 = _rotation(3, -1.1)[::-1].copy()  # det -1
        bowl, reaper = translator_charts[(3, 2)], translator_charts["grim-reaper"]
        return {
            "bowl": (bowl, _rotation(4, 0.7), shift4, (9, 5, 6)),
            "bowl-reflected": (bowl, reflect4, shift4, (9, 5, 6)),
            "grim-reaper": (reaper, flip3, np.array([0.3, 0.0, -1.0]), (21, 7)),
        }[name]

    @pytest.mark.parametrize("name", ["bowl", "bowl-reflected", "grim-reaper"])
    def test_matches_recomputation(self, translator_charts, name):
        # the geometry over the moved chart is the parent's under the rigid
        # motion: u, L and normA stay, E turns to Q E and N to Q N (the
        # moved chart's orient_ref is Q orient_ref), reflections included
        chart, Q, shift, counts = self._case(translator_charts, name)
        parent = Mesh.grid(chart, counts).geometry()
        moved = Mesh.grid(transform_chart(chart, Q, shift), counts)
        got = moved.geometry()
        assert moved.chart.intrinsic_distance is chart.intrinsic_distance
        assert np.array_equal(got.index, parent.index)
        s = np.zeros(chart.n + 1) if shift is None else shift
        # the jets are the chart's own, moved
        want = {"X": _matvec(Q, parent.X) + s, "dX": Q @ parent.dX}
        for key, value in want.items():
            assert np.array_equal(getattr(got, key), value), key
        d2X = chart.jets(moved.points)[2]
        assert np.array_equal(moved.chart.jets(moved.points)[2], d2X @ Q.T)
        assert np.array_equal(moved.positions(), want["X"])
        want.update(u=parent.u, normA=parent.normA, E=Q @ parent.E, N=_matvec(Q, parent.N),
                    A=parent.A, k=parent.k, sigma=parent.sigma)
        for key in self.FIELDS:
            g, w = getattr(got, key), want[key]
            scale = max(1.0, float(np.max(np.abs(w))))
            assert np.max(np.abs(g - w)) <= 1e-12 * scale, key

    def test_bihalfspace_drive_report(self, translator_charts):
        # a pair turned 0.4 rad about V and offset from the origin: the drive
        # in the bowl's own frame reports what the drive on a fresh mesh over
        # the moved chart reports for the normalized pair
        chart = translator_charts[(3, 2)]
        V = np.eye(4)[-1]
        turn = _rotation(4, 0.4)
        region = BiHalfspace(Halfspace(B=[0.3, -0.2, 0.0, 1.0], W=turn @ [0.6, 0.8, 0.0, 0.0]),
                             Halfspace(B=[-0.1, 0.4, 0.5, 0.0], W=turn @ [0.6, -0.8, 0.0, 0.0]))
        Q, shift, a, b = normalize_bihalfspace(region, V)
        zero = np.zeros(4)
        wedge = BiHalfspace(Halfspace(B=zero, W=[a, b, 0.0, 0.0]),
                            Halfspace(B=zero, W=[a, -b, 0.0, 0.0]))
        assert np.array_equal(normalize_bihalfspace(wedge, V)[0], np.eye(4)[[0, 1, 3]])
        # the frame's rows lie in the span of axes 1, 2 and 4: axis 3 completes it to a rigid motion
        motion = np.insert(Q, 2, np.eye(4)[2], axis=0)
        assert np.allclose(motion @ motion.T, np.eye(4), atol=1e-15)
        mesh = Mesh.grid(chart, (13, 7, 9))
        mesh.geometry()
        moved = Mesh.grid(transform_chart(chart, motion, -motion @ shift), mesh.shape)
        eps = min_eigen_over_mesh(mesh, 2)
        assert eps == pytest.approx(min_eigen_over_mesh(moved, 2), rel=1e-12)
        got = bihalfspace_drive(mesh, region, V, 2.0, 2, eps).to_json_dict()
        want = bihalfspace_drive(moved, wedge, V, 2.0, 2, eps).to_json_dict()
        assert got["n_points"] > 0 and not got["empty"]
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert got[key] == pytest.approx(value, rel=1e-10, abs=1e-14), key
