"""Parametrized hypersurface patches and the differential operators on them.

A Chart is an immersion patch X: U in R^n -> R^{n+1} handing back analytic
first and second derivatives at every query. From those we build the
induced metric, a deterministic orthonormal frame (inverse Cholesky factor
of g), the unit normal with a per-chart orientation rule, the shape
operator, intrinsic Hessians with Christoffel correction, the operator
L_{r-1} f = tr(P_{r-1} hess f), and the translator residual
sigma_r - <N, V>.

Sign convention: the second fundamental form is II(Y, Z) = <dd X(Y,Z), N>,
so the unit sphere carries A = +I when the normal points inward. Graph
charts orient the normal upward (positive last component); rotational
charts pick <N, E_{n+1}> > 0.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    DomainError,
    InvalidInputError,
    NearOriginError,
    SingularPointError,
    ToleranceError,
)
from .symfun import CurvatureSpectrum, SymMatrix, newton_transform

_RANK_TOL = 1e-8          # smallest singular value of dX below this is singular
_BOUNDARY_MARGIN = 1e-6   # mesh points this close (fractionally) to the box edge are dropped


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class Chart:
    """Immersion patch with analytic jet evaluator.

    ``jet(u)`` returns (X, dX, d2X) with shapes (n+1,), (n+1, n) and
    (n, n, n+1). ``orient_ref``, when set, flips the raw normal so that
    <N, orient_ref> > 0; ``orient_sign`` applies a final sign on top
    (used by ``flipped``). ``intrinsic_distance``, when set, returns the
    distance along the surface from the chart's base point.
    """

    n: int
    param_domain: np.ndarray
    jet: Callable
    kind: str = "custom"
    name: str = ""
    orient_ref: Optional[np.ndarray] = None
    orient_sign: float = 1.0
    intrinsic_distance: Optional[Callable] = None

    def __post_init__(self):
        dom = np.asarray(self.param_domain, dtype=float)
        if dom.shape != (self.n, 2) or not np.all(np.isfinite(dom)):
            raise InvalidInputError(f"param_domain must be a finite ({self.n}, 2) box")
        if np.any(dom[:, 1] <= dom[:, 0]):
            raise InvalidInputError("param_domain box has empty extent on some axis")
        dom = dom.copy()
        dom.setflags(write=False)
        object.__setattr__(self, "param_domain", dom)
        if self.orient_ref is not None:
            ref = np.asarray(self.orient_ref, dtype=float)
            if ref.shape != (self.n + 1,):
                raise InvalidInputError("orient_ref must live in the ambient space")
            ref = ref.copy()
            ref.setflags(write=False)
            object.__setattr__(self, "orient_ref", ref)

    def contains_param(self, u, tol=1e-12):
        u = np.asarray(u, dtype=float)
        lo, hi = self.param_domain[:, 0], self.param_domain[:, 1]
        return bool(np.all(u >= lo - tol) and np.all(u <= hi + tol))

    def domain_diameter(self):
        return float(np.linalg.norm(self.param_domain[:, 1] - self.param_domain[:, 0]))

    def flipped(self):
        """Same patch with the opposite normal orientation."""
        return replace(self, orient_sign=-self.orient_sign)


@dataclass(frozen=True)
class PointGeometry:
    """First and second order data of a chart at one parameter point, with its jet."""

    u: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    d2X: np.ndarray
    N: np.ndarray
    L: np.ndarray          # lower Cholesky factor of g
    A: SymMatrix           # shape operator in the frame E
    sigma: CurvatureSpectrum
    normA: float

    @property
    def jet(self):
        return self.X, self.dX, self.d2X

    @property
    def g(self):
        """Induced metric."""
        return self.dX.T @ self.dX

    @property
    def E(self):
        """(n+1, n) ambient orthonormal tangent frame."""
        return self.dX @ np.linalg.inv(self.L).T

    def sigma_r(self, r):
        return self.sigma.sigma_r(r)

    def tangential(self, w):
        """Frame components of the tangential projection of an ambient vector."""
        return self.E.T @ np.asarray(w, dtype=float)


def _generalized_cross(dX):
    n1 = dX.shape[0]
    minors = np.empty(n1)
    for i in range(n1):
        rows = [j for j in range(n1) if j != i]
        minors[i] = np.linalg.det(dX[rows, :])
    signs = np.where(np.arange(n1) % 2 == 0, 1.0, -1.0)
    return signs * minors


def point_geometry(chart, u):
    """Metric, oriented unit normal, frame shape operator and curvatures at u."""
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (chart.n,):
        raise InvalidInputError(f"parameter point must have {chart.n} coordinates")
    if not chart.contains_param(u, tol=1e-9 * (1.0 + chart.domain_diameter())):
        raise DomainError(f"parameter point {u} outside chart domain")
    X, dX, d2X = chart.jet(u)
    X = np.asarray(X, dtype=float)
    dX = np.asarray(dX, dtype=float)
    d2X = np.asarray(d2X, dtype=float)

    g = dX.T @ dX
    lam_min = float(np.min(np.linalg.eigvalsh(g)))
    if lam_min <= _RANK_TOL**2:
        raise SingularPointError(
            f"rank-deficient chart point: smallest singular value "
            f"{math.sqrt(max(lam_min, 0.0)):.3e} <= {_RANK_TOL:.0e}"
        )
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        raise SingularPointError(f"metric not positive definite at {u}: {exc}") from exc

    raw = _generalized_cross(dX)
    nrm = np.linalg.norm(raw)
    if nrm == 0.0 or not np.isfinite(nrm):
        raise SingularPointError(f"degenerate normal at {u}")
    N = raw / nrm
    if chart.orient_ref is not None:
        s = float(N @ chart.orient_ref)
        if abs(s) < 1e-12:
            raise SingularPointError("orientation reference is tangent at this point")
        if s < 0.0:
            N = -N
    N = chart.orient_sign * N

    II = d2X @ N  # (n, n): <dd X_{ij}, N>
    Linv = np.linalg.inv(L)
    A_frame = Linv @ II @ Linv.T
    A = SymMatrix(A_frame)
    kvals = A.eigenvalues()
    spectrum = CurvatureSpectrum.from_curvatures(kvals)
    return PointGeometry(
        u=u, X=X, dX=dX, d2X=d2X, N=N, L=L, A=A, sigma=spectrum, normA=A.frobenius()
    )


# ---------------------------------------------------------------------------
# scalar fields on charts


def _fd_step(chart, requested=None):
    diam = chart.domain_diameter()
    if requested is not None:
        if requested < 1e-8 * diam:
            raise ToleranceError(
                f"finite-difference step {requested:.2e} underflows "
                f"1e-8 * domain size {diam:.2e}"
            )
        return requested
    return max(1e-5, 1e-6 * diam)


class ScalarField:
    """Function of chart parameters; derivatives default to central differences.

    Second differences use a larger step than first differences to stay
    above the float64 rounding floor.
    """

    def __init__(self, fn, step=None, hess_step=None):
        self._fn = fn
        self._step = step
        self._hess_step = hess_step

    def value(self, chart, u, jet=None):
        return float(self._fn(np.asarray(u, dtype=float)))

    def param_grad(self, chart, u, jet=None):
        u = np.asarray(u, dtype=float)
        h = _fd_step(chart, self._step)
        out = np.empty(chart.n)
        for i in range(chart.n):
            e = np.zeros(chart.n)
            e[i] = h
            out[i] = (self._fn(u + e) - self._fn(u - e)) / (2 * h)
        return out

    def param_hess(self, chart, u, jet=None):
        u = np.asarray(u, dtype=float)
        h = self._hess_step
        if h is None:
            h = max(3e-4, 1e-5 * chart.domain_diameter())
        _fd_step(chart, h)
        n = chart.n
        out = np.empty((n, n))
        f0 = self._fn(u)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            out[i, i] = (self._fn(u + ei) - 2 * f0 + self._fn(u - ei)) / h**2
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                out[i, j] = out[j, i] = (
                    self._fn(u + ei + ej)
                    - self._fn(u + ei - ej)
                    - self._fn(u - ei + ej)
                    + self._fn(u - ei - ej)
                ) / (4 * h**2)
        return out


class AmbientField(ScalarField):
    """Restriction to the chart of an ambient function with analytic derivatives.

    ``grad`` and ``hess`` act on ambient points; the pullback of the
    parameter derivatives is exact, which is what the 1e-7 scale operator
    identities need.
    """

    def __init__(self, fn, grad, hess):
        self._afn = fn
        self._agrad = grad
        self._ahess = hess

    def value_at(self, X):
        return float(self._afn(np.asarray(X, dtype=float)))

    def grad_at(self, X):
        return np.asarray(self._agrad(np.asarray(X, dtype=float)), dtype=float)

    def hess_at(self, X):
        return np.asarray(self._ahess(np.asarray(X, dtype=float)), dtype=float)

    def _jet(self, chart, u, jet):
        return chart.jet(u) if jet is None else jet

    def value(self, chart, u, jet=None):
        X, _, _ = self._jet(chart, u, jet)
        return self.value_at(X)

    def param_grad(self, chart, u, jet=None):
        X, dX, _ = self._jet(chart, u, jet)
        return dX.T @ self.grad_at(X)

    def param_hess(self, chart, u, jet=None):
        X, dX, d2X = self._jet(chart, u, jet)
        H = self.hess_at(X)
        G = self.grad_at(X)
        return dX.T @ H @ dX + d2X @ G


def linear_height(W):
    """f(X) = <X, W>."""
    W = np.asarray(W, dtype=float)
    return AmbientField(
        lambda X: X @ W,
        lambda X: W,
        lambda X: np.zeros((W.size, W.size)),
    )


def distance_to(origin):
    """f(X) = |X - origin| with its exact ambient gradient and Hessian."""
    o = np.asarray(origin, dtype=float)

    def _check(X):
        y = X - o
        d = np.linalg.norm(y)
        if d < 1e-8:
            raise NearOriginError(f"distance field evaluated {d:.2e} from its center")
        return y, d

    def fn(X):
        return _check(X)[1]

    def grad(X):
        y, d = _check(X)
        return y / d

    def hess(X):
        y, d = _check(X)
        yh = y / d
        return (np.eye(y.size) - np.outer(yh, yh)) / d

    return AmbientField(fn, grad, hess)


def distance_sq_to(origin):
    """f(X) = |X - origin|^2."""
    o = np.asarray(origin, dtype=float)
    return AmbientField(
        lambda X: float((X - o) @ (X - o)),
        lambda X: 2.0 * (X - o),
        lambda X: 2.0 * np.eye(o.size),
    )


def cone_excess(V, a, origin=None):
    """psi(X) = <X, V> - a |X - origin|; nonpositive exactly on the cone complement."""
    V = np.asarray(V, dtype=float)
    o = np.zeros(V.size) if origin is None else np.asarray(origin, dtype=float)
    dist = distance_to(o)
    return AmbientField(
        lambda X: float(X @ V) - a * dist.value_at(X),
        lambda X: V - a * dist.grad_at(X),
        lambda X: -a * dist.hess_at(X),
    )


# ---------------------------------------------------------------------------
# intrinsic derivatives and the L operator


def intrinsic_hessian(chart, f, u, pg=None):
    """hess f in the orthonormal frame: second partials minus Christoffel term."""
    if pg is None:
        pg = point_geometry(chart, u)
    jet = pg.jet
    _, dX, d2X = jet
    df = f.param_grad(chart, u, jet)
    d2f = f.param_hess(chart, u, jet)
    # Gamma^k_{ij} = g^{kl} <dd X_{ij}, d X_l>
    c = d2X @ dX  # (n, n, n): c[i, j, l]
    gamma = np.linalg.solve(pg.g, c.reshape(-1, chart.n).T).T.reshape(c.shape)
    hess_coord = d2f - gamma @ df
    Linv = np.linalg.inv(pg.L)
    return SymMatrix(Linv @ hess_coord @ Linv.T)


def frame_gradient(chart, f, u, pg=None):
    """Gradient components in the orthonormal frame (solve L x = df)."""
    if pg is None:
        pg = point_geometry(chart, u)
    df = f.param_grad(chart, u, pg.jet)
    return np.linalg.solve(pg.L, df)


def gradient_norm(chart, f, u, pg=None):
    """Intrinsic |grad f| via the inverse metric."""
    return float(np.linalg.norm(frame_gradient(chart, f, u, pg=pg)))


def L_operator(chart, f, u, r, pg=None):
    """L_{r-1} f = tr(P_{r-1} hess f) in the orthonormal frame."""
    if not isinstance(r, (int, np.integer)) or r < 1 or r > chart.n:
        raise DomainError(f"L operator needs 1 <= r <= n (got r={r}, n={chart.n})")
    if pg is None:
        pg = point_geometry(chart, u)
    H = intrinsic_hessian(chart, f, u, pg=pg)
    P = newton_transform(pg.A, r - 1)
    return float(np.trace(P.entries @ H.entries))


def laplace_beltrami(chart, f, u, pg=None):
    """Trace of the intrinsic Hessian (the r = 1 case of the L operator)."""
    return float(np.trace(intrinsic_hessian(chart, f, u, pg=pg).entries))


def L_distance(chart, u, r, origin, pg=None):
    """Closed form for L_{r-1} of the distance-to-origin function.

    (1/d)[(n-r+1) sigma_{r-1} + r sigma_r <X-o, N>]
      - (1/d^3) <P_{r-1} (X-o)^T, (X-o)^T>
    with the tangential projection taken in the orthonormal frame.
    """
    if not isinstance(r, (int, np.integer)) or r < 1 or r > chart.n:
        raise DomainError(f"L_distance needs 1 <= r <= n (got r={r}, n={chart.n})")
    if pg is None:
        pg = point_geometry(chart, u)
    o = np.asarray(origin, dtype=float)
    y = pg.X - o
    d = float(np.linalg.norm(y))
    if d < 1e-8:
        raise NearOriginError(f"chart point within {d:.2e} of the distance origin")
    n = chart.n
    s_rm1 = pg.sigma_r(r - 1)
    s_r = pg.sigma_r(r)
    t = pg.tangential(y)
    P = newton_transform(pg.A, r - 1)
    quad = float(t @ (P.entries @ t))
    return ((n - r + 1) * s_rm1 + r * s_r * float(y @ pg.N)) / d - quad / d**3


def soliton_residual(chart, u, V, r, pg=None):
    """sigma_r - <N, V>; vanishes exactly on translators with velocity V."""
    V = np.asarray(V, dtype=float).ravel()
    if V.shape != (chart.n + 1,):
        raise InvalidInputError("velocity must be an ambient vector")
    if abs(np.linalg.norm(V) - 1.0) > 1e-10:
        raise InvalidInputError("velocity must be a unit vector")
    if pg is None:
        pg = point_geometry(chart, u)
    return pg.sigma_r(r) - float(pg.N @ V)


# ---------------------------------------------------------------------------
# derivative cross-checks


def fd_jet_error(chart, u, h):
    """Max deviation of the analytic dX / d2X from central differences of X."""
    u = np.asarray(u, dtype=float)
    n = chart.n
    _, dX, d2X = chart.jet(u)

    def pos(q):
        return np.asarray(chart.jet(q)[0], dtype=float)

    err1 = 0.0
    err2 = 0.0
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        xp, xm = pos(u + ei), pos(u - ei)
        err1 = max(err1, float(np.max(np.abs((xp - xm) / (2 * h) - dX[:, i]))))
        x0 = pos(u)
        err2 = max(
            err2, float(np.max(np.abs((xp - 2 * x0 + xm) / h**2 - d2X[i, i, :])))
        )
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            mixed = (
                pos(u + ei + ej) - pos(u + ei - ej) - pos(u - ei + ej) + pos(u - ei - ej)
            ) / (4 * h**2)
            err2 = max(err2, float(np.max(np.abs(mixed - d2X[i, j, :]))))
    return err1, err2


def richardson_slope(err_h, err_h2):
    """Observed convergence order from errors at steps h and h/2."""
    if err_h2 <= 0.0:
        return np.inf
    return math.log2(err_h / err_h2)


# ---------------------------------------------------------------------------
# meshes


@dataclass(frozen=True)
class Mesh:
    """Structured sample of a chart's parameter box.

    The outermost grid layer is flagged as boundary (used to detect
    boundary-dominated maximizer runs); points within a 1e-6 fraction of
    the box edge are excluded at construction.
    """

    chart: Chart
    points: np.ndarray
    boundary: np.ndarray
    shape: tuple
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @classmethod
    def grid(cls, chart, counts, inset=0.0):
        n = chart.n
        if isinstance(counts, (int, np.integer)):
            counts = (int(counts),) * n
        counts = tuple(int(c) for c in counts)
        if len(counts) != n or any(c < 2 for c in counts):
            raise InvalidInputError("need at least 2 grid points per axis")
        axes = []
        for i in range(n):
            lo, hi = chart.param_domain[i]
            m = max(_BOUNDARY_MARGIN * (hi - lo), inset)
            axes.append(np.linspace(lo + m, hi - m, counts[i]))
        grids = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([g.ravel() for g in grids], axis=-1)
        bmask = np.zeros(counts, dtype=bool)
        for i in range(n):
            sl = [slice(None)] * n
            sl[i] = 0
            bmask[tuple(sl)] = True
            sl[i] = counts[i] - 1
            bmask[tuple(sl)] = True
        pts.setflags(write=False)
        bflat = bmask.ravel()
        bflat.setflags(write=False)
        return cls(chart=chart, points=pts, boundary=bflat, shape=counts)

    def __len__(self):
        return self.points.shape[0]

    def positions(self):
        """Ambient positions X(u) of every mesh point, stacked from ``geometry()``."""
        if "X" not in self._cache:
            xs = np.array([pg.X for pg in self.geometry()], dtype=float)
            xs.setflags(write=False)
            self._cache["X"] = xs
        return self._cache["X"]

    def geometry(self):
        """PointGeometry at every mesh point (computed once)."""
        if "geom" not in self._cache:
            self._cache["geom"] = [point_geometry(self.chart, u) for u in self.points]
        return self._cache["geom"]

    def geometry_where(self, keep):
        """PointGeometry at the mesh points whose position X passes ``keep(X)``.

        Before ``geometry()`` is built, the points left out cost only their X.
        """
        if "geom" in self._cache:
            return [pg for pg in self._cache["geom"] if keep(pg.X)]
        return [point_geometry(self.chart, u) for u in self.points
                if keep(np.asarray(self.chart.jet(u)[0], dtype=float))]

    def spacing(self):
        """Max ambient distance between axis-neighbors: the mesh resolution."""
        if "spacing" not in self._cache:
            xs = self.positions().reshape(self.shape + (-1,))
            worst = 0.0
            for i in range(len(self.shape)):
                d = np.diff(xs, axis=i)
                if d.size:
                    worst = max(worst, float(np.max(np.linalg.norm(d, axis=-1))))
            self._cache["spacing"] = worst
        return self._cache["spacing"]

    def refined(self, factor=2):
        counts = tuple((c - 1) * factor + 1 for c in self.shape)
        return Mesh.grid(self.chart, counts)


# ---------------------------------------------------------------------------
# chart constructors


def graph_chart(
    n,
    height,
    grad,
    hess,
    domain,
    kind="graph",
    name="graph",
    orient_up=True,
    derivative_bias=0.0,
):
    """Chart of a height function X = (u, h(u)) with the upward normal.

    ``derivative_bias`` perturbs the reported first derivatives without
    touching positions; it exists so consistency checks can be fed a
    deliberately corrupted jet.
    """
    dom = np.asarray(domain, dtype=float)

    def jet(u):
        u = np.asarray(u, dtype=float)
        X = np.empty(n + 1)
        X[:n] = u
        X[n] = height(u)
        dX = np.zeros((n + 1, n))
        dX[:n, :] = np.eye(n)
        dX[n, :] = grad(u)
        if derivative_bias:
            dX = dX * (1.0 + derivative_bias)
        d2X = np.zeros((n, n, n + 1))
        d2X[:, :, n] = hess(u)
        return X, dX, d2X

    ref = np.zeros(n + 1)
    ref[n] = 1.0 if orient_up else -1.0
    return Chart(n=n, param_domain=dom, jet=jet, kind=kind, name=name, orient_ref=ref)


def flat_chart(n, halfwidth=1.0):
    """Hyperplane through the origin, graph of the zero height function."""
    dom = np.array([[-halfwidth, halfwidth]] * n)
    return graph_chart(
        n,
        lambda u: 0.0,
        lambda u: np.zeros(n),
        lambda u: np.zeros((n, n)),
        dom,
        name="flat",
    )


def paraboloid_chart(n, curvature=1.0, halfwidth=1.0, derivative_bias=0.0):
    """Graph of (c/2) |u|^2; umbilic with k_i = c at the origin."""
    dom = np.array([[-halfwidth, halfwidth]] * n)
    c = float(curvature)
    return graph_chart(
        n,
        lambda u: 0.5 * c * float(u @ u),
        lambda u: c * u,
        lambda u: c * np.eye(n),
        dom,
        name="paraboloid",
        derivative_bias=derivative_bias,
    )


def sphere_chart(n, radius=1.0, center=None, cap="upper"):
    """Spherical cap as a graph patch, oriented by the inward normal.

    With the inward normal the shape operator is +I/radius everywhere.
    """
    if cap not in ("upper", "lower"):
        raise InvalidInputError("cap must be 'upper' or 'lower'")
    rho = float(radius)
    if rho <= 0:
        raise InvalidInputError("radius must be positive")
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    sign = 1.0 if cap == "upper" else -1.0
    halfwidth = 0.6 * rho / math.sqrt(n)
    dom = np.array([[c[i] - halfwidth, c[i] + halfwidth] for i in range(n)])

    def _s(u):
        q = u - c[:n]
        return math.sqrt(rho**2 - float(q @ q)), q

    def height(u):
        s, _ = _s(u)
        return c[n] + sign * s

    def grad(u):
        s, q = _s(u)
        return -sign * q / s

    def hess(u):
        s, q = _s(u)
        return -sign * (np.eye(n) / s + np.outer(q, q) / s**3)

    ch = graph_chart(n, height, grad, hess, dom, name=f"sphere-{cap}-cap")
    # inward normal: points toward the center, i.e. against the cap side
    ref = np.zeros(n + 1)
    ref[n] = -sign
    return replace(ch, orient_ref=ref, kind="graph")


def oscillating_graph_chart(n, x_lo=2.0, x_hi=12.0, halfwidth=1.0):
    """Graph with bounded slope but curvature growing like the cube of scale.

    Height sin(x1^4) / (4 x1^3): the first derivative stays O(1) while the
    second derivative envelope grows like x1^3, a prescribed-growth
    counterexample chart for the quadratic-log growth hypotheses.
    """
    dom = np.array([[x_lo, x_hi]] + [[-halfwidth, halfwidth]] * (n - 1))

    def height(u):
        x = u[0]
        return math.sin(x**4) / (4 * x**3)

    def grad(u):
        x = u[0]
        out = np.zeros(n)
        out[0] = math.cos(x**4) - 0.75 * math.sin(x**4) / x**4
        return out

    def hess(u):
        x = u[0]
        out = np.zeros((n, n))
        out[0, 0] = (
            -4.0 * x**3 * math.sin(x**4)
            - 3.0 * math.cos(x**4) / x
            + 3.0 * math.sin(x**4) / x**5
        )
        return out

    return graph_chart(n, height, grad, hess, dom, name="oscillating-graph")


def transform_chart(chart, Q, shift=None, name=None):
    """Rigid motion X -> Q X + shift applied to a chart."""
    Q = np.asarray(Q, dtype=float)
    m = chart.n + 1
    if Q.shape != (m, m) or np.max(np.abs(Q.T @ Q - np.eye(m))) > 1e-10:
        raise InvalidInputError("Q must be an ambient orthogonal matrix")
    s = np.zeros(m) if shift is None else np.asarray(shift, dtype=float)
    base = chart.jet

    def jet(u):
        X, dX, d2X = base(u)
        return Q @ X + s, Q @ dX, d2X @ Q.T

    ref = None if chart.orient_ref is None else Q @ chart.orient_ref
    return Chart(
        n=chart.n,
        param_domain=chart.param_domain,
        jet=jet,
        kind=chart.kind,
        name=name or (chart.name + "-moved"),
        orient_ref=ref,
        orient_sign=chart.orient_sign,
        intrinsic_distance=None,
    )


def segment_arclength(chart, u, base_u, quad_points=129):
    """Arclength of the straight parameter segment from base_u to u.

    Exact along meridians and product factors; an upper bound for the
    intrinsic distance in general.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(base_u, dtype=float)
    ts = np.linspace(0.0, 1.0, quad_points)
    du = u - b
    speeds = np.empty(quad_points)
    for i, t in enumerate(ts):
        _, dX, _ = chart.jet(b + t * du)
        speeds[i] = np.linalg.norm(dX @ du)
    from scipy.integrate import simpson

    return float(simpson(speeds, x=ts))
