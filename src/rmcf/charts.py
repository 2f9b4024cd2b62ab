"""Parametrized hypersurface patches and the differential operators on them.

A Chart is an immersion patch X: U in R^n -> R^{n+1} handing back analytic
first and second derivatives at every query. From those we build the
induced metric, a deterministic orthonormal frame (inverse Cholesky factor
of g), the unit normal with a per-chart orientation rule, the shape
operator, intrinsic gradients and Hessians of ambient fields (tangential
projection and the Gauss formula), the operator L_{r-1} f = tr(P_{r-1} hess f)
and its closed form on distance functions. All of it acts on stacks of
parameter points through ``MeshGeometry``; ``point_geometry`` and
``L_operator`` are its one-row calls.

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
)
from . import kernels
from .symfun import newton_transforms, symmetrized

_RANK_TOL = 1e-8          # smallest singular value of dX below this is singular
_BOUNDARY_MARGIN = 1e-6   # mesh points this close (fractionally) to the box edge are dropped
_SEGMENT_QUAD_POINTS = 129  # speed samples of segment_arclength: odd, so Simpson panels fill it


# ---------------------------------------------------------------------------
# charts


@dataclass(frozen=True)
class Chart:
    """Immersion patch with analytic jet evaluator.

    ``jet(U)`` takes a stack of parameter points U (m, n) and returns
    (X, dX, d2X) with shapes (m, n+1), (m, n+1, n) and (m, n, n, n+1); row
    i depends on U[i] alone, so its bits do not change with the batch
    around it. Callers go through ``jets``. ``orient_ref``, when set, flips
    the raw normal so that <N, orient_ref> > 0; ``orient_sign`` applies a
    final sign on top (used by ``flipped``).
    ``intrinsic_distance``, when set, maps parameter points (m, n) to
    their distances (m,) along the surface from the chart's base point.
    """

    n: int
    param_domain: np.ndarray
    jet: Callable
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

    def jets(self, U):
        """Stacked jets at the rows of U (m, n), from one ``jet`` call.

        Returns X (m, n+1), dX (m, n+1, n) and d2X (m, n, n, n+1) as float
        arrays, with those shapes also for an empty stack.
        """
        n = self.n
        U = np.asarray(U, dtype=float).reshape(-1, n)
        X, dX, d2X = self.jet(U)
        m = len(U)
        n1 = n + 1 if m == 0 else -1
        return (
            np.asarray(X, dtype=float).reshape(m, n1),
            np.asarray(dX, dtype=float).reshape(m, n1, n),
            np.asarray(d2X, dtype=float).reshape(m, n, n, n1),
        )

    def domain_diameter(self):
        return float(np.linalg.norm(self.param_domain[:, 1] - self.param_domain[:, 0]))

    def flipped(self):
        """Same patch with the opposite normal orientation."""
        return replace(self, orient_sign=-self.orient_sign)


def _contract(a, b):
    """sum_j a[..., j] b[..., j], summed in index order.

    Only elementwise products and sums, so a row's result depends on that
    row alone; numpy's dot and matrix-vector paths change their summation
    with the batch shape and memory layout.
    """
    a, b = np.broadcast_arrays(a, b)
    acc = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        acc = acc + a[..., j] * b[..., j]
    return acc


def rowdot(a, b):
    """Row-wise dot products of two (m, k) stacks."""
    return _contract(a, b)


def _matvec(M, v):
    """Row-wise M_i @ v_i for stacks M (..., p, q) and v (..., q)."""
    return _contract(M, v[..., None, :])


def _transposed(M):
    return np.swapaxes(M, -1, -2)


def _frozen(a):
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MeshGeometry:
    """Geometry of a chart at m parameter points, one row per point.

    Arrays: u (m, n), the jet X (m, n+1), dX (m, n+1, n), d2X
    (m, n, n, n+1), the oriented unit normal N (m, n+1), the lower Cholesky
    factor L (m, n, n) of the metric, the orthonormal frame E = dX L^{-T}
    (m, n+1, n), the shape operator A (m, n, n) in that frame, its ascending
    spectrum k (m, n), the table sigma (m, n+1) of sigma_0..sigma_n and the
    Frobenius norm normA (m,). ``index`` (m,) holds each row's mesh index
    (0, 1, ... when built, kept by ``take``), which errors name, and ``len``
    is the row count. Every method acts on all rows at once; a single
    point is a geometry of one row (``point_geometry``).

    A field's frame gradient E^T grad F and intrinsic Hessian
    E^T D^2F E + <grad F, N> A (the Gauss formula) come from its ambient
    derivatives at X, so no Christoffel symbols are needed. The Newton
    transforms are computed once per order, and a field's frame gradient
    and intrinsic Hessian once per field object; the cached arrays are
    read-only.
    """

    chart: Chart
    index: np.ndarray
    u: np.ndarray
    X: np.ndarray
    dX: np.ndarray
    d2X: np.ndarray
    N: np.ndarray
    L: np.ndarray
    E: np.ndarray
    A: np.ndarray
    k: np.ndarray
    sigma: np.ndarray
    normA: np.ndarray
    _cache: dict = field(default_factory=dict, repr=False)

    def __len__(self):
        return self.u.shape[0]

    def take(self, idx):
        """The rows ``idx`` (indices or a boolean mask), in that order.

        A boolean mask that keeps every row gives this geometry itself, so
        the rows are not copied and the caches are shared.
        """
        mask = np.asarray(idx)
        if mask.dtype == bool and mask.shape == (len(self),) and mask.all():
            return self
        arrays = (self.u, self.X, self.dX, self.d2X, self.N, self.L, self.E, self.A, self.k,
                  self.sigma, self.normA)
        return MeshGeometry(self.chart, self.index[idx], *(_frozen(a[idx]) for a in arrays))

    def sigma_r(self, r):
        """sigma_r at every row, with sigma_r = 0 for r > n."""
        if r < 0:
            raise DomainError("sigma_r needs r >= 0")
        if r > self.chart.n:
            return np.zeros(len(self))
        return self.sigma[:, r]

    def tangential(self, w):
        """Frame components (m, n) of the tangential projection of ambient vectors.

        ``w`` is one vector (n+1,) for every row or a stack (m, n+1).
        """
        w = np.broadcast_to(np.asarray(w, dtype=float), self.X.shape)
        return _matvec(_transposed(self.E), w)

    def _cached(self, key, compute):
        if key not in self._cache:
            self._cache[key] = _frozen(compute())
        return self._cache[key]

    def newton(self, r):
        """Newton transforms P_r (m, n, n) of the shape operators."""
        return self._cached(("newton", r),
                            lambda: newton_transforms(self.A, self.sigma, r, where=self._where))

    def frame_gradient(self, f):
        """Gradient components of f in the orthonormal frames: E^T grad F."""
        return self._cached(("grad", f), lambda: self.tangential(f.grad_at(self.X)))

    def intrinsic_hessian(self, f):
        """hess f (m, n, n) in the orthonormal frames, by the Gauss formula.

        hess f = E^T D^2F E + <grad F, N> A for the restriction f of an
        ambient field F; one ``grad_at`` and one ``hess_at`` call on X.
        """
        return self._cached(("hess", f), lambda: self._hessian(f))

    def _hessian(self, f):
        G = f.grad_at(self.X)
        H = _stacked(f.hess_at(self.X), self.X.shape + self.X.shape[-1:])
        along_N = rowdot(G, self.N)[:, None, None]
        return symmetrized(_transposed(self.E) @ H @ self.E + along_N * self.A,
                           where=self._where)

    def L_operator(self, f, r):
        """L_{r-1} f = tr(P_{r-1} hess f) at every row."""
        _check_order(r, self.chart.n, "L operator")
        H = self.intrinsic_hessian(f)
        return np.trace(self.newton(r - 1) @ H, axis1=1, axis2=2)

    def L_distance(self, r, origin):
        """Closed form for L_{r-1} of the distance to ``origin`` at every row.

        (1/d)[(n-r+1) sigma_{r-1} + r sigma_r <X-o, N>]
          - (1/d^3) <P_{r-1} (X-o)^T, (X-o)^T>
        with the tangential projection taken in the orthonormal frame.
        """
        n = self.chart.n
        _check_order(r, n, "L_distance")
        y = self.X - np.asarray(origin, dtype=float)
        d = np.sqrt(rowdot(y, y))
        near = np.flatnonzero(d < 1e-8)
        if near.size:
            i = near[0]
            raise NearOriginError(
                f"chart point within {d[i]:.2e} of the distance origin{self._where(i)}"
            )
        t = self.tangential(y)
        quad = rowdot(t, _matvec(self.newton(r - 1), t))
        s_rm1, s_r = self.sigma[:, r - 1], self.sigma[:, r]
        return ((n - r + 1) * s_rm1 + r * s_r * rowdot(y, self.N)) / d - quad / d**3

    def _where(self, i):
        return _where(self.index, self.u, i)


def _where(index, U, i):
    return f" at mesh index {index[i]}, u = {U[i]}"


def _check_order(r, n, what):
    if not isinstance(r, (int, np.integer)) or r < 1 or r > n:
        raise DomainError(f"{what} needs 1 <= r <= n (got r={r}, n={n})")


def _generalized_cross(dX):
    """Generalized cross products (m, n+1) of the tangent columns of each row."""
    n1 = dX.shape[1]
    rows = np.array([[j for j in range(n1) if j != i] for i in range(n1)])
    minors = np.linalg.det(dX[:, rows, :])
    signs = np.where(np.arange(n1) % 2 == 0, 1.0, -1.0)
    return signs * minors


def _first(bad):
    """Index of the first True entry of a mask, or None."""
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


def mesh_geometry(chart, U):
    """Metric, oriented unit normal, frame shape operator and curvatures at the rows of U.

    Row i has mesh index i. The checks run stage by stage over all rows
    (domain, finite jet, rank, Cholesky, normal, orientation, shape
    operator); each error names the first failing row by its mesh index
    and parameter point.
    """
    U = _checked_params(chart, U)
    return _geometry(chart, U, chart.jets(U))


def _checked_params(chart, U):
    """U as a float (m, n) stack inside the chart domain."""
    U = np.asarray(U, dtype=float)
    n = chart.n
    if U.ndim != 2 or U.shape[1] != n:
        raise InvalidInputError(f"parameter points must have {n} coordinates")
    tol = 1e-9 * (1.0 + chart.domain_diameter())
    lo, hi = chart.param_domain[:, 0], chart.param_domain[:, 1]
    i = _first(np.any((U < lo - tol) | (U > hi + tol) | ~np.isfinite(U), axis=1))
    if i is not None:
        raise DomainError(f"parameter point {U[i]} outside chart domain (mesh index {i})")
    return U


def _geometry(chart, U, jets):
    """The body of ``mesh_geometry``, given the stacked jets (X, dX, d2X) of the rows of U."""
    n = chart.n
    index = np.arange(len(U))
    X, dX, d2X = jets
    i = _first(~np.all(np.isfinite(X), axis=1) | ~np.all(np.isfinite(dX), axis=(1, 2)))
    if i is not None:
        raise SingularPointError(f"non-finite chart jet{_where(index, U, i)}")
    g = _transposed(dX) @ dX
    lam_min = np.min(np.linalg.eigvalsh(g), axis=1, initial=np.inf)
    i = _first(lam_min <= _RANK_TOL**2)
    if i is not None:
        raise SingularPointError(
            f"rank-deficient chart point: smallest singular value "
            f"{math.sqrt(max(lam_min[i], 0.0)):.3e} <= {_RANK_TOL:.0e}{_where(index, U, i)}"
        )
    try:
        L = np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        for i in range(len(U)):
            try:
                np.linalg.cholesky(g[i])
            except np.linalg.LinAlgError as exc:
                raise SingularPointError(
                    f"metric not positive definite{_where(index, U, i)}: {exc}"
                ) from exc
        raise

    raw = _generalized_cross(dX)
    nrm = np.sqrt(rowdot(raw, raw))
    i = _first((nrm == 0.0) | ~np.isfinite(nrm))
    if i is not None:
        raise SingularPointError(f"degenerate normal{_where(index, U, i)}")
    N = raw / nrm[:, None]
    if chart.orient_ref is not None:
        s = _matvec(N, chart.orient_ref)
        i = _first(np.abs(s) < 1e-12)
        if i is not None:
            raise SingularPointError(f"orientation reference is tangent{_where(index, U, i)}")
        N = np.where((s < 0.0)[:, None], -N, N)
    N = chart.orient_sign * N

    II = _matvec(d2X, N[:, None, :])  # (m, n, n): <dd X_{ij}, N>
    Linv = np.linalg.inv(L)
    A = symmetrized(Linv @ II @ _transposed(Linv), where=lambda j: _where(index, U, j))
    k = np.linalg.eigvalsh(A)
    i = _first(~np.all(np.isfinite(k), axis=1))
    if i is not None:
        raise InvalidInputError(f"non-finite principal curvature{_where(index, U, i)}")
    sigma = kernels.sigma_table(k)
    flatA = A.reshape(len(U), n * n)
    normA = np.sqrt(rowdot(flatA, flatA))
    E = dX @ _transposed(Linv)
    arrays = (U, X, dX, d2X, N, L, E, A, k, sigma, normA)
    return MeshGeometry(chart, index, *(_frozen(a) for a in arrays))


def point_geometry(chart, u):
    """``mesh_geometry(chart, [u])``: the one-row MeshGeometry of the point u."""
    return mesh_geometry(chart, _param_row(chart, u))


def L_operator(chart, f, u, r):
    """L_{r-1} f = tr(P_{r-1} hess f) at u: the one row of ``MeshGeometry.L_operator``."""
    return float(mesh_geometry(chart, _param_row(chart, u)).L_operator(f, r)[0])


def _param_row(chart, u):
    u = np.asarray(u, dtype=float).ravel()
    if u.shape != (chart.n,):
        raise InvalidInputError(f"parameter point must have {chart.n} coordinates")
    return u[None, :]


# ---------------------------------------------------------------------------
# ambient fields on charts


def _stacked(a, shape):
    """An evaluator's result as float, broadcast to the stack's shape."""
    return np.broadcast_to(np.asarray(a, dtype=float), shape)


class AmbientField:
    """Restriction to the chart of an ambient function with analytic derivatives.

    ``fn``, ``grad`` and ``hess`` act on ambient points X (..., n+1), one
    point or a stack, and return (...,), (..., n+1) and (..., n+1, n+1);
    a result that does not depend on X (a constant vector, say) is
    broadcast to the stack. They are kept as ``value_at``, ``grad_at`` and
    ``hess_at``, and ``MeshGeometry`` calls each on its stacked X: the frame
    gradient is E^T grad F and the intrinsic Hessian follows from the Gauss
    formula, both exact in the analytic derivatives, which is what the 1e-7
    scale operator identities need.
    """

    def __init__(self, fn, grad, hess):
        self.value_at = fn
        self.grad_at = grad
        self.hess_at = hess

    def values(self, mg):
        """Values (m,) at every row of a MeshGeometry."""
        return _stacked(self.value_at(mg.X), mg.X.shape[:-1])


def linear_height(W):
    """f(X) = <X, W>, for one vector W (n+1,) or one per row of a stack (m, n+1)."""
    W = np.asarray(W, dtype=float)
    dim = W.shape[-1]
    return AmbientField(
        lambda X: rowdot(X, W),
        lambda X: W,
        lambda X: np.zeros((dim, dim)),
    )


def distance_to(origin):
    """f(X) = |X - origin| with its exact ambient gradient and Hessian."""
    o = np.asarray(origin, dtype=float)

    def _check(X):
        y = X - o
        d = np.sqrt(rowdot(y, y))
        near = np.flatnonzero(d < 1e-8)
        if near.size:
            raise NearOriginError(
                f"distance field evaluated {np.ravel(d)[near[0]]:.2e} from its center"
            )
        return y, d

    def fn(X):
        return _check(X)[1]

    def grad(X):
        y, d = _check(X)
        return y / d[..., None]

    def hess(X):
        y, d = _check(X)
        yh = y / d[..., None]
        return (np.eye(o.size) - yh[..., :, None] * yh[..., None, :]) / d[..., None, None]

    return AmbientField(fn, grad, hess)


def distance_sq_to(origin):
    """f(X) = |X - origin|^2."""
    o = np.asarray(origin, dtype=float)
    return AmbientField(
        lambda X: rowdot(X - o, X - o),
        lambda X: 2.0 * (X - o),
        lambda X: 2.0 * np.eye(o.size),
    )


def cone_excess(V, a, origin=None):
    """psi(X) = <X, V> - a |X - origin|; nonpositive exactly on the cone complement."""
    V = np.asarray(V, dtype=float)
    o = np.zeros(V.size) if origin is None else np.asarray(origin, dtype=float)
    dist = distance_to(o)
    return AmbientField(
        lambda X: rowdot(X, V) - a * dist.value_at(X),
        lambda X: V - a * dist.grad_at(X),
        lambda X: -a * dist.hess_at(X),
    )


# ---------------------------------------------------------------------------
# derivative cross-checks


def fd_jet_error(chart, U, steps):
    """Max deviations of the analytic dX / d2X from central differences of X.

    For each step h in ``steps`` and each row u of U (m, n) the stencil is
    u, u +- h e_i and u +- h e_i +- h e_j for i < j; one ``chart.jets`` call
    evaluates every stencil. Returns (err1, err2), each (len(steps), m).
    """
    U = np.asarray(U, dtype=float)
    m, n = U.shape
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    stencils = []
    for h in steps:
        e = h * np.eye(n)
        pts = [U, *(U + ei for ei in e), *(U - ei for ei in e)]
        for i, j in pairs:
            pts += [U + e[i] + e[j], U + e[i] - e[j], U - e[i] + e[j], U - e[i] - e[j]]
        stencils.append(np.stack(pts, axis=1))
    X, dX, d2X = chart.jets(np.array(stencils))
    size = stencils[0].shape[1]
    X = X.reshape(len(stencils), m, size, n + 1)
    dX0 = _transposed(dX.reshape(len(stencils), m, size, n + 1, n)[:, :, 0])
    d2X0 = d2X.reshape(len(stencils), m, size, n, n, n + 1)[:, :, 0]
    err1, err2 = np.empty((2, len(stencils), m))
    for s, h in enumerate(steps):
        x0, xp, xm = X[s, :, :1], X[s, :, 1 : n + 1], X[s, :, n + 1 : 2 * n + 1]
        err1[s] = np.max(np.abs((xp - xm) / (2 * h) - dX0[s]), axis=(1, 2))
        diag = _transposed(np.diagonal(d2X0[s], axis1=1, axis2=2))
        err2[s] = np.max(np.abs((xp - 2 * x0 + xm) / h**2 - diag), axis=(1, 2))
        if pairs:
            c = np.moveaxis(X[s, :, 2 * n + 1 :].reshape(m, len(pairs), 4, n + 1), 2, 0)
            mixed = (c[0] - c[1] - c[2] + c[3]) / (4 * h**2)
            i, j = np.array(pairs).T
            err2[s] = np.maximum(err2[s], np.max(np.abs(mixed - d2X0[s][:, i, j]), axis=(1, 2)))
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
    def grid(cls, chart, counts):
        n = chart.n
        if isinstance(counts, (int, np.integer)):
            counts = (int(counts),) * n
        counts = tuple(int(c) for c in counts)
        if len(counts) != n or any(c < 2 for c in counts):
            raise InvalidInputError("need at least 2 grid points per axis")
        axes = []
        for i in range(n):
            lo, hi = chart.param_domain[i]
            m = _BOUNDARY_MARGIN * (hi - lo)
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

    def _jets(self):
        """Stacked jets of every mesh point, from one ``chart.jets`` call."""
        if "jets" not in self._cache:
            self._cache["jets"] = tuple(_frozen(a) for a in self.chart.jets(self.points))
        return self._cache["jets"]

    def positions(self):
        """Ambient positions X(u) of every mesh point."""
        return self._jets()[0]

    def geometry(self):
        """MeshGeometry of every mesh point (computed once); ``take`` gives its rows."""
        if "geom" not in self._cache:
            self._cache["geom"] = _geometry(self.chart, _checked_params(self.chart, self.points),
                                            self._jets())
        return self._cache["geom"]

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


# ---------------------------------------------------------------------------
# chart constructors


def graph_chart(
    n,
    height,
    grad,
    hess,
    domain,
    name="graph",
    derivative_bias=0.0,
):
    """Chart of a height function X = (u, h(u)) with the upward normal.

    ``height``, ``grad`` and ``hess`` act on parameter stacks U (m, n) and
    return (m,), (m, n) and (m, n, n), or values that broadcast to them. A
    row's result must depend on that row alone: sum with ``rowdot``, not
    ``@`` or ``np.sum``. ``derivative_bias`` perturbs the reported first
    derivatives without touching positions; it exists so consistency
    checks can be fed a deliberately corrupted jet.
    """
    dom = np.asarray(domain, dtype=float)

    def jet(U):
        m = len(U)
        X = np.empty((m, n + 1))
        X[:, :n] = U
        X[:, n] = height(U)
        dX = np.zeros((m, n + 1, n))
        dX[:, :n, :] = np.eye(n)
        dX[:, n, :] = grad(U)
        if derivative_bias:
            dX = dX * (1.0 + derivative_bias)
        d2X = np.zeros((m, n, n, n + 1))
        d2X[..., n] = hess(U)
        return X, dX, d2X

    ref = np.zeros(n + 1)
    ref[n] = 1.0
    return Chart(n=n, param_domain=dom, jet=jet, name=name, orient_ref=ref)


def flat_chart(n, halfwidth=1.0):
    """Hyperplane through the origin, graph of the zero height function."""
    dom = np.array([[-halfwidth, halfwidth]] * n)
    return graph_chart(n, lambda U: 0.0, lambda U: 0.0, lambda U: 0.0, dom, name="flat")


def paraboloid_chart(n, curvature=1.0, halfwidth=1.0, derivative_bias=0.0):
    """Graph of (c/2) |u|^2; umbilic with k_i = c at the origin."""
    dom = np.array([[-halfwidth, halfwidth]] * n)
    c = float(curvature)
    return graph_chart(
        n,
        lambda U: 0.5 * c * rowdot(U, U),
        lambda U: c * U,
        lambda U: c * np.eye(n),
        dom,
        name="paraboloid",
        derivative_bias=derivative_bias,
    )


def sphere_chart(n, radius=1.0, center=None, cap="upper"):
    """Spherical cap as a graph patch, oriented by the inward normal.

    With the inward normal the shape operator is +I/radius everywhere.
    ``center`` is an ambient point (n+1 coordinates).
    """
    if cap not in ("upper", "lower"):
        raise InvalidInputError("cap must be 'upper' or 'lower'")
    rho = float(radius)
    if rho <= 0:
        raise InvalidInputError("radius must be positive")
    c = np.zeros(n + 1) if center is None else np.asarray(center, dtype=float)
    if c.shape != (n + 1,):
        raise InvalidInputError(
            f"sphere center must have n + 1 = {n + 1} coordinates (got shape {c.shape})"
        )
    sign = 1.0 if cap == "upper" else -1.0
    halfwidth = 0.6 * rho / math.sqrt(n)
    dom = np.array([[c[i] - halfwidth, c[i] + halfwidth] for i in range(n)])

    def _s(U):
        Q = U - c[:n]
        return np.sqrt(rho**2 - rowdot(Q, Q)), Q

    def height(U):
        s, _ = _s(U)
        return c[n] + sign * s

    def grad(U):
        s, Q = _s(U)
        return -sign * Q / s[:, None]

    def hess(U):
        s, Q = _s(U)
        s = s[:, None, None]
        return -sign * (np.eye(n) / s + Q[:, :, None] * Q[:, None, :] / s**3)

    ch = graph_chart(n, height, grad, hess, dom, name=f"sphere-{cap}-cap")
    # inward normal: points toward the center, i.e. against the cap side
    ref = np.zeros(n + 1)
    ref[n] = -sign
    return replace(ch, orient_ref=ref)


def oscillating_graph_chart(n, x_lo=2.0, x_hi=12.0, halfwidth=1.0):
    """Graph with bounded slope but curvature growing like the cube of scale.

    Height sin(x1^4) / (4 x1^3): the first derivative stays O(1) while the
    second derivative envelope grows like x1^3, a prescribed-growth
    counterexample chart for the quadratic-log growth hypotheses.
    """
    dom = np.array([[x_lo, x_hi]] + [[-halfwidth, halfwidth]] * (n - 1))

    def height(U):
        x = U[:, 0]
        return np.sin(x**4) / (4 * x**3)

    def grad(U):
        x = U[:, 0]
        out = np.zeros_like(U)
        out[:, 0] = np.cos(x**4) - 0.75 * np.sin(x**4) / x**4
        return out

    def hess(U):
        x = U[:, 0]
        out = np.zeros((len(U), n, n))
        out[:, 0, 0] = (
            -4.0 * x**3 * np.sin(x**4)
            - 3.0 * np.cos(x**4) / x
            + 3.0 * np.sin(x**4) / x**5
        )
        return out

    return graph_chart(n, height, grad, hess, dom, name="oscillating-graph")


def segment_arclength(chart, u, base_u):
    """Arclength of the straight parameter segment from base_u to u.

    Exact along meridians and product factors; an upper bound for the
    intrinsic distance in general. The speed is sampled at
    ``_SEGMENT_QUAD_POINTS`` (odd) equal steps and integrated by ``_simpson``.
    """
    u = np.asarray(u, dtype=float)
    b = np.asarray(base_u, dtype=float)
    ts = np.linspace(0.0, 1.0, _SEGMENT_QUAD_POINTS)
    du = u - b
    _, dX, _ = chart.jets(b + ts[:, None] * du)
    velocity = _matvec(dX, du)
    speeds = np.sqrt(rowdot(velocity, velocity))
    return float(_simpson(speeds, ts))


def _simpson(y, x):
    """Composite Simpson rule over an odd number of samples y at increasing nodes x.

    The arithmetic of ``scipy.integrate.simpson(y, x=x)`` for an odd count
    (its ``_basic_simpson`` with uneven spacings), so the result has the
    same bits without importing ``scipy.integrate``.
    """
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    ratio = h0 / h1
    tmp = hsum / 6.0 * (
        y[0:-2:2] * (2.0 - 1.0 / ratio)
        + y[1::2] * (hsum * (hsum / (h0 * h1)))
        + y[2::2] * (2.0 - ratio)
    )
    return np.sum(tmp)
