"""Region predicates, growth-condition estimators, and the cylinder-distance machinery.

Regions come in three flavors: the complement of the rotational cone
around a velocity axis, the half-space opposite the velocity, and the
intersection of two transversal vertical half-spaces. Growth reports
estimate the limsup hypotheses of the nonexistence statements from a
finite mesh; they are labeled empirical because a mesh cannot certify a
limsup, and ``satisfied`` is only considered conclusive once the mesh
reaches scale 1e3.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .charts import AmbientField, _check_order, _matvec, rowdot, segment_arclength
from .errors import InvalidInputError, SingularPointError

CONCLUSIVE_SCALE = 1e3
_LOGLOG_FLOOR = math.e * 1.01

HYPOTHESIS_IDS = ("HS2-1", "HS2-2", "HS1-1", "CM")


def _unit(v, what):
    v = np.asarray(v, dtype=float).ravel()
    nrm = np.linalg.norm(v)
    if not np.all(np.isfinite(v)) or nrm == 0.0:
        raise InvalidInputError(f"{what} must be a finite nonzero vector")
    return v / nrm


@dataclass(frozen=True)
class Cone:
    """Open rotational cone around axis V with aperture parameter a in (0, 1).

    The region is the closed complement <X/|X|, V> <= a.
    """

    V: np.ndarray
    a: float

    def __post_init__(self):
        object.__setattr__(self, "V", _unit(self.V, "cone axis"))
        if not (0.0 < self.a < 1.0):
            raise InvalidInputError("aperture parameter a must lie strictly in (0, 1)")


@dataclass(frozen=True)
class Halfspace:
    """Half-space through B with outward normal W; contains X iff <X - B, W> <= 0."""

    B: np.ndarray
    W: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "W", _unit(self.W, "half-space normal"))
        B = np.asarray(self.B, dtype=float).ravel()
        if B.shape != self.W.shape or not np.all(np.isfinite(B)):
            raise InvalidInputError("base point must be finite and match the normal")
        object.__setattr__(self, "B", B)


@dataclass(frozen=True)
class BiHalfspace:
    """Intersection of two half-spaces {<X - B_i, W_i> >= 0} with independent normals.

    Passing ``vertical_to`` asserts both normals are orthogonal to that
    velocity (within 1e-10), the configuration of the bi-half-space
    statement.
    """

    first: Halfspace
    second: Halfspace
    vertical_to: Optional[np.ndarray] = None

    def __post_init__(self):
        w1, w2 = self.first.W, self.second.W
        if w1.shape != w2.shape:
            raise InvalidInputError("half-space normals live in different dimensions")
        perp = w2 - (w2 @ w1) * w1
        if np.linalg.norm(perp) <= 1e-6:
            raise InvalidInputError("normals must be transversal (angle > 1e-6)")
        if self.vertical_to is not None:
            v = _unit(self.vertical_to, "velocity")
            if abs(w1 @ v) > 1e-10 or abs(w2 @ v) > 1e-10:
                raise InvalidInputError("vertical bi-half-space needs W_i orthogonal to V")
            object.__setattr__(self, "vertical_to", v)


def violation_margins(reg, xs):
    """Signed violation margin per row of xs; positive means outside the region."""
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    if isinstance(reg, Cone):
        nrm = np.linalg.norm(xs, axis=1)
        ok = nrm >= 1e-300
        out = np.full(len(xs), -np.inf)
        out[ok] = xs[ok] @ reg.V / nrm[ok] - reg.a
        return out
    if isinstance(reg, Halfspace):
        return (xs - reg.B) @ reg.W
    if isinstance(reg, BiHalfspace):
        m1 = -((xs - reg.first.B) @ reg.first.W)
        m2 = -((xs - reg.second.B) @ reg.second.W)
        return np.maximum(m1, m2)
    raise InvalidInputError(f"unknown region type {type(reg)!r}")


class FirstExit(NamedTuple):
    found: bool
    witness: Optional[np.ndarray]
    margin: float


def first_exit(reg, mesh):
    """Scan the mesh for a point outside the region.

    Returns the witness with the largest violation margin (first index on
    ties). Points at the cone vertex are skipped, matching the membership
    precondition.
    """
    if len(mesh) == 0:
        raise InvalidInputError("mesh is empty")
    xs = mesh.positions()
    margins = violation_margins(reg, xs)
    idx = int(np.argmax(margins))
    if margins[idx] > 0.0:
        return FirstExit(True, xs[idx].copy(), float(margins[idx]))
    return FirstExit(False, None, float(margins[idx]))


# ---------------------------------------------------------------------------
# growth reports


@dataclass(frozen=True)
class GrowthReport:
    """Empirical estimate of one limsup growth hypothesis on a finite mesh."""

    hypothesis: str
    scales: np.ndarray
    tail_estimate: float
    bound: float
    satisfied: bool
    scale_reached: float
    conclusive: bool
    note: str = "empirical"

    def to_json_dict(self):
        return {
            "hypothesis": self.hypothesis,
            "tail_estimate": self.tail_estimate,
            "bound": self.bound,
            "satisfied": self.satisfied,
            "scale_reached": self.scale_reached,
            "conclusive": self.conclusive,
            "note": self.note,
            "samples": int(len(self.scales)),
        }


def _loglog_denom(s, power):
    return s**power * np.log(s) * np.log(np.log(s))


def growth_report(mesh, hypothesis, params):
    """Estimate one growth hypothesis ratio over a mesh.

    hypothesis values: 'HS2-1' (sigma_{r-1}/delta against the explicit
    cone bound), 'HS2-2' (|A| against rho log rho loglog rho), 'HS1-1'
    and 'CM' (sigma_{r-1} against delta^2 log delta loglog delta), with
    delta = |X| the distance to the origin. The tail estimate is the max
    ratio over the top decade of scale.
    """
    if hypothesis not in HYPOTHESIS_IDS:
        raise InvalidInputError(f"unknown hypothesis {hypothesis!r}")
    r = int(params["r"])
    chart = mesh.chart
    n = chart.n
    geom = mesh.geometry()

    if hypothesis == "HS2-2":
        if chart.intrinsic_distance is not None:
            scales = np.asarray(chart.intrinsic_distance(mesh.points), dtype=float)
        else:
            center = 0.5 * (chart.param_domain[:, 0] + chart.param_domain[:, 1])
            scales = np.array(
                [segment_arclength(chart, u, center) for u in mesh.points]
            )
        values = geom.normA
    else:
        scales = np.sqrt(rowdot(geom.X, geom.X))
        values = geom.sigma_r(r - 1)

    top = float(np.max(scales)) if len(scales) else 0.0
    if top < 10.0:
        raise InvalidInputError(
            f"growth mesh must reach scale >= 10 (reached {top:.3g})"
        )

    if hypothesis == "HS2-1":
        mask = scales > 1e-12
        ratios = values[mask] / scales[mask]
        a = float(params["a"])
        if not (0.0 < a < 1.0):
            raise InvalidInputError("cone parameter a must lie in (0, 1)")
        bound = r * (1.0 - a) / (a * (n - r + 1))
    else:
        mask = scales > _LOGLOG_FLOOR
        s = scales[mask]
        if hypothesis == "HS2-2":
            ratios = values[mask] / _loglog_denom(s, 1)
        else:
            ratios = values[mask] / _loglog_denom(s, 2)
        bound = float(params.get("bound", 1.0))

    scales_kept = scales[mask]
    tail_mask = scales_kept >= top / 10.0
    tail = float(np.max(ratios[tail_mask])) if np.any(tail_mask) else math.inf
    return GrowthReport(
        hypothesis=hypothesis,
        scales=scales_kept,
        tail_estimate=tail,
        bound=bound,
        satisfied=bool(tail < bound),
        scale_reached=top,
        conclusive=bool(top >= CONCLUSIVE_SCALE),
    )


# ---------------------------------------------------------------------------
# cylinder-distance machinery


def cylinder_distance(R, a, X):
    """Distance to the axis flat {(R/a, 0, x_3, ...)}: sqrt((x1 - R/a)^2 + x2^2).

    X is one ambient point or a stack (..., n+1); the result has shape (...,).
    """
    _check_cyl(R, a)
    X = np.asarray(X, dtype=float)
    return np.hypot(X[..., 0] - R / a, X[..., 1])


def cylinder_hessian_frame(R, a, X):
    """d_R, its gradient and the rotated unit vector chi, at each point of X (..., n+1).

    The Hessian of d_R is the rank-one matrix (1/d) chi chi^T: one
    eigenvalue 1/d along chi and zeros along the gradient and the trailing
    coordinate directions. d has shape (...,), grad and chi the shape of X.
    """
    X = np.asarray(X, dtype=float)
    d = cylinder_distance(R, a, X)
    if np.any(d <= 1e-10):
        raise SingularPointError("cylinder distance Hessian is singular on the axis")
    c1 = (X[..., 0] - R / a) / d
    c2 = X[..., 1] / d
    grad, chi = np.zeros(X.shape), np.zeros(X.shape)
    grad[..., 0], grad[..., 1] = c1, c2
    chi[..., 0], chi[..., 1] = -c2, c1
    return d, grad, chi


def ambient_cylinder_hessian(R, a, X):
    """The full (n+1) x (n+1) ambient Hessian of d_R at X, per point of X (..., n+1)."""
    d, _, chi = cylinder_hessian_frame(R, a, X)
    return (1.0 / d)[..., None, None] * (chi[..., :, None] * chi[..., None, :])


def _wedge_coordinates(Q, shift, X):
    """T X = Q (X - shift), the rigid motion of ``normalize_bihalfspace``, on a stack X."""
    return _matvec(Q, X) - Q @ shift


def cylinder_field(R, a, Q, shift):
    """d_R(T X) on charts, as an analytic ambient field, with T X = Q (X - shift).

    The field is d_R pulled back by the rigid motion T: its gradient is
    grad d_R(T X) Q and its Hessian Q^T D^2 d_R(T X) Q, so it acts on a
    chart's own positions.
    """
    _check_cyl(R, a)
    Q = np.asarray(Q, dtype=float)
    return AmbientField(
        lambda X: cylinder_distance(R, a, _wedge_coordinates(Q, shift, X)),
        lambda X: _matvec(Q.T, cylinder_hessian_frame(R, a, _wedge_coordinates(Q, shift, X))[1]),
        lambda X: Q.T @ ambient_cylinder_hessian(R, a, _wedge_coordinates(Q, shift, X)) @ Q,
    )


def in_pocket(X, a, b, R):
    """Membership in the bounded vertex-side component of the wedge minus cylinder.

    In normalized coordinates the wedge is a x1 +- b x2 >= 0; the cylinder
    of radius R around the axis flat is tangent to both wedge walls, and
    the pocket is the component of the complement that contains the wedge
    vertex: d_R > R, x1 below the tangency abscissa R b^2 / a, inside the
    wedge (there d_R stays below R/a).
    """
    X = np.asarray(X, dtype=float).ravel()
    x1, x2 = X[0], X[1]
    if a * x1 + b * x2 < 0.0 or a * x1 - b * x2 < 0.0:
        return False
    d = math.hypot(x1 - R / a, x2)
    return d > R and x1 <= R * b * b / a + 1e-12


@dataclass(frozen=True)
class BiHalfspaceDriveReport:
    """Pointwise slack of the capped-distance operator inequality on one mesh."""

    a: float
    b: float
    R: float
    r: int
    eps: float
    empty: bool
    n_points: int
    min_slack: Optional[float]
    argmin_param: Optional[np.ndarray]
    max_d: float

    def to_json_dict(self):
        return {
            "a": self.a,
            "b": self.b,
            "R": self.R,
            "r": self.r,
            "eps": self.eps,
            "empty": self.empty,
            "n_points": self.n_points,
            "min_slack": self.min_slack,
            "max_d": self.max_d,
        }


def bihalfspace_drive(mesh, region, V, R, r, eps):
    """Check L_{r-1} d_R >= eps (1 - <chi,N>^2)/d + r <V,N><grad d,N> in the pocket.

    ``normalize_bihalfspace(region, V)`` gives the rigid motion T that puts
    the pair into wedge form. The surface stays where it is: the pocket,
    d_R, chi and grad d are evaluated at the positions T X, and d_R is
    pulled back by T (``cylinder_field``). Evaluated at every mesh point
    inside the pocket region; the minimum slack must stay above -1e-6
    whenever P_{r-1} >= eps I holds there. An empty intersection is
    reported, not raised, with ``min_slack`` None (null in JSON).
    """
    Q, shift, a, b = normalize_bihalfspace(region, V)
    f = cylinder_field(R, a, Q, shift)
    TX = _wedge_coordinates(Q, shift, mesh.positions())
    mask = np.array([in_pocket(x, a, b, R) for x in TX], dtype=bool)
    if not np.any(mask):
        return BiHalfspaceDriveReport(
            a=a, b=b, R=R, r=r, eps=eps, empty=True, n_points=0,
            min_slack=None, argmin_param=None, max_d=0.0,
        )
    mg = mesh.geometry().take(mask)
    d, grad, chi = cylinder_hessian_frame(R, a, TX[mask])
    # <chi Q, N> = <chi, Q N>, and the last entry of Q N is <V, N>
    TN = _matvec(Q, mg.N)
    lhs = mg.L_operator(f, r)
    rhs = eps * (1.0 - rowdot(chi, TN) ** 2) / d + r * TN[:, -1] * rowdot(grad, TN)
    slacks = lhs - rhs
    imin = int(np.argmin(slacks))
    return BiHalfspaceDriveReport(
        a=a, b=b, R=R, r=r, eps=eps, empty=False, n_points=len(mg),
        min_slack=float(slacks[imin]), argmin_param=mg.u[imin].copy(),
        max_d=float(np.max(d)),
    )


def min_eigen_over_mesh(mesh, r):
    """Smallest eigenvalue of P_{r-1} across the mesh (the eps of the drive).

    One ``kernels.complement_sigma`` call over the stacked spectra: the
    eigenvalues of P_{r-1} in the eigenbasis of A.
    """
    _check_order(r, mesh.chart.n, "min_eigen_over_mesh")
    return float(np.min(kernels.complement_sigma(mesh.geometry().k, r - 1)))


def normalize_bihalfspace(bhs, V):
    """Rigid motion taking a vertical transversal pair to normalized coordinates.

    Returns (Q, shift, a, b) with Q orthogonal so that
    X -> Q (X - shift) maps the half-spaces onto <X', (a, +-b, 0...)> >= 0
    and V onto the last coordinate axis.
    """
    V = _unit(V, "velocity")
    if bhs.vertical_to is None:
        bhs = BiHalfspace(bhs.first, bhs.second, vertical_to=V)
    w1, w2 = bhs.first.W, bhs.second.W
    m = w1.size
    wsum = w1 + w2
    if np.linalg.norm(wsum) < 1e-12:
        raise InvalidInputError("opposite normals have no normalized wedge form")
    e1 = wsum / np.linalg.norm(wsum)
    a = float(w1 @ e1)
    resid = w1 - a * e1
    b = float(np.linalg.norm(resid))
    if b < 1e-12:
        raise InvalidInputError("normals are parallel; no transversal wedge")
    e2 = resid / b

    basis = [e1, e2]
    for cand in np.eye(m):
        proj = cand - sum((cand @ q) * q for q in basis) - (cand @ V) * V
        nrm = np.linalg.norm(proj)
        if nrm > 1e-8 and len(basis) < m - 1:
            basis.append(proj / nrm)
    basis.append(V)
    Q = np.array(basis)
    if Q.shape != (m, m) or np.max(np.abs(Q @ Q.T - np.eye(m))) > 1e-10:
        raise InvalidInputError("failed to complete an orthonormal ambient basis")

    c1 = float(bhs.first.B @ w1)
    c2 = float(bhs.second.B @ w2)
    alpha = (c1 + c2) / (2.0 * a)
    beta = (c1 - c2) / (2.0 * b)
    shift = alpha * e1 + beta * e2
    return Q, shift, a, b


def _check_cyl(R, a):
    if not (R > 0.0):
        raise InvalidInputError("cylinder radius must be positive")
    if not (0.0 < a < 1.0):
        raise InvalidInputError("wedge parameter a must lie in (0, 1)")
