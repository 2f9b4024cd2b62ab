"""Desk-scale maximizer-sequence machinery and theorem-consistency drives.

The construction mirrors the compact shadow of the noncompact argument:
for a growth-control function G and gamma a proper exhaustion, phi(t) =
log(int_0^t ds/sqrt(G) + 1) is strictly increasing and concave, and the
maximizers x_k of f_k = u - eps_k phi(gamma) carry small gradients and
small L-operator values once eps_k is below the constants estimated from
the mesh. A truncated mesh pushes genuine noncompact maxima onto its
boundary; such runs are flagged boundary-dominated and never reported as
maximizer sequences. All limsup-style checks are labeled empirical.
"""

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .charts import cone_excess, distance_sq_to, linear_height, rowdot
from .errors import (
    BoundaryDominatedWarning,
    DomainError,
    InvalidInputError,
)
from .regions import (
    Cone,
    FirstExit,
    GrowthReport,
    Halfspace,
    first_exit,
    growth_report,
    min_eigen_over_mesh,
)

SPLICE_T0 = math.exp(math.e) * 1.01   # splice point of the iterated-log profiles
BOUND_LOWER_LIMIT = math.exp(2 * math.e)  # integration base of the constant estimates
_MAX_LOG_LEVELS = 3


def _log_iterate(t, j):
    for _ in range(j):
        t = np.log(t)
    return t


def _nonnegative(t, what):
    """t as a float array; DomainError when an entry is negative or NaN."""
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise DomainError(f"{what} is defined on [0, infinity)")
    return t


def _result(x, like):
    """x as a Python float when ``like`` is a scalar, else as an array."""
    return float(x) if np.ndim(like) == 0 else x


class GFunction:
    """Growth-control function G: nonnegative, nondecreasing, G(0) > 0.

    Kinds: ``constant``; ``iterated_log`` with N levels, the profile
    t^2 prod_j (log^(j) t)^2 spliced to its value at t0 = e^e * 1.01 so
    that G stays positive and monotone down to 0. Both kinds carry closed
    forms for the reciprocal-square-root integrals.

    ``value``, ``integral_inv_sqrt``, ``phi``, ``phi_prime`` and
    ``p_bound`` act elementwise on arrays and return a float for a scalar
    input; each is a numpy expression over the whole array.
    """

    def __init__(self, kind, constant=None, levels=None):
        self.kind = kind
        if kind == "constant":
            if not (constant and constant > 0):
                raise InvalidInputError("constant G needs a positive value")
            self.constant = float(constant)
            self.floor = float(constant)
        elif kind == "iterated_log":
            if not (isinstance(levels, int) and 1 <= levels <= _MAX_LOG_LEVELS):
                raise InvalidInputError(
                    f"iterated-log levels must be an integer in 1..{_MAX_LOG_LEVELS}"
                )
            self.levels = levels
            self.floor = float(self._raw(SPLICE_T0))
        else:
            raise InvalidInputError(f"unknown G kind {kind!r}")

    @classmethod
    def constant_fn(cls, value):
        return cls("constant", constant=value)

    @classmethod
    def iterated_log(cls, levels=1):
        return cls("iterated_log", levels=levels)

    def _raw(self, t):
        prod = t * t
        for j in range(1, self.levels + 1):
            # x * x, not x ** 2: a numpy scalar's ** 2 calls pow(), which can
            # round differently from an array's square
            log_j = _log_iterate(t, j)
            prod = prod * (log_j * log_j)
        return prod

    def value(self, t):
        t = _nonnegative(t, "G")
        if self.kind == "constant":
            out = np.full(t.shape, self.constant)
        else:
            # the floor is raw(t0): clamping t at t0 splices G to its floor
            out = np.maximum(self.floor, self._raw(np.maximum(t, SPLICE_T0)))
        return _result(out, t)

    def integral_inv_sqrt(self, lo, hi):
        """Signed int_lo^hi ds / sqrt(G(s)) by the piecewise closed form, elementwise."""
        lo = _nonnegative(lo, "G^(-1/2)")
        hi = _nonnegative(hi, "G^(-1/2)")
        sign = np.where(lo > hi, -1.0, 1.0)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if self.kind == "constant":
            out = sign * ((hi - lo) / math.sqrt(self.constant))
        else:
            flat = np.maximum(np.minimum(hi, SPLICE_T0) - lo, 0.0) / math.sqrt(self.floor)
            # past the splice: the antiderivative of 1/(s prod log^(j) s) is log^(levels+1)
            a = np.maximum(lo, SPLICE_T0)
            top = self.levels + 1
            tail = _log_iterate(np.maximum(hi, a), top) - _log_iterate(a, top)
            out = sign * (flat + tail)
        return _result(out, out)

    def phi(self, t):
        """phi(t) = log(int_0^t ds/sqrt(G) + 1); phi(0) = 0, increasing, concave."""
        t = _nonnegative(t, "phi")
        return _result(np.log(self.integral_inv_sqrt(0.0, t) + 1.0), t)

    def phi_prime(self, t):
        """Analytic phi' = [sqrt(G(t)) (int_0^t ds/sqrt(G) + 1)]^{ -1 }."""
        return _result(
            1.0 / (np.sqrt(self.value(t)) * (self.integral_inv_sqrt(0.0, t) + 1.0)), t
        )

    def p_bound(self, t):
        """sqrt(G(t)) (int_{e^{2e}}^t ds/sqrt(G) + 1), the growth comparison scale."""
        return _result(
            np.sqrt(self.value(t)) * (self.integral_inv_sqrt(BOUND_LOWER_LIMIT, t) + 1.0), t
        )


def phi(G, t):
    """Module-level convenience for G.phi(t)."""
    return G.phi(t)


def alpha(t, a):
    """t - sqrt(t^2 - (1 - a^2) t), decreasing on [1 - a^2, 1] with alpha(1) = 1 - a."""
    if not (0.0 < a < 1.0):
        raise InvalidInputError("parameter a must lie in (0, 1)")
    if t < (1.0 - a * a) - 1e-12:
        raise DomainError("alpha is defined on [1 - a^2, 1]")
    rad = max(t * t - (1.0 - a * a) * t, 0.0)
    return t - math.sqrt(rad)


# ---------------------------------------------------------------------------
# maximizer sequences


@dataclass(frozen=True)
class OYRun:
    """Record of one maximizer-sequence search on a compact mesh."""

    ks: np.ndarray
    eps: np.ndarray
    idx: np.ndarray
    maximizers: np.ndarray
    u_values: np.ndarray
    grad_norms: np.ndarray
    L_values: np.ndarray
    passes: np.ndarray
    mesh_tol: float
    boundary_dominated: bool
    conclusive: bool
    A_estimate: float
    B_estimate: float
    r: int

    def to_json_dict(self):
        return {
            "k": [int(v) for v in self.ks],
            "eps": list(map(float, self.eps)),
            "maximizer_index": [int(v) for v in self.idx],
            "u": list(map(float, self.u_values)),
            "grad_norm": list(map(float, self.grad_norms)),
            "L_value": list(map(float, self.L_values)),
            "pass": [bool(v) for v in self.passes],
            "mesh_tol": float(self.mesh_tol),
            "boundary_dominated": self.boundary_dominated,
            "conclusive": self.conclusive,
            "A_estimate": float(self.A_estimate),
            "B_estimate": float(self.B_estimate),
            "r": self.r,
        }


def oy_sequence(mesh, u_field, gamma_field, G, k_max=10, r=1, z_field=None, mask=None):
    """Maximizers of f_k = u - eps_k phi(gamma) with recorded gradient and L values.

    eps_k = 1 / (2 k max(A, B + A sup|Z|)) with A and B the empirical
    maxima of |grad gamma| and L_{r-1} gamma against the growth comparison
    scale. ``z_field(mg)``, when given, returns the frame components
    (m, n) of a drift Z at the rows of a MeshGeometry; the L values then
    read L_{r-1} - <Z, grad>. Ties in the argmax break to the lowest mesh
    index. Runs whose maximizer sits on the truncation boundary for every
    k are flagged boundary-dominated and marked inconclusive.
    """
    if k_max < 1:
        raise InvalidInputError("need k_max >= 1")
    m = len(mesh)
    active = np.ones(m, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if active.shape != (m,) or not np.any(active):
        raise InvalidInputError("mask must keep at least one mesh point")
    rows = np.flatnonzero(active)
    geom = mesh.masked_geometry(active)

    uvals = u_field.values(geom)
    gvals = gamma_field.values(geom)
    if np.any(gvals <= 0.0):
        raise InvalidInputError("gamma must be strictly positive on the mesh")
    P = geom.newton(r - 1)
    Hu = geom.intrinsic_hessian(u_field)
    gu = geom.frame_gradient(u_field)
    Hg = geom.intrinsic_hessian(gamma_field)
    gg = geom.frame_gradient(gamma_field)
    grad_u = np.sqrt(rowdot(gu, gu))
    L_u = np.trace(P @ Hu, axis1=1, axis2=2)
    grad_g = np.sqrt(rowdot(gg, gg))
    L_g = np.trace(P @ Hg, axis1=1, axis2=2)
    supz = 0.0
    if z_field is not None:
        zv = np.broadcast_to(np.asarray(z_field(geom), dtype=float), gu.shape)
        supz = float(np.max(np.sqrt(rowdot(zv, zv))))
        L_u = L_u - rowdot(zv, gu)
        L_g = L_g - rowdot(zv, gg)
    lip = float(np.max(np.abs(np.linalg.eigvalsh(Hu)), initial=0.0))

    pb = G.p_bound(gvals)
    usable = np.isfinite(pb) & (pb > 0.0)
    if np.any(usable):
        A = float(np.max(grad_g[usable] / pb[usable]))
        B = float(np.max(L_g[usable] / pb[usable]))
    else:
        A = B = 1.0
    denom = max(A, B + A * supz, 1e-8)

    phi_g = G.phi(gvals)

    ks = np.arange(1, k_max + 1)
    eps = 1.0 / (2.0 * ks * denom)
    # the masked rows ascend, so ties go to the lowest mesh index
    at = np.array([int(np.argmax(uvals - e * phi_g)) for e in eps])
    idx = rows[at]

    mesh_tol = 2.0 * mesh.spacing() * max(lip, 1e-30)
    grad_at = grad_u[at]
    L_at = L_u[at]
    passes = (grad_at < 1.0 / ks + mesh_tol) & (L_at < 1.0 / ks + mesh_tol)
    boundary_dominated = bool(np.all(mesh.boundary[idx]))
    if boundary_dominated:
        warnings.warn(
            "maximizers sit on the mesh truncation boundary for every k; "
            "the run is inconclusive",
            BoundaryDominatedWarning,
        )
    return OYRun(
        ks=ks,
        eps=eps,
        idx=idx,
        maximizers=mesh.points[idx].copy(),
        u_values=uvals[at],
        grad_norms=grad_at,
        L_values=L_at,
        passes=passes,
        mesh_tol=float(mesh_tol),
        boundary_dominated=boundary_dominated,
        conclusive=not boundary_dominated,
        A_estimate=A,
        B_estimate=B,
        r=r,
    )


# ---------------------------------------------------------------------------
# drives


@dataclass(frozen=True)
class DriveReport:
    """Outcome of one theorem drive: identity errors, premises, maximizer run."""

    kind: str
    r: int
    residual_sup: float
    grad_identity_err: float
    L_identity_err: float
    containment_holds: bool
    exit_margin: float
    oy: Optional[OYRun]
    failed_premises: tuple
    extras: dict = field(default_factory=dict)

    def to_json_dict(self):
        out = {
            "kind": self.kind,
            "r": self.r,
            "residual_sup": float(self.residual_sup),
            "grad_identity_err": float(self.grad_identity_err),
            "L_identity_err": float(self.L_identity_err),
            "containment_holds": self.containment_holds,
            "exit_margin": float(self.exit_margin),
            "failed_premises": list(self.failed_premises),
            "oy": None if self.oy is None else self.oy.to_json_dict(),
        }
        for key, val in self.extras.items():
            if isinstance(val, np.ndarray):
                out[key] = list(map(float, val))
            else:
                out[key] = val
        return out


def _translator_residual_sup(mesh, V, r):
    mg = mesh.geometry()
    res = mg.sigma_r(r) - rowdot(mg.N, np.broadcast_to(V, mg.N.shape))
    return float(np.max(np.abs(res), initial=0.0))


def _origin_mask(mesh, origin, floor=1e-6):
    xs = mesh.positions()
    return np.linalg.norm(xs - origin, axis=1) > floor


def _identity_errors(mesh, psi, r, mask, expected):
    """Worst gradient and scaled L_{r-1} identity errors of psi over the masked mesh.

    ``expected(mg)`` returns the frame gradients (m, n) and the L_{r-1} psi
    values (m,) that the drive's identities predict at the rows of mg.
    """
    mg = mesh.masked_geometry(mask)
    want_grad, want_L = expected(mg)
    gpsi = mg.frame_gradient(psi)
    grad_err = float(np.max(np.abs(gpsi - want_grad), initial=0.0))
    lhs = mg.L_operator(psi, r)
    L_err = float(np.max(np.abs(lhs - want_L) / (1.0 + mg.normA**2), initial=0.0))
    return grad_err, L_err


def cone_drive(chart, mesh, V, a, r, G=None, k_max=8, origin=None, gate=None):
    """Drive the cone argument: psi = <X, V> - a |X| on a translator mesh.

    Verifies the gradient identity grad psi = V^T - a grad|X| and the
    operator identity L_{r-1} psi = r sigma_r^2 - a L_{r-1}|X|, runs the
    maximizer sequence on psi, evaluates alpha(sigma_r^2) against the
    comparison sequence, and reports which premise of the nonexistence
    statement fails on this mesh (for genuine translators: containment).

    The premises come from ``gate``, a cone ``hypothesis_gate`` report on
    this mesh with a region; without one the drive builds it against
    ``Cone(V, a)``. A gate on the bounded-sigma branch reads HS2-2, so the
    drive then makes its own HS2-1 growth report.
    """
    V = np.asarray(V, dtype=float)
    if abs(np.linalg.norm(V) - 1.0) > 1e-10:
        raise InvalidInputError("velocity must be a unit vector")
    if not (0.0 < a < 1.0):
        raise InvalidInputError("cone parameter a must lie in (0, 1)")
    origin = np.zeros(chart.n + 1) if origin is None else np.asarray(origin, dtype=float)
    G = G or GFunction.iterated_log(1)
    if gate is None:
        gate = hypothesis_gate(chart, mesh, "cone", {"r": r, "V": V, "a": a, "base_point": origin},
                               region=Cone(V=V, a=a))
    _check_gate(gate, "cone")

    psi = cone_excess(V, a, origin)
    mask = _origin_mask(mesh, origin)

    def expected(mg):
        y = mg.X - origin
        d = np.sqrt(rowdot(y, y))
        grad = mg.tangential(V) - (a / d)[:, None] * mg.tangential(y)
        return grad, r * mg.sigma_r(r) ** 2 - a * mg.L_distance(r, origin)

    grad_err, L_err = _identity_errors(mesh, psi, r, mask, expected)

    run = oy_sequence(
        mesh, psi, distance_sq_to(origin), G, k_max=k_max, r=r, mask=mask
    )

    at = mesh.geometry().take(run.idx)
    t = at.sigma_r(r) ** 2
    alphas = np.full(k_max, np.nan)
    for j in np.flatnonzero(t >= 1.0 - a * a - 1e-12):
        alphas[j] = alpha(min(t[j], 1.0), a)
    y = at.X - origin
    d = np.sqrt(rowdot(y, y))
    bounds = (1.0 / r) * (1.0 / run.ks + a * (chart.n - r + 1) * at.sigma_r(r - 1) / d)

    growth = gate.growth
    if growth.hypothesis != "HS2-1":
        growth = growth_report(chart, mesh, "HS2-1", {"r": r, "a": a, "base_point": origin})

    return DriveReport(
        kind="cone",
        r=r,
        residual_sup=gate.residual_sup,
        grad_identity_err=grad_err,
        L_identity_err=L_err,
        containment_holds=gate.contained,
        exit_margin=gate.exit.margin,
        oy=run,
        failed_premises=gate.failed_premises(growth),
        extras={
            "alpha_values": alphas,
            "comparison_bounds": bounds,
            "min_eigen_P": gate.min_eigen_P,
            "growth": growth.to_json_dict(),
            "a": a,
        },
    )


def halfspace_drive(chart, mesh, V, W, r, G=None, k_max=8, origin=None, gate=None):
    """Drive the half-space argument: psi = <X, W> with <V, W> > 0.

    Verifies grad psi = W^T and L_{r-1} psi = r sigma_r <N, W> pointwise,
    runs the maximizer sequence, and checks the orthonormal-expansion
    identity <V, W> = sum <V,e_i><W,e_i> + <V,N><W,N> at each maximizer.
    Runs on non-translator charts too; the L values at maximizers then
    stay away from r <V, W>.

    The premises come from ``gate``, a half-space ``hypothesis_gate``
    report on this mesh with a region; without one the drive builds it
    against the half-space through the origin with normal W.
    """
    V = np.asarray(V, dtype=float)
    W = np.asarray(W, dtype=float)
    if abs(np.linalg.norm(W) - 1.0) > 1e-10:
        raise InvalidInputError("half-space direction must be a unit vector")
    c = float(V @ W)
    if c <= 0.0:
        raise InvalidInputError("need <V, W> > 0")
    origin = np.zeros(chart.n + 1) if origin is None else np.asarray(origin, dtype=float)
    G = G or GFunction.iterated_log(1)
    if gate is None:
        gate = hypothesis_gate(chart, mesh, "halfspace", {"r": r, "V": V, "base_point": origin},
                               region=Halfspace(B=np.zeros(chart.n + 1), W=W))
    _check_gate(gate, "halfspace")

    psi = linear_height(W)
    mask = _origin_mask(mesh, origin)
    def height_L(mg):
        return r * mg.sigma_r(r) * rowdot(mg.N, np.broadcast_to(W, mg.N.shape))

    grad_err, L_err = _identity_errors(
        mesh, psi, r, mask, lambda mg: (mg.tangential(W), height_L(mg)),
    )

    run = oy_sequence(mesh, psi, distance_sq_to(origin), G, k_max=k_max, r=r, mask=mask)

    at = mesh.geometry().take(run.idx)
    NV = rowdot(at.N, np.broadcast_to(V, at.N.shape))
    NW = rowdot(at.N, np.broadcast_to(W, at.N.shape))
    expansion = rowdot(at.tangential(V), at.tangential(W)) + NV * NW
    frame_err = float(np.max(np.abs(c - expansion)))
    L_at = height_L(at)

    return DriveReport(
        kind="halfspace",
        r=r,
        residual_sup=gate.residual_sup,
        grad_identity_err=grad_err,
        L_identity_err=L_err,
        containment_holds=gate.contained,
        exit_margin=gate.exit.margin,
        oy=run,
        failed_premises=gate.failed_premises(gate.growth),
        extras={
            "frame_identity_err": frame_err,
            "L_at_maximizers": np.asarray(L_at),
            "r_times_c": r * c,
            "min_eigen_P": gate.min_eigen_P,
            "growth": gate.growth.to_json_dict(),
        },
    )


# ---------------------------------------------------------------------------
# hypothesis gates


# the premise id under which each growth hypothesis is reported
_GROWTH_PREMISE = {
    "HS2-1": "growth-sigma-linear",
    "HS2-2": "growth-curvature-loglog",
    "HS1-1": "growth-sigma-quadlog",
    "CM": "growth-sigma-quadlog",
}


@dataclass(frozen=True)
class GateReport:
    """Pass/fail per premise of one nonexistence statement, on one mesh.

    Beside the premise dicts it keeps what they were computed from: the
    translator residual sup, the smallest eigenvalue of P_{r-1}, the
    growth report and, when a region was given, the first-exit scan.
    """

    theorem: str
    premises: tuple
    contained: Optional[bool]
    consistent: Optional[bool]
    residual_sup: float
    min_eigen_P: float
    growth: GrowthReport
    exit: Optional[FirstExit]

    def to_json_dict(self):
        return {
            "theorem": self.theorem,
            "premises": [dict(p) for p in self.premises],
            "contained": self.contained,
            "consistent": self.consistent,
        }

    def failed_premises(self, growth):
        """A drive's failing premise ids: containment, newton-psd, growth, translator-residual.

        ``growth`` is the growth report the drive reads (the gate's own, or
        the cone drive's HS2-1 when the gate reads HS2-2).
        """
        passed = {p["id"]: p["pass"] for p in self.premises}
        holds = {
            "containment": self.contained,
            "newton-psd": passed["newton-psd"],
            _GROWTH_PREMISE[growth.hypothesis]: growth.satisfied,
            "translator-residual": passed["translator-residual"],
        }
        return tuple(pid for pid, ok in holds.items() if not ok)


def _check_gate(gate, theorem):
    if gate.theorem != theorem or gate.exit is None:
        raise InvalidInputError(f"the {theorem} drive needs a {theorem} gate built with a region")


def _premise(pid, ok, value, threshold, empirical=False, conclusive=True):
    return {
        "id": pid,
        "pass": bool(ok),
        "value": float(value),
        "threshold": float(threshold),
        "empirical": bool(empirical),
        "conclusive": bool(conclusive),
    }


def hypothesis_gate(chart, mesh, theorem, params, region=None):
    """Aggregate premise checks for one of the nonexistence statements.

    theorem is 'cone', 'halfspace' or 'bihalfspace'. params carry r, V,
    the cone parameter a, the asserted branch for the cone statement
    ('proper' checks the sigma/delta ratio, 'bounded-sigma' the intrinsic
    curvature growth), the positivity margin eps for the bi-half-space
    statement, and residual_tol. With a region the report also states
    containment and overall consistency: no configured mesh may pass
    every premise and stay contained. This is the one place a theorem's
    premises are computed; the drives read the report.
    """
    if theorem not in ("cone", "halfspace", "bihalfspace"):
        raise InvalidInputError(f"unknown theorem id {theorem!r}")
    r = int(params["r"])
    V = np.asarray(params["V"], dtype=float)
    res_tol = float(params.get("residual_tol", 1e-6))
    base = np.asarray(params.get("base_point", np.zeros(chart.n + 1)), dtype=float)

    premises = []

    res_sup = _translator_residual_sup(mesh, V, r)
    premises.append(_premise("translator-residual", res_sup < res_tol, res_sup, res_tol))

    sig_bound = float(np.max(np.abs(mesh.geometry().sigma_r(r))))
    premises.append(
        _premise("sigma-r-bounded", sig_bound <= 1.0 + 1e-9, sig_bound, 1.0)
    )

    psd = min_eigen_over_mesh(mesh, r)
    if theorem == "bihalfspace":
        eps = float(params.get("eps", 0.0))
        premises.append(_premise("newton-eps-definite", psd >= eps > 0.0, psd, eps))
    else:
        premises.append(_premise("newton-psd", psd >= -1e-10, psd, 0.0))

    if theorem == "cone":
        branch = params.get("asserted", "proper")
        if branch == "proper":
            hyp, growth_params = "HS2-1", {"r": r, "a": float(params["a"]), "base_point": base}
        elif branch == "bounded-sigma":
            hyp, growth_params = "HS2-2", {"r": r, "base_point": base}
        else:
            raise InvalidInputError("asserted branch must be 'proper' or 'bounded-sigma'")
    else:
        hyp = "CM" if theorem == "bihalfspace" else "HS1-1"
        growth_params = {"r": r, "base_point": base,
                         "bound": float(params.get("growth_bound", 1.0))}
    growth = growth_report(chart, mesh, hyp, growth_params)
    premises.append(
        _premise(_GROWTH_PREMISE[hyp], growth.satisfied, growth.tail_estimate, growth.bound,
                 empirical=True, conclusive=growth.conclusive)
    )

    exit_res = contained = consistent = None
    if region is not None:
        exit_res = first_exit(chart, region, mesh)
        contained = not exit_res.found
        all_pass = all(p["pass"] for p in premises)
        consistent = not (all_pass and contained)

    return GateReport(
        theorem=theorem, premises=tuple(premises), contained=contained,
        consistent=consistent, residual_sup=res_sup, min_eigen_P=psd, growth=growth,
        exit=exit_res,
    )
