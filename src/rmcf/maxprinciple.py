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

from .charts import (
    L_distance,
    L_operator,
    cone_excess,
    distance_sq_to,
    frame_gradient,
    intrinsic_hessian,
    linear_height,
)
from .errors import (
    BoundaryDominatedWarning,
    DomainError,
    InvalidInputError,
    NumericalError,
)
from .regions import Cone, Halfspace, first_exit, growth_report, min_eigen_over_mesh
from .symfun import newton_transform

SPLICE_T0 = math.exp(math.e) * 1.01   # splice point of the iterated-log profiles
BOUND_LOWER_LIMIT = math.exp(2 * math.e)  # integration base of the constant estimates
_MAX_LOG_LEVELS = 3


def _log_iterate(t, j):
    for _ in range(j):
        t = math.log(t)
    return t


class GFunction:
    """Growth-control function G: nonnegative, nondecreasing, G(0) > 0.

    Kinds: ``constant``; ``iterated_log`` with N levels, the profile
    t^2 prod_j (log^(j) t)^2 spliced to its value at t0 = e^e * 1.01 so
    that G stays positive and monotone down to 0; ``table`` for custom
    monotone samples. The reciprocal-square-root integrals carry closed
    forms for the first two kinds; a quadrature route exists for all and
    can be forced for cross-checks.
    """

    def __init__(self, kind, constant=None, levels=None, table=None):
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
            self.floor = self._raw(SPLICE_T0)
        elif kind == "table":
            ts, gs = table
            ts = np.asarray(ts, dtype=float)
            gs = np.asarray(gs, dtype=float)
            if np.any(np.diff(ts) <= 0) or np.any(gs <= 0) or np.any(np.diff(gs) < 0):
                raise InvalidInputError("table must be increasing in t with positive nondecreasing G")
            self.ts, self.gs = ts, gs
            self.floor = float(gs[0])
        else:
            raise InvalidInputError(f"unknown G kind {kind!r}")

    @classmethod
    def constant_fn(cls, value):
        return cls("constant", constant=value)

    @classmethod
    def iterated_log(cls, levels=1):
        return cls("iterated_log", levels=levels)

    @classmethod
    def from_table(cls, ts, gs):
        return cls("table", table=(ts, gs))

    def _raw(self, t):
        prod = t * t
        for j in range(1, self.levels + 1):
            prod *= _log_iterate(t, j) ** 2
        return prod

    def value(self, t):
        t = float(t)
        if t < 0:
            raise DomainError("G is defined on [0, infinity)")
        if self.kind == "constant":
            return self.constant
        if self.kind == "iterated_log":
            if t <= SPLICE_T0:
                return self.floor
            return max(self.floor, self._raw(t))
        return float(np.interp(t, self.ts, self.gs))

    # -- integrals of 1 / sqrt(G) ------------------------------------------

    def _closed_integral(self, lo, hi):
        """Signed integral of G^{-1/2} with the piecewise closed form."""
        if lo > hi:
            return -self._closed_integral(hi, lo)
        if self.kind == "constant":
            return (hi - lo) / math.sqrt(self.constant)
        t0 = SPLICE_T0
        total = 0.0
        flat_hi = min(hi, t0)
        if lo < flat_hi:
            total += (flat_hi - lo) / math.sqrt(self.floor)
        a = max(lo, t0)
        if hi > a:
            # antiderivative of 1/(s prod log^(j) s) is log^(levels+1)
            total += _log_iterate(hi, self.levels + 1) - _log_iterate(a, self.levels + 1)
        return total

    def integral_inv_sqrt(self, lo, hi, method="auto"):
        """Signed int_lo^hi ds / sqrt(G(s)); 'quad' forces adaptive quadrature."""
        if lo < 0 or hi < 0:
            raise DomainError("integral limits must be nonnegative")
        if method == "auto" and self.kind in ("constant", "iterated_log"):
            return self._closed_integral(lo, hi)

        from scipy.integrate import quad

        def f(s):
            return 1.0 / math.sqrt(self.value(s))

        pts = None
        if self.kind == "iterated_log":
            t0 = SPLICE_T0
            if min(lo, hi) < t0 < max(lo, hi):
                pts = [t0]
        val, err = quad(f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=300, points=pts)
        if err > 1e-8 * max(1.0, abs(val)) + 1e-10:
            raise NumericalError(
                f"quadrature of G^(-1/2) did not converge: value {val:.6e}, "
                f"error estimate {err:.2e}"
            )
        return float(val)

    def phi(self, t, method="auto"):
        """phi(t) = log(int_0^t ds/sqrt(G) + 1); phi(0) = 0, increasing, concave."""
        if t < 0:
            raise DomainError("phi is defined on [0, infinity)")
        return math.log(self.integral_inv_sqrt(0.0, float(t), method=method) + 1.0)

    def phi_prime(self, t):
        """Analytic phi' = [sqrt(G(t)) (int_0^t ds/sqrt(G) + 1)]^{ -1 }."""
        return 1.0 / (
            math.sqrt(self.value(t)) * (self.integral_inv_sqrt(0.0, float(t)) + 1.0)
        )

    def p_bound(self, t, method="auto"):
        """sqrt(G(t)) (int_{e^{2e}}^t ds/sqrt(G) + 1), the growth comparison scale."""
        return math.sqrt(self.value(t)) * (
            self.integral_inv_sqrt(BOUND_LOWER_LIMIT, float(t), method=method) + 1.0
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
    scale. Ties in the argmax break to the lowest mesh index. Runs whose
    maximizer sits on the truncation boundary for every k are flagged
    boundary-dominated and marked inconclusive.
    """
    if k_max < 1:
        raise InvalidInputError("need k_max >= 1")
    chart = mesh.chart
    geom = mesh.geometry()
    m = len(mesh)
    active = np.ones(m, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if active.shape != (m,) or not np.any(active):
        raise InvalidInputError("mask must keep at least one mesh point")

    uvals = np.full(m, -np.inf)
    gvals = np.empty(m)
    grad_u = np.empty(m)
    L_u = np.empty(m)
    grad_g = np.empty(m)
    L_g = np.empty(m)
    lip = 0.0
    supz = 0.0
    for i in range(m):
        if not active[i]:
            continue
        u = mesh.points[i]
        pg = geom[i]
        uvals[i] = u_field.value(chart, u, pg.jet)
        gvals[i] = gamma_field.value(chart, u, pg.jet)
        if gvals[i] <= 0.0:
            raise InvalidInputError("gamma must be strictly positive on the mesh")
        P = newton_transform(pg.A, r - 1)
        Hu = intrinsic_hessian(chart, u_field, u, pg=pg)
        gu = frame_gradient(chart, u_field, u, pg=pg)
        grad_u[i] = float(np.linalg.norm(gu))
        L_u[i] = float(np.trace(P.entries @ Hu.entries))
        Hg = intrinsic_hessian(chart, gamma_field, u, pg=pg)
        gg = frame_gradient(chart, gamma_field, u, pg=pg)
        grad_g[i] = float(np.linalg.norm(gg))
        L_g[i] = float(np.trace(P.entries @ Hg.entries))
        if z_field is not None:
            zv = np.asarray(z_field(chart, u, pg), dtype=float)
            supz = max(supz, float(np.linalg.norm(zv)))
            L_u[i] -= float(zv @ gu)
            L_g[i] -= float(zv @ gg)
        lip = max(lip, float(np.max(np.abs(Hu.eigenvalues()))))

    pb = np.array(
        [G.p_bound(gvals[i]) if active[i] else np.nan for i in range(m)]
    )
    usable = active & np.isfinite(pb) & (pb > 0.0)
    if np.any(usable):
        A = float(np.max(grad_g[usable] / pb[usable]))
        B = float(np.max(L_g[usable] / pb[usable]))
    else:
        A = B = 1.0
    denom = max(A, B + A * supz, 1e-8)

    phi_g = np.array([G.phi(gvals[i]) if active[i] else 0.0 for i in range(m)])

    ks = np.arange(1, k_max + 1)
    eps = 1.0 / (2.0 * ks * denom)
    idx = np.empty(k_max, dtype=int)
    for j, e in enumerate(eps):
        fk = np.where(active, uvals - e * phi_g, -np.inf)
        idx[j] = int(np.argmax(fk))

    mesh_tol = 2.0 * mesh.spacing() * max(lip, 1e-30)
    grad_at = grad_u[idx]
    L_at = L_u[idx]
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
        u_values=uvals[idx],
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
    worst = 0.0
    for pg in mesh.geometry():
        worst = max(worst, abs(pg.sigma_r(r) - float(pg.N @ V)))
    return worst


def _origin_mask(mesh, origin, floor=1e-6):
    xs = mesh.positions()
    return np.linalg.norm(xs - origin, axis=1) > floor


def _identity_errors(chart, mesh, psi, r, mask, expected):
    """Worst gradient and scaled L_{r-1} identity errors of psi over the masked mesh.

    ``expected(u, pg)`` returns the frame gradient and the L_{r-1} psi
    value that the drive's identities predict at one mesh point.
    """
    geom = mesh.geometry()
    grad_err = 0.0
    L_err = 0.0
    for i in np.flatnonzero(mask):
        u = mesh.points[i]
        pg = geom[i]
        want_grad, want_L = expected(u, pg)
        gpsi = frame_gradient(chart, psi, u, pg=pg)
        grad_err = max(grad_err, float(np.max(np.abs(gpsi - want_grad))))
        lhs = L_operator(chart, psi, u, r, pg=pg)
        L_err = max(L_err, abs(lhs - want_L) / (1.0 + pg.normA**2))
    return grad_err, L_err


def _failed_premises(contained, psd, growth, growth_id, res_sup):
    failing = {"containment": not contained, "newton-psd": psd < -1e-10,
               growth_id: not growth.satisfied, "translator-residual": res_sup > 1e-6}
    return tuple(name for name, bad in failing.items() if bad)


def cone_drive(
    chart, mesh, V, a, r, G=None, k_max=8, require_translator=True, origin=None
):
    """Drive the cone argument: psi = <X, V> - a |X| on a translator mesh.

    Verifies the gradient identity grad psi = V^T - a grad|X| and the
    operator identity L_{r-1} psi = r sigma_r^2 - a L_{r-1}|X|, runs the
    maximizer sequence on psi, evaluates alpha(sigma_r^2) against the
    comparison sequence, and reports which premise of the nonexistence
    statement fails on this mesh (for genuine translators: containment).
    """
    V = np.asarray(V, dtype=float)
    if abs(np.linalg.norm(V) - 1.0) > 1e-10:
        raise InvalidInputError("velocity must be a unit vector")
    if not (0.0 < a < 1.0):
        raise InvalidInputError("cone parameter a must lie in (0, 1)")
    origin = np.zeros(chart.n + 1) if origin is None else np.asarray(origin, dtype=float)
    G = G or GFunction.iterated_log(1)

    res_sup = _translator_residual_sup(mesh, V, r)
    if require_translator and res_sup > 1e-4:
        raise InvalidInputError(
            f"chart is not a translator for (V, r): residual sup {res_sup:.3e}"
        )

    exit_res = first_exit(chart, Cone(V=V, a=a), mesh)
    contained = not exit_res.found

    psi = cone_excess(V, a, origin)
    mask = _origin_mask(mesh, origin)

    def expected(u, pg):
        y = pg.X - origin
        d = float(np.linalg.norm(y))
        grad = pg.tangential(V) - (a / d) * pg.tangential(y)
        return grad, r * pg.sigma_r(r) ** 2 - a * L_distance(chart, u, r, origin, pg=pg)

    grad_err, L_err = _identity_errors(chart, mesh, psi, r, mask, expected)

    run = oy_sequence(
        mesh, psi, distance_sq_to(origin), G, k_max=k_max, r=r, mask=mask
    )

    geom = mesh.geometry()
    alphas = np.full(k_max, np.nan)
    bounds = np.empty(k_max)
    floor = 1.0 - a * a
    for j, i in enumerate(run.idx):
        pg = geom[i]
        t = pg.sigma_r(r) ** 2
        if t >= floor - 1e-12:
            alphas[j] = alpha(min(t, 1.0), a)
        d = float(np.linalg.norm(pg.X - origin))
        bounds[j] = (1.0 / r) * (1.0 / run.ks[j] + a * (chart.n - r + 1) * pg.sigma_r(r - 1) / d)

    growth = growth_report(
        chart, mesh, "HS2-1", {"r": r, "a": a, "base_point": origin}
    )
    psd = min_eigen_over_mesh(mesh, r)

    return DriveReport(
        kind="cone",
        r=r,
        residual_sup=res_sup,
        grad_identity_err=grad_err,
        L_identity_err=L_err,
        containment_holds=contained,
        exit_margin=exit_res.margin,
        oy=run,
        failed_premises=_failed_premises(
            contained, psd, growth, "growth-sigma-linear", res_sup
        ),
        extras={
            "alpha_values": alphas,
            "comparison_bounds": bounds,
            "min_eigen_P": psd,
            "growth": growth.to_json_dict(),
            "a": a,
        },
    )


def halfspace_drive(chart, mesh, V, W, r, G=None, k_max=8, origin=None):
    """Drive the half-space argument: psi = <X, W> with <V, W> > 0.

    Verifies grad psi = W^T and L_{r-1} psi = r sigma_r <N, W> pointwise,
    runs the maximizer sequence, and checks the orthonormal-expansion
    identity <V, W> = sum <V,e_i><W,e_i> + <V,N><W,N> at each maximizer.
    Runs on non-translator charts too; the L values at maximizers then
    stay away from r <V, W>.
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

    res_sup = _translator_residual_sup(mesh, V, r)
    exit_res = first_exit(chart, Halfspace(B=origin * 0.0, W=W), mesh)
    contained = not exit_res.found

    psi = linear_height(W)
    mask = _origin_mask(mesh, origin)
    grad_err, L_err = _identity_errors(
        chart, mesh, psi, r, mask,
        lambda u, pg: (pg.tangential(W), r * pg.sigma_r(r) * float(pg.N @ W)),
    )

    run = oy_sequence(mesh, psi, distance_sq_to(origin), G, k_max=k_max, r=r, mask=mask)

    geom = mesh.geometry()
    frame_err = 0.0
    L_at = []
    for i in run.idx:
        pg = geom[i]
        expansion = float(pg.tangential(V) @ pg.tangential(W)) + float(
            (pg.N @ V) * (pg.N @ W)
        )
        frame_err = max(frame_err, abs(c - expansion))
        L_at.append(r * pg.sigma_r(r) * float(pg.N @ W))

    growth = growth_report(chart, mesh, "HS1-1", {"r": r, "base_point": origin})
    psd = min_eigen_over_mesh(mesh, r)

    return DriveReport(
        kind="halfspace",
        r=r,
        residual_sup=res_sup,
        grad_identity_err=grad_err,
        L_identity_err=L_err,
        containment_holds=contained,
        exit_margin=exit_res.margin,
        oy=run,
        failed_premises=_failed_premises(
            contained, psd, growth, "growth-sigma-quadlog", res_sup
        ),
        extras={
            "frame_identity_err": frame_err,
            "L_at_maximizers": np.asarray(L_at),
            "r_times_c": r * c,
            "min_eigen_P": psd,
            "growth": growth.to_json_dict(),
        },
    )


# ---------------------------------------------------------------------------
# hypothesis gates


@dataclass(frozen=True)
class GateReport:
    """Pass/fail per premise of one nonexistence statement, on one mesh."""

    theorem: str
    premises: tuple
    contained: Optional[bool]
    consistent: Optional[bool]

    def to_json_dict(self):
        return {
            "theorem": self.theorem,
            "premises": [dict(p) for p in self.premises],
            "contained": self.contained,
            "consistent": self.consistent,
        }


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
    every premise and stay contained.
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

    sig_bound = max(abs(pg.sigma_r(r)) for pg in mesh.geometry())
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
            rep = growth_report(
                chart, mesh, "HS2-1", {"r": r, "a": float(params["a"]), "base_point": base}
            )
            pid = "growth-sigma-linear"
        elif branch == "bounded-sigma":
            rep = growth_report(chart, mesh, "HS2-2", {"r": r, "base_point": base})
            pid = "growth-curvature-loglog"
        else:
            raise InvalidInputError("asserted branch must be 'proper' or 'bounded-sigma'")
        premises.append(
            _premise(pid, rep.satisfied, rep.tail_estimate, rep.bound,
                     empirical=True, conclusive=rep.conclusive)
        )
    else:
        rep = growth_report(chart, mesh, "CM" if theorem == "bihalfspace" else "HS1-1",
                            {"r": r, "base_point": base,
                             "bound": float(params.get("growth_bound", 1.0))})
        premises.append(
            _premise("growth-sigma-quadlog", rep.satisfied, rep.tail_estimate, rep.bound,
                     empirical=True, conclusive=rep.conclusive)
        )

    contained = None
    consistent = None
    if region is not None:
        exit_res = first_exit(chart, region, mesh)
        contained = not exit_res.found
        all_pass = all(p["pass"] for p in premises)
        consistent = not (all_pass and contained)

    return GateReport(
        theorem=theorem, premises=tuple(premises), contained=contained,
        consistent=consistent,
    )
