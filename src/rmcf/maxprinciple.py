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
from dataclasses import dataclass

import numpy as np

from .charts import _check_order, cone_excess, distance_sq_to, linear_height, rowdot
from .errors import DomainError, InvalidInputError
from .regions import (BiHalfspace, Cone, FirstExit, GrowthReport, Halfspace, check_vertical,
                      coordinates, first_exit, growth_report, min_eigen_over_mesh)

SPLICE_T0 = math.exp(math.e) * 1.01   # splice point of the iterated-log profiles
BOUND_LOWER_LIMIT = math.exp(2 * math.e)  # integration base of the constant estimates
_MAX_LOG_LEVELS = 3
_RESIDUAL_TOL = 1e-6      # sup |sigma_r - <N, V>| a translator premise allows


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


class GFunction:
    """Growth-control function G: nonnegative, nondecreasing, G(0) > 0.

    Kinds: ``constant``; ``iterated_log`` with N levels, the profile
    t^2 prod_j (log^(j) t)^2 spliced to its value at t0 = e^e * 1.01 so
    that G stays positive and monotone down to 0. Both kinds carry closed
    forms for the reciprocal-square-root integrals.

    ``value``, ``integral_inv_sqrt``, ``phi``, ``phi_prime`` and
    ``p_bound`` act elementwise on arrays and return their numpy result,
    which is 0-d for a scalar input; each is a numpy expression over the
    whole array.
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
            return np.full(t.shape, self.constant)
        # the floor is raw(t0): clamping t at t0 splices G to its floor
        return np.maximum(self.floor, self._raw(np.maximum(t, SPLICE_T0)))

    def integral_inv_sqrt(self, lo, hi):
        """Signed int_lo^hi ds / sqrt(G(s)) by the piecewise closed form, elementwise."""
        lo = _nonnegative(lo, "G^(-1/2)")
        hi = _nonnegative(hi, "G^(-1/2)")
        sign = np.where(lo > hi, -1.0, 1.0)
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        if self.kind == "constant":
            return sign * ((hi - lo) / math.sqrt(self.constant))
        flat = np.maximum(np.minimum(hi, SPLICE_T0) - lo, 0.0) / math.sqrt(self.floor)
        # past the splice: the antiderivative of 1/(s prod log^(j) s) is log^(levels+1)
        a = np.maximum(lo, SPLICE_T0)
        top = self.levels + 1
        tail = _log_iterate(np.maximum(hi, a), top) - _log_iterate(a, top)
        return sign * (flat + tail)

    def phi(self, t):
        """phi(t) = log(int_0^t ds/sqrt(G) + 1); phi(0) = 0, increasing, concave."""
        t = _nonnegative(t, "phi")
        return np.log(self.integral_inv_sqrt(0.0, t) + 1.0)

    def phi_prime(self, t):
        """Analytic phi' = [sqrt(G(t)) (int_0^t ds/sqrt(G) + 1)]^{ -1 }."""
        return 1.0 / (np.sqrt(self.value(t)) * (self.integral_inv_sqrt(0.0, t) + 1.0))

    def p_bound(self, t):
        """sqrt(G(t)) (int_{e^{2e}}^t ds/sqrt(G) + 1), the growth comparison scale."""
        return np.sqrt(self.value(t)) * (self.integral_inv_sqrt(BOUND_LOWER_LIMIT, t) + 1.0)


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
    u_values: np.ndarray
    grad_norms: np.ndarray
    L_values: np.ndarray
    passes: np.ndarray
    mesh_tol: float
    boundary_dominated: bool
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
            "conclusive": not self.boundary_dominated,
            "A_estimate": float(self.A_estimate),
            "B_estimate": float(self.B_estimate),
            "r": self.r,
        }


def _max_spectral_radius(H):
    """max_i max |eigvalsh(H_i)| over a stack H (m, n, n), m >= 1, of symmetric matrices.

    A row's spectral radius is at most its Frobenius norm, so ``eigvalsh``
    runs only on the rows whose norm reaches the spectral radius of the
    row with the largest norm (with a 1e-10 relative margin for rounding)
    and on NaN rows; the maximum is over the same per-row values.
    """
    m, n, _ = H.shape
    flat = H.reshape(m, n * n)
    fro = np.sqrt(rowdot(flat, flat))
    top = np.max(np.abs(np.linalg.eigvalsh(H[np.argmax(fro)])))
    reach = ~(fro < top * (1.0 - 1e-10))
    return float(np.max(np.abs(np.linalg.eigvalsh(H[reach])), initial=0.0))


def oy_sequence(mesh, u_field, gamma_field, G, k_max=10, r=1, rows=None):
    """Maximizers of f_k = u - eps_k phi(gamma) with recorded gradient and L values.

    eps_k = 1 / (2 k max(A, B)) with A and B the empirical maxima of
    |grad gamma| and L_{r-1} gamma against the growth comparison scale.
    The search runs over ``rows``, rows of ``mesh.geometry()`` taken in
    ascending mesh order (all of them when not given). Ties in the argmax
    break to the lowest mesh index. Runs whose maximizer sits on the
    truncation boundary for every k are flagged boundary-dominated and
    marked inconclusive. r must lie in 1..n, as for
    ``MeshGeometry.L_operator``.
    """
    _check_order(r, mesh.chart.n, "oy_sequence")
    if k_max < 1:
        raise InvalidInputError("need k_max >= 1")
    geom = mesh.geometry() if rows is None else rows
    if len(geom) == 0:
        raise InvalidInputError("rows must hold at least one mesh point")

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
    lip = _max_spectral_radius(Hu)

    pb = G.p_bound(gvals)
    usable = np.isfinite(pb) & (pb > 0.0)
    if np.any(usable):
        A = float(np.max(grad_g[usable] / pb[usable]))
        B = float(np.max(L_g[usable] / pb[usable]))
    else:
        A = B = 1.0
    denom = max(A, B, 1e-8)

    phi_g = G.phi(gvals)

    ks = np.arange(1, k_max + 1)
    eps = 1.0 / (2.0 * ks * denom)
    # the rows ascend, so ties go to the lowest mesh index
    at = np.array([int(np.argmax(uvals - e * phi_g)) for e in eps])
    idx = geom.index[at]

    mesh_tol = 2.0 * mesh.spacing() * max(lip, 1e-30)
    grad_at = grad_u[at]
    L_at = L_u[at]
    passes = (grad_at < 1.0 / ks + mesh_tol) & (L_at < 1.0 / ks + mesh_tol)
    boundary_dominated = bool(np.all(mesh.boundary[idx]))
    return OYRun(
        ks=ks,
        eps=eps,
        idx=idx,
        u_values=uvals[at],
        grad_norms=grad_at,
        L_values=L_at,
        passes=passes,
        mesh_tol=float(mesh_tol),
        boundary_dominated=boundary_dominated,
        A_estimate=A,
        B_estimate=B,
        r=r,
    )


# ---------------------------------------------------------------------------
# drives


@dataclass(frozen=True)
class DriveReport:
    """Outcome of one theorem drive: identity errors, maximizer run and extras.

    It keeps the gate it read and the growth report it read (the gate's own,
    or the cone drive's HS2-1 when the gate reads HS2-2); ``to_json_dict``
    writes kind, r, residual_sup, containment_holds, exit_margin,
    failed_premises, min_eigen_P and growth from those two.
    """

    gate: "GateReport"
    growth: GrowthReport
    grad_identity_err: float
    L_identity_err: float
    oy: OYRun
    extras: dict

    def to_json_dict(self):
        gate = self.gate
        return {
            "kind": gate.theorem,
            "r": gate.r,
            "residual_sup": gate.residual_sup,
            "grad_identity_err": self.grad_identity_err,
            "L_identity_err": self.L_identity_err,
            "containment_holds": gate.contained,
            "exit_margin": gate.exit.margin,
            "failed_premises": list(gate.failed_premises(self.growth)),
            "min_eigen_P": gate.min_eigen_P,
            "growth": self.growth.to_json_dict(),
            "oy": self.oy.to_json_dict(),
            **self.extras,
        }


def _translator_residual_sup(mesh, V, r):
    mg = mesh.geometry()
    res = mg.sigma_r(r) - rowdot(mg.N, np.broadcast_to(V, mg.N.shape))
    return float(np.max(np.abs(res), initial=0.0))


def _maximizer_run(mesh, psi, r, expected):
    """Both drives' work on psi over the mesh points away from the origin.

    Returns the worst gradient and scaled L_{r-1} identity errors against
    ``expected(mg)`` (the predicted frame gradients (m, n) and L_{r-1} psi
    (m,) at the rows of mg), the maximizer run against gamma = |X|^2 with
    the one-level iterated-log G and k = 1..8, and the maximizers' geometry.
    """
    geom = mesh.geometry()
    mg = geom.take(np.linalg.norm(geom.X, axis=1) > 1e-6)
    want_grad, want_L = expected(mg)
    grad_err = float(np.max(np.abs(mg.frame_gradient(psi) - want_grad), initial=0.0))
    lhs = mg.L_operator(psi, r)
    L_err = float(np.max(np.abs(lhs - want_L) / (1.0 + mg.normA**2), initial=0.0))
    run = oy_sequence(mesh, psi, distance_sq_to(np.zeros(mesh.chart.n + 1)),
                      GFunction.iterated_log(1), k_max=8, r=r, rows=mg)
    return (grad_err, L_err), run, geom.take(run.idx)


def cone_drive(mesh, gate):
    """Drive the cone argument: psi = <X, V> - a |X| on a translator mesh.

    Verifies the gradient identity grad psi = V^T - a grad|X| and the
    operator identity L_{r-1} psi = r sigma_r^2 - a L_{r-1}|X|, runs the
    maximizer sequence on psi, evaluates alpha(sigma_r^2) against the
    comparison sequence, and reports which premise of the nonexistence
    statement fails on this mesh (for genuine translators: containment).

    ``gate`` is a cone ``hypothesis_gate`` report on this mesh: the drive
    reads r, V, the premises and the cone's a from it.
    A gate on the bounded-sigma branch reads HS2-2, so the drive then makes
    its own HS2-1 growth report.
    """
    _check_gate(gate, "cone")
    V, r, a = gate.V, gate.r, gate.region.a
    n = mesh.chart.n

    def expected(mg):
        d = np.sqrt(rowdot(mg.X, mg.X))
        grad = mg.tangential(V) - (a / d)[:, None] * mg.tangential(mg.X)
        return grad, r * mg.sigma_r(r) ** 2 - a * mg.L_distance(r, np.zeros(n + 1))

    errors, run, at = _maximizer_run(mesh, cone_excess(V, a), r, expected)

    t = at.sigma_r(r) ** 2
    alphas = np.full(len(run.ks), np.nan)
    for j in np.flatnonzero(t >= 1.0 - a * a - 1e-12):
        alphas[j] = alpha(min(t[j], 1.0), a)
    d = np.sqrt(rowdot(at.X, at.X))
    bounds = (1.0 / r) * (1.0 / run.ks + a * (n - r + 1) * at.sigma_r(r - 1) / d)

    growth = gate.growth
    if growth.hypothesis != "HS2-1":
        growth = growth_report(mesh, "HS2-1", {"r": r, "a": a})
    return DriveReport(gate, growth, *errors, run,
                       {"alpha_values": alphas, "comparison_bounds": bounds, "a": a})


def halfspace_drive(mesh, gate):
    """Drive the half-space argument: psi = <X, W> with <V, W> > 0.

    Verifies grad psi = W^T and L_{r-1} psi = r sigma_r <N, W> pointwise,
    runs the maximizer sequence, and checks the orthonormal-expansion
    identity <V, W> = sum <V,e_i><W,e_i> + <V,N><W,N> at each maximizer.
    Runs on non-translator charts too; the L values at maximizers then
    stay away from r <V, W>.

    ``gate`` is a half-space ``hypothesis_gate`` report on this mesh: the
    drive reads r, V, the premises and the normal W from it; the gate has
    checked <V, W> > 0.
    """
    _check_gate(gate, "halfspace")
    V, r, W = gate.V, gate.r, gate.region.W
    c = float(V @ W)

    def height_L(mg):
        return r * mg.sigma_r(r) * rowdot(mg.N, np.broadcast_to(W, mg.N.shape))

    errors, run, at = _maximizer_run(
        mesh, linear_height(W), r, lambda mg: (mg.tangential(W), height_L(mg)),
    )

    NV = rowdot(at.N, np.broadcast_to(V, at.N.shape))
    NW = rowdot(at.N, np.broadcast_to(W, at.N.shape))
    expansion = rowdot(at.tangential(V), at.tangential(W)) + NV * NW
    frame_err = float(np.max(np.abs(c - expansion)))
    return DriveReport(gate, gate.growth, *errors, run, {
        "frame_identity_err": frame_err,
        "L_at_maximizers": np.asarray(height_L(at)),
        "r_times_c": r * c,
    })


# ---------------------------------------------------------------------------
# hypothesis gates


# the statement each region type states
_THEOREM = {Cone: "cone", Halfspace: "halfspace", BiHalfspace: "bihalfspace"}

# the premise id under which each growth hypothesis is reported
_GROWTH_PREMISE = {
    "HS2-1": "growth-sigma-linear",
    "HS2-2": "growth-curvature-loglog",
    "HS1-1": "growth-sigma-quadlog",
}


@dataclass(frozen=True)
class GateReport:
    """Pass/fail per premise of one nonexistence statement, on one mesh.

    Beside the premise dicts it keeps what they were computed from: r, the
    velocity V, the region (whose type names the statement), the
    translator residual sup, the smallest eigenvalue of P_{r-1}, the
    growth report and the region's first-exit scan.
    """

    r: int
    V: np.ndarray
    region: object
    premises: tuple
    contained: bool
    consistent: bool
    residual_sup: float
    min_eigen_P: float
    growth: GrowthReport
    exit: FirstExit

    @property
    def theorem(self):
        return _THEOREM[type(self.region)]

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
    if gate.theorem != theorem:
        raise InvalidInputError(f"the {theorem} drive needs a {theorem} gate")


def _premise(pid, ok, value, threshold, empirical=False, conclusive=True):
    return {
        "id": pid,
        "pass": bool(ok),
        "value": float(value),
        "threshold": float(threshold),
        "empirical": bool(empirical),
        "conclusive": bool(conclusive),
    }


def check_statement(n, region, params):
    """The order r and velocity V of the statement of ``region`` on an n-dim surface, checked.

    They are r in 1..n, a unit V and region vectors with n + 1 coordinates,
    <V, W> > 0 for a half-space, <V, W_i> = 0 for a pair (``check_vertical``)
    and a cone axis along V; each failure names its config field ('r', 'V', ...).
    """
    theorem = _THEOREM.get(type(region))
    if theorem is None:
        raise InvalidInputError(f"no nonexistence statement for a {type(region).__name__} region")
    V = coordinates(params["V"], n + 1, "V")
    if not abs(np.linalg.norm(V) - 1.0) <= 1e-10:
        raise InvalidInputError(
            f"the velocity 'V' must be a unit vector (|V| = {np.linalg.norm(V):g})")
    if theorem == "cone":
        axis = coordinates(region.V, n + 1, "region.V")
        if not np.allclose(axis, V, rtol=0.0, atol=1e-10):
            raise InvalidInputError("the cone's axis 'region.V' must point along the velocity 'V'")
    elif theorem == "halfspace":
        W = coordinates(region.W, n + 1, "region.W")
        if not V @ W > 0.0:
            raise InvalidInputError(f"'region.W' needs <V, W> > 0 (got {V @ W:g})")
    else:
        coordinates(region.first.W, n + 1, "region.halfspaces[0].W")
        check_vertical(region, V)
    r = params["r"]
    if not (1 <= r <= n and r == int(r)):
        raise InvalidInputError(f"'r' must satisfy 1 <= r <= n = {n} (got r={r})")
    return int(r), V


def hypothesis_gate(mesh, region, params):
    """Aggregate premise checks for the nonexistence statement of ``region``.

    The region's type is the statement: a ``Cone`` (axis V, parameter a)
    the cone statement, a ``Halfspace`` (normal W) the half-space one and
    a ``BiHalfspace`` the bi-half-space one. params carry r, V, the
    asserted branch for the cone statement ('proper' checks the
    sigma/delta ratio against the region's a, 'bounded-sigma' the
    intrinsic curvature growth) and the positivity margin eps for the
    bi-half-space statement. ``check_statement`` checks them first.
    The report states containment and overall consistency: no configured
    mesh may pass every premise and stay contained. This is the one place
    a statement's premises are computed; the drives read the report.
    """
    r, V = check_statement(mesh.chart.n, region, params)

    premises = []

    res_sup = _translator_residual_sup(mesh, V, r)
    premises.append(_premise("translator-residual", res_sup < _RESIDUAL_TOL, res_sup,
                             _RESIDUAL_TOL))

    sig_bound = float(np.max(np.abs(mesh.geometry().sigma_r(r))))
    premises.append(
        _premise("sigma-r-bounded", sig_bound <= 1.0 + 1e-9, sig_bound, 1.0)
    )

    psd = min_eigen_over_mesh(mesh, r)
    if isinstance(region, BiHalfspace):
        eps = float(params.get("eps", 0.0))
        premises.append(_premise("newton-eps-definite", psd >= eps > 0.0, psd, eps))
    else:
        premises.append(_premise("newton-psd", psd >= -1e-10, psd, 0.0))

    if isinstance(region, Cone):
        branch = params.get("asserted", "proper")
        if branch == "proper":
            hyp, growth_params = "HS2-1", {"r": r, "a": region.a}
        elif branch == "bounded-sigma":
            hyp, growth_params = "HS2-2", {"r": r}
        else:
            raise InvalidInputError("asserted branch must be 'proper' or 'bounded-sigma'")
    else:
        hyp, growth_params = "HS1-1", {"r": r}
    growth = growth_report(mesh, hyp, growth_params)
    premises.append(
        _premise(_GROWTH_PREMISE[hyp], growth.satisfied, growth.tail_estimate, growth.bound,
                 empirical=True, conclusive=growth.conclusive)
    )

    exit_res = first_exit(region, mesh)
    contained = not exit_res.found
    consistent = not (contained and all(p["pass"] for p in premises))

    return GateReport(
        r=r, V=V, region=region, premises=tuple(premises),
        contained=contained, consistent=consistent, residual_sup=res_sup, min_eigen_P=psd,
        growth=growth, exit=exit_res,
    )
