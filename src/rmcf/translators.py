"""Explicit translating solitons: the Grim Reaper cylinder and the rotational bowls.

The rotational profile u(R) of a graph translator with vertical velocity
solves sigma_r = 1 / sqrt(1 + u'^2). Writing w = u' / (R sqrt(1 + u'^2))
for the (n-1)-fold parallel curvature and kappa = u'' / (1 + u'^2)^{3/2}
for the meridian curvature,

    sigma_r = C(n-1, r) w^r + C(n-1, r-1) w^{r-1} kappa,

so the profile equation solved for the second derivative is

    u'' = (1 + u'^2)^{3/2} * [Theta - C(n-1, r) w^r] / [C(n-1, r-1) w^{r-1}],

with Theta = (1 + u'^2)^{-1/2}. For r = 1 this collapses to the familiar
u'' / (1 + u'^2) + (n-1) u' / R = 1. The vertex is umbilic with
k0 = C(n, r)^{-1/r}, and matching orders in the series
u = k0 R^2 / 2 + a4 R^4 + O(R^6) gives

    a4 = (s + k0^3 / 2) / 4,   s = -k0^{3-r} / (2 (r C1 + (r+2) C2)),

which reproduces a4 = 1 / (4 n^3 (n+2)) for r = 1 and the classical
R^2/2 + R^4/12 expansion of -log cos R at (n, r) = (1, 1).

Integration starts at R_s = 1e-3 from the two-term series (the w = u'/R
term is singular at R = 0) and runs an adaptive implicit Runge-Kutta
(Radau) for r >= 2, where the far-field branch u' ~ R^r / C(n-1, r) is
stiffly attracting; the explicit RK45 pair handles r = 1.

For r = n the profile turns vertical at a finite radius R_*
(``domain_radius``): the graph is the Gauss-curvature-type translator
over a ball, and solves must stop short of R_*.
"""

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .charts import Chart, graph_chart
from .errors import (
    DegenerateODEError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StiffFailureError,
)

R_START_DEFAULT = 1e-3
R_MAX_LIMIT = 1e4
TOL_RANGE = (1e-12, 1e-6)
_BLOWUP_LIMIT = 1e100


def vertex_curvature(n, r):
    """Common principal curvature at the umbilic vertex: C(n, r)^(-1/r)."""
    _check_orders(n, r)
    return math.comb(n, r) ** (-1.0 / r)


def vertex_series_coeffs(n, r):
    """(k0, a4) of the vertex expansion u = k0 R^2 / 2 + a4 R^4 + O(R^6)."""
    _check_orders(n, r)
    k0 = vertex_curvature(n, r)
    c1 = math.comb(n - 1, r)
    c2 = math.comb(n - 1, r - 1)
    s = -(k0 ** (3 - r)) / (2.0 * (r * c1 + (r + 2) * c2))
    a4 = (s + 0.5 * k0**3) / 4.0
    return k0, a4


def rot_ode_rhs(n, r, R, up):
    """Second derivative of the rotational profile from the translator equation."""
    _check_orders(n, r)
    if not (R > 0):
        raise DomainError("profile equation needs R > 0")
    s = 1.0 + up * up
    theta = 1.0 / math.sqrt(s)
    w = up / (R * math.sqrt(s))
    c1 = math.comb(n - 1, r)
    c2 = math.comb(n - 1, r - 1)
    den = c2 * w ** (r - 1)
    num = theta - c1 * w**r
    if den == 0.0 or abs(den) < 1e-280:
        raise DegenerateODEError(
            f"vanishing parallel-curvature coefficient at R={R:.3e}, u'={up:.3e} "
            f"with residual {num:.3e}"
        )
    return (num / den) * s**1.5


def domain_radius(n, r):
    """Radius of the ball the (n, r) rotational translator is a graph over.

    For r < n the bowls are entire graphs (infinite radius). For r = n the
    profile equation integrates to int_0^phi sin^{n-1} = R^n / n in the
    meridian angle phi, so the graph turns vertical at
    R_*^n = n int_0^{pi/2} sin^{n-1} = n sqrt(pi) Gamma(n/2) / (2 Gamma((n+1)/2)).
    """
    _check_orders(n, r)
    if r < n:
        return math.inf
    wallis = math.sqrt(math.pi) * math.gamma(n / 2) / (2.0 * math.gamma((n + 1) / 2))
    return (n * wallis) ** (1.0 / n)


@dataclass(frozen=True)
class RotProfile:
    """Numerically integrated radial profile of a rotational translator."""

    n: int
    r: int
    grid: np.ndarray
    u: np.ndarray
    up: np.ndarray
    meta: dict
    k0: float
    a4: float
    R_start: float
    R_max: float
    _sol: object = field(default=None, repr=False, compare=False)

    def _check_R(self, R):
        R = np.asarray(R, dtype=float)
        if np.any(R < -1e-12) or np.any(R > self.R_max * (1 + 1e-12)):
            raise DomainError(f"radius outside [0, {self.R_max}]")
        return np.clip(R, 0.0, self.R_max)

    def _dense(self, R, comp):
        if self._sol is None:
            raise NumericalError(
                "profile has no dense output (loaded from disk?); re-solve to evaluate"
            )
        R = self._check_R(R)
        scalar = R.ndim == 0
        Rv = np.atleast_1d(R)
        out = np.empty_like(Rv)
        low = Rv < self.R_start
        if np.any(low):
            x = Rv[low]
            if comp == 0:
                out[low] = 0.5 * self.k0 * x**2 + self.a4 * x**4
            elif comp == 1:
                out[low] = self.k0 * x + 4.0 * self.a4 * x**3
            else:
                out[low] = x + self.k0**2 * x**3 / 6.0
        if np.any(~low):
            out[~low] = self.sol_eval(Rv[~low])[comp]
        return float(out[0]) if scalar else out

    def sol_eval(self, R):
        return np.atleast_2d(self._sol(R))

    def eval_u(self, R):
        return self._dense(R, 0)

    def eval_up(self, R):
        return self._dense(R, 1)

    def arclength(self, R):
        """Meridian arclength from the vertex, integrated with the profile."""
        return self._dense(R, 2)

    def theta(self, R):
        """Vertical component of the unit normal, 1 / sqrt(1 + u'^2)."""
        up = self.eval_up(R)
        return 1.0 / np.sqrt(1.0 + np.square(up))

    def fd_residual(self, R, h=1e-4):
        """Translator-equation residual sigma_r - Theta at radius R > 0.

        The meridian curvature comes from a centered difference of u', so
        the residual measures the real integration and interpolation
        error and shrinks with the solve tolerance.
        """
        R = float(R)
        up = self.eval_up(R)
        upp = (self.eval_up(R + h) - self.eval_up(R - h)) / (2 * h)
        s = 1.0 + up * up
        w = up / (R * math.sqrt(s))
        kappa = upp / s**1.5
        sig = (
            math.comb(self.n - 1, self.r) * w**self.r
            + math.comb(self.n - 1, self.r - 1) * w ** (self.r - 1) * kappa
        )
        return sig - 1.0 / math.sqrt(s)


def solve_rotational_translator(n, r, R_max=100.0, tol=1e-10, R_start=R_START_DEFAULT):
    """Integrate the bowl-family profile from its vertex series seed.

    Adaptive embedded Runge-Kutta with dense output; RK45 for r = 1,
    Radau for the stiff r >= 2 far field. The arclength from the vertex
    rides along as a third state component. For r = n the graph ends at
    ``domain_radius(n, n)``; an R_max at or beyond it raises DomainError.
    """
    _check_orders(n, r)
    if not (0 < R_max <= R_MAX_LIMIT):
        raise InvalidInputError(f"R_max must lie in (0, {R_MAX_LIMIT:.0e}]")
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise InvalidInputError(f"tol must lie in [{TOL_RANGE[0]:.0e}, {TOL_RANGE[1]:.0e}]")
    if not (0 < R_start < R_max):
        raise InvalidInputError("need 0 < R_start < R_max")
    R_star = domain_radius(n, r)
    if R_max >= R_star:
        raise DomainError(
            f"the (n, r) = ({n}, {r}) translator is a graph only over R < R_* = "
            f"{R_star:.6f}, where n int_0^(pi/2) sin^(n-1) = R_*^n; got R_max = {R_max:g}"
        )
    from scipy.integrate import solve_ivp

    k0, a4 = vertex_series_coeffs(n, r)
    y0 = [
        0.5 * k0 * R_start**2 + a4 * R_start**4,
        k0 * R_start + 4.0 * a4 * R_start**3,
        R_start + k0**2 * R_start**3 / 6.0,
    ]

    def rhs(R, y):
        v = y[1]
        return [v, rot_ode_rhs(n, r, R, v), math.sqrt(1.0 + v * v)]

    def blowup(R, y):
        return y[1] - _BLOWUP_LIMIT

    blowup.terminal = True

    method = "RK45" if r == 1 else "Radau"
    sol = solve_ivp(
        rhs,
        (R_start, R_max),
        y0,
        method=method,
        rtol=tol,
        atol=tol,
        dense_output=True,
        events=blowup,
    )
    if sol.status == 1:
        raise StiffFailureError(
            f"profile left the graphical regime (u' blow-up) at R={sol.t[-1]:.6g}",
            last_good_R=float(sol.t[-1]),
        )
    if not sol.success:
        raise StiffFailureError(
            f"integrator stalled at R={sol.t[-1]:.6g}: {sol.message}",
            last_good_R=float(sol.t[-1]),
        )

    grid = np.concatenate(([0.0], sol.t))
    u = np.concatenate(([0.0], sol.y[0]))
    up = np.concatenate(([0.0], sol.y[1]))
    grid.setflags(write=False)
    u.setflags(write=False)
    up.setflags(write=False)

    profile = RotProfile(
        n=n,
        r=r,
        grid=grid,
        u=u,
        up=up,
        meta={},
        k0=k0,
        a4=a4,
        R_start=R_start,
        R_max=float(R_max),
        _sol=sol.sol,
    )
    probe = np.linspace(max(10 * R_start, 0.05 * R_max), 0.9 * R_max, 9)
    meta = {
        "method": method,
        "steps": int(len(sol.t) - 1),
        "nfev": int(sol.nfev),
        "njev": int(getattr(sol, "njev", 0) or 0),
        "rtol": float(tol),
        "atol": float(tol),
        "R_start": float(R_start),
        "R_max": float(R_max),
        "fd_residual_probe": float(max(abs(profile.fd_residual(R)) for R in probe)),
    }
    object.__setattr__(profile, "meta", meta)
    return profile


# ---------------------------------------------------------------------------
# charts backed by profiles


def _omega_jet(phi):
    """Unit-sphere embedding omega(phi) in R^n with first and second partials.

    Component i < n-1 is cos(phi_i) * prod_{j<i} sin(phi_j); the last
    component is the full sine product. Partials follow by replacing one
    or two factors with their derivatives.
    """
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


def rot_chart(profile, R_lo=None, angle_pad=0.3):
    """Rotational immersion chart (R, angles) -> (R omega, u(R)) from one profile.

    First and second derivatives are assembled from the dense-output u,
    u' and from the profile equation's u''. The vertical component of the
    normal is positive, matching the graph orientation.
    """
    n, r = profile.n, profile.r
    if R_lo is None:
        R_lo = max(2.0 * profile.R_start, 1e-2)
    if not (0 < R_lo < profile.R_max):
        raise InvalidInputError("R_lo must lie inside (0, R_max)")

    rows = [[R_lo, profile.R_max]]
    for i in range(n - 1):
        hi = math.pi if i < n - 2 else 2.0 * math.pi
        rows.append([angle_pad, hi - angle_pad])
    dom = np.array(rows)

    def jet(q):
        q = np.asarray(q, dtype=float)
        R = float(q[0])
        u_val = profile.eval_u(R)
        up = profile.eval_up(R)
        upp = rot_ode_rhs(n, r, R, up)
        if n == 1:
            X = np.array([R, u_val])
            dX = np.array([[1.0], [up]])
            d2X = np.zeros((1, 1, 2))
            d2X[0, 0, 1] = upp
            return X, dX, d2X
        omega, dom_, ddom = _omega_jet(q[1:])
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

    ref = np.zeros(n + 1)
    ref[n] = 1.0
    label = f"bowl-n{n}" if r == 1 else f"rbowl-n{n}-r{r}"
    return Chart(
        n=n,
        param_domain=dom,
        jet=jet,
        kind="rotational",
        name=label,
        orient_ref=ref,
        intrinsic_distance=lambda q: profile.arclength(float(np.asarray(q).ravel()[0])),
    )


def grim_reaper_chart(n, eta=1e-3, t_halfwidth=50.0):
    """Grim Reaper cylinder (x, t_2..t_n, -log cos x) on |x| < pi/2 - eta.

    A translator for r = 1 with vertical velocity in closed form; its
    curve factor has vertical asymptotes at +-pi/2.
    """
    if n < 1:
        raise InvalidInputError("need n >= 1")
    if not (0 < eta < 0.5):
        raise InvalidInputError("eta must lie in (0, 0.5)")
    lim = math.pi / 2 - eta
    rows = [[-lim, lim]] + [[-t_halfwidth, t_halfwidth]] * (n - 1)

    def height(uu):
        return -math.log(math.cos(uu[0]))

    def grad(uu):
        out = np.zeros(n)
        out[0] = math.tan(uu[0])
        return out

    def hess(uu):
        out = np.zeros((n, n))
        out[0, 0] = 1.0 / math.cos(uu[0]) ** 2
        return out

    ch = graph_chart(
        n,
        height,
        grad,
        hess,
        np.array(rows),
        kind="product" if n > 1 else "graph",
        name="grim-reaper",
    )

    def intrinsic(q):
        q = np.asarray(q, dtype=float).ravel()
        arc = math.asinh(math.tan(q[0]))  # exact curve arclength from x = 0
        return math.hypot(arc, float(np.linalg.norm(q[1:])))

    return replace(ch, intrinsic_distance=intrinsic)


# ---------------------------------------------------------------------------
# asymptotics and export


def asymptotic_fit(profile, lo=50.0, hi=100.0, count=200):
    """Least-squares fit of u on the basis {R^2, log R, 1} over [lo, hi]."""
    if not (0 < lo < hi <= profile.R_max):
        raise InvalidInputError("fit window must lie inside (0, R_max]")
    R = np.linspace(lo, hi, count)
    u = np.asarray(profile.eval_u(R))
    basis = np.stack([R**2, np.log(R), np.ones_like(R)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    return {"leading": float(coef[0]), "log_coef": float(coef[1]), "const": float(coef[2])}


def bowl_drift(profile, R1=80.0, R2=100.0):
    """Change of u - R^2/(2(n-1)) + log R between two radii (r = 1, n >= 2)."""
    if profile.r != 1 or profile.n < 2:
        raise DomainError("drift check applies to the r = 1 bowls with n >= 2")

    def d(R):
        return profile.eval_u(R) - R**2 / (2.0 * (profile.n - 1)) + math.log(R)

    return float(d(R2) - d(R1))


def export_profile(profile, csv_path, json_path, extra_header=None):
    """Write the grid as CSV columns R,u,up,theta plus a JSON metadata header.

    Floats are written with shortest round-trip repr, so a load gives back
    bit-identical arrays.
    """
    theta = 1.0 / np.sqrt(1.0 + np.square(profile.up))
    with open(csv_path, "w") as fh:
        fh.write("R,u,up,theta\n")
        for row in zip(profile.grid, profile.u, profile.up, theta):
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    header = {
        "n": profile.n,
        "r": profile.r,
        "R_max": profile.R_max,
        "R_start": profile.R_start,
        "k0": profile.k0,
        "a4": profile.a4,
        "integrator": profile.meta,
    }
    if extra_header:
        header.update(extra_header)
    with open(json_path, "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_profile(csv_path, json_path):
    """Rebuild a data-only RotProfile (no dense output) from exported files."""
    with open(json_path) as fh:
        header = json.load(fh)
    rows = []
    with open(csv_path) as fh:
        names = fh.readline().strip().split(",")
        if names != ["R", "u", "up", "theta"]:
            raise InvalidInputError(f"unexpected CSV columns {names}")
        for line in fh:
            rows.append([float(tok) for tok in line.strip().split(",")])
    arr = np.array(rows)
    grid, u, up = arr[:, 0], arr[:, 1], arr[:, 2]
    for a in (grid, u, up):
        a.setflags(write=False)
    return RotProfile(
        n=int(header["n"]),
        r=int(header["r"]),
        grid=grid,
        u=u,
        up=up,
        meta=dict(header["integrator"]),
        k0=float(header["k0"]),
        a4=float(header["a4"]),
        R_start=float(header["R_start"]),
        R_max=float(header["R_max"]),
        _sol=None,
    )


def _check_orders(n, r):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError("dimension n must be a positive integer")
    if not isinstance(r, (int, np.integer)) or not (1 <= r <= n):
        raise InvalidInputError(f"order r must satisfy 1 <= r <= n (got r={r}, n={n})")
