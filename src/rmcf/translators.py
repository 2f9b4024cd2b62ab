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
term is singular at R = 0). The far field is stiff for every r: for r = 1
the linearized rate of u' grows like R / (n-1), and for r >= 2 the branch
u' ~ R^r / C(n-1, r) is stiffly attracting. LSODA (Petzold 1983), which
switches between Adams and BDF steps, runs on the closed-form Jacobian of
(u, u', s)' = (u', u'', sqrt(1 + u'^2)), whose only nonzero column is
d/du'. A difference quotient of u'' would go through the far-field
cancellation Theta - C(n-1, r) w^r and lose most of its digits.

A solved profile's table (``grid``, ``u``, ``up``, which ``export_profile``
writes) holds the vertex, every accepted step and, inside each step, equal
parts from the dense output, as few as keep a linear read within
(R_max / TABLE_PARTS)^2 M / 8, M bounding |u''| by the steps' Nordsieck
coefficients. It is built on first read; charts never need it.

For r = n the profile turns vertical at a finite radius R_*
(``domain_radius``): the graph is the Gauss-curvature-type translator
over a ball, and solves must stop short of R_*.
"""

import importlib.machinery
import importlib.util
import json
import math
import os
import sys
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

from .charts import Chart, graph_chart, rowdot
from .errors import (
    DegenerateODEError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StiffFailureError,
)

R_START = 1e-3  # the vertex series seeds the solve at this radius
R_MAX_LIMIT = 1e4
TOL_RANGE = (1e-12, 1e-6)
# a linear read of a solved profile's table is off by at most (R_max / TABLE_PARTS)^2 M / 8
TABLE_PARTS = 4096
# radii per stacked Nordsieck product in RotProfile._dense_rows (bounds its scratch memory)
_DENSE_CHUNK = 512
# LSODA's rwork[20:59] holds the Nordsieck history of up to 13 columns (Adams order 12) of 3 states
_RWORK_END = 20 + 13 * 3


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


def _vertex_series(k0, a4, x):
    """u, u', the meridian arclength and u'' of the vertex series at radii x (float or array)."""
    return (0.5 * k0 * x**2 + a4 * x**4, k0 * x + 4.0 * a4 * x**3, x + k0**2 * x**3 / 6.0,
            k0 + 12.0 * a4 * x**2)


def _upp(c1, c2, r, R, up, slope=False):
    """u'' of the profile equation at (R, u') > 0; with ``slope``, also d u''/d u'.

    ``c1, c2`` are C(n-1, r) and C(n-1, r-1). With s = 1 + u'^2,
    dTheta/du' = -u'/s^{3/2} and dw/du' = 1/(R s^{3/2}), so

        d u''/d u' = (u''/s) (3 u' - (r-1)/u') - u'/den - r c1/(c2 R),

    with den = C(n-1, r-1) w^{r-1}. Far out, u'' is the small difference
    Theta - C(n-1, r) w^r, which a difference quotient of u'' would
    amplify; the closed form goes through it only once, in u''.
    """
    s = 1.0 + up * up
    q = math.sqrt(s)
    w = up / (R * q)
    den = c2 * w ** (r - 1)
    num = 1.0 / q - c1 * w**r
    if abs(den) < 1e-280:
        raise DegenerateODEError(
            f"vanishing parallel-curvature coefficient at R={R:.3e}, u'={up:.3e} "
            f"with residual {num:.3e}"
        )
    upp = (num / den) * s**1.5
    if not slope:
        return upp
    bend = 3.0 * up - (r - 1) / up if r > 1 else 3.0 * up
    return upp, (upp / s) * bend - up / den - r * c1 / (c2 * R)


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
    """Numerically integrated radial profile of a rotational translator.

    A solved profile carries its integrator states ``_nodes`` (R, u, u'
    from the vertex on) and the dense output ``_nordsieck``: one record
    per LSODA step, recorded while solving, as stacked arrays
    ``(t, h, order, yh)``. ``t`` holds the step nodes from R_start on;
    step i ends at ``t[i + 1]`` and its state near there is the Nordsieck
    polynomial ``yh[i, :, :order[i] + 1] @ x ** arange(order[i] + 1)``
    in x = (R - t[i + 1]) / h[i] (see ``_nordsieck_records``). The table
    ``grid, u, up`` is built from both on first read. A loaded profile
    carries the table only.
    """

    n: int
    r: int
    meta: dict
    k0: float
    a4: float
    R_start: float
    R_max: float
    _nordsieck: tuple = field(default=None, repr=False, compare=False)
    _nodes: tuple = field(default=None, repr=False, compare=False)
    _table: tuple = field(default=None, repr=False, compare=False)

    @property
    def grid(self):
        return self._rows()[0]

    @property
    def u(self):
        return self._rows()[1]

    @property
    def up(self):
        return self._rows()[2]

    def _rows(self):
        """The table (grid, u, up): every integrator node, each interval cut into equal parts.

        Interval i, [0, R_start] or an LSODA step, gets max(1, ceil(len_i / H
        sqrt(m_i / M))) parts, where H = R_max / TABLE_PARTS, m_i = k0 + 12 |a4|
        R_start^2 or sum_{j>=2} j (j-1) |yh[i, 0, j]| (span_i / h_i)^(j-2) / h_i^2
        bounds |u''| of the polynomial its rows come from, and M = max m_i; a
        linear read is then off by at most H^2 M / 8. Node rows are the
        integrator states bit for bit; inner rows come from one ``_dense_rows`` call.
        """
        if self._table is None:
            R, u, up = self._nodes
            t, h, order, yh = self._nordsieck
            j = np.arange(yh.shape[2])
            terms = j * (j - 1) * np.abs(yh[:, 0]) * (np.diff(t) / h)[:, None] ** (j - 2.0)
            m = np.sum(terms, axis=1, where=j <= order[:, None]) / (h * h)
            m = np.append(self.k0 + 12.0 * abs(self.a4) * self.R_start**2, m)
            parts = np.ceil(np.diff(R) * (np.sqrt(m / m.max()) * (TABLE_PARTS / self.R_max)))
            parts = np.maximum(parts, 1).astype(np.intp)
            seg = np.repeat(np.arange(parts.size), parts)
            frac = (np.arange(seg.size) - np.repeat(np.cumsum(parts) - parts, parts)) / parts[seg]
            grid = np.append(R[seg] + (R[seg + 1] - R[seg]) * frac, R[-1])
            node = np.append(frac == 0.0, True)  # R + d * 0 is R: these rows are the nodes
            table = (grid, np.empty(grid.size), np.empty(grid.size))
            table[1][node], table[2][node] = u, up
            table[1][~node], table[2][~node] = self._dense_rows(grid[~node])[:2]
            for col in table:
                col.setflags(write=False)
            object.__setattr__(self, "_table", table)
        return self._table

    def _check_R(self, R):
        R = np.asarray(R, dtype=float)
        if np.any(R < -1e-12) or np.any(R > self.R_max * (1 + 1e-12)):
            raise DomainError(f"radius outside [0, {self.R_max}]")
        return np.clip(R, 0.0, self.R_max)

    def _dense_rows(self, R):
        """u, u', the arclength and u'' (4, m) at an array of radii.

        Below R_start the vertex series gives the values. Above, a radius
        belongs to the step found by ``searchsorted(t, R, side="right")``,
        clipped to the first and last step, so a node reads the step that
        starts there and R_max the last step: the choice of scipy's
        ``OdeSolution`` for LSODA, whose values these are bit for bit.

        Radii are grouped by their step's order q. The powers
        x ** arange(q + 1) are taken in scipy's (q + 1, m) layout, where
        numpy squares x for the exponent 2 (x * x) instead of calling pow,
        which rounds differently. Each radius's polynomial is then one
        (3, q + 1) @ (q + 1, 2) product with its power column repeated: a
        one-column product would go through a matrix-vector kernel whose
        sums round differently, so every row is a 2-column matrix product
        whatever the batch, as when scipy evaluates each radius twice, and a
        row's values do not depend on which other radii share the call.
        Rows are gathered at most ``_DENSE_CHUNK`` at a time.

        u'' is the R-derivative of the u' polynomial, sum_j j yh[1, j]
        x^(j-1) / h, from a (1, q) @ (q, 2) product of the same kind. It is
        the solution's own second derivative: the profile equation solved
        for u'' at the dense u' is ill-conditioned in the stiff far field,
        where du''/du' is large.
        """
        if self._nordsieck is None:
            raise NumericalError(
                "profile has no dense output (loaded from disk?); re-solve to evaluate"
            )
        R = self._check_R(np.asarray(R, dtype=float).ravel())
        out = np.empty((4, R.size))
        low = R < self.R_start
        out[:, low] = _vertex_series(self.k0, self.a4, R[low])
        t, h, order, yh = self._nordsieck
        high = np.flatnonzero(~low)
        seg = np.clip(np.searchsorted(t, R[high], side="right") - 1, 0, h.size - 1)
        q_seg = order[seg]
        for q in np.flatnonzero(np.bincount(q_seg)):
            p = np.arange(q + 1)
            rows = np.flatnonzero(q_seg == q)
            for lo in range(0, rows.size, _DENSE_CHUNK):
                at = rows[lo : lo + _DENSE_CHUNK]
                s = seg[at]
                x = ((R[high[at]] - t[s + 1]) / h[s]) ** p[:, None]
                x = np.repeat(x.T[:, :, None], 2, axis=2)
                out[:3, high[at]] = np.matmul(yh[s, :, : q + 1], x)[:, :, 0].T
                slope = yh[s, 1:2, 1 : q + 1] * p[1:]
                out[3, high[at]] = np.matmul(slope, x[:, :q])[:, 0, 0] / h[s]
        return out

    def theta(self, R):
        """Vertical component of the unit normal, 1 / sqrt(1 + u'^2), in the shape of R."""
        R = np.asarray(R, dtype=float)
        up = self._dense_rows(R)[1].reshape(R.shape)
        return 1.0 / np.sqrt(1.0 + np.square(up))

    def fd_residual(self, R, h=1e-4):
        """Translator-equation residual sigma_r - Theta at radii R > 0.

        The meridian curvature comes from a centered difference of u', so
        the residual measures the real integration and interpolation
        error and shrinks with the solve tolerance. u' at R and R +- h
        comes from one ``_dense_rows`` call; the result has R's shape.
        """
        R = np.asarray(R, dtype=float)
        flat = R.ravel()
        up, hi, lo = np.split(self._dense_rows(np.concatenate((flat, flat + h, flat - h)))[1], 3)
        upp = (hi - lo) / (2 * h)
        s = 1.0 + up * up
        w = up / (flat * np.sqrt(s))
        kappa = upp / s**1.5
        sig = (
            math.comb(self.n - 1, self.r) * w**self.r
            + math.comb(self.n - 1, self.r - 1) * w ** (self.r - 1) * kappa
        )
        return (sig - 1.0 / np.sqrt(s)).reshape(R.shape)


def solve_rotational_translator(n, r, R_max=100.0, tol=1e-10):
    """Integrate the bowl-family profile from its vertex series seed.

    ODEPACK's LSODA, called one step at a time (``_odepack_lsoda``, set up
    as scipy's ``LSODA`` class sets it up, without importing the
    ``scipy.integrate`` package), with the closed-form Jacobian, at the
    inner tolerance max(tol / 100, 5e-14), for every r. After each step
    the Nordsieck history is recorded for the dense output (see
    ``_nordsieck_records``). The arclength from the vertex rides along as
    a third state component. ``meta["steps"]`` counts integrator steps;
    the table (``RotProfile._rows``) has more rows. A negative LSODA
    istate raises StiffFailureError naming it. For r = n the graph ends at
    ``domain_radius(n, n)``; an R_max at or beyond it raises DomainError,
    and so does a solve that gets so close that u' stops being finite.
    """
    _check_orders(n, r)
    if not (R_START < R_max <= R_MAX_LIMIT):
        raise InvalidInputError(f"R_max must lie in ({R_START:g}, {R_MAX_LIMIT:.0e}]")
    if not (TOL_RANGE[0] <= tol <= TOL_RANGE[1]):
        raise InvalidInputError(f"tol must lie in [{TOL_RANGE[0]:.0e}, {TOL_RANGE[1]:.0e}]")
    R_star = domain_radius(n, r)
    if R_max >= R_star:
        raise DomainError(
            f"the (n, r) = ({n}, {r}) translator is a graph only over R < R_* = "
            f"{R_star:.6f}, where n int_0^(pi/2) sin^(n-1) = R_*^n; got R_max = {R_max:g}"
        )
    k0, a4 = vertex_series_coeffs(n, r)
    y0 = _vertex_series(k0, a4, R_START)[:3]

    c1, c2 = math.comb(n - 1, r), math.comb(n - 1, r - 1)
    nfev = 0

    def rhs(R, y):
        nonlocal nfev
        nfev += 1
        v = y[1]
        return [v, _upp(c1, c2, r, R, v), math.sqrt(1.0 + v * v)]

    def jac(R, y):
        v = y[1]
        return [[0.0, 1.0, 0.0], [0.0, _upp(c1, c2, r, R, v, slope=True)[1], 0.0],
                [0.0, v / math.sqrt(1.0 + v * v), 0.0]]

    # LSODA's grid values drift up to ~30x past its tolerance (Theta =
    # cos phi on (2, 2) at R_max 1.3 missed by 3.1e-9 at 1e-10), hence
    # tol / 100; at 2.2e-14 and below the far (5, 4) field at R_max 1e4
    # stops with "excess accuracy requested", hence the 5e-14 floor.
    inner = max(tol / 100.0, 5e-14)
    # ODEPACK's work arrays for n = 3 and a full user Jacobian (jt = 1), set up as
    # scipy.integrate.LSODA sets them: itask 5 stops at rwork[0] = R_max; first,
    # max and min step (rwork[4:7]) are 0, i.e. chosen by LSODA, unbounded, none;
    # at most 500 steps per call and the Adams and BDF orders 12 and 5
    rwork = np.zeros(20 + (12 + 4) * 3)
    rwork[0] = R_max
    iwork = np.zeros(20 + 3, dtype=np.int32)
    iwork[[5, 7, 8]] = 500, 12, 5
    state_doubles, state_ints = np.zeros(240), np.zeros(48, dtype=np.int32)
    atol = np.asarray(inner)
    lsoda = _odepack_lsoda()
    # each step's state and LSODA work arrays, appended as raw bytes (one growing buffer each)
    t, y, istate = float(R_START), np.array(y0), 1
    ts, ys, steps_i, steps_d = [t], array("d", y0), array("i"), array("d")
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite states are caught below
        while t < R_max:
            y, t, istate = lsoda(rhs, y, t, R_max, inner, atol, 5, istate, rwork, iwork, jac,
                                 1, (), 1, (), state_doubles, state_ints)
            if istate < 0:
                raise StiffFailureError(
                    f"integrator stalled at R={ts[-1]:.6g}: LSODA istate {istate}: "
                    f"{_ISTATE_MEANING.get(istate, 'unexpected istate')}",
                    last_good_R=float(ts[-1]),
                )
            ts.append(t)
            ys.frombytes(y.tobytes())
            steps_i.frombytes(iwork[13:15].tobytes())
            steps_d.frombytes(rwork[10:_RWORK_END].tobytes())
    Y = np.frombuffer(ys).reshape(-1, 3).T
    finite = np.isfinite(Y).all(axis=0)
    if not finite.all():
        R_end = ts[np.argmin(finite) - 1]  # the seed column is finite
        raise DomainError(
            f"the (n, r) = ({n}, {r}) profile is too steep to follow: u' stops being "
            f"finite past R = {R_end:.12g}, short of R_max = {R_max:.12g}; the graph "
            f"turns vertical at R_* = {R_star:.12g}"
        )

    t = np.array(ts)
    h, order, yh = _nordsieck_records(
        np.frombuffer(steps_i, dtype=np.intc).reshape(-1, 2),
        np.frombuffer(steps_d).reshape(-1, _RWORK_END - 10),
    )
    profile = RotProfile(
        n=n,
        r=r,
        meta={},
        k0=k0,
        a4=a4,
        R_start=R_START,
        R_max=float(R_max),
        _nordsieck=(t, h, order, yh),
        _nodes=tuple(np.concatenate(([0.0], v)) for v in (t, Y[0], Y[1])),
    )
    probe = np.linspace(max(10 * R_START, 0.05 * R_max), 0.9 * R_max, 9)
    meta = {
        "method": "LSODA",
        "steps": h.size,
        "nfev": nfev,
        "njev": int(iwork[12]),
        "rtol": float(inner),
        "atol": float(inner),
        "R_start": float(R_START),
        "R_max": float(R_max),
        "fd_residual_probe": float(np.max(np.abs(profile.fd_residual(probe)))),
    }
    object.__setattr__(profile, "meta", meta)
    return profile


# what ODEPACK's LSODA means by a negative istate, in the words of scipy's ``_ode.lsoda.messages``
_ISTATE_MEANING = {
    -1: "excess work done on this call (perhaps wrong Dfun type)",
    -2: "excess accuracy requested (tolerances too small)",
    -3: "illegal input detected (internal error)",
    -4: "repeated error test failures (internal error)",
    -5: "repeated convergence failures (perhaps bad Jacobian or tolerances)",
    -6: "error weight became zero during problem",
    -7: "internal workspace insufficient to finish (internal error)",
}


def _odepack_lsoda():
    """ODEPACK's LSODA routine from scipy's compiled ``scipy.integrate._odepack``.

    The extension is loaded from scipy's package directory without running
    ``scipy/integrate/__init__.py``, whose imports (scipy.special,
    optimize, sparse, linalg) cost a fresh process most of a second. It is
    registered under its own name, so it is loaded once per process and a
    later ``import scipy.integrate`` shares it; an already loaded one is
    used as it is.
    """
    name = "scipy.integrate._odepack"
    if name not in sys.modules:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        spec = importlib.machinery.PathFinder.find_spec(name, [os.path.join(scipy_dir, "integrate")])
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    return sys.modules[name].lsoda


def _nordsieck_records(iwork, rwork):
    """Stacked (h, order, yh) of LSODA's steps, by the arithmetic of scipy's LSODA dense output.

    Row i of ``iwork`` and ``rwork`` holds LSODA's ``iwork[13:15]`` and
    ``rwork[10:_RWORK_END]`` after step i. ``iwork[13]`` is the order of
    that step and ``iwork[14]`` the next one; ``rwork[11]`` is the next
    step size, in which ``rwork[20:]`` holds the Nordsieck history
    (3, order + 1) in column order. When the order drops, LSODA leaves the
    last column scaled for the previous step size ``rwork[10]``, so it is
    rescaled here, with scipy's scalar arithmetic. ``yh`` keeps the
    columns up to the largest order; those past a step's own order hold
    stale history and are never read.
    """
    order, h = iwork[:, 0].copy(), rwork[:, 1].copy()
    columns = rwork[:, 10 : 13 + 3 * order.max()]
    yh = columns.reshape(len(rwork), -1, 3).transpose(0, 2, 1).copy()
    for i in np.flatnonzero(iwork[:, 1] < order):
        q = order[i]
        yh[i, :, q] *= (h[i] / rwork[i, 0]) ** q
    return h, order, yh


# ---------------------------------------------------------------------------
# charts backed by profiles


def _omega_jet(phi):
    """Unit-sphere embedding omega(phi) in R^n with first and second partials, per row.

    ``phi`` is (m, n-1); the result is omega (m, n), d omega (m, n-1, n) and
    dd omega (m, n-1, n-1, n). Component i < n-1 is cos(phi_i) prod_{j<i}
    sin(phi_j); the last component is the full sine product. Partials
    replace one or two factors with their derivatives; every product runs
    over the factors in order.
    """
    phi = np.asarray(phi, dtype=float)
    rows, m = phi.shape
    n = m + 1
    sin, cos = np.sin(phi), np.cos(phi)
    omega = np.empty((rows, n))
    dom = np.zeros((rows, m, n))
    ddom = np.zeros((rows, m, m, n))
    for i in range(n):
        angles = range(min(i + 1, m))
        vals = [sin[:, a] if a < i else cos[:, a] for a in angles]
        d1 = [cos[:, a] if a < i else -sin[:, a] for a in angles]

        def prod_except(*skip):
            p = 1.0
            for t, v in enumerate(vals):
                if t not in skip:
                    p = p * v
            return p

        omega[:, i] = prod_except()
        for t, a in enumerate(angles):
            dom[:, a, i] = prod_except(t) * d1[t]
            ddom[:, a, a, i] = prod_except(t) * (-vals[t])
            for t2 in range(t + 1, len(angles)):
                b = angles[t2]
                val = prod_except(t, t2) * d1[t] * d1[t2]
                ddom[:, a, b, i] = val
                ddom[:, b, a, i] = val
    return omega, dom, ddom


def rot_chart(profile):
    """Rotational immersion chart (R, angles) -> (R omega, u(R)) from one profile.

    The jets of all rows take u, u' and u'' from one dense-output call,
    once per distinct radius (a grid mesh repeats every radius once per
    angle node). The vertical
    component of the normal is positive, matching the graph orientation.
    The radii run from max(2 R_start, 0.01) to R_max.
    """
    n, r = profile.n, profile.r
    R_lo = max(2.0 * profile.R_start, 1e-2)
    if not R_lo < profile.R_max:
        raise InvalidInputError(f"a rotational chart needs R_max above its inner radius {R_lo:g}")

    rows = [[R_lo, profile.R_max]]
    for i in range(n - 1):
        hi = math.pi if i < n - 2 else 2.0 * math.pi
        rows.append([0.3, hi - 0.3])  # 0.3 clear of the poles and the seam
    dom = np.array(rows)

    def jets(Q):
        R = Q[:, 0]
        radii, row = np.unique(R, return_inverse=True)
        u_val, up, _, upp = profile._dense_rows(radii)[:, row]
        m = len(R)
        X = np.empty((m, n + 1))
        dX = np.zeros((m, n + 1, n))
        d2X = np.zeros((m, n, n, n + 1))
        X[:, n] = u_val
        dX[:, n, 0] = up
        d2X[:, 0, 0, n] = upp
        if n == 1:
            X[:, 0] = R
            dX[:, 0, 0] = 1.0
            return X, dX, d2X
        omega, dom_, ddom = _omega_jet(Q[:, 1:])
        X[:, :n] = R[:, None] * omega
        dX[:, :n, 0] = omega
        dX[:, :n, 1:] = R[:, None, None] * dom_.transpose(0, 2, 1)
        d2X[:, 0, 1:, :n] = dom_
        d2X[:, 1:, 0, :n] = dom_
        d2X[:, 1:, 1:, :n] = R[:, None, None, None] * ddom
        return X, dX, d2X

    ref = np.zeros(n + 1)
    ref[n] = 1.0
    label = f"bowl-n{n}" if r == 1 else f"rbowl-n{n}-r{r}"
    return Chart(
        n=n,
        param_domain=dom,
        jet=jets,
        name=label,
        orient_ref=ref,
        intrinsic_distance=lambda Q: profile._dense_rows(np.reshape(Q, (-1, n))[:, 0])[2],
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

    def height(U):
        return -np.log(np.cos(U[:, 0]))

    def grad(U):
        out = np.zeros_like(U)
        out[:, 0] = np.tan(U[:, 0])
        return out

    def hess(U):
        out = np.zeros((len(U), n, n))
        out[:, 0, 0] = 1.0 / np.cos(U[:, 0]) ** 2
        return out

    ch = graph_chart(
        n,
        height,
        grad,
        hess,
        np.array(rows),
        name="grim-reaper",
    )

    def intrinsic(Q):
        Q = np.asarray(Q, dtype=float).reshape(-1, n)
        arc = np.arcsinh(np.tan(Q[:, 0]))  # exact curve arclength from x = 0
        if n == 1:
            return np.abs(arc)
        return np.sqrt(arc * arc + rowdot(Q[:, 1:], Q[:, 1:]))

    return replace(ch, intrinsic_distance=intrinsic)


# ---------------------------------------------------------------------------
# asymptotics and export


def asymptotic_fit(profile, lo=50.0, hi=100.0):
    """Least-squares fit of u on the basis {R^2, log R, 1} at 200 radii over [lo, hi]."""
    if not (0 < lo < hi <= profile.R_max):
        raise InvalidInputError("fit window must lie inside (0, R_max]")
    R = np.linspace(lo, hi, 200)
    u = profile._dense_rows(R)[0]
    basis = np.stack([R**2, np.log(R), np.ones_like(R)], axis=1)
    coef, *_ = np.linalg.lstsq(basis, u, rcond=None)
    return {"leading": float(coef[0]), "log_coef": float(coef[1]), "const": float(coef[2])}


def bowl_drift(profile, R1=80.0, R2=100.0):
    """Change of u - R^2/(2(n-1)) + log R between two radii (r = 1, n >= 2)."""
    if profile.r != 1 or profile.n < 2:
        raise DomainError("drift check applies to the r = 1 bowls with n >= 2")
    R = np.array([R1, R2], dtype=float)
    d = profile._dense_rows(R)[0] - R**2 / (2.0 * (profile.n - 1)) + np.log(R)
    return float(d[1] - d[0])


def export_profile(profile, csv_path, json_path, extra_header=None):
    """Write the table as CSV columns R,u,up,theta plus a JSON metadata header.

    The rows are the profile's table (see ``RotProfile._rows``): the
    integrator nodes plus the dense-output rows inside each step that keep
    a linear read within (R_max / TABLE_PARTS)^2 M / 8, M bounding |u''|.
    The header's ``integrator.steps`` counts integrator steps, not rows.
    Floats are written as ``%r`` (shortest round-trip repr), so a load
    gives back bit-identical arrays.
    """
    theta = 1.0 / np.sqrt(1.0 + np.square(profile.up))
    rows = zip(*(col.tolist() for col in (profile.grid, profile.u, profile.up, theta)))
    with open(csv_path, "w") as fh:
        fh.write("R,u,up,theta\n")
        fh.writelines("%r,%r,%r,%r\n" % row for row in rows)
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
    """Rebuild a data-only RotProfile (no dense output) from exported files.

    A missing header key, a CSV line that is not four finite numbers, or an
    R column not rising strictly from 0.0 raises InvalidInputError naming it.
    """
    with open(json_path) as fh:
        header = json.load(fh)
    if missing := sorted({"n", "r", "R_max", "R_start", "k0", "a4", "integrator"} - set(header)):
        raise InvalidInputError(f"{json_path}: the header has no {missing[0]!r}")
    with open(csv_path) as fh:
        names = fh.readline().strip().split(",")
        if names != ["R", "u", "up", "theta"]:
            raise InvalidInputError(f"unexpected CSV columns {names}")
        lines = fh.readlines()
    try:  # correctly rounded, as float() is
        arr = np.loadtxt(lines, delimiter=",", ndmin=2) if lines else None
    except ValueError:
        arr = None
    if arr is None or arr.shape != (len(lines), 4):
        bad = next((k for k, line in enumerate(lines, 2) if not _four_numbers(line)), 2)
        raise InvalidInputError(f"{csv_path} line {bad}: a row needs four numbers R,u,up,theta")
    bad = ~np.isfinite(arr).all(axis=1) | np.append(arr[0, 0] != 0.0, np.diff(arr[:, 0]) <= 0.0)
    if bad.any():
        raise InvalidInputError(f"{csv_path} line {2 + np.argmax(bad)}: non-finite, or R not rising from 0")
    arr.setflags(write=False)
    grid, u, up = arr[:, 0], arr[:, 1], arr[:, 2]
    return RotProfile(
        n=int(header["n"]),
        r=int(header["r"]),
        meta=dict(header["integrator"]),
        k0=float(header["k0"]),
        a4=float(header["a4"]),
        R_start=float(header["R_start"]),
        R_max=float(header["R_max"]),
        _table=(grid, u, up),
    )


def _four_numbers(line):
    try:
        return len([float(cell) for cell in line.split(",")]) == 4
    except ValueError:
        return False


def _check_orders(n, r):
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidInputError("dimension n must be a positive integer")
    if not isinstance(r, (int, np.integer)) or not (1 <= r <= n):
        raise InvalidInputError(f"order r must satisfy 1 <= r <= n (got r={r}, n={n})")
