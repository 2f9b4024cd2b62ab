"""The profile solve through scipy's ``solve_ivp``: the test oracle of the LSODA solve.

``solve_rotational_translator`` calls ODEPACK's LSODA routine itself and
records each step's Nordsieck history; ``solve_ivp(method="LSODA",
dense_output=True)`` drives the same routine through scipy's classes, so
its nodes, counts and ``OdeSolution`` are what rmcf's must equal bit for
bit.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp

from rmcf import translators
from rmcf.translators import R_START, vertex_series_coeffs


def solve_ivp_oracle(n, r, R_max, tol=1e-10, R_start=R_START):
    """The profile solve through scipy's solve_ivp with dense output.

    Same seed, right-hand side, Jacobian and inner tolerance as
    ``solve_rotational_translator``; its ``OdeSolution`` is the reference
    for the Nordsieck records the solve keeps itself.
    """
    k0, a4 = vertex_series_coeffs(n, r)
    y0 = [
        0.5 * k0 * R_start**2 + a4 * R_start**4,
        k0 * R_start + 4.0 * a4 * R_start**3,
        R_start + k0**2 * R_start**3 / 6.0,
    ]
    c1, c2 = math.comb(n - 1, r), math.comb(n - 1, r - 1)

    def rhs(R, y):
        v = y[1]
        return [v, translators._upp(c1, c2, r, R, v), math.sqrt(1.0 + v * v)]

    def jac(R, y):
        v = y[1]
        return [[0.0, 1.0, 0.0], [0.0, translators._upp(c1, c2, r, R, v, slope=True)[1], 0.0],
                [0.0, v / math.sqrt(1.0 + v * v), 0.0]]

    inner = max(tol / 100.0, 5e-14)
    with np.errstate(over="ignore", invalid="ignore"):
        return solve_ivp(rhs, (R_start, R_max), y0, method="LSODA", rtol=inner, atol=inner,
                         dense_output=True, jac=jac)


def dense_upp(sol, R):
    """u'' at radii R >= R_start from the ``OdeSolution`` of ``solve_ivp_oracle``.

    Each radius reads the ``LsodaDenseOutput`` interpolant that scipy's
    ``OdeSolution`` picks for it, and differentiates its u' row,
    sum_j yh[1, j] x^j with x = (R - t) / h, term by term: the R-derivative
    sum_j j yh[1, j] x^(j-1) / h.
    """
    ode = sol.sol
    R = np.atleast_1d(np.asarray(R, dtype=float))
    seg = np.clip(np.searchsorted(ode.ts_sorted, R, side=ode.side) - 1, 0, ode.n_segments - 1)
    out = np.empty(R.size)
    for i, (radius, s) in enumerate(zip(R, seg)):
        f = ode.interpolants[s]
        x = (radius - f.t) / f.h
        out[i] = sum(j * f.yh[1, j] * x ** (j - 1) for j in f.p[1:]) / f.h
    return out
