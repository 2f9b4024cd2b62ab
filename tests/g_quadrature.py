"""Adaptive quadrature of 1 / sqrt(G): a test oracle for GFunction's closed forms.

``GFunction`` integrates G^(-1/2) by its piecewise antiderivatives. This
oracle integrates each element on its own with scipy's ``quad``, splitting
the iterated-log kinds at their splice point, so it shares no algebra with
the closed forms.
"""

import math

import numpy as np
from scipy.integrate import quad

from rmcf.maxprinciple import BOUND_LOWER_LIMIT, SPLICE_T0


def _quad(G, lo, hi):
    pts = None
    if G.kind == "iterated_log" and min(lo, hi) < SPLICE_T0 < max(lo, hi):
        pts = [SPLICE_T0]
    val, err = quad(lambda s: 1.0 / math.sqrt(G.value(s)), lo, hi,
                    epsabs=1e-12, epsrel=1e-12, limit=300, points=pts)
    assert err <= 1e-8 * max(1.0, abs(val)) + 1e-10, (
        f"quadrature of G^(-1/2) did not converge: value {val:.6e}, error estimate {err:.2e}"
    )
    return val


def integral_inv_sqrt(G, lo, hi):
    """Signed int_lo^hi ds / sqrt(G(s)), one quadrature per element."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    out = np.array([_quad(G, a, b) for a, b in zip(lo.ravel().tolist(), hi.ravel().tolist())])
    return out.reshape(lo.shape)


def phi(G, t):
    """log(int_0^t ds/sqrt(G) + 1) by quadrature."""
    return np.log(integral_inv_sqrt(G, 0.0, t) + 1.0)


def p_bound(G, t):
    """sqrt(G(t)) (int_{e^{2e}}^t ds/sqrt(G) + 1) by quadrature."""
    return np.sqrt(G.value(t)) * (integral_inv_sqrt(G, BOUND_LOWER_LIMIT, t) + 1.0)
