"""Functions of chart parameters with central-difference derivatives: a test oracle.

rmcf takes intrinsic derivatives of ambient fields from their analytic
ambient derivatives (tangential projection and the Gauss formula). A
``ScalarField`` of F composed with the chart's position, differentiated by
central differences in the parameters and corrected by per-point
Christoffel symbols (``test_mesh_geometry._operators_scalar``), shares no
algebra with that route.
"""

import numpy as np

from rmcf.errors import NumericalError


class ToleranceError(NumericalError):
    """A requested finite-difference step is too small to be meaningful in float64."""


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
    """Function of chart parameters; derivatives by central differences.

    ``fn`` acts on parameter stacks U (..., n) and returns (...,). Each
    stencil shifts the whole stack along one axis at a time. Second
    differences use a larger step than first differences to stay above the
    float64 rounding floor.
    """

    def __init__(self, fn, step=None, hess_step=None):
        self._fn = fn
        self._step = step
        self._hess_step = hess_step

    def _eval(self, U):
        return np.broadcast_to(np.asarray(self._fn(U), dtype=float), U.shape[:-1])

    def param_grads(self, chart, U):
        """Parameter gradients (m, n) at the rows of U (m, n)."""
        h = _fd_step(chart, self._step)
        shifts = h * np.eye(chart.n)
        return np.stack(
            [(self._eval(U + e) - self._eval(U - e)) / (2 * h) for e in shifts], axis=-1
        )

    def param_derivatives(self, chart, U):
        """Parameter gradients (m, n) and Hessians (m, n, n) at the rows of U (m, n)."""
        n = chart.n
        h = self._hess_step
        if h is None:
            h = max(3e-4, 1e-5 * chart.domain_diameter())
        _fd_step(chart, h)
        shifts = h * np.eye(n)
        out = np.empty(U.shape + (n,))
        f0 = self._eval(U)
        for i, ei in enumerate(shifts):
            out[..., i, i] = (self._eval(U + ei) - 2 * f0 + self._eval(U - ei)) / h**2
            for j in range(i + 1, n):
                ej = shifts[j]
                out[..., i, j] = out[..., j, i] = (
                    self._eval(U + ei + ej)
                    - self._eval(U + ei - ej)
                    - self._eval(U - ei + ej)
                    + self._eval(U - ei - ej)
                ) / (4 * h**2)
        return self.param_grads(chart, U), out
