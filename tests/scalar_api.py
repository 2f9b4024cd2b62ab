"""The one-row geometry and symmetric-function API, kept for the tests.

rmcf works on stacks: ``MeshGeometry`` rows, sigma tables (m, n+1) and
shape-operator stacks (m, n, n). The tests state many facts at one point
or for one matrix, so the one-row forms that rmcf no longer calls live on
here, with the argument checks they had. The geometry functions, the
characteristic polynomial and the polynomial form of P_r are one-row
calls of the stacked code; ``trace_identities`` and ``min_eigen_Pr`` read
the one-row ``newton_transform`` and ``kernels.complement_sigma``. So are
the one-point region membership ``region_contains``, the one-radius
profile equation ``rot_ode_rhs`` and ``transform_chart``, the rigid-motion
oracle of the bi-half-space drive.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from rmcf import kernels, symfun
from rmcf.charts import Chart, Mesh, _matvec, _param_row, mesh_geometry
from rmcf.errors import DomainError, InvalidInputError
from rmcf.regions import Cone, violation_margins
from rmcf.symfun import SymMatrix, newton_transform
from rmcf.translators import _check_orders, _upp


def _row(chart, u):
    return mesh_geometry(chart, _param_row(chart, u))


def intrinsic_hessian(chart, f, u):
    """hess f in the orthonormal frame at u, by the Gauss formula E^T D^2F E + <grad F, N> A."""
    return SymMatrix(_row(chart, u).intrinsic_hessian(f)[0])


def frame_gradient(chart, f, u):
    """Gradient components E^T grad F in the orthonormal frame at u."""
    return _row(chart, u).frame_gradient(f)[0]


def gradient_norm(chart, f, u):
    """Intrinsic |grad f| at u, the length of the tangential part of grad F."""
    return float(np.linalg.norm(frame_gradient(chart, f, u)))


def L_distance(chart, u, r, origin):
    """Closed form for L_{r-1} of the distance to ``origin`` at u (see MeshGeometry)."""
    return float(_row(chart, u).L_distance(r, origin)[0])


def soliton_residual(chart, u, V, r):
    """sigma_r - <N, V> at u; vanishes exactly on translators with velocity V."""
    V = np.asarray(V, dtype=float).ravel()
    if V.shape != (chart.n + 1,):
        raise InvalidInputError("velocity must be an ambient vector")
    if abs(np.linalg.norm(V) - 1.0) > 1e-10:
        raise InvalidInputError("velocity must be a unit vector")
    mg = _row(chart, u)
    return float(mg.sigma_r(r)[0]) - float(mg.N[0] @ V)


def refined(mesh, factor=2):
    """The grid over the same chart with ``factor`` times the cells per axis."""
    counts = tuple((c - 1) * factor + 1 for c in mesh.shape)
    return Mesh.grid(mesh.chart, counts)


@dataclass(frozen=True)
class CurvatureSpectrum:
    """Principal curvatures at a point together with sigma_0..sigma_n."""

    k: np.ndarray
    sigma: np.ndarray = field(repr=False)

    @property
    def n(self):
        return self.k.size

    def sigma_r(self, r):
        """sigma_r with the convention sigma_r = 0 for r > n."""
        if r < 0:
            raise DomainError("sigma_r needs r >= 0")
        if r > self.n:
            return 0.0
        return float(self.sigma[r])


def as_symmatrix(A):
    return A if isinstance(A, SymMatrix) else SymMatrix(A)


def char_poly_eval(A, t):
    """det(A - t I) of one matrix at one point, by Horner on its sigma table."""
    A = as_symmatrix(A)
    return float(symfun.char_poly_eval(A.sigma_table()[None], np.array([[t]], dtype=float))[0, 0])


def newton_polynomial(A, r):
    """P_r of one matrix as the explicit polynomial sum_j (-1)^j sigma_{r-j} A^j."""
    A = as_symmatrix(A)
    P = symfun.newton_polynomial(A.entries[None], A.sigma_table()[None], r)[0]
    return SymMatrix._of_symmetrized(P)


def trace_identities(A, r):
    """(tr P_{r-1}, tr(A P_{r-1})) for 1 <= r <= n.

    Contract: the pair equals ((n-r+1) sigma_{r-1}, r sigma_r).
    """
    A = as_symmatrix(A)
    if not isinstance(r, (int, np.integer)) or r < 1 or r > A.n:
        raise InvalidInputError(f"trace identities need 1 <= r <= n (got r={r}, n={A.n})")
    P = newton_transform(A, r - 1).entries
    return float(np.trace(P)), float(np.trace(A.entries @ P))


def min_eigen_Pr(A, r):
    """Smallest eigenvalue of P_r, computed from the complement spectrum.

    In the eigenbasis of A, the eigenvalue of P_r attached to the i-th
    eigenvector is sigma_r of the other curvatures.
    """
    A = as_symmatrix(A)
    if not isinstance(r, (int, np.integer)) or r < 0 or r > A.n - 1:
        raise DomainError(f"min_eigen_Pr needs 0 <= r <= n-1 (got r={r}, n={A.n})")
    return float(np.min(kernels.complement_sigma(A.eigenvalues()[None, :], r)[0]))


def region_contains(reg, X):
    """Membership of an ambient point: the one row of ``violation_margins``, margin <= 0.

    Cone membership is undefined at the vertex X = 0.
    """
    X = np.asarray(X, dtype=float).ravel()
    if isinstance(reg, Cone) and np.linalg.norm(X) < 1e-300:
        raise DomainError("cone membership undefined at the vertex X = 0")
    return bool(violation_margins(reg, X)[0] <= 0.0)


def rot_ode_rhs(n, r, R, up):
    """Second derivative of the rotational profile from the translator equation."""
    _check_orders(n, r)
    if not (R > 0):
        raise DomainError("profile equation needs R > 0")
    return _upp(math.comb(n - 1, r), math.comb(n - 1, r - 1), r, R, up)


def transform_chart(chart, Q, shift=None, name=None):
    """Rigid motion X -> Q X + shift applied to a chart.

    A rigid motion keeps distances along the surface, so the moved chart
    keeps ``intrinsic_distance``.
    """
    Q = np.asarray(Q, dtype=float)
    m = chart.n + 1
    if Q.shape != (m, m) or np.max(np.abs(Q.T @ Q - np.eye(m))) > 1e-10:
        raise InvalidInputError("Q must be an ambient orthogonal matrix")
    s = np.zeros(m) if shift is None else np.asarray(shift, dtype=float)

    def jets(U):
        X, dX, d2X = chart.jets(U)
        return _matvec(Q, X) + s, Q @ dX, d2X @ Q.T

    return Chart(
        n=chart.n,
        param_domain=chart.param_domain,
        jet=jets,
        name=name or (chart.name + "-moved"),
        orient_ref=Q @ chart.orient_ref,
        intrinsic_distance=chart.intrinsic_distance,
    )
