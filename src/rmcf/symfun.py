"""Elementary symmetric functions of principal curvatures and Newton transformations.

Everything here is finite-dimensional linear algebra on small (n <= 16)
symmetric matrices: sigma_r values, the characteristic polynomial, the
recursively defined transforms P_r together with their polynomial form,
and the trace identities tr P_{r-1} = (n-r+1) sigma_{r-1},
tr(A P_{r-1}) = r sigma_r.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import DomainError, InvalidInputError, NumericalError

MAX_DIM = 16

_ASYM_TOL = 1e-8


def _nowhere(i):
    return ""


def symmetrized(a, where=_nowhere):
    """Check a square matrix or a stack (..., n, n) of them and return 0.5 (a + a^T).

    Non-finite entries and asymmetry beyond 1e-8 * max(1, |A|_inf) of any
    matrix raise InvalidInputError; ``where(i)`` names stack entry i in the
    message.
    """
    a = np.asarray(a, dtype=float)
    scale = np.abs(a).max(axis=(-2, -1))  # not finite exactly when some entry is not
    finite = np.isfinite(scale)
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise InvalidInputError(f"matrix has non-finite entries{where(i)}")
    at = np.swapaxes(a, -1, -2)
    asym = np.abs(a - at).max(axis=(-2, -1))
    over = asym > _ASYM_TOL * np.maximum(1.0, scale)
    if over.any():
        i = int(np.flatnonzero(over)[0])
        raise InvalidInputError(
            f"asymmetry {np.ravel(asym)[i]:.3e} exceeds {_ASYM_TOL:.0e} * max(1, |A|_inf)"
            f"{where(i)}"
        )
    return 0.5 * (a + at)


def _symmetrized_derived(P, where=_nowhere):
    """0.5 (P + P^T) of a polynomial in checked symmetric matrices, (n, n) or (..., n, n).

    A polynomial in a symmetric matrix is symmetric up to round-off, and
    when its entries cancel (P_n = 0 by Cayley-Hamilton) that round-off
    can exceed the relative bound ``symmetrized`` enforces, so only
    finiteness (lost to overflow) is checked again. The arithmetic is
    ``symmetrized``'s.
    """
    finite = np.isfinite(P).all(axis=(-2, -1))
    if not finite.all():
        i = int(np.flatnonzero(~finite)[0])
        raise InvalidInputError(f"matrix has non-finite entries{where(i)}")
    return 0.5 * (P + np.swapaxes(P, -1, -2))


class SymMatrix:
    """Dense symmetric matrix, symmetrized on construction.

    Input asymmetry beyond 1e-8 * max(1, |A|_inf) is rejected as invalid.
    Entries are frozen after construction; the spectrum and the sigma
    table are computed once on first use.
    """

    __slots__ = ("n", "entries", "_eig", "_sigma")

    def __init__(self, entries):
        a = np.array(entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {a.shape}")
        n = a.shape[0]
        if n < 1 or n > MAX_DIM:
            raise InvalidInputError(f"dimension {n} outside supported range 1..{MAX_DIM}")
        m = symmetrized(a)
        m.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_eig", None)
        object.__setattr__(self, "_sigma", None)

    @classmethod
    def _of_symmetrized(cls, m):
        """Wrap a matrix that ``symmetrized`` has already checked and symmetrized."""
        self = object.__new__(cls)
        m.setflags(write=False)
        for name, value in (("n", m.shape[0]), ("entries", m), ("_eig", None), ("_sigma", None)):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SymMatrix is immutable")

    def eigenvalues(self):
        """Ascending real spectrum; eigensolver failure carries a condition report."""
        if self._eig is None:
            try:
                vals = np.linalg.eigvalsh(self.entries)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    f"eigendecomposition failed for n={self.n}, "
                    f"|A|_inf={np.max(np.abs(self.entries)):.3e}: {exc}"
                ) from exc
            vals.setflags(write=False)
            object.__setattr__(self, "_eig", vals)
        return self._eig

    def sigma_table(self):
        """(sigma_0, ..., sigma_n) of the spectrum, computed once."""
        if self._sigma is None:
            sig = kernels.sigma_table(self.eigenvalues()[None, :])[0]
            sig.setflags(write=False)
            object.__setattr__(self, "_sigma", sig)
        return self._sigma

    def trace(self):
        return float(np.trace(self.entries))

    def __matmul__(self, other):
        rhs = other.entries if isinstance(other, SymMatrix) else other
        return self.entries @ rhs

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


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


def char_poly_eval(A, t):
    """sum_j (-1)^j sigma_{n-j} t^j, which equals det(A - t I).

    The sigmas come from the spectrum of A, so agreement with a direct
    determinant is a genuine cross-check, not a tautology.
    """
    A = _as_symmatrix(A)
    if not np.isfinite(t):
        raise InvalidInputError("evaluation point t must be finite")
    sig = A.sigma_table().tolist()
    n = A.n
    # Horner on c_j = (-1)^j sigma_{n-j}, highest degree first
    acc = 0.0
    for j in range(n, -1, -1):
        acc = acc * t + ((-1.0) ** j) * sig[n - j]
    return float(acc)


def newton_transform(A, r):
    """P_r by the recursion P_0 = I, P_r = sigma_r I - A P_{r-1}.

    Defined for 0 <= r <= n; the r = n case closes the recursion at the
    zero matrix (Cayley-Hamilton) and exists purely as a test surface.
    """
    A = _as_symmatrix(A)
    n = A.n
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise InvalidInputError("order r must be a nonnegative integer")
    if r > n:
        raise DomainError(f"P_r is only defined for r <= n (got r={r}, n={n})")
    return SymMatrix._of_symmetrized(newton_transforms(A.entries, A.sigma_table(), r))


def newton_transforms(A, sigma, r, where=_nowhere):
    """P_r of a symmetric matrix A (n, n) or a stack (m, n, n), with sigma tables (..., n+1).

    The recursion P_0 = I, P_j = sigma_j I - A P_{j-1} runs on the whole
    stack; the result is symmetrized as in ``_symmetrized_derived``.
    """
    eye = np.eye(A.shape[-1])
    P = eye
    for j in range(1, r + 1):
        P = sigma[..., j, None, None] * eye - A @ P
    if P.shape != A.shape:  # P_0 of a stack
        P = np.broadcast_to(P, A.shape)
    return _symmetrized_derived(P, where)


def newton_polynomial(A, r):
    """P_r as the explicit polynomial sum_j (-1)^j sigma_{r-j} A^j via Horner."""
    A = _as_symmatrix(A)
    n = A.n
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise InvalidInputError("order r must be a nonnegative integer")
    if r > n:
        raise DomainError(f"P_r is only defined for r <= n (got r={r}, n={n})")
    sig = A.sigma_table()
    B = -A.entries
    eye = np.eye(n)
    acc = sig[0] * eye  # sigma_0 I, then fold in B = -A
    for j in range(1, r + 1):
        acc = B @ acc + sig[j] * eye
    return SymMatrix._of_symmetrized(_symmetrized_derived(acc))


def trace_identities(A, r):
    """(tr P_{r-1}, tr(A P_{r-1})) for 1 <= r <= n.

    Contract: the pair equals ((n-r+1) sigma_{r-1}, r sigma_r).
    """
    A = _as_symmatrix(A)
    if not isinstance(r, (int, np.integer)) or r < 1 or r > A.n:
        raise InvalidInputError(f"trace identities need 1 <= r <= n (got r={r}, n={A.n})")
    P = newton_transform(A, r - 1)
    trP = P.trace()
    trAP = float(np.trace(A.entries @ P.entries))
    return trP, trAP


def min_eigen_Pr(A, r):
    """Smallest eigenvalue of P_r, computed from the complement spectrum.

    In the eigenbasis of A, the eigenvalue of P_r attached to the i-th
    eigenvector is sigma_r of the other curvatures; the minimum over i
    is what the positive (semi)definiteness hypotheses ask about.
    """
    A = _as_symmatrix(A)
    if not isinstance(r, (int, np.integer)) or r < 0 or r > A.n - 1:
        raise DomainError(f"min_eigen_Pr needs 0 <= r <= n-1 (got r={r}, n={A.n})")
    vals = A.eigenvalues()
    comp = kernels.complement_sigma(vals[None, :], r)[0]
    return float(np.min(comp))


def _as_symmatrix(A):
    if isinstance(A, SymMatrix):
        return A
    return SymMatrix(A)
