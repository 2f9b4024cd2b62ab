"""Elementary symmetric functions of principal curvatures and Newton transformations.

Everything here is finite-dimensional linear algebra on small (n <= 16)
symmetric matrices, stacked along a leading row axis: the symmetry check,
the characteristic polynomial from a sigma table, and the transforms P_r
by their recursion and by their polynomial form. ``SymMatrix`` and
``newton_transform`` are the one-row forms.
"""

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

    def __repr__(self):
        return f"SymMatrix(n={self.n})"


def char_poly_eval(sigma, t):
    """det(A - t I) = sum_j (-1)^j sigma_{n-j} t^j by Horner, at points t (m, q).

    ``sigma`` holds one sigma table (sigma_0, ..., sigma_n) per row (m, n+1),
    and row i of ``t`` is evaluated with row i of ``sigma``. The sigmas come
    from the spectrum of A, so agreement with a direct determinant is a
    genuine cross-check, not a tautology.
    """
    sigma = np.asarray(sigma, dtype=float)
    t = np.asarray(t, dtype=float)
    if sigma.ndim != 2 or t.ndim != 2 or len(t) != len(sigma):
        raise InvalidInputError(
            f"need sigma tables (m, n+1) and points (m, q), got {sigma.shape} and {t.shape}"
        )
    if not np.all(np.isfinite(t)):
        raise InvalidInputError("evaluation point t must be finite")
    n = sigma.shape[1] - 1
    # Horner on c_j = (-1)^j sigma_{n-j}, highest degree first
    acc = np.zeros_like(t)
    for j in range(n, -1, -1):
        acc = acc * t + ((-1.0) ** j) * sigma[:, n - j, None]
    return acc


def newton_transform(A, r):
    """P_r by the recursion P_0 = I, P_r = sigma_r I - A P_{r-1}.

    Defined for 0 <= r <= n; the r = n case closes the recursion at the
    zero matrix (Cayley-Hamilton) and exists purely as a test surface.
    """
    A = A if isinstance(A, SymMatrix) else SymMatrix(A)
    _check_newton_order(r, A.n)
    return SymMatrix._of_symmetrized(newton_transforms(A.entries, A.sigma_table(), r))


def _check_newton_order(r, n):
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise InvalidInputError("order r must be a nonnegative integer")
    if r > n:
        raise DomainError(f"P_r is only defined for r <= n (got r={r}, n={n})")


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


def newton_polynomial(A, sigma, r):
    """P_r of symmetric matrices A (m, n, n) as the polynomial sum_j (-1)^j sigma_{r-j} A^j.

    ``sigma`` holds the rows' sigma tables (m, n+1). Horner's scheme in
    B = -A shares no step with the recursion of ``newton_transforms``.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise InvalidInputError(f"expected a stack of square matrices, got shape {A.shape}")
    _check_newton_order(r, A.shape[-1])
    B = -A
    eye = np.eye(A.shape[-1])
    acc = sigma[:, 0, None, None] * eye  # sigma_0 I, then fold in B = -A
    for j in range(1, r + 1):
        acc = B @ acc + sigma[:, j, None, None] * eye
    return _symmetrized_derived(acc)
