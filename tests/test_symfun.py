"""Tests for symmetric curvature functions and Newton transformations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmcf import kernels, symfun
from rmcf.errors import DomainError, InvalidInputError
from rmcf.symfun import SymMatrix, newton_transform, newton_transforms

from scalar_api import (
    CurvatureSpectrum,
    char_poly_eval,
    min_eigen_Pr,
    newton_polynomial,
    trace_identities,
)


def esp_enum(k, r):
    """Subset-enumeration oracle: sum of all r-fold products of distinct entries."""
    if r == 0:
        return 1.0
    if r > len(k):
        return 0.0
    return float(sum(np.prod(c) for c in itertools.combinations(k, r)))


def elementary_symmetric(k, r):
    """sigma_r(k) of one curvature vector through ``kernels.sigma_table``, with its checks.

    Returns 1 for r = 0 and 0 for r > len(k).
    """
    k = np.asarray(k, dtype=float).ravel()
    if not isinstance(r, (int, np.integer)) or r < 0:
        raise InvalidInputError("order r must be a nonnegative integer")
    if k.size < 1:
        raise InvalidInputError("need at least one curvature value")
    if not np.all(np.isfinite(k)):
        raise InvalidInputError("non-finite curvature value")
    if r == 0:
        return 1.0
    if r > k.size:
        return 0.0
    return float(kernels.sigma_table(k[None, :])[0, r])


def sigma_all(k):
    """Vector (sigma_0, ..., sigma_n) for one curvature vector."""
    k = np.asarray(k, dtype=float).ravel()
    if not np.all(np.isfinite(k)):
        raise InvalidInputError("non-finite curvature value")
    return kernels.sigma_table(k[None, :])[0]


def curvature_spectrum(k):
    """A CurvatureSpectrum built from one curvature vector, as MeshGeometry rows hold it."""
    k = np.asarray(k, dtype=float).ravel()
    if k.size < 1:
        raise InvalidInputError("need at least one principal curvature")
    if not np.all(np.isfinite(k)):
        raise InvalidInputError("non-finite principal curvature")
    sig = kernels.sigma_table(k[None, :])[0]
    k = k.copy()
    k.setflags(write=False)
    sig.setflags(write=False)
    return CurvatureSpectrum(k=k, sigma=sig)


def random_sym(rng, n, radius=None):
    a = rng.standard_normal((n, n))
    a = 0.5 * (a + a.T)
    if radius is not None:
        rho = max(np.max(np.abs(np.linalg.eigvalsh(a))), 1e-12)
        a *= radius / rho
    return a


curvature_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=6,
)


class TestElementarySymmetric:
    def test_r0_is_one(self):
        assert elementary_symmetric([5.0, -3.0, 0.1], 0) == 1.0

    def test_full_product(self):
        assert elementary_symmetric([2.0, 3.0], 2) == pytest.approx(6.0, abs=1e-14)

    def test_three_curvatures(self):
        # oracle: 1*2 + 1*3 + 2*3 = 11
        assert esp_enum([1.0, 2.0, 3.0], 2) == 11.0
        assert elementary_symmetric([1.0, 2.0, 3.0], 2) == pytest.approx(11.0, abs=1e-12)

    def test_above_n_is_zero(self):
        assert elementary_symmetric([1.0, 2.0], 3) == 0.0

    def test_nonfinite_rejected(self):
        with pytest.raises(InvalidInputError):
            elementary_symmetric([1.0, np.nan], 1)
        with pytest.raises(InvalidInputError):
            elementary_symmetric([np.inf, 1.0], 1)

    def test_negative_order_rejected(self):
        with pytest.raises(InvalidInputError):
            elementary_symmetric([1.0], -1)

    @given(curvature_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, k):
        for r in range(len(k) + 2):
            scale = 1.0 + max(abs(x) for x in k) ** max(r, 1)
            assert elementary_symmetric(k, r) == pytest.approx(
                esp_enum(k, r), abs=1e-11 * scale
            )


class TestSymMatrix:
    def test_symmetrization(self):
        a = SymMatrix([[1.0, 2.0 + 5e-10], [2.0, 1.0]])
        assert np.allclose(a.entries, a.entries.T)
        assert np.max(np.abs(a.entries - a.entries.T)) == 0.0

    def test_rejects_asymmetry(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            SymMatrix([[np.nan, 0.0], [0.0, 1.0]])

    def test_rejects_oversize(self):
        with pytest.raises(InvalidInputError):
            SymMatrix(np.eye(17))

    def test_immutable(self):
        a = SymMatrix(np.eye(2))
        with pytest.raises(AttributeError):
            a.n = 3
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0


class TestCurvatureSpectrum:
    def test_sigma0_exact(self):
        cs = curvature_spectrum([0.3, -1.2, 4.0])
        assert cs.sigma[0] == 1.0

    def test_accessor_above_n(self):
        cs = curvature_spectrum([1.0, 1.0])
        assert cs.sigma_r(3) == 0.0
        assert cs.sigma_r(2) == pytest.approx(1.0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(7)
        k = rng.uniform(-1.5, 1.5, size=7)
        cs = curvature_spectrum(k)
        for r in range(8):
            assert cs.sigma_r(r) == pytest.approx(esp_enum(k, r), abs=1e-11)


class TestCharPoly:
    def test_identity_root(self):
        assert char_poly_eval(np.eye(2), 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_det_at_zero(self):
        assert char_poly_eval(np.diag([1.0, 2.0, 3.0]), 0.0) == pytest.approx(6.0, abs=1e-12)

    def test_against_determinant(self):
        rng = np.random.default_rng(11)
        a = random_sym(rng, 5)
        t = 0.7
        want = np.linalg.det(a - t * np.eye(5))
        scale = max(1.0, abs(want))
        assert char_poly_eval(a, t) == pytest.approx(want, abs=1e-9 * scale)

    def test_random_points_random_matrices(self):
        rng = np.random.default_rng(12)
        for n in range(2, 7):
            a = random_sym(rng, n)
            scale = max(1.0, np.max(np.abs(a))) ** n
            for t in rng.uniform(-2, 2, size=10):
                want = np.linalg.det(a - t * np.eye(n))
                assert char_poly_eval(a, t) == pytest.approx(want, abs=1e-8 * scale)


class TestNewtonTransform:
    def test_identity_matrix(self):
        p1 = newton_transform(np.eye(3), 1)
        assert np.allclose(p1.entries, 2.0 * np.eye(3), atol=1e-14)

    def test_complement_oracle_diag(self):
        # eigenvalue of P_r at e_i is sigma_r of the other curvatures:
        # for diag(1,2,3), r=2: (2*3, 1*3, 1*2)
        p2 = newton_transform(np.diag([1.0, 2.0, 3.0]), 2)
        assert np.allclose(p2.entries, np.diag([6.0, 3.0, 2.0]), atol=1e-12)

    def test_cayley_hamilton(self):
        rng = np.random.default_rng(21)
        a = random_sym(rng, 4, radius=1.7)
        pn = newton_transform(a, 4)
        assert np.max(np.abs(pn.entries)) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_cayley_hamilton_at_large_scale(self, seed):
        # P_3 of a spectral-radius-1e3 matrix is round-off of size 1e-16 |A|^3,
        # which the one-row and the stacked path symmetrize without rejecting
        A = SymMatrix(random_sym(np.random.default_rng(seed), 3, radius=1e3))
        one = newton_transform(A, 3).entries
        stacked = newton_transforms(A.entries[None], A.sigma_table()[None], 3)[0]
        assert np.max(np.abs(one)) <= 1e-13 * 1e9
        assert np.array_equal(one, stacked)

    def test_overflow_is_rejected(self):
        A = SymMatrix(np.full((2, 2), 1e200))
        with pytest.raises(InvalidInputError, match="non-finite"):
            with np.errstate(over="ignore", invalid="ignore"):
                newton_transform(A, 2)

    def test_r_above_n_rejected(self):
        with pytest.raises(DomainError):
            newton_transform(np.eye(3), 4)

    @given(st.integers(2, 6), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_commutes_with_A(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_sym(rng, n, radius=1.5)
        for r in range(n):
            p = newton_transform(a, r)
            comm = a @ p.entries - p.entries @ a
            assert np.max(np.abs(comm)) < 1e-10


class TestNewtonPolynomial:
    def test_zero_matrix(self):
        for r in (1, 2, 3):
            p = newton_polynomial(np.zeros((3, 3)), r)
            assert np.allclose(p.entries, 0.0)

    def test_hand_oracle(self):
        # sigma_1 I - A for diag(1,2,3): diag(5,4,3)
        p1 = newton_polynomial(np.diag([1.0, 2.0, 3.0]), 1)
        assert np.allclose(p1.entries, np.diag([5.0, 4.0, 3.0]), atol=1e-12)

    def test_matches_recursion(self):
        rng = np.random.default_rng(31)
        a = random_sym(rng, 6, radius=1.8)
        p_rec = newton_transform(a, 3)
        p_pol = newton_polynomial(a, 3)
        assert np.max(np.abs(p_rec.entries - p_pol.entries)) < 1e-10

    @given(st.integers(2, 6), st.integers(0, 10))
    @settings(max_examples=40, deadline=None)
    def test_recursion_polynomial_agree(self, n, seed):
        rng = np.random.default_rng(1000 + seed)
        a = random_sym(rng, n, radius=1.5)
        for r in range(n + 1):
            diff = newton_transform(a, r).entries - newton_polynomial(a, r).entries
            assert np.max(np.abs(diff)) < 1e-10


class TestStackedOracles:
    def test_rows_are_one_row_calls(self):
        rng = np.random.default_rng(71)
        a = np.stack([random_sym(rng, 4, radius=1.5) for _ in range(5)])
        sig = kernels.sigma_table(np.linalg.eigvalsh(a))
        t = rng.uniform(-2.0, 2.0, size=(5, 3))
        got = symfun.char_poly_eval(sig, t)
        P = symfun.newton_polynomial(a, sig, 2)
        for i in range(5):
            row = slice(i, i + 1)
            assert np.array_equal(got[i], symfun.char_poly_eval(sig[row], t[row])[0])
            assert np.array_equal(P[i], symfun.newton_polynomial(a[row], sig[row], 2)[0])

    def test_argument_checks(self):
        sig = kernels.sigma_table(np.ones((2, 3)))
        with pytest.raises(InvalidInputError, match="finite"):
            symfun.char_poly_eval(sig, np.array([[0.0], [np.nan]]))
        with pytest.raises(InvalidInputError):
            symfun.char_poly_eval(sig, np.zeros((3, 1)))
        with pytest.raises(InvalidInputError):
            symfun.newton_polynomial(np.eye(3), sig, 1)
        with pytest.raises(InvalidInputError):
            symfun.newton_polynomial(np.stack([np.eye(3)] * 2), sig, -1)
        with pytest.raises(DomainError):
            symfun.newton_polynomial(np.stack([np.eye(3)] * 2), sig, 4)


class TestTraceIdentities:
    def test_diag_oracle(self):
        trp, trap = trace_identities(np.diag([1.0, 2.0, 3.0]), 2)
        assert trp == pytest.approx(12.0, abs=1e-12)   # trace diag(5,4,3)
        assert trap == pytest.approx(22.0, abs=1e-12)  # trace diag(5,8,9)
        # (n-r+1) sigma_1 = 2*6, r sigma_2 = 2*11
        assert trp == pytest.approx(2 * 6.0)
        assert trap == pytest.approx(2 * 11.0)

    def test_identity_matrix(self):
        for n in (2, 4, 7):
            trp, trap = trace_identities(np.eye(n), 1)
            assert trp == pytest.approx(float(n))
            assert trap == pytest.approx(float(n))

    def test_eigenvalue_oracle(self):
        rng = np.random.default_rng(41)
        a = random_sym(rng, 5)
        vals = np.linalg.eigvalsh(a)
        trp, trap = trace_identities(a, 3)
        want_trp = (5 - 3 + 1) * esp_enum(vals, 2)
        want_trap = 3 * esp_enum(vals, 3)
        assert trp == pytest.approx(want_trp, rel=1e-9, abs=1e-9)
        assert trap == pytest.approx(want_trap, rel=1e-9, abs=1e-9)

    def test_bad_r(self):
        with pytest.raises(InvalidInputError):
            trace_identities(np.eye(3), 0)
        with pytest.raises(InvalidInputError):
            trace_identities(np.eye(3), 4)


class TestMinEigenPr:
    def test_identity(self):
        assert min_eigen_Pr(np.eye(3), 1) == pytest.approx(2.0)

    def test_diag_oracle(self):
        assert min_eigen_Pr(np.diag([1.0, 2.0, 3.0]), 2) == pytest.approx(2.0)

    def test_indefinite(self):
        # P_1 = sigma_1 I - A = -A = diag(-1, 1)
        assert min_eigen_Pr(np.diag([1.0, -1.0]), 1) == pytest.approx(-1.0)

    def test_r_range(self):
        with pytest.raises(DomainError):
            min_eigen_Pr(np.eye(3), 3)

    def test_matches_direct_eigensolve(self):
        rng = np.random.default_rng(51)
        for n in (2, 4, 6):
            a = random_sym(rng, n, radius=1.5)
            for r in range(n):
                want = np.min(np.linalg.eigvalsh(newton_transform(a, r).entries))
                assert min_eigen_Pr(a, r) == pytest.approx(want, abs=1e-10)


class TestEigenComplementIdentity:
    @given(st.integers(2, 8), st.integers(0, 20))
    @settings(max_examples=40, deadline=None)
    def test_diagonal_complement(self, n, seed):
        rng = np.random.default_rng(2000 + seed)
        k = rng.uniform(-2, 2, size=n)
        for r in range(n):
            p = newton_transform(np.diag(k), r)
            for i in range(n):
                others = np.delete(k, i)
                assert p.entries[i, i] == pytest.approx(
                    esp_enum(others, r), abs=1e-10 * (1 + 2.0**r)
                )


def test_sigma_all_consistency():
    rng = np.random.default_rng(61)
    k = rng.uniform(-1, 1, size=8)
    sig = sigma_all(k)
    for r in range(9):
        assert sig[r] == pytest.approx(esp_enum(k, r), abs=1e-12)
