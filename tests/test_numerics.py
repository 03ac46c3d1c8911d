import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pademor import cli, numerics, poly
from pademor.errors import (DegenerateLeadingCoefficient, NoConvergence, NonFiniteValue,
                            NonHermitianInput, PadeError, settled)

from conftest import load_perfbench
from oracles import loop_jacobi


def random_hermitian(rng, n):
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return A + A.conj().T


class TestPhaseFix:
    def test_largest_entry_becomes_real_nonnegative(self):
        v = numerics.phase_fix(np.array([0.1, -2.0j, 0.5]))
        assert v[1].real > 0 and abs(v[1].imag) == 0.0

    def test_preserves_magnitudes(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        out = numerics.phase_fix(v)
        assert np.allclose(np.abs(out), np.abs(v))

    def test_zero_vector_unchanged(self):
        assert np.all(numerics.phase_fix(np.zeros(3)) == 0)

    def test_tie_picks_lowest_index(self):
        v = np.array([1j, -1j])
        out = numerics.phase_fix(v)
        assert out[0] == pytest.approx(1.0)


class TestHermitianMinEigenpair:
    def test_diagonal(self):
        res = numerics.hermitian_min_eigenpair(np.diag([3.0, 1.0, 2.0]))
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.vector, [0, 1, 0])

    def test_identity(self):
        H = np.eye(4, dtype=complex)
        res = numerics.hermitian_min_eigenpair(H)
        assert res.value == pytest.approx(1.0)
        assert np.linalg.norm(H @ res.vector - res.value * res.vector) <= 1e-12 * 2.0
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-14)

    def test_two_by_two_hand_oracle(self):
        # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
        res = numerics.hermitian_min_eigenpair(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert res.value == pytest.approx(1.0)
        s = 1 / np.sqrt(2)
        assert np.allclose(res.vector, [s, -s], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            numerics.hermitian_min_eigenpair(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_out_of_sweeps(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_JACOBI_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="Jacobi sweeps exceeded 0 without "
                           "reaching off-diagonal target"):
            numerics.hermitian_eigensystem(np.array([[2.0, 1.0], [1.0, 2.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianInput):
            numerics.hermitian_min_eigenpair(np.ones((2, 3)))

    def test_rayleigh_quotient_lower_bound(self, rng):
        # mu_min <= v*Hv for random unit v, and the eigen-residual contract
        for _ in range(100):
            n = int(rng.integers(1, 9))
            H = random_hermitian(rng, n)
            res = numerics.hermitian_min_eigenpair(H)
            scale = np.linalg.norm(H)
            assert (
                np.linalg.norm(H @ res.vector - res.value * res.vector)
                <= 1e-12 * max(scale, 1.0)
            )
            V = rng.normal(size=(n, 100)) + 1j * rng.normal(size=(n, 100))
            V = V / np.linalg.norm(V, axis=0)
            rayleigh = np.real(np.sum(np.conj(V) * (H @ V), axis=0))
            assert np.all(res.value <= rayleigh + 1e-10 * max(scale, 1.0))

    def test_eigensystem_matches_numpy(self, rng):
        for n in (2, 3, 5, 8, 16):
            H = random_hermitian(rng, n)
            vals, vecs = numerics.hermitian_eigensystem(H)
            assert np.allclose(vals, np.linalg.eigvalsh(H), atol=1e-11 * n)
            assert np.allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12 * n)
            # the eigen-residual contract, for every pair
            residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
            assert np.all(residuals <= numerics.EIGEN_TOL * np.linalg.norm(H))

    def test_degenerate_minimum_flagged(self):
        res = numerics.hermitian_min_eigenpair(np.eye(3, dtype=complex))
        assert res.degenerate

    def test_simple_minimum_not_flagged(self):
        res = numerics.hermitian_min_eigenpair(np.diag([1.0, 2.0, 3.0]))
        assert not res.degenerate


def random_matrix(rng, n, kind):
    """A Hermitian matrix of order n: "complex" X + X^H, "scaled" the Gram
    matrix of columns scaled from 1 down to 1e-12, "real" a real symmetric
    X + X^T, "near_diagonal" a diagonal with one off-diagonal pair of 1e-3
    and every other off-diagonal entry at most a quarter of the rotation
    skip threshold eps * ||H||_F / n, so it is zeroed, not rotated."""
    X = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if kind == "scaled":
        X = X * np.logspace(0, -12, n)
        return X.conj().T @ X
    if kind == "real":
        return (X + X.T).real
    if kind == "near_diagonal":
        d = rng.normal(size=n)
        noise = X + X.conj().T
        noise *= 0.25 * np.finfo(float).eps * np.linalg.norm(d) / n / np.abs(noise).max()
        H = np.diag(d) + noise
        if n > 1:
            H[0, n - 1] = 1e-3j
            H[n - 1, 0] = -1e-3j
        return H
    return X + X.conj().T


def assert_loop_bytes(H, vals, vecs):
    """vals and vecs are oracles.loop_jacobi's eigensystem of H, byte for
    byte."""
    ref_vals, ref_vecs = loop_jacobi(H)
    assert vals.tobytes() == ref_vals.tobytes()
    assert vecs.tobytes() == ref_vecs.tobytes()


class TestJacobiOracle:
    """The stacked, copy-free rotation kernel of hermitian_eigensystem gives
    the loop it replaced (oracles.loop_jacobi) bit for bit: values and
    vectors, neither phase-fixed, compared as bytes."""

    @staticmethod
    def assert_same_bytes(H):
        assert_loop_bytes(H, *numerics.hermitian_eigensystem(H))

    @pytest.mark.parametrize("kind", ["complex", "scaled", "real", "near_diagonal"])
    def test_random_matrices(self, rng, kind):
        for n in range(1, 13):
            for _ in range(4):
                self.assert_same_bytes(random_matrix(rng, n, kind))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_zero_matrix(self, n):
        self.assert_same_bytes(np.zeros((n, n)))

    # Three M, each with one standard Gramian sum; the fast route takes an
    # SVD of its factor R, or the null vector of a rank-deficient window.
    @pytest.mark.parametrize("workload, solves",
                             [("highorder_poles", 3), ("synthetic_dense_grid", 3)])
    def test_matrices_of_a_sweep(self, workload, solves, tmp_path, monkeypatch):
        # every Gramian sum that one benchmark sweep solves, as one stack
        workloads = load_perfbench("workloads")
        stacks = []
        eigensystems = numerics.hermitian_eigensystems

        def recorded(matrices):
            stacks.append(([np.array(H, dtype=complex) for H in matrices],
                           eigensystems(matrices)))
            return stacks[-1][1]

        monkeypatch.setattr(numerics, "hermitian_eigensystems", recorded)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(workloads.make_config(workload)))
        out = str(tmp_path / "sweep.csv")
        assert cli.main(["sweep", "--config", str(path), "--out", out]) == 0
        monkeypatch.undo()
        [(matrices, solved)] = stacks
        assert len(matrices) == solves
        for H, (vals, vecs) in zip(matrices, solved):
            assert_loop_bytes(H, vals, vecs)


class TestJacobiStack:
    """hermitian_eigensystems solves a stack in lockstep, each matrix giving
    what it gives alone (oracles.loop_jacobi), bytes compared, and each
    failure recorded in its place."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["complex", "scaled", "zero", "near_diagonal"]),
                          min_size=1, max_size=8))
    def test_stack_is_each_matrix_alone(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        matrices = [np.zeros((n, n)) if kind == "zero" else random_matrix(rng, n, kind)
                    for kind in kinds]
        for H, (vals, vecs) in zip(matrices, numerics.hermitian_eigensystems(matrices)):
            assert_loop_bytes(H, vals, vecs)

    def test_failures_are_recorded_in_place(self, rng, monkeypatch):
        # one sweep allowed: the diagonal matrix needs none and the one
        # with a single off-diagonal pair converges in one; the random one
        # runs out of sweeps and the non-Hermitian one is refused, each
        # recorded in its place, while the others keep their bytes
        monkeypatch.setattr(numerics, "MAX_JACOBI_SWEEPS", 1)
        matrices = [np.diag([3.0, 1.0, 2.0]), random_matrix(rng, 3, "complex"),
                    np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]),
                    np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
        out = numerics.hermitian_eigensystems(matrices)
        assert isinstance(out[1], NoConvergence)
        assert str(out[1]).startswith("Jacobi sweeps exceeded 1 without reaching")
        assert isinstance(out[3], NonHermitianInput)
        for k in (0, 2):
            assert_loop_bytes(matrices[k], *out[k])
        with pytest.raises(NoConvergence):
            settled(out)


class TestNonFiniteMatrices:
    """A matrix with a non-finite entry is refused with NonFiniteValue.  A
    nan entry passed the Hermitian test, whose comparison with nan is
    false, and its nan tolerances never stopped the sweeps: a rotation
    then divided by a zero entry (ZeroDivisionError).  An inf entry
    warned twice and gave an inf eigenvalue."""

    MATRICES = {
        "nan_diagonal": [[np.nan, 0.0], [0.0, 1.0]],
        "nan_off_diagonal": [[1.0, np.nan], [np.nan, 1.0]],
        "inf_diagonal": [[np.inf, 0.0], [0.0, 1.0]],
    }

    @pytest.mark.parametrize("name", sorted(MATRICES))
    def test_refused(self, name):
        with pytest.raises(NonFiniteValue, match="matrix has a non-finite entry"):
            numerics.hermitian_eigensystem(np.array(self.MATRICES[name]))

    def test_recorded_in_place_in_a_stack(self, rng):
        matrices = [random_matrix(rng, 2, "complex"), np.array(self.MATRICES["nan_diagonal"]),
                    np.diag([3.0, 1.0]), np.array(self.MATRICES["inf_diagonal"]),
                    np.array(self.MATRICES["nan_off_diagonal"])]
        out = numerics.hermitian_eigensystems(matrices)
        assert [isinstance(x, NonFiniteValue) for x in out] == [False, True, False, True, True]
        for k in (0, 2):
            assert_loop_bytes(matrices[k], *out[k])


class TestMinRightSingularVector:
    def test_diagonal(self):
        res = numerics.min_right_singular_vector(np.diag([3.0, 1.0, 2.0]))
        assert res.value == pytest.approx(1.0)
        assert np.allclose(np.abs(res.vector), [0, 1, 0], atol=1e-12)

    def test_identity(self):
        # an exact tie: flagged, and any unit vector is a minimiser
        R = np.eye(3, dtype=complex)
        res = numerics.min_right_singular_vector(R)
        assert res.value == 1.0 and res.degenerate
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(R @ res.vector) == pytest.approx(1.0, abs=1e-15)

    def test_one_by_one(self):
        # N = 0: the factor of a single column
        res = numerics.min_right_singular_vector(np.array([[-2.0 + 1.5j]]))
        assert res.value == 2.5
        assert res.vector.tolist() == [1.0] and not res.degenerate

    def test_near_tie_gives_the_minimiser(self):
        # sigma^2 differ by 2e-14, within the gap: flagged, yet the vector is
        # e_0, the minimiser, not the lexicographically smaller e_1 that
        # hermitian_min_eigenpair picks from R^H R
        R = np.diag([1.0 - 1e-14, 1.0]).astype(complex)
        res = numerics.min_right_singular_vector(R)
        assert res.degenerate and res.value == 1.0 - 1e-14
        assert res.vector.tolist() == [1.0, 0.0]
        assert numerics.hermitian_min_eigenpair(R.conj().T @ R).vector.tolist() == [0.0, 1.0]

    def test_non_finite_factor_raises(self):
        with pytest.raises(NoConvergence):
            numerics.min_right_singular_vector(np.array([[np.nan, 1.0], [0.0, 1.0]]))

    def test_two_by_two_closed_form(self):
        R = np.array([[1.0, 1.0], [0.0, 1e-3]])
        H = R.conj().T @ R
        # closed-form 2x2 Hermitian eigensystem
        a, b, d = H[0, 0].real, H[0, 1], H[1, 1].real
        mu = (a + d) / 2 - np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        v = np.array([b, mu - a])
        v = v / np.linalg.norm(v)
        res = numerics.min_right_singular_vector(R)
        assert res.value == pytest.approx(np.sqrt(mu), rel=1e-10)
        assert np.allclose(np.abs(res.vector), np.abs(v), atol=1e-10)

    def test_agrees_with_gramian_eigenpair(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            R = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            res = numerics.min_right_singular_vector(R)
            ref = numerics.hermitian_min_eigenpair(R.conj().T @ R)
            assert res.value**2 == pytest.approx(ref.value, abs=1e-10)
            if not ref.degenerate:
                assert np.allclose(res.vector, ref.vector, atol=1e-10)


class TestPolynomialRoots:
    def test_factored_quadratic(self):
        roots = numerics.polynomial_roots([2.0, -3.0, 1.0])
        assert np.allclose(sorted(r.real for r in roots), [1.0, 2.0], atol=1e-10)

    def test_pure_imaginary_pair(self):
        roots = numerics.polynomial_roots([1.0, 0.0, 1.0])
        assert np.allclose(sorted(r.imag for r in roots), [-1.0, 1.0], atol=1e-10)

    def test_double_root_expand_and_compare(self):
        # (z - (1+i))^2 (z - 3)
        target = np.polynomial.polynomial.polyfromroots([1 + 1j, 1 + 1j, 3.0])
        roots = numerics.polynomial_roots(list(target))
        back = np.polynomial.polynomial.polyfromroots(roots)
        assert np.allclose(back, target, atol=1e-6)

    def test_random_monic_reconstruction(self, rng):
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            known = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            coeffs = np.polynomial.polynomial.polyfromroots(known)
            roots = numerics.polynomial_roots(list(coeffs))
            # the root-residual contract
            r = np.abs(np.array(roots))
            residuals = np.abs(np.polynomial.polynomial.polyval(np.array(roots), coeffs))
            bounds = numerics.ROOT_TOL * np.max(np.abs(coeffs)) * (1 + r) ** deg
            assert np.all(residuals <= bounds)
            back = np.polynomial.polynomial.polyfromroots(roots)
            scale = np.max(np.abs(coeffs))
            assert np.max(np.abs(back - coeffs)) <= 1e-8 * scale

    def test_exact_zero_roots(self):
        # six vanishing low-order coefficients: a root of multiplicity six
        # at 0, which the companion matrix gives exactly
        roots = numerics.polynomial_roots([0.0] * 6 + [0.799, 0.491, 0.347])
        assert len(roots) == 8 and roots.count(0) == 6

    def test_degree_forty(self, rng):
        # above the former degree cap of 32
        coeffs = np.append(rng.normal(size=40) + 1j * rng.normal(size=40), 1.0)
        roots = np.array(numerics.polynomial_roots(coeffs))
        assert roots.size == 40
        residuals = np.abs(np.polynomial.polynomial.polyval(roots, coeffs))
        bounds = numerics.ROOT_TOL * np.max(np.abs(coeffs)) * (1 + np.abs(roots)) ** 40
        assert np.all(residuals <= bounds)

    def test_deterministic(self):
        a = numerics.polynomial_roots([2.0, -3.0, 1.0])
        b = numerics.polynomial_roots([2.0, -3.0, 1.0])
        assert a == b

    def test_root_with_underflowing_phase(self):
        # the phase of r underflows: cmath.phase would raise OverflowError
        r = complex(1e3, 5e-324)
        assert sorted(numerics.polynomial_roots([2 * r, -(r + 2), 1.0]), key=abs) == [2, r]

    def test_constant_has_no_roots(self):
        assert numerics.polynomial_roots([3.0]) == []

    def test_vanishing_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            numerics.polynomial_roots([1.0, 1.0, 1e-16])

    def test_empty_rejected(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            numerics.polynomial_roots([])

    def test_residual_bound_failure(self, monkeypatch):
        # no rounded root has a residual of exactly 0
        monkeypatch.setattr(numerics, "ROOT_TOL", 0.0)
        with pytest.raises(NoConvergence, match="root residual check failed"):
            numerics.polynomial_roots([0.3, -1.7, 0.9, 1.0])


def same_outcome(stacked, alone):
    """A stack's outcome for one item against that item solved alone
    (alone() returns or raises): the same error, type and message, or the
    same roots byte for byte, signed zeros included."""
    try:
        expected = alone()
    except PadeError as exc:
        assert type(stacked) is type(exc) and str(stacked) == str(exc)
    else:
        assert not isinstance(stacked, PadeError), stacked
        got, want = np.array(stacked, dtype=complex), np.array(expected, dtype=complex)
        assert got.tobytes() == want.tobytes()


# One coefficient part: 0 (of either sign) or a float of a few decades.
PARTS = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1e3, 1e3, allow_nan=False))


@st.composite
def coefficient_rows(draw):
    """Ascending complex coefficients of degree 0 to 6.  Some rows are
    scaled by 2^-1040, so that their leading coefficient is below 2^-1000
    and the solve rescales them by 2^1000; some are the monomial
    a_d z^d, whose roots, all 0, are exact, so that it passes any residual
    bound."""
    degree = draw(st.integers(0, 6))
    row = [complex(draw(PARTS), draw(PARTS)) for _ in range(degree + 1)]
    if draw(st.booleans()):
        row = [0j] * degree + row[-1:]
    if draw(st.booleans()):
        row = [a * 2.0**-1040 for a in row]
    return row


class TestRootStacks:
    """A stack of polynomials gives each one's roots, or error, as solving
    it alone does."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=st.lists(coefficient_rows(), min_size=1, max_size=8), strict=st.booleans())
    def test_stack_is_each_row_alone(self, rows, strict):
        # strict: a residual bound of 2^-60, which rows with rounded roots
        # fail (NoConvergence) while the exact monomials pass
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60 if strict else numerics.ROOT_TOL):
            stacked = numerics.polynomial_roots_stack(rows)
            assert len(stacked) == len(rows)
            for out, row in zip(stacked, rows):
                same_outcome(out, lambda: numerics.polynomial_roots(row))
            polys = [poly.ShiftedPolynomial(0.5 - 0.25j, row) for row in rows]
            for out, p in zip(poly.roots_stack(polys), polys):
                same_outcome(out, lambda: poly.roots(p))

    def test_failed_row_keeps_its_place(self):
        # the middle row fails a residual bound of 2^-60; the monomials
        # around it pass
        rows = [[0, 0, 2.0], [0.3, -1.7, 0.9, 1.0], [0, 0, 0, 1j]]
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60):
            first, failed, last = numerics.polynomial_roots_stack(rows)
            assert first == [0j, 0j] and last == [0j, 0j, 0j]
            assert isinstance(failed, NoConvergence)
            with pytest.raises(NoConvergence, match="root residual check failed"):
                settled([first, failed, last])

    def test_first_failure_in_order_is_raised(self):
        # degree 1 solves before degree 2, yet the degree-2 row comes first
        stacked = numerics.polynomial_roots_stack([[1.0, 1.0, 1e-16], [], [1.0, 1.0]])
        with pytest.raises(DegenerateLeadingCoefficient, match="vanishes"):
            settled(stacked)
        assert isinstance(stacked[1], DegenerateLeadingCoefficient)
        assert stacked[2] == [-1 + 0j]
