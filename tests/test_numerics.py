import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pademor import cli, numerics, poly
from pademor.errors import (DegenerateLeadingCoefficient, DimensionMismatch, NoConvergence,
                            NonFiniteValue, NonHermitianInput, stacks)

from conftest import load_perfbench
from oracles import (block_scale_exponent, check_stack, loop_jacobi, loop_polynomial_roots,
                     loop_roots, min_eigenpair, singular_min_eigen, vector_phase_fix)


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
        res = numerics.hermitian_min_eigenpair([np.diag([3.0, 1.0, 2.0])])[0]
        assert res.value == pytest.approx(1.0)
        assert np.allclose(res.vector, [0, 1, 0])

    def test_identity(self):
        H = np.eye(4, dtype=complex)
        res = numerics.hermitian_min_eigenpair([H])[0]
        assert res.value == pytest.approx(1.0)
        assert np.linalg.norm(H @ res.vector - res.value * res.vector) <= 1e-12 * 2.0
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-14)

    def test_two_by_two_hand_oracle(self):
        # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
        res = numerics.hermitian_min_eigenpair([np.array([[2.0, 1.0], [1.0, 2.0]])])[0]
        assert res.value == pytest.approx(1.0)
        s = 1 / np.sqrt(2)
        assert np.allclose(res.vector, [s, -s], atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianInput):
            numerics.hermitian_min_eigenpair([np.array([[1.0, 2.0], [0.0, 1.0]])])[0]

    def test_out_of_sweeps(self, monkeypatch):
        monkeypatch.setattr(numerics, "MAX_JACOBI_SWEEPS", 0)
        with pytest.raises(NoConvergence, match="Jacobi sweeps exceeded 0 without "
                           "reaching off-diagonal target"):
            numerics.hermitian_eigensystem([np.array([[2.0, 1.0], [1.0, 2.0]])])[0]

    def test_rejects_non_square(self):
        with pytest.raises(NonHermitianInput):
            numerics.hermitian_min_eigenpair([np.ones((2, 3))])[0]

    def test_rayleigh_quotient_lower_bound(self, rng):
        # mu_min <= v*Hv for random unit v, and the eigen-residual contract
        for _ in range(100):
            n = int(rng.integers(1, 9))
            H = random_hermitian(rng, n)
            res = numerics.hermitian_min_eigenpair([H])[0]
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
            vals, vecs = numerics.hermitian_eigensystem([H])[0]
            assert np.allclose(vals, np.linalg.eigvalsh(H), atol=1e-11 * n)
            assert np.allclose(vecs.conj().T @ vecs, np.eye(n), atol=1e-12 * n)
            # the eigen-residual contract, for every pair
            residuals = np.linalg.norm(H @ vecs - vecs * vals, axis=0)
            assert np.all(residuals <= numerics.EIGEN_TOL * np.linalg.norm(H))

    def test_degenerate_minimum_flagged(self):
        res = numerics.hermitian_min_eigenpair([np.eye(3, dtype=complex)])[0]
        assert res.degenerate

    def test_simple_minimum_not_flagged(self):
        res = numerics.hermitian_min_eigenpair([np.diag([1.0, 2.0, 3.0])])[0]
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
        assert_loop_bytes(H, *numerics.hermitian_eigensystem([H])[0])

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
        min_eigenpair = numerics.hermitian_min_eigenpair

        def recorded(matrices):
            stacks.append(([np.array(H, dtype=complex) for H in matrices],
                           numerics.hermitian_eigensystem(matrices)))
            return min_eigenpair(matrices)

        monkeypatch.setattr(numerics, "hermitian_min_eigenpair", recorded)
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
    """hermitian_eigensystem solves a stack in lockstep, each matrix giving
    what it gives alone (oracles.loop_jacobi), bytes compared; a failing
    matrix stops the stack."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["complex", "scaled", "zero", "near_diagonal"]),
                          min_size=1, max_size=8))
    def test_stack_is_each_matrix_alone(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        matrices = [np.zeros((n, n)) if kind == "zero" else random_matrix(rng, n, kind)
                    for kind in kinds]
        for H, (vals, vecs) in zip(matrices, numerics.hermitian_eigensystem(matrices)):
            assert_loop_bytes(H, vals, vecs)

    def test_a_failure_stops_the_stack(self, rng, monkeypatch):
        # one sweep allowed: the diagonal matrix needs none and the one
        # with a single off-diagonal pair converges in one; the random one
        # runs out of sweeps and the non-Hermitian one is refused.  The
        # checks run before the sweeps, so the refusal stops the whole
        # stack first; without it the stack stops at the sweep limit with
        # the random matrix's own message, and the two others keep their
        # bytes
        monkeypatch.setattr(numerics, "MAX_JACOBI_SWEEPS", 1)
        matrices = [np.diag([3.0, 1.0, 2.0]), random_matrix(rng, 3, "complex"),
                    np.array([[2.0, 1.0, 0.0], [1.0, 2.0, 0.0], [0.0, 0.0, 5.0]]),
                    np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])]
        with pytest.raises(NonHermitianInput) as refused:
            numerics.hermitian_eigensystem(matrices)
        with pytest.raises(NonHermitianInput) as alone:
            numerics.hermitian_eigensystem([matrices[3]])[0]
        assert str(refused.value) == str(alone.value)
        with pytest.raises(NoConvergence) as stopped:
            numerics.hermitian_eigensystem(matrices[:3])
        with pytest.raises(NoConvergence) as alone:
            numerics.hermitian_eigensystem([matrices[1]])[0]
        assert str(stopped.value) == str(alone.value)
        assert str(alone.value).startswith("Jacobi sweeps exceeded 1 without reaching")
        for k, (vals, vecs) in zip((0, 2), numerics.hermitian_eigensystem(matrices[::2])):
            assert_loop_bytes(matrices[k], vals, vecs)


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
            numerics.hermitian_eigensystem([np.array(self.MATRICES[name])])[0]

    def test_refused_in_a_stack(self, rng):
        # a non-Hermitian matrix before the non-finite ones: the finite
        # check runs first, over the whole stack
        skew = random_matrix(rng, 2, "complex") + 1e-6j * np.triu(np.ones((2, 2)), 1)
        matrices = [skew, np.array(self.MATRICES["nan_diagonal"]), np.diag([3.0, 1.0]),
                    np.array(self.MATRICES["inf_diagonal"]),
                    np.array(self.MATRICES["nan_off_diagonal"])]
        with pytest.raises(NonFiniteValue, match="^matrix has a non-finite entry$"):
            numerics.hermitian_eigensystem(matrices)


def stack_matrix(rng, n, kind):
    """A matrix of order n for the stack passes: random_matrix's kinds, a
    zero matrix, one with eigenvalues 1, 1 + 1e-14 and up (a near tie
    within DEGENERACY_GAP), a non-finite one and a non-Hermitian one."""
    if kind == "zero":
        return np.zeros((n, n))
    if kind == "tie":
        U = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))[0]
        return (U * (1.0 + 1e-14 * np.arange(n) ** 2)) @ U.conj().T
    if kind == "nan":
        H = random_matrix(rng, n, "complex")
        H[rng.integers(n), rng.integers(n)] = np.nan
        return H
    if kind == "skew":
        return random_matrix(rng, n, "complex") + 1e-6j * np.triu(np.ones((n, n)), 1)
    return random_matrix(rng, n, kind)


def per_matrix(H, smallest):
    """One matrix's outcome from the per-matrix steps the stack passes
    replaced: check_hermitian and loop_jacobi, then min_eigenpair with the
    norm of the matrix alone."""
    vals, vecs = loop_jacobi(H)
    if not smallest:
        return vals, vecs
    value, vector, degenerate = min_eigenpair(vals, vecs, np.linalg.norm(np.asarray(H, complex)))
    return numerics.MinEigen(value, vector, degenerate, float(vals[-1]))


def same_arrays(got, want):
    """The same arrays and flags, byte for byte."""
    assert len(got) == len(want)
    for g, x in zip(got, want):
        assert np.asarray(g).tobytes() == np.asarray(x).tobytes() and type(g) is type(x)


class TestStackPasses:
    """The checks, convergence tests and harvest of the Jacobi stack, the
    minimal eigenpair's pick and phase fixes, the singular vectors' gap test
    and phase fix, and the scale exponents run as passes over a stack, each
    item giving the bytes, or the error, of the per-item code they replaced
    (oracles.check_hermitian, loop_jacobi, min_eigenpair,
    singular_min_eigen, vector_phase_fix, block_scale_exponent); a stack
    with a failing item raises an error that item raises alone
    (oracles.check_stack)."""

    KINDS = ["complex", "scaled", "near_diagonal", "zero", "tie", "nan", "skew"]

    @settings(max_examples=80, deadline=None, database=None)
    @given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), smallest=st.booleans(),
           kinds=st.lists(st.sampled_from(KINDS), min_size=1, max_size=7))
    def test_stack_is_each_matrix_alone(self, n, seed, smallest, kinds):
        rng = np.random.default_rng(seed)
        matrices = [stack_matrix(rng, n, kind) for kind in kinds]
        solve = (numerics.hermitian_eigensystem, numerics.hermitian_min_eigenpair)[smallest]
        check_stack(lambda: solve(matrices),
                    [lambda H=H: per_matrix(H, smallest) for H in matrices], same_arrays)

    def test_smallest_is_hermitian_min_eigenpair(self, rng):
        for n in (1, 2, 5):
            for kind in ("tie", "zero", "complex"):
                H = stack_matrix(rng, n, kind)
                same_arrays(numerics.hermitian_min_eigenpair([H])[0], per_matrix(H, True))

    def test_mixed_orders_raise_before_any_solve(self, monkeypatch):
        def solve(*args):
            raise AssertionError("solved")

        monkeypatch.setattr(numerics, "norms", solve)
        with pytest.raises(NonHermitianInput, match=r"\(2, 2\), \(3, 3\)"):
            numerics.hermitian_eigensystem([np.eye(2), np.eye(3)])
        with pytest.raises(NonHermitianInput, match=r"\(2, 2\), \(2, 3\)"):
            numerics.hermitian_eigensystem([np.eye(2), np.ones((2, 3))])

    @settings(max_examples=200, deadline=None, database=None)
    @given(rows=st.lists(st.lists(st.builds(complex, st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                                             st.sampled_from([0.0, -0.0, 1.0, -1.0, 3.0])),
                                   min_size=3, max_size=3), min_size=1, max_size=6),
           n=st.integers(1, 3))
    def test_phase_fix_rows_are_each_vector_alone(self, rows, n):
        # ties, zero rows and rows of -0 - 0j, rows of one entry
        V = np.array(rows)[:, :n]
        for got, v in zip(numerics.phase_fix(V), V):
            assert got.tobytes() == vector_phase_fix(v).tobytes()

    @settings(max_examples=100, deadline=None, database=None)
    @given(n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1),
           kinds=st.lists(st.sampled_from(["triu", "tie", "zero", "nan"]), min_size=1,
                          max_size=6))
    def test_singular_vectors_are_each_factor_alone(self, n, seed, kinds):
        rng = np.random.default_rng(seed)
        R = np.array([np.diag(1.0 - 1e-14 * np.arange(n)) if kind == "tie" else
                      np.zeros((n, n)) if kind == "zero" else
                      np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
                      for kind in kinds], dtype=complex)
        R[[kind == "nan" for kind in kinds], 0, -1] = np.nan
        check_stack(lambda: numerics.min_right_singular_vector(R),
                    [lambda Rb=Rb: singular_min_eigen(Rb) for Rb in R], same_arrays)

    @settings(max_examples=200, deadline=None, database=None)
    @given(blocks=st.lists(st.tuples(st.sampled_from([0, 0, 450, -450, 401, -401, -1074, 1023]),
                                     st.floats(0.5, 1.99),
                                     st.sampled_from([0.0, 100.5, 1000.0, -1.0])),
                           min_size=1, max_size=6))
    def test_scale_exponents_are_each_block_alone(self, blocks):
        # entries of 2^0, 2^+-450, 2^+-401, a subnormal, 2^1023, and 0
        arrays = [np.array([m * 2.0**e, -1j]) if e else np.zeros(2) for e, m, _ in blocks]
        got = numerics.scale_exponents([float(np.max(np.abs(a))) for a in arrays],
                                       [w for *_, w in blocks])
        assert got == [block_scale_exponent(a, w) for a, (*_, w) in zip(arrays, blocks)]


class TestMinRightSingularVector:
    def test_diagonal(self):
        res = numerics.min_right_singular_vector([np.diag([3.0, 1.0, 2.0])])[0]
        assert res.value == pytest.approx(1.0)
        assert np.allclose(np.abs(res.vector), [0, 1, 0], atol=1e-12)

    def test_identity(self):
        # an exact tie: flagged, and any unit vector is a minimiser
        R = np.eye(3, dtype=complex)
        res = numerics.min_right_singular_vector([R])[0]
        assert res.value == 1.0 and res.degenerate
        assert np.linalg.norm(res.vector) == pytest.approx(1.0, abs=1e-15)
        assert np.linalg.norm(R @ res.vector) == pytest.approx(1.0, abs=1e-15)

    def test_one_by_one(self):
        # N = 0: the factor of a single column
        res = numerics.min_right_singular_vector([np.array([[-2.0 + 1.5j]])])[0]
        assert res.value == 2.5
        assert res.vector.tolist() == [1.0] and not res.degenerate

    def test_near_tie_gives_the_minimiser(self):
        # sigma^2 differ by 2e-14, within the gap: flagged, yet the vector is
        # e_0, the minimiser, not the lexicographically smaller e_1 that
        # hermitian_min_eigenpair picks from R^H R
        R = np.diag([1.0 - 1e-14, 1.0]).astype(complex)
        res = numerics.min_right_singular_vector([R])[0]
        assert res.degenerate and res.value == 1.0 - 1e-14
        assert res.vector.tolist() == [1.0, 0.0]
        assert numerics.hermitian_min_eigenpair([R.conj().T @ R])[0].vector.tolist() == [0.0, 1.0]

    def test_non_finite_factor_raises(self):
        with pytest.raises(NoConvergence):
            numerics.min_right_singular_vector([np.array([[np.nan, 1.0], [0.0, 1.0]])])[0]

    def test_two_by_two_closed_form(self):
        R = np.array([[1.0, 1.0], [0.0, 1e-3]])
        H = R.conj().T @ R
        # closed-form 2x2 Hermitian eigensystem
        a, b, d = H[0, 0].real, H[0, 1], H[1, 1].real
        mu = (a + d) / 2 - np.sqrt(((a - d) / 2) ** 2 + abs(b) ** 2)
        v = np.array([b, mu - a])
        v = v / np.linalg.norm(v)
        res = numerics.min_right_singular_vector([R])[0]
        assert res.value == pytest.approx(np.sqrt(mu), rel=1e-10)
        assert np.allclose(np.abs(res.vector), np.abs(v), atol=1e-10)

    def test_agrees_with_gramian_eigenpair(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 7))
            R = np.triu(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
            res = numerics.min_right_singular_vector([R])[0]
            ref = numerics.hermitian_min_eigenpair([R.conj().T @ R])[0]
            assert res.value**2 == pytest.approx(ref.value, abs=1e-10)
            if not ref.degenerate:
                assert np.allclose(res.vector, ref.vector, atol=1e-10)


class TestPolynomialRoots:
    def test_factored_quadratic(self):
        roots = numerics.polynomial_roots([[2.0, -3.0, 1.0]])[0]
        assert np.allclose(sorted(r.real for r in roots), [1.0, 2.0], atol=1e-10)

    def test_pure_imaginary_pair(self):
        roots = numerics.polynomial_roots([[1.0, 0.0, 1.0]])[0]
        assert np.allclose(sorted(r.imag for r in roots), [-1.0, 1.0], atol=1e-10)

    def test_double_root_expand_and_compare(self):
        # (z - (1+i))^2 (z - 3)
        target = np.polynomial.polynomial.polyfromroots([1 + 1j, 1 + 1j, 3.0])
        roots = numerics.polynomial_roots([list(target)])[0]
        back = np.polynomial.polynomial.polyfromroots(roots)
        assert np.allclose(back, target, atol=1e-6)

    def test_random_monic_reconstruction(self, rng):
        for _ in range(50):
            deg = int(rng.integers(1, 9))
            known = rng.normal(size=deg) + 1j * rng.normal(size=deg)
            coeffs = np.polynomial.polynomial.polyfromroots(known)
            roots = numerics.polynomial_roots([list(coeffs)])[0]
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
        roots = numerics.polynomial_roots([[0.0] * 6 + [0.799, 0.491, 0.347]])[0]
        assert len(roots) == 8 and np.count_nonzero(roots == 0) == 6

    def test_degree_forty(self, rng):
        # above the former degree cap of 32
        coeffs = np.append(rng.normal(size=40) + 1j * rng.normal(size=40), 1.0)
        roots = np.array(numerics.polynomial_roots([coeffs])[0])
        assert roots.size == 40
        residuals = np.abs(np.polynomial.polynomial.polyval(roots, coeffs))
        bounds = numerics.ROOT_TOL * np.max(np.abs(coeffs)) * (1 + np.abs(roots)) ** 40
        assert np.all(residuals <= bounds)

    def test_deterministic(self):
        a = numerics.polynomial_roots([[2.0, -3.0, 1.0]])[0]
        b = numerics.polynomial_roots([[2.0, -3.0, 1.0]])[0]
        assert a.tobytes() == b.tobytes()

    def test_root_with_underflowing_phase(self):
        # the phase of r underflows: cmath.phase would raise OverflowError
        r = complex(1e3, 5e-324)
        assert sorted(numerics.polynomial_roots([[2 * r, -(r + 2), 1.0]])[0], key=abs) == [2, r]

    def test_constant_has_no_roots(self):
        assert numerics.polynomial_roots([[3.0]]).shape == (1, 0)

    def test_vanishing_leading_coefficient(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            numerics.polynomial_roots([[1.0, 1.0, 1e-16]])[0]

    def test_empty_rejected(self):
        with pytest.raises(DegenerateLeadingCoefficient):
            numerics.polynomial_roots([[]])[0]

    @pytest.mark.parametrize("coeffs", [[np.nan, 1.0], [1.0, np.inf], [complex(0.0, np.nan)]])
    def test_non_finite_coefficient_refused(self, coeffs):
        # refused before the leading-coefficient rule and the companion
        # solve: eigvals fails on a nan (LinAlgError), the rule takes an inf
        # lead for a vanishing one (inf <= TRIM_THRESHOLD * inf), and a
        # constant has no roots to solve for; in a stack of one degree
        with pytest.raises(NonFiniteValue, match="^polynomial coefficients have a non-finite"):
            numerics.polynomial_roots([[1.0, 2.0][:len(coeffs)], coeffs])

    def test_residual_bound_failure(self, monkeypatch):
        # no rounded root has a residual of exactly 0
        monkeypatch.setattr(numerics, "ROOT_TOL", 0.0)
        with pytest.raises(NoConvergence, match="root residual check failed"):
            numerics.polynomial_roots([[0.3, -1.7, 0.9, 1.0]])[0]


def same_roots(got, want):
    """The same roots byte for byte, signed zeros included."""
    assert np.array(got, dtype=complex).tobytes() == np.array(want, dtype=complex).tobytes()


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
    """A stack of polynomials gives each one's roots as solving it alone
    does, or raises an error that one of them raises alone."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=st.lists(coefficient_rows(), min_size=1, max_size=8), strict=st.booleans())
    def test_stack_is_each_row_alone(self, rows, strict):
        # strict: a residual bound of 2^-60, which rows with rounded roots
        # fail (NoConvergence) while the exact monomials pass
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60 if strict else numerics.ROOT_TOL):
            for index in stacks(rows).values():  # the solve takes one degree
                same = [rows[i] for i in index]
                check_stack(lambda: numerics.polynomial_roots(same),
                            [lambda row=row: numerics.polynomial_roots([row])[0] for row in same],
                            same_roots)
            polys = [poly.ShiftedPolynomial(0.5 - 0.25j, row) for row in rows]
            check_stack(lambda: poly.roots(polys), [lambda p=p: poly.roots([p])[0] for p in polys],
                        same_roots)

    def test_a_failed_row_stops_the_stack(self):
        # the middle row fails a residual bound of 2^-60, with its own
        # worst ratio; the monomials around it pass
        rows = [[0, 0, 0, 2.0], [0.3, -1.7, 0.9, 1.0], [0, 0, 0, 1j]]
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60):
            with pytest.raises(NoConvergence) as alone:
                numerics.polynomial_roots([rows[1]])[0]
            with pytest.raises(NoConvergence, match=f"^{re.escape(str(alone.value))}$"):
                numerics.polynomial_roots(rows)
            assert np.array_equal(numerics.polynomial_roots(rows[::2]), np.zeros((2, 3)))

    def test_ragged_stack_raises_before_the_solve(self):
        with mock.patch.object(np.linalg, "eigvals", side_effect=AssertionError("solved")):
            with pytest.raises(DimensionMismatch, match="^not a stack of one degree"):
                numerics.polynomial_roots([[2.0, -3.0, 1.0], [1.0, 1.0]])
            with pytest.raises(DimensionMismatch, match=r"not shape \(3,\)$"):
                numerics.polynomial_roots([2.0, -3.0, 1.0])

    def test_one_array_of_the_stack(self):
        # a (B, n) complex array, row b the roots of row b alone
        rows = np.array([[2.0, -3.0, 1.0], [1.0, 0.0, 1.0], [0.0, 0.0, 1j]])
        got = numerics.polynomial_roots(rows)
        assert isinstance(got, np.ndarray) and got.shape == (3, 2) and got.dtype == complex
        for out, row in zip(got, rows):
            same_roots(out, numerics.polynomial_roots(row[None])[0])
        assert rows[2, 2] == 1j  # the 2^1000 rule rescales a copy, never the caller's rows

    def test_first_failure_in_order_is_raised(self):
        # in the order of the passes over the stack: its shape (rows of
        # unequal lengths, then rows of no coefficient), the finite check,
        # then a vanishing leading coefficient, all before the solve
        with pytest.raises(DimensionMismatch, match="^not a stack of one degree"):
            numerics.polynomial_roots([[1.0, 1.0, 1e-16], [], [1.0, 1.0]])
        with pytest.raises(DegenerateLeadingCoefficient, match="^empty coefficient list$"):
            numerics.polynomial_roots([[], []])
        with pytest.raises(NonFiniteValue):
            numerics.polynomial_roots([[1.0, 1.0, 1e-16], [1.0, np.nan, 1.0]])
        with pytest.raises(DegenerateLeadingCoefficient, match="vanishes"):
            numerics.polynomial_roots([[1.0, 1.0, 1.0], [1.0, 1.0, 1e-16]])
        assert np.array_equal(numerics.polynomial_roots([[1.0, 1.0]]), [[-1 + 0j]])


# One part of a root, or of a center: few values, so that distances, real
# parts and imaginary parts tie often, signed zeros among them.
TIED_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 3.0, 1e-300, 1e300])


@st.composite
def root_polynomials(draw):
    """A ShiftedPolynomial for poly.roots, of one of the kinds its
    array passes take apart: any coefficient_rows row (mixed degrees, rows
    scaled by 2^-1040, monomials); a row whose leading coefficient is
    TRIM_THRESHOLD times the largest magnitude, so trimmed, or the next
    float up, so kept; a zero row; a row with a nan or inf entry; a
    constant, alone or with trailing zeros; z^2 -+ r^2 or z^4 - r^4, whose
    roots lie at one distance from the center."""
    kind = draw(st.sampled_from(["row", "trim", "zero", "nonfinite", "constant", "tie"]))
    size = draw(st.integers(1, 5))
    if kind == "row":
        row = draw(coefficient_rows())
    elif kind == "trim":
        lead = numerics.TRIM_THRESHOLD * 2.0
        if draw(st.booleans()):
            lead = np.nextafter(lead, 1.0)
        row = [2.0] + [complex(draw(PARTS), draw(PARTS)) * 1e-14 for _ in range(size)] + [lead]
        row += [0j] * draw(st.integers(0, 2))
    elif kind == "zero":
        row = [0j] * size
    elif kind == "nonfinite":
        row = [complex(draw(PARTS), draw(PARTS)) for _ in range(size + 1)]
        row[draw(st.integers(0, size))] = draw(st.sampled_from([np.nan, np.inf, -np.inf,
                                                                 complex(0, np.nan)]))
    elif kind == "constant":
        row = [complex(draw(PARTS), draw(PARTS)) or 1.0] + [0j] * (size - 1)
    else:
        r = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-3]))
        row = draw(st.sampled_from([[-r * r, 0, 1], [r * r, 0, 1], [-r**4, 0, 0, 0, 1]]))
    center = complex(draw(TIED_PARTS), draw(TIED_PARTS)) if draw(st.booleans()) else 0.5 - 0.25j
    return poly.ShiftedPolynomial(center, row)


@st.composite
def edge_rows(draw):
    """Ascending coefficients, the largest 1, whose leading one sits at a
    rule's edge: TRIM_THRESHOLD times the largest magnitude (it vanishes)
    or the next float up; or a row scaled to a leading 2^-1000 (not
    rescaled) or to the next float down (rescaled by 2^1000)."""
    row = [1.0] + [complex(draw(PARTS), draw(PARTS)) * 1e-4 for _ in range(draw(st.integers(0, 4)))]
    edge = draw(st.sampled_from(["trim", "kept", "unscaled", "rescaled"]))
    if edge in ("trim", "kept"):
        lead = numerics.TRIM_THRESHOLD
        return row + [lead if edge == "trim" else np.nextafter(lead, 1.0)]
    scale = 2.0**-1000 if edge == "unscaled" else np.nextafter(2.0**-1000, 0.0)
    return [a * scale for a in row + [1.0]]


class TestRootPasses:
    """The trim, the leading-coefficient and 2^1000 rules, the residual
    check and the root order run as array passes over a stack, each
    polynomial giving the bytes of the per-polynomial loop they replaced
    (oracles.loop_roots), or the stack raising an error that a failing
    polynomial raises there (oracles.check_stack)."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(ps=st.lists(root_polynomials(), min_size=1, max_size=8), strict=st.booleans())
    def test_stack_is_the_per_polynomial_loop(self, ps, strict):
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60 if strict else numerics.ROOT_TOL):
            check_stack(lambda: poly.roots(ps), [lambda p=p: loop_roots(p) for p in ps],
                        same_roots)

    @settings(max_examples=150, deadline=None, database=None)
    @given(rows=st.lists(st.one_of(coefficient_rows(), edge_rows()), min_size=1, max_size=8),
           strict=st.booleans())
    def test_solve_is_the_per_row_loop(self, rows, strict):
        # the rows reach the solve untrimmed, so that a leading
        # coefficient of exactly TRIM_THRESHOLD times the largest fails
        with mock.patch.object(numerics, "ROOT_TOL", 2.0**-60 if strict else numerics.ROOT_TOL):
            for index in stacks(rows).values():  # the solve takes one degree
                same = [rows[i] for i in index]
                check_stack(lambda: numerics.polynomial_roots(same),
                            [lambda row=row: loop_polynomial_roots(row) for row in same],
                            same_roots)

    @settings(max_examples=200, deadline=None, database=None)
    @given(raw=st.integers(1, 5).flatmap(lambda n: st.lists(
               st.lists(st.builds(complex, TIED_PARTS, TIED_PARTS), min_size=n, max_size=n),
               min_size=1, max_size=6)),
           centers=st.lists(st.builds(complex, TIED_PARTS, TIED_PARTS), min_size=6,
                            max_size=6))
    def test_order_is_pythons_sort(self, raw, centers):
        # roots given at the solve's seam, so that distances, real parts
        # and imaginary parts tie exactly; Python's sort is stable.  The
        # solve takes one degree: the polynomials are of the roots' count
        ps = [poly.ShiftedPolynomial(c, [1.0] * (len(raw[0]) + 1)) for c in centers[:len(raw)]]
        with mock.patch.object(numerics, "polynomial_roots", lambda a: np.array(raw)):
            got = poly.roots(ps)
        for roots, c, out in zip(raw, centers, got):
            shifted = [r + c for r in roots]
            want = sorted(shifted, key=lambda r: (abs(r - c), r.real, r.imag))
            assert np.array(out).tobytes() == np.array(want).tobytes()

    def test_mixed_effective_degrees(self):
        # one coefficient length, effective degrees 1, 2 and 3, a trimmed
        # leading coefficient and one kept by the next float up
        edge = numerics.TRIM_THRESHOLD * 4.0
        rows = [[4.0, 1.0, 1.0, edge], [4.0, 1.0, 1.0, np.nextafter(edge, 1.0)],
                [4.0, 1.0, 2.0, 0.0], [1.0, 2.0, 0.0, 0.0]]
        ps = [poly.ShiftedPolynomial(0.25j, row) for row in rows]
        got = poly.roots(ps)
        assert [len(r) for r in got] == [2, 3, 2, 1]
        for out, p in zip(got, ps):
            same_roots(out, loop_roots(p))
