import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pademor import harness, hilbert, modal, numerics, pade, poly
from pademor.errors import InsufficientTaylorLength, NotNormalized, RhoOverflow
from pademor.hilbert import InnerProductWeights, norm

from conftest import OVERFLOWING_GRAMIAN_SUM
from oracles import (check_stack, column_mgs, loop_fast_denominator, loop_gramian_sum,
                     loop_numerator, loop_standard_denominator, normalize, residual_norm,
                     same_denominator, taylor_window, unit_denominator, window_gramian)
from oracles import block_scale_exponent

L2_1 = InnerProductWeights.l2(1)
HIGHORDER_Z0 = 12 + 0.5j  # centre of the highorder_poles benchmark study
# Parts of a complex value: any float (signed zeros, subnormals, inf and nan
# among them), or one at the ends of the float range.
EXTREME_PARTS = st.one_of(
    st.floats(),
    st.sampled_from([5e-324, -2.2250738585072014e-308, 1.3407807929942596e154,
                     8.98846567431158e307, -1.7976931348623157e308]),
)


@pytest.fixture(scope="module")
def highorder():
    """The 144-mode Helmholtz model of the highorder_poles benchmark study."""
    return modal.build_rectangle_helmholtz(max_index=12)


def normalized_random_poly(rng, z0, N):
    c = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    return normalize(poly.ShiftedPolynomial(z0, c))


class TestBuildParams:
    def test_fast_E_constraint(self):
        with pytest.raises(ValueError, match="fast variant requires E >= max"):
            pade.BuildParams(0.0, 3, 2, 2, "fast")

    def test_standard_E_constraint(self):
        with pytest.raises(ValueError, match="standard variant requires E >= M"):
            pade.BuildParams(0.0, 2, 2, 3, "standard", 1.0)

    def test_standard_needs_rho(self):
        with pytest.raises(ValueError, match="standard variant requires rho > 0"):
            pade.BuildParams(0.0, 2, 2, 4, "standard")

    @pytest.mark.parametrize("rho", [math.nan, 0.0, -1.0])
    def test_standard_rho_not_positive(self, rho):
        with pytest.raises(ValueError, match="standard variant requires rho > 0"):
            pade.BuildParams(0.0, 2, 2, 4, "standard", rho)

    @pytest.mark.parametrize("z0", [math.inf, complex(1.0, math.nan), complex(-math.inf, 0.0)])
    def test_center_not_finite(self, z0):
        # a center at infinity once built an all-zero numerator
        with pytest.raises(ValueError, match="is not finite"):
            pade.BuildParams(z0, 2, 2, 4, "standard", 1.0)
        with pytest.raises(ValueError, match="is not finite"):
            pade.BuildParams(0.0, 2, 2, 2)._replace(z0=z0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'other'"):
            pade.BuildParams(0.0, 2, 2, 4, "other")

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="M and N must be nonnegative"):
            pade.BuildParams(0.0, -1, 2, 4)
        with pytest.raises(ValueError, match="M and N must be nonnegative"):
            pade.BuildParams(0.0, 1, 2, 4)._replace(N=-1)

    @pytest.mark.parametrize("degrees", [("2", 1, 2), (None, 1, 2), (True, 1, 2), (2.0, 1, 2),
                                         (2, 1.0, 2), (2, 1, "4"), (2, 1, np.float64(4.0))])
    def test_degree_not_an_integer(self, degrees):
        # "2" and None raised TypeError; True and 2.0 were accepted, and
        # pade.build then raised TypeError on 2.0
        for variant, rho in (("fast", None), ("standard", 1.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                pade.BuildParams(0.5j, *degrees, variant, rho)

    @pytest.mark.parametrize("rho", ["x", True, [1.0], 1j])
    def test_rho_neither_none_nor_real(self, rho):
        # accepted for the fast variant; TypeError for the standard one
        for variant in ("fast", "standard"):
            with pytest.raises(ValueError, match="must be None or a real number"):
                pade.BuildParams(0.5j, 1, 1, 2, variant, rho)

    def test_numpy_numbers_are_accepted(self):
        p = pade.BuildParams(0.5j, np.int64(1), np.int32(1), np.uint8(2), "standard",
                             np.float64(2.0))
        assert p == (0.5j, 1, 1, 2, "standard", 2.0)

    def test_keyword_form(self):
        p = pade.BuildParams(12 + 0.5j, M=6, N=2, E=6, variant="fast")
        assert p == (12 + 0.5j, 6, 2, 6, "fast", None)
        assert type(p.z0) is complex and pade.BuildParams(3, 1, 1, 1).z0 == 3 + 0j
        assert p._asdict() == {"z0": 12 + 0.5j, "M": 6, "N": 2, "E": 6,
                               "variant": "fast", "rho": None}

    def test_records_are_immutable(self, two_pole):
        ap = pade.build(two_pole, [pade.BuildParams(0.0, 2, 2, 2)])[0]
        for record, field in ((ap.params, "M"), (ap.diagnostics, "degenerate"),
                              (ap, "numerator")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


class TestGramian:
    def test_single_pole_hand_oracle(self):
        # S_gamma = 2^-(gamma+1): entries are products of 1/4 and 1/8
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        G = pade._gramian_blocks(t, 1, [(0, 1)], L2_1)[0, 1]
        assert np.allclose(G, [[0.25, 0.125], [0.125, 0.0625]])

    def test_one_by_one(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 0)
        G = pade._gramian_blocks(t, 0, [(0, 0)], three_pole.weights)[0, 0]
        assert G[0, 0].real == pytest.approx(
            norm(t.coeffs[0], three_pole.weights) ** 2
        )

    def test_zero_padding(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        G = pade._gramian_blocks(t, 3, [(0, 1)], L2_1)[0, 1]  # orders -2, -1, 0, 1
        assert np.all(G[:2, :] == 0) and np.all(G[:, :2] == 0)

    def test_insufficient_length(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        with pytest.raises(InsufficientTaylorLength):
            pade._gramian_blocks(t, 1, [(0, 5)], L2_1)[0, 5]

    def test_negative_order(self):
        t = modal.taylor_coefficients(modal.build_synthetic([2.0], [1.0]), 0.0, 1)
        with pytest.raises(ValueError, match="E must be nonnegative"):
            pade._gramian_blocks(t, 1, [(0, -1)], L2_1)[0, -1]


class TestFastDenominator:
    @pytest.mark.parametrize("route", [pade.denominator_fast_gramian,
                                       pade.denominator_fast_qr])
    def test_E_below_N(self, two_pole, route):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        stack = [1] if route is pade.denominator_fast_gramian else [(1, 1, 1.0)]
        with pytest.raises(ValueError, match="fast denominator requires E >= N"):
            route(t, 2, stack, two_pole.weights)

    def test_exact_two_pole_recovery(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        den, diag = pade.denominator_fast_gramian(t, 2, [2], two_pole.weights)[0]
        assert np.allclose(poly.roots([den])[0], [1.0, 2.0], atol=1e-9)
        # the Gramian eigensolve resolves the zero eigenvalue, the squared
        # functional value, only to rounding level relative to ||G||; the
        # QR path gets much further
        G = pade._gramian_blocks(t, 2, [(0, 2)], two_pole.weights)[0, 2]
        assert diag.functional_value**2 <= 1e-12 * np.linalg.norm(G)

    def test_single_pole_any_E(self):
        m = modal.build_synthetic([5.0], [1.0])
        for E in (1, 2, 4):
            t = modal.taylor_coefficients(m, 0.0, E)
            den, _ = pade.denominator_fast_gramian(t, 1, [E], L2_1)[0]
            assert abs(poly.roots([den])[0][0] - 5.0) < 1e-10

    def test_paper_configuration_roots(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        den, _ = pade.denominator_fast_gramian(t, 2, [8], helmholtz.weights)[0]
        r = poly.roots([den])[0]
        assert min(abs(x - 13) for x in r) < 1e-3
        assert min(abs(x - 10) for x in r) < 1e-3

    def test_qr_matches_gramian_exact_case(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        qr_den, qr_diag = pade.denominator_fast_qr(t, 2, [(2, 2, 1.0)], two_pole.weights)[0]
        assert np.allclose(poly.roots([qr_den])[0], [1.0, 2.0], atol=1e-9)
        assert qr_diag.exact_degeneracy  # quasimatrix is rank deficient here

    def test_qr_N0_trivial(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 2)
        den, diag = pade.denominator_fast_qr(t, 0, [(2, 2, 1.0)], three_pole.weights)[0]
        assert den.degree == 0 and abs(den.coeffs[0]) == pytest.approx(1.0)
        assert diag.functional_value == pytest.approx(
            norm(t.coeffs[2], three_pole.weights)
        )

    def test_conditioning_square_root_relation(self, helmholtz, paper_z0):
        # squared condition estimate of R tracks the Gramian condition
        t = modal.taylor_coefficients(helmholtz, paper_z0, 6)
        _, qr_diag = pade.denominator_fast_qr(t, 2, [(6, 6, 1.0)], helmholtz.weights)[0]
        _, g_diag = pade.denominator_fast_gramian(t, 2, [6], helmholtz.weights)[0]
        ratio = qr_diag.condition_estimate**2 / g_diag.condition_estimate
        assert 1e-2 < ratio < 1e2


class TestFastRouteAccuracy:
    """The fast route keeps converging at N >= 4, where the two smallest
    singular values of R lie within the near-tie gap: the returned vector is
    the minimiser, and its functional value is the one reported."""

    @pytest.fixture(scope="class")
    def setup(self, helmholtz, paper_z0):
        taylor = modal.taylor_coefficients(helmholtz, paper_z0, 16)
        points = np.linspace(9.0, 15.0, 101)
        exact = modal.evaluate_exact_grid(helmholtz, points)[0]
        return taylor, points, exact

    # median relative error bounds: twice the values measured with NumPy 2.4.6
    @pytest.mark.parametrize("N, E, bound",
                             [(4, 12, 2e-7), (4, 14, 1.4e-8), (6, 14, 1.1e-9),
                              (6, 16, 5e-11)])
    def test_functional_value_and_grid_error(self, helmholtz, paper_z0, setup,
                                             N, E, bound):
        taylor, points, exact = setup
        w = helmholtz.weights
        den, diag = pade.denominator_fast_qr(taylor, N, [(E, E, 1.0)], w)[0]
        assert pade.functional_value(den, taylor, E, w) == pytest.approx(
            diag.functional_value, rel=1e-6)
        approx = pade.build(helmholtz, [pade.BuildParams(paper_z0, E, N, E)])[0]
        values = pade.evaluate(approx, points)[0]
        errors = norm(exact - values, w) / norm(exact, w)
        assert np.median(errors) <= bound


class TestStandardDenominator:
    def test_single_block_coincides_with_fast(self, helmholtz, paper_z0):
        # E = M+1 (possible only for N <= 1): the sum has one term for any rho
        t = modal.taylor_coefficients(helmholtz, paper_z0, 5)
        fast, _ = pade.denominator_fast_gramian(t, 1, [5], helmholtz.weights)[0]
        for rho in (0.5, 1.0, 7.0):
            std, _ = pade.denominator_standard(t, 1, [(4, 5, rho)], helmholtz.weights)[0]
            assert np.allclose(std.coeffs, fast.coeffs, atol=1e-12)

    def test_exact_recovery(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 4)
        den, _ = pade.denominator_standard(t, 2, [(2, 4, 1.0)], two_pole.weights)[0]
        assert np.allclose(poly.roots([den])[0], [1.0, 2.0], atol=1e-8)

    def test_rho_insensitivity_of_pole_errors(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        RK = max(abs(9 - paper_z0), abs(15 - paper_z0))
        errs = []
        for rho in (0.1 * RK, RK, 10 * RK):
            den, _ = pade.denominator_standard(t, 2, [(6, 8, rho)], helmholtz.weights)[0]
            r = poly.roots([den])[0]
            errs.append(min(abs(x - 13) for x in r))
        # at this accuracy the spread is rounding noise; all choices of rho
        # must locate the dominant pole to well below the convergence level
        assert max(errs) < 1e-6

    @pytest.mark.parametrize("M, E, rho, message", [
        (2, 4, 0.0, "rho must be positive"),
        (2, 4, -1.0, "rho must be positive"),
        (2, 4, math.nan, "rho must be positive"),
    ])
    def test_invalid_arguments(self, two_pole, M, E, rho, message):
        t = modal.taylor_coefficients(two_pole, 0.0, 4)
        with pytest.raises(ValueError, match=message):
            pade.denominator_standard(t, 2, [(M, E, rho)], two_pole.weights)[0]

    def test_rho_overflow(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 42)
        with pytest.raises(RhoOverflow):
            pade.denominator_standard(t, 2, [(2, 42, 1e10)], helmholtz.weights)[0]


def taylor_rows(rng, rows, dim, exponents):
    """A Taylor block of rows random complex rows, row g scaled by
    2^exponents[g], about a tenth of the entries exactly 0 and about a
    fifth of the rows -0 - 0j, whose blocks' signed zeros show any extra
    rounding step."""
    S = rng.normal(size=(rows, dim)) + 1j * rng.normal(size=(rows, dim))
    S[rng.random(S.shape) < 0.1] = 0.0
    S = S * np.ldexp(1.0, exponents)[:, None]
    S[rng.random(rows) < 0.2] = complex(-0.0, -0.0)
    return poly.ShiftedPolynomial(0.5j, S)


class TestGramianBlocks:
    """Each Gramian block is computed once per stack, on a window sliced
    from one copy of the Taylor rows per scale exponent, yet each block and
    each sum has the bytes of the per-window, per-item loop it replaced
    (oracles.window_gramian, oracles.loop_gramian_sum)."""

    @settings(max_examples=60, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 6), N=st.integers(0, 4),
           rows=st.integers(1, 9))
    def test_gramian_is_the_window_block(self, seed, dim, N, rows):
        rng = np.random.default_rng(seed)
        t = taylor_rows(rng, rows, dim, rng.choice([0, 300, -300], rows))
        w = InnerProductWeights(rng.uniform(0.1, 2.0, dim))
        for E in range(rows):
            got = pade._gramian_blocks(t, N, [(0, E)], w)[0, E]
            assert got.tobytes() == window_gramian(t, N, E, w).tobytes()

    @settings(max_examples=120, deadline=None, database=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), N=st.integers(0, 3),
           exponents=st.lists(st.sampled_from([0, 0, 0, 450, -450]), min_size=1, max_size=9),
           items=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 3),
                                    st.sampled_from([1.0, 0.5, 3.0, 1e40, 1e200])),
                          min_size=1, max_size=6))
    def test_sums_are_the_per_item_loop(self, seed, dim, N, exponents, items):
        # rows of 2^450 or 2^-450 among rows of 1 give the windows of one
        # stack two scale exponents over overlapping orders; rho = 1e40
        # moves the threshold, rho = 1e200 overflows (RhoOverflow), and an
        # E at or past the end of the block is InsufficientTaylorLength:
        # the stack raises an error that one item raises alone
        rng = np.random.default_rng(seed)
        t = taylor_rows(rng, len(exponents), dim, exponents)
        w = InnerProductWeights(rng.uniform(0.1, 2.0, dim))
        items = [(max(E - gap, 0), E, rho) for E, gap, rho in items]
        solved = []

        class Solved(Exception):
            pass

        def recorded(matrices):
            solved.extend(matrices)
            raise Solved

        def stack():
            with mock.patch.object(numerics, "hermitian_min_eigenpair", recorded):
                with pytest.raises(Solved):
                    pade.denominator_standard(t, N, items, w)
            return solved

        def same_sum(got, want):
            assert got.tobytes() == want[0].tobytes()

        check_stack(stack, [lambda item=item: loop_gramian_sum(t, N, *item, w) for item in items],
                    same_sum)


class TestDenominatorPasses:
    """The steps around the stacked solves run as passes over the stack:
    the checks, convergence tests and harvest of the Jacobi stack, the
    minimal eigenpair's pick, phase fixes and normalisation, the singular
    vectors' gap test and phase fix, the null directions' norms, division
    and phase fix, the symmetrisation of the Gramian blocks, the scale
    exponents, the weighted sums and the unit-norm check.  Each item still gets the bytes of the
    per-item steps they replaced (oracles.loop_standard_denominator,
    oracles.loop_fast_denominator), or the stack raises an error that a
    failing item raises there (oracles.check_stack)."""

    STACK = dict(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 5), N=st.integers(0, 3),
                 exponents=st.lists(st.sampled_from([0, 0, 0, 450, -450]), min_size=8,
                                    max_size=10))

    @staticmethod
    def block(seed, dim, exponents):
        rng = np.random.default_rng(seed)
        return (taylor_rows(rng, len(exponents), dim, exponents),
                InnerProductWeights(rng.uniform(0.1, 2.0, dim)))

    @settings(max_examples=80, deadline=None, database=None)
    @given(**STACK, items=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 3),
                                             st.sampled_from([1.0, 0.5, 3.0, 1e40, 1e200])),
                                   min_size=1, max_size=6))
    def test_standard_stack_is_the_per_item_loop(self, seed, dim, N, exponents, items):
        # sums of 0 to 3 terms in one stack, windows scaled by 2^-450,
        # 2^450 or not at all, rho = 1e200 overflowing
        t, w = self.block(seed, dim, exponents)
        items = [(max(E - gap, 0), E, rho) for E, gap, rho in items]
        check_stack(lambda: pade.denominator_standard(t, N, items, w),
                    [lambda item=item: loop_standard_denominator(t, N, *item, w)
                     for item in items], same_denominator)

    @settings(max_examples=80, deadline=None, database=None)
    @given(**STACK, Es=st.lists(st.integers(0, 4), min_size=1, max_size=6))
    @example(seed=1, dim=1, N=3, exponents=[0, 450, 450, 450, 0, 0, 0, 0], Es=[0])
    def test_fast_stack_is_the_per_item_loop(self, seed, dim, N, exponents, Es):
        # windows of one to five modes, rank-deficient ones among them; in
        # the example, a null direction whose norm overflows unscaled
        t, w = self.block(seed, dim, exponents)
        items = [(E + N, E + N, 1.0) for E in Es]
        check_stack(lambda: pade.denominator_fast_qr(t, N, items, w),
                    [lambda E=E: loop_fast_denominator(t, N, E + N, w) for E in Es],
                    same_denominator)

    def test_a_failure_stops_the_stack(self, monkeypatch):
        # a stack whose fourth vector fails the unit-norm check raises it,
        # with that vector's norm; unbroken, each item is as alone
        m = modal.build_synthetic([1.0, 2.0, 4.0 + 0.5j], [1.0, 0.5, 0.25])
        t = modal.taylor_coefficients(m, 0.3 + 0.2j, 9)
        items = [(M, M + 2, 1.5) for M in (2, 3, 4, 5)]
        min_eigenpair = numerics.hermitian_min_eigenpair

        def failing(matrices):
            out = min_eigenpair(matrices)
            out[3] = out[3]._replace(vector=out[3].vector * 2.0)
            return out

        monkeypatch.setattr(numerics, "hermitian_min_eigenpair", failing)
        with pytest.raises(NotNormalized, match="^eigenvector norm 2.0"):
            pade.denominator_standard(t, 2, items, m.weights)
        monkeypatch.undo()
        for g, item in zip(pade.denominator_standard(t, 2, items, m.weights), items):
            same_denominator(g, loop_standard_denominator(t, 2, *item, m.weights))

    @settings(max_examples=150, deadline=None, database=None)
    @given(exponents=st.lists(st.sampled_from([0, 0, 450, -450, 401, -1000]), min_size=1,
                              max_size=6), even=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_scalings_are_each_item_alone(self, exponents, even, seed):
        # entries -0 - 2j among others: 2^0, taken as 1 + 0j, would turn
        # their real part into +0, so an item with k = 0 is not multiplied
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(len(exponents), 2, 3)) + 1j * rng.normal(size=(len(exponents), 2, 3))
        X *= np.ldexp(1.0, exponents)[:, None, None]
        X[:, 0, 0] = [complex(-0.0, -2.0 * 2.0**e) for e in exponents]
        want, ks = X.copy(), []
        for b, A in enumerate(want):
            k = block_scale_exponent(A)
            if even:  # the sums' 4^-j, j = (k + 1) // 2, not in place
                j = (k + 1) // 2
                want[b], k = A * 4.0**-j if j else A, 2 * j
            elif k:  # the windows' 2^-k, in place
                A *= 2.0**-k
            ks.append(k)
        assert pade._scale(X, even) == ks
        assert X.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None, database=None)
    @given(vectors=st.lists(st.lists(st.builds(complex, st.sampled_from([0.0, -0.0, 0.6, -0.8]),
                                                st.sampled_from([0.0, -0.0, 0.6, -0.8])),
                                      min_size=3, max_size=3), min_size=1, max_size=6),
           skew=st.lists(st.sampled_from([1.0, 1.0 + 2e-12, 1.0 - 5e-13, math.nan]),
                         min_size=6, max_size=6))
    def test_unit_norm_check_is_each_vector_alone(self, vectors, skew):
        # vectors of norm 1, a little off or far off, nan, 0 and -0 - 0j
        # entries
        qs = [np.array(v) / (np.linalg.norm(v) or 1.0) * f for v, f in zip(vectors, skew)]

        def same(got, want):
            assert got.coeffs.tobytes() == want.coeffs.tobytes() and got.center == want.center

        check_stack(lambda: pade._eigvec_denominators(
                        [numerics._MinEigen(0.0, q, False) for q in qs], 0.5j),
                    [lambda q=q: unit_denominator(q, 0.5j) for q in qs], same)


class TestStandardStacks:
    def test_stacks_of_two_N_with_an_overflowing_item(self, helmholtz, paper_z0):
        # the standard denominators of N = 2 and N = 3, one lockstep stack
        # per N, are each the denominator alone; an item whose rho
        # overflows stops its stack, and denominators raises it
        t = modal.taylor_coefficients(helmholtz, paper_z0, 42)
        w = helmholtz.weights

        def assert_alone(outcome, M, N, E):
            den, diag = outcome
            alone, alone_diag = pade.denominator_standard(t, N, [(M, E, 3.0)], w)[0]
            assert den.coeffs.tobytes() == alone.coeffs.tobytes()
            assert diag == alone_diag

        params = [pade.BuildParams(paper_z0, M, N, M + N + 2, "standard", 3.0)
                  for M in (2, 4, 6) for N in (2, 3)]
        for p, outcome in zip(params, pade.denominators(helmholtz, params, t)):
            assert_alone(outcome, p.M, p.N, p.E)
        with pytest.raises(RhoOverflow, match=r"for rho=10000000000\.0, E-M=40$"):
            pade.denominator_standard(t, 2, [(2, 6, 3.0), (2, 42, 1e10), (4, 8, 3.0)], w)
        overflow = pade.BuildParams(paper_z0, 2, 2, 42, "standard", 1e10)
        with pytest.raises(RhoOverflow):
            pade.denominators(helmholtz, params[:3] + [overflow] + params[3:], t)


def scale_exponent(block, weight=0.0):
    """pade._scale_exponents of one block: a stack of one."""
    [k] = pade._scale_exponents([float(np.max(np.abs(block), initial=0.0))], [weight])
    return k


class TestWindowScaling:
    """Taylor windows whose squares would overflow or underflow are solved
    scaled by a power of two, which changes nothing but the reported
    functional."""

    @staticmethod
    def check_scaled_series(model, z0, variant, exponent):
        ref = modal.taylor_coefficients(model, z0, 10)
        t = poly.ShiftedPolynomial(z0, ref.coeffs * 2.0**exponent)
        w = model.weights
        if variant == "fast":
            (den, diag), (den_ref, diag_ref) = (
                pade.denominator_fast_qr(s, 4, [(10, 10, 1.0)], w)[0] for s in (t, ref))
        else:
            (den, diag), (den_ref, diag_ref) = (
                pade.denominator_standard(s, 4, [(6, 10, 2.0)], w)[0] for s in (t, ref))
        assert np.array_equal(den.coeffs, den_ref.coeffs)
        assert diag.functional_value == diag_ref.functional_value * 2.0**exponent
        assert diag.condition_estimate == diag_ref.condition_estimate
        assert diag.degenerate == diag_ref.degenerate

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_huge_series_gives_the_same_denominator(self, helmholtz, paper_z0, variant):
        self.check_scaled_series(helmholtz, paper_z0, variant, 600)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_tiny_series_gives_the_same_denominator(self, helmholtz, paper_z0, variant):
        self.check_scaled_series(helmholtz, paper_z0, variant, -600)

    def test_small_windows_are_not_scaled(self):
        assert scale_exponent(np.array([2.0**400, -1j])) == 0
        assert scale_exponent(np.array([3 * 2.0**401, 1.0])) == 402
        assert scale_exponent(np.zeros(3)) == 0

    def test_rho_weight_moves_the_threshold(self):
        # a window is scaled when its largest entry times 2^weight passes
        # 2^400
        assert scale_exponent(np.array([2.0**300]), 100.0) == 0
        assert scale_exponent(np.array([2.0**300]), 100.5) == 300
        assert scale_exponent(np.zeros(3), 1000.0) == 0

    @pytest.mark.filterwarnings("error")
    def test_rho_weighted_sum_gives_the_scaled_model_denominator(self):
        # the window's largest entry is below 2^400, and its weighted sum
        # overflows unscaled; the same model with every residue norm times
        # 2^-400 needs no scaling, and a power of two leaves the minimiser
        cfg = harness.parse_config(OVERFLOWING_GRAMIAN_SUM)
        spec = OVERFLOWING_GRAMIAN_SUM["model"]
        scaled = modal.build_synthetic([complex(*p) for p in spec["poles"]],
                                       [r * 2.0**-400 for r in spec["residue_norms"]])
        params = pade.BuildParams(cfg.z0, 2, 3, 5, "standard", cfg.rho())
        den, den_scaled = (pade.build(m, [params])[0].denominator
                           for m in (harness.build_model(cfg), scaled))
        assert np.array_equal(den.coeffs.view(np.uint64), den_scaled.coeffs.view(np.uint64))

    def test_tiny_windows_are_scaled_up(self):
        assert scale_exponent(np.array([2.0**-500])) == -500
        assert scale_exponent(np.array([2.0**-400, 0.0])) == 0
        assert scale_exponent(np.array([1j * 2.0**-401])) == -401
        # a subnormal maximum is scaled by 2^1023, the largest power of two
        assert scale_exponent(np.array([5e-324])) == -1023


class TestSingleEigensolve:
    @pytest.mark.parametrize("variant", ["fast_gramian", "standard"])
    def test_gramian_solved_once(self, helmholtz, paper_z0, monkeypatch, variant):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        solved = []
        min_eigenpair = numerics.hermitian_min_eigenpair

        def counted(matrices):
            solved.append(matrices)
            return min_eigenpair(matrices)

        monkeypatch.setattr(numerics, "hermitian_min_eigenpair", counted)
        if variant == "standard":
            den, diag = pade.denominator_standard(t, 2, [(6, 8, 3.0)], helmholtz.weights)[0]
            rho, M = 3.0, 6
        else:
            den, diag = pade.denominator_fast_gramian(t, 2, [8], helmholtz.weights)[0]
            rho, M = 1.0, 7
        assert [len(matrices) for matrices in solved] == [1]
        # the same pair as a separate minimal-eigenpair solve of that matrix,
        # whose eigenvalue is the squared functional value over rho^2(M+1)
        ref = numerics.hermitian_min_eigenpair([solved[0][0]])[0]
        assert diag.functional_value == math.sqrt(max(ref.value, 0.0)) * rho ** (M + 1)
        assert diag.degenerate == ref.degenerate
        [expected] = pade._eigvec_denominators([ref], paper_z0)
        assert np.array_equal(den.coeffs, expected.coeffs)


# Each stacked kernel on an empty stack; m is a model and t a Taylor block of it.
EMPTY_STACKS = {
    "pade.build": lambda m, t: pade.build(m, []),
    "pade.denominator_fast_qr": lambda m, t: pade.denominator_fast_qr(t, 2, [], m.weights),
    "pade.denominator_standard": lambda m, t: pade.denominator_standard(t, 2, [], m.weights),
    "pade.denominator_fast_gramian": lambda m, t: pade.denominator_fast_gramian(
        t, 2, [], m.weights),
    "numerics.hermitian_eigensystem": lambda m, t: numerics.hermitian_eigensystem([]),
    "numerics.hermitian_min_eigenpair": lambda m, t: numerics.hermitian_min_eigenpair([]),
    "numerics.min_right_singular_vector": lambda m, t: numerics.min_right_singular_vector([]),
    "numerics.polynomial_roots": lambda m, t: numerics.polynomial_roots([]),
    "poly.evaluate": lambda m, t: poly.evaluate([], np.linspace(0.0, 1.0, 5)),
    "poly.roots": lambda m, t: poly.roots([]),
}


@pytest.mark.parametrize("kernel", sorted(EMPTY_STACKS))
def test_empty_stack_gives_nothing(three_pole, kernel):
    out = EMPTY_STACKS[kernel](three_pole, modal.taylor_coefficients(three_pole, 0.3, 4))
    assert list(out) == []
    if kernel == "poly.evaluate":
        assert out.shape == (0, 5) and out.dtype == complex


def test_real_factors_are_taken_as_complex():
    # a real stack gives the complex vectors of the same stack as complex
    R = np.array([np.diag([3.0, 1.0, 2.0]), np.triu(np.arange(1.0, 10.0).reshape(3, 3))])
    got = numerics.min_right_singular_vector(R)
    want = numerics.min_right_singular_vector(R.astype(complex))
    assert [r.vector.dtype for r in got] == [np.dtype(complex)] * 2
    assert [(r.value, r.vector.tobytes(), r.degenerate) for r in got] == [
        (r.value, r.vector.tobytes(), r.degenerate) for r in want]
    assert numerics.min_right_singular_vector(np.zeros((0, 3, 3))) == []


class TestNumerator:
    def test_taylor_block_too_short(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 2)
        Q = poly.ShiftedPolynomial(0.3, [1.0])
        with pytest.raises(InsufficientTaylorLength, match="need M\\+1 = 4 Taylor "
                           "coefficients, have 3"):
            pade.numerator(t, Q, 3)

    def test_unit_denominator_truncates_taylor(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 4)
        Q = poly.ShiftedPolynomial(0.3, [1.0])
        num = pade.numerator(t, Q, 3)
        assert np.allclose(num.coeffs, t.coeffs[:4])

    def test_single_pole_cancellation(self):
        # Q proportional to (2 - z) kills every coefficient above order 0
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 4)
        Q = normalize(poly.ShiftedPolynomial(0.0, [2.0, -1.0]))
        num = pade.numerator(t, Q, 4)
        assert np.max(np.abs(num.coeffs[1:])) <= 1e-14

    def test_order_zero(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 2)
        Q = poly.ShiftedPolynomial(0.3, [0.5, 1.0])
        num = pade.numerator(t, Q, 0)
        assert np.allclose(num.coeffs[0], 0.5 * t.coeffs[0])

    def test_linearity(self, three_pole, rng):
        t = modal.taylor_coefficients(three_pole, 0.3, 4)
        c1 = rng.normal(size=3) + 1j * rng.normal(size=3)
        c2 = rng.normal(size=3) + 1j * rng.normal(size=3)
        a, b = 1.7 - 0.3j, -0.4 + 2.1j
        Q1 = poly.ShiftedPolynomial(0.3, c1)
        Q2 = poly.ShiftedPolynomial(0.3, c2)
        Q12 = poly.ShiftedPolynomial(0.3, a * c1 + b * c2)
        lhs = pade.numerator(t, Q12, 4).coeffs
        rhs = a * pade.numerator(t, Q1, 4).coeffs + b * pade.numerator(t, Q2, 4).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(lhs))


class TestLoopOracles:
    """The stacked Gram-Schmidt and the sliced numerator give the loops
    they replaced, byte for byte (signed zeros included), for each item."""

    CASES = [  # model fixture, center, N, E
        ("helmholtz", 12 + 0.5j, 4, 12),
        ("three_pole", 0.3 + 0.1j, 2, 4),
        ("highorder", HIGHORDER_Z0, 8, 20),  # a rank-deficient window
    ]

    @pytest.mark.parametrize("name, z0, N, E", CASES)
    def test_gram_schmidt(self, name, z0, N, E, request):
        # the windows of orders N..E as one stack, each factor as alone
        model = request.getfixturevalue(name)
        t = modal.taylor_coefficients(model, z0, E)
        windows = [taylor_window(t, N, e) for e in range(N, E + 1)]
        R = hilbert._gram_schmidt(np.array(windows), model.weights,
                                 pade.QR_DEGENERACY_THRESHOLD)
        for A, Rb in zip(windows, R):
            assert Rb.tobytes() == column_mgs(A, model.weights).tobytes()
            # the fast route takes |R[0, 0]| as the first column norm
            assert Rb[0, 0].imag == 0.0 and abs(Rb[0, 0]) == Rb[0, 0].real > 0.0
        _, diag = pade.denominator_fast_qr(t, N, [(E, E, 1.0)], model.weights)[0]
        assert diag.exact_degeneracy == (name == "highorder")

    @pytest.mark.parametrize("name, z0, N, E", CASES)
    def test_numerator(self, name, z0, N, E, request, rng):
        model = request.getfixturevalue(name)
        t = modal.taylor_coefficients(model, z0, E)
        den, _ = pade.denominator_fast_qr(t, N, [(E, E, 1.0)], model.weights)[0]
        for Q in (den, normalized_random_poly(rng, z0, N)):
            for M in sorted({0, N - 1, N, E}):
                num = pade.numerator(t, Q, M)
                assert num.coeffs.tobytes() == loop_numerator(t, Q, M).coeffs.tobytes()

    @pytest.mark.parametrize("name, z0, N, E", CASES)
    def test_fast_stack_is_each_window_alone(self, name, z0, N, E, request):
        # every fast denominator of orders N..E from one stack, as alone:
        # coefficients byte for byte and diagnostics equal
        model = request.getfixturevalue(name)
        t = modal.taylor_coefficients(model, z0, E)
        params = [pade.BuildParams(z0, e, N, e) for e in range(N, E + 1)]
        for p, (den, diag) in zip(params, pade.denominators(model, params, t)):
            alone, alone_diag = pade.denominator_fast_qr(t, N, [(p.E, p.E, 1.0)], model.weights)[0]
            assert den.coeffs.tobytes() == alone.coeffs.tobytes()
            assert diag == alone_diag


class TestBuildAndEvaluate:
    def test_exact_at_center(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, [pade.BuildParams(paper_z0, 4, 2, 4, "fast")])[0]
        val, _ = pade.evaluate(ap, paper_z0)
        exact = modal.evaluate_exact(helmholtz, paper_z0)
        assert norm(val - exact, helmholtz.weights) <= 1e-12 * norm(
            exact, helmholtz.weights
        )

    def test_exact_recovery_on_grid(self, two_pole):
        ap = pade.build(two_pole, [pade.BuildParams(0.0, 1, 2, 2, "fast")])[0]
        for z in np.linspace(-3, 4, 100):
            if min(abs(z - 1), abs(z - 2)) < 0.1:
                continue
            val, _ = pade.evaluate(ap, z)
            exact = modal.evaluate_exact(two_pole, z)
            assert norm(val - exact, two_pole.weights) <= 1e-9

    def test_build_from_taylor_series(self, three_pole):
        # build is the QR denominator and the numerator of the model's series
        t = modal.taylor_coefficients(three_pole, 0.3, 4)
        ap = pade.build(three_pole, [pade.BuildParams(0.3, 4, 2, 4, "fast")])[0]
        den, diag = pade.denominator_fast_qr(t, 2, [(4, 4, 1.0)], three_pole.weights)[0]
        assert ap.denominator.coeffs.tobytes() == den.coeffs.tobytes()
        assert ap.numerator.coeffs.tobytes() == pade.numerator(t, den, 4).coeffs.tobytes()
        assert ap.diagnostics == diag

    def test_lone_params_raise(self, three_pole):
        # a BuildParams is a tuple: taken as a stack, its fields would be items
        with pytest.raises(TypeError, match=r"build\(model, \[params\]\)\[0\]"):
            pade.build(three_pole, pade.BuildParams(0.3, 2, 2, 2))

    def test_stack_of_two_centers_raises(self, three_pole):
        params = [pade.BuildParams(z0, 2, 2, 2) for z0 in (0.3, 0.3 + 1e-12j)]
        with pytest.raises(ValueError, match="centred at"):
            pade.build(three_pole, params)

    def test_shared_block_off_center_raises(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 6)
        with pytest.raises(ValueError, match="centred at"):
            pade.denominators(three_pole, [pade.BuildParams(0.3 + 1e-12j, 4, 2, 4, "fast")], t)

    def test_shared_block_too_short_raises(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 3)
        with pytest.raises(InsufficientTaylorLength):
            pade.denominators(three_pole, [pade.BuildParams(0.3, 4, 2, 4, "fast")], t)

    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_shared_block_not_2d_raises(self, three_pole, variant):
        t = modal.taylor_coefficients(three_pole, 0.3, 6)
        params = pade.BuildParams(0.3, 2, 2, 4, variant, 1.0)
        for coeffs in (t.coeffs[:, 0], t.coeffs[None]):
            with pytest.raises(ValueError, match="not one row per order"):
                pade.denominators(three_pole, [params], poly.ShiftedPolynomial(0.3, coeffs))

    def test_constant_approximant(self, three_pole):
        ap = pade.build(three_pole, [pade.BuildParams(0.3, 0, 0, 0, "fast")])[0]
        val, _ = pade.evaluate(ap, 0.9)
        assert np.allclose(val, modal.evaluate_exact(three_pole, 0.3))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_modulus_of_Q_is_inf(self):
        # Q(z) = z^2 (1 + i) / sqrt(2): finite parts at z = 1.36e154, whose
        # modulus 1.85e308 overflows; Python's abs would raise there
        approx = pade.PadeApproximant(
            poly.ShiftedPolynomial(0.0, [[1.0]]),
            poly.ShiftedPolynomial(0.0, [0.0, 0.0, (1 + 1j) / math.sqrt(2)]),
            pade.BuildParams(0.0, 0, 2, 2), pade.Diagnostics(0.0, False))
        _, qmag = pade.evaluate(approx, 1.36e154)
        assert qmag == math.inf
        _, qmags = pade.evaluate(approx, np.array([1.0, 1.36e154]))
        assert qmags.tolist() == [abs((1 + 1j) / math.sqrt(2)), math.inf]

    @settings(max_examples=300, deadline=None, database=None)
    @given(re=EXTREME_PARTS, im=EXTREME_PARTS)
    @example(re=1.7976931348623157e308, im=1.7976931348623157e308)  # abs raises
    @example(re=math.inf, im=math.nan)
    def test_q_magnitude_is_python_abs(self, re, im):
        """|Q| by np.hypot in evaluate is Python's abs of Q(z) bit for bit
        (any nan for a nan), and inf where abs raises OverflowError."""
        Q = poly.ShiftedPolynomial(0.0, [complex(re, im)])
        approx = pade.PadeApproximant(poly.ShiftedPolynomial(0.0, [[1.0]]), Q,
                                      pade.BuildParams(0.0, 0, 0, 0),
                                      pade.Diagnostics(0.0, False))
        _, qmag = pade.evaluate(approx, 0.0)
        try:
            want = abs(poly.evaluate([Q], [0.0])[0, 0])
        except OverflowError:
            want = math.inf
        assert math.isnan(qmag) if math.isnan(want) else qmag.hex() == want.hex()

    def test_near_pole_no_error(self, two_pole):
        ap = pade.build(two_pole, [pade.BuildParams(0.0, 2, 2, 2, "fast")])[0]
        _, qmag = pade.evaluate(ap, 1.0 + 1e-12)
        assert qmag < 1e-9

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_exact_recovery_on_random_pole_sets(self, data):
        """Sampling: 1-4 poles with real parts on a 0.5 grid in [-3, 3], so
        at least 0.5 apart, |Im| <= 1 and residue norms in [0.2, 2]; a
        centre with real part in [-3, 3] and imaginary part in [1.5, 2.5];
        N = P or P + 1 for P poles, M = N - 1 and E = N.  The fast
        approximant is then exact: its relative V-norm error on a 25 x 9
        grid of [-3, 3] x [-1, 1], points within 0.1 of a pole left out,
        stays below 1e-8, and each pole has a root of Q within 1e-9.  The
        worst of 7,000 seeded random draws, 3,000 of them at the ends of the
        sampling ranges, were 3.9e-10 and 4.9e-11.  The standard variant
        is not asserted: its Gramian eigensolve misses a pole by 0.74 at
        poles -1, -0.5-i, -3+i, -1.5-i (norms 0.2, 0.2, 2, 0.2), centre
        -3+1.5i, N = 4, M = 3, E = 7, rho = 1."""
        steps = data.draw(st.lists(st.integers(-6, 6), min_size=1, max_size=4,
                                   unique=True))
        imag = data.draw(st.lists(st.floats(-1, 1), min_size=len(steps),
                                  max_size=len(steps)))
        norms = data.draw(st.lists(st.floats(0.2, 2), min_size=len(steps),
                                   max_size=len(steps)))
        poles = np.array([complex(k / 2, y) for k, y in zip(steps, imag)])
        model = modal.build_synthetic(poles, norms)
        z0 = complex(data.draw(st.floats(-3, 3)), data.draw(st.floats(1.5, 2.5)))
        N = len(poles) + data.draw(st.integers(0, 1))
        ap = pade.build(model, [pade.BuildParams(z0, N - 1, N, N, "fast")])[0]

        x, y = np.meshgrid(np.linspace(-3, 3, 25), np.linspace(-1, 1, 9))
        grid = (x + 1j * y).ravel()
        grid = grid[np.abs(grid[:, None] - poles).min(axis=1) >= 0.1]
        exact, _ = modal.evaluate_exact_grid(model, grid)
        values, _ = pade.evaluate(ap, grid)
        rel = norm(values - exact, model.weights) / norm(exact, model.weights)
        assert np.all(rel <= 1e-8)
        roots = np.array(pade.approximant_poles(ap))
        assert all(np.min(np.abs(roots - lam)) <= 1e-9 for lam in poles)


# A synthetic model's poles as (real part in halves, imaginary part,
# residue norm), at least 0.5 apart, and grid points around them.
POLES = st.lists(st.tuples(st.integers(-6, 6), st.floats(-1, 1), st.floats(0.2, 2)),
                 min_size=1, max_size=4, unique_by=lambda pole: pole[0])
POINTS = st.lists(st.builds(complex, st.floats(-3, 3), st.floats(-1, 1)), min_size=1,
                  max_size=5)


def synthetic(poles):
    return modal.build_synthetic([complex(k / 2, y) for k, y, _ in poles],
                                 [r for *_, r in poles])


class TestGridIndependence:
    """A value's bytes do not depend on the points or the approximants it is
    evaluated with.  NumPy rounds a complex product of one element taken in
    place or broadcast, or of two NumPy scalars, without FMA, and every
    other one with FMA where the host has it; a one-mode numerator at one
    point, or a scalar polynomial at a scalar point, is such a product at
    every Horner step unless poly._horner takes it out of place on 1-d
    arrays."""

    @settings(max_examples=150, deadline=None, database=None)
    @given(poles=POLES, z0=st.builds(complex, st.floats(-3, 3), st.floats(1.5, 2.5)),
           variant=st.sampled_from(["fast", "standard"]), M=st.integers(0, 5),
           N=st.integers(1, 3), extra=st.integers(0, 2), points=POINTS, more=POINTS)
    @example(poles=[(2, 0.0, 1.0)], z0=0.3 + 0.2j, variant="fast", M=5, N=2, extra=2,
             points=[0.1 - 0.4j, 2.5 + 0.3j], more=[-1.0 + 0.5j])
    def test_value_at_a_point_is_its_value_in_any_grid(self, poles, z0, variant, M, N,
                                                       extra, points, more):
        model = synthetic(poles)
        E = (max(M, N) if variant == "fast" else M + N) + extra
        approx = pade.build(model, [pade.BuildParams(z0, M, N, E, variant, 2.0)])[0]
        values, qmags = pade.evaluate(approx, points)
        longer, longer_qmags = pade.evaluate(approx, points + more)
        assert values.tobytes() == longer[:len(points)].tobytes()
        assert qmags.tobytes() == longer_qmags[:len(points)].tobytes()
        P, Q = approx.numerator, approx.denominator
        for i, z in enumerate(points):
            value, qmag = pade.evaluate(approx, z)
            assert value.tobytes() == values[i].tobytes()
            assert np.float64(qmag).tobytes() == qmags[i].tobytes()
            assert P(z).tobytes() == P(points)[i].tobytes()
            assert Q(z).tobytes() == Q(points)[i].tobytes()


class TestFunctionalValue:
    def test_taylor_route_needs_weights(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 3)
        with pytest.raises(ValueError, match="weights are required"):
            pade.functional_value(poly.ShiftedPolynomial(0.3, [1.0]), t, 3)

    def test_model_without_retained_poles(self):
        # a zero source drops every pole: the functional is an empty sum
        model = modal.ModalModel([1.0, 2.0], [0.0, 0.0], InnerProductWeights.l2(2))
        assert model.poles.size == 0
        Q = poly.ShiftedPolynomial(0.3, [0.6, 0.8])
        assert pade.functional_value(Q, model, 3) == 0.0

    def test_unknown_source_type(self, three_pole):
        Q = poly.ShiftedPolynomial(0.3, [1.0])
        with pytest.raises(TypeError, match="cannot evaluate functional against ndarray"):
            pade.functional_value(Q, np.ones(3), 3, w=three_pole.weights)

    def test_exact_denominator_vanishes(self, two_pole):
        Q = normalize(
            poly.ShiftedPolynomial(
                0.0, np.polynomial.polynomial.polyfromroots([1.0, 2.0])
            )
        )
        assert pade.functional_value(Q, two_pole, 4) <= 1e-12 * two_pole.source_norm()

    def test_unit_denominator(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 3)
        Q = poly.ShiftedPolynomial(0.3, [1.0])
        val = pade.functional_value(Q, t, 3, w=three_pole.weights)
        assert val == pytest.approx(norm(t.coeffs[3], three_pole.weights))

    def test_dual_paths_agree(self, three_pole, rng):
        z0 = 0.3 + 0.1j
        t = modal.taylor_coefficients(three_pole, z0, 6)
        for _ in range(20):
            Q = normalized_random_poly(rng, z0, 2)
            a = pade.functional_value(Q, t, 6, w=three_pole.weights)
            b = pade.functional_value(Q, three_pole, 6)
            assert a == pytest.approx(b, rel=1e-10)

    @settings(max_examples=100, deadline=None, database=None)
    @given(data=st.data())
    def test_dual_paths_agree_on_random_models(self, data):
        """Sampling: 1-6 poles with real parts on a 0.25 grid in [-5, 5],
        |Im| <= 2 and residue norms in [1e-3, 10]; a centre 2.5-5 off the
        real axis, so 0.5 or more from every pole; a denominator of degree
        N in 0-6 with coefficients in the unit square (each part 0 or at
        least 1e-100), scaled to unit norm; E from N to N + 8.  The routes
        agree to 1e-13 (about 450 roundoffs) relative to `bound`, the
        functional with every term of Q(lambda) taken by magnitude, which
        scales the roundoff of both.  Relative to the functional itself they
        need not agree: it may be far smaller where Q nearly vanishes on a
        near pole."""
        steps = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=6,
                                   unique=True))
        # below 1e-100 a coefficient is 0, so the unit scaling cannot underflow
        real = st.floats(-1, 1).map(lambda x: x if abs(x) >= 1e-100 else 0.0)
        imag = data.draw(st.lists(st.floats(-2, 2), min_size=len(steps),
                                  max_size=len(steps)))
        norms = data.draw(st.lists(st.floats(1e-3, 10), min_size=len(steps),
                                   max_size=len(steps)))
        model = modal.build_synthetic([complex(k / 4, y) for k, y in zip(steps, imag)],
                                      norms)
        z0 = complex(data.draw(st.floats(-5, 5)),
                     data.draw(st.sampled_from([-1, 1])) * data.draw(st.floats(2.5, 5)))
        N = data.draw(st.integers(0, 6))
        E = N + data.draw(st.integers(0, 8))
        c = np.array(data.draw(st.lists(st.tuples(real, real), min_size=N + 1,
                                        max_size=N + 1))).view(complex)[:, 0]
        if not np.any(c):
            c[0] = 1.0
        Q = poly.ShiftedPolynomial(z0, c / np.linalg.norm(c))

        taylor = pade.functional_value(
            Q, modal.taylor_coefficients(model, z0, E), E, w=model.weights)
        modal_route = pade.functional_value(Q, model, E)
        d = np.abs(model.poles - z0)
        terms = np.abs(Q.coeffs) * d[:, None] ** np.arange(N + 1)
        bound = np.sqrt(np.sum((model.residue_norms * terms.sum(axis=1)
                                / d ** (E + 1)) ** 2))
        assert abs(taylor - modal_route) <= 1e-13 * bound

    def test_minimality(self, helmholtz, paper_z0, rng):
        E, N = 6, 2
        t = modal.taylor_coefficients(helmholtz, paper_z0, E)
        den, diag = pade.denominator_fast_gramian(t, N, [E], helmholtz.weights)[0]
        best = pade.functional_value(den, t, E, w=helmholtz.weights)
        scale = norm(t.coeffs[E - N], helmholtz.weights)
        for _ in range(200):
            Q = normalized_random_poly(rng, paper_z0, N)
            assert best <= pade.functional_value(
                Q, t, E, w=helmholtz.weights
            ) + 1e-12 * scale

    def test_optimality_bound(self, helmholtz, paper_z0):
        # j(Q*) <= C' / |lambda_{N+1} - z0|^{E+1} for every fast build
        poles = modal.pole_list(helmholtz, paper_z0)
        for N in (1, 2, 3):
            lam_next = poles[N]
            Cp = helmholtz.source_norm() * np.prod(
                [
                    1 + abs(lam_next - paper_z0) / abs(poles[a] - paper_z0)
                    for a in range(N)
                ]
            )
            for E in range(N, N + 5):
                t = modal.taylor_coefficients(helmholtz, paper_z0, E)
                _, diag = pade.denominator_fast_gramian(t, N, [E], helmholtz.weights)[0]
                bound = Cp / abs(lam_next - paper_z0) ** (E + 1)
                assert diag.functional_value <= bound * (1 + 1e-6)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("poles, norms, z0, E, value", [
        ([2, 5], [1e200, 1], 3 + 0.5j, 2, 3.2e199),  # squared terms overflow
        ([1e8, 1.2e8], [1, 1], 1.25e8 + 1e6j, 40, 4.0144214539048e-269),  # underflow
    ])
    def test_modal_route_at_extreme_scales(self, poles, norms, z0, E, value):
        model = modal.build_synthetic(poles, norms)
        Q = poly.ShiftedPolynomial(z0, [0.6, 0.8])
        modal_route = pade.functional_value(Q, model, E)
        taylor = pade.functional_value(
            Q, modal.taylor_coefficients(model, z0, E), E, w=model.weights)
        assert modal_route == pytest.approx(value, rel=1e-13, abs=0.0)
        assert taylor == pytest.approx(modal_route, rel=1e-14, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_modal_route_with_overflowing_factors(self):
        # rnorm |Q(lam)| (about 8e319) and |lam - z0|^31 (1e310) both
        # overflow at the pole 1e10; their ratio, 8e9, does not
        model = modal.build_synthetic([1e10, -1e10], [1e300, 1])
        Q = poly.ShiftedPolynomial(0.5j, [0.6, 0.0, 0.8])
        modal_route = pade.functional_value(Q, model, 30)
        taylor = pade.functional_value(
            Q, modal.taylor_coefficients(model, 0.5j, 30), 30, w=model.weights)
        assert taylor == pytest.approx(8.0e9, rel=1e-12, abs=0.0)
        assert modal_route == pytest.approx(taylor, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error")
    def test_modal_route_where_the_modulus_of_Q_overflows(self):
        # Q(lam) = lam^2 (1 + i) / sqrt(2) has finite parts and a modulus,
        # 1.85e308, past the float range; the value is |Q(lam)| / lam^4
        model = modal.build_synthetic([1.36e154], [1.0])
        Q = poly.ShiftedPolynomial(0.0, [0.0, 0.0, (1 + 1j) / math.sqrt(2)])
        value = pade.functional_value(Q, model, 3)
        assert value == pytest.approx(1 / 1.36e154 / 1.36e154, rel=1e-12, abs=0.0)

    def test_modal_route_keeps_finite_terms(self, three_pole, rng):
        # terms that do not overflow are the plain ratios, bit for bit
        Q = normalized_random_poly(rng, 0.5 + 0.1j, 2)
        lam = three_pole.poles
        qmag = np.array([abs(poly.evaluate([Q], [p])[0, 0]) for p in lam])
        terms = three_pole.residue_norms * qmag / np.abs(lam - Q.center) ** 7
        assert pade.functional_value(Q, three_pole, 6) == norm(terms, InnerProductWeights.l2(3))


class TestResidual:
    def test_exact_case_vanishes(self, two_pole):
        ap = pade.build(two_pole, [pade.BuildParams(0.0, 2, 2, 2, "fast")])[0]
        assert residual_norm(two_pole, ap, 0.7) <= 1e-10

    def test_at_center(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, [pade.BuildParams(paper_z0, 4, 2, 4, "fast")])[0]
        s = modal.evaluate_exact(helmholtz, paper_z0)
        assert residual_norm(helmholtz, ap, paper_z0) <= 1e-12 * norm(
            s, helmholtz.weights
        )


class TestPathEquivalence:
    def test_gramian_vs_qr(self, rng):
        agreements = 0
        for _ in range(30):
            P = int(rng.integers(2, 5))
            poles = rng.uniform(1, 6, size=P) + 1j * rng.uniform(-1, 1, size=P)
            if np.min(np.abs(np.subtract.outer(poles, poles))
                      + np.eye(P) * 10) < 0.2:
                continue
            m = modal.build_synthetic(list(poles), list(rng.uniform(0.5, 2, size=P)))
            N = int(rng.integers(1, P))
            E = N + int(rng.integers(0, 4))
            t = modal.taylor_coefficients(m, 0.0, E)
            g_den, g_diag = pade.denominator_fast_gramian(t, N, [E], m.weights)[0]
            q_den, q_diag = pade.denominator_fast_qr(t, N, [(E, E, 1.0)], m.weights)[0]
            if g_diag.degenerate or q_diag.degenerate:
                continue
            assert np.allclose(g_den.coeffs, q_den.coeffs, atol=1e-8)
            agreements += 1
        assert agreements >= 10


class TestSerialization:
    def test_round_trip(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, [pade.BuildParams(paper_z0, 3, 2, 3, "fast")])[0]
        back = pade.approximant_from_json(pade.approximant_to_json(ap))
        assert np.allclose(back.denominator.coeffs, ap.denominator.coeffs)
        assert np.allclose(back.numerator.coeffs, ap.numerator.coeffs)
        assert back.params == ap.params
        assert back.diagnostics == ap.diagnostics
