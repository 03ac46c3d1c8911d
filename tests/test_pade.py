import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pademor import harness, modal, numerics, pade, poly
from pademor.errors import InsufficientTaylorLength, RhoOverflow
from pademor.hilbert import InnerProductWeights, norm

from conftest import OVERFLOWING_GRAMIAN_SUM
from oracles import column_mgs, loop_numerator, normalize, residual_norm

L2_1 = InnerProductWeights.l2(1)
HIGHORDER_Z0 = 12 + 0.5j  # centre of the highorder_poles benchmark study


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

    def test_unknown_variant(self):
        with pytest.raises(ValueError, match="unknown variant 'other'"):
            pade.BuildParams(0.0, 2, 2, 4, "other")

    def test_negative_degree(self):
        with pytest.raises(ValueError, match="M and N must be nonnegative"):
            pade.BuildParams(0.0, -1, 2, 4)
        with pytest.raises(ValueError, match="M and N must be nonnegative"):
            pade.BuildParams(0.0, 1, 2, 4)._replace(N=-1)

    def test_keyword_form(self):
        p = pade.BuildParams(12 + 0.5j, M=6, N=2, E=6, variant="fast")
        assert p == (12 + 0.5j, 6, 2, 6, "fast", None)
        assert type(p.z0) is complex and pade.BuildParams(3, 1, 1, 1).z0 == 3 + 0j
        assert p._asdict() == {"z0": 12 + 0.5j, "M": 6, "N": 2, "E": 6,
                               "variant": "fast", "rho": None}

    def test_records_are_immutable(self, two_pole):
        ap = pade.build(two_pole, pade.BuildParams(0.0, 2, 2, 2))
        for record, field in ((ap.params, "M"), (ap.diagnostics, "degenerate"),
                              (ap, "numerator")):
            with pytest.raises(AttributeError):
                setattr(record, field, None)


class TestGramian:
    def test_single_pole_hand_oracle(self):
        # S_gamma = 2^-(gamma+1): entries are products of 1/4 and 1/8
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        G = pade.gramian(t, 1, 1, L2_1)
        assert np.allclose(G, [[0.25, 0.125], [0.125, 0.0625]])

    def test_one_by_one(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 0)
        G = pade.gramian(t, 0, 0, three_pole.weights)
        assert G[0, 0].real == pytest.approx(
            norm(t.coeffs[0], three_pole.weights) ** 2
        )

    def test_zero_padding(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        G = pade.gramian(t, 3, 1, L2_1)  # orders -2, -1, 0, 1
        assert np.all(G[:2, :] == 0) and np.all(G[:, :2] == 0)

    def test_insufficient_length(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 1)
        with pytest.raises(InsufficientTaylorLength):
            pade.gramian(t, 1, 5, L2_1)

    def test_negative_order(self):
        t = modal.taylor_coefficients(modal.build_synthetic([2.0], [1.0]), 0.0, 1)
        with pytest.raises(ValueError, match="E must be nonnegative"):
            pade.gramian(t, 1, -1, L2_1)


class TestFastDenominator:
    @pytest.mark.parametrize("route", [pade.denominator_fast_gramian,
                                       pade.denominator_fast_qr])
    def test_E_below_N(self, two_pole, route):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        with pytest.raises(ValueError, match="fast denominator requires E >= N"):
            route(t, 2, 1, two_pole.weights)

    def test_exact_two_pole_recovery(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        den, diag = pade.denominator_fast_gramian(t, 2, 2, two_pole.weights)
        assert np.allclose(poly.roots(den), [1.0, 2.0], atol=1e-9)
        # the Gramian eigensolve resolves the zero eigenvalue, the squared
        # functional value, only to rounding level relative to ||G||; the
        # QR path gets much further
        G = pade.gramian(t, 2, 2, two_pole.weights)
        assert diag.functional_value**2 <= 1e-12 * np.linalg.norm(G)

    def test_single_pole_any_E(self):
        m = modal.build_synthetic([5.0], [1.0])
        for E in (1, 2, 4):
            t = modal.taylor_coefficients(m, 0.0, E)
            den, _ = pade.denominator_fast_gramian(t, 1, E, L2_1)
            assert abs(poly.roots(den)[0] - 5.0) < 1e-10

    def test_paper_configuration_roots(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        den, _ = pade.denominator_fast_gramian(t, 2, 8, helmholtz.weights)
        r = poly.roots(den)
        assert min(abs(x - 13) for x in r) < 1e-3
        assert min(abs(x - 10) for x in r) < 1e-3

    def test_qr_matches_gramian_exact_case(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 2)
        qr_den, qr_diag = pade.denominator_fast_qr(t, 2, 2, two_pole.weights)
        assert np.allclose(poly.roots(qr_den), [1.0, 2.0], atol=1e-9)
        assert qr_diag.exact_degeneracy  # quasimatrix is rank deficient here

    def test_qr_N0_trivial(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 2)
        den, diag = pade.denominator_fast_qr(t, 0, 2, three_pole.weights)
        assert den.degree == 0 and abs(den.coeffs[0]) == pytest.approx(1.0)
        assert diag.functional_value == pytest.approx(
            norm(t.coeffs[2], three_pole.weights)
        )

    def test_conditioning_square_root_relation(self, helmholtz, paper_z0):
        # squared condition estimate of R tracks the Gramian condition
        t = modal.taylor_coefficients(helmholtz, paper_z0, 6)
        _, qr_diag = pade.denominator_fast_qr(t, 2, 6, helmholtz.weights)
        _, g_diag = pade.denominator_fast_gramian(t, 2, 6, helmholtz.weights)
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
        den, diag = pade.denominator_fast_qr(taylor, N, E, w)
        assert pade.functional_value(den, taylor, E, w) == pytest.approx(
            diag.functional_value, rel=1e-6)
        approx = pade.build(helmholtz, pade.BuildParams(paper_z0, E, N, E), taylor)
        values = pade.evaluate(approx, points)[0]
        errors = norm(exact - values, w) / norm(exact, w)
        assert np.median(errors) <= bound


class TestStandardDenominator:
    def test_single_block_coincides_with_fast(self, helmholtz, paper_z0):
        # E = M+1 (possible only for N <= 1): the sum has one term for any rho
        t = modal.taylor_coefficients(helmholtz, paper_z0, 5)
        fast, _ = pade.denominator_fast_gramian(t, 1, 5, helmholtz.weights)
        for rho in (0.5, 1.0, 7.0):
            std, _ = pade.denominator_standard(t, 4, 1, 5, rho, helmholtz.weights)
            assert np.allclose(std.coeffs, fast.coeffs, atol=1e-12)

    def test_exact_recovery(self, two_pole):
        t = modal.taylor_coefficients(two_pole, 0.0, 4)
        den, _ = pade.denominator_standard(t, 2, 2, 4, 1.0, two_pole.weights)
        assert np.allclose(poly.roots(den), [1.0, 2.0], atol=1e-8)

    def test_rho_insensitivity_of_pole_errors(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        RK = max(abs(9 - paper_z0), abs(15 - paper_z0))
        errs = []
        for rho in (0.1 * RK, RK, 10 * RK):
            den, _ = pade.denominator_standard(t, 6, 2, 8, rho, helmholtz.weights)
            r = poly.roots(den)
            errs.append(min(abs(x - 13) for x in r))
        # at this accuracy the spread is rounding noise; all choices of rho
        # must locate the dominant pole to well below the convergence level
        assert max(errs) < 1e-6

    @pytest.mark.parametrize("M, E, rho, message", [
        (2, 3, 1.0, "standard denominator requires E >= M \\+ N"),
        (2, 4, 0.0, "rho must be positive"),
        (2, 4, -1.0, "rho must be positive"),
    ])
    def test_invalid_arguments(self, two_pole, M, E, rho, message):
        t = modal.taylor_coefficients(two_pole, 0.0, 4)
        with pytest.raises(ValueError, match=message):
            pade.denominator_standard(t, M, 2, E, rho, two_pole.weights)

    def test_rho_overflow(self, helmholtz, paper_z0):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 42)
        with pytest.raises(RhoOverflow):
            pade.denominator_standard(t, 2, 2, 42, 1e10, helmholtz.weights)


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
                pade.denominator_fast_qr(s, 4, 10, w) for s in (t, ref))
        else:
            (den, diag), (den_ref, diag_ref) = (
                pade.denominator_standard(s, 6, 4, 10, 2.0, w) for s in (t, ref))
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
        assert pade._scale_exponent(np.array([2.0**400, -1j])) == 0
        assert pade._scale_exponent(np.array([3 * 2.0**401, 1.0])) == 402
        assert pade._scale_exponent(np.zeros(3)) == 0

    def test_rho_weight_moves_the_threshold(self):
        # a window is scaled when its largest entry times 2^weight passes
        # 2^400
        assert pade._scale_exponent(np.array([2.0**300]), 100.0) == 0
        assert pade._scale_exponent(np.array([2.0**300]), 100.5) == 300
        assert pade._scale_exponent(np.zeros(3), 1000.0) == 0

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
        den, den_scaled = (pade.build(m, params).denominator
                           for m in (harness.build_model(cfg), scaled))
        assert np.array_equal(den.coeffs.view(np.uint64), den_scaled.coeffs.view(np.uint64))

    def test_tiny_windows_are_scaled_up(self):
        assert pade._scale_exponent(np.array([2.0**-500])) == -500
        assert pade._scale_exponent(np.array([2.0**-400, 0.0])) == 0
        assert pade._scale_exponent(np.array([1j * 2.0**-401])) == -401
        # a subnormal maximum is scaled by 2^1023, the largest power of two
        assert pade._scale_exponent(np.array([5e-324])) == -1023


class TestSingleEigensolve:
    @pytest.mark.parametrize("variant", ["fast_gramian", "standard"])
    def test_gramian_solved_once(self, helmholtz, paper_z0, monkeypatch, variant):
        t = modal.taylor_coefficients(helmholtz, paper_z0, 8)
        solved = []
        eigensystem = numerics.hermitian_eigensystem

        def counted(H):
            solved.append(H)
            return eigensystem(H)

        monkeypatch.setattr(numerics, "hermitian_eigensystem", counted)
        if variant == "standard":
            den, diag = pade.denominator_standard(t, 6, 2, 8, 3.0, helmholtz.weights)
            rho, M = 3.0, 6
        else:
            den, diag = pade.denominator_fast_gramian(t, 2, 8, helmholtz.weights)
            rho, M = 1.0, 7
        assert len(solved) == 1
        # the same pair as a separate minimal-eigenpair solve of that matrix,
        # whose eigenvalue is the squared functional value over rho^2(M+1)
        ref = numerics.hermitian_min_eigenpair(solved[0])
        assert diag.functional_value == math.sqrt(max(ref.value, 0.0)) * rho ** (M + 1)
        assert diag.degenerate == ref.degenerate
        expected = poly.denominator_from_eigvec(ref.vector, paper_z0)
        assert np.array_equal(den.coeffs, expected.coeffs)


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
    """The sliced numerator and the row-basis Gram-Schmidt give the loops
    they replaced, bit for bit."""

    CASES = [  # model fixture, center, N, E
        ("helmholtz", 12 + 0.5j, 4, 12),
        ("three_pole", 0.3 + 0.1j, 2, 4),
        ("highorder", HIGHORDER_Z0, 8, 20),  # a rank-deficient window
    ]

    @pytest.mark.parametrize("name, z0, N, E", CASES)
    def test_gram_schmidt(self, name, z0, N, E, request):
        model = request.getfixturevalue(name)
        t = modal.taylor_coefficients(model, z0, E)
        A = pade._taylor_window(t, N, E)
        R = pade._weighted_mgs(A, model.weights)
        assert np.array_equal(R, column_mgs(A, model.weights))
        # denominator_fast_qr takes |R[0, 0]| as the first column norm
        assert R[0, 0].imag == 0.0 and abs(R[0, 0]) == R[0, 0].real > 0.0
        _, diag = pade.denominator_fast_qr(t, N, E, model.weights)
        assert diag.exact_degeneracy == (name == "highorder")

    @pytest.mark.parametrize("name, z0, N, E", CASES)
    def test_numerator(self, name, z0, N, E, request, rng):
        model = request.getfixturevalue(name)
        t = modal.taylor_coefficients(model, z0, E)
        den, _ = pade.denominator_fast_qr(t, N, E, model.weights)
        for Q in (den, normalized_random_poly(rng, z0, N)):
            for M in sorted({0, N - 1, N, E}):
                num = pade.numerator(t, Q, M)
                assert np.array_equal(num.coeffs, loop_numerator(t, Q, M).coeffs)


class TestBuildAndEvaluate:
    def test_exact_at_center(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, pade.BuildParams(paper_z0, 4, 2, 4, "fast"))
        val, _ = pade.evaluate(ap, paper_z0)
        exact = modal.evaluate_exact(helmholtz, paper_z0)
        assert norm(val - exact, helmholtz.weights) <= 1e-12 * norm(
            exact, helmholtz.weights
        )

    def test_exact_recovery_on_grid(self, two_pole):
        ap = pade.build(two_pole, pade.BuildParams(0.0, 1, 2, 2, "fast"))
        for z in np.linspace(-3, 4, 100):
            if min(abs(z - 1), abs(z - 2)) < 0.1:
                continue
            val, _ = pade.evaluate(ap, z)
            exact = modal.evaluate_exact(two_pole, z)
            assert norm(val - exact, two_pole.weights) <= 1e-9

    def test_build_from_taylor_series(self, three_pole):
        # build is the QR denominator and the numerator of the model's series
        t = modal.taylor_coefficients(three_pole, 0.3, 4)
        ap = pade.build(three_pole, pade.BuildParams(0.3, 4, 2, 4, "fast"))
        den, diag = pade.denominator_fast_qr(t, 2, 4, three_pole.weights)
        assert np.array_equal(ap.denominator.coeffs, den.coeffs)
        assert np.array_equal(ap.numerator.coeffs, pade.numerator(t, den, 4).coeffs)
        assert ap.diagnostics == diag

    def test_shared_block_off_center_raises(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 6)
        with pytest.raises(ValueError, match="centred at"):
            pade.build(three_pole, pade.BuildParams(0.3 + 1e-12j, 4, 2, 4, "fast"), t)

    def test_shared_block_too_short_raises(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3, 3)
        with pytest.raises(InsufficientTaylorLength):
            pade.build(three_pole, pade.BuildParams(0.3, 4, 2, 4, "fast"), t)

    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_shared_block_not_2d_raises(self, three_pole, variant):
        t = modal.taylor_coefficients(three_pole, 0.3, 6)
        params = pade.BuildParams(0.3, 2, 2, 4, variant, 1.0)
        for coeffs in (t.coeffs[:, 0], t.coeffs[None]):
            with pytest.raises(ValueError, match="not one row per order"):
                pade.build(three_pole, params, poly.ShiftedPolynomial(0.3, coeffs))

    def test_constant_approximant(self, three_pole):
        ap = pade.build(three_pole, pade.BuildParams(0.3, 0, 0, 0, "fast"))
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

    def test_near_pole_no_error(self, two_pole):
        ap = pade.build(two_pole, pade.BuildParams(0.0, 2, 2, 2, "fast"))
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
        ap = pade.build(model, pade.BuildParams(z0, N - 1, N, N, "fast"))

        x, y = np.meshgrid(np.linspace(-3, 3, 25), np.linspace(-1, 1, 9))
        grid = (x + 1j * y).ravel()
        grid = grid[np.abs(grid[:, None] - poles).min(axis=1) >= 0.1]
        exact, _ = modal.evaluate_exact_grid(model, grid)
        values, _ = pade.evaluate(ap, grid)
        rel = norm(values - exact, model.weights) / norm(exact, model.weights)
        assert np.all(rel <= 1e-8)
        roots = np.array(pade.approximant_poles(ap))
        assert all(np.min(np.abs(roots - lam)) <= 1e-9 for lam in poles)


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
        den, diag = pade.denominator_fast_gramian(t, N, E, helmholtz.weights)
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
                _, diag = pade.denominator_fast_gramian(t, N, E, helmholtz.weights)
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
        qmag = np.array([abs(poly.evaluate(Q, p)) for p in lam])
        terms = three_pole.residue_norms * qmag / np.abs(lam - Q.center) ** 7
        assert pade.functional_value(Q, three_pole, 6) == norm(terms, InnerProductWeights.l2(3))


class TestResidual:
    def test_exact_case_vanishes(self, two_pole):
        ap = pade.build(two_pole, pade.BuildParams(0.0, 2, 2, 2, "fast"))
        assert residual_norm(two_pole, ap, 0.7) <= 1e-10

    def test_at_center(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, pade.BuildParams(paper_z0, 4, 2, 4, "fast"))
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
            g_den, g_diag = pade.denominator_fast_gramian(t, N, E, m.weights)
            q_den, q_diag = pade.denominator_fast_qr(t, N, E, m.weights)
            if g_diag.degenerate or q_diag.degenerate:
                continue
            assert np.allclose(g_den.coeffs, q_den.coeffs, atol=1e-8)
            agreements += 1
        assert agreements >= 10


class TestSerialization:
    def test_round_trip(self, helmholtz, paper_z0):
        ap = pade.build(helmholtz, pade.BuildParams(paper_z0, 3, 2, 3, "fast"))
        back = pade.approximant_from_json(pade.approximant_to_json(ap))
        assert np.allclose(back.denominator.coeffs, ap.denominator.coeffs)
        assert np.allclose(back.numerator.coeffs, ap.numerator.coeffs)
        assert back.params == ap.params
        assert back.diagnostics == ap.diagnostics
