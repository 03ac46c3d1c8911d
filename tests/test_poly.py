import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from pademor import hilbert, numerics, pade, poly
from pademor.errors import (ConstantPolynomial, DimensionMismatch, NonFiniteValue, NotNormalized,
                            ZeroPolynomial)

from oracles import copying_horner, normalize, numpy_horner


NON_FINITE = [complex(math.inf, 0.0), complex(-math.inf, 1.0), complex(0.0, math.inf),
              complex(math.inf, math.nan), complex(math.nan, 0.0), complex(1.0, math.nan)]


def wide_coeffs(rng, shape):
    """Complex coefficients of decimal exponents -200..200."""
    scale = 10.0 ** rng.integers(-200, 201, size=(2,) + shape)
    c = rng.standard_normal((2,) + shape) * scale
    return c[0] + 1j * c[1]


def points_with_non_finite(rng, n):
    """n finite points of decimal exponents -3..3, then inf and nan ones."""
    z = rng.standard_normal((2, n)) * 10.0 ** rng.integers(-3, 4, size=(2, n))
    return (z[0] + 1j * z[1]).tolist() + NON_FINITE


def poly_from_roots(z0, roots):
    """Normalized polynomial in (z - z0) with the given roots."""
    c = np.polynomial.polynomial.polyfromroots([r - z0 for r in roots])
    return normalize(poly.ShiftedPolynomial(z0, c))


@st.composite
def near_trim_boundary(draw):
    """Real coefficients whose leading one lies within 3 ulps, either side,
    of numerics.TRIM_THRESHOLD times the largest of the others, with either
    sign."""
    body = draw(st.lists(st.floats(-1e100, 1e100), min_size=1, max_size=5))
    lead = numerics.TRIM_THRESHOLD * max(map(abs, body))
    steps = draw(st.integers(-3, 3))
    for _ in range(abs(steps)):
        lead = float(np.nextafter(lead, math.inf if steps > 0 else 0.0))
    return body + [draw(st.sampled_from([1.0, -1.0])) * lead]


class TestEvaluate:
    def test_constant(self):
        p = poly.ShiftedPolynomial(2.0, [1.0])
        assert poly.evaluate([p], [17.0])[0, 0] == 1.0

    def test_linear_shift(self):
        p = poly.ShiftedPolynomial(1 + 1j, [0.0, 1.0])
        assert poly.evaluate([p], [3 + 1j])[0, 0] == pytest.approx(2.0)

    def test_quadratic_root(self):
        p = poly.ShiftedPolynomial(0.0, [2.0, -3.0, 1.0])
        assert poly.evaluate([p], [1.0])[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_bit_identical_to_numpy_scalar_horner(self, rng):
        got, want = [], []
        for degree in range(13):
            for _ in range(40):
                c = rng.standard_normal((2, degree + 1)) * 10.0 ** rng.integers(-8, 8)
                center = complex(*rng.standard_normal(2))
                p = poly.ShiftedPolynomial(center, c[0] + 1j * c[1])
                z = complex(*(3 * rng.standard_normal(2)))
                got.append(poly.evaluate([p], [z])[0, 0].item())
                want.append(numpy_horner(p, z))
        assert all(type(v) is complex for v in got)
        bits = [np.array(v, dtype=complex).view(np.uint64) for v in (got, want)]
        assert np.array_equal(*bits)

    def test_point_list_bit_identical_to_per_point_loop(self, rng):
        for N in range(9):
            for _ in range(20):
                p = poly.ShiftedPolynomial(complex(*rng.standard_normal(2)),
                                           wide_coeffs(rng, (N + 1,)))
                z = points_with_non_finite(rng, 10)
                got = poly.evaluate([p], z)[0]
                want = [poly.evaluate([p], [point])[0, 0] for point in z]
                with np.errstate(all="ignore"):
                    oracle = [numpy_horner(p, point) for point in z]
                assert got.tobytes() == np.array(want).tobytes()
                assert got.tobytes() == np.array(oracle).tobytes()

    def test_call_bit_identical_to_copying_horner(self, rng):
        with np.errstate(all="ignore"):
            for M in range(21):
                for shape in [(M + 1,), (M + 1, 7)]:
                    p = poly.ShiftedPolynomial(complex(*rng.standard_normal(2)),
                                               wide_coeffs(rng, shape))
                    z = np.array(points_with_non_finite(rng, 30))
                    assert p(z).tobytes() == copying_horner(p, z).tobytes()
                    assert p(z[0]).tobytes() == copying_horner(p, z[0]).tobytes()

    def test_call_gives_one_value_per_point(self, rng):
        # a scalar polynomial gives an (n,) array, not an (n, n) broadcast,
        # and a vector one an (n, dimension) array
        c = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        z = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        vector = poly.ShiftedPolynomial(0.5j, c)
        assert vector(z).shape == (7, 3) and vector(z[0]).shape == (3,)
        for j in range(3):
            scalar = poly.ShiftedPolynomial(0.5j, c[:, j])
            assert scalar(z).shape == (7,) and scalar(z[0]).shape == ()
            assert np.array_equal(scalar(z), vector(z)[:, j])
            assert np.allclose(scalar(z), [poly.evaluate([scalar], [p])[0, 0] for p in z],
                               rtol=1e-13, atol=0.0)


class TestNormalize:
    def test_three_four_five(self):
        p = normalize(poly.ShiftedPolynomial(0.0, [3.0, 4.0]))
        assert np.allclose(p.coeffs, [0.6, 0.8])

    def test_phase_fix(self):
        p = normalize(poly.ShiftedPolynomial(0.0, [0.0, 5.0j]))
        assert np.allclose(p.coeffs, [0.0, 1.0])

    def test_idempotent_bitwise(self, rng):
        for _ in range(20):
            c = rng.normal(size=4) + 1j * rng.normal(size=4)
            once = normalize(poly.ShiftedPolynomial(0.5j, c))
            twice = normalize(once)
            assert np.array_equal(once.coeffs, twice.coeffs)

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomial):
            normalize(poly.ShiftedPolynomial(0.0, [0.0, 0.0]))

    def test_magnitude_invariant_under_phase(self, rng):
        c = rng.normal(size=4) + 1j * rng.normal(size=4)
        p = poly.ShiftedPolynomial(0.0, c)
        q = normalize(p)
        z = 1.3 - 0.2j
        scale = np.linalg.norm(c)
        assert abs(poly.evaluate([q], [z])[0, 0]) == pytest.approx(
            abs(poly.evaluate([p], [z])[0, 0]) / scale
        )


def denominator_from_eigvec(q, z0):
    """The denominator of one eigenvector: pade._eigvec_denominators of a
    stack of one."""
    res = numerics._MinEigen(0.0, np.asarray(q, dtype=complex), False)
    return pade._eigvec_denominators([res], z0)[0]


class TestDenominatorFromEigvec:
    def test_index_reversal(self):
        den = denominator_from_eigvec([1.0, 0.0, 0.0], 2.0)
        assert np.allclose(den.coeffs, [0.0, 0.0, 1.0])

    def test_constant_case(self):
        den = denominator_from_eigvec([0.0, 0.0, 1.0], 2.0)
        assert np.allclose(den.coeffs, [1.0, 0.0, 0.0])

    def test_round_trip(self, rng):
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = q / np.linalg.norm(q)
        den = denominator_from_eigvec(q, 0.0)
        assert np.array_equal(den.coeffs[::-1], q)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            denominator_from_eigvec([1.0, 1.0], 0.0)

    def test_nan_rejected(self):
        # abs(nan - 1) > 1e-12 is False: the check must fail on a nan norm
        with pytest.raises(NotNormalized):
            denominator_from_eigvec([math.nan, 0.0], 0.5j)


class TestRoots:
    def test_shifted_quadratic(self):
        p = poly.ShiftedPolynomial(2.0, [-1.0, 0.0, 1.0])  # (z-2)^2 - 1
        assert np.allclose(poly.roots([p])[0], [1.0, 3.0])

    def test_normalized_factored(self):
        p = poly_from_roots(0.0, [1.0, 2.0])
        assert np.allclose(poly.roots([p])[0], [1.0, 2.0], atol=1e-10)

    def test_trimmed_leading_coefficient(self):
        # numerically vanishing leading coefficient: degree drops by one
        p = poly.ShiftedPolynomial(0.0, [-1.0, 1.0, 1e-16])
        roots = poly.roots([p])[0]
        assert len(roots) == 1
        assert np.allclose(roots, [1.0])

    @settings(max_examples=300, deadline=None, database=None)
    @given(coeffs=near_trim_boundary())
    # the trim kept this leading coefficient, 1e-13 of the largest in
    # decimal; polynomial_roots refused it when it compared the ratio of
    # the two, which rounds to 1e-13, and not the product
    @example(coeffs=[0.008582960518738553, 1e-3, 8.582960518738553e-16])
    # a subnormal leading coefficient that the trim keeps: a / a[-1]
    # overflowed in polynomial_roots
    @example(coeffs=[4.769950004180396e-297, 4.76995000418046e-310])
    @example(coeffs=[3.102627370652592e-296, 3.102627370652597e-309])
    def test_trimmed_leading_coefficient_is_never_refused(self, coeffs):
        p = poly.ShiftedPolynomial(0.0, coeffs)
        try:
            roots = poly.roots([p])[0]
        except (ZeroPolynomial, ConstantPolynomial):
            return
        # one root per coefficient up to the last above the trim
        kept = np.abs(p.coeffs) > numerics.TRIM_THRESHOLD * np.abs(p.coeffs).max()
        assert len(roots) == np.flatnonzero(kept)[-1]

    @pytest.mark.parametrize("coeffs", [[math.nan, 1.0], [1.0, math.inf]])
    def test_non_finite_coefficient_rejected(self, coeffs):
        # no coefficient compared above the trim's nan or inf scale, and
        # the trim indexed an empty array (IndexError)
        with pytest.raises(NonFiniteValue):
            poly.roots([poly.ShiftedPolynomial(0.0, coeffs)])[0]

    def test_vector_polynomial_refused(self):
        # a Taylor block or a numerator has no roots to find
        p = poly.ShiftedPolynomial(0.0, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        with pytest.raises(DimensionMismatch, match=r"coefficients of shape \(3, 2\)$"):
            poly.roots([poly.ShiftedPolynomial(0.0, [1.0, 1.0]), p])

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            poly.roots([poly.ShiftedPolynomial(0.0, [1.0])])[0]

    def test_zero_polynomial_has_no_degree(self):
        with pytest.raises(ZeroPolynomial, match="zero polynomial has no well-defined degree"):
            poly.roots([poly.ShiftedPolynomial(0.0, [0.0, 0.0, 0.0])])[0]
        # no coefficient at all, beside one that has some
        with pytest.raises(ZeroPolynomial, match="zero polynomial has no well-defined degree"):
            poly.roots([poly.ShiftedPolynomial(0.0, [1.0, 1.0]), poly.ShiftedPolynomial(0.0, [])])

    def test_sorted_by_distance_from_center(self):
        p = poly_from_roots(5.0, [9.0, 4.0, 7.0])
        r = poly.roots([p])[0]
        d = [abs(x - 5.0) for x in r]
        assert d == sorted(d)


class TestInterpolationBounds:
    """Lower/upper bounds on |Q(z)| for normalized Q in terms of its roots."""

    def test_property_suite(self, rng):
        for _ in range(1000):
            N = int(rng.integers(1, 7))
            z0 = complex(rng.normal(), rng.normal())
            roots = z0 + 5 * rng.uniform(0.01, 1, size=N) * np.exp(
                2j * np.pi * rng.uniform(size=N)
            )
            q = poly_from_roots(z0, roots)
            z = complex(rng.normal(scale=4), rng.normal(scale=4))
            qz = abs(poly.evaluate([q], [z])[0, 0])
            lower = np.prod([abs(r - z) / (1 + abs(r - z0)) for r in roots])
            upper = np.prod([abs(r - z) / abs(r - z0) for r in roots])
            assert qz >= lower - 1e-10
            if min(abs(r - z0) for r in roots) > 1e-6:
                assert qz <= upper + 1e-10


class TestSerialization:
    def test_round_trip(self):
        # a polynomial is written as the denominator of an approximant
        p = poly.ShiftedPolynomial(1 - 2j, [1.0, 2.0j, -0.5])
        num = poly.ShiftedPolynomial(p.center, [[1.0]])
        approx = pade.PadeApproximant(num, p, pade.BuildParams(p.center, 0, 2, 2),
                                      pade.Diagnostics(0.0, False))
        text = hilbert.json_bytes(pade.approximant_to_json(approx))
        back = pade.approximant_from_json(json.loads(text)).denominator
        assert back.center == p.center
        assert np.array_equal(back.coeffs, p.coeffs)
