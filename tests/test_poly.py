import numpy as np
import pytest

from pademor import poly
from pademor.errors import ConstantPolynomial, NotNormalized, ZeroPolynomial

from oracles import normalize, numpy_horner


def poly_from_roots(z0, roots):
    """Normalized polynomial in (z - z0) with the given roots."""
    c = np.polynomial.polynomial.polyfromroots([r - z0 for r in roots])
    return normalize(poly.ShiftedPolynomial(z0, c))


class TestEvaluate:
    def test_constant(self):
        p = poly.ShiftedPolynomial(2.0, [1.0])
        assert poly.evaluate(p, 17.0) == 1.0

    def test_linear_shift(self):
        p = poly.ShiftedPolynomial(1 + 1j, [0.0, 1.0])
        assert poly.evaluate(p, 3 + 1j) == pytest.approx(2.0)

    def test_quadratic_root(self):
        p = poly.ShiftedPolynomial(0.0, [2.0, -3.0, 1.0])
        assert poly.evaluate(p, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_bit_identical_to_numpy_scalar_horner(self, rng):
        got, want = [], []
        for degree in range(13):
            for _ in range(40):
                c = rng.standard_normal((2, degree + 1)) * 10.0 ** rng.integers(-8, 8)
                center = complex(*rng.standard_normal(2))
                p = poly.ShiftedPolynomial(center, c[0] + 1j * c[1])
                z = complex(*(3 * rng.standard_normal(2)))
                got.append(poly.evaluate(p, z))
                want.append(numpy_horner(p, z))
        assert all(type(v) is complex for v in got)
        bits = [np.array(v, dtype=complex).view(np.uint64) for v in (got, want)]
        assert np.array_equal(*bits)


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
        assert abs(poly.evaluate(q, z)) == pytest.approx(
            abs(poly.evaluate(p, z)) / scale
        )


class TestDenominatorFromEigvec:
    def test_index_reversal(self):
        den = poly.denominator_from_eigvec([1.0, 0.0, 0.0], 2.0)
        assert np.allclose(den.coeffs, [0.0, 0.0, 1.0])

    def test_constant_case(self):
        den = poly.denominator_from_eigvec([0.0, 0.0, 1.0], 2.0)
        assert np.allclose(den.coeffs, [1.0, 0.0, 0.0])

    def test_round_trip(self, rng):
        q = rng.normal(size=4) + 1j * rng.normal(size=4)
        q = q / np.linalg.norm(q)
        den = poly.denominator_from_eigvec(q, 0.0)
        assert np.array_equal(den.coeffs[::-1], q)

    def test_not_normalized_rejected(self):
        with pytest.raises(NotNormalized):
            poly.denominator_from_eigvec([1.0, 1.0], 0.0)


class TestRoots:
    def test_shifted_quadratic(self):
        p = poly.ShiftedPolynomial(2.0, [-1.0, 0.0, 1.0])  # (z-2)^2 - 1
        assert np.allclose(poly.roots(p), [1.0, 3.0])

    def test_normalized_factored(self):
        p = poly_from_roots(0.0, [1.0, 2.0])
        assert np.allclose(poly.roots(p), [1.0, 2.0], atol=1e-10)

    def test_trimmed_leading_coefficient(self):
        # numerically vanishing leading coefficient: degree drops by one
        p = poly.ShiftedPolynomial(0.0, [-1.0, 1.0, 1e-16])
        c, trimmed = poly.effective_coeffs(p)
        assert trimmed and c.size == 2
        assert np.allclose(poly.roots(p), [1.0])

    def test_constant_rejected(self):
        with pytest.raises(ConstantPolynomial):
            poly.roots(poly.ShiftedPolynomial(0.0, [1.0]))

    def test_sorted_by_distance_from_center(self):
        p = poly_from_roots(5.0, [9.0, 4.0, 7.0])
        r = poly.roots(p)
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
            qz = abs(poly.evaluate(q, z))
            lower = np.prod([abs(r - z) / (1 + abs(r - z0)) for r in roots])
            upper = np.prod([abs(r - z) / abs(r - z0) for r in roots])
            assert qz >= lower - 1e-10
            if min(abs(r - z0) for r in roots) > 1e-6:
                assert qz <= upper + 1e-10


class TestSerialization:
    def test_round_trip(self):
        p = poly.ShiftedPolynomial(1 - 2j, [1.0, 2.0j, -0.5])
        back = poly.poly_from_json(poly.poly_to_json(p))
        assert back.center == p.center
        assert np.array_equal(back.coeffs, p.coeffs)
