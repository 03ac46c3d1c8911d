import numpy as np
import pytest

from pademor import hilbert
from pademor.errors import DimensionMismatch


class TestInnerProduct:
    def test_single_mode_weight(self):
        w = hilbert.InnerProductWeights(np.array([2.0, 1.0]))
        assert hilbert.inner_product(
            np.array([1, 0]), np.array([1, 0]), w
        ) == pytest.approx(2.0)

    def test_orthogonal_modes(self):
        w = hilbert.InnerProductWeights.l2(2)
        assert hilbert.inner_product(np.array([1, 0]), np.array([0, 1]), w) == 0.0

    def test_two_term_hand_oracle(self):
        w = hilbert.InnerProductWeights.l2(2)
        val = hilbert.inner_product(np.array([1, 1j]), np.array([1, 1]), w)
        assert val == pytest.approx(1 + 1j)

    def test_conjugate_symmetry(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, size=5))
        for _ in range(50):
            u = rng.normal(size=5) + 1j * rng.normal(size=5)
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            a = hilbert.inner_product(u, v, w)
            b = hilbert.inner_product(v, u, w)
            assert abs(a - np.conj(b)) <= 1e-15 * max(abs(a), 1.0)

    def test_positivity(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, size=4))
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert hilbert.inner_product(u, u, w).real > 0
        assert hilbert.inner_product(np.zeros(4), np.zeros(4), w) == 0.0

    def test_cauchy_schwarz(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.1, 10.0, size=6))
        for _ in range(1000):
            u = rng.normal(size=6) + 1j * rng.normal(size=6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            lhs = abs(hilbert.inner_product(u, v, w))
            rhs = hilbert.norm(u, w) * hilbert.norm(v, w)
            assert lhs <= rhs * (1 + 1e-12)

    def test_dimension_mismatch(self):
        w = hilbert.InnerProductWeights.l2(2)
        with pytest.raises(DimensionMismatch):
            hilbert.inner_product(np.ones(3), np.ones(3), w)


class TestNorm:
    def test_weighted_single_mode(self):
        w = hilbert.InnerProductWeights(np.array([4.0]))
        assert hilbert.norm(np.array([1.0]), w) == pytest.approx(2.0)

    def test_zero_vector(self):
        w = hilbert.InnerProductWeights.l2(3)
        assert hilbert.norm(np.zeros(3), w) == 0.0

    def test_pythagorean(self):
        w = hilbert.InnerProductWeights.l2(2)
        assert hilbert.norm(np.array([3.0, 4.0j]), w) == pytest.approx(5.0)

    def test_rows_of_a_block(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, 5))
        block = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
        norms = hilbert.norm(block, w)
        assert norms.shape == (4,)
        assert norms.tolist() == [hilbert.norm(row, w) for row in block]

    @pytest.mark.parametrize("shape", [(), (4,), (2, 4), (2, 2, 5)])
    def test_dimension_mismatch(self, shape):
        with pytest.raises(DimensionMismatch):
            hilbert.norm(np.ones(shape), hilbert.InnerProductWeights.l2(5))


class TestWeights:
    def test_energy_weights(self):
        w = hilbert.InnerProductWeights.energy([2.0, 5.0], 12.0)
        assert np.allclose(w.weights, [14.0, 17.0])
        assert w.kind == "energy" and w.shift == 12.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hilbert.InnerProductWeights(np.array([1.0, 0.0]))

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            hilbert.InnerProductWeights.energy([1.0], -1.0)


class TestSerialization:
    def test_pair_round_trip(self):
        z = 1.5 - 2.5j
        assert hilbert.pair_to_complex(hilbert.complex_to_pair(z)) == z

    def test_text_form(self):
        assert hilbert.complex_to_text(1 + 2j) == "1+2j"
        assert hilbert.complex_to_text(1 - 2j) == "1-2j"
