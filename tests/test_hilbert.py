import tracemalloc

import numpy as np
import pytest

from pademor import harness, hilbert
from pademor.errors import DimensionMismatch, InvalidWeights, NonFiniteValue, PadeError

from oracles import inner_product


class TestInnerProduct:
    """The inner product of the Gram-Schmidt oracle (oracles.column_mgs)."""

    def test_single_mode_weight(self):
        w = hilbert.InnerProductWeights(np.array([2.0, 1.0]))
        assert inner_product(
            np.array([1, 0]), np.array([1, 0]), w
        ) == pytest.approx(2.0)

    def test_orthogonal_modes(self):
        w = hilbert.InnerProductWeights.l2(2)
        assert inner_product(np.array([1, 0]), np.array([0, 1]), w) == 0.0

    def test_two_term_hand_oracle(self):
        w = hilbert.InnerProductWeights.l2(2)
        val = inner_product(np.array([1, 1j]), np.array([1, 1]), w)
        assert val == pytest.approx(1 + 1j)

    def test_conjugate_symmetry(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, size=5))
        for _ in range(50):
            u = rng.normal(size=5) + 1j * rng.normal(size=5)
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            a = inner_product(u, v, w)
            b = inner_product(v, u, w)
            assert abs(a - np.conj(b)) <= 1e-15 * max(abs(a), 1.0)

    def test_positivity(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, size=4))
        u = rng.normal(size=4) + 1j * rng.normal(size=4)
        assert inner_product(u, u, w).real > 0
        assert inner_product(np.zeros(4), np.zeros(4), w) == 0.0

    def test_cauchy_schwarz(self, rng):
        w = hilbert.InnerProductWeights(rng.uniform(0.1, 10.0, size=6))
        for _ in range(1000):
            u = rng.normal(size=6) + 1j * rng.normal(size=6)
            v = rng.normal(size=6) + 1j * rng.normal(size=6)
            lhs = abs(inner_product(u, v, w))
            rhs = hilbert.norm(u, w) * hilbert.norm(v, w)
            assert lhs <= rhs * (1 + 1e-12)

    def test_dimension_mismatch(self):
        w = hilbert.InnerProductWeights.l2(2)
        with pytest.raises(DimensionMismatch):
            inner_product(np.ones(3), np.ones(3), w)


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

    @pytest.mark.filterwarnings("error")
    def test_overflowing_row_is_rescaled(self):
        # squares of 1e200 overflow; the scaled sum gives the representable
        # norm, and rows that do not overflow keep the plain sum bit for bit
        w = hilbert.InnerProductWeights(np.array([1.0, 4.0]))
        block = np.array([[3e200, 2e200j], [3.0, 2.0j], [np.inf, 1.0]])
        norms = hilbert.norm(block, w)
        assert norms[0] == pytest.approx(5e200, rel=1e-15)
        assert norms[1] == np.sqrt(np.sum(w.weights * np.abs(block[1]) ** 2))
        assert norms[2] == np.inf
        assert hilbert.norm(block[0], w) == norms[0]

    @pytest.mark.filterwarnings("error")
    def test_underflowing_row_is_rescaled(self):
        # squares of 1e-200 underflow to 0 and those of 3e-160 to subnormals;
        # the scaled sum recovers both norms, and a zero row stays 0
        w = hilbert.InnerProductWeights.l2(2)
        assert hilbert.norm([1e-200, 1e-200], w) == pytest.approx(
            np.sqrt(2.0) * 1e-200, rel=1e-15, abs=0.0)
        assert hilbert.norm([3e-160, 4e-160], w) == pytest.approx(5e-160, rel=1e-15, abs=0.0)
        norms = hilbert.norm(np.array([[3e-160, 4e-160j], [0.0, 0.0], [3.0, 4.0]]), w)
        assert norms.tolist() == [hilbert.norm([3e-160, 4e-160], w), 0.0, 5.0]


    def test_one_real_array_of_the_block(self, rng):
        # the weighted squares are taken in place, in one real array of the
        # block's shape, and |u| again only for the rescued rows (here
        # three overflowing ones): the tracemalloc peak stays below 1.5 such
        # arrays (three when |u|, its square and w |u|^2 were held at once)
        block = rng.standard_normal((200, 5000)) + 1j * rng.standard_normal((200, 5000))
        block[:3] *= 1e200
        w = hilbert.InnerProductWeights(rng.uniform(0.5, 2.0, 5000))
        hilbert.norm(block, w)
        tracemalloc.start()
        try:
            norms = hilbert.norm(block, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * block.real.nbytes, peak / block.real.nbytes
        assert np.isfinite(norms).all()


class TestWeights:
    def test_energy_weights(self):
        w = hilbert.InnerProductWeights.energy([2.0, 5.0], 12.0)
        assert np.allclose(w.weights, [14.0, 17.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            hilbert.InnerProductWeights(np.array([1.0, 0.0]))

    @pytest.mark.parametrize("bad", [[1.0, 0.0], [1.0, -1e308], [], [[1.0]]])
    def test_bad_weights_raise_a_typed_error(self, bad):
        # a PadeError for a damaged model file, still the ValueError it was
        with pytest.raises(InvalidWeights, match="non-empty positive 1-d"):
            hilbert.InnerProductWeights(np.array(bad))
        assert issubclass(InvalidWeights, PadeError)
        assert issubclass(InvalidWeights, ValueError)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite(self, bad):
        # a NaN weight passed the positivity test: nan <= 0 is False
        with pytest.raises(NonFiniteValue, match="weights"):
            hilbert.InnerProductWeights([1.0, bad, 1.0])

    def test_rejects_negative_shift(self):
        with pytest.raises(ValueError):
            hilbert.InnerProductWeights.energy([1.0], -1.0)


class TestSerialization:
    def test_pair_round_trip(self):
        pair = hilbert.finite_array(1.5 - 2.5j, "z")
        assert pair.shape == (2,)
        assert hilbert.json_text(pair) == "[1.5,-2.5]"
        assert complex(hilbert.pairs_to_array(pair)) == 1.5 - 2.5j

    def test_real_scalar_is_a_float(self):
        value = hilbert.finite_array(np.array(2.5), "x")
        assert value.shape == () and value.dtype == float
        assert hilbert.json_text(value) == "2.5"

    def test_array_round_trip_bit_for_bit(self):
        z = np.array([[1.5 - 2.5j, complex(-0.0, 0.0)],
                      [complex(0.0, -0.0), complex(1.7976931348623157e308, -1e-310)]])
        pairs = hilbert.finite_array(z.T, "z")  # a strided array is copied to C order
        assert pairs.shape == (2, 2, 2) and pairs.flags.c_contiguous
        assert pairs[1, 1].tolist() == [1.7976931348623157e308, -1e-310]
        for form in (pairs, pairs.tolist()):
            back = hilbert.pairs_to_array(form)
            assert back.shape == z.shape and back.dtype == complex
            assert back.tobytes() == z.T.copy().tobytes()

    @pytest.mark.parametrize("bad", [1.0, [1.0], [[1.0, 2.0, 3.0]], np.zeros((2, 0)),
                                     [[1.0, 0.0], [2.0]], [[1.0, 0.0], [2.0, 0.0, 1.0]]])
    def test_pairs_need_a_trailing_axis_of_two(self, bad):
        # [1.0] made NumPy's view raise ValueError, and ragged lists NumPy's
        # array constructor
        with pytest.raises(DimensionMismatch, match="pairs"):
            hilbert.pairs_to_array(bad)

    def test_text_form(self):
        assert harness.complex_to_text(1 + 2j) == "1+2j"
        assert harness.complex_to_text(1 - 2j) == "1-2j"
