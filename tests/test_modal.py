import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pademor import modal, numerics, pade
from pademor.errors import (
    CenterOnPole,
    DuplicatePoles,
    EigenvalueTooLarge,
    LengthMismatch,
    NonFiniteValue,
    PoleEvaluation,
    QuadratureNotConverged,
)

from pademor.hilbert import InnerProductWeights, json_text

from oracles import doubled_order_converged, gauss_rule, recursive_taylor

U = np.finfo(float).eps / 2  # unit roundoff


def seed_groups(model):
    """(eigenvalue, mode indices) per group: modes sorted by (Re, Im) and
    grouped while within POLE_GROUP_TOL of the group's first eigenvalue."""
    order = sorted(
        range(model.dimension),
        key=lambda k: (model.eigenvalues[k].real, model.eigenvalues[k].imag),
    )
    groups = []
    for k in order:
        lam = model.eigenvalues[k]
        if groups and abs(lam - groups[-1][0]) <= modal.POLE_GROUP_TOL:
            groups[-1][1].append(k)
        else:
            groups.append([lam, [k]])
    return [(complex(lam), np.array(idx)) for lam, idx in groups]


def seed_pole_list(model, z0):
    """Test oracle: the original per-call grouping of pole_list.  Groups
    (seed_groups) are kept if the grouped residue norm exceeds
    DROP_THRESHOLD * ||source||; then sorted by distance from z0."""
    z0 = complex(z0)
    floor = modal.DROP_THRESHOLD * model.source_norm()
    out = []
    for lam, idx in seed_groups(model):
        rnorm = float(
            np.sqrt(
                np.sum(
                    model.weights.weights[idx] * np.abs(model.coefficients[idx]) ** 2
                )
            )
        )
        if rnorm > floor:
            out.append((lam, rnorm))
    return sorted(out, key=lambda pr: (abs(pr[0] - z0), pr[0].real, pr[0].imag))


def assert_residue_norms_accurate(model):
    """Each retained residue norm r against r0 = sqrt(math.fsum(masses)),
    the masses w |c|^2 of its group's n modes as _retained_poles forms them.

    Summed in any order, n nonnegative terms are within gamma(n - 1) =
    (n - 1) u / (1 - (n - 1) u) of their sum, relatively, and the square
    root halves that; fsum rounds once (u, halved by the root) and each
    square root once (u).  To first order |r - r0| <= (gamma(n - 1) / 2 +
    5u / 2) r0, and the bound (gamma(n - 1) + 3u) r0 also covers the
    second-order terms.

    A group whose sum overflows is compared on its coefficients scaled by
    2^-s, which is exact, with r0 scaled back by 2^s.  Its norm is
    hilbert.norm's, which divides each |c| by the largest one before it
    squares and weighs: each term is within 4u of the exact w |c|^2 and
    each scaled mass within 2u, 3u apart after the root; the root is then
    multiplied by the largest |c| (u).  That is 4u more: (gamma(n - 1) + 7u) r0.
    """
    w, c = model.weights.weights, model.coefficients
    floor = modal.DROP_THRESHOLD * model.source_norm()
    kept = []
    for lam, idx in seed_groups(model):
        n, s, extra = idx.size, 0, 0.0
        with np.errstate(over="ignore"):
            masses = w[idx] * np.abs(c[idx]) ** 2
            overflows = not np.isfinite(masses.sum())
        if overflows:
            s, extra = math.frexp(float(np.abs(c[idx]).max()))[1], 4 * U
            masses = w[idx] * np.abs(np.ldexp(c[idx].real, -s)
                                     + 1j * np.ldexp(c[idx].imag, -s)) ** 2
        r0 = math.ldexp(math.sqrt(math.fsum(masses.tolist())), s)
        if r0 > floor:
            kept.append((lam, r0, ((n - 1) * U / (1 - (n - 1) * U) + 3 * U + extra) * r0))
    assert model.poles.tolist() == [lam for lam, _, _ in kept]
    for r, (lam, r0, bound) in zip(model.residue_norms.tolist(), kept):
        assert abs(r - r0) <= bound, (lam, r, r0)


def helmholtz_modes(model, max_index=modal.DEFAULT_MAX_INDEX):
    """(m, n) of each mode of a Helmholtz model, by its documented order."""
    k = np.arange(model.dimension)
    return k // max_index + 1, k % max_index + 1


def l2_model(eigenvalues, coefficients):
    return modal.ModalModel(eigenvalues, coefficients,
                            modal.InnerProductWeights.l2(len(eigenvalues)))


def with_tiny_residue():
    """Equal eigenvalues 3 (two modes) plus a pole whose residue is dropped."""
    return l2_model([1.0, 2.0, 3.0, 3.0], [1.0, 1e-16, 0.5, 0.5j])


def grouped_model(rng):
    """A random model whose eigenvalues come in groups of 1 to 16 equal or
    near-equal modes, offsets up to 2e-12 about the group's value, some of
    whose masses overflow."""
    sizes = rng.integers(1, 17, rng.integers(1, 30))
    centers = rng.permutation(np.arange(sizes.size)) + 1j * rng.integers(0, 2, sizes.size)
    offsets = rng.choice([0.0, 0.0, 3e-13, 9e-13, 2e-12], sizes.sum())
    lam = np.repeat(centers, sizes) + offsets * rng.choice([1, -1, 1j], sizes.sum())
    coef = (rng.standard_normal(lam.size) + 1j * rng.standard_normal(lam.size)) \
        * 10.0 ** rng.choice([-9, 0, 3, 160], lam.size, p=[0.2, 0.5, 0.29, 0.01])
    return modal.ModalModel(lam, coef, InnerProductWeights(rng.uniform(0.5, 40.0, lam.size)))


class TestBuildSynthetic:
    def test_two_modes_source_norm(self, two_pole):
        assert two_pole.source_norm() == pytest.approx(np.sqrt(2.0))

    def test_single_pole_map(self):
        m = modal.build_synthetic([5.0], [3.0])
        assert np.allclose(modal.evaluate_exact(m, 4.0), [3.0])

    def test_orthogonal_sum(self, three_pole):
        assert three_pole.source_norm() ** 2 == pytest.approx(1 + 0.25 + 1 / 16)

    def test_duplicate_poles_rejected(self):
        with pytest.raises(DuplicatePoles):
            modal.build_synthetic([1.0, 1.0 + 1e-12], [1.0, 1.0])

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            modal.build_synthetic([1.0, 2.0], [1.0])

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    def test_non_positive_residue_norm(self, bad):
        with pytest.raises(ValueError, match="residue norms must be positive"):
            modal.build_synthetic([1.0, 2.0], [1.0, bad])

    def test_model_array_lengths_checked(self):
        w = modal.InnerProductWeights.l2(2)
        with pytest.raises(LengthMismatch):
            modal.ModalModel([1.0, 2.0], [1.0], w)
        with pytest.raises(LengthMismatch):
            modal.ModalModel([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], w)

    def test_non_finite_entry_rejected(self):
        # |nan - x| > tol is False: the NaN mode joined the group of 4 + 0.5i,
        # whose residue norm read 1.0308, not 0.25
        w = modal.InnerProductWeights.l2(3)
        with pytest.raises(NonFiniteValue):
            modal.ModalModel([math.nan, 2.0, 4 + 0.5j], [1.0, 0.5, 0.25], w)
        with pytest.raises(NonFiniteValue):
            modal.ModalModel([1.0, 2.0, 4 + 0.5j], [1.0, math.inf, 0.25], w)

    @pytest.mark.parametrize("pole", [1.5e308 + 1.5e308j, 2.0**1021, -(2.0**1021) * 1j])
    def test_eigenvalue_part_beyond_limit_rejected(self, pole):
        # abs of a difference with such a pole can overflow (OverflowError)
        w = modal.InnerProductWeights.l2(2)
        with pytest.raises(EigenvalueTooLarge):
            modal.ModalModel([0.0, pole], [1.0, 1.0], w)
        with pytest.raises(EigenvalueTooLarge):
            modal.build_synthetic([0.0, pole], [1.0, 1.0])

    def test_eigenvalue_parts_just_below_limit_accepted(self):
        part = np.nextafter(modal.COORDINATE_LIMIT, 0.0)
        m = modal.build_synthetic([complex(part, part), complex(-part, -part)], [1.0, 1.0])
        assert m.poles.size == 2


class TestBuildHelmholtz:
    def test_eigenvalue_multiset_low_modes(self, helmholtz):
        m, n = helmholtz_modes(helmholtz)
        low = np.maximum(m, n) <= 3
        got = sorted(helmholtz.eigenvalues[low].real)
        assert got == [2, 5, 5, 8, 10, 10, 13, 13, 18]

    def test_mode_order(self, helmholtz):
        m, n = helmholtz_modes(helmholtz)
        assert helmholtz.dimension == 1600
        assert (m[:2].tolist(), n[:2].tolist()) == ([1, 1], [1, 2])
        assert np.array_equal(helmholtz.eigenvalues, m * m + n * n)
        small = modal.build_rectangle_helmholtz(max_index=5)
        m, n = helmholtz_modes(small, 5)
        assert np.array_equal(small.eigenvalues, m * m + n * n)
        assert small.eigenvalues[5:7].tolist() == [5, 8]  # (2, 1), (2, 2)

    def test_paper_pole_ordering(self, helmholtz, paper_z0):
        poles = modal.pole_list(helmholtz, paper_z0)
        assert poles[:3] == [13, 10, 8]

    def test_energy_weights(self, helmholtz):
        assert helmholtz.weights.weights[0] == pytest.approx(
            helmholtz.eigenvalues[0].real + 12.0
        )

    def test_one_gauss_rule_per_order(self, monkeypatch):
        orders = []
        gauss_legendre = modal.gauss_legendre

        def counted(order):
            orders.append(order)
            return gauss_legendre(order)

        monkeypatch.setattr(modal, "gauss_legendre", counted)
        modal.build_rectangle_helmholtz(max_index=6, quad_order=40)
        assert orders == [40]  # the half-interval check reuses the one rule

    def test_gauss_rule_bit_identical_to_numpy(self):
        leggauss = np.polynomial.legendre.leggauss
        for order in [*range(2, 201), 256, 400]:
            for got, want in zip(numerics.gauss_legendre(order), leggauss(order)):
                assert np.array_equal(got.view(np.int64), want.view(np.int64)), order

    def test_second_build_runs_no_clenshaw_pass(self, monkeypatch):
        passes = []
        legendre_series = numerics._legendre_series

        def counted(x, c):
            passes.append(x.size)
            return legendre_series(x, c)

        monkeypatch.setattr(numerics, "_legendre_series", counted)
        numerics.gauss_legendre.cache_clear()
        modal.build_rectangle_helmholtz(max_index=6, quad_order=40)
        assert passes == [40, 40]
        modal.build_rectangle_helmholtz(max_index=7, quad_order=40, nu_sq=5.0)
        assert passes == [40, 40]  # the memoized rule
        modal.build_rectangle_helmholtz(max_index=6, quad_order=41)
        assert passes == [40, 40, 41, 41]

    def test_gauss_rule_cannot_be_written_through(self):
        want = [a.tobytes() for a in numerics.gauss_legendre(32)]
        for a in numerics.gauss_legendre(32):
            with pytest.raises(ValueError):
                a[0] = 1.0
            with pytest.raises(ValueError):
                a *= 2.0
            with pytest.raises(ValueError):
                a.flags.writeable = True
        assert [a.tobytes() for a in numerics.gauss_legendre(32)] == want

    def test_warm_rule_builds_the_cold_model(self):
        numerics.gauss_legendre.cache_clear()
        cold = modal.build_rectangle_helmholtz(max_index=8, quad_order=48)
        warm = modal.build_rectangle_helmholtz(max_index=8, quad_order=48)
        info = numerics.gauss_legendre.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert warm.coefficients.tobytes() == cold.coefficients.tobytes()

    def test_failed_rule_is_not_memoized(self, monkeypatch):
        def out_of_memory(x, c):
            raise MemoryError("Unable to allocate")

        numerics.gauss_legendre.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(numerics, "_legendre_series", out_of_memory)
            with pytest.raises(MemoryError):
                numerics.gauss_legendre(24)
        for got, want in zip(numerics.gauss_legendre(24),
                             np.polynomial.legendre.leggauss(24)):
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_build_leaves_numpy_polynomial_unloaded(self, tmp_path):
        # a fresh process builds the default model, then runs a small
        # Helmholtz convergence study (12 modes per direction, two probes)
        config = tmp_path / "helmholtz.json"
        config.write_text(json.dumps({
            "model": {"kind": "helmholtz", "max_index": 12, "quad_order": 64},
            "z0": [12.0, 0.5], "K": [9.0, 15.0], "M_list": [2, 4], "N": 2,
            "z_probes": [[9.0, 0.0], [11.0, 0.0]]}))
        src = str(Path(modal.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import pademor.cli; "
                "from pademor import modal; modal.build_rectangle_helmholtz(); "
                "rc = pademor.cli.main(['convergence', '--config', sys.argv[2], "
                "'--out', sys.argv[3]]); "
                "sys.exit(rc or 'numpy.polynomial' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code, src, str(config),
                               str(tmp_path / "helmholtz.csv")],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")

    def test_quadrature_refinement_stable(self):
        a = modal._helmholtz_coefficients(10, 12.0, np.pi / 3, *gauss_rule(64))
        b = modal._helmholtz_coefficients(10, 12.0, np.pi / 3, *gauss_rule(128))
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

    # (nu^2, theta, max_index, smallest quad_order both checks accept)
    QUADRATURE_BOUNDARIES = [
        (12.0, np.pi / 3, 10, 23), (12.0, np.pi / 3, 20, 34),
        (12.0, np.pi / 3, 40, 54), (12.0, np.pi / 3, 60, 72),
        (12.0, np.pi / 3, 100, 108), (12.0, np.pi / 3, 150, 152),
        (300.0, 0.3, 10, 38), (300.0, 0.3, 20, 46), (300.0, 0.3, 40, 65),
        (300.0, 0.3, 60, 84), (300.0, 0.3, 100, 119), (300.0, 0.3, 150, 162),
    ]

    @pytest.mark.parametrize("nu_sq, theta, max_index, q", QUADRATURE_BOUNDARIES)
    def test_half_interval_check_matches_doubled_order(self, nu_sq, theta, max_index, q):
        for order, converged in ((q - 1, False), (q, True)):
            assert doubled_order_converged(max_index, nu_sq, theta, order) is converged
            try:
                modal.build_rectangle_helmholtz(max_index, nu_sq, theta, order)
                accepted = True
            except QuadratureNotConverged:
                accepted = False
            assert accepted is converged, order

    def test_too_coarse_rule_raises(self):
        with pytest.raises(QuadratureNotConverged, match="each half"):
            modal.build_rectangle_helmholtz(max_index=40, quad_order=53)
        modal.build_rectangle_helmholtz(max_index=40, quad_order=54)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            modal.build_rectangle_helmholtz(max_index=3)
        with pytest.raises(ValueError):
            modal.build_rectangle_helmholtz(quad_order=10)
        with pytest.raises(ValueError):
            modal.build_rectangle_helmholtz(nu_sq=-1.0)

    def test_truncation_audit(self, helmholtz, paper_z0):
        # enlarging the mode cutoff must not move the acceptance-level results
        big = modal.build_rectangle_helmholtz(max_index=60, quad_order=160)
        params = pade.BuildParams(paper_z0, 8, 2, 8, "fast")
        r40 = pade.approximant_poles(pade.build(helmholtz, params))
        r60 = pade.approximant_poles(pade.build(big, params))
        assert max(abs(a - b) for a, b in zip(r40, r60)) < 1e-8


class TestEvaluateExact:
    def test_single_pole_values(self):
        m = modal.build_synthetic([2.0], [1.0])
        assert np.allclose(modal.evaluate_exact(m, 1.0), [1.0])
        assert np.allclose(modal.evaluate_exact(m, 0.0), [0.5])

    def test_norm_bound(self, three_pole, rng):
        # ||S(z)|| <= ||v*|| / dist(z, poles)
        lam = three_pole.eigenvalues
        for _ in range(100):
            z = complex(rng.uniform(-5, 10), rng.uniform(-5, 5))
            d = np.min(np.abs(lam - z))
            if d < 1e-6:
                continue
            s = modal.evaluate_exact(three_pole, z)
            assert np.linalg.norm(s) <= three_pole.source_norm() / d * (1 + 1e-12)

    def test_pole_evaluation_error(self, two_pole):
        with pytest.raises(PoleEvaluation) as err:
            modal.evaluate_exact(two_pole, 1.0)
        assert err.value.pole == 1.0

    @pytest.mark.filterwarnings("error")
    def test_point_beyond_coordinate_limit_without_warning(self, two_pole):
        # coefficient / (eigenvalue - z) overflows in an intermediate of the
        # complex division, while the quotient itself underflows toward 0
        row = modal.evaluate_exact(two_pole, 1.7e308 + 1.7e308j)
        assert np.all(np.isfinite(row)) and np.all(np.abs(row) < 1e-300)

    @pytest.mark.filterwarnings("error")
    def test_at_a_dropped_pole_without_warning(self):
        # 2 is no retained pole (its residue is dropped), so S is evaluated
        # on its eigenvalue: the grid's row, not a divide-by-zero warning
        m = l2_model([1.0, 2.0], [1.0, 1e-16])
        row = modal.evaluate_exact(m, 2.0)
        assert row.tobytes() == modal.evaluate_exact_grid(m, [2.0])[0][0].tobytes()
        assert row[0] == -1.0 and np.isinf(row[1])

    def test_partial_fraction_consistency(self, helmholtz, rng):
        lam = helmholtz.eigenvalues
        coef = helmholtz.coefficients
        for _ in range(10):
            z = complex(rng.uniform(9, 15), rng.uniform(0.3, 2.0))
            s = modal.evaluate_exact(helmholtz, z)
            ref = coef / (lam - z)
            assert np.allclose(s, ref, rtol=1e-13)


class TestEvaluateExactGrid:
    def test_rows_equal_pointwise(self, helmholtz, rng):
        points = rng.uniform(9, 15, 7) + 1j * rng.uniform(-1, 1, 7)
        rows, dist = modal.evaluate_exact_grid(helmholtz, points)
        assert rows.shape == (7, helmholtz.dimension)
        for z, row, d in zip(points, rows, dist):
            assert np.array_equal(row, modal.evaluate_exact(helmholtz, z))
            assert d == modal.nearest_pole(helmholtz, z)[1]

    def test_pole_rows_are_inf(self, two_pole):
        rows, dist = modal.evaluate_exact_grid(two_pole, [1.0, 2.0 + 1e-13, 3.0])
        assert np.all(np.isinf(rows[:2])) and np.all(np.isfinite(rows[2]))
        # an inf row is on a pole of S: its distance reads 0
        assert dist.tolist() == [0.0, 0.0, 1.0]

    def test_no_retained_pole(self):
        m = modal.ModalModel([2.0], [0.0], InnerProductWeights.l2(1))
        rows, dist = modal.evaluate_exact_grid(m, [0.0, 1.0])
        assert dist.tolist() == [np.inf, np.inf]
        assert rows.tolist() == [[0j], [0j]]


class TestTaylor:
    def test_single_pole_geometric(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 5)
        assert t.coeffs[3, 0] == pytest.approx(0.0625)

    def test_order_zero_is_evaluation(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3 + 0.1j, 0)
        assert np.allclose(t.coeffs[0], modal.evaluate_exact(three_pole, 0.3 + 0.1j))

    def test_recursion_agrees_with_closed_form(self, three_pole):
        z0 = 0.3 + 0.1j
        a = modal.taylor_coefficients(three_pole, z0, 10)
        b = recursive_taylor(three_pole, z0, 10)
        assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * np.max(
            np.abs(a.coeffs)
        )

    def test_recursive_single_pole(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = recursive_taylor(m, 0.0, 1)
        assert t.coeffs[1, 0] == pytest.approx(0.25)

    def test_center_on_pole_rejected(self, two_pole):
        with pytest.raises(CenterOnPole):
            modal.taylor_coefficients(two_pole, 2.0, 3)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_power_gives_zero(self):
        # 1000^(g+1) overflows from g = 102 on; 2^(g+1) never does here
        m = modal.build_synthetic([1000.0, 2.0], [1.0, 1.0])
        t = modal.taylor_coefficients(m, 0.0, 200)
        g = np.arange(201)
        assert np.all(t.coeffs[102:, 0] == 0.0)
        assert np.allclose(t.coeffs[:102, 0], 1000.0 ** -(g[:102] + 1.0),
                           rtol=1e-13, atol=0.0)
        assert np.allclose(t.coeffs[:, 1], 2.0 ** -(g + 1.0), rtol=1e-13, atol=0.0)

    @pytest.mark.filterwarnings("error")
    def test_coefficient_not_finite_near_pole(self, helmholtz):
        # 1e-9 from the pole 13 passes the 1e-10 center check, but
        # c / (1e-9 i)^(g+1) is not finite long before g = 40
        with pytest.raises(CenterOnPole,
                           match=r"1\.000e-09 from eigenvalue \(13\+0j\).* order \d+ "):
            modal.taylor_coefficients(helmholtz, 13 + 1e-9j, 40)


class TestZeroSourceCoefficient:
    """nu^2 = 13 = 2^2 + 3^2: the modes (2, 3) and (3, 2) have source
    coefficient exactly 0, so S is analytic at their eigenvalue 13."""

    @pytest.fixture(scope="class")
    def model(self):
        return modal.build_rectangle_helmholtz(max_index=8, nu_sq=13.0)

    def zero_modes(self, model):
        zero = model.coefficients == 0
        assert model.eigenvalues[zero].tolist() == [13, 13]
        return zero

    @pytest.mark.filterwarnings("error")
    def test_resolvent_at_the_eigenvalue(self, model):
        zero = self.zero_modes(model)
        s = modal.evaluate_exact(model, 13.0)
        rows, dist = modal.evaluate_exact_grid(model, [12.0, 13.0])
        assert np.all(s[zero] == 0) and np.all(np.isfinite(s))
        assert np.array_equal(rows[1], s) and np.all(rows[:, zero] == 0)
        assert dist[1] == 3.0  # from the nearest retained pole, 10

    @pytest.mark.filterwarnings("error")
    def test_taylor_at_the_eigenvalue(self, model):
        zero = self.zero_modes(model)
        t = modal.taylor_coefficients(model, 13.0, 6)
        assert np.all(t.coeffs[:, zero] == 0)
        assert np.all(np.isfinite(t.coeffs))
        live = modal.taylor_coefficients(model, 13.0 + 0.5j, 6).coeffs
        assert np.all(live[:, zero] == 0) and np.all(live[:, ~zero] != 0)


class TestPoleList:
    def test_nearest_pole_without_retained_poles(self):
        m = l2_model([1.0, 2.0], [0.0, 0.0])  # a zero source drops every pole
        assert modal.nearest_pole(m, 1.0) == (None, math.inf)

    def test_synthetic_order(self, two_pole):
        assert modal.pole_list(two_pole, 0.0) == [1.0, 2.0]

    def test_tie_breaks_by_real_part(self):
        z0 = 3.0
        m = modal.build_synthetic([z0 + 1, z0 - 1], [1.0, 1.0])
        assert modal.pole_list(m, z0) == [z0 - 1, z0 + 1]

    @pytest.mark.filterwarnings("error")
    def test_center_beyond_coordinate_limit(self, two_pole):
        # both distances overflow to inf: the stable sort keeps (Re, Im) order
        poles = modal.pole_list(two_pole, 1.7e308 + 1.7e308j)
        assert poles == [1 + 0j, 2 + 0j]
        assert all(type(lam) is complex for lam in poles)

    def test_groups_equal_eigenvalues(self, helmholtz, paper_z0):
        # (m, n) and (n, m) modes share one eigenvalue and one pole entry
        poles = modal.pole_list(helmholtz, paper_z0)
        assert len(poles) == len(set(poles)) == helmholtz.poles.size

    def test_parseval(self, helmholtz, two_pole):
        for model in (helmholtz, two_pole):
            total = sum(r**2 for r in model.residue_norms.tolist())
            assert total == pytest.approx(model.source_norm() ** 2, rel=1e-12)

    def test_drop_threshold_removes_tiny_residues(self):
        m = l2_model([1.0, 2.0], [1.0, 1e-16])
        assert modal.pole_list(m, 0.0) == [1.0]
        assert m.residue_norms.tolist() == [1.0]


class TestRetainedPoles:
    @pytest.mark.parametrize("name", ["helmholtz", "three_pole", "tiny_residue"])
    def test_matches_seed_grouping(self, name, request):
        model = (with_tiny_residue() if name == "tiny_residue"
                 else request.getfixturevalue(name))
        by_position = sorted(seed_pole_list(model, 0.0),
                             key=lambda pr: (pr[0].real, pr[0].imag))
        assert model.poles.tolist() == [lam for lam, _ in by_position]
        assert_residue_norms_accurate(model)
        for z0 in (0.0, 2.5 + 0.1j, 12 + 0.5j, 3.0):
            assert modal.pole_list(model, z0) == [lam for lam, _ in seed_pole_list(model, z0)]

    def test_residue_norms_accurate(self, rng):
        # the groups of 8 equal eigenvalues of max_index 40 included; some
        # grouped_model sums overflow
        models = [modal.build_rectangle_helmholtz(max_index=k) for k in range(4, 41)]
        models += [grouped_model(rng) for _ in range(200)]
        for model in models:
            assert_residue_norms_accurate(model)

    @pytest.mark.filterwarnings("error")
    def test_group_sum_overflows_without_warning(self):
        # each mass 1e308 is finite, their sum is not; hilbert.norm's rescue
        # gives sqrt(2) * 1e154 = 1.41421356237309510e154 one ulp high
        model = l2_model([1.0, 1.0], [1e154, 1e154])
        assert model.residue_norms.tolist() == [1.4142135623730953e154]
        assert_residue_norms_accurate(model)

    @pytest.mark.filterwarnings("error")
    def test_group_sum_underflows(self):
        # each mass underflows to 0: no pole was kept
        norms = [1e-170, 5e-171, 2.5e-171]
        model = modal.build_synthetic([1.0, 2.0, 4 + 0.5j], norms)
        assert model.poles.tolist() == [1.0, 2.0, 4 + 0.5j]
        assert model.residue_norms.tolist() == norms

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        sites=st.lists(st.tuples(st.integers(-40, 40), st.integers(-8, 8)),
                       min_size=1, max_size=8, unique=True),
        mantissas=st.lists(st.floats(2.0**-20, 2.0**20), min_size=8, max_size=8),
        k=st.integers(-1000, 1000),
    )
    def test_residue_norms_scale_with_the_source(self, sites, mantissas, k):
        """S is linear in the source: residue norms scaled by 2^k keep every
        pole and scale every residue norm.

        The residue norm of a one-mode pole of residue R is sqrt(fl(R^2)),
        within (u / 2 + u) R of R to first order and within 2u R in all,
        when R^2 is normal; when it overflows or underflows, hilbert.norm's
        rescued sum R * sqrt((R / R)^2) is R exactly.  With R between
        2^-1020 and 2^1020 the scaling is exact, so the computed norms r_k
        and r are each within 2u of their exact values 2^k R and R:
        |r_k - 2^k r| <= 4u 2^k R <= 4u / (1 - 2u) 2^k r.  The largest
        residue is at most 2^40 times the smallest, so no pole falls below
        the drop threshold of 1e-14 of the source norm on either side.
        """
        poles = [complex(a / 4, b / 8) for a, b in sites]
        residues = mantissas[: len(poles)]
        base = modal.build_synthetic(poles, residues)
        scaled = modal.build_synthetic(poles, [math.ldexp(r, k) for r in residues])
        assert scaled.poles.tobytes() == base.poles.tobytes()
        for rk, r in zip(scaled.residue_norms.tolist(), base.residue_norms.tolist()):
            assert abs(rk - math.ldexp(r, k)) <= 4 * U / (1 - 2 * U) * math.ldexp(r, k)

    def test_tiny_residue_dropped_and_equal_eigenvalues_grouped(self):
        model = with_tiny_residue()
        assert model.poles.tolist() == [1.0, 3.0]
        assert model.residue_norms.tolist() == [1.0, np.sqrt(0.5)]

    def test_pole_evaluation_reports_nearest_pole(self):
        # two poles within 1e-12 of z; the error names the nearer one
        m = l2_model([1.0, 1.0 + 1.5e-12], [1.0, 1.0])
        with pytest.raises(PoleEvaluation) as err:
            modal.evaluate_exact(m, 1.0 + 1e-12)
        assert err.value.pole == 1.0 + 1.5e-12

    def test_pole_evaluation_tie_breaks_by_real_then_imaginary(self):
        m = l2_model([0.75e-12j, -0.75e-12j], [1.0, 1.0])
        with pytest.raises(PoleEvaluation) as err:
            modal.evaluate_exact(m, 0.0)
        assert err.value.pole == -0.75e-12j


class TestSerialization:
    def test_round_trip(self, helmholtz, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json_text(modal.model_to_json(helmholtz)))
        with open(path) as fh:
            back = modal.model_from_json(json.load(fh))
        for name in ("eigenvalues", "coefficients", "poles", "residue_norms"):
            assert getattr(back, name).tobytes() == getattr(helmholtz, name).tobytes()
        assert back.weights.weights.tobytes() == helmholtz.weights.weights.tobytes()

    def test_synthetic_round_trip(self, three_pole):
        back = modal.model_from_json(modal.model_to_json(three_pole))
        assert np.allclose(back.eigenvalues, three_pole.eigenvalues)
        assert back.weights.weights.tolist() == [1.0, 1.0, 1.0]

    def test_non_finite_coefficient_rejected(self, three_pole):
        # the model built with 0 poles
        obj = modal.model_to_json(three_pole)
        obj["coefficients"] = obj["coefficients"].copy()
        obj["coefficients"][1, 0] = math.inf
        with pytest.raises(NonFiniteValue):
            modal.model_from_json(obj)

    def test_three_array_layout(self, helmholtz, three_pole):
        obj = modal.model_to_json(helmholtz)
        assert sorted(obj) == ["coefficients", "eigenvalues", "weights"]
        assert len(obj["eigenvalues"]) == len(obj["weights"]) == helmholtz.dimension
        assert obj["eigenvalues"][1].tolist() == [5.0, 0.0]
        c = helmholtz.coefficients[1]
        assert obj["coefficients"][1].tolist() == [c.real, c.imag]
        assert obj["weights"][1] == 17.0  # 1 + 4 plus the shift nu^2 = 12
        assert json_text(modal.model_to_json(three_pole)) == (
            '{"coefficients":[[1.0,0.0],[0.5,0.0],[0.25,0.0]],'
            '"eigenvalues":[[1.0,0.0],[2.0,0.0],[4.0,0.0]],'
            '"weights":[1.0,1.0,1.0]}')
