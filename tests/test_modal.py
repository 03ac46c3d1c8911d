import numpy as np
import pytest

from pademor import modal, pade
from pademor.errors import (
    CenterOnPole,
    DuplicatePoles,
    LengthMismatch,
    PoleEvaluation,
)

from pademor.hilbert import InnerProductWeights

from oracles import recursive_taylor


def seed_pole_list(model, z0):
    """Test oracle: the original per-call grouping of pole_list.  Modes are
    sorted by (Re, Im), grouped while within POLE_GROUP_TOL of the group's
    first eigenvalue, and kept if the grouped residue norm exceeds
    drop_threshold * ||source||; then sorted by distance from z0."""
    z0 = complex(z0)
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
    floor = model.drop_threshold * model.source_norm()
    out = []
    for lam, idx in groups:
        idx = np.array(idx)
        rnorm = float(
            np.sqrt(
                np.sum(
                    model.weights.weights[idx] * np.abs(model.coefficients[idx]) ** 2
                )
            )
        )
        if rnorm > floor:
            out.append((complex(lam), rnorm))
    return sorted(out, key=lambda pr: (abs(pr[0] - z0), pr[0].real, pr[0].imag))


def l2_model(eigenvalues, coefficients):
    return modal.ModalModel(eigenvalues, coefficients,
                            modal.InnerProductWeights.l2(len(eigenvalues)))


def with_tiny_residue():
    """Equal eigenvalues 3 (two modes) plus a pole whose residue is dropped."""
    return l2_model([1.0, 2.0, 3.0, 3.0], [1.0, 1e-16, 0.5, 0.5j])


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

    def test_model_array_lengths_checked(self):
        w = modal.InnerProductWeights.l2(2)
        with pytest.raises(LengthMismatch):
            modal.ModalModel([1.0, 2.0], [1.0], w)
        with pytest.raises(LengthMismatch):
            modal.ModalModel([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], w)


class TestBuildHelmholtz:
    def test_eigenvalue_multiset_low_modes(self, helmholtz):
        low = helmholtz.tags.max(axis=1) <= 3
        got = sorted(helmholtz.eigenvalues[low].real)
        assert got == [2, 5, 5, 8, 10, 10, 13, 13, 18]

    def test_tags_label_modes(self, helmholtz):
        m, n = helmholtz.tags.T
        assert helmholtz.tags.shape == (1600, 2)
        assert helmholtz.tags[:2].tolist() == [[1, 1], [1, 2]]
        assert np.array_equal(helmholtz.eigenvalues, m * m + n * n)

    def test_paper_pole_ordering(self, helmholtz, paper_z0):
        poles = [lam for lam, _ in modal.pole_list(helmholtz, paper_z0)]
        assert poles[:3] == [13, 10, 8]

    def test_energy_weights(self, helmholtz):
        assert helmholtz.weights.kind == "energy"
        assert helmholtz.weights.shift == 12.0
        assert helmholtz.weights.weights[0] == pytest.approx(
            helmholtz.eigenvalues[0].real + 12.0
        )

    def test_one_gauss_rule_per_order(self, monkeypatch):
        orders = []
        leggauss = np.polynomial.legendre.leggauss

        def counted(order):
            orders.append(order)
            return leggauss(order)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counted)
        modal.build_rectangle_helmholtz(max_index=6, quad_order=40)
        assert orders == [40, 80]

    def test_quadrature_refinement_stable(self):
        a = modal._helmholtz_coefficients(10, 12.0, np.pi / 3, 64)
        b = modal._helmholtz_coefficients(10, 12.0, np.pi / 3, 128)
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))

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
        assert dist.tolist() == [0.0, (2.0 + 1e-13) - 2.0, 1.0]

    def test_no_retained_pole(self):
        m = modal.ModalModel([2.0], [0.0], InnerProductWeights.l2(1))
        rows, dist = modal.evaluate_exact_grid(m, [0.0, 1.0])
        assert dist.tolist() == [np.inf, np.inf]
        assert rows.tolist() == [[0j], [0j]]


class TestTaylor:
    def test_single_pole_geometric(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = modal.taylor_coefficients(m, 0.0, 5)
        assert t.coefficients[3, 0] == pytest.approx(0.0625)

    def test_order_zero_is_evaluation(self, three_pole):
        t = modal.taylor_coefficients(three_pole, 0.3 + 0.1j, 0)
        assert np.allclose(t.coefficients[0], modal.evaluate_exact(three_pole, 0.3 + 0.1j))

    def test_recursion_agrees_with_closed_form(self, three_pole):
        z0 = 0.3 + 0.1j
        a = modal.taylor_coefficients(three_pole, z0, 10)
        b = recursive_taylor(three_pole, z0, 10)
        assert np.max(np.abs(a.coefficients - b.coefficients)) <= 1e-12 * np.max(
            np.abs(a.coefficients)
        )

    def test_recursive_single_pole(self):
        m = modal.build_synthetic([2.0], [1.0])
        t = recursive_taylor(m, 0.0, 1)
        assert t.coefficients[1, 0] == pytest.approx(0.25)

    def test_center_on_pole_rejected(self, two_pole):
        with pytest.raises(CenterOnPole):
            modal.taylor_coefficients(two_pole, 2.0, 3)


class TestPoleList:
    def test_synthetic_order(self, two_pole):
        poles = modal.pole_list(two_pole, 0.0)
        assert [lam for lam, _ in poles] == [1.0, 2.0]

    def test_tie_breaks_by_real_part(self):
        z0 = 3.0
        m = modal.build_synthetic([z0 + 1, z0 - 1], [1.0, 1.0])
        poles = modal.pole_list(m, z0)
        assert [lam for lam, _ in poles] == [z0 - 1, z0 + 1]

    def test_groups_equal_eigenvalues(self, helmholtz, paper_z0):
        # (m, n) and (n, m) modes share one eigenvalue and one pole entry
        poles = modal.pole_list(helmholtz, paper_z0)
        values = [lam for lam, _ in poles]
        assert len(values) == len(set(values))

    def test_parseval(self, helmholtz, two_pole, paper_z0):
        for model, z0 in ((helmholtz, paper_z0), (two_pole, 0.0)):
            total = sum(r**2 for _, r in modal.pole_list(model, z0))
            assert total == pytest.approx(model.source_norm() ** 2, rel=1e-12)

    def test_drop_threshold_removes_tiny_residues(self):
        m = l2_model([1.0, 2.0], [1.0, 1e-16])
        assert [lam for lam, _ in modal.pole_list(m, 0.0)] == [1.0]


class TestRetainedPoles:
    @pytest.mark.parametrize("name", ["helmholtz", "three_pole", "tiny_residue"])
    def test_matches_seed_grouping(self, name, request):
        model = (with_tiny_residue() if name == "tiny_residue"
                 else request.getfixturevalue(name))
        by_position = sorted(seed_pole_list(model, 0.0),
                             key=lambda pr: (pr[0].real, pr[0].imag))
        assert model.poles.tolist() == [lam for lam, _ in by_position]
        assert model.residue_norms.tolist() == [r for _, r in by_position]
        for z0 in (0.0, 2.5 + 0.1j, 12 + 0.5j, 3.0):
            assert modal.pole_list(model, z0) == seed_pole_list(model, z0)

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
        modal.save_model(helmholtz, path)
        back = modal.load_model(path)
        assert np.allclose(back.eigenvalues, helmholtz.eigenvalues)
        assert np.allclose(back.coefficients, helmholtz.coefficients)
        assert np.allclose(back.weights.weights, helmholtz.weights.weights)
        assert back.weights.kind == "energy"
        assert np.array_equal(back.tags, helmholtz.tags)

    def test_synthetic_round_trip(self, three_pole):
        back = modal.model_from_json(modal.model_to_json(three_pole))
        assert np.allclose(back.eigenvalues, three_pole.eigenvalues)
        assert back.weights.kind == "l2"
        assert back.tags is None

    def test_one_json_entry_per_mode(self, helmholtz, three_pole):
        modes = modal.model_to_json(helmholtz)["modes"]
        assert len(modes) == helmholtz.dimension
        assert modes[1] == {
            "lambda": [5.0, 0.0],
            "coef": [helmholtz.coefficients[1].real, helmholtz.coefficients[1].imag],
            "tag": [1, 2],
        }
        assert modal.model_to_json(three_pole)["modes"][2] == {
            "lambda": [4.0, 0.0], "coef": [0.25, 0.0], "tag": None,
        }
