import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import example, given, settings, strategies as st

from pademor import cli, harness, hilbert, modal, numerics, pade, poly
from pademor.errors import (ConfigError, DuplicatePoles, NoConvergence, NonFiniteValue,
                            PadeError)

from conftest import OVERFLOWING_Q_MODULUS, load_perfbench
import oracles
from oracles import (approximant_errors, horner_magnitude, loop_config_separation,
                     loop_duplicate_poles, loop_nearest_root_errors, modal_error, point_errors)
from test_golden import README_CONFIG

SYNTH_CONFIG = {
    "model": {
        "kind": "synthetic",
        "poles": [[1.0, 0.0], [2.0, 0.0]],
        "residue_norms": [1.0, 1.0],
    },
    "z0": [0.0, 0.0],
    "K": [-1.0, 3.0],
    "M_list": [2],
    "N": 2,
    "grid_points": 21,
    "z_probes": [[0.5, 0.0]],
    "E_list": [2, 3, 4],
}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


class TestFmt:
    """CSV cells as the commands write them."""

    @staticmethod
    def _rows(tmp_path, command):
        # grid points -1, 0, ..., 9 with the poles 1 and 2 on it
        cfg = harness.parse_config(
            {**SYNTH_CONFIG, "K": [-1.0, 9.0], "grid_points": 11}
        )
        out = tmp_path / f"{command}.csv"
        getattr(harness, f"cmd_{command}")(cfg, str(out))
        header, *rows = [line.split(",") for line in out.read_text().splitlines()]
        return header, rows

    def test_seventeen_digits(self, tmp_path):
        _, rows = self._rows(tmp_path, "sweep")
        floats = [cell for row in rows for cell in row[:-1]]
        # each cell is the 17-significant-digit spelling of its value, not
        # the shortest one that round-trips
        assert all(cell == "%.17g" % float(cell) for cell in floats)
        digits = [cell.split("e")[0].lstrip("-").replace(".", "").lstrip("0")
                  for cell in floats]
        assert max(map(len, digits)) == 17
        assert harness._complex_to_text(1 / 3 + 0j) == "0.33333333333333331+0j"

    def test_special_values(self, tmp_path):
        _, rows = self._rows(tmp_path, "sweep")
        assert rows[2][1:3] == rows[3][1:3] == ["inf", "inf"]  # the pole rows
        header, rows = self._rows(tmp_path, "compare")
        ratio = header.index("ratio")
        # inf / inf on a pole row
        assert [row[ratio] for row in rows if row[1] in ("1", "2")] == ["nan"] * 6
        assert harness._complex_to_text(complex(-math.inf, math.inf)) == "-inf+infj"

    def test_integers_stay_compact(self, tmp_path):
        _, rows = self._rows(tmp_path, "sweep")
        assert [row[0] for row in rows] == [str(z) for z in range(-1, 10)]
        assert [row[-1] for row in rows] == ["0", "0", "1", "1"] + ["0"] * 7
        header, rows = self._rows(tmp_path, "compare")
        assert [row[0] for row in rows] == [str(E) for E in (2, 3, 4) for _ in range(11)]

    @staticmethod
    def check_cells(values):
        values = np.asarray(values, dtype=float)
        want = ["%.17g" % x for x in values.tolist()]
        assert harness._cells(values) == want
        assert harness._cell_chunk(values.copy()) == want

    # The double nearest 10^k, and its neighbours, for k from -35 to 35.
    POWERS = [np.nextafter(float(f"1e{k}"), to) for k in range(-35, 36)
              for to in (0.0, float(f"1e{k}"), math.inf)]
    EDGES = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
             2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
             *(np.nextafter(x, to) for x in (1e-30, 1e30) for to in (0.0, x, math.inf)),
             1e-14,  # lies below 10^-14, and its 17 digits round up to '1e-14'
             0.99999999999999989, 9.9999999999999982e29, 99999999999999984.0,
             1000000000000000.25, 1000000000000000.75,  # 18 digits: exact ties at 17
             1.0, 10.0, 0.5, 1.25, 100.0, 1e16, 1e17, 123456789.0, 0.1, 0.001, 1e-5, 2.0**60]

    def test_table(self):
        values = np.array(self.POWERS + self.EDGES)
        self.check_cells(np.concatenate([values, -values]))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_every_bit_pattern(self, patterns):
        self.check_cells(np.array(patterns, dtype=np.uint64).view(np.float64))

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.floats(-1e30, 1e30), min_size=1, max_size=64))
    def test_array_pass_range(self, values):
        self.check_cells(values)

    @pytest.mark.parametrize("n", [harness.CELL_CROSSOVER - 1, harness.CELL_CROSSOVER,
                                   harness.CELL_CHUNK + 1, 2 * harness.CELL_CHUNK + 7])
    def test_crossover_and_chunks(self, rng, n):
        magnitudes = 10.0 ** rng.uniform(-35, 35, n)
        values = np.where(rng.random(n) < 0.5, -magnitudes, magnitudes)
        values[::97] = rng.integers(-1000, 1000, len(values[::97])) / 8
        self.check_cells(values)


class TestTemplateOracle:
    """Each CSV command writes the bytes of its per-row %-template writer
    in oracles, on the benchmark workloads at seed 0 and on a study whose
    sweep (3,505 cells) and compare (14,020 cells) span several chunks of
    the array pass."""

    CHUNKED = {**SYNTH_CONFIG, "grid_points": 701, "E_list": [2, 3, 4, 5]}

    @pytest.mark.parametrize("command", ["sweep", "convergence", "poles", "compare"])
    @pytest.mark.parametrize("study", ["helmholtz_reference", "highorder_poles",
                                       "synthetic_dense_grid", "chunked"])
    def test_bytes(self, tmp_path, study, command):
        obj = (self.CHUNKED if study == "chunked"
               else load_perfbench("workloads").make_config(study))
        cfg = harness.parse_config(obj)
        out = tmp_path / "out.csv"
        getattr(harness, f"cmd_{command}")(cfg, str(out))
        want = getattr(oracles, f"template_{command}")(cfg, harness.build_model(cfg))
        assert out.read_bytes() == "".join(line + "\n" for line in want).encode()


# Pole parts for the separation checks: signed zeros, subnormals, parts
# near 2^1020 (differences up to 2^1021 stay finite) and a few others; and
# offsets of 0, of the tolerance, of its neighbours one ulp either side,
# and of a fraction of it or more.
SEPARATION_PARTS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0,
                                    -1.0, 0.1, 3.0, 2.0**1020, -(2.0**1020), 1.5 * 2.0**1019])
TOL = modal.POLE_SEPARATION
SEPARATION_OFFSETS = st.sampled_from([0.0, -0.0, TOL, -TOL, np.nextafter(TOL, 0.0),
                                      np.nextafter(TOL, 1.0), -np.nextafter(TOL, 1.0),
                                      0.5 * TOL, -0.7 * TOL, 0.7 * TOL, 2 * TOL, 1.0])


@st.composite
def pole_sets(draw):
    """Up to 10 poles, each a new point or an earlier one moved by an offset
    in its real part, its imaginary part or both, so that equal real parts
    and pairs at the tolerance, one ulp either side, are common."""
    poles = [complex(draw(SEPARATION_PARTS), draw(SEPARATION_PARTS))]
    for _ in range(draw(st.integers(0, 9))):
        if draw(st.booleans()):
            poles.append(complex(draw(SEPARATION_PARTS), draw(SEPARATION_PARTS)))
        else:
            base = draw(st.sampled_from(poles))
            poles.append(complex(base.real + draw(SEPARATION_OFFSETS),
                                 base.imag + draw(SEPARATION_OFFSETS)))
    return poles


class TestPoleSeparation:
    """modal._close_pairs, behind the config check and build_synthetic's
    DuplicatePoles, finds every pair within the tolerance that the loops
    over all pairs found (oracles.loop_config_separation,
    oracles.loop_duplicate_poles), and each caller reports the same first
    pair, byte for byte."""

    @settings(max_examples=400, deadline=None, database=None)
    @given(poles=pole_sets())
    @example(poles=[complex(2.0**1020, 0.0), complex(-(2.0**1020), 0.0)])
    @example(poles=[0j, complex(-0.0, TOL), complex(0.0, -np.nextafter(TOL, 1.0))])
    def test_checks_are_the_loops_over_all_pairs(self, poles):
        pairs = modal._close_pairs(poles, TOL)
        assert sorted(pairs) == [(i, j) for i in range(len(poles))
                                 for j in range(i + 1, len(poles))
                                 if abs(poles[i] - poles[j]) <= TOL]
        spec = {"kind": "synthetic", "poles": [[z.real, z.imag] for z in poles],
                "residue_norms": [1.0] * len(poles)}
        config_message, duplicate_message = loop_config_separation(poles), loop_duplicate_poles(poles)
        if config_message is None:
            harness._model_constructor(spec)
        else:
            with pytest.raises(ConfigError) as exc:
                harness._model_constructor(spec)
            assert str(exc.value) == config_message
        if duplicate_message is None:
            modal.build_synthetic(poles, spec["residue_norms"])
        else:
            with pytest.raises(DuplicatePoles) as exc:
                modal.build_synthetic(poles, spec["residue_norms"])
            assert str(exc.value) == duplicate_message


class TestParseConfig:
    def test_valid(self):
        cfg = harness.parse_config(SYNTH_CONFIG)
        assert cfg.z0 == 0.0 and cfg.N == 2
        assert cfg.radius() == pytest.approx(3.0)
        assert cfg.fast_E(5) == 5 and cfg.fast_E(1) == 2

    def test_config_is_immutable(self):
        cfg = harness.parse_config(SYNTH_CONFIG)
        with pytest.raises(AttributeError):
            cfg.N = 3
        assert cfg.N == 2

    def test_mplusn_rule(self):
        cfg = harness.parse_config({**SYNTH_CONFIG, "E_rule": "MPlusN"})
        assert cfg.fast_E(3) == 5

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"model": None}, "$.model"),
            ({"model": {"kind": "other"}}, "$.model.kind"),
            ({"z0": [1.0]}, "$.z0"),
            ({"K": [3.0, 1.0]}, "$.K"),
            ({"M_list": []}, "$.M_list"),
            ({"M_list": [2, -1]}, "$.M_list[1]"),
            ({"N": 1.5}, "$.N"),
            ({"E_rule": "bogus"}, "$.E_rule"),
            ({"rho_rule": {"factor": -1.0}}, "$.rho_rule.factor"),
            ({"grid_points": 1}, "$.grid_points"),
            ({"E_list": [4, 2]}, "$.E_list"),
            # two faults: the first in check order is reported, whatever the
            # order of the keys
            ({"model": {"kind": "helmholtz", "theta": "x", "max_index": 2}},
             "$.model.max_index"),
            ({"model": {"kind": "helmholtz", "nu_sq": -1, "quad_order": 1}},
             "$.model.quad_order"),
            ({"grid_points": 1, "rho_rule": {"factor": -1.0}}, "$.rho_rule.factor"),
            ({"E_list": "x", "z_probes": 5, "grid_points": 1}, "$.grid_points"),
            ({"E_list": [-1], "z_probes": 5}, "$.z_probes"),
            ({"E_list": [4, 2], "rho_rule": {"factor": 1e308}, "K": [0.1, 1e10]},
             "$.E_list"),
            # one beyond an integer's upper bound
            ({"grid_points": 2**20 + 1}, "$.grid_points"),
            ({"M_list": [2**20 + 1]}, "$.M_list[0]"),
            ({"model": {"kind": "helmholtz", "max_index": 2**10 + 1}},
             "$.model.max_index"),
        ],
    )
    def test_path_precise_errors(self, patch, needle):
        with pytest.raises(ConfigError) as err:
            harness.parse_config({**SYNTH_CONFIG, **patch})
        assert str(err.value).startswith(f"at {needle}")

    HELMHOLTZ_STUDY = {**SYNTH_CONFIG, "z0": [12.0, 0.5], "K": [9.0, 15.0]}

    @staticmethod
    def _model_bytes(model):
        return [a.tobytes() for a in (model.eigenvalues, model.coefficients,
                                      model.weights.weights)]

    def test_helmholtz_defaults_are_the_models(self, helmholtz):
        cfg = harness.parse_config({**self.HELMHOLTZ_STUDY, "model": {"kind": "helmholtz"}})
        assert self._model_bytes(harness.build_model(cfg)) == self._model_bytes(helmholtz)

    def test_integer_numbers_build_the_float_model(self):
        models = [harness.build_model(harness.parse_config({**self.HELMHOLTZ_STUDY, "model": {
            "kind": "helmholtz", "max_index": 8, "nu_sq": nu_sq, "theta": theta}}))
            for nu_sq, theta in ((12, 1), (12.0, 1.0))]
        assert self._model_bytes(models[0]) == self._model_bytes(models[1])

    def test_load_reports_json_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ConfigError) as err:
            harness.load_config(str(path))
        assert ":2:" in str(err.value)

    @pytest.mark.parametrize("where, key", [("top", "N"), ("model", "kind"), ("rho_rule", "factor")])
    def test_load_refuses_a_key_written_twice(self, tmp_path, where, key):
        # the last of the two took effect: the study ran with N = 3
        text = json.dumps({**SYNTH_CONFIG, "rho_rule": {"factor": 1.0}})
        if where == "top":
            text = text[:-1] + ', "N": 3}'
        elif where == "model":
            text = text.replace('"kind": "synthetic"', '"kind": "synthetic", "kind": "helmholtz"')
        else:
            text = text.replace('{"factor": 1.0}', '{"factor": 1.0, "factor": 2.0}')
        path = tmp_path / "twice.json"
        path.write_text(text)
        with pytest.raises(ConfigError) as err:
            harness.load_config(str(path))
        assert str(err.value) == (f"cannot parse config {path}: key {key!r} written twice "
                                  f"in one object")
        assert harness.load_config(str(write_config(tmp_path, SYNTH_CONFIG))).N == 2


class TestGridErrors:
    """The grid path equals the per-point loop exactly, poles included."""

    def check(self, model, approx, points):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            [errors], [qmags], dist = (a.tolist() for a in
                                       harness._grid_errors(model, [approx], points))
        near = [d < harness.NEAR_POLE_DISTANCE for d in dist]
        assert list(zip(errors, qmags, near)) == point_errors(model, approx, points)
        return errors, near

    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_helmholtz(self, helmholtz, paper_z0, variant):
        # 13 = 2^2 + 3^2 is a pole of the map
        points = np.concatenate((np.linspace(9.0, 15.0, 41), [13.0, 13.0 + 1e-13]))
        params = pade.BuildParams(paper_z0, 4, 2, 6, variant, 3.0)
        errors, near = self.check(helmholtz, pade.build(helmholtz, [params])[0], points)
        assert errors[-2:] == [math.inf, math.inf] and near[-2:] == [True, True]
        assert all(math.isfinite(e) for e in errors[:-2])

    def test_synthetic_exact_recovery(self, two_pole):
        # the approximant shares the poles of S, so its values there are
        # infinite too; the error is still inf, not nan
        points = np.array([-1.0, 0.5, 1.0, 1.0 + 1e-13, 2.0 - 1e-13, 2.0, 3.5])
        approx = pade.build(two_pole, [pade.BuildParams(0.0, 1, 2, 2, "fast")])[0]
        errors, near = self.check(two_pole, approx, points)
        assert [e == math.inf for e in errors] == [False, False] + [True] * 4 + [False]
        assert near == [False, False] + [True] * 4 + [False]

    def test_approximant_infinite_on_a_pole(self, two_pole):
        # Q(z) = z - 1 vanishes exactly on the pole 1 of S: P/Q is not
        # finite there, and the error is still inf, not nan
        approx = pade.PadeApproximant(
            poly.ShiftedPolynomial(0.0, [[1.0, 0.0]]),
            poly.ShiftedPolynomial(0.0, [-1.0, 1.0]),
            pade.BuildParams(0.0, 0, 1, 1),
            pade.Diagnostics(0.0, 0.0, False),
        )
        errors, near = self.check(two_pole, approx, np.array([0.0, 1.0, 3.0]))
        assert errors[1] == math.inf and near == [False, True, False]

    def test_approximant_overflows_off_the_poles(self, two_pole):
        # Q(z) = z at z = 1e-300 leaves P/Q = 1e300 * [1e10, 1]: the first
        # entry overflows although 1e-300 is no pole of S, and the error is
        # inf, not nan, without a warning
        approx = pade.PadeApproximant(
            poly.ShiftedPolynomial(0.0, [[1e10, 1.0]]),
            poly.ShiftedPolynomial(0.0, [0.0, 1.0]),
            pade.BuildParams(0.0, 0, 1, 1),
            pade.Diagnostics(0.0, 0.0, False),
        )
        errors, near = self.check(two_pole, approx, np.array([1e-300, 3.0]))
        assert errors[0] == math.inf and math.isfinite(errors[1])
        assert near == [False, False]

    def test_complex_points(self, three_pole):
        points = np.array([0.5 + 0.5j, 2.0, 3.0 - 1e-7j, 5.0 + 2j])
        approx = pade.build(three_pole, [pade.BuildParams(0.3 + 0.2j, 3, 2, 3, "fast")])[0]
        errors, near = self.check(three_pole, approx, points)
        assert near == [False, True, False, False]

    def test_scalar_evaluate(self, three_pole):
        approx = pade.build(three_pole, [pade.BuildParams(0.3, 3, 2, 3, "fast")])[0]
        value, qmag = pade.evaluate(approx, 0.9)
        assert value.shape == (3,) and type(qmag) is float
        values, qmags = pade.evaluate(approx, np.array([0.9, 1.7]))
        assert values.shape == (2, 3) and qmags.shape == (2,)
        assert np.array_equal(values[0], value) and qmags[0] == qmag


def workload_stack(workload, command):
    """The model, the approximants of command (sweep or compare) and the
    grid of a benchmark workload at seed 0."""
    cfg = harness.parse_config(load_perfbench("workloads").make_config(workload))
    model = harness.build_model(cfg)
    if command == "sweep":
        params = harness._params(cfg, cfg.M_list, cfg.N)
    else:
        params = harness._params(cfg, cfg.E_list, 0)
    return model, pade.build(model, params), cfg.grid()


def mixed_stacks(model):
    """Two stacks, one per center, and points that are not finite or on
    poles: numerators of degrees 3, 0, 4, 3 and 1 centred at 0.3 + 0.2j,
    then one of degree 1 centred at 0.0, whose denominator, (z - 0.5)(z - 3),
    vanishes exactly on the point 0.5; 1.0 is a pole of three_pole, whose
    row is inf."""
    approxs = [pade.build(model, [params])[0] for params in (
        pade.BuildParams(0.3 + 0.2j, 3, 2, 3, "fast"),
        pade.BuildParams(0.3 + 0.2j, 0, 2, 3, "standard", 1.5),
        pade.BuildParams(0.3 + 0.2j, 4, 2, 4, "fast"),
        pade.BuildParams(0.3 + 0.2j, 3, 2, 5, "standard", 2.0),
        pade.BuildParams(0.3 + 0.2j, 1, 2, 3, "standard", 1.5),
    )]
    at_zero = pade.PadeApproximant(
        poly.ShiftedPolynomial(0.0, [[1.0, 2.0, -1.0], [0.5, 0.0, 1e300]]),
        poly.ShiftedPolynomial(0.0, [1.5, -3.5, 1.0]),
        pade.BuildParams(0.0, 1, 2, 2), pade.Diagnostics(0.0, False))
    points = np.array([0.5, 1.0, -0.0, 2.5 - 1e-7j, 1e155, complex(math.inf, 0.0),
                       complex(0.0, -math.inf), complex(math.nan, 1.0),
                       complex(math.inf, math.nan)])
    return [approxs, [at_zero]], points


def one_mode_stack(rng):
    """A one-mode model and eight numerators of degree 5 with one mode, one
    product per Horner step of each."""
    model = modal.build_synthetic([1.0], [1.0])
    c = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    return model, [pade.PadeApproximant(
        poly.ShiftedPolynomial(0.3 + 0.2j, row[:, None]),
        poly.ShiftedPolynomial(0.3 + 0.2j, row[:3]),
        pade.BuildParams(0.3 + 0.2j, 5, 2, 5), pade.Diagnostics(0.0, False))
        for row in c]


class TestStackedErrors:
    """harness._grid_errors, one stacked pass over every approximant of a
    command, equals oracles.approximant_errors, the per-approximant path it
    replaced, byte for byte: signed zeros, inf and nan included."""

    @staticmethod
    def check(model, approxs, points):
        rows, dist = modal.evaluate_exact_grid(model, points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            errors, qmags, found = harness._grid_errors(model, approxs, points)
        assert found.tobytes() == dist.tobytes()
        want = [approximant_errors(model, a, points, rows) for a in approxs]
        assert np.array(errors).tobytes() == np.array([e for e, _ in want]).tobytes()
        assert np.array(qmags).tobytes() == np.array([q for _, q in want]).tobytes()
        return errors, qmags

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("workload", ["helmholtz_reference", "highorder_poles",
                                          "synthetic_dense_grid"])
    def test_workload_seed_zero(self, workload, command):
        self.check(*workload_stack(workload, command))

    def test_mixed_degrees_and_non_finite_points(self, three_pole):
        stacks, points = mixed_stacks(three_pole)
        found = [self.check(three_pole, approxs, points) for approxs in stacks]
        [errors], [qmags] = found[1]  # the approximant centred at 0.0
        assert qmags[0] == 0.0 and errors[0] == math.inf
        assert all(e[1] == math.inf for errors, _ in found for e in errors)

    def test_one_center_per_stack(self, three_pole):
        stacks, points = mixed_stacks(three_pole)
        with pytest.raises(ValueError, match="more than one center"):
            pade._evaluate_stack(stacks[0] + stacks[1], points)
        low = pade.build(three_pole, [pade.BuildParams(0.3 + 0.2j, 3, 1, 3)])
        with pytest.raises(ValueError, match="denominator degree"):
            pade._evaluate_stack(stacks[0] + low, points)
        index, values, qmag = pade._evaluate_stack([], points)
        assert index == [] and values.shape == qmag.shape == (0, len(points))

    def test_one_mode_at_one_point(self, rng):
        # a product of one element at one point rounds as it does inside a
        # longer stack or grid, so the stacked numerators give each one's
        # bytes alone, and each point alone gives its column of the grid
        model, approxs = one_mode_stack(rng)
        for points in ([0.7 + 0.1j], [0.7 + 0.1j, 1.9]):
            errors, qmags = self.check(model, approxs, np.array(points))
        for j, z in enumerate(points):
            at_z = harness._grid_errors(model, approxs, [z])
            assert at_z[0].tobytes() == errors[:, j:j + 1].tobytes()
            assert at_z[1].tobytes() == qmags[:, j:j + 1].tobytes()


class TestBlocks:
    """harness._grid_errors evaluates S and the approximants one block of
    points at a time.  With blocks of one point and with the whole grid as
    one block it gives the same bytes, no evaluate_exact_grid call takes
    more than one block of points, and an empty grid gives empty arrays."""

    @staticmethod
    def both_ways(model, approxs, points):
        points = np.asarray(points, dtype=complex)
        found = []
        for block_values in (1, 2**62):
            size = max(1, block_values // (len(approxs) * model.dimension))
            with mock.patch.object(harness, "BLOCK_VALUES", block_values), \
                    mock.patch.object(harness, "evaluate_exact_grid",
                                      wraps=modal.evaluate_exact_grid) as exact, \
                    warnings.catch_warnings():
                warnings.simplefilter("error")
                found.append([a.tobytes() for a in harness._grid_errors(model, approxs, points)])
            sizes = [len(call.args[1]) for call in exact.call_args_list]
            assert sum(sizes) == len(points) and max(sizes, default=0) <= size
        assert len(exact.call_args_list) == min(1, len(points))  # the whole grid at once
        assert found[0] == found[1]

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("workload", ["helmholtz_reference", "highorder_poles",
                                          "synthetic_dense_grid"])
    def test_workload_seed_zero(self, workload, command):
        self.both_ways(*workload_stack(workload, command))

    def test_mixed_degrees_and_non_finite_points(self, three_pole):
        stacks, points = mixed_stacks(three_pole)
        for approxs in stacks:
            self.both_ways(three_pole, approxs, points)

    def test_one_mode_at_one_point(self, rng):
        # prefixes of one element: the stack of eight at one point, and the
        # first numerator alone at one and at two points
        model, approxs = one_mode_stack(rng)
        for points in ([0.7 + 0.1j], [0.7 + 0.1j, 1.9]):
            self.both_ways(model, approxs, points)
            self.both_ways(model, approxs[:1], points)

    @pytest.mark.parametrize("block_values", [1, harness.BLOCK_VALUES])
    def test_each_point_meets_S_once(self, tmp_path, block_values):
        # convergence's probe check and its errors share one evaluation of S
        # at all the probes (each probe was evaluated twice); sweep and
        # compare evaluate S at each grid point once, a block at a time
        cfg = harness.parse_config({**SYNTH_CONFIG, "E_list": [2, 3],
                                    "z_probes": [[0.5, 0.0], [-0.5, 0.0], [2.5, 0.25]]})
        out, blocks = str(tmp_path / "out.csv"), cfg.grid_points if block_values == 1 else 1
        for command, points, calls in ((harness.cmd_convergence, cfg.z_probes, 1),
                                       (harness.cmd_sweep, cfg.grid(), blocks),
                                       (harness.cmd_compare, cfg.grid(), blocks)):
            with mock.patch.object(harness, "BLOCK_VALUES", block_values), \
                    mock.patch.object(harness, "evaluate_exact_grid",
                                      wraps=modal.evaluate_exact_grid) as exact:
                command(cfg, out)
            taken = [np.asarray(call.args[1], dtype=complex) for call in exact.call_args_list]
            assert len(taken) == calls
            assert np.concatenate(taken).tolist() == np.asarray(points, dtype=complex).tolist()

    def test_empty_grid(self, three_pole):
        [approxs, _], _ = mixed_stacks(three_pole)
        errors, qmags, dist = harness._grid_errors(three_pole, approxs, np.array([], complex))
        assert errors.shape == qmags.shape == (len(approxs), 0) and dist.shape == (0,)
        values, qmag = pade.evaluate(approxs[0], [])
        assert values.shape == (0, 3) and qmag.shape == (0,)


class TestGridErrorsPeak:
    """The tracemalloc peak of harness._grid_errors on sweep's six
    approximants of the README study, against the arrays the pass must
    hold, S at the points included.

    _grid_errors holds one block of points at a time, at most
    harness.BLOCK_VALUES values of the stack and more than BLOCK_VALUES -
    approximants x modes (the block size is a floor); from 256 modes
    (max_index 16) a block is smaller than the 101-point grid.  The peak
    is then one block: its values (16 B each), hilbert.norm's real array of
    them (8 B each), S at its points (16 B per point and mode, a sixth of
    the values) and one ufunc buffer of 8,192 floats, beside what grows
    with the grid: the error and |Q| outputs, 16 B per approximant and
    point, and the points' distances to the poles, 8 B per point.  The
    points are converted to complex per block, and Q, like P and S, is
    evaluated per block.  Per mode added, only one step's gathered
    numerator rows grow, 16 B per approximant, beside the block's floor.

    Measured (NumPy 2.4.6): a peak of 3,492,206 B at 576 modes against a
    budget of 3,518,728; -229 B per mode between 256 and 576 modes against
    211; 104.6 B per point between 101 and 401 points against 104
    (+1 KiB).  With S evaluated on the whole grid by the caller and not
    counted, and the points converted to one complex array (16 B per
    point), the peak was 3,156,504 B and grew by 112.3 B per point.
    Holding the previous block's values through the next Horner pass (no
    del values) read a peak of 4,300,144 B; one block of the whole grid
    grows by 14,541 B per mode and 83,206 B per point.  The pass before
    the blocks, one stack of numerators of one degree at a time on the
    whole grid, grew by 4,845 B per mode and 27,922 B per point."""

    @staticmethod
    def peak(max_index, grid_points=101):
        cfg = harness.parse_config(dict(README_CONFIG, grid_points=grid_points, model=dict(
            README_CONFIG["model"], max_index=max_index)))
        model = harness.build_model(cfg)
        grid = cfg.grid()
        approxs = pade.build(model, harness._params(cfg, cfg.M_list, cfg.N))
        harness._grid_errors(model, approxs, grid)  # warm
        tracemalloc.start()
        try:
            harness._grid_errors(model, approxs, grid)
            return tracemalloc.get_traced_memory()[1], len(approxs)
        finally:
            tracemalloc.stop()

    def test_peak_is_one_block(self):
        peak, k = self.peak(24)
        points = harness.BLOCK_VALUES // (k * 24**2)
        values = k * 24**2 * points
        # 32 KiB for the block's small arrays (its finiteness mask, Q and
        # |Q| at its points, the norms) and Python objects
        budget = (24 * values + 16 * 24**2 * points + (16 * k + 8) * 101 + 8 * 8192
                  + 32 * 1024)
        assert peak <= budget, (peak, budget)

    def test_peak_per_mode_within_budget(self):
        (small, k), (large, _) = self.peak(16), self.peak(24)
        budget = 16 * k * (24**2 - 16**2) + 24 * k * 16**2
        # 1 KiB for the Python objects whose sizes differ between the two
        # runs by a few bytes
        assert large - small <= budget + 1024, ((large - small) / (24**2 - 16**2), budget)

    def test_peak_per_point_is_outputs(self):
        """At a fixed mode count, the peak grows with the grid only by the
        (approximants x points) outputs and the points' distances: not by
        values or S."""
        (small, k), (large, _) = self.peak(24, 101), self.peak(24, 401)
        budget = (16 * k + 8) * (401 - 101)
        assert large - small <= budget + 1024, ((large - small) / (401 - 101), budget)


class TestModalErrorIdentity:
    """harness._grid_errors, by subtraction, against oracles.modal_error, by the
    closed form, on random fast and standard builds with N = 0..8 and
    M >= N - 1.

    The bound is a first-order roundoff count, u = eps / 2 and
    gamma(k) = k u / (1 - k u).  A complex Horner step is one product
    (sqrt(2) gamma(2)) and one sum (u) on an offset z - z0 that carries u:
    at most 5 roundings, so Horner of degree d errs by at most
    gamma(5 (d + 1)) sum_a |p_a| |z - z0|^a.  P(z) is the one that counts:
    its Horner magnitude over |Q(z)| is the floor of the subtraction
    route.  Q(z) adds its own relative Horner error to P/Q and to the
    closed-form term, Q(lambda_k) adds its Horner error to that term, and
    ((z - z0)/(lambda_k - z0))^(M+1) carries at most 9 (M + 1) roundings;
    the divisions, products and subtractions left take fewer than 20.  So
    every mode's error is within gamma(K), K = 9 M + 10 N + 39, of

        H_P/|Q(z)| + (1 + H_Q(z)/|Q(z)|) (|P/Q| + |term_k|) + |S_k|
        + |c_k| H_Q(lambda_k) |t_k|^(M+1) / (|Q(z)| |lambda_k - z|),

    H the Horner magnitudes, and the two V-norms add gamma(dimension + 4)
    of themselves."""

    @staticmethod
    def bound(model, approx, points, errors, identity):
        u = np.finfo(float).eps / 2

        def gamma(k):
            return k * u / (1 - k * u)

        Q, P = approx.denominator, approx.numerator
        z, lam, c = points[:, None], model.eigenvalues, model.coefficients
        qz = np.abs(Q(z))
        hq = horner_magnitude(Q, z) / qz
        t = np.abs((z - Q.center) / (lam - Q.center)) ** (P.degree + 1)
        term = np.abs(c * Q(lam)) * t / (qz * np.abs(lam - z))
        mags = (horner_magnitude(P, points) / qz
                + (1 + hq) * (np.abs(P(points)) / qz + term)
                + np.abs(c / (lam - z))
                + np.abs(c) * horner_magnitude(Q, lam) * t / (qz * np.abs(lam - z)))
        K = 9 * P.degree + 10 * Q.degree + 39
        return (gamma(K) * hilbert.norm(mags, model.weights)
                + gamma(model.dimension + 4) * (errors + identity))

    @pytest.mark.parametrize("variant", ["fast", "standard"])
    def test_subtraction_agrees_with_the_identity(self, rng, variant):
        helmholtz = modal.build_rectangle_helmholtz(max_index=14)
        for N in range(9):
            for trial in range(3):
                if trial == 0:
                    model = helmholtz
                    z0 = complex(rng.uniform(9, 15), rng.uniform(0.2, 1.0))
                    points = np.linspace(9, 15, 13) + 1j * rng.uniform(-0.3, 0.3)
                else:
                    P = int(rng.integers(2, 12))
                    poles = rng.uniform(-5, 5, P) + 1j * rng.uniform(-2, 2, P)
                    model = modal.build_synthetic(list(poles), list(rng.uniform(0.1, 3, P)))
                    z0 = complex(rng.uniform(-5, 5), rng.uniform(-2, 2))
                    points = rng.uniform(-6, 6, 13) + 1j * rng.uniform(-2.5, 2.5, 13)
                if min(abs(model.poles - z0)) <= 1e-3:
                    continue
                points = points[np.abs(model.poles - points[:, None]).min(axis=1) > 1e-3]
                M = int(rng.integers(max(N - 1, 0), N + 12))
                extra = int(rng.integers(0, 4))
                if variant == "fast":
                    params = pade.BuildParams(z0, M, N, max(M, N) + extra, "fast")
                else:
                    params = pade.BuildParams(z0, M, N, M + N + extra, "standard",
                                              float(rng.uniform(0.5, 4.0)))
                approx = pade.build(model, [params])[0]
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    errors = harness._grid_errors(model, [approx], points)[0][0]
                    identity = modal_error(model, approx, points)
                bound = self.bound(model, approx, points, errors, identity)
                assert np.all(np.abs(errors - identity) <= bound), (params, variant)


class TestFitDecayFactor:
    def test_pure_geometric(self):
        errs = [10.0**-i for i in range(2, 8)]
        assert harness._fit_decay_factor(range(2, 8), errs) == pytest.approx(0.1)

    def test_window_filters_floor(self):
        errs = [1e-2, 1e-4, 1e-13, 1e-13]
        f = harness._fit_decay_factor([1, 2, 3, 4], errs)
        assert f == pytest.approx(1e-2)

    def test_too_few_points(self):
        assert math.isnan(harness._fit_decay_factor([1], [1e-3]))
        # two points at one index: nan, without np.polyfit's RankWarning
        assert math.isnan(harness._fit_decay_factor([4, 4], [1e-3, 1e-4]))

    def test_matches_polyfit(self, rng):
        for n in range(2, 12):
            xs = rng.choice(40, size=n, replace=False) + 1
            ys = rng.uniform(-12.0, 3.0, size=n)
            fitted = harness._fit_decay_factor(xs.tolist(), (10.0**ys).tolist(),
                                              window=(0.0, math.inf))
            assert fitted == pytest.approx(10.0 ** np.polyfit(xs, ys, 1)[0], rel=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_convergence_with_repeated_M(self, tmp_path):
        cfg = harness.parse_config({
            **SYNTH_CONFIG,
            "model": {"kind": "helmholtz", "max_index": 8},
            "z0": [12.0, 0.5],
            "K": [9.0, 15.0],
            "M_list": [4, 4],
            "z_probes": [[9.0, 0.0], [11.0, 0.0]],
        })
        out = tmp_path / "convergence.csv"
        harness.cmd_convergence(cfg, str(out))
        lines = out.read_text().splitlines()
        col = lines[0].split(",").index("fitted_factor_fast")
        assert [line.split(",")[col] for line in lines[1:]] == ["nan"] * 4


class TestCommands:
    def test_sweep_exact_case(self, tmp_path):
        cfg = harness.parse_config(SYNTH_CONFIG)
        out = tmp_path / "sweep.csv"
        harness.cmd_sweep(cfg, str(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        e_col = header.index("abs_error_fast_M2")
        s_col = header.index("abs_error_std_M2")
        near_col = header.index("near_pole")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[near_col] == "1":
                continue
            assert float(cells[e_col]) <= 1e-9
            assert float(cells[s_col]) <= 1e-9

    def test_sweep_byte_deterministic(self, tmp_path):
        cfg = harness.parse_config(SYNTH_CONFIG)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        harness.cmd_sweep(cfg, str(a))
        harness.cmd_sweep(cfg, str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_build_artifact(self, tmp_path):
        cfg = harness.parse_config(SYNTH_CONFIG)
        out = tmp_path / "build.json"
        harness.cmd_build(cfg, str(out))
        data = json.loads(out.read_text())
        assert len(data["approximants"]) == 2  # fast + standard for M=2
        fast = data["approximants"][0]
        assert fast["params"]["variant"] == "fast"
        # exact two-pole recovery: functional value at numerical zero
        assert fast["diagnostics"]["functional_value"] <= 1e-10

    def test_build_artifact_round_trips(self, tmp_path):
        cfg = harness.parse_config({**SYNTH_CONFIG, "M_list": [1, 2, 3]})
        out = tmp_path / "build.json"
        harness.cmd_build(cfg, str(out))
        data = out.read_bytes()
        entries = json.loads(data)["approximants"]
        assert len(entries) == 6
        # one approximant per line, between the opening and closing lines
        lines = data.split(b"\n")
        assert lines[0] == b'{"approximants": [' and lines[-2:] == [b"]}", b""]
        for line, entry in zip(lines[1:-2], entries, strict=True):
            approx = pade.approximant_from_json(entry)
            line = line.removesuffix(b",")
            assert hilbert.json_bytes(pade.approximant_to_json(approx)) == line

    def test_build_center_on_pole(self, tmp_path):
        bad = {**SYNTH_CONFIG, "z0": [1.0, 0.0]}
        cfg = harness.parse_config(bad)
        with pytest.raises(ConfigError):
            harness.cmd_build(cfg, str(tmp_path / "x.json"))

    def test_convergence_probe_near_pole(self, tmp_path):
        bad = {**SYNTH_CONFIG, "z_probes": [[1.01, 0.0]]}
        cfg = harness.parse_config(bad)
        with pytest.raises(ConfigError):
            harness.cmd_convergence(cfg, str(tmp_path / "x.csv"))

    def test_convergence_M_rule(self, tmp_path):
        bad = {**SYNTH_CONFIG, "M_list": [0], "N": 2}
        cfg = harness.parse_config(bad)
        with pytest.raises(ConfigError):
            harness.cmd_convergence(cfg, str(tmp_path / "x.csv"))

    def test_poles_E_below_N(self, tmp_path):
        bad = {**SYNTH_CONFIG, "E_list": [1, 2]}
        cfg = harness.parse_config(bad)
        with pytest.raises(ConfigError):
            harness.cmd_poles(cfg, str(tmp_path / "x.csv"))

    def test_poles_exact_case(self, tmp_path):
        cfg = harness.parse_config(SYNTH_CONFIG)
        out = tmp_path / "poles.csv"
        harness.cmd_poles(cfg, str(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            for a in (1, 2):
                assert float(cells[header.index(f"abs_error_fast_lambda{a}")]) <= 1e-8

    def test_compare_exact_case(self, tmp_path):
        # E >= 2N - 1 so the standard variant (M = E - N) is exact too
        cfg = harness.parse_config({**SYNTH_CONFIG, "E_list": [3, 4]})
        out = tmp_path / "compare.csv"
        harness.cmd_compare(cfg, str(out))
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        for line in lines[1:]:
            cells = line.split(",")
            if cells[header.index("near_pole")] == "1":
                continue
            assert float(cells[header.index("error_fast")]) <= 1e-9
            assert float(cells[header.index("error_std")]) <= 1e-9

    def test_every_csv_row_carries_q_magnitude(self, tmp_path):
        cfg = harness.parse_config(SYNTH_CONFIG)
        for cmd, name in (
            (harness.cmd_sweep, "s.csv"),
            (harness.cmd_convergence, "c.csv"),
            (harness.cmd_poles, "p.csv"),
            (harness.cmd_compare, "x.csv"),
        ):
            out = tmp_path / name
            cmd(cfg, str(out))
            assert "q_magnitude" in out.read_text().splitlines()[0]


class TestDroppedPoleRows:
    """The residue at 2 falls below the drop threshold, so 2 is not a
    retained pole, but S is infinite there: its rows are pole rows."""

    CONFIG = {
        "model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0]],
                  "residue_norms": [1.0, 1e-15]},
        "z0": [0.0, 0.0], "K": [-1.0, 3.0], "grid_points": 5, "M_list": [1], "N": 1,
        "E_list": [1, 2], "z_probes": [[2.0, 0.0]],
    }

    @pytest.mark.parametrize("command, z_col", [("sweep", 0), ("compare", 1)])
    def test_rows_on_a_dropped_pole_are_flagged(self, tmp_path, command, z_col):
        assert harness.parse_config(self.CONFIG).make_model().poles.tolist() == [1.0]
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / f"{command}.csv"
        assert cli.main([command, "--config", path, "--out", str(out)]) == 0
        text = out.read_text()
        flags = {float(row[z_col]): row[-1]
                 for row in (line.split(",") for line in text.splitlines()[1:])}
        assert flags == {-1.0: "0", 0.0: "0", 1.0: "1", 2.0: "1", 3.0: "0"}
        config = {**harness.CONFIG_DEFAULTS, **self.CONFIG}
        assert load_perfbench("check").check_csv(command, config, text) == []

    def test_convergence_rejects_a_probe_on_a_dropped_pole(self, tmp_path, capsys):
        path = write_config(tmp_path, self.CONFIG)
        out = tmp_path / "convergence.csv"
        assert cli.main(["convergence", "--config", path, "--out", str(out)]) == 2
        assert "at $.z_probes: probe (2+0j)" in capsys.readouterr().err
        assert not out.exists()

    def test_convergence_names_an_overflow_far_from_every_pole(self, tmp_path, capsys):
        # S overflows at 0.5, half a unit from both poles: the row is not
        # finite, but no pole is near
        config = dict(self.CONFIG, z_probes=[[0.5, 0.0]],
                      model=dict(self.CONFIG["model"], residue_norms=[1e308, 1e308]))
        path = write_config(tmp_path, config)
        out = tmp_path / "convergence.csv"
        assert cli.main(["convergence", "--config", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: at $.z_probes: S overflows at probe (0.5+0j), 0.5 from the "
            "nearest pole\n")
        assert not out.exists()


class TestCli:
    def test_import_adds_only_argparse_and_json(self):
        # a fresh process that has loaded NumPy: importing the package and
        # its CLI loads no further module outside pademor, argparse (with
        # gettext) and json
        src = str(Path(cli.__file__).resolve().parents[1])
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import numpy; "
                "before = set(sys.modules); import pademor, pademor.cli; "
                "print(*sorted(set(sys.modules) - before))")
        proc = subprocess.run([sys.executable, "-c", code, src],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
        allowed = {"pademor", "argparse", "gettext", "json", "_json"}
        assert [name for name in proc.stdout.split() if name not in allowed
                and not name.startswith(("pademor.", "json."))] == []

    def test_success_exit_zero(self, tmp_path):
        path = write_config(tmp_path, SYNTH_CONFIG)
        out = str(tmp_path / "out.csv")
        assert cli.main(["sweep", "--config", path, "--out", out]) == 0

    def test_config_error_exit_two(self, tmp_path):
        path = write_config(tmp_path, {**SYNTH_CONFIG, "K": [3.0, 1.0]})
        out = str(tmp_path / "out.csv")
        assert cli.main(["sweep", "--config", path, "--out", out]) == 2

    @pytest.mark.parametrize("argv", [
        ["frobnicate", "--config", "study.json", "--out", "x"],
        ["build", "--config", "study.json"],
        [],
    ])
    def test_usage_error_exit_two(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "usage: pade-mor" in capsys.readouterr().err

    def test_parser_is_built_once_per_process(self, tmp_path, capsys, monkeypatch):
        # after one call, main runs without building another parser: with
        # ArgumentParser made to raise, a command still writes the bytes of
        # the first call, and a usage error still exits 2 with the usage
        path = write_config(tmp_path, SYNTH_CONFIG)
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert cli.main(["poles", "--config", path, "--out", str(first)]) == 0

        def boom(*args, **kwargs):
            raise AssertionError("a second ArgumentParser was built")

        monkeypatch.setattr(cli.argparse, "ArgumentParser", boom)
        assert cli.main(["poles", "--config", path, "--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate", "--config", path, "--out", str(second)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: pade-mor")

    @pytest.mark.filterwarnings("error")
    def test_underflowing_denominator_error_is_inf(self, tmp_path):
        # |Q| of the fast approximant underflows to 1e-316 at the first grid
        # point, 2.3e-158, which is no pole of S: P/Q overflows there
        config = {
            "model": {"kind": "synthetic", "poles": [[0.0, 1.0], [0.0, 0.5], [1.0, 0.0]],
                      "residue_norms": [1.0, 1.0, 1.0]},
            "z0": [0.0, 0.0], "K": [2.3273829176742817e-158, 1.0], "M_list": [0],
            "N": 5, "grid_points": 2,
        }
        path = write_config(tmp_path, config)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        header, first, _ = out.read_text().splitlines()
        cells = dict(zip(header.split(","), first.split(",")))
        assert float(cells["q_magnitude_fast_M0"]) < 1e-300
        assert cells["abs_error_fast_M0"] == "inf" and cells["near_pole"] == "0"

    @pytest.mark.filterwarnings("error")
    def test_overflowing_denominator_magnitude_is_inf(self, tmp_path):
        # the parts of Q(z) stay finite where its modulus overflows: |Q|
        # reads inf there, and the errors stay finite
        path = write_config(tmp_path, OVERFLOWING_Q_MODULUS)
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        cells = [dict(zip(header.split(","), row.split(","))) for row in rows]
        over = [c for c in cells if float(c["z"]) >= 2.72e154]
        assert len(over) == 16
        for c in over:
            assert c["q_magnitude_fast_M2"] == c["q_magnitude_std_M2"] == "inf"
            assert math.isfinite(float(c["abs_error_fast_M2"]))
            assert math.isfinite(float(c["abs_error_std_M2"]))
        assert all(math.isfinite(float(c["q_magnitude_fast_M2"]))
                   for c in cells if c not in over)

    def test_center_on_pole_nonzero_exit(self, tmp_path):
        path = write_config(tmp_path, {**SYNTH_CONFIG, "z0": [2.0, 0.0]})
        out = str(tmp_path / "out.json")
        assert cli.main(["build", "--config", path, "--out", out]) == 2

    @pytest.mark.parametrize(
        "patch,needle",
        [
            ({"K": ["a", 15]}, "$.K[0]"),
            ({"rho_rule": {"factor": "x"}}, "$.rho_rule.factor"),
            ({"z0": ["a", 0]}, "$.z0"),
            ({"z0": [1.0, 0.0]}, "$.z0"),  # center on a pole
            ({"z_probes": [["a", 0]]}, "$.z_probes[0]"),
            ({"z_probes": 5}, "$.z_probes"),
            ({"E_list": 5}, "$.E_list"),
            ({"model": {"kind": "helmholtz", "max_index": 2}}, "$.model.max_index"),
            ({"model": {"kind": "helmholtz", "quad_order": 64.0}}, "$.model.quad_order"),
            ({"model": {"kind": "helmholtz", "nu_sq": -1}}, "$.model.nu_sq"),
            ({"model": {"kind": "helmholtz", "theta": "x"}}, "$.model.theta"),
            ({"model": {**SYNTH_CONFIG["model"], "residue_norms": [1.0]}},
             "$.model.residue_norms"),
            ({"model": {**SYNTH_CONFIG["model"], "residue_norms": [1.0, 0.0]}},
             "$.model.residue_norms[1]"),
            ({"model": {**SYNTH_CONFIG["model"], "poles": [[1.0, 0.0], [2.0]]}},
             "$.model.poles[1]"),
            ({"K": [0.0, 10**400]}, "$.K[1]"),
            ({"N": True}, "$.N"),
            ({"M_list": [True]}, "$.M_list[0]"),
            ({"E_list": [True, 2]}, "$.E_list[0]"),
            ({"E_list": [-1, 2]}, "$.E_list[0]"),
            ({"grid_points": True}, "$.grid_points"),
            ({"model": {"kind": "helmholtz", "max_index": True}}, "$.model.max_index"),
            ({"model": {"kind": "helmholtz", "quad_order": True}}, "$.model.quad_order"),
            # unknown keys: a misspelling must not run a study on the defaults
            ({"grid_point": 11}, "$.grid_point"),
            ({"model": {"kind": "helmholtz", "nusq": 12.0}}, "$.model.nusq"),
            ({"model": {**SYNTH_CONFIG["model"], "max_index": 8}}, "$.model.max_index"),
            ({"rho_rule": {"factor": 1.0, "factr": 2.0}}, "$.rho_rule.factr"),
            # coincident poles, which build_synthetic would reject as a
            # numerical failure (exit 3)
            ({"model": {**SYNTH_CONFIG["model"], "poles": [[1.0, 0.0], [1.0, 0.0]]}},
             "$.model.poles[1]"),
            # factor * R_K underflows to rho = 0
            ({"rho_rule": {"factor": 5e-324}, "K": [0.1, 0.2], "z0": [0.0, 0.05]},
             "$.rho_rule.factor"),
            # factor * R_K overflows to rho = inf
            ({"rho_rule": {"factor": 1e308}, "K": [0.1, 1e10]}, "$.rho_rule.factor"),
            # a coordinate part of magnitude >= 2^1021, whose differences
            # with other points could overflow
            ({"z0": [0.0, 1.7e308], "K": [0.0, 1.7e308]}, "$.z0"),
            ({"K": [-1.0, 1.7e308]}, "$.K[1]"),
            ({"model": {**SYNTH_CONFIG["model"], "poles": [[1.5e308, 1.5e308], [1.0, 0.0]]}},
             "$.model.poles[0]"),
            ({"z_probes": [[1.7e308, 1.7e308]], "N": 1}, "$.z_probes[0]"),
            # an integer beyond its bound, for which NumPy would refuse an
            # array as too big (ValueError)
            ({"M_list": [10**20]}, "$.M_list[0]"),
            ({"M_list": [2**62]}, "$.M_list[0]"),
            ({"N": 10**20}, "$.N"),
            ({"grid_points": 10**20}, "$.grid_points"),
            ({"E_list": [10**20]}, "$.E_list[0]"),
            ({"model": {"kind": "helmholtz", "max_index": 10**20}}, "$.model.max_index"),
            ({"model": {"kind": "helmholtz", "quad_order": 10**20}}, "$.model.quad_order"),
        ],
    )
    def test_bad_config_exit_two_with_path(self, tmp_path, capsys, patch, needle):
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        for cmd in ("build", "sweep", "convergence", "poles", "compare"):
            out = str(tmp_path / f"{cmd}.out")
            assert cli.main([cmd, "--config", path, "--out", out]) == 2
            assert f"at {needle}:" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["out_in_missing_dir", "out_is_dir",
                                      "config_not_utf8", "config_too_deep",
                                      "config_integer_too_long"])
    def test_file_error_exit_two_without_traceback(self, tmp_path, case):
        config = write_config(tmp_path, SYNTH_CONFIG)
        out = str(tmp_path / "build.json")
        if case == "out_in_missing_dir":
            out = str(tmp_path / "missing" / "x.json")
        elif case == "out_is_dir":
            out = str(tmp_path)
        elif case == "config_not_utf8":
            (tmp_path / "config.json").write_bytes(b"\xff\xfe" + b"{}")
        elif case == "config_integer_too_long":  # json refuses more than 4,300 digits
            (tmp_path / "config.json").write_text('{"N": ' + "1" * 5000 + "}")
        else:
            (tmp_path / "config.json").write_text("[" * 100_000)
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "pademor.cli", "build", "--config", config,
             "--out", out], env=env, capture_output=True, text=True)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: ")
        assert "Traceback" not in proc.stderr

    # A Helmholtz study whose 20-point rule is too coarse for 60 modes per
    # direction: building its model raises QuadratureNotConverged (exit 3).
    COARSE_RULE = {**SYNTH_CONFIG, "model": {"kind": "helmholtz", "max_index": 60,
                                             "quad_order": 20},
                   "z0": [12.0, 0.5], "K": [9.0, 15.0]}

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_unwritable_out_exits_two_before_the_study(self, tmp_path, capsys, cmd):
        path = write_config(tmp_path, self.COARSE_RULE)
        out = str(tmp_path / "missing" / "x.out")
        assert cli.main([cmd, "--config", path, "--out", out]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot write output ")

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    @pytest.mark.parametrize("what", ["missing file", "directory"])
    def test_unreadable_config_exits_two(self, tmp_path, capsys, cmd, what):
        # open() raises FileNotFoundError or IsADirectoryError, which
        # load_config reports as a config error naming the path
        path = str(tmp_path / "missing.json" if what == "missing file" else tmp_path)
        out = tmp_path / "x.out"
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_study_failing_after_the_open(self, tmp_path, capsys, cmd):
        # the file the open created is removed; an earlier one keeps its
        # bytes, since the file is written only when its lines are
        path = write_config(tmp_path, self.COARSE_RULE)
        out = tmp_path / "x.out"
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 3
        assert "QuadratureNotConverged" in capsys.readouterr().err
        assert not out.exists()
        out.write_text("an earlier output\n")
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 3
        assert out.read_bytes() == b"an earlier output\n"

    # the model builds; the standard denominator's rho^(2(E-M)) overflows
    RHO_OVERFLOW = {"model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0],
                                                             [4.0, 0.0], [5.0, 0.0]],
                              "residue_norms": [1.0] * 5},
                    "z0": [0.0, 0.5], "K": [-1.0, 6.0], "M_list": [3], "N": 4,
                    "rho_rule": {"factor": 1e40}, "E_list": [6], "z_probes": [[0.5, 0.3]]}

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_study_failing_after_the_model(self, tmp_path, capsys, cmd):
        # the approximants fail before the first chunk is asked for, so an
        # earlier file keeps its bytes and is not cut
        path = write_config(tmp_path, self.RHO_OVERFLOW)
        out = tmp_path / "x.out"
        out.write_text("an earlier output\n")
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 3
        assert "RhoOverflow" in capsys.readouterr().err
        assert out.read_bytes() == b"an earlier output\n"

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_output_replaces_a_longer_earlier_one(self, tmp_path, cmd):
        path = write_config(tmp_path, SYNTH_CONFIG)
        fresh, out = tmp_path / "fresh.out", tmp_path / "x.out"
        assert cli.main([cmd, "--config", path, "--out", str(fresh)]) == 0
        out.write_bytes(b"x" * (2 * fresh.stat().st_size))
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
        assert out.read_bytes() == fresh.read_bytes()

    def test_output_to_a_device(self, tmp_path):
        # the artifact's chunks and the CSV's one chunk, each written to a
        # device that cannot be cut
        path = write_config(tmp_path, SYNTH_CONFIG)
        for cmd in ("build", "sweep"):
            assert cli.main([cmd, "--config", path, "--out", os.devnull]) == 0

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_rerun_overwrites_in_place(self, tmp_path, monkeypatch, cmd):
        # a rerun onto an output of equal length writes the same bytes over
        # it and cuts nothing; onto a longer one it cuts once, after the
        # last line
        path = write_config(tmp_path, SYNTH_CONFIG)
        out = tmp_path / "x.out"
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
        fresh, write, cuts = out.read_bytes(), harness._write, []

        class Spy:
            def __init__(self, fh):
                self.fh = fh

            def __getattr__(self, name):
                return getattr(self.fh, name)

            def truncate(self, *args):
                cuts.append(args)
                return self.fh.truncate(*args)

        monkeypatch.setattr(harness, "_write", lambda fh, chunks: write(Spy(fh), chunks))
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
        assert (out.read_bytes(), cuts) == (fresh, [])
        out.write_bytes(fresh + b"an earlier tail\n")
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
        assert (out.read_bytes(), cuts) == (fresh, [(len(fresh),)])

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")
    def test_output_to_a_pipe(self, tmp_path):
        # --out /dev/stdout with stdout a pipe, which cannot seek or be
        # cut, gets the bytes a file gets: the build artifact's and a CSV's
        path = write_config(tmp_path, SYNTH_CONFIG)
        env = {**os.environ, "PYTHONPATH": str(Path(harness.__file__).parents[1])}
        for cmd in ("build", "sweep"):
            out = tmp_path / f"{cmd}.out"
            assert cli.main([cmd, "--config", path, "--out", str(out)]) == 0
            proc = subprocess.run(
                [sys.executable, "-m", "pademor.cli", cmd, "--config", path,
                 "--out", "/dev/stdout"], env=env, capture_output=True)
            assert (proc.returncode, proc.stderr) == (0, b"")
            assert proc.stdout == out.read_bytes()

    def test_build_failing_partway_onto_a_longer_file(self, tmp_path, capsys, monkeypatch):
        # the artifact's second approximant fails to serialize: the earlier,
        # longer file holds exactly the complete lines written before the
        # failure, with no old tail
        path = write_config(tmp_path, SYNTH_CONFIG)
        fresh, out = tmp_path / "fresh.json", tmp_path / "x.json"
        assert cli.main(["build", "--config", path, "--out", str(fresh)]) == 0
        lines = fresh.read_bytes().splitlines(keepends=True)
        assert len(lines) > 3
        out.write_bytes(b"x" * (2 * fresh.stat().st_size))
        to_json, calls = pade.approximant_to_json, []

        def failing_to_json(approx):
            calls.append(approx)
            if len(calls) == 2:
                raise NonFiniteValue("second approximant")
            return to_json(approx)

        monkeypatch.setattr(pade, "approximant_to_json", failing_to_json)
        assert cli.main(["build", "--config", path, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: NonFiniteValue: second approximant\n"
        assert out.read_bytes() == b"".join(lines[:2])

    @pytest.mark.parametrize("cmd", ["build", "sweep", "convergence", "poles", "compare"])
    def test_out_of_memory_exits_two(self, tmp_path, capsys, monkeypatch, cmd):
        # quad_order 10^6 asks for a 7.28 TiB companion matrix.  The model
        # build raises the MemoryError NumPy raises then, so that the test
        # requests no such array: whether one is refused at once depends
        # on the host's overcommit policy.
        def build_rectangle_helmholtz(**kwargs):
            assert kwargs["quad_order"] == 1_000_000
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              "shape (1000000, 1000000) and data type float64")

        monkeypatch.setattr(harness, "build_rectangle_helmholtz",
                            build_rectangle_helmholtz)
        huge = {**self.COARSE_RULE,
                "model": {"kind": "helmholtz", "max_index": 4, "quad_order": 1_000_000}}
        path = write_config(tmp_path, huge)
        out = tmp_path / "x.out"
        assert cli.main([cmd, "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: out of memory: Unable to allocate 7.28 TiB")
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "patch",
        [
            {"N": 40},
            {"model": {"kind": "helmholtz", "max_index": 12}, "z0": [12.05, 0.5],
             "K": [9.0, 15.0], "M_list": [8], "N": 8, "E_rule": "MPlusN"},
        ],
    )
    def test_overflowing_condition_estimate_is_inf_without_warning(
        self, tmp_path, patch
    ):
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "build.json"
        assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
        # the artifact writes the infinite estimate as null, so that it stays
        # strict JSON: orjson.loads rejects Infinity and NaN
        approximants = orjson.loads(out.read_bytes())["approximants"]
        conds = [a["diagnostics"]["condition_estimate"] for a in approximants]
        assert None in conds

    @pytest.mark.filterwarnings("error")
    def test_taylor_power_overflow_exit_zero(self, tmp_path):
        # (m^2 + n^2 - z0)^(g+1) overflows for the outer modes well before
        # the top order g = 201; those coefficients are zero, not nan
        patch = {"model": {"kind": "helmholtz", "max_index": 8}, "z0": [12.0, 0.5],
                 "K": [9.0, 15.0], "M_list": [200], "z_probes": [[9.0, 0.0]]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        for cmd in ("build", "sweep", "convergence"):
            out = str(tmp_path / f"{cmd}.out")
            assert cli.main([cmd, "--config", path, "--out", out]) == 0
        approximants = json.loads((tmp_path / "build.out").read_text())["approximants"]
        assert all(math.isfinite(a["diagnostics"]["functional_value"])
                   for a in approximants)

    @pytest.mark.filterwarnings("error")
    def test_taylor_coefficient_overflow_exit_three(self, tmp_path, capsys):
        patch = {"model": {"kind": "helmholtz", "max_index": 8}, "z0": [13.0, 1e-9],
                 "K": [9.0, 15.0], "M_list": [40], "z_probes": [[9.0, 0.0]]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        for cmd in ("build", "sweep", "convergence"):
            out = str(tmp_path / f"{cmd}.out")
            assert cli.main([cmd, "--config", path, "--out", out]) == 3
            assert "CenterOnPole" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_zero_source_coefficient(self, tmp_path):
        # nu^2 = 13: the modes of eigenvalue 13 have source coefficient 0,
        # so 13 is no pole of S, neither on the grid nor as the center
        patch = {"model": {"kind": "helmholtz", "max_index": 8, "nu_sq": 13.0},
                 "z0": [12.0, 0.5], "K": [9.0, 15.0], "M_list": [4, 6],
                 "grid_points": 7}
        for z0 in ([12.0, 0.5], [13.0, 0.0]):
            path = write_config(tmp_path, {**SYNTH_CONFIG, **patch, "z0": z0})
            out = tmp_path / "sweep.csv"
            assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
            row = out.read_text().splitlines()[5].split(",")
            assert row[0] == "13" and row[-1] == "0"
            assert all(math.isfinite(float(cell)) for cell in row[1:])

    @pytest.mark.filterwarnings("error")
    def test_center_near_pole_builds(self, tmp_path, capsys):
        # Taylor coefficients up to about 1e205: their squares overflow
        # unless the windows are scaled
        patch = {"model": {"kind": "helmholtz", "max_index": 8}, "z0": [13.0, 1e-5],
                 "K": [9.0, 15.0], "M_list": [40]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "build.json"
        rc = cli.main(["build", "--config", path, "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        approximants = json.loads(out.read_text())["approximants"]
        assert all(math.isfinite(a["diagnostics"]["functional_value"])
                   for a in approximants)

    @pytest.mark.filterwarnings("error")
    def test_center_near_pole_sweep_errors_are_finite(self, tmp_path, capsys):
        # approximant errors of about 1e189: their squares overflow in the
        # V-norm unless it rescales the row
        patch = {"model": {"kind": "helmholtz", "max_index": 8}, "z0": [13.0, 1e-5],
                 "K": [9.0, 15.0], "M_list": [40], "grid_points": 11}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--config", path, "--out", str(out)])
        assert rc == 0, capsys.readouterr().err
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert len(rows) == 11
        assert all(math.isfinite(float(cell)) for row in rows for cell in row[1:3])

    @pytest.mark.filterwarnings("error")
    def test_grid_point_a_subnormal_distance_from_a_pole(self, tmp_path):
        # 1 / 1e-310 overflows; the row is inf as on the pole itself
        model = {**SYNTH_CONFIG["model"], "poles": [[1.0, 0.0], [2.0, -1e-310]]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, "model": model, "K": [-1.0, 2.0],
                                       "grid_points": 4})
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        last = out.read_text().splitlines()[-1].split(",")
        assert last[:3] == ["2", "inf", "inf"] and last[-1] == "1"

    @pytest.mark.filterwarnings("error")
    def test_gramian_sum_with_overflowing_norm_is_scaled(self, tmp_path):
        # window entries of about 5^13 1e72: the standard Gramian sum holds
        # entries near 1e161, whose squares overflow in its Frobenius norm
        patch = {"model": {"kind": "synthetic", "poles": [[-4.8, 1e-6]],
                           "residue_norms": [5.0]},
                 "z0": [-4.8, 0.0], "K": [3.0, 8.0], "M_list": [5], "N": 6,
                 "E_rule": "MPlusN", "rho_rule": {"factor": 3.0}}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "build.json"
        assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
        std = json.loads(out.read_text())["approximants"][1]
        assert std["params"]["variant"] == "standard"
        assert math.isfinite(std["diagnostics"]["functional_value"])

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "patch,finite",
        [
            # physical units: rho^(M+1) = 3.5e7^41 overflows, the functional
            # value of the standard approximant does not
            ({"model": {"kind": "synthetic", "residue_norms": [1.0, 1.0, 1.0],
                        "poles": [[1e8, 0.0], [1.2e8, 0.0], [1.5e8, 0.0]]},
              "z0": [1.25e8, 1e6], "K": [0.9e8, 1.6e8], "M_list": [40]}, True),
            # rho = 3e40: the standard functional value is about 1e400
            ({"model": {"kind": "helmholtz", "max_index": 8},
              "rho_rule": {"factor": 1e40}, "M_list": [8]}, False),
        ],
    )
    def test_overflowing_rho_power_exit_zero(self, tmp_path, patch, finite):
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "build.json"
        assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
        std = orjson.loads(out.read_bytes())["approximants"][1]
        assert std["params"]["variant"] == "standard"
        value = std["diagnostics"]["functional_value"]
        assert (math.isfinite(value) if finite else value is None)

    @pytest.mark.filterwarnings("error")
    def test_physical_units_functional_values_are_positive(self, tmp_path):
        # Taylor window entries of about 1e-282, whose weighted squares
        # underflow unless the window is scaled up: both builds reported 0.0
        patch = {"model": {"kind": "synthetic", "residue_norms": [1.0, 1.0, 1.0],
                           "poles": [[1e8, 0.0], [1.2e8, 0.0], [1.5e8, 0.0]]},
                 "z0": [1.25e8, 1e6], "K": [0.9e8, 1.6e8], "M_list": [40]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "build.json"
        assert cli.main(["build", "--config", path, "--out", str(out)]) == 0
        approximants = orjson.loads(out.read_bytes())["approximants"]
        values = [a["diagnostics"]["functional_value"] for a in approximants]
        assert len(values) == 2 and all(v > 0 for v in values)

    @pytest.mark.filterwarnings("error")
    def test_near_pole_degeneracy_flag_without_warning(self, tmp_path):
        # the fast route's factor R has entries of about 4e96: the Frobenius
        # norm of R^H R, which the degeneracy test took, overflowed
        patch = {"model": {"kind": "helmholtz", "max_index": 5}, "z0": [13.0, 1e-8],
                 "K": [9.0, 15.0], "N": 1, "E_list": [11]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        for cmd in ("poles", "compare"):
            assert cli.main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 0

    @pytest.mark.filterwarnings("error")
    def test_residue_norm_with_overflowing_square(self, tmp_path):
        # the square of the residue norm 1e200 overflows when the poles are
        # grouped; the pole at 5, below 1e-14 of the source norm, is dropped
        model = {"kind": "synthetic", "poles": [[2.0, 0.0], [5.0, 0.0]],
                 "residue_norms": [1e200, 1.0]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, "model": model,
                                       "z0": [3.0, 0.5], "N": 1})
        for cmd in ("build", "sweep", "convergence", "poles", "compare"):
            assert cli.main([cmd, "--config", path, "--out", str(tmp_path / cmd)]) == 0
        assert harness.build_model(harness.load_config(path)).residue_norms.tolist() == [1e200]

    @pytest.mark.filterwarnings("error")
    def test_numerator_overflow_is_inf_without_warning(self, tmp_path):
        # P of degree 8 overflows at the grid points 5e99 and 1e100
        patch = {"z0": [0.0, 0.5], "K": [0.0, 1e100], "M_list": [8], "grid_points": 3,
                 "rho_rule": {"factor": 1e-99}, "E_list": [2]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, **patch})
        out = tmp_path / "sweep.csv"
        assert cli.main(["sweep", "--config", path, "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1:3] for row in rows[1:]] == [["inf", "inf"]] * 2
        assert cli.main(["compare", "--config", path, "--out", str(tmp_path / "c")]) == 0

    def test_pole_study_without_poles_exit_two(self, tmp_path, capsys):
        path = write_config(tmp_path, {**SYNTH_CONFIG, "N": 0})
        out = str(tmp_path / "poles.csv")
        assert cli.main(["poles", "--config", path, "--out", out]) == 2
        assert "at $.N: pole study needs N >= 1" in capsys.readouterr().err

    def test_pole_study_with_fewer_poles_than_N_exit_two(self, tmp_path, capsys):
        # one retained pole and N = 2 used to write 9 cells per row under an
        # 11-column header
        model = {"kind": "synthetic", "poles": [[1.0, 0.0]], "residue_norms": [1.0]}
        path = write_config(tmp_path, {**SYNTH_CONFIG, "model": model, "z0": [0.0, 0.5],
                                       "K": [-1.0, 2.0], "E_list": [2, 3]})
        out = tmp_path / "poles.csv"
        assert cli.main(["poles", "--config", path, "--out", str(out)]) == 2
        assert "at $.N: pole study needs N <= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_numerical_failure_exit_three(self, tmp_path, monkeypatch):
        def boom(config, out):
            raise PadeError("induced numerical failure")

        monkeypatch.setitem(cli.COMMANDS, "build", boom)
        path = write_config(tmp_path, SYNTH_CONFIG)
        out = str(tmp_path / "out.json")
        assert cli.main(["build", "--config", path, "--out", out]) == 3

    def test_all_commands_run(self, tmp_path):
        path = write_config(tmp_path, SYNTH_CONFIG)
        for cmd in ("build", "sweep", "convergence", "poles", "compare"):
            out = str(tmp_path / f"{cmd}.out")
            assert cli.main([cmd, "--config", path, "--out", out]) == 0


class TestSharedTaylorBlock:
    @pytest.mark.parametrize("workload", ["helmholtz_reference", "highorder_poles",
                                          "synthetic_dense_grid"])
    def test_builds_from_a_longer_block_are_bit_identical(self, workload):
        cfg = harness.parse_config(load_perfbench("workloads").make_config(workload))
        model = harness.build_model(cfg)
        N, rho = cfg.N, cfg.rho()
        params = []
        for M in cfg.M_list:
            params += [pade.BuildParams(cfg.z0, M, N, cfg.fast_E(M), "fast"),
                       pade.BuildParams(cfg.z0, M, N, M + N, "standard", rho)]
        for E in cfg.E_list:
            params += [pade.BuildParams(cfg.z0, E, N, cfg.fast_E(E), "fast"),
                       pade.BuildParams(cfg.z0, E - N, N, E, "standard", rho)]
        # the stack builds every approximant from the block of the largest E
        stacked = pade.build(model, params)
        for p, shared_build in zip(params, stacked, strict=True):
            own = pade.build(model, [p])[0]
            assert (hilbert.json_bytes(pade.approximant_to_json(shared_build))
                    == hilbert.json_bytes(pade.approximant_to_json(own)))

    @pytest.mark.parametrize("workload", ["helmholtz_reference", "highorder_poles",
                                          "synthetic_dense_grid"])
    def test_stacked_denominators_are_each_build_alone(self, workload):
        # the denominators of a command's approximants, built together, are
        # those of each build alone, byte for byte
        cfg = harness.parse_config(load_perfbench("workloads").make_config(workload))
        model = harness.build_model(cfg)
        params = [pade.BuildParams(cfg.z0, E, cfg.N, cfg.fast_E(E), "fast")
                  for E in cfg.E_list]
        params += [pade.BuildParams(cfg.z0, E - cfg.N, cfg.N, E, "standard", cfg.rho())
                   for E in cfg.E_list]
        stacked = pade.build(model, params)
        for i in range(len(params)):
            alone = pade.build(model, [params[i]])[0]
            assert stacked[i].denominator.coeffs.tobytes() == alone.denominator.coeffs.tobytes()
            assert stacked[i].diagnostics == alone.diagnostics

    @pytest.mark.parametrize("command", ["build", "sweep", "convergence", "poles",
                                         "compare"])
    def test_one_taylor_block_per_command(self, tmp_path, monkeypatch, command):
        orders = []
        original = modal.taylor_coefficients

        def counted(model, z0, E):
            orders.append(E)
            return original(model, z0, E)

        for module in (modal, harness, pade):
            monkeypatch.setattr(module, "taylor_coefficients", counted)
        cfg = {**SYNTH_CONFIG, "M_list": [1, 3, 2], "E_list": [2, 3, 5],
               "E_rule": "MPlusN"}
        path = write_config(tmp_path, cfg)
        out = str(tmp_path / f"{command}.out")
        assert cli.main([command, "--config", path, "--out", out]) == 0
        # max(M_list) + N, or fast_E(max(E_list)) = 5 + N
        assert orders == [5 if command in ("build", "sweep", "convergence") else 7]


# One part of a root or a pole: few values, so that distances tie often.
TIED_PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 1e-300, 1e300])
TIED_POINTS = st.builds(complex, TIED_PARTS, TIED_PARTS)


class TestNearestRootErrors:
    """_nearest_root_errors takes one distance pass over every
    approximant's roots and matches each approximant's slice, with the
    bytes of the per-approximant loop (oracles.loop_nearest_root_errors):
    the first nearest root on a tie, several poles on one root, the
    unpicked roots in their order."""

    @settings(max_examples=300, deadline=None, database=None)
    @given(roots=st.lists(st.lists(TIED_POINTS, min_size=1, max_size=4), min_size=1,
                          max_size=6),
           poles=st.lists(TIED_POINTS, min_size=1, max_size=3))
    @example(roots=[[1.5 + 0j, 10 + 0j]], poles=[1 + 0j, 2 + 0j])  # two poles on one root
    @example(roots=[[1j, -1j, 1 + 0j]], poles=[0j])  # three roots at one distance
    def test_pass_is_the_per_approximant_loop(self, roots, poles):
        got = harness._nearest_root_errors(roots, poles)
        for (errors, extra), r in zip(got, roots):
            want_errors, want_extra = loop_nearest_root_errors(r, poles)
            assert [e.hex() for e in errors] == [float(e).hex() for e in want_errors]
            assert extra == want_extra


class TestFailureOrder:
    """A command reports the first failure that its stacked passes meet:
    the standard denominators' stack before the fast one, then the roots'
    checks one after the other, each over the stack in (E, fast, standard)
    order."""

    CONFIG = {**SYNTH_CONFIG, "model": {"kind": "synthetic",
                                        "poles": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.5]],
                                        "residue_norms": [1.0, 0.5, 0.25]},
              "M_list": [1, 2, 3], "E_list": [2, 3, 4]}

    def run(self, tmp_path, capsys, command):
        out = str(tmp_path / "out")
        assert cli.main([command, "--config", write_config(tmp_path, self.CONFIG),
                         "--out", out]) == 3
        assert not os.path.exists(out)
        return capsys.readouterr().err

    @pytest.mark.parametrize("fast, standard, first", [
        (1, 2, "standard 2"), (2, 1, "standard 1"), (1, 1, "standard 1"),
        (2, 0, "standard 0"), (1, None, "fast 1"),
    ])
    def test_first_denominator_failure(self, tmp_path, capsys, monkeypatch,
                                       fast, standard, first):
        # the fast kernel (one SVD for all three) fails on the item of
        # M_list[fast], the standard kernel (one lockstep Jacobi for all
        # three, solved first) on the item of M_list[standard], if any
        eigs = numerics.hermitian_min_eigenpair

        def failing_svd(R):
            assert len(R) == 3
            raise NoConvergence(f"fast {fast}")

        def failing_eigs(matrices):
            assert len(matrices) == 3
            if standard is None:
                return eigs(matrices)
            raise NoConvergence(f"standard {standard}")

        monkeypatch.setattr(numerics, "min_right_singular_vector", failing_svd)
        monkeypatch.setattr(numerics, "hermitian_min_eigenpair", failing_eigs)
        err = self.run(tmp_path, capsys, "sweep")
        assert err == f"numerical failure: NoConvergence: {first}\n"

    @pytest.mark.parametrize("failing", [{3}, {4, 1}, {5, 0, 2}])
    def test_first_root_failure(self, tmp_path, capsys, monkeypatch, failing):
        # one roots stack for the six denominators of E_list, in (E, fast,
        # standard) order.  With no residual tolerance each denominator
        # fails the check with its own worst ratio, and the others, made
        # monomials z^2 with exact roots 0, pass: the check meets the
        # first failing row of the stack first
        solve, rows = numerics.polynomial_roots, []

        def failing_roots(polys):
            assert len(polys) == 6
            rows.extend(polys)
            return solve([p if i in failing else [0.0, 0.0, 1.0] for i, p in enumerate(polys)])

        monkeypatch.setattr(numerics, "polynomial_roots", failing_roots)
        monkeypatch.setattr(numerics, "ROOT_TOL", 0.0)
        err = self.run(tmp_path, capsys, "poles")
        alone = []
        for row in rows:
            with pytest.raises(NoConvergence) as exc:
                solve([row])
            alone.append(f"numerical failure: NoConvergence: {exc.value}\n")
        first = min(failing)
        assert err == alone[first]
        assert err not in {alone[i] for i in failing - {first}}  # each row's own ratio


class TestPoleGrouping:
    def test_grouping_runs_once_per_model(self, tmp_path, monkeypatch):
        calls = []
        original = modal._retained_poles

        def counted(model):
            calls.append(model)
            return original(model)

        monkeypatch.setattr(modal, "_retained_poles", counted)
        cfg = harness.parse_config(SYNTH_CONFIG)
        harness.cmd_compare(cfg, str(tmp_path / "compare.csv"))
        # 3 E values x 21 grid points x 2 variants evaluated, one model built
        assert len(calls) == 1


class TestPredictedFactors:
    def test_point_factor(self, helmholtz, paper_z0):
        cfg = harness.parse_config(
            {
                **SYNTH_CONFIG,
                "model": {"kind": "helmholtz"},
                "z0": [12.0, 0.5],
                "K": [9.0, 15.0],
            }
        )
        poles = modal.pole_list(helmholtz, cfg.z0)
        f9 = harness._predicted_point_factor(poles, cfg, 9.0)
        f11 = harness._predicted_point_factor(poles, cfg, 11.0)
        assert f9 == pytest.approx(np.sqrt(9.25 / 16.25))
        assert f11 == pytest.approx(np.sqrt(1.25 / 16.25))

    def test_pole_factor(self, helmholtz, paper_z0):
        cfg = harness.parse_config(
            {
                **SYNTH_CONFIG,
                "model": {"kind": "helmholtz"},
                "z0": [12.0, 0.5],
                "K": [9.0, 15.0],
            }
        )
        # the per-E pole rate is the point rate at lambda_alpha, squared
        poles = modal.pole_list(helmholtz, cfg.z0)
        rate = [harness._predicted_point_factor(poles, cfg, lam) ** 2 for lam in poles[:2]]
        assert rate == pytest.approx([1 / 13, 17 / 65])
