"""Random study configs, and config texts, through all five commands of
the CLI.

Whatever the config, a command exits 0, 2 (config error) or 3 (numerical
failure), raises no exception past cli.main and emits no warning; on exit 0
every CSV row has as many cells as its header and the build artifact is
JSON.  Whatever the config text, a command that fails says so in one
stderr line."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from pademor import cli

from conftest import OVERFLOWING_GRAMIAN_SUM, OVERFLOWING_Q_MODULUS

COMMANDS = ("build", "sweep", "convergence", "poles", "compare")


def pairs(re_lo, re_hi, im_lo, im_hi):
    return st.tuples(
        st.floats(re_lo, re_hi, allow_nan=False),
        st.floats(im_lo, im_hi, allow_nan=False),
    ).map(list)


synthetic_models = st.integers(1, 4).flatmap(lambda n: st.fixed_dictionaries({
    "kind": st.just("synthetic"),
    "poles": st.lists(pairs(-5.0, 5.0, -2.0, 2.0), min_size=n, max_size=n),
    "residue_norms": st.lists(st.floats(0.01, 10.0), min_size=n, max_size=n),
}))

helmholtz_models = st.fixed_dictionaries({
    "kind": st.just("helmholtz"),
    "max_index": st.integers(4, 8),
    "quad_order": st.integers(20, 40),
    "nu_sq": st.floats(0.1, 100.0),
    "theta": st.floats(-3.2, 3.2),
})


@st.composite
def configs(draw):
    model = draw(st.one_of(synthetic_models, helmholtz_models))
    scale = 5.0 if model["kind"] == "synthetic" else 100.0
    k_lo = draw(st.floats(-scale, scale))
    k_hi = k_lo + draw(st.floats(0.01, scale))
    orders = st.integers(0, 20)
    return {
        "model": model,
        "z0": draw(pairs(-scale, scale, -2.0, 2.0)),
        "K": [k_lo, k_hi],
        "M_list": draw(st.lists(orders, min_size=1, max_size=3)),
        "N": draw(st.integers(0, 8)),
        "E_rule": draw(st.sampled_from(["MaxMN", "MPlusN"])),
        "rho_rule": {"factor": draw(st.floats(0.1, 4.0))},
        "grid_points": draw(st.integers(2, 9)),
        "z_probes": draw(st.lists(pairs(-scale, scale, -2.0, 2.0), max_size=2)),
        "E_list": sorted(draw(st.lists(orders, max_size=3))),
    }


def run_text(data):
    """{command: (exit code, output text or None, stderr text)} for one
    config file holding the bytes data."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_bytes(data)
        for command in COMMANDS:
            out = Path(tmp) / f"{command}.out"
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                warnings.simplefilter("always")
                code = cli.main([command, "--config", str(path), "--out", str(out)])
            assert [str(w.message) for w in caught] == [], command
            results[command] = (code, out.read_text() if out.exists() else None,
                                err.getvalue())
    return results


# |Q| of the fast approximant underflows at the first grid point, so P/Q
# overflows there although it is no pole of S
UNDERFLOWING_Q = {
    "model": {"kind": "synthetic", "poles": [[0.0, 1.0], [0.0, 0.5], [1.0, 0.0]],
              "residue_norms": [1.0, 1.0, 1.0]},
    "z0": [0.0, 0.0], "K": [2.3273829176742817e-158, 1.0], "M_list": [0],
    "N": 5, "grid_points": 2,
}


# Coordinates with a part of magnitude >= 2^1021, whose differences can
# overflow: each is a config error, not an OverflowError traceback or NumPy
# warnings
TWO_POLES = {
    "model": {"kind": "synthetic", "poles": [[1.0, 0.0], [2.0, 0.0]],
              "residue_norms": [1.0, 1.0]},
    "z0": [0.0, 0.0], "K": [-1.0, 3.0], "M_list": [2], "N": 1, "grid_points": 5,
}
HUGE_CENTER = {**TWO_POLES, "z0": [0.0, 1.7e308], "K": [0.0, 1.7e308]}
HUGE_POLE = {**TWO_POLES, "model": {**TWO_POLES["model"],
                                    "poles": [[1.5e308, 1.5e308], [1.0, 0.0]]}}
HUGE_INTERVAL = {**TWO_POLES, "K": [-1e308, 1.7e308]}
HUGE_PROBE = {**TWO_POLES, "z_probes": [[1.7e308, 1.7e308]]}
# Integers beyond their bounds, for which NumPy would refuse an array as too
# big: each is a config error, not a ValueError traceback
HUGE_M = {**TWO_POLES, "M_list": [10**20]}
HUGE_M_2_62 = {**TWO_POLES, "M_list": [2**62]}
HUGE_N = {**TWO_POLES, "N": 10**20}
HUGE_GRID = {**TWO_POLES, "grid_points": 10**20}
HUGE_E = {**TWO_POLES, "E_list": [10**20]}
HUGE_MAX_INDEX = {**TWO_POLES, "model": {"kind": "helmholtz", "max_index": 10**20}}
HUGE_QUAD_ORDER = {**TWO_POLES, "model": {"kind": "helmholtz", "quad_order": 10**20}}


@settings(max_examples=60, deadline=None, database=None)
@given(configs())
@example(UNDERFLOWING_Q)
@example(OVERFLOWING_Q_MODULUS)
@example(OVERFLOWING_GRAMIAN_SUM)
@example(HUGE_CENTER)
@example(HUGE_POLE)
@example(HUGE_INTERVAL)
@example(HUGE_PROBE)
@example(HUGE_M)
@example(HUGE_M_2_62)
@example(HUGE_N)
@example(HUGE_GRID)
@example(HUGE_E)
@example(HUGE_MAX_INDEX)
@example(HUGE_QUAD_ORDER)
def test_every_command_keeps_the_exit_contract(config):
    for command, (code, text, _) in run_text(json.dumps(config).encode()).items():
        assert code in (0, 2, 3), command
        if code != 0:
            continue
        if command == "build":
            json.loads(text)
            continue
        header, *rows = text.splitlines()
        width = header.count(",")
        assert rows and all(row.count(",") == width for row in rows), command


# What a config file may hold that no config object from configs() gives:
# a literal that json reads but a config never holds (NaN, Infinity, an
# overflowing float), one that json refuses (an integer of more than 4,300
# digits), deep nesting, a duplicate key (json keeps the last), a UTF-8
# byte order mark and bytes that are not UTF-8.
LITERALS = ["2", "NaN", "Infinity", "-Infinity", "1e400", "1" * 4301, "-" + "7" * 5000]
NOT_UTF8 = [b"\xff", b"\xc3(", b"\x80", b"\xed\xa0\x80"]
TEXT = json.dumps(TWO_POLES)


@st.composite
def config_texts(draw):
    """TWO_POLES' JSON text with a duplicate of one of its keys appended,
    whose value is a drawn literal nested to a drawn depth; then, maybe, a
    byte order mark in front and bytes that are not UTF-8 spliced in."""
    key = draw(st.sampled_from(["N", "M_list", "grid_points", "z0", "K", "model"]))
    depth = draw(st.sampled_from([0, 1, 3, 100_000]))
    value = "[" * depth + draw(st.sampled_from(LITERALS)) + "]" * depth
    data = f'{TEXT[:-1]}, "{key}": {value}}}'.encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from(NOT_UTF8)) + data[at:]
    return data


@settings(max_examples=25, deadline=None, database=None)
@given(config_texts())
@example(TEXT[:-1].encode() + b', "N": ' + b"1" * 5000 + b"}")
@example(TEXT[:-1].encode() + b', "N": NaN}')
@example(TEXT[:-1].encode() + b', "K": [-Infinity, Infinity]}')
@example(TEXT[:-1].encode() + b', "N": 2}')
@example(b"\xef\xbb\xbf" + TEXT.encode())
@example(b"[" * 100_000 + b"]" * 100_000)
@example(TEXT.encode().replace(b"synthetic", b"synth\xe9tic"))
def test_every_config_text_keeps_the_exit_contract(data):
    for command, (code, _, err) in run_text(data).items():
        assert code in (0, 2, 3), command
        lines = err.splitlines()
        if code == 0:
            assert lines == [], command
        else:
            assert len(lines) == 1 and lines[0].startswith(
                ("config error: ", "numerical failure: ")), (command, err)
