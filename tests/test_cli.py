"""File format, grids, CLI subcommands, exit codes, and report determinism."""

import gc
import itertools
import json
import math
import re
import tempfile
import tracemalloc
import warnings
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ensq import cli, io, linalg
from ensq.cli import build_parser, main
from ensq.ensemble import Ensemble, _live_pairs, _pair_norms, quantumness, quantumness_batch
from ensq.errors import EnsembleFileError, EnsqError, ParamOutOfRange
from ensq.harness import PROPERTY_NAMES, check_properties, run_single_trial
from ensq.linalg import InvalidNormSpec, NormSpec, norm
from ensq.measures import pure_pair_quantumness
from ensq.states import (
    density_from_bloch_stack,
    _outer,
    projector_stack,
    random_density_matrix,
    random_unitary,
    validate_density_stack,
)
from ensq.sweeps import (
    MAX_GRID_POINTS,
    bloch_angle_rows,
    overlap_rows,
    parse_grid,
    phase_damping_rows,
    write_csv,
)

from _oracles import naive_quantumness


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def example3_file(tmp_path, c=1.0 / math.sqrt(2.0), p1=0.5):
    payload = {
        "dim": 2,
        "members": [
            {"p": p1, "psi": [[1.0, 0.0], [0.0, 0.0]]},
            {"p": 1.0 - p1, "psi": [[c, 0.0], [math.sqrt(1.0 - c * c), 0.0]]},
        ],
    }
    return write_json(tmp_path / "ex3.json", payload)


def test_load_ensemble_mixed_member_kinds(tmp_path):
    payload = {
        "dim": 2,
        "members": [
            {"p": 0.25, "rho": [[[0.5, 0.0], [0.0, -0.5]], [[0.0, 0.5], [0.5, 0.0]]]},
            {"p": 0.25, "psi": [[1.0, 0.0], [0.0, 0.0]]},
            {"p": 0.5, "bloch": [0.0, 0.0, 1.0]},
        ],
    }
    e = io.load_ensemble(write_json(tmp_path / "mixed.json", payload))
    assert len(e) == 3
    assert e.dim == 2
    # psi and bloch members here describe the same projector
    assert np.abs(e.states[1].matrix - e.states[2].matrix).max() <= 1e-12


def test_save_load_round_trip_preserves_values(tmp_path):
    rng = np.random.default_rng(71)
    probs = rng.random(3)
    probs = probs / probs.sum()
    e = Ensemble(tuple((p, random_density_matrix(3, 2, rng)) for p in probs))
    path = tmp_path / "e.json"
    io.save_ensemble(path, e)
    loaded = io.load_ensemble(path)
    for (p1, s1), (p2, s2) in zip(e, loaded):
        assert p1 == p2
        assert np.abs(s1.matrix - s2.matrix).max() <= 1e-15
    for spec in (NormSpec.trace(), NormSpec.kyfan(2)):
        assert quantumness(loaded, spec) == pytest.approx(
            quantumness(e, spec), abs=1e-12
        )


def test_load_diagnostics_name_offending_member(tmp_path):
    bad_psi = {
        "dim": 2,
        "members": [
            {"p": 0.5, "psi": [[1.0, 0.0], [0.0, 0.0]]},
            {"p": 0.5, "psi": [[1.0, 0.0], [1.0, 0.0]]},
        ],
    }
    with pytest.raises(EnsembleFileError, match="member 1"):
        io.load_ensemble(write_json(tmp_path / "a.json", bad_psi))

    bad_rho = {
        "dim": 2,
        "members": [{"p": 1.0, "rho": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}],
    }
    with pytest.raises(EnsembleFileError, match="member 0"):
        io.load_ensemble(write_json(tmp_path / "b.json", bad_rho))

    two_kinds = {
        "dim": 2,
        "members": [{"p": 1.0, "psi": [[1.0, 0.0], [0.0, 0.0]], "bloch": [0, 0, 1]}],
    }
    with pytest.raises(EnsembleFileError, match="member 0"):
        io.load_ensemble(write_json(tmp_path / "c.json", two_kinds))

    bloch_dim3 = {"dim": 3, "members": [{"p": 1.0, "bloch": [0, 0, 1]}]}
    with pytest.raises(EnsembleFileError, match="dim 2"):
        io.load_ensemble(write_json(tmp_path / "d.json", bloch_dim3))

    bad_sum = {
        "dim": 2,
        "members": [
            {"p": 0.5, "bloch": [0, 0, 1]},
            {"p": 0.6, "bloch": [0, 0, -1]},
        ],
    }
    with pytest.raises(EnsembleFileError, match="sum"):
        io.load_ensemble(write_json(tmp_path / "e.json", bad_sum))

    with pytest.raises(EnsembleFileError, match="JSON"):
        (tmp_path / "f.json").write_text("{not json")
        io.load_ensemble(tmp_path / "f.json")


def test_parse_grid():
    assert parse_grid("0.5") == [0.5]
    grid = parse_grid("0:1:0.25")
    assert grid == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])
    assert parse_grid("0:1:0.01")[-1] == 1.0  # endpoint snapped exactly
    assert len(parse_grid("0:1:0.01")) == 101
    assert len(parse_grid("0:1:0.001")) == 1001
    for bad in ("1:0:0.1", "0:1:0", "0:1:-0.1", "a:b:c", "1:2"):
        with pytest.raises(ParamOutOfRange):
            parse_grid(bad)
    # Non-finite numbers and grids over MAX_GRID_POINTS fail before any list is built.
    assert len(parse_grid("0:999999:1")) == MAX_GRID_POINTS
    for bad in ("nan", "-inf", "0:nan:0.1", "0:1:inf", "0:1000000:1", "0:1:1e-12",
                "-1e308:1e308:1"):
        with pytest.raises(ParamOutOfRange):
            parse_grid(bad)
    # A step below the float spacing of the range would repeat points.
    for bad in ("1e17:1.0000000000000005e17:1", "0.5:0.5000000000000004:1e-17"):
        with pytest.raises(ParamOutOfRange, match="strictly increase"):
            parse_grid(bad)
    assert parse_grid("1e17:1.0000000000000005e17:16") == [1e17 + 16 * i for i in range(4)]


def _number_text():
    numbers = st.floats() | st.integers(-(10**20), 10**20) | st.sampled_from([1e-17, 5e-324])
    return numbers.map(repr) | st.text(alphabet="0123456789.e-+ naif_", max_size=8)


def _tight_range(start, points, step, spacing):
    """start:stop:step text of about ``points`` points, the step near the
    float spacing of the range when ``spacing`` is set."""
    if spacing:
        step = math.ulp(start) * step
    return f"{start!r}:{start + points * step!r}:{step!r}"


GRID_TEXTS = (
    st.text(max_size=30)
    | st.lists(_number_text(), min_size=1, max_size=4).map(":".join)
    | st.builds(
        _tight_range,
        st.floats(-1e300, 1e300),
        st.integers(0, 2000),
        st.floats(1e-3, 1e3),
        st.booleans(),
    )
)


@settings(max_examples=400, deadline=None)
@given(GRID_TEXTS)
@example("0\x1f")  # str.strip() takes \x1f as whitespace, float() does not
def test_parse_grid_returns_an_increasing_grid_or_rejects_the_text(text):
    # Any text either raises ParamOutOfRange or gives a grid that starts at
    # start, strictly increases, ends at or below stop and is not too long.
    # parse_grid strips the whole text first, so the check reads it stripped.
    try:
        values = parse_grid(text)
    except ParamOutOfRange:
        return
    numbers = [float(x) for x in text.strip().split(":")]
    start, stop = numbers[0], numbers[len(numbers) // 2]
    assert values[0] == start
    assert all(a < b for a, b in zip(values, values[1:]))
    assert values[-1] <= stop
    assert 1 <= len(values) <= MAX_GRID_POINTS


def test_cli_compute_prints_twelve_decimals(tmp_path, capsys):
    path = example3_file(tmp_path)
    assert main(["compute", path, "--norm", "trace"]) == 0
    assert capsys.readouterr().out.strip() == "1.000000000000"


def test_cli_compute_norm_variants(tmp_path, capsys):
    path = example3_file(tmp_path, c=0.6)
    for norm_text, want in [
        ("trace", 0.96),
        ("spectral", 0.48),
        ("frobenius", 0.48 * math.sqrt(2.0)),
        ("kyfan:2", 0.96),
        ("schatten:2", 0.48 * math.sqrt(2.0)),
    ]:
        assert main(["compute", path, "--norm", norm_text]) == 0
        out = capsys.readouterr().out.strip()
        assert float(out) == pytest.approx(want, abs=1e-12)


def test_cli_compute_classical_file_is_zero(tmp_path, capsys):
    payload = {
        "dim": 2,
        "members": [
            {"p": 0.5, "bloch": [0.0, 0.0, 1.0]},
            {"p": 0.5, "bloch": [0.0, 0.0, -0.4]},
        ],
    }
    path = write_json(tmp_path / "cl.json", payload)
    assert main(["compute", path]) == 0
    assert capsys.readouterr().out.strip() == "0.000000000000"


def test_cli_compute_parse_failure_exits_2(tmp_path, capsys):
    payload = {"dim": 2, "members": [{"p": 1.0, "psi": [[1.0, 0.0], [1.0, 0.0]]}]}
    path = write_json(tmp_path / "bad.json", payload)
    assert main(["compute", path]) == 2
    err = capsys.readouterr().err
    assert "member 0" in err
    assert main(["compute", str(tmp_path / "missing.json")]) == 2


BAD_NUMBER_MEMBERS = {
    "p": {"p": math.nan, "bloch": [0.0, 0.0, 1.0]},
    "p-inf": {"p": math.inf, "bloch": [0.0, 0.0, 1.0]},
    "p-huge-int": {"p": 10**400, "bloch": [0.0, 0.0, 1.0]},
    "rho": {"p": 0.5, "rho": [[[0.5, 0.0], [math.nan, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    "rho-inf": {"p": 0.5, "rho": [[[math.inf, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]},
    "psi": {"p": 0.5, "psi": [[1.0, 0.0], [0.0, math.nan]]},
    "bloch": {"p": 0.5, "bloch": [math.nan, 0.0, 0.0]},
}


@pytest.mark.parametrize("kind", sorted(BAD_NUMBER_MEMBERS))
def test_cli_compute_rejects_non_finite_numbers(tmp_path, capsys, kind):
    # json.dumps writes NaN and Infinity literals, which json.loads accepts;
    # 10**400 is an exact JSON integer that no float can hold.
    good = {"p": 0.5, "bloch": [1.0, 0.0, 0.0]}
    payload = {"dim": 2, "members": [good, BAD_NUMBER_MEMBERS[kind]]}
    path = write_json(tmp_path / "nan.json", payload)
    with pytest.raises(EnsembleFileError, match="member 1"):
        io.load_ensemble(path)
    assert main(["compute", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "member 1" in captured.err


def test_load_names_member_with_malformed_entries(tmp_path):
    good = {"p": 0.25, "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]}
    for bad in (
        {"p": 0.25, "rho": [[[0.5, 0.0], [0.0]], [[0.0, 0.0], [0.5, 0.0]]]},  # ragged
        {"p": 0.25, "rho": [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], ["0.5", 0.0]]]},
        {"p": 0.25, "rho": [[[0.5, 0.0], [0.0, 0.0]]]},  # 1 x 2
        {"p": 0.25, "psi": [[1.0, 0.0], [0.0, None]]},
        {"p": 0.25, "psi": [[1.0, 0.0]]},
        {"p": 0.25, "bloch": [0.0, 0.0]},
        {"p": 0.25, "bloch": [0.0, 0.0, 1.5]},
    ):
        payload = {"dim": 2, "members": [good, good, bad, good]}
        with pytest.raises(EnsembleFileError, match="member 2"):
            io.load_ensemble(write_json(tmp_path / "bad.json", payload))


# Raw JSON texts, so that duplicate keys, NaN and Infinity literals and
# exact big integers reach the loader as written.
HALF = "[[[0.5,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]"  # I/2
KET0 = "[[[1,0],[0,0]],[[0,0],[0,0]]]"  # |0><0| in ints
BIG = "1" + "0" * 400  # 10**400
TWO63 = "9223372036854775808"  # 2**63


def ensemble_text(*members, dim=2, extra=""):
    return '{"dim":%d,"members":[%s]%s}' % (dim, ",".join(members), extra)


def member(key, value, p="0.25"):
    return '{"p":%s,"%s":%s}' % (p, key, value)


def rho_with(entry, base="0.0"):
    """A 2 x 2 rho whose lower-right real part is ``entry``."""
    return "[[[0.5,%s],[0.0,0.0]],[[0.0,0.0],[%s,0.0]]]" % (base, entry)


# Each malformed file with the exception message the loader gave when it
# built the whole stack from plain json.loads lists ("<path>" is the file).
MALFORMED_FILES = {
    "10**400 among floats": (
        ensemble_text(member("rho", HALF), member("rho", rho_with(BIG)), member("rho", HALF),
                      member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "10**400 among ints": (
        ensemble_text(member("rho", KET0), member("rho", "[[[1,0],[0,0]],[[0,0],[%s,0]]]" % BIG),
                      member("rho", KET0), member("rho", KET0)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "2**63 among floats": (
        ensemble_text(member("rho", HALF), member("rho", rho_with(TWO63)), member("rho", HALF),
                      member("rho", HALF)),
        "member 1: density matrix trace 9.22337203685e+18+0j is not 1",
    ),
    "2**63 among ints": (
        ensemble_text(member("rho", KET0), member("rho", "[[[1,0],[0,0]],[[0,0],[%s,0]]]" % TWO63),
                      member("rho", KET0), member("rho", KET0)),
        "member 1: density matrix trace 9.22337203685e+18+0j is not 1",
    ),
    "2**63 among negative ints": (
        ensemble_text(member("rho", "[[[1,0],[0,-1]],[[0,1],[0,0]]]"),
                      member("rho", "[[[1,0],[0,0]],[[0,0],[%s,0]]]" % TWO63),
                      member("rho", KET0), member("rho", KET0)),
        "member 0: density matrix has negative eigenvalue -6.180e-01",
    ),
    "-2**63 - 1": (
        ensemble_text(member("rho", KET0),
                      member("rho", "[[[1,0],[0,0]],[[0,0],[-9223372036854775809,0]]]"),
                      member("rho", KET0), member("rho", KET0)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "2**64 amplitude": (
        ensemble_text(member("psi", "[[18446744073709551616,0],[0,0]]", "0.5"),
                      member("psi", "[[1,0],[0,0]]", "0.5")),
        "member 0: psi must be 2 [re, im] amplitudes",
    ),
    "2**63 bloch": (
        ensemble_text(member("bloch", "[%s,0,0]" % TWO63, "0.5"),
                      member("bloch", "[0,0,1]", "0.5")),
        "member 0: Bloch vector length 9.22337203685e+18 exceeds 1",
    ),
    "ragged pair": (
        ensemble_text(member("rho", HALF),
                      member("rho", "[[[0.5,0.0],[0.0]],[[0.0,0.0],[0.5,0.0]]]"),
                      member("rho", HALF), member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "ragged rows": (
        ensemble_text(member("rho", HALF), member("rho", "[[[0.5,0.0],[0.0,0.0]]]"),
                      member("rho", HALF), member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "too deep": (
        ensemble_text(member("rho", "[[[[0.5]],[0.0]],[[0.0],[0.5,0.0]]]", "1.0")),
        "member 0: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "empty list": (
        ensemble_text(member("rho", HALF), member("rho", "[]"), member("rho", HALF),
                      member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "string entry": (
        ensemble_text(member("rho", HALF), member("rho", HALF), member("rho", rho_with('"0.5"')),
                      member("rho", HALF)),
        "member 2: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "string state": (
        ensemble_text(member("rho", HALF), member("rho", '"abc"'), member("rho", HALF),
                      member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "string list": (
        ensemble_text(member("bloch", '["a","b","c"]', "0.5"), member("bloch", "[0,0,1]", "0.5")),
        "member 0: bloch must be [x, y, z]",
    ),
    "null entry": (
        ensemble_text(member("psi", "[[1.0,0.0],[0.0,null]]", "0.5"),
                      member("psi", "[[1,0],[0,0]]", "0.5")),
        "member 0: psi must be 2 [re, im] amplitudes",
    ),
    "number state": (
        ensemble_text(member("bloch", "5", "0.5"), member("bloch", "5", "0.5")),
        "member 0: bloch must be [x, y, z]",
    ),
    "object in list": (
        ensemble_text(member("rho", HALF), member("rho", '[[{"a":1},[0,0]],[[0,0],[0.5,0]]]'),
                      member("rho", HALF), member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "state key inside a state": (
        ensemble_text(member("rho", HALF), member("rho", '{"rho":%s}' % HALF),
                      member("rho", HALF), member("rho", HALF)),
        "member 1: rho must be a 2x2 matrix of [re, im] pairs",
    ),
    "state key inside p": (
        ensemble_text('{"p":{"rho":[1]},"rho":%s}' % HALF),
        "member 0: p must be a finite nonnegative number",
    ),
    "duplicate keys, bad last": (
        ensemble_text('{"p":0.5,"rho":"bad","rho":%s}' % HALF,
                      '{"p":0.5,"bloch":[0,0,1],"bloch":[0,0,7]}'),
        "member 1: Bloch vector length 7 exceeds 1",
    ),
    "NaN rho": (
        ensemble_text(member("bloch", "[1,0,0]", "0.5"), member("rho", rho_with("NaN"), "0.5")),
        "member 1: density matrix has a non-finite entry",
    ),
    "Infinity rho": (
        ensemble_text(member("bloch", "[1,0,0]", "0.5"),
                      member("rho", "[[[Infinity,0.0],[0.0,0.0]],[[0.0,0.0],[0.5,0.0]]]", "0.5")),
        "member 1: density matrix has a non-finite entry",
    ),
    "-Infinity psi": (
        ensemble_text(member("psi", "[[1,0],[0,0]]", "0.5"),
                      member("psi", "[[1.0,0.0],[0.0,-Infinity]]", "0.5")),
        "member 1: amplitude vector has norm inf, expected 1",
    ),
    "NaN bloch": (
        ensemble_text(member("bloch", "[1,0,0]", "0.5"), member("bloch", "[NaN,0,0]", "0.5")),
        "member 1: Bloch vector length nan exceeds 1",
    ),
    "NaN p": (
        ensemble_text(member("bloch", "[1,0,0]", "0.5"), member("bloch", "[0,0,1]", "NaN")),
        "member 1: p must be a finite nonnegative number",
    ),
    "weights off": (
        ensemble_text(member("bloch", "[0,0,1]", "0.5"), member("bloch", "[0,0,-1]", "0.6")),
        "<path>: ensemble probabilities: weights sum to 1.1, expected 1",
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_load_diagnostics_are_the_plain_parse_ones(tmp_path, name):
    text, message = MALFORMED_FILES[name]
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(EnsembleFileError) as exc:
        io.load_ensemble(path)
    assert type(exc.value) is EnsembleFileError
    assert str(exc.value) == message.replace("<path>", str(path))


def plain_parse_stack(text):
    """Probabilities and validated states from plain json.loads lists and np.array."""
    data = json.loads(text)
    members = data["members"]
    stack = np.empty((len(members), data["dim"], data["dim"]), dtype=complex)
    for key, make in (
        ("rho", validate_density_stack),
        ("psi", projector_stack),
        ("bloch", density_from_bloch_stack),
    ):
        idx = [i for i, m in enumerate(members) if key in m]
        if idx:
            values = np.array([members[i][key] for i in idx]).astype(float)
            stack[idx] = make(values if key == "bloch" else values.view(complex)[..., 0])
    return np.array([float(m["p"]) for m in members]), stack


def random_rho_text(rng, members, dim, rank):
    states = [random_density_matrix(dim, rank, rng).matrix for _ in range(members)]
    p = rng.random(members) + 0.5
    rows = [
        {"p": float(q), "rho": np.stack([s.real, s.imag], axis=-1).tolist()}
        for q, s in zip(p / p.sum(), states)
    ]
    return json.dumps({"dim": dim, "members": rows})


VALID_FILES = {
    "mixed kinds": ensemble_text(
        member("rho", "[[[0.5,0.0],[0.0,-0.5]],[[0.0,0.5],[0.5,0.0]]]"),
        member("psi", "[[1.0,0.0],[0.0,0.0]]"),
        member("bloch", "[0.0,0.0,1.0]", "0.5"),
    ),
    "bool entries": ensemble_text(
        member("rho", HALF), member("rho", "[[[true,false],[false,false]],[[false,false],"
                                   "[false,false]]]"),
        member("rho", "[[[true,0.0],[false,0.0]],[[0.0,0.0],[0.0,0.0]]]"),
        member("bloch", "[false,false,true]"),
    ),
    "int-only and mixed members": ensemble_text(
        member("rho", KET0), member("rho", "[[[0.5,0],[0,0.0]],[[0,0],[0.5,0]]]"),
        member("psi", "[[0,0],[1,0]]"), member("psi", "[[1,0],[0,0.0]]"),
    ),
    "int-only kinds": ensemble_text(
        member("rho", KET0, "0.5"), member("psi", "[[0,0],[1,0]]", "0.5"),
    ),
    "state keys in unrelated objects": ensemble_text(
        member("rho", HALF, "0.5"),
        '{"p":0.5,"rho":%s,"meta":{"rho":"x","psi":[1,2]}}' % HALF,
        extra=',"note":{"rho":[[1]],"bloch":[1,2,3]}',
    ),
    "state keys at the top level": '{"rho":%s,"dim":2,"members":[%s]}' % (
        HALF, member("rho", HALF, "1.0")),
    "duplicate keys, good last": ensemble_text(
        '{"p":0.5,"rho":[[1]],"rho":%s}' % HALF, '{"p":0.5,"bloch":[0,0,7],"bloch":[0,0,1]}',
    ),
    "clamped eigenvalue": ensemble_text(
        member("rho", "[[[1.00000000000005,0.0],[0.0,0.0]],[[0.0,0.0],[-5e-14,0.0]]]", "1.0"),
    ),
    "random rank 1": random_rho_text(np.random.default_rng(81), 12, 6, 1),
    "random full rank": random_rho_text(np.random.default_rng(82), 12, 6, 6),
}


@pytest.mark.parametrize("name", sorted(VALID_FILES))
def test_loaded_stack_is_the_plain_parse_stack_bit_for_bit(tmp_path, name):
    text = VALID_FILES[name]
    path = tmp_path / "ok.json"
    path.write_text(text)
    e = io.load_ensemble(path)
    probs, stack = plain_parse_stack(text)
    assert e.probabilities.tobytes() == probs.tobytes()
    assert e.state_stack.dtype == stack.dtype and e.state_stack.shape == stack.shape
    assert e.state_stack.tobytes() == stack.tobytes()


def test_load_peak_memory_is_a_small_multiple_of_the_file(tmp_path):
    # The parent's loader held every member's nested lists at once: a
    # 5.4-6.7x peak.  Arrays built per member during the parse stay near 2-3x.
    path = tmp_path / "big.json"
    path.write_text(random_rho_text(np.random.default_rng(83), 40, 32, 1))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        io.load_ensemble(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * size, f"peak {peak / size:.2f}x the {size}-byte file"


def broken_d8_member(kind, rng):
    """A d = 8 member failing one validator check, and the matrix or vector it holds."""
    if kind == "psi-norm":
        a = unit_vectors(rng, 1, 8)[0] * (1.0 + 2e-10)
        return psi_member(0.25, a), a
    m = random_density_matrix(8, 8, rng).matrix.copy()
    if kind == "nan":
        m[3, 5] = math.nan
    elif kind == "hermiticity":
        m[3, 5] += 2e-10
    elif kind == "trace":
        m[2, 2] += 2e-10
    else:
        w, v = np.linalg.eigh(m)
        m = (v * [-2e-10, *w[1:] + 2e-10 / 7]) @ v.conj().T
    return rho_member(0.25, m), m


@pytest.mark.parametrize("kind", ["nan", "hermiticity", "trace", "negative", "psi-norm"])
def test_d8_diagnostics_are_those_of_the_stack_validators(tmp_path, kind):
    rng = np.random.default_rng(98)
    good = [rho_member(0.25, random_density_matrix(8, r, rng).matrix) for r in (1, 8, 3)]
    bad, values = broken_d8_member(kind, rng)
    path = write_json(tmp_path / "bad.json", {"dim": 8, "members": [*good[:2], bad, good[2]]})
    make = projector_stack if kind == "psi-norm" else validate_density_stack
    with pytest.raises(EnsqError) as want:
        make(values[None])
    with pytest.raises(EnsembleFileError) as exc:
        io.load_ensemble(path)
    assert str(exc.value) == f"member 2: {want.value}"


INFINITE_AMPLITUDE = (
    '{"dim":2,"members":[{"p":0.5,"psi":[[1,0],[0,0]]},'
    '{"p":0.5,"psi":[[1.0,0.0],[0.0,-Infinity]]}]}'
)


def test_cli_compute_infinite_amplitude_exits_2_without_a_warning(tmp_path, capsys):
    path = tmp_path / "inf.json"
    path.write_text(INFINITE_AMPLITUDE)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["compute", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: member 1: amplitude vector has norm inf, expected 1\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_load_pauses_the_cyclic_gc_only_while_parsing(tmp_path, monkeypatch, enabled):
    seen = []
    loads = io.json.loads
    monkeypatch.setattr(
        io.json, "loads", lambda *args, **kwargs: seen.append(gc.isenabled()) or loads(*args, **kwargs)
    )
    good, bad = tmp_path / "ok.json", tmp_path / "bad.json"
    good.write_text(VALID_FILES["mixed kinds"])
    bad.write_text("{not json")
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        io.load_ensemble(good)
        assert gc.isenabled() is enabled
        with pytest.raises(EnsembleFileError, match="not valid JSON"):
            io.load_ensemble(bad)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


def rho_member(p, state):
    return {"p": float(p), "rho": np.stack([state.real, state.imag], axis=-1).tolist()}


def psi_member(p, amplitudes):
    return {"p": float(p), "psi": np.stack([amplitudes.real, amplitudes.imag], axis=-1).tolist()}


def unit_vectors(rng, count, dim):
    z = rng.standard_normal((count, dim)) + 1j * rng.standard_normal((count, dim))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


def ranked_file(rng, dim, ranks, pure):
    """Text of a file with one ``rho`` member per rank and ``pure`` ``psi`` members."""
    rho = [random_density_matrix(dim, r, rng).matrix for r in ranks]
    amps = unit_vectors(rng, pure, dim)
    p = rng.random(len(rho) + pure) + 0.5
    p /= p.sum()
    members = [rho_member(q, s) for q, s in zip(p, rho)]
    members += [psi_member(q, a) for q, a in zip(p[len(rho):], amps)]
    return json.dumps({"dim": dim, "members": members})


def unvalidated_states(text):
    """Each member's matrix before validation: rho as written, psi's projector."""
    out = []
    for m in json.loads(text)["members"]:
        key = "rho" if "rho" in m else "psi"
        values = np.array(m[key], dtype=float).view(complex)[..., 0]
        out.append(values if key == "rho" else _outer(values))
    return np.array(out)


def count_eigensolves(monkeypatch):
    """Counts of the matrices that np.linalg.eigh and eigvalsh decompose, keyed
    by solver, "member" (unit trace) or "pair" (a traceless commutator), and size."""
    counts = Counter()
    for name in ("eigh", "eigvalsh"):

        def counted(a, *args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            a = np.asarray(a)
            tr = np.trace(a, axis1=-2, axis2=-1).real.ravel()
            members = int(np.count_nonzero(np.abs(tr - 1.0) <= 1e-6))
            counts[_name, "member", a.shape[-1]] += members
            counts[_name, "pair", a.shape[-1]] += tr.size - members
            return _solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def test_load_and_compute_eigendecompose_each_member_once_from_d_8(tmp_path, monkeypatch):
    rng = np.random.default_rng(95)
    dim = 16
    payload = json.loads(ranked_file(rng, dim, [1, 1, 3, 3, 3, dim, dim, dim], pure=3))
    # A psi and a rho member nearly parallel to the first psi member, so that
    # some rank-1 pairs have |c|^2 > 1/2.
    first = np.array(payload["members"][-3]["psi"]).view(complex)[..., 0]
    near = first + 1e-3 * unit_vectors(rng, 2, dim)
    near /= np.linalg.norm(near, axis=1, keepdims=True)
    for member in payload["members"]:
        member["p"] *= 0.8
    payload["members"] += [
        psi_member(0.1, near[0]),
        rho_member(0.1, np.outer(near[1], near[1].conj())),
    ]
    path = tmp_path / "d16.json"
    path.write_text(json.dumps(payload))
    counts = count_eigensolves(monkeypatch)
    e = io.load_ensemble(path)
    quantumness(e, NormSpec.trace())
    # Kept-eigenvalue ranks: a full-rank state has no repeated eigenvalue.
    # The psi members' factors are their amplitudes.
    ranks = [1, 1, 3, 3, 3, dim - 1, dim - 1, dim - 1, 1, 1, 1, 1, 1]
    assert e.factors[0].tolist() == ranks
    stack = e.state_stack
    overlaps = [
        np.trace(stack[a] @ stack[b]).real
        for a, b in itertools.combinations(range(len(ranks)), 2)
        if ranks[a] == ranks[b] == 1
    ]
    assert min(overlaps) <= 0.5 < max(overlaps)
    # Each pair's commutator: none for a pair with a rank-1 member, at any
    # overlap; k x k on the low-rank route and d x d on the dense one.
    pairs = Counter(
        ("eigvalsh", "pair", dim if 4 * (a + b) > dim else a + b)
        for a, b in itertools.combinations(ranks, 2)
        if 1 not in (a, b)
    )
    # One eigh per rho member; none for the psi members.
    assert +counts == {("eigh", "member", dim): len(ranks) - 4, **pairs}


def below_d_8_file(rng, name):
    """Text of a d < 8 file: ``ensq random``'s, or one of mixed member kinds
    whose members include multiples of the identity."""
    if name.startswith("random"):
        dim, rank = map(int, name.split()[1:])
        return random_rho_text(rng, 6, dim, rank)
    if name == "bloch":
        r = [[0.0, 0.0, 0.0], [0.3, -0.2, 0.5], [1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]
        return json.dumps({"dim": 2, "members": [{"p": 0.25, "bloch": v} for v in r]})
    if name == "psi":
        return ranked_file(rng, 4, [], pure=5)
    dim = int(name.split()[1])  # "kinds <dim>"
    text = ranked_file(rng, dim, [1, 2, dim], pure=2)
    payload = json.loads(text)
    for member in payload["members"]:
        member["p"] *= 0.7
    payload["members"] += [
        rho_member(0.1, np.eye(dim) / dim),
        rho_member(0.1, 0.5 * np.eye(dim) / dim + 0.5 * unit_projector(rng, dim)),
        rho_member(0.1, np.eye(dim) / dim),
    ]
    if dim == 2:
        payload["members"].append({"p": 0.0, "bloch": [0.0, 0.0, 0.0]})
    return json.dumps(payload)


def unit_projector(rng, dim):
    a = unit_vectors(rng, 1, dim)[0]
    return np.outer(a, a.conj())


BELOW_D_8 = [f"random {d} {r}" for d in range(2, 8) for r in sorted({1, 2, d})]
BELOW_D_8 += ["bloch", "psi", "kinds 2", "kinds 3", "kinds 5"]


@pytest.mark.parametrize("name", BELOW_D_8)
def test_loaded_ensembles_below_d_8_match_the_oracle(tmp_path, name):
    text = below_d_8_file(np.random.default_rng([93, BELOW_D_8.index(name)]), name)
    path = tmp_path / "f.json"
    path.write_text(text)
    e = io.load_ensemble(path)
    probs, stack = plain_parse_stack(text)
    assert e.state_stack.tobytes() == stack.tobytes()
    ranks = e.factors[0]
    identity = [np.array_equal(s, np.eye(e.dim) / e.dim) for s in stack]
    assert (ranks == 0).tolist() == identity
    if name.startswith(("bloch", "kinds")):
        assert any(identity)
    for spec in (NormSpec.trace(), NormSpec.frobenius(), NormSpec.spectral(),
                 NormSpec.schatten(3.0), NormSpec.kyfan(2)):
        want = naive_quantumness(list(zip(probs.tolist(), stack)), spec)
        assert quantumness(e, spec) == pytest.approx(want, rel=1e-12, abs=1e-14)
        # A pair with a multiple of the identity commutes exactly.
        live = _live_pairs(e.probabilities[None])
        norms = _pair_norms(live, e.state_stack[None], spec, e.factors)[0]
        i, j = np.nonzero(~np.isnan(norms))
        with_identity = (ranks[i] == 0) | (ranks[j] == 0)
        assert (norms[i, j][with_identity] == 0.0).all()


def test_load_and_compute_below_d_8_eigendecompose_each_member_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(96)
    payload = json.loads(ranked_file(rng, 4, [1, 1, 2, 2, 4, 4], pure=2))
    # One more member with an eigenvalue of -1e-12, far below round-off, so
    # that the clamp runs; it rebuilds the matrix from the same eigh.
    u = random_unitary(4, rng)
    negative = (u * [-1e-12, 0.2, 0.3, 0.5 + 1e-12]) @ u.conj().T
    for member in payload["members"]:
        member["p"] *= 0.8
    payload["members"] += [rho_member(0.1, negative), rho_member(0.1, np.eye(4) / 4)]
    bloch = {"dim": 2, "members": [
        {"p": 0.2, "bloch": [0.0, 0.0, 0.0]}, {"p": 0.2, "bloch": [0.0, 0.0, 1.0]},
        {"p": 0.2, "bloch": [1.0, 0.0, 0.0]}, {"p": 0.2, "bloch": [0.0, 0.6, -0.8]},
        {"p": 0.2, "psi": [[0.6, 0.0], [0.0, 0.8]]},
    ]}
    for dim, data in ((4, payload), (2, bloch)):
        path = tmp_path / f"d{dim}.json"
        path.write_text(json.dumps(data))
        counts = count_eigensolves(monkeypatch)
        e = io.load_ensemble(path)
        quantumness(e, NormSpec.trace())
        ranks = e.factors[0].tolist()
        if dim == 4:  # a full-rank state has no repeated eigenvalue
            assert ranks == [1, 1, 2, 2, 3, 3, 1, 1, 3, 0]
            clamped = e.state_stack[8].tobytes() != unvalidated_states(json.dumps(data))[8].tobytes()
            assert clamped
        else:
            assert ranks == [0, 1, 1, 1, 1]
        # Every pair with a rank-0 member is zero, and every pair with a
        # rank-1 member takes the rank-1 route, with rank-1 pairs on both
        # sides of |c|^2 = tr(P_a P_b) = 1/2; only the other pairs take the
        # dense route's eigvalsh.
        stack = e.state_stack
        combos = list(itertools.combinations(range(len(ranks)), 2))
        overlaps = [
            np.trace(stack[a] @ stack[b]).real for a, b in combos if ranks[a] == ranks[b] == 1
        ]
        assert min(overlaps) <= 0.5 < max(overlaps)
        dense = sum(ranks[a] > 1 and ranks[b] > 1 for a, b in combos)
        assert dense == (10 if dim == 4 else 0)
        # One eigh per rho or bloch member, none for psi members and no
        # member eigvalsh at all.
        rho_or_bloch = sum("psi" not in m for m in data["members"])
        assert +counts == {
            ("eigh", "member", dim): rho_or_bloch,
            **({("eigvalsh", "pair", dim): dense} if dense else {}),
        }


def corpus_text(rng, name):
    """Files at d >= 8 like the benchmark's, ``ensq random``'s and mixed kinds."""
    if name.startswith(("pure", "depolarized")):
        v = unit_vectors(rng, 10, 24)
        states = v[:, :, None] * v.conj()[:, None, :]
        if name.startswith("depolarized"):
            states = 0.5 / 24 * np.eye(24) + 0.5 * states
        p = rng.random(10) + 0.5
        members = [rho_member(q, s) for q, s in zip(p / p.sum(), states)]
        return json.dumps({"dim": 24, "members": members})
    if name.startswith("random"):
        dim, rank = map(int, name.split()[1:])
        return random_rho_text(rng, 8, dim, rank)
    if name == "psi":
        return ranked_file(rng, 16, [], pure=8)
    return ranked_file(rng, 16, [1, 3, 16, 1, 3], pure=3)


CORPUS = ["pure", "depolarized", "random 9 1", "random 9 3", "random 9 9", "random 16 1",
          "random 16 3", "random 16 16", "psi", "kinds"]


@pytest.mark.parametrize("name", CORPUS)
def test_eigh_loaded_ensembles_match_the_plain_parse_and_the_oracle(tmp_path, name):
    text = corpus_text(np.random.default_rng([97, CORPUS.index(name)]), name)
    path = tmp_path / "f.json"
    path.write_text(text)
    e = io.load_ensemble(path)
    assert e.factors is not None
    probs, stack = plain_parse_stack(text)
    assert e.state_stack.tobytes() == stack.tobytes()
    assert e.probabilities.tobytes() == probs.tobytes()
    # A clamped member's factors come from the eigenpairs of the loader's
    # repair, not from eigh of the repaired matrix, and a psi member's from
    # its amplitudes, not from eigh of its projector: equal up to round-off.
    clamped = [a.tobytes() != b.tobytes() for a, b in zip(stack, unvalidated_states(text))]
    psi = '"psi"' in text
    for spec in (NormSpec.trace(), NormSpec.frobenius(), NormSpec.spectral(),
                 NormSpec.schatten(3.0), NormSpec.kyfan(2)):
        got = quantumness(e, spec)
        fresh = quantumness_batch(e.probabilities[None], e.state_stack[None], spec)[0]
        if any(clamped) or psi:
            assert got == pytest.approx(fresh, rel=1e-14, abs=0.0)
        else:
            assert got == fresh
        want = naive_quantumness(list(zip(probs.tolist(), stack)), spec)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-14)
        assert fresh == pytest.approx(want, rel=1e-12, abs=1e-14)


def test_cli_parser_is_shared_and_keeps_no_state(tmp_path, capsys):
    assert build_parser() is build_parser()
    path = example3_file(tmp_path, c=0.6)
    assert main(["compute", path, "--norm", "spectral"]) == 0
    assert main(["compute", path]) == 0
    assert capsys.readouterr().out.split() == ["0.480000000000", "0.960000000000"]


def test_cli_bad_grid_leaves_the_next_sweep_unaffected(tmp_path, capsys):
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert main(["sweep", "overlap", "--c", "0:1:0.25", "--out", str(first)]) == 0
    assert main(["sweep", "overlap", "--c", "1:0:0.1", "--out", str(again)]) == 2
    assert not again.exists()
    assert main(["sweep", "overlap", "--out", str(again)]) == 0
    assert "1001 rows" in capsys.readouterr().out
    assert main(["sweep", "overlap", "--c", "0:1:0.25", "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_cli_bad_norm_is_usage_error(tmp_path):
    path = example3_file(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["compute", path, "--norm", "nuclear"])
    assert exc.value.code == 2


def test_cli_sweep_overlap_csv(tmp_path, capsys):
    out = tmp_path / "overlap.csv"
    assert main(["sweep", "overlap", "--c", "0:1:0.1", "--out", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == "c,p1,M_formula,M_matrix"
    assert len(lines) == 12
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[2]) == 0.0
    assert float(first[3]) == 0.0
    # row-wise agreement of the two columns
    for line in lines[1:]:
        cells = line.split(",")
        assert abs(float(cells[2]) - float(cells[3])) <= 1e-9


def test_cli_sweep_bloch_angle_zero_at_alpha_zero(tmp_path, capsys):
    out = tmp_path / "bloch.csv"
    assert (
        main(["sweep", "bloch-angle", "--alpha", "0:0.5:0.25", "--out", str(out)]) == 0
    )
    capsys.readouterr()
    rows = out.read_text().splitlines()[1:]
    first = rows[0].split(",")
    assert float(first[0]) == 0.0
    assert float(first[4]) == 0.0
    assert float(first[5]) == 0.0


def test_stacked_sweeps_match_one_ensemble_per_row_bit_for_bit():
    # Each sweep evaluates all its rows in one kernel call and every closed
    # form as one array expression; every cell must equal its row's grid
    # value, its scalar closed form and its single-ensemble M exactly.
    from ensq.states import PureState, apply_channel, density_from_bloch, phase_damping, projector

    p1s = [0.0, 0.3, 0.5]
    alphas, r1s, r2s = [0.0, 0.4, 2.0], [0.25, 1.0], [0.5, 0.9]
    _, rows = bloch_angle_rows(alphas, r1s, r2s, p1s)
    grid = [(a, r1, r2, p1) for a in alphas for r1 in r1s for r2 in r2s for p1 in p1s]
    assert [tuple(r[:4]) for r in rows] == grid
    for alpha, r1, r2, p1, formula, m in rows:
        v2 = (r2 * math.sin(alpha), 0.0, r2 * math.cos(alpha))
        cross = float(np.linalg.norm(np.cross((0.0, 0.0, r1), v2)))
        assert formula == math.sqrt(2.0 * p1 * (1.0 - p1)) * cross
        e = Ensemble(((p1, density_from_bloch((0.0, 0.0, r1))), (1.0 - p1, density_from_bloch(v2))))
        assert m == quantumness(e, NormSpec.frobenius())
    lams, thetas = [0.0, 0.1, 0.25, 0.4, 0.7, 1.0], [0.3, 1.1, 2.5]
    _, rows = phase_damping_rows(lams, thetas, p1s)
    assert [tuple(r[:3]) for r in rows] == [(x, t, p) for x in lams for t in thetas for p in p1s]
    for lam, theta, p1, formula, m in rows:
        assert formula == (
            math.sqrt(2.0 * p1 * (1.0 - p1))
            * (1.0 - math.sqrt(1.0 - lam))
            * abs(math.sin(theta) * math.cos(theta))
        )
        rho = density_from_bloch((math.sin(theta), 0.0, math.cos(theta)))
        e = Ensemble(((p1, rho), (1.0 - p1, apply_channel(phase_damping(lam), rho))))
        assert m == quantumness(e, NormSpec.frobenius())
    cs = [0.0, 0.6, 1.0]
    _, rows = overlap_rows(cs, p1s)
    assert [tuple(r[:2]) for r in rows] == [(c, p) for c in cs for p in p1s]
    for c, p1, formula, m in rows:
        assert formula == pure_pair_quantumness(p1, 1.0 - p1, c)
        phi = PureState(np.array([c, math.sqrt(1.0 - c * c)]))
        e = Ensemble(((p1, projector(PureState.basis(2, 0))), (1.0 - p1, projector(phi))))
        assert m == quantumness(e, NormSpec.trace())


def test_write_csv_converts_every_number_but_python_floats_and_strings(tmp_path):
    row = [3, True, 0.1, np.float64(0.2), np.float32(0.1), "PASS"]
    cells = [repr(float(x)) if isinstance(x, (int, float, np.floating)) else x for x in row]
    assert cells[1] == "1.0" and cells[4] == "0.10000000149011612"
    path = tmp_path / "row.csv"
    write_csv(path, ["a", "b", "c", "d", "e", "f"], [row])
    assert path.read_bytes() == ("a,b,c,d,e,f\n" + ",".join(cells) + "\n").encode()
    for x, cell in zip(row, cells):  # each cell also on its own
        write_csv(path, ["a"], [[x]])
        assert path.read_bytes() == f"a\n{cell}\n".encode(), x


_SLOP = 1e-12  # pure_pair_quantumness accepts overlaps this far outside [0, 1]
_EDGES = [0.0, 1.0, -0.0, 0.5, -1.5, 1.5, math.nan, math.inf, -math.inf,
          math.nextafter(0.0, -1.0), math.nextafter(1.0, 2.0),
          -_SLOP, 1.0 + _SLOP, math.nextafter(-_SLOP, -1.0), math.nextafter(1.0 + _SLOP, 2.0)]
_FENCED_CALLS = [
    # (call with the value in one unit slot, lowest and highest accepted value)
    (lambda v: bloch_angle_rows([0.3], [v], [0.5], [0.5]), 0.0, 1.0),
    (lambda v: bloch_angle_rows([0.3], [0.5], [v], [0.5]), 0.0, 1.0),
    (lambda v: bloch_angle_rows([0.3], [0.5], [0.5], [0.25, v]), 0.0, 1.0),
    (lambda v: phase_damping_rows([0.5, v], [0.3], [0.5]), 0.0, 1.0),
    (lambda v: phase_damping_rows([0.5], [0.3], [v]), 0.0, 1.0),
    (lambda v: overlap_rows([0.2, v], [0.5]), 0.0, 1.0),
    (lambda v: overlap_rows([0.2], [v, 0.5]), 0.0, 1.0),
    (lambda v: pure_pair_quantumness(np.array([0.5, v]), 1.0 - np.array([0.5, v]), 0.5), 0.0, 1.0),
    (lambda v: pure_pair_quantumness(0.5, 0.5, np.array([0.5, v])), -_SLOP, 1.0 + _SLOP),
]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    value=st.one_of(st.sampled_from(_EDGES), st.floats(allow_nan=True, allow_infinity=True)),
    slot=st.integers(0, len(_FENCED_CALLS) - 1),
)
def test_unit_parameters_are_fenced_exactly_at_their_interval(value, slot):
    call, lo, hi = _FENCED_CALLS[slot]
    try:
        call(value)
    except ParamOutOfRange:
        assert not lo <= value <= hi, value
    else:
        assert lo <= value <= hi, value


def test_cli_sweep_out_of_range_parameter_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for flag, value in [("--p1", "1.5"), ("--c", "1.25")]:
        assert main(["sweep", "overlap", flag, value, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "must lie in [0, 1]" in err and "Traceback" not in err
    assert not out.exists()


def test_cli_sweep_bad_grid_exits_2(tmp_path, capsys):
    out = tmp_path / "x.csv"
    for family, flag, grid in [
        ("overlap", "--c", "1:0:0.1"),
        ("overlap", "--c", "0:nan:0.1"),
        ("overlap", "--c", "0:inf:0.1"),
        ("overlap", "--c", "0:1:1e-12"),
        ("bloch-angle", "--alpha", "0:1e300:1e-300"),
        ("phase-damping", "--theta", "inf"),
        ("bloch-angle", "--alpha", "inf"),
    ]:
        assert main(["sweep", family, flag, grid, "--out", str(out)]) == 2, grid
        assert "grid" in capsys.readouterr().err, grid
    assert not out.exists()


def test_cli_random_round_trip_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    args = ["random", "--dim", "3", "--members", "4", "--rank", "2", "--seed", "9"]
    assert main([*args, "--out", str(out1)]) == 0
    assert main([*args, "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    e = io.load_ensemble(out1)
    assert len(e) == 4
    assert e.dim == 3
    assert main(["compute", str(out1), "--norm", "frobenius"]) == 0
    val = float(capsys.readouterr().out)
    assert val > 0.0


def test_cli_random_different_seed_differs(tmp_path, capsys):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    assert main(["random", "--dim", "2", "--members", "2", "--seed", "1", "--out", str(out1)]) == 0
    assert main(["random", "--dim", "2", "--members", "2", "--seed", "2", "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() != out2.read_bytes()


def test_cli_random_bad_rank_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(["random", "--dim", "2", "--members", "2", "--rank", "5", "--out", str(out)])
    assert code == 2
    assert "rank" in capsys.readouterr().err


def test_cli_random_bad_members_exits_2(tmp_path, capsys):
    out = tmp_path / "r.json"
    for members in ("0", "-1"):
        assert main(["random", "--dim", "2", "--members", members, "--out", str(out)]) == 2
        assert "members" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "dim,members,rank,seed",
    [(2, 1, 1, 0), (2, 5, None, 1), (3, 4, 2, 9), (4, 6, 1, 3), (5, 3, 5, 2), (7, 5, 3, 4),
     (8, 10, 1, 5), (12, 6, None, 8), (16, 12, 3, 6), (24, 4, 24, 7)],
)
def test_cli_random_writes_the_member_by_member_file(tmp_path, capsys, dim, members, rank, seed):
    out = tmp_path / "r.json"
    argv = ["random", "--dim", str(dim), "--members", str(members), "--seed", str(seed)]
    assert main([*argv, *(["--rank", str(rank)] if rank else []), "--out", str(out)]) == 0
    capsys.readouterr()
    rng = np.random.default_rng(seed)
    probs = rng.random(members)
    probs = probs / probs.sum()
    states = [random_density_matrix(dim, rank or dim, rng) for _ in range(members)]
    io.save_ensemble(tmp_path / "want.json", Ensemble(tuple(zip(probs, states))))
    assert out.read_bytes() == (tmp_path / "want.json").read_bytes()


@pytest.mark.parametrize("message", ["Unable to allocate 9.09 TiB for an array", ""])
@pytest.mark.parametrize("command", ["check-properties", "random"])
def test_cli_memory_error_exits_2_without_a_traceback(tmp_path, capsys, monkeypatch, command,
                                                      message):
    # The failing allocation is simulated: a real one could succeed on paper
    # (memory overcommit) and then exhaust the machine.
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    if command == "random":
        monkeypatch.setattr(cli, "_random_density_stack", exhausted)
        argv = ["random", "--dim", "2000000", "--members", "3", "--rank", "2000000",
                "--out", str(tmp_path / "r.json")]
    else:
        monkeypatch.setattr(cli, "check_properties", exhausted)
        argv = ["check-properties", "--dim", "2", "--members", "2", "--trials", "10000000000000"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message or 'out of memory'}\n"


@st.composite
def kyfan_cases(draw):
    """An ensemble file's dim and members, some of them with p = 0, and a Ky Fan order."""
    dim = draw(st.integers(1, 5))
    p = draw(st.lists(st.sampled_from([0.0, 1.0, 2.0]), min_size=1, max_size=4))
    if not any(p):
        p[draw(st.integers(0, len(p) - 1))] = 1.0
    seed = draw(st.integers(0, 2**32 - 1))
    return dim, np.array(p) / sum(p), seed, draw(st.integers(1, 7))


@settings(max_examples=60, deadline=None)
@given(kyfan_cases())
@example((2, np.array([1.0]), 0, 3))
@example((2, np.array([0.0, 1.0, 0.0]), 1, 3))
@example((2, np.array([0.5, 0.5]), 2, 2))
def test_kyfan_order_above_dim_is_rejected_whatever_the_live_pairs(case):
    dim, p, seed, k = case
    rng = np.random.default_rng(seed)
    states = np.array([random_density_matrix(dim, dim, rng).matrix for _ in p])
    spec = NormSpec.kyfan(k)
    e = Ensemble.from_stack(p, states)
    calls = [
        lambda: quantumness(e, spec),
        lambda: quantumness_batch(np.stack([p, p]), np.stack([states, states]), spec),
        lambda: norm(states[0] @ states[-1] - states[-1] @ states[0], spec),
    ]
    for call in calls:
        if k > dim:
            with pytest.raises(InvalidNormSpec, match=f"kyfan order {k} exceeds dimension {dim}"):
                call()
        else:
            call()
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/e.json"
        io.save_ensemble(path, e)
        err = StringIO()
        with warnings.catch_warnings(), redirect_stderr(err), redirect_stdout(StringIO()):
            warnings.simplefilter("error")
            code = main(["compute", path, "--norm", f"kyfan:{k}"])
    assert code == (2 if k > dim else 0)
    want = f"error: kyfan order {k} exceeds dimension {dim}\n" if k > dim else ""
    assert err.getvalue() == want


# Argument lists of every subcommand, with the exit code each must give:
# 0 on success and 2 on bad input.  "{tmp}" is a fresh directory and
# "{file}" a valid two-member ensemble file in it.
EXIT_CODES = {
    "compute": (["compute", "{file}"], 0),
    "compute-missing-file": (["compute", "{tmp}/missing.json"], 2),
    "compute-bad-norm": (["compute", "{file}", "--norm", "nuclear"], 2),
    "compute-kyfan-beyond-dim": (["compute", "{file}", "--norm", "kyfan:3"], 2),
    "compute-huge-bloch": (["compute", "{huge}"], 2),
    "sweep": (["sweep", "overlap", "--c", "0:1:0.25", "--out", "{tmp}/o.csv"], 0),
    "sweep-bad-grid": (["sweep", "overlap", "--c", "abc", "--out", "{tmp}/o.csv"], 2),
    "sweep-out-of-range": (["sweep", "overlap", "--p1", "1.5", "--out", "{tmp}/o.csv"], 2),
    "sweep-missing-dir": (["sweep", "overlap", "--out", "{tmp}/no/o.csv"], 2),
    "sweep-repeating-grid": (
        ["sweep", "overlap", "--c", "0.5:0.5000000000000004:1e-17", "--p1", "0.5", "--out",
         "{tmp}/o.csv"], 2
    ),
    "check-properties": (
        ["check-properties", "--dim", "2", "--members", "2", "--trials", "5", "--seed", "1"], 0
    ),
    "check-properties-negative-seed": (
        ["check-properties", "--dim", "2", "--members", "2", "--seed", "-1"], 2
    ),
    "check-properties-kyfan-beyond-dim": (
        ["check-properties", "--dim", "2", "--members", "2", "--trials", "5", "--norm",
         "kyfan:3"], 2
    ),
    "examples": (["examples", "--out", "{tmp}/ex"], 0),
    "examples-out-is-a-file": (["examples", "--out", "{file}"], 2),
    "random": (["random", "--dim", "2", "--members", "2", "--seed", "3", "--out",
                "{tmp}/r.json"], 0),
    "random-negative-seed": (["random", "--dim", "2", "--members", "2", "--seed", "-1",
                              "--out", "{tmp}/r.json"], 2),
    "random-bad-dim": (["random", "--dim", "0", "--members", "2", "--out", "{tmp}/r.json"], 2),
    "random-missing-arguments": (["random"], 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", sorted(EXIT_CODES))
def test_cli_exit_codes_without_a_traceback_or_warning(tmp_path, capsys, case):
    argv, want = EXIT_CODES[case]
    path = example3_file(tmp_path)
    huge = tmp_path / "huge.json"  # squaring its Bloch components overflows
    huge.write_text('{"dim": 2, "members": [{"p": 0.5, "bloch": [1e200, 1e200, 0]},'
                    ' {"p": 0.5, "bloch": [0, 0, 1]}]}')
    argv = [a.format(tmp=tmp_path, file=path, huge=huge) for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    err = capsys.readouterr().err
    assert code == want, err
    assert "Traceback" not in err
    if want == 2:
        assert err.startswith(("error: ", "usage: ")), err
    if case.endswith("negative-seed"):
        assert err == "error: seed must be >= 0, got -1\n"


@pytest.mark.filterwarnings("error")
def test_cli_check_properties_exits_1_on_a_genuine_violation(monkeypatch, capsys):
    # Correct code reaches no violation, so the dense route is put off by a
    # factor of 1 + 1e-6.  At d = 2 every other pair takes the rank-1 route,
    # so only the coarse-grained ensembles (no factors below d = 8) see it.
    dense = linalg._antihermitian_norms
    monkeypatch.setattr(
        linalg, "_antihermitian_norms", lambda c, spec: dense(c, spec) * (1.0 + 1e-6)
    )
    argv = ["check-properties", "--dim", "2", "--members", "3", "--trials", "30", "--seed", "1"]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.out + captured.err
    report = check_properties(2, 3, 30, 1, NormSpec.trace())
    assert captured.out == report.render() + "\n"
    lines = [line for line in captured.out.splitlines() if line.startswith("FAIL ")]
    assert lines
    for line in lines:
        match = re.match(r"FAIL (\S+) trial (\d+) violation (\S+) \(replay: (.*)\)$", line)
        name, trial, printed, call = match.groups()
        replayed = eval(call, {"run_single_trial": run_single_trial, "NormSpec": NormSpec})[name]
        recorded = report.violations[int(trial), PROPERTY_NAMES.index(name)]
        assert replayed.hex() == float(recorded).hex()
        assert replayed > 1e-9 and f"{replayed:.3e}" == printed


def test_cli_check_properties_passes_and_reports(capsys):
    code = main(
        ["check-properties", "--dim", "2", "--members", "2", "--trials", "25",
         "--seed", "11", "--norm", "frobenius"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "overall: PASS" in out
    for name in (
        "positivity-classicality",
        "unitary-invariance",
        "union-concavity",
        "decomposition-convexity",
        "fine-graining-monotone",
        "coarse-graining-monotone",
    ):
        assert name in out


def test_cli_check_properties_zero_trials_exits_2(capsys):
    code = main(["check-properties", "--dim", "2", "--members", "2", "--trials", "0"])
    assert code == 2
    assert "trials" in capsys.readouterr().err


def test_check_properties_report_is_deterministic():
    spec = NormSpec.kyfan(2)
    r1 = check_properties(dim=3, members=3, trials=10, seed=5, spec=spec)
    r2 = check_properties(dim=3, members=3, trials=10, seed=5, spec=spec)
    assert r1.render() == r2.render()
    r3 = check_properties(dim=3, members=3, trials=10, seed=6, spec=spec)
    assert r1.render() != r3.render()


def test_cli_examples_writes_six_passing_artifacts(tmp_path, capsys):
    out = tmp_path / "artifacts"
    assert main(["examples", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "example1_bloch_pair.csv",
        "example2_phase_damping.csv",
        "example3_pure_overlap.csv",
        "example4_coherence.csv",
        "example5_concurrence.csv",
        "example6_classical_quantum.csv",
    ]
    assert stdout.count("PASS") == 6
    for name in files:
        text = (out / name).read_text()
        assert "FAIL" not in text
        assert text.endswith("\n")
        assert "\r" not in text


def test_cli_module_entry_point(tmp_path):
    import subprocess
    import sys

    path = example3_file(tmp_path)
    res = subprocess.run(
        [sys.executable, "-m", "ensq", "compute", path],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stdout.strip() == "1.000000000000"

    res = subprocess.run(
        [sys.executable, "-m", "ensq", "compute", path, "--norm", "bogus"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 2
