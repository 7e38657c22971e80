"""Flat `key = value` config parsing: getters, errors, unknown-key reporting."""

import re

import pytest

from mstrack.errors import ConfigError
from mstrack.flatcfg import parse_flat_file, parse_flat_text


def test_parse_skips_blanks_and_comments():
    cfg = parse_flat_text("\n# comment\nthreads = 4\n\n", source="t")
    assert cfg.get_int("threads", 0) == 4


def test_typed_getters():
    cfg = parse_flat_text(
        "a.int = 3\na.float = 2.5\na.str = hello\na.bool = true\n"
        "a.floats = 1.0 2.0 3.0\na.list = x, y, z\n",
        source="t",
    )
    assert cfg.get_int("a.int", 0) == 3
    assert cfg.get_float("a.float", 0.0) == 2.5
    assert cfg.get_str("a.str", "") == "hello"
    assert cfg.get_floats("a.floats", ()) == (1.0, 2.0, 3.0)
    assert cfg.get_list("a.list", ()) == ("x", "y", "z")


def test_defaults_returned_for_missing_keys():
    cfg = parse_flat_text("", source="t")
    assert cfg.get_int("nope", 9) == 9
    assert cfg.get_list("nope", ("a",)) == ("a",)


def test_bad_int_value_names_line():
    cfg = parse_flat_text("k = abc\n", source="cfg.txt")
    with pytest.raises(ConfigError, match="cfg.txt:1"):
        cfg.get_int("k", 0)


@pytest.mark.parametrize("value", ["1_0", "+2", "\uff13"])
def test_int_values_are_plain_decimal_only(value):
    # int() reads these as 10, 2 and 3
    cfg = parse_flat_text(f"k = {value}\n", source="cfg.txt")
    message = f"cfg.txt:1: key 'k' needs an integer, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.get_int("k", 0)


def test_int_values_keep_their_sign_and_leading_zeros():
    cfg = parse_flat_text("a = -3\nb = 007\n", source="t")
    assert (cfg.get_int("a"), cfg.get_int("b")) == (-3, 7)


@pytest.mark.parametrize(
    "value", ["1_0.5", "+0.1", "\uff10.\uff15", "nan", "inf", "-inf", "0x1p3", "1e", ".", "1.5.", "e5"]
)
def test_float_values_are_plain_decimal_only(value):
    # float() reads the first three as 10.5, 0.1 and 0.5, and takes nan and inf
    cfg = parse_flat_text(f"k = {value}\nks = 1 {value}\n", source="cfg.txt")
    message = f"cfg.txt:1: key 'k' needs a number, got {value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.get_float("k", 0.0)
    message = f"cfg.txt:2: key 'ks' needs a number list, got {'1 ' + value!r}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        cfg.get_floats("ks", ())


def test_float_values_keep_exponents_and_extremes():
    text = "a = -0.5\nb = 3.\nc = .25\nd = 1E+2\ne = 1e-40\nf = -1e39\ng = 1e308\nh = 1e-320\n"
    cfg = parse_flat_text(text + "l = 007 -2.5e1\n", source="t")
    assert [cfg.get_float(k) for k in "abcdefgh"] == [
        -0.5, 3.0, 0.25, 100.0, 1e-40, -1e39, 1e308, 1e-320
    ]
    assert cfg.get_floats("l") == (7.0, -25.0)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match=":2"):
        parse_flat_text("a = 1\nnot a pair\n", source="t")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_flat_text("a.b = 1\na.b = 2\n", source="t")


def test_key_syntax_rejected():
    with pytest.raises(ConfigError):
        parse_flat_text("UPPER = 1\n", source="t")


def test_reject_unknown_reports_first_offender_line():
    cfg = parse_flat_text("known = 1\nbad.two = 2\nbad.one = 3\n", source="f")
    with pytest.raises(ConfigError, match=r"f:2: unknown key 'bad\.two'"):
        cfg.reject_unknown({"known"})


def test_reject_unknown_accepts_patterns():
    cfg = parse_flat_text("scene.a.x = 1\nplain = 2\n", source="f")
    cfg.reject_unknown({"plain", re.compile(r"scene\.[a-z]+\.x$")})


def test_parse_flat_file_round_trip(tmp_path):
    p = tmp_path / "run.cfg"
    p.write_text("threads = 2\n")
    cfg = parse_flat_file(p)
    assert cfg.get_int("threads", 0) == 2
    assert cfg.line_of("threads") == 1
