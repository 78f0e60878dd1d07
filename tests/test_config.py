import pytest

from epinverse.config import (
    ConfigKeyError,
    get_bool,
    get_choice,
    get_float,
    get_float_list,
    get_int,
    parse_config_text,
)


def code_of(call):
    with pytest.raises(ConfigKeyError) as info:
        call()
    return info.value.code


# ---------------------------------------------------------------------------
# parse_config_text
# ---------------------------------------------------------------------------

def test_parse_skips_comments_and_blank_lines():
    text = "# a whole-line comment\n\n  alpha = 400  # trailing comment\n   \nmesh = a.txt\n"
    assert parse_config_text(text) == {"alpha": "400", "mesh": "a.txt"}


def test_parse_equals_sign_is_optional():
    assert parse_config_text("alpha 400\nlambda=2\nfloor   -inf\n") == {"alpha": "400", "lambda": "2", "floor": "-inf"}


def test_parse_splits_at_the_first_equals_sign_and_strips():
    assert parse_config_text("  patterns =  0-1, 2-3 = x \n") == {"patterns": "0-1, 2-3 = x"}


def test_parse_later_line_wins():
    assert parse_config_text("seed = 1\nseed = 2\n") == {"seed": "2"}


def test_parse_key_without_value_is_a_bad_config_line():
    with pytest.raises(ConfigKeyError) as info:
        parse_config_text("alpha = 400\nlonely\n")
    assert info.value.code == "bad_config_line" and "line 2" in str(info.value)


# ---------------------------------------------------------------------------
# getters
# ---------------------------------------------------------------------------

def test_get_int():
    assert get_int({"n": "12"}, "n") == 12
    assert get_int({}, "n", 5) == 5
    assert code_of(lambda: get_int({"n": "1.5"}, "n")) == "bad_n"
    assert code_of(lambda: get_int({}, "n")) == "missing_n"


def test_get_bool():
    for raw in ("1", "true", "Yes", "ON"):
        assert get_bool({"b": raw}, "b") is True
    for raw in ("0", "false", "No", "off"):
        assert get_bool({"b": raw}, "b") is False
    assert get_bool({}, "b", False) is False
    assert code_of(lambda: get_bool({"b": "maybe"}, "b")) == "bad_b"


def test_get_choice_defaults_to_the_first_choice():
    choices = ("parallel", "serial")
    assert get_choice({}, "mode", choices) == "parallel"
    assert get_choice({"mode": "serial"}, "mode", choices) == "serial"
    assert code_of(lambda: get_choice({"mode": "Serial"}, "mode", choices)) == "bad_mode"


def test_get_float_parses_numbers_and_defaults():
    assert get_float({"x": "2.5e-3"}, "x") == 2.5e-3
    assert get_float({"x": "-4"}, "x") == -4.0
    assert get_float({}, "x", 7) == 7.0 and isinstance(get_float({}, "x", 7), float)
    assert code_of(lambda: get_float({"x": "abc"}, "x")) == "bad_x"
    assert code_of(lambda: get_float({}, "x")) == "missing_x"


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "-INF", "1e400"])
def test_get_float_rejects_non_finite_numbers(raw):
    assert code_of(lambda: get_float({"x": raw}, "x")) == "bad_x"


def test_get_float_list():
    assert get_float_list({"z": "1e-4 2e-4,3e-4 ,4"}, "z") == [1e-4, 2e-4, 3e-4, 4.0]
    assert get_float_list({}, "z", [1.0]) == [1.0]
    assert code_of(lambda: get_float_list({"z": "1e-4 x"}, "z")) == "bad_z"


@pytest.mark.parametrize("raw", ["inf 1e-4", "1e-4, nan", "-inf"])
def test_get_float_list_rejects_non_finite_numbers(raw):
    assert code_of(lambda: get_float_list({"z": raw}, "z")) == "bad_z"

