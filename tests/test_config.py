import math

import pytest

from epinverse import config
from epinverse.config import KEYS, REQUIRED, ConfigKeyError, declare, get, parse_config_text


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
# get, on test keys declared like the table's
# ---------------------------------------------------------------------------

TEST_KEYS = {
    "n": declare(int),
    "b": declare(config._bool),
    "mode": declare(config._choice("parallel", "serial"), "parallel"),
    "x": declare(float, REQUIRED, *config._FINITE),
    "z": declare(config._float_list),
}


@pytest.fixture(autouse=True)
def declare_test_keys(monkeypatch):
    for key, spec in TEST_KEYS.items():
        monkeypatch.setitem(KEYS, key, spec)


def test_get_int():
    assert get({"n": "12"}, "n") == 12
    assert get({}, "n", 5) == 5
    assert code_of(lambda: get({"n": "1.5"}, "n")) == "bad_n"
    assert code_of(lambda: get({}, "n")) == "missing_n"


def test_get_bool():
    for raw in ("1", "true", "Yes", "ON"):
        assert get({"b": raw}, "b") is True
    for raw in ("0", "false", "No", "off"):
        assert get({"b": raw}, "b") is False
    assert get({}, "b", False) is False
    assert code_of(lambda: get({"b": "maybe"}, "b")) == "bad_b"


def test_get_choice_defaults_to_the_first_choice():
    assert get({}, "mode") == "parallel"
    assert get({"mode": "serial"}, "mode") == "serial"
    assert code_of(lambda: get({"mode": "Serial"}, "mode")) == "bad_mode"


def test_get_float_parses_numbers_and_defaults():
    assert get({"x": "2.5e-3"}, "x") == 2.5e-3
    assert get({"x": "-4"}, "x") == -4.0 and isinstance(get({"x": "-4"}, "x"), float)
    assert get({}, "x", 7.0) == 7.0
    assert code_of(lambda: get({"x": "abc"}, "x")) == "bad_x"
    assert code_of(lambda: get({}, "x")) == "missing_x"


@pytest.mark.parametrize("raw", ["nan", "NaN", "inf", "-inf", "Infinity", "-INF", "1e400"])
def test_get_float_rejects_non_finite_numbers(raw):
    assert code_of(lambda: get({"x": raw}, "x")) == "bad_x"


def test_get_float_list():
    assert get({"z": "1e-4 2e-4,3e-4 ,4"}, "z") == [1e-4, 2e-4, 3e-4, 4.0]
    assert get({}, "z", [1.0]) == [1.0]
    assert code_of(lambda: get({"z": "1e-4 x"}, "z")) == "bad_z"


@pytest.mark.parametrize("raw", ["inf 1e-4", "1e-4, nan", "-inf"])
def test_get_float_list_rejects_non_finite_numbers(raw):
    assert code_of(lambda: get({"z": raw}, "z")) == "bad_z"


# ---------------------------------------------------------------------------
# the table's own keys
# ---------------------------------------------------------------------------

def test_get_applies_the_rule_to_given_values_and_passed_defaults():
    _, alpha_default, *_ = KEYS["alpha"]
    assert get({}, "alpha") == alpha_default and get({}, "alpha", 400.0) == 400.0
    with pytest.raises(ConfigKeyError) as info:
        get({"alpha": "0"}, "alpha")
    assert info.value.code == "bad_alpha" and str(info.value) == "key 'alpha' must be finite and > 0, got 0.0"
    # a default that depends on other keys is checked like a given value
    assert code_of(lambda: get({}, "mcmc_proposal_std", 0.0)) == "bad_mcmc_proposal_std"


def test_floor_alone_may_be_minus_inf():
    for raw in ("-inf", "-Infinity", "-INF"):
        assert get({"floor": raw}, "floor") == -math.inf
    for raw in ("inf", "nan"):
        assert code_of(lambda: get({"floor": raw}, "floor")) == "bad_floor"
    assert code_of(lambda: get({"sigma_bg": "-inf"}, "sigma_bg")) == "bad_sigma_bg"


@pytest.mark.parametrize("raw", ["-1", "-12345678901234567890"])
def test_a_negative_seed_is_bad_seed(raw):
    assert code_of(lambda: get({"seed": raw}, "seed")) == "bad_seed"


@pytest.mark.parametrize("name", ["", ".", "..", "../x.txt", "../../x.txt", "a/b.txt", "/tmp/x.txt", "sub/"])
def test_mesh_file_must_be_a_bare_file_name(name):
    assert code_of(lambda: get({"mesh_file": name}, "mesh_file")) == "bad_mesh_file"


def test_missing_files_keep_their_codes(tmp_path):
    absent = str(tmp_path / "absent.txt")
    assert code_of(lambda: get({"mesh": absent}, "mesh")) == "mesh_not_found"
    assert code_of(lambda: get({"data": absent}, "data")) == "data_not_found"
    assert code_of(lambda: get({"fine_mesh": absent}, "fine_mesh")) == "mesh_not_found"
    assert get({"fine_mesh": ""}, "fine_mesh") is None
    assert code_of(lambda: get({}, "mesh")) == "missing_mesh"
