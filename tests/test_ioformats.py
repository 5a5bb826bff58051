import pytest
from hypothesis import given, settings

import polymat as pm
from conftest import I, M, monomial_lists


def test_parse_monomial_basic():
    assert M("x1^2*x3") == pm.Monomial((2, 0, 1))
    assert M("x2", 3) == pm.Monomial((0, 1, 0))
    assert M("1", 4) == pm.unit_monomial(4)


def test_parse_monomial_repeated_factor_multiplies():
    assert M("x1*x1*x2") == pm.Monomial((2, 1))


def test_parse_monomial_errors_carry_position():
    with pytest.raises(pm.ParseError) as exc:
        M("x1^-2")
    assert "negative" in str(exc.value)
    with pytest.raises(pm.ParseError):
        M("x0*x2")
    with pytest.raises(pm.ParseError) as exc:
        M("x1*y2")
    assert exc.value.position == 3
    with pytest.raises(pm.ParseError):
        M("x5", 3)
    with pytest.raises(pm.ParseError):
        M("1")  # no way to infer the ambient size


def test_parse_ideal_plus_and_lines():
    joined = I("x1^2 + x1*x2 + x2^2")
    lines = I("x1^2\nx1*x2\nx2^2")
    mixed = I("x1^2 + x1*x2\nx2^2")
    assert joined == lines == mixed


def test_parse_ideal_minimalizes():
    assert I("x1^2 + x1*x2 + x2") == I("x1^2 + x2")


def test_parse_ideal_error_location():
    with pytest.raises(pm.ParseError) as exc:
        I("x1^2\nx1*x%2")
    assert exc.value.line == 2


def test_format_round_trip():
    ideal = I("x1*x3^2 + x1^2*x3 + x1*x2*x3 + x2^2*x3")
    assert pm.parse_ideal(str(ideal)) == ideal
    assert pm.parse_ideal("\n".join(map(str, ideal.gens))) == ideal


@given(monomial_lists(max_len=6))
@settings(max_examples=50)
def test_text_round_trip_random(data):
    n, mons = data
    ideal = pm.MonomialIdeal(n, mons)
    assert pm.parse_ideal(str(ideal), n) == ideal


def test_json_round_trip():
    ideal = I("x1^2*x3 + x2^2*x3")
    data = pm.ideal_to_json_dict(ideal)
    assert data == {"n": 3, "gens": [[2, 0, 1], [0, 2, 1]]}
    assert pm.ideal_from_json_dict(data) == ideal


def test_json_rejects_bad_input():
    with pytest.raises(pm.ParseError):
        pm.ideal_from_json_dict({"n": 2, "gens": [[1, -1]]})
    with pytest.raises(pm.ParseError):
        pm.ideal_from_json_dict({"n": 2, "gens": [[1, 0, 0]]})
    with pytest.raises(pm.ParseError):
        pm.ideal_from_json_dict({"gens": [[1, 0]]})
    # JSON true/false load as bool, which Python counts as an int
    with pytest.raises(pm.ParseError):
        pm.ideal_from_json_dict({"n": True, "gens": [[1]]})
    with pytest.raises(pm.ParseError):
        pm.ideal_from_json_dict({"n": 2, "gens": [[True, False]]})


@pytest.mark.parametrize(
    "parse, message, position",
    [
        (lambda: pm.parse_ideal("x1 + "), "empty monomial", 5),
        (lambda: pm.parse_ideal(" \n "), "no generators given", 0),
        (lambda: pm.ideal_from_json_dict({"n": 2, "gens": [[1, 0], 3]}),
         "generator 1 is not an exponent vector", 1),
        (lambda: pm.load_ideal_text('{"n": 2,'), "bad JSON: ", 8),
    ],
    ids=["empty monomial", "no generators", "not a vector", "bad JSON"],
)
def test_parser_refusals(parse, message, position):
    with pytest.raises(pm.ParseError) as exc:
        parse()
    assert str(exc.value).startswith(message)
    assert exc.value.position == position


def test_load_ideal_text_checks_a_given_n_against_json():
    text = '{"n": 3, "gens": [[1, 0, 0], [0, 1, 0]]}'
    assert pm.load_ideal_text(text, 3) == I("x1 + x2", 3)
    with pytest.raises(pm.ParseError):
        pm.load_ideal_text(text, 5)


def test_load_ideal_text_sniffs_json():
    text = '{"n": 2, "gens": [[2, 0], [1, 1]]}'
    assert pm.load_ideal_text(text) == I("x1^2 + x1*x2", 2)
    assert pm.load_ideal_text("x1^2 + x1*x2") == I("x1^2 + x1*x2")


def test_parse_variable_order():
    assert pm.parse_variable_order("3,2,1") == pm.VariableOrder((3, 2, 1))
    with pytest.raises(pm.ParseError):
        pm.parse_variable_order("3,3,1")
    with pytest.raises(pm.ParseError):
        pm.parse_variable_order("a,b")
    assert pm.parse_variable_order(" 3 ,2, 1 ") == pm.VariableOrder((3, 2, 1))
    # the entries are ASCII digits: int() alone would read each of these
    for text in ("1_0,2", "1,\u0662", "+1,2", "\uff11,2"):
        with pytest.raises(pm.ParseError):
            pm.parse_variable_order(text)


@pytest.mark.parametrize("text", ["x\u0661", "x1^\u0662", "x\uff11", "x1_0"])
def test_factors_read_ascii_digits_only(text):
    with pytest.raises(pm.ParseError):
        pm.parse_monomial(text)
