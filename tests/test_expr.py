"""parse_point: expressions in b against FieldElement arithmetic, refusal of
junk and of nodes outside the whitelist, FieldElement JSON shapes, and the
bounded rational reader behind JSON coefficients and `--tol`."""

import json
import operator
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from betaorbit import ExpansionParams, IntPolynomial, NumberField
from betaorbit.errors import DivisionByZero
from betaorbit.expr import (MAX_DIGITS, MAX_EXPONENT, MAX_POWER_BITS, ExprError, fraction,
                            parse_point)

PARAMS = [ExpansionParams(NumberField(IntPolynomial(c)), 1)
          for c in ((-1, -1, 1), (-1, -1, -1, -1, 0, 1), (-2, 1), (-1, -1, 0, 1))]

# precedence of each node's rendering: sums < products < unary < powers < atoms
PREC = {"add": 0, "sub": 0, "mul": 1, "div": 1, "neg": 2, "pos": 2, "pow": 3,
        "num": 4, "b": 4, "paren": 4}
BINARY = {"add": ("+", operator.add), "sub": ("-", operator.sub),
          "mul": ("*", operator.mul), "div": ("/", operator.truediv)}
SPACE = st.sampled_from(["", "", "", " ", "  ", "\t", "\n", " \t\n "])

trees = st.recursive(
    st.one_of(st.tuples(st.just("num"), st.integers(0, 10**6)), st.just(("b",))),
    lambda kids: st.one_of(
        st.tuples(st.sampled_from(["neg", "pos", "paren"]), kids),
        st.tuples(st.sampled_from(sorted(BINARY)), kids, kids),
        st.tuples(st.just("pow"), kids, st.integers(-3, 4))),
    max_leaves=10)


def value(params, tree):
    """The tree evaluated by FieldElement arithmetic."""
    kind = tree[0]
    if kind == "num":
        return params.field.from_rational(tree[1])
    if kind == "b":
        return params.beta
    if kind == "neg":
        return -value(params, tree[1])
    if kind in ("pos", "paren"):
        return value(params, tree[1])
    if kind == "pow":
        return value(params, tree[1]) ** tree[2]
    return BINARY[kind][1](value(params, tree[1]), value(params, tree[2]))


def number(draw, n: int) -> str:
    """n with optional leading zeros, some 3s written as Arabic-Indic digits."""
    text = "0" * draw(st.integers(0, 2)) + str(n)
    return text.replace("3", "٣") if draw(st.booleans()) else text


def render(draw, tree, need: int = 0) -> str:
    """Text of tree, parenthesised where its precedence is below need, with
    random whitespace between tokens and random redundant parentheses."""
    kind = tree[0]
    sp = lambda: draw(SPACE)  # noqa: E731
    if kind == "num":
        text = number(draw, tree[1])
    elif kind == "b":
        text = "b"
    elif kind == "paren":
        text = "(" + sp() + render(draw, tree[1]) + sp() + ")"
    elif kind in ("neg", "pos"):
        text = ("-" if kind == "neg" else "+") + sp() + render(draw, tree[1], PREC["neg"])
    elif kind == "pow":
        sign = "-" + sp() if tree[2] < 0 else ""
        text = render(draw, tree[1], PREC["b"]) + sp() + "^" + sp() + sign + number(draw, abs(tree[2]))
    else:
        prec = PREC[kind]
        text = (render(draw, tree[1], prec) + sp() + BINARY[kind][0] + sp()
                + render(draw, tree[2], prec + 1))
    if PREC[kind] < need or draw(st.integers(0, 9)) == 0:
        text = "(" + text + ")"
    return text


def outcome(f, *args):
    try:
        return f(*args)
    except DivisionByZero as exc:
        return type(exc)


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(PARAMS), trees, st.data())
def test_parse_point_matches_field_arithmetic(params, tree, data):
    text = data.draw(SPACE) + render(data.draw, tree) + data.draw(SPACE)
    assert outcome(parse_point, params, text) == outcome(value, params, tree), text


# every one of these is refused as text or by the parser, wherever it is
# inserted, so no evaluation (and so no zero divisor) runs first
JUNK = ["**", "q", "1.5", "2b", "٣b", "0b1", ",", "²", "^(2)", "^+2", "#", "(", ")"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PARAMS), trees, st.sampled_from(JUNK), st.data())
def test_junk_raises_only_expr_error(params, tree, junk, data):
    text = render(data.draw, tree)
    k = data.draw(st.integers(0, len(text)))
    with pytest.raises(ExprError):
        parse_point(params, text[:k] + junk + text[k:])


@pytest.mark.parametrize("text", [
    "1//2", "b(2)", "(1)(2)", "()", "b2", "bb", "b^2^3", "2^b", "b^(2)", "b^-(2)", "b^--2",
    "", "   ", "1 2", "b*^2", "(" * 201 + "1" + ")" * 201, "-" * 5000 + "1", "1" + "+1" * 5000])
def test_refused_expressions_raise_expr_error(golden_params, text):
    with pytest.raises(ExprError) as info:
        parse_point(golden_params, text)
    assert "\n" not in str(info.value) and len(str(info.value)) < 160


@pytest.mark.parametrize("text, expected", [
    ("1/(b^2-1)", lambda b: (b * b - 1).inverse()),
    ("-b^2", lambda b: -(b * b)),
    ("b ^ - 2", lambda b: (b * b).inverse()),
    ("\t0007 /\n٣", lambda b: b.field.from_rational(Fraction(7, 3))),
    ("(" * 200 + "b" + ")" * 200, lambda b: b),
    ("+".join(["1/1000"] * 500), lambda b: b.field.from_rational(Fraction(1, 2))),
])
def test_accepted_expressions(golden_params, text, expected):
    assert parse_point(golden_params, text) == expected(golden_params.beta)


def test_zero_divisor_is_not_an_expr_error(golden_params):
    for text in ("1/0", "0^-1", "1/(b-b)"):
        with pytest.raises(DivisionByZero):
            parse_point(golden_params, text)


def test_powers_beyond_the_bit_budget_are_refused():
    # |exponent| times the bit size of the evaluated base: b has 1 bit, 2 and
    # 1/2 have 2, and b^1000 on the quintic about 600, so the nested power is
    # refused
    quintic = PARAMS[1]
    assert parse_point(quintic, "b^-100000") == quintic.beta ** -100000
    half = MAX_POWER_BITS // 2
    assert parse_point(quintic, f"2^{half}") == quintic.field.from_rational(2 ** half)
    for text in (f"2^{half + 1}", f"(1/2)^{half + 1}", f"b^-{MAX_POWER_BITS + 1}",
                 "(b^1000)^1000"):
        with pytest.raises(ExprError, match="power beyond"):
            parse_point(quintic, text)


def test_points_beyond_the_bit_budget_are_refused():
    # a digit run is refused by its length before int() reads it; MAX_DIGITS
    # nines pass that check but make a 200001-bit constant, refused as soon
    # as it is built, and so are a product and a JSON point of that size
    quintic = PARAMS[1]
    assert 10 ** (MAX_DIGITS - 1) <= 2 ** MAX_POWER_BITS < 10 ** MAX_DIGITS
    nines = "9" * MAX_DIGITS
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # as the command line does
    try:
        for text, error in [("1/" + nines + "9", "a digit run"),
                            (f'{{"coeffs": ["1/{nines}9"]}}', "a digit run"),
                            ("1/" + nines, "point beyond"),
                            (f'{{"coeffs": [0, "1/{nines}"]}}', "point beyond"),
                            ("1/(2^99999*2^99999*2^99999)", "point beyond")]:
            t0 = time.perf_counter()
            with pytest.raises(ExprError, match=error):
                parse_point(quintic, text)
            assert time.perf_counter() - t0 < 1
    finally:
        sys.set_int_max_str_digits(limit)
    # the README's example stays inside the budget: b^-100000 has 23602 bits
    point = parse_point(quintic, "b^-100000")
    assert max(n.bit_length() for n in (*point.nums, point.den)) == 23602


def test_library_reads_long_digit_runs_under_the_default_limit():
    # Python refuses decimal int/str conversions beyond 4300 digits by
    # default; parse_point reads what the command line reads and leaves the
    # caller's limit as it was
    quintic = PARAMS[1]
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    try:
        want = quintic.field.from_rational(Fraction(3, 10 ** 5000 - 1))  # 1/33...3
        assert parse_point(quintic, "1/" + "3" * 5000) == want
        assert parse_point(quintic, f'{{"coeffs": ["1/{"3" * 5000}"]}}') == want
        with pytest.raises(ExprError, match="power beyond"):
            parse_point(quintic, f"({'3' * 5000})^100")
        assert sys.get_int_max_str_digits() == sys.int_info.default_max_str_digits
    finally:
        sys.set_int_max_str_digits(limit)


# === FieldElement JSON ===

@pytest.mark.parametrize("text", [
    '{"foo": 1}', '{"coeffs": 5}', '{"coeffs": [null]}', '{"coeffs": ["1/0"]}', "[1]",
    '{"coeffs": [[1]]}', '{"coeffs": [1e999]}', '{"coeffs": ["1e-999999"]}', '{"coeffs": ["x"]}'])
def test_malformed_json_points_raise_expr_error(golden_params, text):
    with pytest.raises(ExprError):
        parse_point(golden_params, text)


def test_json_points_accept_numbers_and_rational_strings(golden_params):
    b = golden_params.beta
    f = golden_params.field
    assert parse_point(golden_params, '{"coeffs": [1.5, "-3/4"]}') == f.from_rational(Fraction(3, 2)) - b * Fraction(3, 4)
    assert parse_point(golden_params, ' {"coeffs": ["1e-3"]} ') == f.from_rational(Fraction(1, 1000))
    assert parse_point(golden_params, json.dumps({"coeffs": []})) == f.zero
    with pytest.raises(json.JSONDecodeError):
        parse_point(golden_params, "{coeffs}")


# === the bounded rational reader ===

def test_fraction_reads_what_fraction_reads():
    for text in ("1e-12", "-3/4", " 7 ", "1.5E+3", "1_000", f"1e-{MAX_EXPONENT}"):
        assert fraction(text) == Fraction(text)
    assert fraction(3) == 3 and fraction(0.5) == Fraction(1, 2)


def test_fraction_refuses_huge_exponents_before_expanding_them():
    t0 = time.perf_counter()
    for text in (f"1e-{MAX_EXPONENT + 1}", "1e-9999999999", "1E+1_000_000_000"):
        with pytest.raises(ExprError, match="decimal exponent"):
            fraction(text)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("value", ["1/0", "abc", "", None, [1], float("inf"), float("nan")])
def test_fraction_errors_are_expr_errors(value):
    with pytest.raises(ExprError):
        fraction(value)
