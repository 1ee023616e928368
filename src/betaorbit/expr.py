"""Points of Q(beta) given on the command line, read by Python's own parser.

A string starting with '{' is FieldElement JSON: an object whose "coeffs"
list holds rationals (integers, JSON numbers or strings such as "-3/4"),
constant coordinate first.  Anything else is an expression in b:
nonnegative integers, b for the base, + - * /, ^ with an integer exponent
(optionally negated), and parentheses, e.g. "1/(b^2-1)".

The expression is first normalised as text: whitespace runs become one
space and every digit run is rewritten as its integer, so leading zeros and
non-ASCII decimal digits read as ASCII integers.  Any character other than
ASCII digits, b, ( ) + - * / ^ and space is refused, as are '**', a '^' not
followed by an integer literal, and a digit directly followed by b (Python
would read 0b1 as a binary literal).  Then ^ is read as **, ast.parse
builds the tree, and only these nodes are evaluated, in exact field
arithmetic: an int constant, the name b, unary + and -, binary + - * /,
and ** whose exponent is an int literal, optionally negated.  Any other
node is an ExprError.  So is a power whose |exponent| times the bit size of
its evaluated base exceeds MAX_POWER_BITS, refused before it is computed,
and an expression deeper than Python's parser allows (200 nested
parentheses) or than the recursion limit allows (a little under 1000
chained operators).

The point itself is bounded in either form: a digit run longer than
MAX_DIGITS is refused before int() reads it (n digits cost about n^2), and
any evaluated node or JSON point wider than MAX_POWER_BITS bits as soon as
it is built, so no product or inverse runs on it.
"""

import ast
import json
import math
import operator
import re
import sys
from fractions import Fraction

from .field import FieldElement
from .polys import MAX_EXPONENT

# largest |E| times the base's bit size (its widest numerator or denominator)
# in a power x^E; the result's coefficients grow about that wide
MAX_POWER_BITS = 200_000
# the number of decimal digits of 2^MAX_POWER_BITS
MAX_DIGITS = math.floor(MAX_POWER_BITS * math.log10(2)) + 1

_OPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
        ast.Div: operator.truediv, ast.USub: operator.neg, ast.UAdd: lambda x: x}


class ExprError(ValueError):
    """Malformed point expression."""


def fraction(value) -> Fraction:
    """value (an int, a float, or a string such as '-3/4' or '1e-12') as a
    Fraction.  A decimal exponent larger than MAX_EXPONENT in size is refused
    before Fraction expands it."""
    exp = re.search(r"e[-+]?(\d[\d_]*)", value, re.IGNORECASE) if isinstance(value, str) else None
    if exp and int(exp.group(1).replace("_", "")) > MAX_EXPONENT:
        raise ExprError(f"decimal exponent beyond {MAX_EXPONENT} in {value[:80]!r}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ExprError(f"not a rational number: {str(value)[:80]!r}") from None


def _bits(value: FieldElement) -> int:
    """The bit size of a point: that of its widest numerator or denominator."""
    return max(n.bit_length() for n in (*value.nums, value.den))


def _bounded(value: FieldElement, where) -> FieldElement:
    """value, unless its bit size exceeds MAX_POWER_BITS; where() is the text
    that names it in the error."""
    if _bits(value) > MAX_POWER_BITS:
        raise ExprError(f"point beyond {MAX_POWER_BITS} bits (its widest numerator or "
                        f"denominator) at {where()[:60]!r}")
    return value


def _source(node) -> str:
    return ast.unparse(node).replace("**", "^")


def _evaluate(params, node) -> FieldElement:
    match node:
        case ast.Constant(value=int(n)):
            value = params.field.from_rational(n)
        case ast.Name(id="b"):
            value = params.beta
        case ast.BinOp(x, ast.Pow(), ast.Constant() | ast.UnaryOp(ast.USub(), ast.Constant()) as e):
            base, exponent = _evaluate(params, x), ast.literal_eval(e)
            bits = _bits(base)
            if abs(exponent) * bits > MAX_POWER_BITS:
                raise ExprError(f"power beyond {MAX_POWER_BITS} bits (|exponent| times the base's "
                                f"bit size {bits}) in {_source(node)[:60]!r}")
            value = base ** exponent
        case ast.UnaryOp(op, x) if type(op) in _OPS:
            value = _OPS[type(op)](_evaluate(params, x))
        case ast.BinOp(x, op, y) if type(op) in _OPS:
            value = _OPS[type(op)](_evaluate(params, x), _evaluate(params, y))
        case _:
            raise ExprError(f"unexpected {_source(node)[:80]!r}")
    return _bounded(value, lambda: _source(node))


def parse_point(params, text: str) -> FieldElement:
    """The point that text names in Q(beta) of params.  MAX_DIGITS bounds
    every digit run, so Python's own limit on decimal int/str conversions
    (sys.get_int_max_str_digits, process-wide) is lifted while the point is
    read, and a library caller reads the same points as the command line."""
    if re.search(rf"\d{{{MAX_DIGITS + 1}}}", text):
        raise ExprError(f"a digit run longer than {MAX_DIGITS} digits in {text[:60]!r}...")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit (before 3.10.7)
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        return _read_point(params, text)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _read_point(params, text: str) -> FieldElement:
    if text.lstrip().startswith("{"):
        match json.loads(text.strip()):
            case {"coeffs": list(coeffs)}:
                point = params.field.element([fraction(c) for c in coeffs])
                return _bounded(point, text.strip)
        raise ExprError(f'FieldElement JSON needs a "coeffs" list: {text.strip()[:80]!r}')
    text = re.sub(r"\d+", lambda run: str(int(run.group())), " ".join(text.split()))
    if refused := re.search(r"[^0-9b()+\-*/^ ]|\*\*|\^(?! ?-? ?\d)|\db", text):
        raise ExprError(f"unexpected {refused.group()!r} in {text[:80]!r}")
    try:
        return _evaluate(params, ast.parse(text.replace("^", "**"), mode="eval").body)
    # MemoryError is the parser's own stack limit (deep runs of unary signs)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        raise ExprError(f"malformed point {text[:80]!r}: {getattr(exc, 'msg', 'too deep')}") from None
