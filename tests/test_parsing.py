"""The element and generator-polynomial parsers: exact error messages and
positions, and canonical results built without a second validation pass."""

import random
import re
from fractions import Fraction

import pytest

from qsymm._sparse import _parse_terms, _scan_rational
from qsymm.compositions import _parse_composition_at, _scan_int
from qsymm.elements import QSymmElement, _parse_bare_composition, parse_element
from qsymm.errors import ParseError
from qsymm.generators import (
    UNIT_MONOMIAL,
    GeneratorPolynomial,
    _parse_monomial,
    format_generator_polynomial,
    parse_generator_polynomial,
)

# (literal, message, position), as the character-by-character scanners gave them.
ELEMENT_ERRORS = [
    ("", "empty element literal", 0),
    (" ", "empty element literal", 0),
    ("\t", "empty element literal", 0),
    ("+", "expected a coefficient or '['", 1),
    ("-", "expected a coefficient or '['", 1),
    ("[1] [2]", "expected '+' or '-' between terms", 4),
    ("2*", "expected '['", 2),
    ("2 * ", "expected '['", 4),
    ("2 *[1", "expected ',' or ']'", 5),
    ("1/", "expected a denominator", 2),
    ("1/0", "zero denominator", 2),
    (" 1 / 2", "expected '+' or '-' between terms", 3),
    ("[1]+", "expected a coefficient or '['", 4),
    ("[1] + - [2]", "expected a coefficient or '['", 6),
    ("3*x", "expected '['", 2),
    ("x", "expected a coefficient or '['", 0),
    ("2*[1,]", "expected a positive integer part", 5),
    ("[1]\t-\t2*[ 1 , 2 ]\t+", "expected a coefficient or '['", 19),
    ("[1] 2", "expected '+' or '-' between terms", 4),
    ("- [1] - - [2]", "expected a coefficient or '['", 8),
    ("1/2/3", "expected '+' or '-' between terms", 3),
    ("2**[1]", "expected '['", 2),
    ("[1,2] + [0]", "parts must be >= 1", 9),
]

GENERATOR_ERRORS = [
    ("", "empty generator polynomial literal", 0),
    ("e", "expected a lambda index after 'e'", 1),
    ("e1", "expected '(' in generator factor", 2),
    ("e1(", "expected '['", 3),
    ("e1([1]", "expected ')' in generator factor", 6),
    ("e1([1])^", "expected an exponent after '^'", 8),
    ("e1([1])^0", "exponent must be >= 1", 8),
    ("e1([1]) *", "expected a generator factor like e2([1,2])", 9),
    ("e1([1])*e2([1]", "expected ')' in generator factor", 14),
    ("2*e1([1]) - ", "expected a generator factor like e2([1,2])", 12),
    (" e1( [1] ) ^2 * e2([ 1 , 2 ])", "expected '+' or '-' between terms", 11),
    ("e1 ([1])", "expected '(' in generator factor", 2),
    ("e1([1]) ^2", "expected '+' or '-' between terms", 8),
    ("1/2", "expected '+' or '-' between terms", 1),
    ("e1([1])e2([1])", "expected '+' or '-' between terms", 7),
    ("3 * e1([1])^2 + 2 - e1([1])^2*1", "expected a generator factor like e2([1,2])", 30),
]


def raised(parse, text):
    with pytest.raises(ParseError) as info:
        parse(text)
    return str(info.value), info.value.position


@pytest.mark.parametrize("bad, message, position", ELEMENT_ERRORS)
def test_element_errors_exact(bad, message, position):
    assert raised(parse_element, bad) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize("bad, message, position", GENERATOR_ERRORS)
def test_generator_polynomial_errors_exact(bad, message, position):
    assert raised(parse_generator_polynomial, bad) == (f"{message} (at position {position})", position)


@pytest.mark.parametrize("bad, message", [("e0([1])", "lambda index must be >= 1"),
                                          ("e1([2])", "[2] is not an elementary Lyndon word")])
def test_generator_factor_checks_stay(bad, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        parse_generator_polynomial(bad)


COMPS = [(), (1,), (2,), (1, 1), (1, 2), (2, 1), (3,), (1, 1, 2), (2, 2)]
SPACES = ["", " ", "\t", "  "]


def random_element_text(rng):
    """Signed terms over few compositions, so keys repeat and some cancel;
    coefficients are integers, fractions (some integral) and bare rationals,
    with whitespace between tokens."""
    ws = lambda: rng.choice(SPACES)
    chunks = []
    for i in range(rng.randint(1, 9)):
        sign = rng.choice("+-") if i else rng.choice(["", "-"])
        comp = rng.choice(COMPS)
        body = "[" + ws() + (ws() + "," + ws()).join(map(str, comp)) + ws() + "]"
        kind = rng.randrange(4)
        num = rng.randint(1, 6)
        if kind == 0:
            term = body
        elif kind == 1:
            term = f"{num}{ws()}*{ws()}{body}"
        elif kind == 2:
            term = f"{num}/{rng.randint(1, 4)}{ws()}*{ws()}{body}"
        else:
            term = f"{num}/{rng.choice([1, 2, 3])}"
        chunks.append(f"{ws()}{sign}{ws()}{term}")
    return "".join(chunks) + ws()


def random_generator_text(rng):
    factors = ["e1([1])", "e2([1])", "e1([1,2])", "e3([1])", "e1( [ 1 , 2 ] )", "e2([1,1,2])"]
    chunks = []
    for i in range(rng.randint(1, 7)):
        sign = rng.choice(" + | - |+|-".split("|")) if i else rng.choice(["", "-"])
        mono = rng.choice(["*", " * "]).join(
            rng.choice(factors) + rng.choice(["", "^2", "^3"]) for _ in range(rng.randint(1, 3))
        )
        kind = rng.randrange(3)
        if kind == 0:
            term = mono
        elif kind == 1:
            term = f"{rng.randint(1, 5)}{rng.choice(['*', ' * '])}{mono}"
        else:
            term = str(rng.randint(1, 5))
        chunks.append(sign + term)
    return "".join(chunks)


def stores_only_ints(x):
    return all(type(q) is int for _, q in x.terms())


def test_element_parse_matches_public_constructor():
    rng = random.Random(61)
    cancelled = fractional = 0
    for _ in range(400):
        text = random_element_text(rng)
        summed = _parse_terms(text, _scan_rational, _parse_composition_at, (), "element", _parse_bare_composition)
        el = parse_element(text)
        public = QSymmElement(summed)
        assert el == public
        assert list(el.terms()) == list(public.terms())
        assert all(q != 0 for _, q in el.terms())
        assert all(type(q) is int or q.denominator != 1 for _, q in el.terms())
        cancelled += any(q == 0 for q in summed.values())
        fractional += any(isinstance(q, Fraction) for q in summed.values())
    assert cancelled > 20 and fractional > 100


def test_element_parse_stores_integral_fractions_as_int():
    el = parse_element("1/2*[1] + 1/2*[1] + 4/2 + 2/3*[2] - 2/3*[2]")
    assert list(el.terms()) == [((1,), 1), ((), 2)]
    assert stores_only_ints(el)
    assert parse_element(" 2*[ 1 , 2 ] + [1,2] - 3*[1,2]") == QSymmElement.zero()


def test_generator_parse_matches_public_constructor():
    rng = random.Random(67)
    cancelled = 0
    for _ in range(300):
        text = random_generator_text(rng)
        summed = _parse_terms(text, _scan_int, _parse_monomial, UNIT_MONOMIAL, "generator polynomial")
        g = parse_generator_polynomial(text)
        public = GeneratorPolynomial(summed)
        assert g == public
        assert list(g.terms()) == list(public.terms())
        assert all(q != 0 for _, q in g.terms()) and stores_only_ints(g)
        assert parse_generator_polynomial(format_generator_polynomial(g)) == g
        cancelled += any(q == 0 for q in summed.values())
    assert cancelled >= 5
