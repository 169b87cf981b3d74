"""The shared sparse core: storage invariants, trusted construction, the
shared formatter and the strict JSON coefficient readers."""

import json
import random
from fractions import Fraction

import pytest

from qsymm import (
    GeneratorPolynomial,
    QSymmElement,
    SymmPoly,
    TruncatedPolynomial,
    element_from_json_obj,
    element_to_json_obj,
    express,
    lambda_n,
    parse_element,
    parse_generator_polynomial,
)
from qsymm._sparse import SparseTerms, _format_terms, _iadd_scaled
from qsymm.errors import ParseError
from qsymm.generators import (
    generator_polynomial_from_json_obj,
    generator_polynomial_to_json_obj,
)
from qsymm.symmetric import E_BASIS, P_BASIS, e_to_p

CLASSES = (QSymmElement, GeneratorPolynomial, SymmPoly, TruncatedPolynomial)


def random_element(rng, max_weight=4, fractions=True):
    terms = {}
    for _ in range(rng.randint(0, 8)):
        comp = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, max_weight)))
        q = rng.randint(-5, 5)
        if fractions and rng.random() < 0.4:
            q = Fraction(q, rng.randint(1, 4))
        terms[comp] = q
    return QSymmElement(terms)


def random_generator_polynomial(rng):
    g = GeneratorPolynomial()
    for _ in range(rng.randint(0, 4)):
        comp = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 4)))
        g = g + express(comp) * rng.randint(-3, 3)
    return g


def random_symm(rng):
    basis = rng.choice((E_BASIS, P_BASIS))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        part = tuple(rng.randint(1, 4) for _ in range(rng.randint(0, 3)))
        terms[part] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return SymmPoly(basis, terms)


def random_truncated(rng):
    k = rng.randint(0, 4)
    terms = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 3) for _ in range(k))
        terms[exps] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return TruncatedPolynomial(k, terms)


def stores_only_ints(x):
    return all(type(q) is int for _, q in x.terms())


class TestStorage:
    def test_classes_share_the_core(self):
        shared = ("__add__", "__neg__", "__sub__", "__pow__", "__eq__", "__hash__", "__len__", "__bool__", "terms")
        for cls in CLASSES:
            assert issubclass(cls, SparseTerms)
            assert not [name for name in shared if name in vars(cls)]

    def test_halving_then_doubling_stores_ints(self):
        rng = random.Random(1)
        for _ in range(20):
            el = random_element(rng, fractions=False)
            back = (el * Fraction(1, 2)) * 2
            assert back == el
            assert stores_only_ints(back)

    def test_lambda_of_integral_element_stores_ints(self):
        rng = random.Random(2)
        for _ in range(8):
            el = random_element(rng, max_weight=2, fractions=False)
            for n in range(4):
                assert stores_only_ints(lambda_n(n, el))

    def test_integral_fraction_sums_collapse(self):
        el = QSymmElement({(1,): Fraction(1, 3)}) + QSymmElement({(1,): Fraction(2, 3)})
        assert stores_only_ints(el)
        assert stores_only_ints(e_to_p(SymmPoly.e(2)) * 2)

    @pytest.mark.parametrize(
        "make", [random_element, random_generator_polynomial, random_symm, random_truncated]
    )
    def test_public_rebuild_is_identical(self, make):
        rng = random.Random(3)
        for _ in range(25):
            x = make(rng)
            tag = [getattr(x, name) for name in ("basis", "k") if hasattr(x, name)]
            rebuilt = type(x)(*tag, dict(x.terms()))
            assert rebuilt == x
            assert list(rebuilt.terms()) == list(x.terms())
            assert hash(rebuilt) == hash(x)

    def test_no_zero_coefficients(self):
        a = QSymmElement({(1,): 2, (2,): Fraction(1, 2)})
        assert not (a - a)
        assert len(a + QSymmElement({(1,): -2})) == 1
        assert not a * 0

    def test_tag_takes_part_in_equality(self):
        assert SymmPoly.zero(E_BASIS) != SymmPoly.zero(P_BASIS)
        assert TruncatedPolynomial.zero(2) != TruncatedPolynomial.zero(3)
        assert TruncatedPolynomial.one(2) ** 3 == TruncatedPolynomial.one(2)

    def test_mismatched_tags_raise(self):
        with pytest.raises(ValueError, match="mixed bases"):
            SymmPoly.e(1) + SymmPoly.p(1)
        with pytest.raises(ValueError, match="mismatched variable counts 1 and 2"):
            TruncatedPolynomial.one(1) * TruncatedPolynomial.one(2)

    def test_caller_scalars_are_validated(self):
        el = QSymmElement.monomial((1,))
        with pytest.raises(TypeError):
            el * 1.5
        with pytest.raises(TypeError):
            SymmPoly.e(1) * 0.5
        with pytest.raises(TypeError):
            GeneratorPolynomial.one() * Fraction(1, 2)
        with pytest.raises(ValueError):
            GeneratorPolynomial({(): Fraction(1, 2)})


class TestPrimitives:
    def test_iadd_scaled_cancels_in_place(self):
        acc = {"a": 1, "b": 2}
        assert _iadd_scaled(acc, {"a": 1, "c": 3}, -1) is acc
        assert acc == {"b": 2, "c": -3}
        assert _iadd_scaled(acc, {"b": 1}, 0) == {"b": 2, "c": -3}

    def test_format_terms(self):
        assert _format_terms([]) == "0"
        assert _format_terms([(1, "")]) == "1"
        assert _format_terms([(-1, ""), (3, "x")]) == "-1 + 3*x"
        assert _format_terms([(-1, "x"), (Fraction(-1, 2), "y"), (-4, "")]) == "-x - 1/2*y - 4"

    def test_truncated_polynomial_text(self):
        p = TruncatedPolynomial(
            2, {(0, 0): -3, (1, 0): 1, (0, 1): -1, (1, 1): Fraction(-1, 2), (2, 0): 2}
        )
        assert str(p) == "-3 - x2 + x1 - 1/2*x1*x2 + 2*x1^2"


class TestStrictJson:
    @pytest.mark.parametrize("coeff", ["1e3", " 1.5 ", "1.5", " 3 ", "+3", "1_000", "", "-", "--1", "1/", "1/0", "0x1", "\u0663", "\u00b2", 3])
    def test_element_rejects(self, coeff):
        with pytest.raises(ParseError):
            element_from_json_obj([{"composition": [1], "coeff": coeff}])

    @pytest.mark.parametrize("coeff", ["1e3", " 3 ", "+3", "1_000", "1/2", "3.0", "", 3])
    def test_generator_polynomial_rejects(self, coeff):
        obj = [{"factors": [{"alpha": [1], "n": 1, "power": 1}], "coeff": coeff}]
        with pytest.raises(ParseError):
            generator_polynomial_from_json_obj(obj)

    def test_text_coefficients_are_ascii(self):
        for text in ("\u0663*[1]", "[1] + \u00b2"):
            with pytest.raises(ParseError):
                parse_element(text)
        with pytest.raises(ParseError):
            parse_generator_polynomial("\u0663*e1([1])")

    def test_accepts_what_the_writers_emit(self):
        assert element_from_json_obj(
            [{"composition": [1], "coeff": "-7/2"}, {"composition": [], "coeff": "3"}]
        ) == QSymmElement({(1,): Fraction(-7, 2), (): 3})

    def test_round_trips(self):
        rng = random.Random(4)
        for _ in range(30):
            el = random_element(rng)
            text = json.dumps(element_to_json_obj(el))
            assert element_from_json_obj(json.loads(text)) == el
            g = random_generator_polynomial(rng)
            text = json.dumps(generator_polynomial_to_json_obj(g))
            assert generator_polynomial_from_json_obj(json.loads(text)) == g
