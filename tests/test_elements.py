"""The quasi-shuffle algebra: arithmetic, canonical form, text and JSON."""

import itertools
import json
import random
from fractions import Fraction

import pytest

from qsymm.compositions import enumerate_compositions
from qsymm.elements import (
    QSymmElement,
    _mul_pairwise,
    _mul_trie,
    _trie_product,
    element_from_json_obj,
    element_to_json_obj,
    format_element,
    parse_element,
    quasi_shuffle,
)
from qsymm.errors import ParseError


def nonempty_up_to(max_weight):
    out = []
    for w in range(1, max_weight + 1):
        out.extend(enumerate_compositions(w))
    return out


def random_integral_element(rng, max_weight):
    comps = [()] + nonempty_up_to(max_weight)
    chosen = rng.sample(comps, rng.randint(1, min(6, len(comps))))
    return QSymmElement({c: rng.randint(-9, 9) for c in chosen})


class TestModuleStructure:
    def test_add_collects(self):
        a = QSymmElement.monomial((1,), 2)
        b = QSymmElement.monomial((1,), 3)
        assert a + b == QSymmElement.monomial((1,), 5)

    def test_cancellation_gives_zero(self):
        a = QSymmElement.monomial((1, 2))
        assert a + (-a) == QSymmElement.zero()
        assert not (a - a)

    def test_scalar_zero_annihilates(self):
        assert QSymmElement.monomial((3,)) * 0 == QSymmElement.zero()

    def test_scalar_fraction(self):
        a = QSymmElement.monomial((2,)) * Fraction(1, 2)
        assert a.coefficient((2,)) == Fraction(1, 2)
        assert not a.is_integral()
        assert (a * 2).is_integral()

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            QSymmElement({(1,): 0.5})

    def test_no_zero_coefficients_stored(self):
        el = QSymmElement({(1,): 1, (2,): 0})
        assert list(el.compositions()) == [(1,)]


class TestQuasiShuffle:
    def test_one_one(self):
        assert quasi_shuffle((1,), (1,)) == QSymmElement({(1, 1): 2, (2,): 1})

    def test_one_two(self):
        assert quasi_shuffle((1,), (2,)) == QSymmElement({(1, 2): 1, (2, 1): 1, (3,): 1})

    def test_one_oneone(self):
        assert quasi_shuffle((1,), (1, 1)) == QSymmElement(
            {(1, 1, 1): 3, (1, 2): 1, (2, 1): 1}
        )

    def test_empty_is_unit(self):
        for c in nonempty_up_to(4):
            assert quasi_shuffle((), c) == QSymmElement.monomial(c)

    def test_integer_coefficients(self):
        for a, b in itertools.product(nonempty_up_to(3), repeat=2):
            assert quasi_shuffle(a, b).is_integral()


class TestMultiply:
    def test_unit_law(self):
        one = QSymmElement.one()
        for c in nonempty_up_to(4):
            el = QSymmElement.monomial(c, 7)
            assert one * el == el
            assert el * one == el

    def test_triple_product_value(self):
        one = QSymmElement.monomial((1,))
        expected = QSymmElement({(1, 1, 1): 6, (1, 2): 3, (2, 1): 3, (3,): 1})
        assert (one * one) * one == expected
        assert one * (one * one) == expected

    def test_commutative_exhaustive(self):
        comps = nonempty_up_to(4)
        for a, b in itertools.combinations(comps, 2):
            ea, eb = QSymmElement.monomial(a), QSymmElement.monomial(b)
            assert ea * eb == eb * ea

    def test_associative_exhaustive(self):
        comps = nonempty_up_to(4)
        triples = [
            (a, b, c)
            for a, b, c in itertools.product(comps, repeat=3)
            if sum(a) + sum(b) + sum(c) <= 4
        ]
        assert triples
        for a, b, c in triples:
            ea, eb, ec = (QSymmElement.monomial(x) for x in (a, b, c))
            assert (ea * eb) * ec == ea * (eb * ec)

    def test_grading(self):
        for a, b in itertools.product(nonempty_up_to(4), repeat=2):
            prod = QSymmElement.monomial(a) * QSymmElement.monomial(b)
            assert prod.is_homogeneous(sum(a) + sum(b))

    def test_integrality_closure(self):
        rng = random.Random(7)
        for _ in range(25):
            a = random_integral_element(rng, 3)
            b = random_integral_element(rng, 3)
            assert (a * b).is_integral()

    def test_power(self):
        one = QSymmElement.monomial((1,))
        assert one ** 0 == QSymmElement.one()
        assert one ** 2 == one * one

    def test_cancelled_terms_leave_no_zeros(self):
        # ([1] + [2]) * ([1] - [2]) = 2*[1,1] + [2] - 2*[2,2] - [4]: the
        # cross terms [1]*[2] cancel to zeros in the per-pair sum.
        a = QSymmElement({(1,): 1, (2,): 1})
        b = QSymmElement({(1,): 1, (2,): -1})
        acc = _mul_pairwise(a, b)
        assert {c for c, q in acc.items() if q == 0} == {(1, 2), (2, 1), (3,)}
        expected = QSymmElement({(1, 1): 2, (2,): 1, (2, 2): -2, (4,): -1})
        assert a * b == QSymmElement._from_dict(acc) == expected
        assert list((a * b).terms()) == list(expected.terms())
        rng = random.Random(71)
        for _ in range(50):
            # The cross terms x*y and -y*x cancel.
            x, y = random_integral_element(rng, 3), random_integral_element(rng, 3)
            product = (x + y) * (x - y)
            assert all(q != 0 for _, q in product.terms())
            assert product == x * x - y * y


def route_operand(rng, terms, longest):
    """A seeded element of `terms` terms whose longest composition has
    `longest` parts; the others have weight <= 4 and fewer parts."""
    top = tuple(rng.choice((1, 2)) for _ in range(longest))
    rest = [c for c in nonempty_up_to(4) if len(c) < longest]
    comps = [top] + rng.sample(rest, terms - 1)
    return QSymmElement({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in comps})


class TestRouteChoice:
    """A product takes per-pair shuffles unless it has more than 64 term
    pairs and the longest words of its two sides have lengths summing past
    8; only the trie route goes through the product cache."""

    @pytest.mark.parametrize(
        "terms, longest, trie",
        [
            ((9, 9), (4, 4), False),
            ((9, 9), (5, 4), True),
            ((9, 9), (5, 5), True),
            ((9, 9), (6, 6), True),
            ((8, 8), (5, 5), False),
            ((5, 13), (5, 5), True),
        ],
    )
    def test_route(self, terms, longest, trie):
        rng = random.Random(f"{terms} {longest}")
        a, b = (route_operand(rng, n, m) for n, m in zip(terms, longest))
        assert (len(a), len(b)) == terms
        assert tuple(max(map(len, x.compositions())) for x in (a, b)) == longest
        _trie_product.cache_clear()
        product = a * b
        assert product == QSymmElement._from_dict(_mul_pairwise(a, b))
        assert product == QSymmElement._from_dict(_mul_trie(a, b))
        assert _trie_product.cache_info().misses == int(trie)


class TestLeadingTerm:
    def test_equal_weight_longer_wins(self):
        el = QSymmElement({(1, 1): 2, (2,): 1})
        assert el.leading_term_wll() == ((1, 1), 2)

    def test_lambda_square_leading(self):
        # the expansion of the second lambda power of [1,2]
        el = QSymmElement(
            {(1, 2, 1, 2): 1, (1, 1, 2, 2): 2, (1, 1, 4): 1, (1, 3, 2): 1, (2, 2, 2): 1}
        )
        assert el.leading_term_wll() == ((1, 2, 1, 2), 1)

    def test_single_term(self):
        assert QSymmElement.monomial((3,), 5).leading_term_wll() == ((3,), 5)

    def test_zero_raises(self):
        with pytest.raises(ValueError):
            QSymmElement.zero().leading_term_wll()

    def test_iteration_is_wll_descending(self):
        rng = random.Random(3)
        from qsymm.compositions import wll_key

        for _ in range(20):
            el = random_integral_element(rng, 4)
            comps = list(el.compositions())
            assert comps == sorted(comps, key=wll_key, reverse=True)


class TestTextAndJson:
    def test_format_examples(self):
        assert format_element(QSymmElement.zero()) == "0"
        assert format_element(QSymmElement.one()) == "[]"
        assert format_element(QSymmElement({(1, 1): 2, (2,): 1})) == "2*[1,1] + [2]"
        assert (
            format_element(QSymmElement({(2, 1): 1, (1, 2): -1, (3,): Fraction(1, 2)}))
            == "[2,1] - [1,2] + 1/2*[3]"
        )

    def test_parse_round_trip(self):
        rng = random.Random(11)
        corpus = [QSymmElement.zero(), QSymmElement.one()]
        corpus += [random_integral_element(rng, 4) for _ in range(30)]
        corpus += [random_integral_element(rng, 3) * Fraction(1, 6) for _ in range(10)]
        for el in corpus:
            assert parse_element(format_element(el)) == el

    def test_parse_errors(self):
        for bad in ["", "[1] +", "2**[1]", "[1] [2]", "1/0*[1]"]:
            with pytest.raises(ParseError):
                parse_element(bad)

    def test_json_round_trip_bit_exact(self):
        rng = random.Random(13)
        for _ in range(25):
            el = random_integral_element(rng, 4) * Fraction(
                rng.randint(1, 5), rng.randint(1, 5)
            )
            obj = element_to_json_obj(el)
            text = json.dumps(obj)
            back = element_from_json_obj(json.loads(text))
            assert back == el
            assert json.dumps(element_to_json_obj(back)) == text

    def test_json_shape(self):
        obj = element_to_json_obj(QSymmElement({(1, 1): 2, (2,): 1}))
        assert obj == [
            {"composition": [1, 1], "coeff": "2"},
            {"composition": [2], "coeff": "1"},
        ]


class TestHashing:
    def test_equal_elements_hash_alike(self):
        a = QSymmElement({(1,): 1, (2,): 2})
        b = QSymmElement({(2,): 2, (1,): 1})
        assert a == b
        assert hash(a) == hash(b)

    def test_usable_as_dict_key(self):
        table = {QSymmElement.monomial((1,)): "x"}
        assert table[QSymmElement.monomial((1,))] == "x"
