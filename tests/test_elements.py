"""The quasi-shuffle algebra: arithmetic, canonical form, text and JSON."""

import inspect
import itertools
import json
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from functools import cache

import pytest

from qsymm import elements, freeness_certificate
from qsymm.compositions import _decode, _encode, _weight_table, _wll_rank, enumerate_compositions, wll_key
from qsymm.elements import (
    QSymmElement,
    _mul_pairwise,
    _mul_trie,
    _pair_work,
    _shuffle_codes,
    _trie_product,
    element_from_json_obj,
    element_to_json_obj,
    format_element,
    parse_element,
    quasi_shuffle,
)
from qsymm.errors import ParseError

from helpers import brute_compositions


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

    @pytest.mark.parametrize("comp, coeff", [
        ((1, True), 1), ((1, 2.0), 1), ((0,), 1), ((1,), True), ((1,), 0.5), ((1,), "1"),
    ], ids=["bool-part", "float-part", "zero-part", "bool-coeff", "float-coeff", "str-coeff"])
    def test_monomial_rejects_as_the_constructor(self, comp, coeff):
        with pytest.raises((TypeError, ValueError)) as expected:
            QSymmElement({tuple(comp): coeff})
        with pytest.raises(expected.type, match=re.escape(str(expected.value))):
            QSymmElement.monomial(comp, coeff)

    def test_monomial_normalizes_its_coefficient(self):
        el = QSymmElement.monomial([1, 2], Fraction(4, 2))
        assert list(el.terms()) == [((1, 2), 2)]
        assert type(el.coefficient((1, 2))) is int
        assert QSymmElement.monomial((1, 2), 0) == QSymmElement.zero()
        assert not QSymmElement.monomial((3,), Fraction(0))
        assert QSymmElement.monomial((), Fraction(-1, 3)) == QSymmElement({(): Fraction(-1, 3)})


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

    def test_heavy_part(self):
        # too heavy for packed codes: the pair is shuffled through the trie
        n = 10**9
        assert list(quasi_shuffle((n,), (1,)).terms()) == [((n, 1), 1), ((1, n), 1), ((n + 1,), 1)]

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
        # cross terms [1]*[2] cancel in the per-pair sum.
        a = QSymmElement({(1,): 1, (2,): 1})
        b = QSymmElement({(1,): 1, (2,): -1})
        acc = _mul_pairwise(a, b)
        expected = QSymmElement({(1, 1): 2, (2,): 1, (2, 2): -2, (4,): -1})
        assert not {(1, 2), (2, 1), (3,)} & acc.keys()
        assert list(acc.items()) == list(expected.terms())
        assert a * b == QSymmElement._from_dict(acc) == expected
        assert list((a * b).terms()) == list(expected.terms())
        rng = random.Random(71)
        for _ in range(50):
            # The cross terms x*y and -y*x cancel.
            x, y = random_integral_element(rng, 3), random_integral_element(rng, 3)
            product = (x + y) * (x - y)
            assert all(q != 0 for _, q in product.terms())
            assert product == x * x - y * y


def route_operand(rng, lengths):
    """A seeded element of distinct words over the parts 1 and 2, one word
    of each length in `lengths`."""
    words = []
    for n in lengths:
        word = tuple(rng.choice((1, 2)) for _ in range(n))
        while word in words:
            word = tuple(rng.choice((1, 2)) for _ in range(n))
        words.append(word)
    return QSymmElement({c: rng.choice((-3, -2, -1, 1, 2, 3)) for c in words})


def delannoy(m, n):
    """D(m, n) from its closed form, independent of `_pair_work`."""
    return sum(math.comb(m, k) * math.comb(n, k) * 2**k for k in range(min(m, n) + 1))


SHORT_9 = (3, 3, 3, 2, 2, 2, 2, 1)  # eight short words beside one long word


class TestRouteChoice:
    """A product takes per-pair shuffles unless the per-pair work, the
    quasi-shuffle terms of every word pair counted with multiplicity,
    exceeds 16000; only the trie route goes through the product cache."""

    @pytest.mark.parametrize(
        "terms, longest, trie",
        [
            # 128 terms times one term, a shape of the certificates' column
            # products: 128 * D(7, 2) = 14464
            ((128, 1), ((7,) * 128, (2,)), False),
            # 13073 + 11 + 3649 + 9 = 16742, just above 16000
            ((2, 2), ((5, 4), (8, 1)), True),
            ((9, 9), ((8,) + SHORT_9, (8,) + SHORT_9), True),
            # every word long: 4 * 48639
            ((2, 2), ((7, 7), (7, 7)), True),
            # one 5-part word among short ones, about 7x faster per pair
            ((9, 9), ((5,) + SHORT_9, (5,) + SHORT_9), False),
            ((5, 13), ((8, 2, 2, 1, 1), (7, 3, 3, 3, 3, 3, 3, 2, 2, 2, 2, 1, 1)), True),
            # 13073 + 1683 + 833 + 231 = 15820, just below 16000. (The case
            # here before, 97308 with words of lengths 7, 7 and 7, 1, was just
            # below the old cut of 10**5 and now takes the trie.)
            ((2, 2), ((5, 3), (8, 5)), False),
            # one term times many: the trie still shares the prefixes of the
            # many-term side
            ((1, 9), ((8,), (8,) + SHORT_9), True),
            # many terms times one, the shape of the lambda series' products,
            # between the old cut and this one: 136 * D(8, 2) = 19720
            ((136, 1), ((8,) * 136, (2,)), True),
        ],
    )
    def test_route(self, terms, longest, trie):
        rng = random.Random(f"{terms} {longest}")
        a, b = (route_operand(rng, lengths) for lengths in longest)
        assert (len(a), len(b)) == terms
        work = sum(delannoy(len(x), len(y)) for x in a.compositions() for y in b.compositions())
        assert _pair_work(a.compositions(), b.compositions()) == work
        _trie_product.cache_clear()
        product = a * b
        assert product == QSymmElement._from_dict(_mul_pairwise(a, b))
        assert product == QSymmElement._from_dict(_mul_trie(a, b))
        assert _trie_product.cache_info().misses == int(trie)

    def test_shuffle_terms_count_delannoy(self):
        words = [c for w in range(6) for c in enumerate_compositions(w)]
        for a, b in itertools.product(words, repeat=2):
            assert sum(m for _, m in quasi_shuffle(a, b).terms()) == delannoy(len(a), len(b))

    @pytest.mark.parametrize(
        "left, right, trie",
        [
            ({(255,): 1}, {(1,): 1}, False),  # weight 256: codes of 257 bits
            ({(256,): 1}, {(1,): 1}, True),  # weight 257: no code is built
            ({(300, 1): 1}, {(2,): 1}, True),
            ({(10**9,): 1}, {(1,): 1}, True),
            # (x + y + 3) * (x - y) with x = 1/2*[300], y = [2]: the cross
            # terms x*y and -y*x cancel, and the empty word is a term
            ({(300,): Fraction(1, 2), (2,): 1, (): 3}, {(300,): Fraction(1, 2), (2,): -1}, True),
        ],
    )
    def test_weight_guard(self, left, right, trie):
        a, b = QSymmElement(left), QSymmElement(right)
        _trie_product.cache_clear()
        shuffles = _shuffle_codes.cache_info()
        product = a * b
        assert _trie_product.cache_info().misses == int(trie)
        if trie:
            assert _shuffle_codes.cache_info() == shuffles
        expected = tuple_product(left, right)
        assert product == QSymmElement(expected)
        assert list(product.terms()) == sorted(expected.items(), key=lambda t: wll_key(t[0]), reverse=True)

    def test_work_of_a_deep_word(self):
        # D(1500, 1) = 3001; the D rows are built in a loop, not by recursion
        assert _pair_work([(1,) * 1500], [(1,)]) == 3001
        assert _pair_work([(1,)], [(1,) * 1500]) == 3001

    def test_deep_trie_product_needs_no_recursion(self):
        # [1]*n * [1] weighs above 256, so it takes the trie, whose words are
        # deeper than the lowered recursion limit
        n = 300
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            product = QSymmElement.monomial((1,) * n) * QSymmElement.monomial((1,))
        finally:
            sys.setrecursionlimit(limit)
        expected = {(1,) * (n + 1): n + 1}
        expected.update({(1,) * i + (2,) + (1,) * (n - 1 - i): 1 for i in range(n)})
        assert product == QSymmElement(expected)

    @pytest.mark.parametrize("depth, short", [(200, (2,)), (60, (2, 3)), (30, (2, 3, 1))])
    def test_deep_pair_shuffle_needs_no_recursion(self, depth, short):
        # One side short: two long words of ones have astronomically many
        # distinct terms. The one-part word takes the closed form, the
        # others the pass over cells. The last two go less deep, as
        # the reference, the tuple recursion, takes seconds for them at 200.
        deep = (1,) * depth
        expected = tuple_shuffle(deep, short)
        _shuffle_codes.cache_clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + depth // 2)
        try:
            codes = _shuffle_codes(deep, short), _shuffle_codes(short, deep)
        finally:
            sys.setrecursionlimit(limit)
        for pairs in codes:
            decoded = Counter()
            for code, m in pairs:
                decoded[_decode(code)[1]] += m
            assert len(decoded) == len(pairs)
            assert decoded == expected

    @pytest.mark.parametrize("max_terms, cached", [(4, False), (5, True)])
    def test_product_cache_term_limit(self, monkeypatch, max_terms, cached):
        # [300,1] * [2] weighs above 256, so it takes the trie; its 5 terms
        # are cached only within the term limit
        monkeypatch.setattr(elements, "_PRODUCT_CACHE_MAX_TERMS", max_terms)
        a, b = QSymmElement.monomial((300, 1)), QSymmElement.monomial((2,))
        expected = QSymmElement(tuple_product({(300, 1): 1}, {(2,): 1}))
        _trie_product.cache_clear()
        assert a * b == b * a == expected
        assert len(expected) == 5
        info = _trie_product.cache_info()
        assert (info.hits, info.misses, info.currsize) == ((1, 1, 1) if cached else (0, 2, 0))


@cache
def tuple_shuffle(a, b):
    """The quasi-shuffle of two compositions as a Counter of words, by the
    defining recursion on tuples, independent of the packed codes."""
    if not a or not b:
        return Counter({a + b: 1})
    out = Counter()
    for head, rest in ((a[:1], tuple_shuffle(a[1:], b)), (b[:1], tuple_shuffle(a, b[1:])),
                       ((a[0] + b[0],), tuple_shuffle(a[1:], b[1:]))):
        for word, m in rest.items():
            out[head + word] += m
    return out


def tuple_product(x, y):
    """The product of two {composition: coefficient} maps through
    `tuple_shuffle`, with no zero coefficients."""
    out = Counter()
    for (c1, q1), (c2, q2) in itertools.product(x.items(), y.items()):
        for word, m in tuple_shuffle(c1, c2).items():
            out[word] += q1 * q2 * m
    return {word: q for word, q in out.items() if q}


def typed(terms):
    """A term map's items with each coefficient's type, so that 2 and
    Fraction(2) differ."""
    return [(w, q, type(q)) for w, q in terms.items()]


def seeded_compositions(rng, count, max_len, max_part):
    return [tuple(rng.randint(1, max_part) for _ in range(rng.randint(1, max_len))) for _ in range(count)]


class TestPackedCodes:
    """The per-pair route's kernel: compositions packed into ints."""

    @staticmethod
    def code(c):
        # the sentinel bit w, then bit w - s for each partial sum s
        w = sum(c)
        return (1 << w) | sum(1 << (w - s) for s in itertools.accumulate(c))

    def corpus(self):
        rng = random.Random(19)
        comps = nonempty_up_to(10) + [()]
        comps += seeded_compositions(rng, 200, 60, 4)  # long
        comps += seeded_compositions(rng, 200, 8, 32)  # heavy
        comps += [(256,), (1,) * 256, (128, 1, 127), (255, 1)]
        return [c for c in comps if sum(c) <= 256]

    def test_round_trip(self):
        for c in self.corpus():
            code = self.code(c)
            assert _encode(c) == code
            assert code.bit_length() == sum(c) + 1
            assert _decode(code) == (_wll_rank(c), c, code)

    def test_rank_sorts_like_wll_key(self):
        comps = self.corpus()
        random.Random(23).shuffle(comps)
        by_rank = sorted(comps, key=lambda c: _decode(self.code(c))[0])
        assert by_rank == sorted(comps, key=wll_key)

    def test_shuffle_codes_match_tuple_recursion(self):
        rng = random.Random(29)
        words = nonempty_up_to(5) + [()]
        pairs = list(itertools.product(words, repeat=2))
        longer = seeded_compositions(rng, 20, 7, 3)
        pairs += [(rng.choice(longer), rng.choice(longer)) for _ in range(20)]
        pairs += [((200, 1), (30, 25)), ((1,) * 12, (2,) * 2)]
        for a, b in pairs:
            codes = _shuffle_codes(a, b)
            decoded = Counter()
            for code, m in codes:
                decoded[_decode(code)[1]] += m
            assert len(decoded) == len(codes)  # each code appears once
            assert decoded == tuple_shuffle(a, b)
            assert dict(quasi_shuffle(a, b).terms()) == tuple_shuffle(a, b)

    def test_equal_pairs_are_one_object(self):
        # Both memos are cleared, so that every entry goes through one pair
        # table per weight. The certificates of weight <= 8 ask only for
        # word pairs of weight <= 8, the empty word among them, the smaller
        # word first; asking for all of those reads each of their entries
        # again, and builds the rest.
        _shuffle_codes.cache_clear()
        elements._pair_table.cache_clear()
        for w in range(1, 9):
            freeness_certificate(w)
        before = _shuffle_codes.cache_info()
        words = [()] + nonempty_up_to(8)
        seen, count = {}, 0
        for a in words:
            for b in words:
                if a <= b and sum(a) + sum(b) <= 8:
                    for pair in _shuffle_codes(a, b):
                        assert seen.setdefault(pair, pair) is pair
                        count += 1
        assert _shuffle_codes.cache_info().hits - before.hits == before.currsize > 0
        assert count > 2 * len(seen)

    def test_pairwise_result_is_canonical(self):
        # (1/2*[1] + [2]) * (2*[1] - [2]): the Fraction products 1/2 * 2
        # give integral coefficients, which must be stored as int
        a = QSymmElement({(1,): Fraction(1, 2), (2,): 1})
        b = QSymmElement({(1,): 2, (2,): -1})
        acc = _mul_pairwise(a, b)
        h = Fraction(3, 2)
        assert list(acc.items()) == [
            ((2, 2), -2), ((4,), -1), ((2, 1), h), ((1, 2), h), ((3,), h), ((1, 1), 2), ((2,), 1)
        ]
        assert [type(q) for q in acc.values()] == [int, int, Fraction, Fraction, Fraction, int, int]
        assert typed(_mul_trie(a, b)) == typed(acc)
        rng = random.Random(31)
        for _ in range(40):
            x = random_integral_element(rng, 4) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            y = random_integral_element(rng, 4) * Fraction(rng.randint(1, 4), rng.randint(1, 4))
            acc = _mul_pairwise(x, y)
            assert list(acc) == sorted(acc, key=wll_key, reverse=True)
            assert all(q and (type(q) is int or q.denominator != 1) for q in acc.values())
            assert acc == tuple_product(dict(x.terms()), dict(y.terms()))
            # the trie's result is canonical too: same order, and the same
            # int-collapsed coefficients
            assert typed(_mul_trie(x, y)) == typed(acc)


# Mixed-weight rational operands whose product weighs 12 or 13; the golden
# corpus holds both products (product-mixed-rational-w12, -w13).
MIXED_W6 = "[1,2,1,2] - 1/2*[2,1,3] + 3*[1,1,2] - 2/3*[2,1] + 5/4*[1]"
MIXED_W7 = "[1,2,1,3] - 1/2*[2,1,4] + 3*[1,1,2] - 2/3*[2,1] + 5/4*[1]"
MIXED_RIGHT = "2*[1,1,3,1] + 1/3*[3,3] - [2,1,1] + 3/2*[1,2] - 7/2"


class TestCodeTable:
    """The per-pair route's list accumulator, indexed by code and read back
    through the per-weight tables, against the dict finish and the trie."""

    @staticmethod
    def operand(rng):
        comps = [()] + nonempty_up_to(rng.choice((3, 4, 6)))
        scale = rng.choice((1, 1, Fraction(1, 2), Fraction(2, 3)))
        return QSymmElement({c: rng.randint(-4, 4) * scale for c in rng.sample(comps, rng.randint(1, 5))})

    def test_table_matches_dict_and_trie(self):
        rng = random.Random(37)
        seen = Counter()
        for _ in range(100):
            x, y = self.operand(rng), self.operand(rng)
            # (x + y) * (x - y): the cross terms cancel to zero
            for a, b in ((x, y), (x + y, x - y), (x * 2, y * Fraction(1, 2))):
                if not a or not b:
                    continue
                by_table = _mul_pairwise(a, b, True)
                assert typed(by_table) == typed(_mul_pairwise(a, b, False)) == typed(_mul_trie(a, b))
                fractional = any(type(q) is Fraction for _, q in itertools.chain(a.terms(), b.terms()))
                seen["fraction"] += any(type(q) is Fraction for q in by_table.values())
                # Fraction products that sum to integers, stored as int
                seen["collapsed"] += fractional and any(type(q) is int for q in by_table.values())
                seen["unit"] += () in by_table
                seen["mixed"] += len({sum(c) for c in by_table}) > 1
                seen["weight 12"] += sum(next(iter(by_table), ())) == 12
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "left, right, table",
        [
            # 5 x 5 terms, 4-part words: 25 * D(4, 4) = 8025 >= 2**11 codes
            (MIXED_W6, MIXED_RIGHT, True),
            (MIXED_W7, MIXED_RIGHT, False),  # weight 13: no table
            ("[11]", "[1]", False),  # D(1, 1) = 3 < 2**11
            ("[1]", "[1]", True),
        ],
    )
    def test_route(self, left, right, table):
        a, b = parse_element(left), parse_element(right)
        _weight_table.cache_clear()
        product = a * b
        assert (_weight_table.cache_info().currsize > 0) == table
        assert typed(product._terms) == typed(_mul_pairwise(a, b))
        assert product == QSymmElement(tuple_product(dict(a.terms()), dict(b.terms())))

    def test_tables_hold_every_composition_in_canonical_order(self):
        _weight_table.cache_clear()
        for w in range(13):
            comps, get = _weight_table(w)
            assert list(comps) == sorted(brute_compositions(w), key=wll_key, reverse=True)
            # the same objects as the dict finish's keys, so that sums of
            # products from both finishes find their keys by identity
            assert all(c is _decode(_encode(c))[1] for c in comps)
            codes = list(range(2 << w))
            assert get(codes)[:-1] == tuple(map(_encode, comps))


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


class TestHomogeneity:
    def test_homogeneous_weight_is_gone(self):
        # removed after its deprecation; the weights `is_homogeneous` accepts
        # below 5, for the elements the old method's table held (it gave 2,
        # None and None)
        assert not hasattr(QSymmElement, "homogeneous_weight")
        for el, weights in [
            (QSymmElement({(1, 1): 2, (2,): 1}), [2]),
            (QSymmElement({(1, 1): 2, (1,): 1}), []),
            (QSymmElement.zero(), [0, 1, 2, 3, 4]),  # vacuously
        ]:
            assert [w for w in range(5) if el.is_homogeneous(w)] == weights


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
