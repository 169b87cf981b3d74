"""Compositions, orders, Lyndon machinery and enumeration."""

import itertools

import pytest

from qsymm.compositions import (
    cfl_factorize,
    composition,
    concat,
    concat_power,
    content_gcd,
    enumerate_compositions,
    enumerate_elementary_lyndon,
    format_composition,
    is_lyndon,
    lex_compare,
    parse_composition,
    reduce_content,
    weight,
    wll_compare,
    wll_key,
    _format_cached,
)
from qsymm.errors import ParseError

from helpers import brute_lyndon_factorizations


def all_compositions_up_to(max_weight):
    out = []
    for w in range(0, max_weight + 1):
        out.extend(enumerate_compositions(w))
    return out


class TestBasics:
    def test_weight(self):
        assert weight(()) == 0
        assert weight((1, 1, 2)) == 4
        assert weight((5,)) == 5

    def test_composition_validates(self):
        assert composition([1, 2]) == (1, 2)
        with pytest.raises(ValueError):
            composition([0])
        with pytest.raises(ValueError):
            composition([1, -2])

    def test_concat(self):
        assert concat((1, 2), (1,)) == (1, 2, 1)
        assert concat_power((1, 2), 2) == (1, 2, 1, 2)
        assert concat((), (3,)) == (3,)

    def test_content_gcd(self):
        assert content_gcd((2, 4)) == 2
        assert content_gcd((1, 2)) == 1
        assert content_gcd((6, 9)) == 3
        with pytest.raises(ValueError):
            content_gcd(())

    def test_reduce_content(self):
        assert reduce_content((2, 4)) == (1, 2)
        assert reduce_content((1, 2)) == (1, 2)
        assert reduce_content((3, 3, 6)) == (1, 1, 2)
        with pytest.raises(ValueError):
            reduce_content(())

    def test_reduce_idempotent(self):
        for c in all_compositions_up_to(6):
            if not c:
                continue
            r = reduce_content(c)
            assert reduce_content(r) == r
            assert content_gcd(r) == 1


class TestOrders:
    def test_lex_examples(self):
        assert lex_compare((2, 2), (1, 3)) == 1
        assert lex_compare((1,), (1, 1)) == -1  # proper prefix is smaller
        assert lex_compare((1, 2), (1, 1, 2)) == 1

    def test_wll_examples(self):
        # the chain [5] > [1,1,2] > [2,2] > [1,3]
        assert wll_compare((5,), (1, 1, 2)) == 1
        assert wll_compare((1, 1, 2), (2, 2)) == 1
        assert wll_compare((2, 2), (1, 3)) == 1

    def test_wll_weight_dominates(self):
        assert wll_compare((1,), (2,)) == -1
        assert wll_compare((1, 1), (3,)) == -1  # weight beats length
        assert wll_compare((1, 1), (2,)) == 1  # equal weight: longer is larger
        assert wll_compare((1, 1), (1, 1)) == 0

    def test_wll_total_order(self):
        comps = all_compositions_up_to(6)
        for a, b in itertools.product(comps, repeat=2):
            cab, cba = wll_compare(a, b), wll_compare(b, a)
            assert cab == -cba
            assert (cab == 0) == (a == b)

    def test_wll_transitive(self):
        comps = all_compositions_up_to(6)
        keys = {c: wll_key(c) for c in comps}
        for a, b, c in itertools.product(comps, repeat=3):
            if keys[a] < keys[b] and keys[b] < keys[c]:
                assert wll_compare(a, c) == -1

    def test_wll_strictly_orders_distinct_words(self):
        comps = all_compositions_up_to(6)
        ordered = sorted(comps, key=wll_key)
        for x, y in zip(ordered, ordered[1:]):
            assert wll_compare(x, y) == -1


class TestLyndon:
    def test_examples(self):
        assert is_lyndon((1, 2))
        assert not is_lyndon((2, 1))
        assert not is_lyndon((1, 1))
        assert is_lyndon((1,))
        assert is_lyndon((5,))
        with pytest.raises(ValueError):
            is_lyndon(())

    def test_definition_brute_force(self):
        for c in all_compositions_up_to(7):
            if not c:
                continue
            expected = all(c < c[i:] for i in range(1, len(c)))
            assert is_lyndon(c) == expected

    def test_cfl_examples(self):
        assert cfl_factorize((1, 2)) == [((1, 2), 1)]
        assert cfl_factorize((2, 1, 1)) == [((2,), 1), ((1,), 2)]
        assert cfl_factorize((1, 2, 1, 2)) == [((1, 2), 2)]
        with pytest.raises(ValueError):
            cfl_factorize(())

    def test_cfl_soundness(self):
        for c in all_compositions_up_to(8):
            if not c:
                continue
            factors = cfl_factorize(c)
            rebuilt = ()
            for lyndon, mult in factors:
                assert is_lyndon(lyndon)
                assert mult >= 1
                rebuilt += lyndon * mult
            assert rebuilt == c
            for (a, _), (b, _) in zip(factors, factors[1:]):
                assert a > b  # strictly lex-decreasing between blocks

    def test_cfl_uniqueness_brute_force(self):
        for c in all_compositions_up_to(6):
            if not c:
                continue
            found = brute_lyndon_factorizations(c, is_lyndon)
            assert len(found) == 1
            expected = [f for f, m in cfl_factorize(c) for _ in range(m)]
            assert found[0] == expected


class TestEnumeration:
    def test_weight_zero(self):
        assert enumerate_compositions(0) == [()]

    def test_small_sets(self):
        assert set(enumerate_compositions(2)) == {(1, 1), (2,)}
        assert len(enumerate_compositions(4)) == 8

    def test_counts(self):
        for w in range(1, 11):
            assert len(enumerate_compositions(w)) == 2 ** (w - 1)

    def test_sorted_wll_descending(self):
        for w in range(0, 8):
            comps = enumerate_compositions(w)
            assert comps == sorted(comps, key=wll_key, reverse=True)
            assert len(set(comps)) == len(comps)

    def test_elementary_lyndon(self):
        assert enumerate_elementary_lyndon(1) == [(1,)]
        assert enumerate_elementary_lyndon(3) == [(1,), (1, 2)]
        assert enumerate_elementary_lyndon(4) == [(1,), (1, 2), (1, 3), (1, 1, 2)]

    def test_elementary_lyndon_brute_force(self):
        expected = {
            c
            for c in all_compositions_up_to(6)
            if c and is_lyndon(c) and content_gcd(c) == 1
        }
        assert set(enumerate_elementary_lyndon(6)) == expected


class TestTextFormat:
    def test_format(self):
        assert format_composition(()) == "[]"
        assert format_composition((1, 2, 10)) == "[1,2,10]"

    def test_parse(self):
        assert parse_composition("[]") == ()
        assert parse_composition("[1,2]") == (1, 2)
        assert parse_composition(" [ 1 , 12 ] ") == (1, 12)

    def test_round_trip(self):
        for c in all_compositions_up_to(6):
            assert parse_composition(format_composition(c)) == c

    @pytest.mark.parametrize(
        "bad", ["", "[", "[1", "[1,]", "[a]", "1,2]", "[1,2] extra", "[0]", "[-1]", "[\u0661,2]", "[\u00b2]"]
    )
    def test_parse_errors_carry_position(self, bad):
        with pytest.raises(ParseError) as info:
            parse_composition(bad)
        assert info.value.position >= 0

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            ("", "expected '['", 0),
            ("[", "expected a positive integer part", 1),
            ("[1", "expected ',' or ']'", 2),
            ("[1,]", "expected a positive integer part", 3),
            ("[a]", "expected a positive integer part", 1),
            ("1,2]", "expected '['", 0),
            ("[1,2] extra", "unexpected trailing text 'extra'", 6),
            ("[0]", "parts must be >= 1", 1),
            ("[-1]", "expected a positive integer part", 1),
            ("[\u0661,2]", "expected a positive integer part", 1),
            ("[\u00b2]", "expected a positive integer part", 1),
            ("[1 2]", "expected ',' or ']'", 3),
            ("[1, ,2]", "expected a positive integer part", 4),
            ("[ 0 ]", "parts must be >= 1", 2),
            ("[1,2", "expected ',' or ']'", 4),
            ("\t[1\t2]", "expected ',' or ']'", 4),
            ("[1,2]\t x", "unexpected trailing text 'x'", 7),
            ("[ ", "expected a positive integer part", 2),
            ("[ ,1]", "expected a positive integer part", 2),
            ("[1,\t", "expected a positive integer part", 4),
            ("[00]", "parts must be >= 1", 1),
            ("[1, 0]", "parts must be >= 1", 4),
        ],
    )
    def test_parse_errors_exact(self, bad, message, position):
        # Message and position as the character-by-character scanner gave them.
        with pytest.raises(ParseError) as info:
            parse_composition(bad)
        assert (str(info.value), info.value.position) == (f"{message} (at position {position})", position)

    @pytest.mark.parametrize(
        "text, expected",
        [(" [ 1 , 2 ] ", (1, 2)), ("[1\t,\t2]", (1, 2)), ("[\t]", ()), ("[ 01 ,10]", (1, 10)), ("\u3000[\u00a01]", (1,))],
    )
    def test_parse_whitespace_anywhere(self, text, expected):
        assert parse_composition(text) == expected

    def test_format_accepts_any_iterable(self):
        assert format_composition([1, 2]) == format_composition((1, 2)) == "[1,2]"
        assert format_composition(iter([3, 1])) == "[3,1]"
        assert format_composition([]) == format_composition(()) == "[]"

    def test_format_cache_is_bounded(self):
        assert _format_cached.cache_info().maxsize == 4096
        format_composition([7, 7])
        hits = _format_cached.cache_info().hits
        assert format_composition((7, 7)) == "[7,7]"  # a list and a tuple share the entry
        assert _format_cached.cache_info().hits == hits + 1
