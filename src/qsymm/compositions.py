"""Compositions (finite sequences of positive integers) and their orders.

A composition is stored as a plain tuple of positive ints; the empty tuple is
the empty composition. Two orders are used throughout the package:

- lex: ordinary lexicographic comparison of the part sequences, where a
  proper prefix counts as *smaller* than any word extending it. This is
  exactly Python's tuple ordering.
- wll: compare total weight first, then length, then lex. Higher weight wins;
  for equal weight, the *longer* word is the larger one.

A word is Lyndon when it is strictly lex-smaller than every one of its proper
suffixes. Under these conventions every nonempty word factors uniquely as a
concatenation of lex-nonincreasing Lyndon words (computed here by Duval's
algorithm), and the concatenation power of a Lyndon word is the wll-largest
term of its lambda powers, which is what the generator machinery relies on.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache
from operator import itemgetter
from typing import Callable, Iterable

from .errors import ParseError

Composition = tuple[int, ...]


def composition(parts: Iterable[int]) -> Composition:
    """Validate and freeze a sequence of parts into a composition.

    >>> composition([1, 2])
    (1, 2)
    >>> composition([])
    ()
    """
    c = tuple(parts)
    for p in c:
        if not isinstance(p, int) or isinstance(p, bool) or p < 1:
            raise ValueError(f"composition parts must be positive integers, got {p!r}")
    return c


def _check_index(n: object, least: int, message: str) -> None:
    """Raise ValueError(message) unless `n` is an int of at least `least`;
    a bool or a float is not an index."""
    if type(n) is not int:
        raise ValueError(f"{message}, got {n!r}")
    if n < least:
        raise ValueError(message)


def weight(c: Composition) -> int:
    """Sum of the parts; 0 for the empty composition."""
    return sum(c)


def lex_compare(a: Composition, b: Composition) -> int:
    """Lexicographic comparison; returns -1, 0 or +1.

    A proper prefix is smaller than any word extending it:

    >>> lex_compare((1,), (1, 1))
    -1
    >>> lex_compare((2, 2), (1, 3))
    1
    """
    if a < b:
        return -1
    if a > b:
        return 1
    return 0


def wll_key(c: Composition) -> tuple[int, int, Composition]:
    """Sort key realizing the weight-then-length-then-lex order."""
    return (sum(c), len(c), c)


# Canonical element order sorts by `_wll_rank`, an int that compares like
# `wll_key`: ints compare several times faster than tuples, and the cache
# holds every composition of weight <= 16. The rank is read off the packed
# code of `_encode`, which the per-pair product route keys its memo by. A
# code and an int rank of a weight-w composition need at least w bits, so
# compositions heavier than _RANK_MAX_WEIGHT get a `_HeavyRank` instead of
# an ever larger cached int, and their products never take packed codes.
_RANK_MAX_WEIGHT = 256


def _encode(c: Composition) -> int:
    """The packed code of a weight-w composition (p1, ..., pk): the (w + 1)-bit
    int with the sentinel bit w and bit w - (p1 + ... + pi), where part i
    ends, for each i."""
    code = 1
    for p in c:
        code = (code << p) | 1
    return code


def _code_rank(code: int) -> int:
    """The wll rank of the composition with this code.

    Among words of one weight w and length, the lex-smaller word ends a
    part first at the first difference, which sets a higher bit, so lex
    order is the reverse of the code. The length (the set bits, less the
    sentinel) goes above the w bits below the sentinel, and 4**w above
    that puts every weight above all lighter ones.
    """
    w = code.bit_length() - 1
    return (1 << 2 * w) + (code.bit_count() << w) - code


class _HeavyRank:
    """The rank of a composition too heavy for an int rank: above every int
    rank, and ordered by `wll_key` among its kind."""

    __slots__ = ("key",)

    def __init__(self, c: Composition):
        self.key = wll_key(c)

    def __lt__(self, other: "int | _HeavyRank") -> bool:
        return type(other) is _HeavyRank and self.key < other.key

    def __gt__(self, other: "int | _HeavyRank") -> bool:
        return type(other) is not _HeavyRank or self.key > other.key


@lru_cache(maxsize=1 << 16)
def _wll_rank(c: Composition) -> "int | _HeavyRank":
    """A sort key that orders compositions exactly like `wll_key`."""
    if sum(c) > _RANK_MAX_WEIGHT:
        return _HeavyRank(c)
    return _code_rank(_encode(c))


@lru_cache(maxsize=1 << 16)
def _decode(code: int) -> tuple[int, Composition, int]:
    """(wll rank, composition, code) of a code; the composition's part ends
    are the set bits below the sentinel."""
    comp = tuple(len(run) + 1 for run in bin(code)[3:].split("1")[:-1])
    return _code_rank(code), comp, code


# The weight tables hold the _TABLE_KEYS compositions of weight <= 12; as
# many generator monomials have those weights, and caches of either fit.
_TABLE_MAX_WEIGHT = 12
_TABLE_KEYS = 1 << _TABLE_MAX_WEIGHT


@lru_cache(maxsize=_TABLE_MAX_WEIGHT + 1)
def _weight_table(w: int) -> tuple[tuple[Composition, ...], Callable]:
    """Every composition of weight w in canonical order, as `_decode`'s
    tuples so that products key each by one object and dict lookups match
    by identity, and a getter of their entries in a list indexed by code
    (the odd ints from 2**w to 2**(w+1)), which also reads index 0, no
    code, to return a tuple even for one code."""
    decode = _decode if w <= _TABLE_MAX_WEIGHT else _decode.__wrapped__  # spare the memo
    codes = sorted(range(1 << w | 1, 2 << w, 2), key=_code_rank, reverse=True)
    return tuple(decode(code)[1] for code in codes), itemgetter(*codes, 0)


def _table(w: int) -> tuple[tuple[Composition, ...], Callable]:
    """`_weight_table(w)` for any w >= 0, built afresh above _TABLE_MAX_WEIGHT."""
    return _weight_table(w) if w <= _TABLE_MAX_WEIGHT else _weight_table.__wrapped__(w)


def wll_compare(a: Composition, b: Composition) -> int:
    """Weight-first, then length, then lex; returns -1, 0 or +1.

    >>> wll_compare((5,), (1, 1, 2))
    1
    >>> wll_compare((1, 1, 2), (2, 2))
    1
    >>> wll_compare((2, 2), (1, 3))
    1
    """
    ka, kb = wll_key(a), wll_key(b)
    if ka < kb:
        return -1
    if ka > kb:
        return 1
    return 0


def concat(a: Composition, b: Composition) -> Composition:
    """Juxtaposition of the part sequences."""
    return a + b


def concat_power(a: Composition, n: int) -> Composition:
    """`a` concatenated with itself `n` times."""
    _check_index(n, 1, "concatenation power must be >= 1")
    return a * n


def content_gcd(c: Composition) -> int:
    """gcd of all parts of a nonempty composition."""
    if not c:
        raise ValueError("content_gcd of the empty composition is undefined")
    return math.gcd(*c)


def reduce_content(c: Composition) -> Composition:
    """Divide every part by the content gcd.

    >>> reduce_content((3, 3, 6))
    (1, 1, 2)
    """
    g = content_gcd(c)
    return tuple(p // g for p in c)


def is_lyndon(c: Composition) -> bool:
    """True iff `c` is strictly lex-smaller than all of its proper suffixes.

    Single letters are Lyndon; no periodic word is.

    >>> is_lyndon((1, 2)), is_lyndon((2, 1)), is_lyndon((1, 1))
    (True, False, False)
    """
    if not c:
        raise ValueError("the empty composition is not eligible")
    return all(c < c[i:] for i in range(1, len(c)))


def cfl_factorize(c: Composition) -> list[tuple[Composition, int]]:
    """Factor a nonempty word into strictly lex-decreasing Lyndon factors
    with multiplicities, via Duval's algorithm.

    Concatenating the factors (with their multiplicities) reproduces the
    input; the factorization is unique.

    >>> cfl_factorize((2, 1, 1))
    [((2,), 1), ((1,), 2)]
    >>> cfl_factorize((1, 2, 1, 2))
    [((1, 2), 2)]
    """
    if not c:
        raise ValueError("cannot factorize the empty composition")
    factors: list[Composition] = []
    i, n = 0, len(c)
    while i < n:
        j, k = i + 1, i
        while j < n and c[k] <= c[j]:
            k = i if c[k] < c[j] else k + 1
            j += 1
        while i <= k:
            factors.append(c[i:i + j - k])
            i += j - k
    grouped: list[tuple[Composition, int]] = []
    for f in factors:
        if grouped and grouped[-1][0] == f:
            grouped[-1] = (f, grouped[-1][1] + 1)
        else:
            grouped.append((f, 1))
    return grouped


def enumerate_compositions(w: int) -> list[Composition]:
    """All compositions of weight `w`, sorted wll-descending.

    There are 2**(w-1) of them for w >= 1, and just the empty composition
    for w = 0.
    """
    _check_index(w, 0, "weight must be nonnegative")
    return list(_table(w)[0])


def enumerate_elementary_lyndon(max_weight: int) -> list[Composition]:
    """All Lyndon compositions of weight <= max_weight whose parts have
    gcd 1, sorted wll-ascending.

    >>> enumerate_elementary_lyndon(4)
    [(1,), (1, 2), (1, 3), (1, 1, 2)]
    """
    _check_index(max_weight, 1, "max_weight must be >= 1")
    return [
        c
        for w in range(1, max_weight + 1)
        for c in reversed(_table(w)[0])
        if is_lyndon(c) and content_gcd(c) == 1
    ]


# Rendered compositions are memoized like the package's other tables, in an
# lru_cache that holds every composition of weight <= _TABLE_MAX_WEIGHT.
@lru_cache(maxsize=_TABLE_KEYS)
def _format_cached(c: Composition) -> str:
    # Equal tuples share an entry, and `(True, 2) == (1, 2)`: `int.__repr__`
    # writes a bool as its int value and raises TypeError for a float, so
    # no entry can hold a text other than its int parts'.
    return "[" + ",".join(map(int.__repr__, c)) + "]"


def format_composition(c: Iterable[int]) -> str:
    """Render as `[a1,a2,...]`; the empty composition is `[]`.

    Accepts any iterable of positive int parts and raises ValueError for
    anything else. Texts come from `_format_cached`, an lru_cache of the
    4096 most recently rendered compositions.
    """
    return _format_cached(composition(c))


def parse_composition(s: str) -> Composition:
    """Parse a `[a1,a2,...]` literal; whitespace is tolerated anywhere."""
    c, pos = _parse_composition_at(s, 0)
    pos = _skip_ws(s, pos)
    if pos != len(s):
        raise ParseError(f"unexpected trailing text {s[pos:]!r}", pos)
    return c


def _skip_ws(s: str, pos: int) -> int:
    while pos < len(s) and s[pos].isspace():
        pos += 1
    return pos


def _scan_int(s: str, pos: int, what: str = "an integer") -> tuple[int, int]:
    """Read the digits at `pos`; returns (value, end). With no digit there,
    raises ParseError "expected <what>"."""
    end = pos
    # ASCII only: `str.isdigit` also admits digits no formatter writes, such
    # as "\u0663", which `int` reads as 3, and "\u00b2", which it rejects.
    while end < len(s) and "0" <= s[end] <= "9":
        end += 1
    if end == pos:
        raise ParseError(f"expected {what}", pos)
    return int(s[pos:end]), end


# A literal as the formatter writes it: parts with no sign, space or
# leading zero, joined by single commas.
_PLAIN_LITERAL = re.compile(r"\[([1-9][0-9]*(?:,[1-9][0-9]*)*)\]")


def _parse_composition_at(s: str, pos: int) -> tuple[Composition, int]:
    """Parse one composition literal starting at `pos`; returns (value, end).

    A plain literal is split at its commas. `_scan_composition` scans any
    other, so that an error keeps its message and position."""
    m = _PLAIN_LITERAL.match(s, pos)
    if m:
        return tuple(map(int, m[1].split(","))), m.end()
    return _scan_composition(s, pos)


def _scan_composition(s: str, pos: int) -> tuple[Composition, int]:
    """Scan one composition literal starting at `pos`; returns (value, end)."""
    pos = _skip_ws(s, pos)
    if not s.startswith("[", pos):
        raise ParseError("expected '['", pos)
    pos = _skip_ws(s, pos + 1)
    if s.startswith("]", pos):
        return (), pos + 1
    parts: list[int] = []
    while True:
        part, end = _scan_int(s, pos, "a positive integer part")
        if not part:
            raise ParseError("parts must be >= 1", pos)
        parts.append(part)
        pos = _skip_ws(s, end)
        ch = s[pos : pos + 1]
        if ch == ",":
            pos = _skip_ws(s, pos + 1)
        elif ch == "]":
            return tuple(parts), pos + 1
        else:
            raise ParseError("expected ',' or ']'", pos)
