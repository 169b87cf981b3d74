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
from functools import lru_cache
from typing import Iterable, Iterator

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
    if n < 1:
        raise ValueError("concatenation power must be >= 1")
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


def _compositions_of(w: int) -> Iterator[Composition]:
    if w == 0:
        yield ()
        return
    for first in range(1, w + 1):
        for rest in _compositions_of(w - first):
            yield (first,) + rest


def enumerate_compositions(w: int) -> list[Composition]:
    """All compositions of weight `w`, sorted wll-descending.

    There are 2**(w-1) of them for w >= 1, and just the empty composition
    for w = 0.
    """
    if w < 0:
        raise ValueError("weight must be nonnegative")
    return sorted(_compositions_of(w), key=wll_key, reverse=True)


def enumerate_elementary_lyndon(max_weight: int) -> list[Composition]:
    """All Lyndon compositions of weight <= max_weight whose parts have
    gcd 1, sorted wll-ascending.

    >>> enumerate_elementary_lyndon(4)
    [(1,), (1, 2), (1, 3), (1, 1, 2)]
    """
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    found = [
        c
        for w in range(1, max_weight + 1)
        for c in _compositions_of(w)
        if is_lyndon(c) and content_gcd(c) == 1
    ]
    return sorted(found, key=wll_key)


# Rendered compositions are memoized like the package's other tables, in an
# lru_cache; 4096 entries hold every composition of weight <= 12.
_FORMAT_CACHE_CAP = 4096


@lru_cache(maxsize=_FORMAT_CACHE_CAP)
def _format_cached(c: Composition) -> str:
    return "[" + ",".join(str(p) for p in c) + "]"


def format_composition(c: Iterable[int]) -> str:
    """Render as `[a1,a2,...]`; the empty composition is `[]`.

    Accepts any iterable of int parts. Texts come from `_format_cached`, an
    lru_cache of the 4096 most recently rendered compositions; equal tuples
    share an entry, so parts that are not ints may render as equal ints.
    """
    return _format_cached(c if type(c) is tuple else tuple(c))


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


def _parse_composition_at(s: str, pos: int) -> tuple[Composition, int]:
    """Parse one composition literal starting at `pos`; returns (value, end).

    Whitespace and digits are scanned inline, as `_skip_ws` and `_scan_int`
    would scan them, with the same messages and positions: this runs once
    per composition of every parsed element."""
    n = len(s)
    while pos < n and s[pos].isspace():
        pos += 1
    if pos >= n or s[pos] != "[":
        raise ParseError("expected '['", pos)
    pos += 1
    while pos < n and s[pos].isspace():
        pos += 1
    if pos < n and s[pos] == "]":
        return (), pos + 1
    parts: list[int] = []
    while True:
        start = pos
        while pos < n and "0" <= s[pos] <= "9":
            pos += 1
        if pos == start:
            raise ParseError("expected a positive integer part", pos)
        part = int(s[start:pos])
        if not part:
            raise ParseError("parts must be >= 1", start)
        parts.append(part)
        while pos < n and s[pos].isspace():
            pos += 1
        ch = s[pos] if pos < n else ""
        if ch == ",":
            pos += 1
            while pos < n and s[pos].isspace():
                pos += 1
        elif ch == "]":
            return tuple(parts), pos + 1
        else:
            raise ParseError("expected ',' or ']'", pos)
