"""The free module on compositions with the quasi-shuffle multiplication.

An element is a finite linear combination of compositions with exact rational
coefficients. Multiplication interleaves two compositions, optionally summing
one part from each side:

    (a::u) * (b::v) = a::(u * (b::v)) + b::((a::u) * v) + (a+b)::(u * v)

with the empty composition as unit. This is the multiplication the monomial
power-series realization induces, and the polynomial oracle checks it term
for term.

Elements are immutable; term maps iterate in wll-descending order so the
leading term is always first and output is reproducible.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Union

from ._sparse import (  # Scalar and _norm_scalar stay importable from here
    Scalar,
    SparseTerms,
    _format_terms,
    _norm_scalar,
    _parse_json_coeff,
    _parse_terms,
    _scan_rational,
)
from .compositions import (
    Composition,
    composition,
    parse_composition,
    _code_rank,
    _encode,
    _format_cached,
    _parse_composition_at,
    _wll_rank,
    _RANK_MAX_WEIGHT,
)
from .errors import ParseError


# The per-pair route memoizes quasi-shuffles of packed composition codes
# (`compositions._encode`). Ints make cheap dict keys, as hashing one walks
# no tuple; giving a code a new first part is one add (see
# `_shuffle_codes`); and the wll rank follows from the code alone (see
# `_decode`). Codes stay small because only products of weight at most
# _RANK_MAX_WEIGHT take this route.


@lru_cache(maxsize=1 << 16)
def _decode(code: int) -> tuple[int, Composition, int]:
    """(wll rank, composition, code) of a code; the composition's part ends
    are the set bits below the sentinel."""
    comp = tuple(len(run) + 1 for run in bin(code)[3:].split("1")[:-1])
    return _code_rank(code), comp, code


@lru_cache(maxsize=None)
def _shuffle_codes(a: Composition, b: Composition) -> tuple[tuple[int, int], ...]:
    """Quasi-shuffle of two basis compositions as (code, multiplicity) pairs.

    Each of the three recursive branches puts one new part in front of a
    sub-shuffle of total weight W. Whatever that part p is, it turns the
    sub-shuffle's sentinel bit W into a part end and sets the new sentinel
    at W + p = weight(a) + weight(b), so every branch adds the same bit."""
    if b < a:  # commutative; canonicalize to halve the cache
        a, b = b, a
    if not a:
        return ((_encode(b), 1),)
    acc: dict[int, int] = {}
    get = acc.get
    top = 1 << (sum(a) + sum(b))
    tail_a, tail_b = a[1:], b[1:]
    for rest_a, rest_b in ((tail_a, b), (a, tail_b), (tail_a, tail_b)):
        for code, m in _shuffle_codes(rest_a, rest_b):
            code += top
            acc[code] = get(code, 0) + m
    return tuple(acc.items())


def _shuffle_terms(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    """Quasi-shuffle of two basis compositions as (composition, multiplicity)
    pairs: `_shuffle_codes` decoded, or, for a pair heavier than
    _RANK_MAX_WEIGHT, whose codes would be that many bits long, the trie's."""
    if sum(a) + sum(b) > _RANK_MAX_WEIGHT:
        return tuple(_mul_tries(_build_trie(((a, 1),)), _build_trie(((b, 1),))).items())
    return tuple((_decode(code)[1], m) for code, m in _shuffle_codes(a, b))


# A trie node is [coefficient-at-node, {next part: child}, flat suffix list].
# Multiplying two elements through their tries shares all common-suffix work,
# which beats the per-term-pair route once the per-pair work is large (see
# `QSymmElement.__mul__` for the measured crossover).


def _build_trie(terms: Iterable[tuple[Composition, Scalar]]) -> list:
    root: list = [0, {}, None]
    for comp, q in terms:
        node = root
        for part in comp:
            node = node[1].setdefault(part, [0, {}, None])
        node[0] += q
    _flatten_trie(root)
    return root


def _flatten_trie(node: list) -> list:
    """Postorder fill of each node's nonempty-suffix word list."""
    flat: list[tuple[Composition, Scalar]] = []
    for part, child in node[1].items():
        _flatten_trie(child)
        prefix = (part,)
        if child[0]:
            flat.append((prefix, child[0]))
        for word, q in child[2]:
            flat.append((prefix + word, q))
    node[2] = flat
    return node


def _mul_tries(root_a: list, root_b: list) -> dict[Composition, Scalar]:
    memo: dict[tuple, dict[Composition, Scalar]] = {}

    def rec(a: list, with_eps_a: bool, b: list, with_eps_b: bool) -> dict[Composition, Scalar]:
        key = (id(a), with_eps_a, id(b), with_eps_b)
        hit = memo.get(key)
        if hit is not None:
            return hit
        res: dict[Composition, Scalar] = {}
        if with_eps_a and a[0]:
            ca = a[0]
            if with_eps_b and b[0]:
                res[()] = ca * b[0]
            for word, q in b[2]:
                res[word] = res.get(word, 0) + ca * q
        if with_eps_b and b[0]:
            cb = b[0]
            for word, q in a[2]:
                res[word] = res.get(word, 0) + cb * q
        for x, child_a in a[1].items():
            for word, q in rec(child_a, True, b, False).items():
                key2 = (x,) + word
                res[key2] = res.get(key2, 0) + q
        for y, child_b in b[1].items():
            for word, q in rec(a, False, child_b, True).items():
                key2 = (y,) + word
                res[key2] = res.get(key2, 0) + q
        for x, child_a in a[1].items():
            for y, child_b in b[1].items():
                merged = (x + y,)
                for word, q in rec(child_a, True, child_b, True).items():
                    key2 = merged + word
                    res[key2] = res.get(key2, 0) + q
        memo[key] = res
        return res

    return rec(root_a, True, root_b, True)


def _mul_pairwise(a: "QSymmElement", b: "QSymmElement") -> dict[Composition, Scalar]:
    """Sum the memoized quasi-shuffles of every term pair by code, then
    decode each distinct code once: the result is in canonical form, with
    no zeros and integral fractions stored as int."""
    acc: dict[int, Scalar] = {}
    get = acc.get
    for c1, q1 in a._terms.items():
        for c2, q2 in b._terms.items():
            q12 = q1 * q2
            for code, m in _shuffle_codes(c1, c2):
                acc[code] = get(code, 0) + q12 * m
    out: dict[Composition, Scalar] = {}
    for _, comp, code in sorted(map(_decode, acc), key=itemgetter(0), reverse=True):
        q = acc[code]
        if q:
            out[comp] = q if type(q) is int or q.denominator != 1 else q.numerator
    return out


@lru_cache(maxsize=1024)
def _delannoy(m: int, n: int) -> int:
    """D(m, n), the number of quasi-shuffle terms of two words of lengths m
    and n counted with multiplicity (Hoffman, "Quasi-shuffle products",
    2000), from D(i, j) = D(i-1, j) + D(i, j-1) + D(i-1, j-1) one row at a
    time, without recursion."""
    row = [1] * (n + 1)  # D(0, j) = 1
    for _ in range(m):
        diag = 1  # D(i-1, 0); the new row keeps D(i, 0) = 1
        for j in range(1, n + 1):
            diag, row[j] = row[j], row[j] + row[j - 1] + diag
    return row[n]


def _pair_work(a: Iterable[Composition], b: Iterable[Composition]) -> int:
    """The per-pair route's work for two term lists: the quasi-shuffle
    terms of every word pair, counted with multiplicity, from the two
    word-length histograms."""
    hb = Counter(map(len, b)).items()
    return sum(k * j * _delannoy(m, n) for m, k in Counter(map(len, a)).items() for n, j in hb)


def _mul_trie(a: "QSymmElement", b: "QSymmElement") -> dict[Composition, Scalar]:
    return _mul_tries(_build_trie(a._terms.items()), _build_trie(b._terms.items()))


# The per-pair work above which a product of two elements takes the trie
# route; fitted on the corpus in `__mul__`.
_TRIE_MIN_WORK = 10**5

# Large products are cached whole; entries can be megabytes, so the cap is
# small and the least recently used pair goes first.
_PRODUCT_CACHE_CAP = 512


@lru_cache(maxsize=_PRODUCT_CACHE_CAP)
def _trie_product(a: "QSymmElement", b: "QSymmElement") -> "QSymmElement":
    return QSymmElement._from_dict(_mul_trie(a, b))


class QSymmElement(SparseTerms):
    """A finite rational combination of compositions, in canonical form
    (no zero coefficients, terms sorted wll-descending)."""

    __slots__ = ()
    _order = staticmethod(_wll_rank)
    _descending = True

    def __init__(self, terms: Mapping[Composition, Scalar] | Iterable[tuple[Composition, Scalar]] = ()):
        self._init_terms(terms, composition)

    @classmethod
    def monomial(cls, comp: Iterable[int], coeff: Scalar = 1) -> "QSymmElement":
        return cls({composition(comp): coeff})

    # -- inspection --------------------------------------------------------

    def compositions(self) -> Iterator[Composition]:
        return iter(self._terms)

    def coefficient(self, comp: Iterable[int]) -> Scalar:
        return self._terms.get(composition(comp), 0)

    def is_homogeneous(self, w: int) -> bool:
        """True iff every present composition has weight `w` (vacuously true
        for the zero element)."""
        return all(sum(c) == w for c in self._terms)

    def homogeneous_weight(self) -> int | None:
        """The common weight of all terms, or None if zero or mixed."""
        weights = {sum(c) for c in self._terms}
        if len(weights) == 1:
            return weights.pop()
        return None

    def leading_term_wll(self) -> tuple[Composition, Scalar]:
        """The wll-largest composition present, with its coefficient."""
        if not self._terms:
            raise ValueError("the zero element has no leading term")
        comp = next(iter(self._terms))
        return comp, self._terms[comp]

    # -- arithmetic --------------------------------------------------------

    def __mul__(self, other: Union["QSymmElement", Scalar]) -> "QSymmElement":
        if not isinstance(other, QSymmElement):
            return self._scale(other)
        # Per-pair shuffles, memoized across calls, unless the per-pair
        # work `_pair_work` exceeds _TRIE_MIN_WORK. Then the trie route
        # shares common-prefix and common-suffix work, and the whole product
        # is worth caching. No word pair does more work than the two longest
        # words, so that bound settles most products without the histograms.
        #
        # The threshold was fitted on recorded products, each route timed in
        # its own process (medians of 5, Python 3.11.7, 2 vCPUs). Totals,
        # per-pair only / trie only / this rule / the better route of each
        # product:
        #   certify, w = 1..10 (1303 products)   0.208 / 1.026 / 0.208 / 0.200 s
        #   verify_all(7) (863)                  0.203 / 0.443 / 0.203 / 0.203 s
        #   9 x 9 terms, one 5-part word (561)   0.249 / 1.803 / 0.249 / 0.249 s
        #   lambda_i([1,1]) * lambda_j([1,1]),
        #     i, j <= 4 (16)                     14.54 / 2.713 / 2.698 / 2.638 s
        #   lambda_n(n, [alpha]), n <= 4,
        #     weight(alpha) <= 4 (160)           2.873 / 1.214 / 1.266 / 1.200 s
        #   perfbench session, seed 1 (3126)     0.477 / 3.189 / 0.477 / 0.477 s
        # Every threshold from 55295 to 142023 makes the same choices there.
        # There only lambda products reach the trie, lambda_4([1,1])**2
        # among them: 1.8 s there against 12.3 s per-pair.
        #
        # The per-pair route packs compositions into codes one bit per unit
        # of weight, so a product heavier than _RANK_MAX_WEIGHT takes the
        # trie whatever its work. The first terms are the heaviest.
        a, b = self._terms, other._terms
        if (
            not a
            or not b
            or sum(next(iter(a))) + sum(next(iter(b))) <= _RANK_MAX_WEIGHT
            and (
                len(a) * len(b) * _delannoy(max(map(len, a)), max(map(len, b))) <= _TRIE_MIN_WORK
                or _pair_work(a, b) <= _TRIE_MIN_WORK
            )
        ):
            return QSymmElement._from_sorted(_mul_pairwise(self, other))
        if hash(self) <= hash(other):  # commutative: one entry per pair
            return _trie_product(self, other)
        return _trie_product(other, self)

    def __str__(self) -> str:
        return format_element(self)


def quasi_shuffle(a: Iterable[int], b: Iterable[int]) -> QSymmElement:
    """Quasi-shuffle product of two basis compositions.

    >>> print(quasi_shuffle((1,), (1,)))
    2*[1,1] + [2]
    """
    return QSymmElement._from_dict(dict(_shuffle_terms(composition(a), composition(b))))


# -- text and JSON forms ----------------------------------------------------


def format_element(el: QSymmElement) -> str:
    """Render in wll-descending order, e.g. `2*[1,1] + [2]`; zero is `0`."""
    return _format_terms((q, _format_cached(comp)) for comp, q in el.terms())


def _parse_bare_composition(s: str, pos: int) -> tuple[Composition, int]:
    if pos >= len(s) or s[pos] != "[":
        raise ParseError("expected a coefficient or '['", pos)
    return _parse_composition_at(s, pos)


def parse_element(s: str) -> QSymmElement:
    """Parse element text: signed terms `coeff*[comp]`, `[comp]`, or a bare
    rational meaning a multiple of the empty composition. `0` is the zero
    element."""
    # The scanner validated every composition and coefficient and summed
    # repeated keys, so the result needs no second pass through the
    # public constructor.
    return QSymmElement._from_dict(
        _parse_terms(s, _scan_rational, _parse_composition_at, (), "element", _parse_bare_composition)
    )


def element_to_json_obj(el: QSymmElement) -> list[dict]:
    """JSON form: wll-descending array of {"composition", "coeff"} objects,
    coefficients as decimal strings with an optional /denominator."""
    return [
        {"composition": list(comp), "coeff": str(q)}
        for comp, q in el.terms()
    ]


def element_from_json_obj(obj: list[dict]) -> QSymmElement:
    """Inverse of `element_to_json_obj`; a coefficient must be written
    exactly as the text form writes one, with an optional leading `-`."""
    return QSymmElement(
        (composition(entry["composition"]), _parse_json_coeff(entry["coeff"], _scan_rational))
        for entry in obj
    )


__all__ = [
    "QSymmElement",
    "quasi_shuffle",
    "format_element",
    "parse_element",
    "element_to_json_obj",
    "element_from_json_obj",
    "parse_composition",
]
