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
from itertools import accumulate, chain, compress
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Union

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
    _decode,
    _encode,
    _format_cached,
    _parse_composition_at,
    _weight_table,
    _wll_rank,
    _RANK_MAX_WEIGHT,
    _TABLE_MAX_WEIGHT,
)
from .errors import ParseError


# The per-pair route memoizes quasi-shuffles of packed composition codes
# (`compositions._encode`). Ints make cheap dict keys, as hashing one walks
# no tuple; a code's set bits are the suffix weights of its composition, so
# giving a code a new first part is one add of the new weight's bit; and the
# wll rank follows from the code alone (see `compositions._decode`). Codes
# stay small because only products of weight at most _RANK_MAX_WEIGHT take
# this route. Only the pairs asked for are memoized, the smaller word first:
# the certificates of weight <= 10 ask for 1782 of them.


@lru_cache(maxsize=4096)
def _shuffle_codes(a: Composition, b: Composition) -> tuple[tuple[int, int], ...]:
    """Quasi-shuffle of two basis compositions as (code, multiplicity) pairs.

    A term of a * b is a lattice path from (0, 0) to (len a, len b) whose
    steps take a's next part, b's next part or the sum of both (Hoffman,
    "Quasi-shuffle products", 2000). Its suffix weights are A_i + B_j over
    the cells (i, j) the path visits, where A_i is the weight of a[i:] and
    B_j that of b[j:], so its code is the sum of 1 << (A_i + B_j) over them.
    One pass over the cells, from the last to the first, lists the codes of
    the paths from each cell: its bit plus those of its three successors,
    one per path, so repeated words are counted once, at the end. A word
    of one part needs no pass: it goes in at a suffix weight of the other
    word, as a part of its own or added to the part that starts there."""
    if len(a) < len(b):
        a, b = b, a  # b is the shorter word, the row of the pass
    if not b:
        counts = {_encode(a): 1}
    elif len(b) == 1:
        p, code = b[0], _encode(a)
        counts = {}
        for t in accumulate(reversed(a), initial=0):
            ins = (code & ((2 << t) - 1)) | (code >> t << (t + p))
            counts[ins] = counts.get(ins, 0) + 1  # p beside an equal part repeats a word
            if t:
                counts[ins ^ 1 << t] = 1
    else:
        tops = [1 << t for t in accumulate(reversed(b), initial=0)]  # 1 << B_j, from j = len b down
        row = [[c] for c in accumulate(tops)]  # a exhausted: the codes of b's suffixes
        code_a, weight_a = 1, 0
        for x in reversed(a):
            weight_a += x
            code_a |= 1 << weight_a
            below = [code_a]  # b exhausted
            new_row = [below]
            for k in range(1, len(tops)):
                # take x first, b's part first, or their sum
                below = list(map((tops[k] << weight_a).__add__, chain(row[k], below, row[k - 1])))
                new_row.append(below)
            row = new_row
        counts = Counter(row[-1])
    items = tuple(counts.items())
    w = sum(a) + sum(b)
    if w > _TABLE_MAX_WEIGHT:
        return items
    pairs = _pair_table(w)  # one object per equal pair, across all entries
    return tuple(map(pairs.setdefault, items, items))


@lru_cache(maxsize=_TABLE_MAX_WEIGHT + 1)
def _pair_table(w: int) -> dict[tuple[int, int], tuple[int, int]]:
    """The (code, multiplicity) pairs of weight w that `_shuffle_codes`
    entries hold, each keyed by itself: equal pairs, and so their code ints,
    are one object across every entry, not one per entry."""
    return {}


def _sum_pairs(ta: dict[Composition, Scalar], tb: dict[Composition, Scalar], table: list[Scalar]) -> list[Scalar]:
    """Add the memoized quasi-shuffles of every term pair into `table`, a
    list indexed by code that reaches past the heaviest code. Returns it."""
    for c1, q1 in ta.items():
        for c2, q2 in tb.items():
            q12 = q1 * q2
            for code, m in _shuffle_codes(c1, c2) if c1 <= c2 else _shuffle_codes(c2, c1):
                table[code] += q12 * m
    return table


def _mul_pairwise(a: "QSymmElement", b: "QSymmElement", by_table: bool = False) -> dict[Composition, Scalar]:
    """Sum the memoized quasi-shuffles of every term pair by code; the
    result is in canonical form. `by_table`, sum in `_mul_by_table`."""
    if by_table:
        return _mul_by_table(a._terms, b._terms)
    acc: dict[int, Scalar] = {}
    get = acc.get
    for c1, q1 in a._terms.items():
        for c2, q2 in b._terms.items():
            q12 = q1 * q2
            for code, m in _shuffle_codes(c1, c2) if c1 <= c2 else _shuffle_codes(c2, c1):
                acc[code] = get(code, 0) + q12 * m
    return _from_codes(acc)


def _mul_by_table(ta: dict[Composition, Scalar], tb: dict[Composition, Scalar]) -> dict[Composition, Scalar]:
    """`_mul_pairwise` summed in a list indexed by code and read back in
    canonical order through the weight tables, from the weight of the two
    first (heaviest) terms to that of the two last."""
    top = sum(next(iter(ta))) + sum(next(iter(tb)))
    table = _sum_pairs(ta, tb, [0] * (2 << top))
    out: dict[Composition, Scalar] = {}
    for w in range(top, sum(next(reversed(ta))) + sum(next(reversed(tb))) - 1, -1):
        comps, get_w = _weight_table(w)
        values = get_w(table)
        out.update(zip(compress(comps, values), filter(None, values)))
    for comp, q in out.items():
        if type(q) is not int and q.denominator == 1:
            out[comp] = q.numerator
    return out


def _from_codes(acc: dict[int, Scalar]) -> dict[Composition, Scalar]:
    """The canonical form of a sum keyed by code: each code decoded once,
    sorted by rank, zeros dropped and integral fractions stored as int."""
    out: dict[Composition, Scalar] = {}
    for _, comp, code in sorted(map(_decode, acc), key=itemgetter(0), reverse=True):
        q = acc[code]
        if q:
            out[comp] = q if type(q) is int or q.denominator != 1 else q.numerator
    return out


def _mul_column(a: "QSymmElement", b: "QSymmElement", w: int, get_w: Callable) -> tuple[Scalar, ...]:
    """The product of two elements whose terms all weigh v and w - v, as
    `get_w` reads it: the coefficients of the compositions of weight w in
    canonical order, zeros included, then one 0. It takes the route
    `__mul__` would, per-pair or trie, but keys the sum by code in one list:
    a per-pair product of either finish sums straight into it, since the
    list is made for the read anyway and an index costs less than a dict
    lookup, and a trie product's codes are written into it. Nothing is
    cached but the shuffles of word pairs."""
    ta, tb = a._terms, b._terms
    table: list[Scalar] = [0] * (2 << w)
    if _route(ta, tb) == _TRIE:
        acc, _ = _trie_sum(ta, tb)  # a product this light is keyed by code
        for code, q in acc.items():
            table[code] = q
    else:
        _sum_pairs(ta, tb, table)
    return get_w(table)


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


def _reversed_trie(terms: Iterable[tuple[Composition, Scalar]]) -> tuple[list, list[dict[int, int]]]:
    """The trie of the reversed words: `coef[i]` is the coefficient of the
    word read from node i up to the root, and `kids[i]` maps a part to its
    child node. Every child's index is above its parent's."""
    coef: list = [0]
    kids: list[dict[int, int]] = [{}]
    for comp, q in terms:
        node = 0
        for part in reversed(comp):
            child = kids[node].get(part)
            if child is None:
                child = kids[node][part] = len(coef)
                coef.append(0)
                kids.append({})
            node = child
        coef[node] += q
    return coef, kids


def _trie_sum(ta: dict[Composition, Scalar], tb: dict[Composition, Scalar]) -> tuple[dict[int, Scalar], int]:
    """The product over the tries of the reversed words, as {word: coefficient}
    and the width of a word's digits, 0 where words are `_encode`'s codes.

    The words below node i are S(i) = coef[i] + sum_x S(i_x).x, where i_x is
    the child at part x and w.x appends x to w. Hoffman's last-part
    recursion of the quasi-shuffle ("Quasi-shuffle products", 2000) gives

        S(i) * S(j) = coef_a[i] coef_b[j] + sum_x (S(i_x) * S(j)).x
                      + sum_y (S(i) * S(j_y)).y + sum_x,y (S(i_x) * S(j_y)).(x+y)

    so one loop over node pairs in descending index order computes each
    pair's product once, from pairs computed before it. Words are ints, and
    appending a part is one shift-or: `_encode`'s codes when the product
    weighs at most _RANK_MAX_WEIGHT, else one fixed-width digit per part."""
    coef_a, kids_a = _reversed_trie(ta.items())
    coef_b, kids_b = _reversed_trie(tb.items())
    if len(coef_a) < len(coef_b):  # a row holds one product per node of b
        coef_a, kids_a, coef_b, kids_b = coef_b, kids_b, coef_a, kids_a
    weight = sum(next(iter(ta), ())) + sum(next(iter(tb), ()))  # the first terms are the heaviest
    width = weight.bit_length()  # no part of the product exceeds its weight
    light = weight <= _RANK_MAX_WEIGHT
    nb = len(coef_b)
    rows: list = [None] * len(coef_a)  # rows[i][j] = S(i) * S(j) as {word: coefficient}
    for i in reversed(range(len(coef_a))):
        ca, kids_i = coef_a[i], kids_a[i].items()
        row = rows[i] = [None] * nb
        for j in reversed(range(nb)):
            cb = coef_b[j]
            res = {1: ca * cb} if ca and cb else {}  # 1 is the empty word
            # Words from distinct children of i end in distinct parts and
            # never meet; the two sums below may meet them and each other.
            for x, ka in kids_i:
                shift, tag = (x, 1) if light else (width, x)
                res.update({(w << shift) | tag: q for w, q in rows[ka][j].items()})
            get = res.get
            for y, kb in kids_b[j].items():
                for src, part in [(row[kb], y)] + [(rows[ka][kb], x + y) for x, ka in kids_i]:
                    shift, tag = (part, 1) if light else (width, part)
                    for w, q in src.items():
                        w = (w << shift) | tag
                        res[w] = get(w, 0) + q
            row[j] = res
        for ka in kids_a[i].values():  # only this row reads the children's rows
            rows[ka] = None
    return rows[0][0], 0 if light else width


def _mul_trie(a: "QSymmElement", b: "QSymmElement") -> dict[Composition, Scalar]:
    """The product, in canonical form, over the tries of the reversed words."""
    acc, width = _trie_sum(a._terms, b._terms)
    if not width:
        return _from_codes(acc)
    mask = (1 << width) - 1  # the digits sit below the sentinel, the first part highest
    return QSymmElement._canonical(
        {tuple(w >> s & mask for s in range(w.bit_length() - 1 - width, -1, -width)): q for w, q in acc.items()}
    )


# The per-pair work above which a product of two elements takes the trie
# route; fitted on the corpus in `_route`.
_TRIE_MIN_WORK = 16_000

# The routes of a product: per-pair, finished in a dict or through the
# weight tables, or over the tries.
_DICT, _TABLE, _TRIE = "dict", "table", "trie"


def _route(a: dict[Composition, Scalar], b: dict[Composition, Scalar]) -> str:
    """The route of the product of two term maps in canonical form, which
    `__mul__` and `_mul_column` both take."""
    # Per-pair shuffles, memoized across calls, unless the per-pair
    # work `_pair_work` exceeds _TRIE_MIN_WORK. Then the trie route
    # shares the work of common suffixes, and the whole product is
    # worth caching. No word pair does more work than the two longest
    # words, so that bound settles most products without the histograms.
    #
    # The cut is fitted on cold cost, with the `_shuffle_codes` above.
    # Cold, the trie was faster on nearly every recorded product with
    # 4.4e3 <= P <= 2.7e5, by 1.0-4.7x: the three lambda products of
    # `exp_identity_check((1,1,1), 4)` (P = 16081, 53684, 55295; 63, 136
    # and 149 terms times one) took 7.6 / 18.8 / 19.1 ms per-pair and
    # 3.6 / 6.0 / 6.2 ms on the trie. Warm, per-pair was 2-10x faster, and
    # a certificate's products share their word pairs (1782 pairs for
    # 7347 asks at weight <= 10). Those products have P <= 9984, a
    # 128 x 1 column shape is still faster per-pair at P = 14464, even
    # cold, and the session workload stays below 5000, so the cut sits
    # above 14464 and below 16081. Totals of the recorded products,
    # replayed in order from empty memos (best of 3-9 in each of two
    # runs, Python 3.11.7, 2 vCPUs), per-pair only / trie only / a cut
    # at 10**5 / this rule:
    #   certify, w = 1..10 (1303 products)   0.064-0.065 / 0.19-0.20 /
    #                                        0.062-0.063 / 0.064-0.067 s
    #   verify_all(7) (1409)                 0.039-0.044 / 0.063-0.066 /
    #                                        0.039-0.040 / 0.033-0.034 s
    #   lambda_i([1,1]) * lambda_j([1,1]),
    #     i, j <= 4, and lambda_n(n, [alpha]),
    #     n, weight(alpha) <= 4 (160)        8.6-9.4 / 0.64-0.75 /
    #                                        0.68-0.78 / 0.67-0.75 s
    #   perfbench session, seed 1 (3126)     0.147-0.158 / 0.74-0.76 /
    #                                        0.146-0.148 / 0.150-0.152 s
    # The cuts from 9984 to 16080 make the same choices there.
    #
    # The per-pair route packs compositions into codes one bit per unit
    # of weight, so a product heavier than _RANK_MAX_WEIGHT takes the
    # trie whatever its work. The first terms are the heaviest.
    #
    # A per-pair product of weight w <= _TABLE_MAX_WEIGHT sums in a list
    # read back through `_weight_table` when the 2**(w-1) codes of its
    # top weight are at most twice the per-pair bound; any other is
    # decoded and sorted. Both finishes timed warm on the per-pair
    # products above (best of 3); dict only / table only / this cut /
    # the better finish of each product:
    #   certify 96.2 / 73.5 / 58.9 / 58.1 ms, verify_all(7) 34.7 / 31.7 /
    #   23.0 / 22.7 ms, session 369.9 / 247.9 / 241.0 / 239.6 ms.
    # Cuts at 1x and 3-4x the bound read within 4 %; counting the whole
    # list, 2**(w+1) <= bound, up to 9 % slower.
    if not a or not b:
        return _DICT
    top = sum(next(iter(a))) + sum(next(iter(b)))
    if top <= _RANK_MAX_WEIGHT:
        bound = len(a) * len(b) * _delannoy(max(map(len, a)), max(map(len, b)))
        if bound <= _TRIE_MIN_WORK or _pair_work(a, b) <= _TRIE_MIN_WORK:
            return _TABLE if top <= _TABLE_MAX_WEIGHT and 1 << top <= 2 * bound else _DICT
    return _TRIE


# Trie products are cached whole, the least recently used pair going first,
# unless they have more than _PRODUCT_CACHE_MAX_TERMS terms, as many as the
# compositions of weight 16. The square of lambda_4([1,1]) has 30808 terms
# and holds 2.1 MiB beside the `_decode` entries of its words, so 512 such
# products hold about 1.1 GiB. A term limit of 2**11 would hold less, but
# `test_ring_homomorphism` asks for most of its 28 products of about 32k
# terms twice, and recomputing them doubled its time.
_PRODUCT_CACHE_CAP = 512
_PRODUCT_CACHE_MAX_TERMS = 1 << 15


class _Uncached(Exception):
    """Carries a product too large to cache out of `_trie_product`, since an
    lru_cache keeps no entry for a call that raises."""

    def __init__(self, product: "QSymmElement"):
        super().__init__()
        self.product = product


@lru_cache(maxsize=_PRODUCT_CACHE_CAP)
def _trie_product(a: "QSymmElement", b: "QSymmElement") -> "QSymmElement":
    product = QSymmElement._from_sorted(_mul_trie(a, b))
    if len(product) > _PRODUCT_CACHE_MAX_TERMS:
        raise _Uncached(product)
    return product


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
        comp = composition(comp)
        q = _norm_scalar(coeff)
        return cls._from_sorted({comp: q} if q else {})

    # -- inspection --------------------------------------------------------

    def compositions(self) -> Iterator[Composition]:
        return iter(self._terms)

    def coefficient(self, comp: Iterable[int]) -> Scalar:
        return self._terms.get(composition(comp), 0)

    def is_homogeneous(self, w: int) -> bool:
        """True iff every present composition has weight `w` (vacuously true
        for the zero element)."""
        return all(sum(c) == w for c in self._terms)

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
        route = _route(self._terms, other._terms)
        if route != _TRIE:
            return QSymmElement._from_sorted(_mul_pairwise(self, other, route == _TABLE))
        try:
            if hash(self) <= hash(other):  # commutative: one entry per pair
                return _trie_product(self, other)
            return _trie_product(other, self)
        except _Uncached as large:
            return large.product

    def __str__(self) -> str:
        return format_element(self)


def quasi_shuffle(a: Iterable[int], b: Iterable[int]) -> QSymmElement:
    """Quasi-shuffle product of two basis compositions.

    >>> print(quasi_shuffle((1,), (1,)))
    2*[1,1] + [2]
    """
    return QSymmElement.monomial(a) * QSymmElement.monomial(b)


# -- text and JSON forms ----------------------------------------------------


def format_element(el: QSymmElement) -> str:
    """Render in wll-descending order, e.g. `2*[1,1] + [2]`; zero is `0`."""
    terms = el._terms
    return _format_terms(zip(terms.values(), map(_format_cached, terms)))


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
