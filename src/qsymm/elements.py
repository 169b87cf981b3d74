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

from functools import lru_cache
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
    format_composition,
    parse_composition,
    _parse_composition_at,
    wll_key,
)
from .errors import ParseError


@lru_cache(maxsize=None)
def _shuffle_terms(a: Composition, b: Composition) -> tuple[tuple[Composition, int], ...]:
    """Quasi-shuffle of two basis compositions as a term tuple (int coeffs)."""
    if b < a:  # commutative; canonicalize to halve the cache
        a, b = b, a
    if not a:
        return ((b, 1),)
    if not b:
        return ((a, 1),)
    acc: dict[Composition, int] = {}
    head_a, tail_a = a[0], a[1:]
    head_b, tail_b = b[0], b[1:]
    for prefix, rest_a, rest_b in (
        ((head_a,), tail_a, b),
        ((head_b,), a, tail_b),
        ((head_a + head_b,), tail_a, tail_b),
    ):
        for comp, m in _shuffle_terms(rest_a, rest_b):
            key = prefix + comp
            acc[key] = acc.get(key, 0) + m
    return tuple(acc.items())


# A trie node is [coefficient-at-node, {next part: child}, flat suffix list].
# Multiplying two elements through their tries shares all common-suffix work,
# which beats the per-term-pair route once both sides carry many long words
# (see `QSymmElement.__mul__` for the measured crossover).


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
    """Sum the memoized quasi-shuffles of every term pair. Terms that cancel
    stay in the dict as zeros; `QSymmElement._from_dict` drops them."""
    acc: dict[Composition, Scalar] = {}
    get = acc.get
    for c1, q1 in a._terms.items():
        for c2, q2 in b._terms.items():
            q12 = q1 * q2
            for comp, m in _shuffle_terms(c1, c2):
                acc[comp] = get(comp, 0) + q12 * m
    return acc


def _mul_trie(a: "QSymmElement", b: "QSymmElement") -> dict[Composition, Scalar]:
    return _mul_tries(_build_trie(a._terms.items()), _build_trie(b._terms.items()))


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
    _order = staticmethod(wll_key)
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
        # Per-pair shuffles, memoized across calls, unless there are more
        # than 64 term pairs and the two longest words have lengths summing
        # past 8. Then the trie route shares common-suffix work, and the
        # whole product is worth caching. Cold products, per-pair / trie, by
        # that sum: <= 8, per-pair ties or wins by up to 8x (737 products of
        # 9-11 terms of weight <= 4: 0.29 s / 2.46 s); 10, mixed
        # (lambda_i([1,1]) * lambda_j([1,1]): the trie up to 1.7x faster;
        # the 7 weight-10 certificate products: per-pair 5x faster); >= 12,
        # the trie is 2-8x faster (lambda_4([1,1])**2: 16.0 s / 1.99 s).
        if (
            len(self._terms) * len(other._terms) <= 64
            or max(map(len, self._terms)) + max(map(len, other._terms)) <= 8
        ):
            return QSymmElement._from_dict(_mul_pairwise(self, other))
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
    return _format_terms((q, format_composition(comp)) for comp, q in el.terms())


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
