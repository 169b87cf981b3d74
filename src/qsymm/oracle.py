"""Brute-force substitution oracle in finitely many variables.

Everything the other modules compute symbolically can be expanded into an
honest polynomial in x_1..x_k and recomputed from scratch there: a
composition becomes a sum over strictly increasing index tuples, the Adams
operator becomes x_j -> x_j**n, and a lambda power becomes the elementary
symmetric polynomial of the expansion's monomials. k at least the weight of
the element keeps the expansion faithful, so agreement in k variables is
agreement in the ring.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, product, starmap
from operator import add, lshift
from typing import Callable, Iterable, Mapping

from ._sparse import Scalar, SparseTerms, _format_terms, _iadd_scaled
from .compositions import Composition, _check_index, composition, enumerate_compositions, format_composition
from .elements import QSymmElement, quasi_shuffle
from .errors import ConsistencyError
from .lambda_ops import frobenius, lambda_n

ExponentVector = tuple[int, ...]


def _variable_count(k: int) -> int:
    _check_index(k, 0, "variable count must be >= 0")
    return k


class TruncatedPolynomial(SparseTerms):
    """Exact polynomial in a fixed number of variables, sparse over exponent
    vectors."""

    __slots__ = ("_tag",)
    _TAG_MISMATCH = "mismatched variable counts {} and {}"

    @staticmethod
    def _combine(e1: ExponentVector, e2: ExponentVector) -> ExponentVector:
        return tuple(map(add, e1, e2))

    def __init__(
        self,
        k: int,
        terms: Mapping[ExponentVector, Scalar] | Iterable[tuple[ExponentVector, Scalar]] = (),
    ):
        self._tag = _variable_count(k)
        self._init_terms(terms, self._exponent_vector)

    def _exponent_vector(self, exps: Iterable[int]) -> ExponentVector:
        exps = tuple(exps)
        if len(exps) != self.k or any(type(e) is not int or e < 0 for e in exps):
            raise ValueError(f"bad exponent vector {exps!r} for {self.k} variables")
        return exps

    @property
    def k(self) -> int:
        return self._tag

    def _unit(self) -> "TruncatedPolynomial":
        return self._from_dict({(0,) * self.k: 1}, self.k)

    # its own entry (not only the inherited one) so that products of
    # truncated polynomials can be wrapped apart from the other classes
    __mul__ = SparseTerms.__mul__

    def __str__(self) -> str:
        return _format_terms(
            (q, "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(exps) if e))
            for exps, q in self._terms.items()
        )

    def __repr__(self) -> str:
        return f"TruncatedPolynomial({self.k}, {str(self)!r})"


# -- packed kernel -------------------------------------------------------------
#
# The suite works on exponent vectors packed into ints (Kronecker
# substitution): with width b, x_1^e_1..x_k^e_k is the int whose b-bit field
# at bit b*(k - i) holds e_i, x_1 in the top field. Two monomials multiply
# by adding their ints and the Adams operator x_j -> x_j**n multiplies the
# int by n, exactly while every exponent formed stays below 2**b.
# `TruncatedPolynomial`, with tuple keys, is built only to render text and
# at the public functions.
# None of this shares code with `quasi_shuffle`, `frobenius` or `lambda_n`.

PackedTerms = dict[int, Scalar]


def _width(top: int) -> int:
    """Field width that holds every exponent up to `top`."""
    return max(1, top.bit_length())


def _shifts(k: int, b: int) -> range:
    """Bit offset of each variable's field, x_1 first."""
    return range(b * (k - 1), -1, -b)


def _unpack(terms: PackedTerms, k: int, b: int) -> TruncatedPolynomial:
    shifts = _shifts(k, b)
    mask = (1 << b) - 1
    return TruncatedPolynomial._from_dict(
        {tuple([x >> s & mask for s in shifts]): q for x, q in terms.items()}, k
    )


@lru_cache(maxsize=4096)
def _packed_expansion(alpha: Composition, k: int, b: int) -> PackedTerms:
    """`expand_composition` packed at width b, for parts below 2**b. Shared
    by every caller: read it, never change it."""
    return {sum(map(lshift, alpha, idxs)): 1 for idxs in combinations(_shifts(k, b), len(alpha))}


def _max_part(a: QSymmElement, k: int) -> int:
    """Largest part among the compositions of `a` that survive in k
    variables, so the largest exponent of its expansion (0 if none)."""
    return max((max(comp) for comp, _ in a.terms() if 0 < len(comp) <= k), default=0)


def _packed_element(a: QSymmElement, k: int, b: int) -> PackedTerms:
    """`expand_element` packed at width b, for parts below 2**b. A
    monomial's nonzero exponents, in variable order, are the composition it
    came from, so distinct compositions expand to disjoint sets of
    monomials and each term's expansion is written in with its coefficient;
    an overlap raises ConsistencyError."""
    acc: PackedTerms = {}
    size = 0
    for comp, q in a.terms():
        if len(comp) <= k:
            expansion = _packed_expansion(comp, k, b)
            acc.update(dict.fromkeys(expansion, q))
            size += len(expansion)
    if len(acc) != size:
        raise ConsistencyError(
            f"expansions of distinct compositions overlap in {k} variables at width {b}"
        )
    return acc


def _packed_mul(p: PackedTerms, q: PackedTerms) -> PackedTerms:
    """Product of two `_packed_expansion` results. Every coefficient of
    both is 1, so each coefficient of the product is the number of ways its
    monomial is a sum of one from each, which the Counter tallies."""
    return Counter(starmap(add, product(p, q)))


def _packed_elementary(n: int, alpha: Composition, k: int, b: int) -> PackedTerms:
    """e_n of the monomials of `alpha`'s expansion; n * max(alpha) must
    stay below 2**b."""
    elem: list[PackedTerms] = [{0: 1}] + [{} for _ in range(n)]
    for mono in _packed_expansion(alpha, k, b):
        for j in range(n, 0, -1):
            _iadd_scaled(elem[j], {x + mono: q for x, q in elem[j - 1].items()})
    return elem[n]


# -- public polynomial side ----------------------------------------------------


def _expandable(alpha: Iterable[int], k: int) -> Composition:
    alpha = composition(alpha)
    if _variable_count(k) < len(alpha):
        raise ValueError(
            f"insufficient variables: need at least {len(alpha)} for {format_composition(alpha)}"
        )
    return alpha


def expand_composition(alpha: Iterable[int], k: int) -> TruncatedPolynomial:
    """Sum over strictly increasing index tuples in k variables; requires
    k >= length(alpha) so no witness monomial is lost."""
    alpha = _expandable(alpha, k)
    b = _width(max(alpha, default=0))
    return _unpack(_packed_expansion(alpha, k, b), k, b)


def expand_element(a: QSymmElement, k: int) -> TruncatedPolynomial:
    """Image of an element in k variables. Compositions longer than k need
    more distinct indices than are available, so they vanish; that makes
    this the honest ring map, at the price of faithfulness below weight k."""
    b = _width(_max_part(a, _variable_count(k)))
    return _unpack(_packed_element(a, k, b), k, b)


def poly_mul(p: TruncatedPolynomial, q: TruncatedPolynomial) -> TruncatedPolynomial:
    return p * q


def frobenius_poly(n: int, p: TruncatedPolynomial) -> TruncatedPolynomial:
    """Substitute x_j -> x_j**n, i.e. scale every exponent vector by n."""
    _check_index(n, 1, "frobenius index must be >= 1")
    return TruncatedPolynomial._from_dict({tuple(n * e for e in exps): q for exps, q in p.terms()}, p.k)


def elementary_of_monomials(n: int, alpha: Iterable[int], k: int) -> TruncatedPolynomial:
    """n-th elementary symmetric polynomial of the monomials in the
    expansion of `alpha`: every monomial is a line element, so this is the
    lambda power computed entirely on the polynomial side."""
    _check_index(n, 0, "index must be >= 0")
    alpha = _expandable(alpha, k)
    b = _width(n * max(alpha, default=0))
    return _unpack(_packed_elementary(n, alpha, k, b), k, b)


# -- differential test driver -------------------------------------------------


def _side_text(side: str | Callable[[], str]) -> str:
    return side if isinstance(side, str) else side()


@dataclass(frozen=True)
class OracleCheck:
    """One identity on one instance. Each side is given as text or as a
    function that returns it, called when `lhs` or `rhs` is first read:
    most checks pass and their sides are never shown. Two sides given as
    the same object share one text."""

    identity: str
    instance: str
    status: str  # "pass" | "fail"
    _lhs: str | Callable[[], str]
    _rhs: str | Callable[[], str]

    @cached_property
    def lhs(self) -> str:
        return _side_text(self._lhs)

    @cached_property
    def rhs(self) -> str:
        return self.lhs if self._rhs is self._lhs else _side_text(self._rhs)

    def to_json_obj(self) -> dict:
        return {
            "identity": self.identity,
            "instance": self.instance,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


@dataclass(frozen=True)
class OracleReport:
    max_weight: int
    vars: int
    checks: tuple[OracleCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.status == "pass" for c in self.checks)

    @property
    def failures(self) -> tuple[OracleCheck, ...]:
        return tuple(c for c in self.checks if c.status != "pass")

    def to_json_obj(self) -> list[dict]:
        return [c.to_json_obj() for c in self.checks]

    def summary(self) -> str:
        n_fail = len(self.failures)
        return (
            f"oracle suite: {len(self.checks)} checks, "
            f"{len(self.checks) - n_fail} passed, {n_fail} failed "
            f"(max weight {self.max_weight}, {self.vars} variables)"
        )


def _packed_check(
    identity: str, instance: str, element: QSymmElement, k: int, b: int, rhs: PackedTerms
) -> OracleCheck:
    """Compare `element`, expanded in k variables at width b, with `rhs`.
    A part of 2**b or more cannot pack, and the check fails: no monomial of
    `rhs` has such an exponent, and distinct compositions of length <= k
    expand independently. Both sides of a passing check have one text. The
    check keeps the element, which is far smaller than the polynomials, and
    renders that text from it when first read."""
    lhs = _packed_element(element, k, b) if _max_part(element, k) >> b == 0 else None
    if lhs != rhs:
        return OracleCheck(
            identity, instance, "fail", str(expand_element(element, k)), str(_unpack(rhs, k, b))
        )

    def text() -> str:
        return str(expand_element(element, k))

    return OracleCheck(identity, instance, "pass", text, text)


def oracle_suite(max_weight: int, k: int) -> OracleReport:
    """Differential test run: quasi-shuffle products, Adams operators and
    lambda powers recomputed on the polynomial side for all compositions up
    to `max_weight`. Requires k >= max_weight for faithfulness. Lambda
    checks are capped at weight-3 bases since their cost grows with n times
    the weight; the dedicated test suite pins that window anyway.

    Exponents reach max_weight in products and at most 3 * max_weight in
    the Adams and lambda checks, so one packing width holds them all."""
    _check_index(max_weight, 1, "max_weight must be >= 1")
    if _variable_count(k) < max_weight:
        raise ValueError(f"need at least as many variables as the weight ({k} < {max_weight})")
    bits = _width(3 * max_weight)
    checks: list[OracleCheck] = []

    by_weight = {w: enumerate_compositions(w) for w in range(0, max_weight + 1)}

    for u in range(0, max_weight + 1):
        for v in range(0, max_weight + 1 - u):
            for a in by_weight[u]:
                pa = _packed_expansion(a, k, bits)
                for b in by_weight[v]:
                    rhs = _packed_mul(pa, _packed_expansion(b, k, bits))
                    checks.append(
                        _packed_check(
                            "product",
                            f"{format_composition(a)}*{format_composition(b)}",
                            quasi_shuffle(a, b),
                            k,
                            bits,
                            rhs,
                        )
                    )

    for n in (1, 2, 3):
        for w in range(1, max_weight + 1):
            for alpha in by_weight[w]:
                lhs = frobenius(n, QSymmElement.monomial(alpha))
                rhs = {n * x: q for x, q in _packed_expansion(alpha, k, bits).items()}
                checks.append(
                    _packed_check("frobenius", f"f{n}({format_composition(alpha)})", lhs, k, bits, rhs)
                )

    for n in (0, 1, 2, 3):
        for w in range(1, min(max_weight, 3) + 1):
            for alpha in by_weight[w]:
                lhs = lambda_n(n, QSymmElement.monomial(alpha))
                rhs = _packed_elementary(n, alpha, k, bits)
                checks.append(
                    _packed_check("lambda", f"lambda{n}({format_composition(alpha)})", lhs, k, bits, rhs)
                )

    # The expansions served this run. Kept, they would sit under the peak
    # of whatever the caller runs next (verify-all: the exp identity);
    # the few texts read later expand again.
    _packed_expansion.cache_clear()
    return OracleReport(max_weight=max_weight, vars=k, checks=tuple(checks))
