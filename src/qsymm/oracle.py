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

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import add
from typing import Callable, Iterable, Mapping

from ._sparse import Scalar, SparseTerms, _format_terms, _iadd_scaled
from .compositions import composition, enumerate_compositions, format_composition
from .elements import QSymmElement, quasi_shuffle
from .lambda_ops import frobenius, lambda_n

ExponentVector = tuple[int, ...]


def _variable_count(k: int) -> int:
    if k < 0:
        raise ValueError("variable count must be >= 0")
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
        if len(exps) != self.k or any(e < 0 for e in exps):
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


def expand_composition(alpha: Iterable[int], k: int) -> TruncatedPolynomial:
    """Sum over strictly increasing index tuples in k variables; requires
    k >= length(alpha) so no witness monomial is lost."""
    alpha = composition(alpha)
    m = len(alpha)
    if k < m:
        raise ValueError(
            f"insufficient variables: need at least {m} for {format_composition(alpha)}"
        )
    terms: dict[ExponentVector, Scalar] = {}
    for idxs in combinations(range(k), m):
        exps = [0] * k
        for pos, part in zip(idxs, alpha):
            exps[pos] = part
        terms[tuple(exps)] = 1
    return TruncatedPolynomial._from_dict(terms, k)


def expand_element(a: QSymmElement, k: int) -> TruncatedPolynomial:
    """Image of an element in k variables. Compositions longer than k need
    more distinct indices than are available, so they vanish; that makes
    this the honest ring map, at the price of faithfulness below weight k."""
    acc: dict[ExponentVector, Scalar] = {}
    for comp, q in a.terms():
        if len(comp) <= k:
            _iadd_scaled(acc, expand_composition(comp, k)._terms, q)
    return TruncatedPolynomial._from_dict(acc, _variable_count(k))


def poly_mul(p: TruncatedPolynomial, q: TruncatedPolynomial) -> TruncatedPolynomial:
    return p * q


def frobenius_poly(n: int, p: TruncatedPolynomial) -> TruncatedPolynomial:
    """Substitute x_j -> x_j**n, i.e. scale every exponent vector by n."""
    if n < 1:
        raise ValueError("frobenius index must be >= 1")
    return TruncatedPolynomial._from_dict({tuple(n * e for e in exps): q for exps, q in p.terms()}, p.k)


def elementary_of_monomials(n: int, alpha: Iterable[int], k: int) -> TruncatedPolynomial:
    """n-th elementary symmetric polynomial of the monomials in the
    expansion of `alpha`: every monomial is a line element, so this is the
    lambda power computed entirely on the polynomial side."""
    if n < 0:
        raise ValueError("index must be >= 0")
    monomials = expand_composition(alpha, k)._terms
    elem: list[dict[ExponentVector, Scalar]] = [{(0,) * k: 1}] + [{} for _ in range(n)]
    for mono in monomials:
        for j in range(n, 0, -1):
            _iadd_scaled(elem[j], {tuple(map(add, exps, mono)): q for exps, q in elem[j - 1].items()})
    return TruncatedPolynomial._from_dict(elem[n], k)


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


def _check(identity: str, instance: str, element: QSymmElement, k: int, rhs: TruncatedPolynomial) -> OracleCheck:
    """Compare `element`, expanded in k variables, with `rhs`. Both sides of
    a passing check have one text. The check keeps the element, which is
    far smaller than the polynomials, and renders that text from it when
    first read."""
    lhs = expand_element(element, k)
    if lhs != rhs:
        return OracleCheck(identity, instance, "fail", str(lhs), str(rhs))

    def text() -> str:
        return str(expand_element(element, k))

    return OracleCheck(identity, instance, "pass", text, text)


def oracle_suite(max_weight: int, k: int) -> OracleReport:
    """Differential test run: quasi-shuffle products, Adams operators and
    lambda powers recomputed on the polynomial side for all compositions up
    to `max_weight`. Requires k >= max_weight for faithfulness. Lambda
    checks are capped at weight-3 bases since their cost grows with n times
    the weight; the dedicated test suite pins that window anyway."""
    if max_weight < 1:
        raise ValueError("max_weight must be >= 1")
    if k < max_weight:
        raise ValueError(f"need at least as many variables as the weight ({k} < {max_weight})")
    checks: list[OracleCheck] = []

    by_weight = {w: enumerate_compositions(w) for w in range(0, max_weight + 1)}

    for u in range(0, max_weight + 1):
        for v in range(0, max_weight + 1 - u):
            for a in by_weight[u]:
                for b in by_weight[v]:
                    rhs = expand_composition(a, k) * expand_composition(b, k)
                    checks.append(
                        _check(
                            "product",
                            f"{format_composition(a)}*{format_composition(b)}",
                            quasi_shuffle(a, b),
                            k,
                            rhs,
                        )
                    )

    for n in (1, 2, 3):
        for w in range(1, max_weight + 1):
            for alpha in by_weight[w]:
                lhs = frobenius(n, QSymmElement.monomial(alpha))
                rhs = frobenius_poly(n, expand_composition(alpha, k))
                checks.append(
                    _check("frobenius", f"f{n}({format_composition(alpha)})", lhs, k, rhs)
                )

    for n in (0, 1, 2, 3):
        for w in range(1, min(max_weight, 3) + 1):
            for alpha in by_weight[w]:
                lhs = lambda_n(n, QSymmElement.monomial(alpha))
                rhs = elementary_of_monomials(n, alpha, k)
                checks.append(
                    _check("lambda", f"lambda{n}({format_composition(alpha)})", lhs, k, rhs)
                )

    return OracleReport(max_weight=max_weight, vars=k, checks=tuple(checks))
