"""Symmetric functions in the elementary and power-sum bases.

A polynomial is a finite rational combination of partitions (weakly
decreasing tuples of positive ints); a partition stands for the product of
the basis functions indexed by its parts. Conversions between the two bases
run through the Newton identities

    n * e_n = sum_{i=1..n} (-1)**(i-1) * e_{n-i} * p_i

(`lambda_ops._newton_sum`, shared with the lambda series), so the p-basis
side is intrinsically rational while p_n written in the e basis always has
integer coefficients. Plethysm is implemented only for
substitution of a power sum on the right (p_k -> p_{k*m}), which is all the
generator machinery needs, and evaluation substitutes lambda operations for
the elementary functions, turning any e-polynomial into an operation on
quasi-shuffle elements.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Callable, Iterable, Mapping

from ._sparse import Scalar, SparseTerms, _format_terms, _iadd_scaled
from .compositions import _check_index, composition
from .elements import QSymmElement
from .errors import IntegralityError
from .lambda_ops import _divide, _newton_inverse, _newton_sum, frobenius, lambda_n, lambda_series

Partition = tuple[int, ...]

E_BASIS = "e"
P_BASIS = "p"


def _partition(parts: Iterable[int]) -> Partition:
    p = tuple(sorted(parts, reverse=True))
    if any(type(x) is not int or x < 1 for x in p):
        raise ValueError(f"partition parts must be positive ints, got {p!r}")
    return p


class SymmPoly(SparseTerms):
    """Sparse symmetric function tagged with its basis ('e' or 'p')."""

    __slots__ = ("_tag",)
    _order = staticmethod(lambda p: (sum(p), -len(p), p))
    _TAG_MISMATCH = "mixed bases: {!r} and {!r}"

    @staticmethod
    def _combine(p1: Partition, p2: Partition) -> Partition:
        return tuple(sorted(p1 + p2, reverse=True))

    def __init__(
        self,
        basis: str,
        terms: Mapping[Partition, Scalar] | Iterable[tuple[Partition, Scalar]] = (),
    ):
        if basis not in (E_BASIS, P_BASIS):
            raise ValueError(f"unknown basis {basis!r}")
        self._tag = basis
        self._init_terms(terms, _partition)

    @property
    def basis(self) -> str:
        return self._tag

    @classmethod
    def e(cls, n: int) -> "SymmPoly":
        """The n-th elementary symmetric function (e_0 = 1)."""
        _check_index(n, 0, "index must be >= 0")
        return cls(E_BASIS, {(n,) if n else (): 1})

    @classmethod
    def p(cls, n: int) -> "SymmPoly":
        """The n-th power sum (p_0 = 1)."""
        _check_index(n, 0, "index must be >= 0")
        return cls(P_BASIS, {(n,) if n else (): 1})

    def __str__(self) -> str:
        return format_symm(self)


@lru_cache(maxsize=None)
def _e_in_p(n: int) -> SymmPoly:
    """e_n expressed in the p basis (rational coefficients).

    >>> print(_e_in_p(2))
    1/2*p1^2 - 1/2*p2
    """
    if n == 0:
        return SymmPoly.one(P_BASIS)
    return SymmPoly._from_dict(_divide(_newton_sum(_e_in_p, SymmPoly.p, n, n), n, exact=False), P_BASIS)


@lru_cache(maxsize=None)
def _p_in_e(n: int) -> SymmPoly:
    """p_n expressed in the e basis (integer coefficients).

    >>> print(_p_in_e(3))
    e1^3 - 3*e1*e2 + 3*e3
    """
    if n == 0:
        return SymmPoly.one(E_BASIS)
    return SymmPoly._from_dict(_newton_inverse({(n,): 1}, SymmPoly.e, _p_in_e, n), E_BASIS)


def _substitute(
    f: SymmPoly, unit: Callable[[], SparseTerms], image: Callable[[int], SparseTerms]
) -> dict:
    """The terms of the sum, over the partitions of `f`, of each coefficient
    times the product of `image(n)` over the parts n; every product starts
    from a fresh `unit()`."""
    acc: dict = {}
    for part, q in f.terms():
        prod = unit()
        for n in part:
            prod = prod * image(n)
        _iadd_scaled(acc, prod._terms, q)
    return acc


def e_to_p(f: SymmPoly) -> SymmPoly:
    """Rewrite an e-basis polynomial in the p basis."""
    if f.basis != E_BASIS:
        raise ValueError("e_to_p needs an e-basis polynomial")
    return SymmPoly._from_dict(_substitute(f, partial(SymmPoly.one, P_BASIS), _e_in_p), P_BASIS)


def p_to_e(f: SymmPoly) -> SymmPoly:
    """Rewrite a p-basis polynomial in the e basis."""
    if f.basis != P_BASIS:
        raise ValueError("p_to_e needs a p-basis polynomial")
    return SymmPoly._from_dict(_substitute(f, partial(SymmPoly.one, E_BASIS), _p_in_e), E_BASIS)


def plethysm_p(f: SymmPoly, m: int) -> SymmPoly:
    """Substitute p_k -> p_{k*m} in every term (plethysm by a power sum)."""
    if f.basis != P_BASIS:
        raise ValueError("plethysm_p needs a p-basis polynomial")
    _check_index(m, 1, "power-sum index must be an int >= 1")
    return SymmPoly(P_BASIS, {tuple(k * m for k in part): q for part, q in f.terms()})


def e_compose_p(n: int, m: int) -> SymmPoly:
    """The e-basis polynomial for the n-th elementary function composed with
    the m-th power sum; always has integer coefficients."""
    _check_index(n, 1, "indices must be >= 1")
    _check_index(m, 1, "indices must be >= 1")
    return _e_compose_p(n, m)


# Behind the index checks, so that `True` or `1.0` never reaches the memo
# as a key equal to 1.
@lru_cache(maxsize=256)
def _e_compose_p(n: int, m: int) -> SymmPoly:
    result = p_to_e(plethysm_p(e_to_p(SymmPoly.e(n)), m))
    if not result.is_integral():
        raise IntegralityError(
            f"elementary composed with power sum ({n}, {m}) produced "
            f"non-integer coefficients: {result}"
        )
    return result


def evaluate_at(f: SymmPoly, a: QSymmElement) -> QSymmElement:
    """Substitute the lambda operations of `a` for the elementary functions
    in an e-basis polynomial; a ring homomorphism in `f` for fixed `a`."""
    if f.basis != E_BASIS:
        raise ValueError("evaluate_at needs an e-basis polynomial")
    max_index = max((part[0] for part, _ in f.terms() if part), default=0)
    lam = lambda_series(a, max_index)
    return QSymmElement._from_dict(_substitute(f, QSymmElement.one, lam.coefficient))


def plethysm_compat_check(n: int, m: int, alpha: Iterable[int]) -> bool:
    """Compare the two routes to lam_n of the m-th Adams image of a
    composition: direct, and through the composed e-basis polynomial."""
    base = QSymmElement.monomial(composition(alpha))
    via_polynomial = evaluate_at(e_compose_p(n, m), base)
    direct = lambda_n(n, frobenius(m, base))
    return via_polynomial == direct


def format_symm(f: SymmPoly) -> str:
    """Render like `e2^2 - 2*e1*e3 + 2*e4`; the empty product is `1`."""
    return _format_terms((q, _format_partition(f.basis, part)) for part, q in f.terms())


def _format_partition(basis: str, part: Partition) -> str:
    return "*".join(
        f"{basis}{n}" + (f"^{part.count(n)}" if part.count(n) > 1 else "")
        for n in sorted(set(part))
    )
