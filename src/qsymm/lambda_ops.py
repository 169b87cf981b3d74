"""Lambda operations on the quasi-shuffle algebra.

The Adams (Frobenius) operator multiplies every part of a composition by n;
it is a ring endomorphism. The lambda operations are recovered from the
Adams operators through the Newton recursion

    n * lam_n(a) = sum_{i=1..n} (-1)**(i-1) * lam_{n-i}(a) * f_i(a),

the series convention being lam_t(a) = 1 + sum lam_n(a) t^n with
t (d/dt) log lam_t(a) = sum (-1)**(n-1) f_n(a) t^n. With this convention
lam_n of a sum of monomials is the n-th elementary symmetric polynomial of
those monomials, which the polynomial oracle verifies directly.

Every division by n in the recursion is exact on integral elements; an
inexact one raises IntegralityError because it can only mean a bug.

Computed lambda series are memoized per element in `_series_box`, an
lru_cache of the 4096 most recently used elements, like the package's other
bounded memos. Each entry keeps the longest coefficient tuple computed so
far, so a series grows in place as higher orders are asked for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable

from ._sparse import Scalar, SparseTerms, _iadd_scaled
from .compositions import Composition, _check_index, composition
from .elements import QSymmElement
from .errors import IntegralityError


@lru_cache(maxsize=4096)
def _series_box(a: QSymmElement) -> list[tuple[QSymmElement, ...]]:
    """A one-slot box holding the longest lambda-series coefficients of `a`
    computed so far. One entry per element, whatever the order, so an
    evicted element loses its whole series and never just its low orders."""
    return [(QSymmElement.one(),)]


def _memo_cap() -> int:
    """How many elements the lambda-series table keeps."""
    return _series_box.cache_info().maxsize


clear_memo = _series_box.cache_clear


def frobenius(n: int, a: QSymmElement) -> QSymmElement:
    """Adams operator: multiply every part of every composition by n."""
    _check_index(n, 1, "frobenius index must be an integer >= 1")
    # scaling every part by n keeps the terms distinct and in wll order
    return QSymmElement._from_sorted({tuple(n * p for p in comp): q for comp, q in a.terms()})


@dataclass(frozen=True)
class LambdaSeries:
    """Truncated series 1 + lam_1(a) t + ... + lam_N(a) t^N."""

    base: QSymmElement
    coefficients: tuple[QSymmElement, ...]

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1

    def coefficient(self, n: int) -> QSymmElement:
        _check_index(n, 0, "series index must be >= 0")
        if n > self.order:
            raise ValueError(f"series truncated at order {self.order}, asked for {n}")
        return self.coefficients[n]


# the i-th element of a sequence of polynomials, such as e_i or p_i
_Indexed = Callable[[int], SparseTerms]


def _newton_sum(e: _Indexed, p: _Indexed, n: int, stop: int) -> dict:
    """The terms of sum_{i=1..stop} (-1)**(i-1) * e(n-i) * p(i), Newton's
    identity for n * e(n) when stop = n. Products are taken for i = 1, 2, ...
    in turn, with e first."""
    acc: dict = {}
    for i in range(1, stop + 1):
        _iadd_scaled(acc, (e(n - i) * p(i))._terms, 1 if i % 2 else -1)
    return acc


def _newton_inverse(e_n: dict, e: _Indexed, p: _Indexed, n: int) -> dict:
    """The terms of p(n) solved from Newton's identity, given the terms
    `e_n` of e(n): (-1)**(n-1) * (n * e(n) - _newton_sum(e, p, n, n - 1))."""
    sign = 1 if n % 2 else -1
    return _iadd_scaled(_iadd_scaled({}, e_n, sign * n), _newton_sum(e, p, n, n - 1), -sign)


def _divide(acc: dict, n: int, exact: bool) -> dict:
    """The terms of `acc` divided by n: exactly, raising IntegralityError on
    a remainder, or else as Fractions."""
    if not exact:
        return {key: Fraction(q, n) for key, q in acc.items()}
    for key, q in acc.items():
        if not isinstance(q, int) or q % n != 0:
            raise IntegralityError(
                f"division by {n} is inexact on coefficient {q} of "
                f"{key}; lambda operations must stay integral"
            )
    return {key: q // n for key, q in acc.items()}


def lambda_series(a: QSymmElement, order: int) -> LambdaSeries:
    """Lambda series of `a` up to the given truncation order (memoized)."""
    _check_index(order, 0, "order must be >= 0")
    box = _series_box(a)
    # Extend a copy and swap it in whole: a box only ever takes a longer
    # version of its series, so concurrent callers can lose work but never
    # store a wrong series.
    coeffs = list(box[0])
    integral = a.is_integral()
    while len(coeffs) <= order:
        n = len(coeffs)
        acc = _newton_sum(coeffs.__getitem__, lambda i: frobenius(i, a), n, n)
        coeffs.append(QSymmElement._from_dict(_divide(acc, n, integral)))
    if len(coeffs) > len(box[0]):
        box[0] = tuple(coeffs)
    return LambdaSeries(a, tuple(coeffs[: order + 1]))


def lambda_n(n: int, a: QSymmElement) -> QSymmElement:
    """The n-th lambda operation; lam_0 = 1, lam_1 = identity."""
    _check_index(n, 0, "lambda index must be >= 0")
    return lambda_series(a, n).coefficient(n)


def adams_from_lambda(n: int, series: LambdaSeries) -> QSymmElement:
    """Recover the n-th Adams operator value from a lambda series.

    Inverts the Newton recursion; round-trips with `frobenius` on the
    series base element.
    """
    _check_index(n, 1, "adams index must be >= 1")
    if series.order < n:
        raise ValueError(f"series truncated at order {series.order}, need {n}")
    lam = series.coefficients
    adams: list[QSymmElement] = []  # adams[i - 1] is f_i
    for m in range(1, n + 1):
        acc = _newton_inverse(lam[m]._terms, lam.__getitem__, lambda i: adams[i - 1], m)
        adams.append(QSymmElement._from_dict(acc))
    return adams[n - 1]


def elementary_gen(n: int, alpha: Iterable[int]) -> QSymmElement:
    """The weight n*wt(alpha) generator lam_n(alpha) of a composition."""
    _check_index(n, 1, "generator index must be >= 1")
    comp = composition(alpha)
    if not comp:
        raise ValueError("generator base composition must be nonempty")
    return lambda_n(n, QSymmElement.monomial(comp))


def power_gen(n: int, alpha: Iterable[int]) -> QSymmElement:
    """The power-sum counterpart: the single composition with every part
    multiplied by n."""
    _check_index(n, 1, "generator index must be >= 1")
    comp = composition(alpha)
    if not comp:
        raise ValueError("generator base composition must be nonempty")
    return QSymmElement.monomial(tuple(n * p for p in comp))


# -- truncated power series over QSymm ---------------------------------------


def _series_mul(a: list[QSymmElement], b: list[QSymmElement], order: int) -> list[QSymmElement]:
    out: list[dict[Composition, Scalar]] = [{} for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order or not ai:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if bj:
                _iadd_scaled(out[i + j], (ai * bj)._terms)
    return [QSymmElement._from_dict(t) for t in out]


def _series_exp(s: list[QSymmElement], order: int, denominator: int = 1) -> list[QSymmElement]:
    """exp(s / denominator) for a series s with zero constant term,
    truncated at `order`: the sum of s**k / (denominator**k * k!). Each
    power is built from s itself. With N = denominator**order * order!, the
    terms of N times the sum are accumulated, each power scaled by the
    integer N / (denominator**k * k!), and every coefficient is divided by
    N once at the end; an integral s keeps all of it in ints."""
    if s[0]:
        raise ValueError("exp needs a series with zero constant term")
    total = denominator**order * math.factorial(order)
    acc: list[dict] = [{(): total}] + [{} for _ in range(order)]
    power = [QSymmElement.one()] + [QSymmElement() for _ in range(order)]
    scale = total
    for k in range(1, order + 1):
        power = _series_mul(power, s, order)
        scale //= denominator * k
        for i in range(k, order + 1):
            _iadd_scaled(acc[i], power[i]._terms, scale)
    for t in acc:
        for key, q in t.items():
            t[key] = q // total if type(q) is int and q % total == 0 else Fraction(q, total)
    return [QSymmElement._from_dict(t) for t in acc]


def exp_identity_check(alpha: Iterable[int], order: int) -> bool:
    """Check that exp(sum (-1)**(n-1)/n * f_n(alpha) t^n) truncated at
    `order` has integral coefficients and equals the lambda series of alpha
    termwise. Returns False on any mismatch.

    The log series is taken as L / D with D = lcm(1..order), so that L has
    integer coefficients (-1)**(n-1) * (D/n) * f_n(alpha)."""
    _check_index(order, 1, "order must be >= 1")
    base = QSymmElement.monomial(composition(alpha))
    d = math.lcm(*range(1, order + 1))
    log_terms = [QSymmElement()]
    for n in range(1, order + 1):
        log_terms.append(frobenius(n, base) * (d // n if n % 2 == 1 else -(d // n)))
    exp_side = _series_exp(log_terms, order, d)
    lam = lambda_series(base, order)
    for n in range(order + 1):
        if not exp_side[n].is_integral():
            return False
        if exp_side[n] != lam.coefficient(n):
            return False
    return True
