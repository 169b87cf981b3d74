"""Basis conversions, plethysm with power sums, and lambda-ring evaluation."""

from fractions import Fraction

import pytest

from qsymm import symmetric
from qsymm.compositions import enumerate_elementary_lyndon, weight
from qsymm.elements import QSymmElement
from qsymm.lambda_ops import elementary_gen, power_gen
from qsymm.oracle import (
    TruncatedPolynomial,
    elementary_of_monomials,
    expand_composition,
    frobenius_poly,
)
from qsymm.symmetric import (
    E_BASIS,
    P_BASIS,
    SymmPoly,
    e_compose_p,
    e_to_p,
    evaluate_at,
    format_symm,
    p_to_e,
    plethysm_compat_check,
    plethysm_p,
)


def partitions_of(n, cap=None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions_of(n - first, first):
            yield (first,) + rest


def symm_to_poly(f, k):
    """Evaluate a symmetric polynomial honestly in k variables, using the
    polynomial oracle's elementary and power-sum expansions."""
    ones = expand_composition((1,), k)
    acc = TruncatedPolynomial.zero(k)
    for part, q in f.terms():
        prod = TruncatedPolynomial.one(k)
        for n in part:
            if f.basis == E_BASIS:
                prod = prod * elementary_of_monomials(n, (1,), k)
            else:
                prod = prod * frobenius_poly(n, ones)
        acc = acc + prod * q
    return acc


class TestBasisChange:
    def test_e1_is_p1(self):
        assert e_to_p(SymmPoly.e(1)) == SymmPoly.p(1)

    def test_e2_in_p(self):
        expected = SymmPoly(P_BASIS, {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
        assert e_to_p(SymmPoly.e(2)) == expected

    def test_p3_in_e(self):
        expected = SymmPoly(E_BASIS, {(1, 1, 1): 1, (2, 1): -3, (3,): 3})
        assert p_to_e(SymmPoly.p(3)) == expected

    def test_p3_by_evaluation(self):
        # evaluate both sides as honest polynomials in 4 variables
        lhs = symm_to_poly(SymmPoly.p(3), 4)
        rhs = symm_to_poly(p_to_e(SymmPoly.p(3)), 4)
        assert lhs == rhs

    def test_conversions_by_evaluation(self):
        for n in range(1, 6):
            k = n + 1
            assert symm_to_poly(SymmPoly.e(n), k) == symm_to_poly(e_to_p(SymmPoly.e(n)), k)
            assert symm_to_poly(SymmPoly.p(n), k) == symm_to_poly(p_to_e(SymmPoly.p(n)), k)

    def test_round_trip_on_e_monomials(self):
        for deg in range(0, 9):
            for part in partitions_of(deg):
                f = SymmPoly(E_BASIS, {part: 1})
                assert p_to_e(e_to_p(f)) == f

    def test_round_trip_on_p_monomials(self):
        for deg in range(0, 7):
            for part in partitions_of(deg):
                f = SymmPoly(P_BASIS, {part: 1})
                assert e_to_p(p_to_e(f)) == f

    def test_p_in_e_is_integral(self):
        for n in range(1, 9):
            assert p_to_e(SymmPoly.p(n)).is_integral()

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            e_to_p(SymmPoly.p(2))
        with pytest.raises(ValueError):
            p_to_e(SymmPoly.e(2))
        with pytest.raises(ValueError):
            SymmPoly.e(1) + SymmPoly.p(1)


class TestPlethysm:
    def test_power_sum_on_power_sum(self):
        assert plethysm_p(SymmPoly.p(2), 3) == SymmPoly.p(6)
        assert plethysm_p(SymmPoly.p(1), 5) == SymmPoly.p(5)

    def test_e2_image(self):
        f = e_to_p(SymmPoly.e(2))
        expected = SymmPoly(P_BASIS, {(2, 2): Fraction(1, 2), (4,): Fraction(-1, 2)})
        assert plethysm_p(f, 2) == expected

    def test_matches_variable_substitution(self):
        # composing with the m-th power sum is x_j -> x_j**m on honest polynomials
        for n in range(1, 4):
            for m in (2, 3):
                f = e_to_p(SymmPoly.e(n))
                k = n * m + 1
                lhs = symm_to_poly(plethysm_p(f, m), k)
                rhs = frobenius_poly(m, symm_to_poly(f, k))
                assert lhs == rhs

    def test_requires_p_basis(self):
        with pytest.raises(ValueError):
            plethysm_p(SymmPoly.e(2), 2)


class TestEComposeP:
    def test_identity_power_sum(self):
        for n in range(1, 5):
            assert e_compose_p(n, 1) == SymmPoly.e(n)

    def test_two_two(self):
        expected = SymmPoly(E_BASIS, {(2, 2): 1, (3, 1): -2, (4,): 2})
        assert e_compose_p(2, 2) == expected

    def test_two_two_by_evaluation(self):
        lhs = symm_to_poly(e_compose_p(2, 2), 5)
        rhs = frobenius_poly(2, symm_to_poly(SymmPoly.e(2), 5))
        assert lhs == rhs

    def test_first_elementary_gives_power_sum(self):
        assert e_compose_p(1, 2) == SymmPoly(E_BASIS, {(1, 1): 1, (2,): -2})
        for m in range(1, 6):
            assert e_compose_p(1, m) == p_to_e(SymmPoly.p(m))

    def test_integrality_window(self):
        for n in range(1, 11):
            for m in range(1, 11):
                if n * m <= 10:
                    assert e_compose_p(n, m).is_integral()

    def test_memo_keys_only_checked_indices(self):
        # True == 1.0 == 1 as memo keys; the checks come first, so a cached
        # (1, 1) does not answer for them
        assert e_compose_p(1, 1) is e_compose_p(1, 1)
        assert symmetric._e_compose_p.cache_info().currsize >= 1
        for bad in (True, 1.0):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                e_compose_p(bad, 1)
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                e_compose_p(1, bad)


class TestEvaluateAt:
    def test_elementary_goes_to_lambda(self):
        for alpha in [(1,), (2,), (1, 2)]:
            base = QSymmElement.monomial(alpha)
            for n in (1, 2, 3):
                assert evaluate_at(SymmPoly.e(n), base) == elementary_gen(n, alpha)

    def test_power_sum_goes_to_adams(self):
        for alpha in [(1,), (2,), (1, 2)]:
            base = QSymmElement.monomial(alpha)
            for m in (1, 2, 3):
                assert evaluate_at(p_to_e(SymmPoly.p(m)), base) == power_gen(m, alpha)

    def test_square_of_first(self):
        base = QSymmElement.monomial((1,))
        assert evaluate_at(SymmPoly.e(1) * SymmPoly.e(1), base) == base * base

    def test_ring_homomorphism(self):
        base = QSymmElement.monomial((1, 1))
        monos = [
            SymmPoly(E_BASIS, {part: 1})
            for deg in range(0, 5)
            for part in partitions_of(deg)
        ]
        for f in monos:
            for g in monos:
                lhs = evaluate_at(f * g, base)
                rhs = evaluate_at(f, base) * evaluate_at(g, base)
                assert lhs == rhs

    def test_constant(self):
        assert evaluate_at(SymmPoly.one(E_BASIS), QSymmElement.monomial((2,))) == QSymmElement.one()


class TestPlethysmCompat:
    def test_trivial_power_sum(self):
        for alpha in [(1,), (1, 2)]:
            for n in (1, 2, 3):
                assert plethysm_compat_check(n, 1, alpha)

    def test_examples(self):
        assert plethysm_compat_check(2, 2, (1,))
        assert plethysm_compat_check(2, 2, (1, 2))

    def test_full_window(self):
        for alpha in enumerate_elementary_lyndon(8):
            wt = weight(alpha)
            for n in range(1, 8 // wt + 1):
                for m in range(1, 8 // (n * wt) + 1):
                    assert plethysm_compat_check(n, m, alpha)


class TestFormatting:
    def test_examples(self):
        assert format_symm(e_compose_p(2, 2)) == "e2^2 - 2*e1*e3 + 2*e4"
        assert format_symm(e_compose_p(1, 2)) == "e1^2 - 2*e2"
        assert format_symm(SymmPoly.one(E_BASIS)) == "1"
        assert format_symm(SymmPoly.zero(P_BASIS)) == "0"
        assert format_symm(e_to_p(SymmPoly.e(2))) == "1/2*p1^2 - 1/2*p2"
