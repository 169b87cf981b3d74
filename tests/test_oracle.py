"""The polynomial substitution oracle and its differential suites."""

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest

from qsymm.compositions import enumerate_compositions
from qsymm.elements import QSymmElement, quasi_shuffle
from qsymm.lambda_ops import frobenius, lambda_n
from qsymm.oracle import (
    TruncatedPolynomial,
    _check,
    elementary_of_monomials,
    expand_composition,
    expand_element,
    frobenius_poly,
    oracle_suite,
    poly_mul,
)

from helpers import rational_rank


def mono(c, q=1):
    return QSymmElement.monomial(c, q)


def nonempty_up_to(max_weight):
    out = []
    for w in range(1, max_weight + 1):
        out.extend(enumerate_compositions(w))
    return out


class TestExpandComposition:
    def test_single_part(self):
        p = expand_composition((1,), 3)
        assert p == TruncatedPolynomial(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})

    def test_one_two(self):
        p = expand_composition((1, 2), 3)
        assert p == TruncatedPolynomial(
            3, {(1, 2, 0): 1, (1, 0, 2): 1, (0, 1, 2): 1}
        )

    def test_empty_is_one(self):
        assert expand_composition((), 4) == TruncatedPolynomial.one(4)

    def test_insufficient_variables(self):
        with pytest.raises(ValueError):
            expand_composition((1, 1), 1)

    def test_term_count_is_binomial(self):
        # C(5, 3) increasing index choices
        assert len(expand_composition((1, 2, 1), 5)) == 10


class TestPolynomialArithmetic:
    def test_square_binomial(self):
        p = expand_composition((1,), 2)
        assert p * p == TruncatedPolynomial(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})

    def test_square_matches_quasi_shuffle(self):
        p = expand_composition((1,), 2)
        assert p * p == expand_element(QSymmElement({(1, 1): 2, (2,): 1}), 2)

    def test_one_is_unit(self):
        p = expand_composition((2, 1), 4)
        assert poly_mul(p, TruncatedPolynomial.one(4)) == p

    def test_mismatched_variable_count(self):
        with pytest.raises(ValueError):
            poly_mul(TruncatedPolynomial.one(2), TruncatedPolynomial.one(3))

    def test_rational_coefficients_ok(self):
        p = expand_composition((1,), 2) * Fraction(1, 2)
        assert (p + p) == expand_composition((1,), 2)

    def test_long_compositions_vanish(self):
        # more parts than variables: no strictly increasing index tuple exists
        el = mono((1, 1, 1)) + mono((3,))
        assert expand_element(el, 2) == expand_composition((3,), 2)


class TestFrobeniusPoly:
    def test_squares_variables(self):
        p = expand_composition((1,), 2)
        assert frobenius_poly(2, p) == TruncatedPolynomial(2, {(2, 0): 1, (0, 2): 1})

    def test_identity(self):
        p = expand_composition((1, 2), 3)
        assert frobenius_poly(1, p) == p

    def test_matches_part_scaling(self):
        assert frobenius_poly(2, expand_composition((1, 2), 3)) == expand_composition(
            (2, 4), 3
        )


class TestElementaryOfMonomials:
    def test_first_is_expansion(self):
        for c in [(1,), (2,), (1, 2)]:
            assert elementary_of_monomials(1, c, 4) == expand_composition(c, 4)

    def test_zeroth_is_one(self):
        assert elementary_of_monomials(0, (1,), 3) == TruncatedPolynomial.one(3)

    def test_second_of_singletons(self):
        lhs = elementary_of_monomials(2, (1,), 3)
        assert lhs == expand_composition((1, 1), 3)

    def test_lambda_example_in_six_vars(self):
        lhs = expand_element(lambda_n(2, mono((1, 2))), 6)
        assert lhs == elementary_of_monomials(2, (1, 2), 6)

    def test_beyond_monomial_count_is_zero(self):
        # e_n of fewer than n monomials vanishes
        assert elementary_of_monomials(4, (1, 2), 3) == TruncatedPolynomial.zero(3)


class TestSuites:
    def test_product_oracle_window(self):
        comps = [()] + nonempty_up_to(5)
        for a, b in itertools.combinations_with_replacement(comps, 2):
            if sum(a) + sum(b) > 6:
                continue
            lhs = expand_element(quasi_shuffle(a, b), 6)
            rhs = poly_mul(expand_composition(a, 6), expand_composition(b, 6))
            assert lhs == rhs, (a, b)

    def test_frobenius_oracle_window(self):
        for n in (1, 2, 3):
            for alpha in nonempty_up_to(4):
                lhs = expand_element(frobenius(n, mono(alpha)), 4)
                rhs = frobenius_poly(n, expand_composition(alpha, 4))
                assert lhs == rhs, (n, alpha)

    def test_lambda_oracle_window(self):
        for n in (1, 2, 3):
            for alpha in nonempty_up_to(3):
                lhs = expand_element(lambda_n(n, mono(alpha)), 6)
                rhs = elementary_of_monomials(n, alpha, 6)
                assert lhs == rhs, (n, alpha)

    def test_faithfulness_rank(self):
        # expansions of all weight <= 4 compositions in 4 variables are
        # linearly independent
        comps = nonempty_up_to(4)
        monomial_index = {}
        rows = []
        for c in comps:
            poly = expand_composition(c, 4)
            for exps, _ in poly.terms():
                monomial_index.setdefault(exps, len(monomial_index))
        for c in comps:
            poly = expand_composition(c, 4)
            row = [0] * len(monomial_index)
            for exps, q in poly.terms():
                row[monomial_index[exps]] = q
            rows.append(row)
        assert rational_rank(rows) == len(comps)

    def test_oracle_suite_runs_clean(self):
        report = oracle_suite(3, 4)
        assert report.passed
        assert not report.failures
        identities = {c.identity for c in report.checks}
        assert identities == {"product", "frobenius", "lambda"}

    def test_oracle_suite_larger(self):
        report = oracle_suite(5, 6)
        assert report.passed

    def test_oracle_suite_precondition(self):
        with pytest.raises(ValueError):
            oracle_suite(2, 1)

    def test_report_json_shape(self):
        report = oracle_suite(2, 2)
        obj = report.to_json_obj()
        assert isinstance(obj, list)
        assert set(obj[0]) == {"identity", "instance", "status", "lhs", "rhs"}
        assert all(entry["status"] == "pass" for entry in obj)

    def test_passing_checks_render_lazily(self, monkeypatch):
        rendered = []
        to_text = TruncatedPolynomial.__str__

        def counting_str(poly):
            rendered.append(poly)
            return to_text(poly)

        monkeypatch.setattr(TruncatedPolynomial, "__str__", counting_str)
        # building the suite and renaming its checks, as verify-all does,
        # renders nothing
        checks = [replace(c, identity=f"oracle/{c.identity}") for c in oracle_suite(2, 2).checks]
        assert rendered == []
        c = next(c for c in checks if c.instance == "[1]*[1]")
        lhs, rhs = c.lhs, c.rhs
        assert len(rendered) == 1  # both sides of a passing check share one text
        x1 = expand_composition((1,), 2)
        assert lhs == rhs == to_text(x1 * x1)
        assert type(lhs) is str and type(rhs) is str
        assert c.lhs is lhs and c.rhs is rhs  # cached
        assert len(rendered) == 1
        assert c.to_json_obj() == {
            "identity": "oracle/product",
            "instance": "[1]*[1]",
            "status": "pass",
            "lhs": lhs,
            "rhs": rhs,
        }
        assert list(c.to_json_obj()) == ["identity", "instance", "status", "lhs", "rhs"]

    def test_failing_check_keeps_both_sides(self):
        c = _check("product", "[1]*[]", mono((1,)), 2, expand_composition((2,), 2))
        assert c.status == "fail"
        assert (c.lhs, c.rhs) == (str(expand_composition((1,), 2)), str(expand_composition((2,), 2)))
