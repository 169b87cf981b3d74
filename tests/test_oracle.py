"""The polynomial substitution oracle and its differential suites."""

import itertools
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from qsymm._sparse import _iadd_scaled
from qsymm.compositions import enumerate_compositions
from qsymm.elements import QSymmElement, quasi_shuffle
from qsymm.errors import ConsistencyError
from qsymm.lambda_ops import frobenius, lambda_n
from qsymm.oracle import (
    TruncatedPolynomial,
    _packed_check,
    _packed_element,
    _packed_elementary,
    _packed_expansion,
    _packed_mul,
    _unpack,
    _width,
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
        b = _width(2)
        c = _packed_check("product", "[1]*[]", mono((1,)), 2, b, _pack(expand_composition((2,), 2), b))
        assert c.status == "fail"
        assert (c.lhs, c.rhs) == (str(expand_composition((1,), 2)), str(expand_composition((2,), 2)))


# -- the packed kernel ----------------------------------------------------------
#
# The references below work on exponent tuples, as the oracle did before it
# packed them into ints: `tuple_expansion` is a sum over increasing index
# tuples, products use the generic `SparseTerms` product, Adams operators
# scale each exponent and lambda powers run the elementary loop.


def _pack(p, b):
    """`p`'s terms keyed by their packed exponent vectors at width b."""
    out = {}
    for exps, q in p.terms():
        x = 0
        for e in exps:
            x = x << b | e
        out[x] = q
    return out


def tuple_expansion(alpha, k):
    terms = {}
    for idxs in itertools.combinations(range(k), len(alpha)):
        exps = [0] * k
        for pos, part in zip(idxs, alpha):
            exps[pos] = part
        terms[tuple(exps)] = 1
    return TruncatedPolynomial(k, terms)


def tuple_element(a, k):
    out = TruncatedPolynomial.zero(k)
    for comp, q in a.terms():
        if len(comp) <= k:
            out = out + tuple_expansion(comp, k) * q
    return out


def tuple_elementary(n, alpha, k):
    elem = [TruncatedPolynomial.one(k)] + [TruncatedPolynomial.zero(k)] * n
    for exps, _ in tuple_expansion(alpha, k).terms():
        mono = TruncatedPolynomial(k, {exps: 1})
        for j in range(n, 0, -1):
            elem[j] = elem[j] + elem[j - 1] * mono
    return elem[n]


class TestPackedKernel:
    def test_round_trip_at_field_limit(self):
        for k, b in [(1, 1), (3, 2), (4, 5), (7, 5)]:
            top = (1 << b) - 1
            polys = [
                TruncatedPolynomial(k, {(top,) * k: 1}),
                TruncatedPolynomial(k, {tuple(top * (i == j) for i in range(k)): j + 1 for j in range(k)}),
                TruncatedPolynomial(k, {tuple(min(i, top) for i in range(k)): Fraction(-1, 3), (0,) * k: 2}),
            ]
            for p in polys:
                packed = _pack(p, b)
                assert all(0 <= x < 1 << (b * k) for x in packed)
                assert list(_unpack(packed, k, b).terms()) == list(p.terms())

    def test_expansion_matches_tuples(self):
        for alpha in [()] + nonempty_up_to(4):
            for k in range(len(alpha), 6):
                b = _width(max(alpha, default=0))
                assert _unpack(_packed_expansion(alpha, k, b), k, b) == tuple_expansion(alpha, k)
                assert expand_composition(alpha, k) == tuple_expansion(alpha, k)

    def test_product_window(self):
        comps = [()] + nonempty_up_to(5)
        b = _width(18)
        for a, c in itertools.combinations_with_replacement(comps, 2):
            if sum(a) + sum(c) > 6:
                continue
            packed = _packed_mul(_packed_expansion(a, 6, b), _packed_expansion(c, 6, b))
            assert _unpack(packed, 6, b) == tuple_expansion(a, 6) * tuple_expansion(c, 6), (a, c)

    def test_frobenius_window(self):
        b = _width(12)
        for n in (1, 2, 3):
            for alpha in nonempty_up_to(4):
                packed = {n * x: q for x, q in _packed_expansion(alpha, 4, b).items()}
                p = tuple_expansion(alpha, 4)
                scaled = TruncatedPolynomial(4, {tuple(n * e for e in exps): q for exps, q in p.terms()})
                assert _unpack(packed, 4, b) == scaled, (n, alpha)
                assert frobenius_poly(n, p) == scaled

    def test_lambda_window(self):
        b = _width(18)
        for n in (0, 1, 2, 3):
            for alpha in nonempty_up_to(3):
                ref = tuple_elementary(n, alpha, 6)
                assert _unpack(_packed_elementary(n, alpha, 6, b), 6, b) == ref, (n, alpha)
                assert elementary_of_monomials(n, alpha, 6) == ref

    def test_element_expansion(self):
        el = mono((1, 2), 3) + mono((3,), Fraction(-1, 2)) + mono((1, 1, 1, 1)) + mono(())
        for k in (2, 3, 4):
            assert expand_element(el, k) == tuple_element(el, k)

    def test_element_matches_a_summed_reference(self):
        # the reference sums the expansions term by term, so it would also
        # add up overlapping ones, which the kernel only writes in
        def summed(a, k, b):
            acc = {}
            for comp, q in a.terms():
                if len(comp) <= k:
                    _iadd_scaled(acc, _packed_expansion(comp, k, b), q)
            return acc

        rng = random.Random(25)
        comps = [()] + nonempty_up_to(5)
        coeffs = [-3, -1, 1, 2, 7, Fraction(-1, 2), Fraction(5, 3)]
        for _ in range(200):
            el = QSymmElement({c: rng.choice(coeffs) for c in rng.sample(comps, rng.randint(1, 8))})
            k = rng.randint(1, 5)  # compositions longer than k vanish
            b = _width(max((max(c) for c in el.compositions() if c), default=0)) + rng.randint(0, 1)
            assert _packed_element(el, k, b) == summed(el, k, b), (el, k, b)

    def test_overlapping_expansions_raise(self):
        # a part of 2**b or more wraps into the next field: at width 2,
        # [4] in x2 packs as x1 does, which [1] also holds
        with pytest.raises(ConsistencyError):
            _packed_element(mono((1,)) + mono((4,)), 2, 2)

    def test_product_counts_each_split(self):
        b = _width(4)
        p = _packed_mul(_packed_expansion((1,), 3, b), _packed_expansion((1,), 3, b))
        assert sorted(p.values()) == [1, 1, 1, 2, 2, 2]
        assert _unpack(p, 3, b) == tuple_expansion((1,), 3) * tuple_expansion((1,), 3)

    def test_expansion_cache_is_bounded(self):
        assert _packed_expansion.cache_info().maxsize is not None

    def test_oversized_part_fails(self):
        # a part of 2**b cannot pack; the check must fail, not wrap into
        # the neighbouring variable's field
        b = 2
        element = mono((4,))
        c = _packed_check("frobenius", "f4([1])", element, 2, b, {})
        assert c.status == "fail"
        assert (c.lhs, c.rhs) == (str(tuple_element(element, 2)), "0")
        # packed at width 2, x1*x2^4 would read as x1^2: wrapped, the
        # check would pass
        x1_squared = TruncatedPolynomial(2, {(2, 0): 1})
        c = _packed_check("product", "x", mono((1, 4)), 2, b, _pack(x1_squared, b))
        assert c.status == "fail"
        assert (c.lhs, c.rhs) == ("x1*x2^4", "x1^2")

    def test_check_with_polynomial_rhs(self):
        b = _width(6)
        rhs = _pack(frobenius_poly(3, expand_composition((1, 2), 3)), b)
        c = _packed_check("frobenius", "f3([1,2])", mono((3, 6)), 3, b, rhs)
        assert c.status == "pass"
        assert c.lhs == c.rhs == str(tuple_expansion((3, 6), 3))
        b = _width(4)
        c = _packed_check("lambda", "lambda2([2])", mono((2, 2)), 3, b, _pack(tuple_expansion((4,), 3), b))
        assert c.status == "fail"
        assert (c.lhs, c.rhs) == (str(tuple_expansion((2, 2), 3)), str(tuple_expansion((4,), 3)))


class TestBrokenCodeUnderTest:
    """A suite run on a broken `quasi_shuffle` or `frobenius` reports the
    broken checks, with the texts of the tuple route."""

    @staticmethod
    def drop_one(element):
        terms = dict(element.terms())
        terms.pop(next(iter(terms)))
        return QSymmElement(terms)

    @staticmethod
    def alter_one(element):
        terms = dict(element.terms())
        first = next(iter(terms))
        terms[first] += 1
        return QSymmElement(terms)

    def failures(self, monkeypatch, name, broken, max_weight, k):
        import qsymm.oracle as oracle

        monkeypatch.setattr(oracle, name, broken)
        return oracle_suite(max_weight, k).failures

    def test_dropped_product_term(self, monkeypatch):
        def broken(a, b):
            out = quasi_shuffle(a, b)
            return self.drop_one(out) if (a, b) == ((1,), (1, 2)) else out

        (c,) = self.failures(monkeypatch, "quasi_shuffle", broken, 4, 4)
        assert (c.identity, c.instance, c.status) == ("product", "[1]*[1,2]", "fail")
        assert c.lhs == str(tuple_element(self.drop_one(quasi_shuffle((1,), (1, 2))), 4))
        assert c.rhs == str(tuple_expansion((1,), 4) * tuple_expansion((1, 2), 4))

    def test_perturbed_product(self, monkeypatch):
        # both texts pinned literally, so that no change to the packed
        # kernel can move them
        def broken(a, b):
            out = quasi_shuffle(a, b)
            if (a, b) == ((1,), (1,)):
                return out + mono((1, 1), Fraction(-1, 2)) + mono((3,))
            return out

        (c,) = self.failures(monkeypatch, "quasi_shuffle", broken, 3, 3)
        assert (c.identity, c.instance, c.status) == ("product", "[1]*[1]", "fail")
        assert c.lhs == "x3^2 + x3^3 + 3/2*x2*x3 + x2^2 + x2^3 + 3/2*x1*x3 + 3/2*x1*x2 + x1^2 + x1^3"
        assert c.rhs == "x3^2 + 2*x2*x3 + x2^2 + 2*x1*x3 + 2*x1*x2 + x1^2"

    def test_altered_frobenius_term(self, monkeypatch):
        def broken(n, a):
            out = frobenius(n, a)
            return self.alter_one(out) if n == 2 and a == mono((2, 1)) else out

        (c,) = self.failures(monkeypatch, "frobenius", broken, 3, 3)
        assert (c.identity, c.instance, c.status) == ("frobenius", "f2([2,1])", "fail")
        assert c.lhs == str(tuple_expansion((4, 2), 3) * 2)
        p = tuple_expansion((2, 1), 3)
        assert c.rhs == str(TruncatedPolynomial(3, {tuple(2 * e for e in exps): q for exps, q in p.terms()}))

    def test_frobenius_beyond_packing_width(self, monkeypatch):
        # exponents above 3 * max_weight do not fit the suite's width
        def broken(n, a):
            return frobenius(4 * n, a) if a == mono((1,)) else frobenius(n, a)

        fails = self.failures(monkeypatch, "frobenius", broken, 2, 2)
        assert [c.instance for c in fails] == ["f1([1])", "f2([1])", "f3([1])"]
        assert fails[2].lhs == str(tuple_expansion((12,), 2))
        assert fails[2].rhs == str(tuple_expansion((3,), 2))
