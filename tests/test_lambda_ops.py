"""Adams operators, lambda powers, generators, and the exponential identity."""

import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from qsymm.compositions import (
    concat_power,
    enumerate_compositions,
    is_lyndon,
    wll_key,
)
from qsymm import lambda_ops
from qsymm.elements import QSymmElement
from qsymm.lambda_ops import (
    adams_from_lambda,
    clear_memo,
    elementary_gen,
    exp_identity_check,
    frobenius,
    lambda_n,
    lambda_series,
    power_gen,
    _series_exp,
    _series_mul,
)

from helpers import cofactor_det


def mono(c, q=1):
    return QSymmElement.monomial(c, q)


def nonempty_up_to(max_weight):
    out = []
    for w in range(1, max_weight + 1):
        out.extend(enumerate_compositions(w))
    return out


class TestFrobenius:
    def test_scales_parts(self):
        assert frobenius(2, mono((1, 2))) == mono((2, 4))

    def test_identity_at_one(self):
        for c in nonempty_up_to(4):
            assert frobenius(1, mono(c, 3)) == mono(c, 3)

    def test_linear(self):
        el = mono((1,)) + mono((2,))
        assert frobenius(3, el) == mono((3,)) + mono((6,))

    def test_multiplicative(self):
        for a, b in itertools.product(nonempty_up_to(3), repeat=2):
            if sum(a) + sum(b) > 5:
                continue
            for n in (2, 3):
                lhs = frobenius(n, mono(a) * mono(b))
                rhs = frobenius(n, mono(a)) * frobenius(n, mono(b))
                assert lhs == rhs

    def test_composes_to_product_of_indices(self):
        for c in nonempty_up_to(4):
            for m, n in [(2, 2), (2, 3), (3, 2)]:
                assert frobenius(m, frobenius(n, mono(c))) == frobenius(m * n, mono(c))

    def test_rejects_nonpositive_index(self):
        with pytest.raises(ValueError):
            frobenius(0, mono((1,)))

    def test_result_is_built_in_canonical_order(self):
        # Scaling every part by n is injective and keeps the wll order, so the
        # result is not re-sorted; its terms straddle the weight-256 bound of
        # the integer wll ranks, with int and Fraction coefficients.
        rng = random.Random(29)
        straddles = 0
        for n in (1, 2, 3, 5):
            comps = {tuple(rng.randint(1, 120 // n) for _ in range(rng.randint(1, 5))) for _ in range(60)}
            coeffs = (rng.choice((rng.randint(-9, 9) or 1, Fraction(rng.randint(1, 9), 7))) for _ in comps)
            el = QSymmElement(dict(zip(comps, coeffs)))
            out = list(frobenius(n, el).terms())
            keys = [c for c, _ in out]
            assert keys == sorted(keys, key=wll_key, reverse=True)
            expected = QSymmElement._from_dict({tuple(n * p for p in c): q for c, q in el.terms()})
            assert [(c, q, type(q)) for c, q in out] == [(c, q, type(q)) for c, q in expected.terms()]
            straddles += min(map(sum, keys)) <= 256 < max(map(sum, keys))
        assert straddles == 4


class TestLambda:
    def test_lambda_one_is_identity(self):
        for c in nonempty_up_to(4):
            assert lambda_n(1, mono(c)) == mono(c)

    def test_lambda_zero_is_unit(self):
        assert lambda_n(0, mono((1, 2))) == QSymmElement.one()

    def test_second_power_of_single_one(self):
        assert lambda_n(2, mono((1,))) == mono((1, 1))

    def test_powers_of_single_one_are_elementary(self):
        # lambda_n([1]) is the n-th elementary symmetric function [1,...,1]
        for n in range(1, 6):
            assert lambda_n(n, mono((1,))) == mono((1,) * n)

    def test_second_power_of_one_two(self):
        expected = QSymmElement(
            {(1, 2, 1, 2): 1, (1, 1, 2, 2): 2, (1, 1, 4): 1, (1, 3, 2): 1, (2, 2, 2): 1}
        )
        assert lambda_n(2, mono((1, 2))) == expected

    def test_integrality(self):
        for c in nonempty_up_to(4):
            for n in range(0, 5):
                assert lambda_n(n, mono(c)).is_integral()

    def test_homogeneous(self):
        for c in nonempty_up_to(3):
            for n in range(0, 4):
                assert lambda_n(n, mono(c)).is_homogeneous(n * sum(c))

    def test_rational_base_allowed(self):
        half = mono((1,)) * Fraction(1, 2)
        lam2 = lambda_n(2, half)
        # lam_2(a/2) = (a*a/4 - f_2(a)/2) / 2
        expected = (half * half - frobenius(2, half)) * Fraction(1, 2)
        assert lam2 == expected

    def test_leading_term_of_lyndon_powers(self):
        # lambda_n of a Lyndon word leads with its n-fold concatenation
        for c in nonempty_up_to(4):
            if not is_lyndon(c):
                continue
            for n in (2, 3):
                lead = elementary_gen(n, c).leading_term_wll()
                assert lead == (concat_power(c, n), 1)

    def test_determinant_cross_check(self):
        # n! * lambda_n equals the alternating determinant in the Adams values
        one = QSymmElement.one()
        for c in nonempty_up_to(3):
            a = mono(c)
            adams = [None] + [frobenius(i, a) for i in range(1, 4)]
            for n in (1, 2, 3):
                rows = []
                for i in range(1, n + 1):
                    row = []
                    for j in range(1, n + 1):
                        if j <= i:
                            row.append(adams[i - j + 1])
                        elif j == i + 1:
                            row.append(one * i)
                        else:
                            row.append(QSymmElement.zero())
                    rows.append(row)
                det = cofactor_det(rows)
                assert det == lambda_n(n, a) * math.factorial(n)


class TestSeries:
    def test_series_shape(self):
        s = lambda_series(mono((1, 2)), 3)
        assert s.order == 3
        assert s.coefficient(0) == QSymmElement.one()
        assert s.coefficient(1) == mono((1, 2))
        with pytest.raises(ValueError):
            s.coefficient(4)

    def test_coefficient_index_is_not_a_truncation(self):
        s = lambda_series(mono((1,)), 2)
        with pytest.raises(ValueError) as info:
            s.coefficient(2.0)
        assert "truncated" not in str(info.value)
        assert str(info.value).count("2.0") == 1
        with pytest.raises(ValueError, match=r"^series truncated at order 2, asked for 3$"):
            s.coefficient(3)

    def test_adams_round_trip(self):
        for c in nonempty_up_to(3):
            s = lambda_series(mono(c), 4)
            for n in range(1, 5):
                assert adams_from_lambda(n, s) == frobenius(n, mono(c))

    def test_adams_round_trip_on_a_rational_series(self):
        # a rational element's series divides by Fractions; the inverse must undo that
        a = mono((1,), Fraction(1, 2)) - mono((2,))
        s = lambda_series(a, 4)
        assert not s.coefficient(2).is_integral()
        for n in range(1, 5):
            assert adams_from_lambda(n, s) == frobenius(n, a)

    def test_adams_n1_is_first_coefficient(self):
        s = lambda_series(mono((2, 1)), 2)
        assert adams_from_lambda(1, s) == mono((2, 1))

    def test_adams_examples(self):
        assert adams_from_lambda(2, lambda_series(mono((1,)), 2)) == mono((2,))
        assert adams_from_lambda(3, lambda_series(mono((1, 2)), 3)) == mono((3, 6))

    def test_truncation_too_short(self):
        s = lambda_series(mono((1,)), 2)
        with pytest.raises(ValueError):
            adams_from_lambda(3, s)

    def test_memo_is_a_bounded_lru_cache(self):
        import qsymm.lambda_ops as lo

        assert lo._series_box.cache_info().maxsize == 4096
        assert lo._memo_cap() == 4096
        clear_memo()
        try:
            # one entry per element, whatever the order asked for
            for n in range(5):
                assert lambda_n(n, mono((1, 2))).is_integral()
            assert lo._series_box.cache_info().currsize == 1
            assert len(lo._series_box(mono((1, 2)))[0]) == 5
        finally:
            clear_memo()
        assert lo._series_box.cache_info().currsize == 0


@pytest.mark.parametrize("bad", [True, 2.0])
@pytest.mark.parametrize(
    "call",
    [
        lambda n: frobenius(n, mono((1,))),
        lambda n: lambda_n(n, mono((1,))),
        lambda n: lambda_series(mono((1,)), n),
        lambda n: adams_from_lambda(n, lambda_series(mono((1,)), 2)),
        lambda n: elementary_gen(n, (1,)),
        lambda n: power_gen(n, (1,)),
        lambda n: exp_identity_check((1,), n),
        lambda n: lambda_series(mono((1,)), 2).coefficient(n),
    ],
    ids=[
        "frobenius", "lambda_n", "lambda_series", "adams_from_lambda", "elementary_gen", "power_gen",
        "exp_identity_check", "coefficient",
    ],
)
def test_index_must_be_an_int(call, bad):
    # a bool is not read as 1, and a float does not fail deep inside
    with pytest.raises(ValueError, match=f"got {bad!r}"):
        call(bad)


class TestGenerators:
    def test_power_gen(self):
        assert power_gen(3, (1, 2)) == mono((3, 6))
        assert power_gen(1, (2, 1)) == mono((2, 1))

    def test_elementary_gen_first(self):
        for c in nonempty_up_to(3):
            assert elementary_gen(1, c) == mono(c)

    def test_elementary_gen_of_two(self):
        assert elementary_gen(2, (2,)) == mono((2, 2))

    def test_both_integral_and_homogeneous(self):
        for c in nonempty_up_to(3):
            for n in (1, 2, 3):
                e = elementary_gen(n, c)
                p = power_gen(n, c)
                assert e.is_integral() and e.is_homogeneous(n * sum(c))
                assert p.is_integral() and p.is_homogeneous(n * sum(c))

    def test_empty_base_rejected(self):
        with pytest.raises(ValueError):
            elementary_gen(2, ())
        with pytest.raises(ValueError):
            power_gen(2, ())


class TestExpIdentity:
    def test_order_one_trivial(self):
        for c in nonempty_up_to(3):
            assert exp_identity_check(c, 1)

    def test_small_cases(self):
        assert exp_identity_check((1,), 2)
        assert exp_identity_check((1, 2), 2)
        assert exp_identity_check((), 4)

    def test_series_coefficients_explicitly(self):
        # exp([1] t - 1/2 [2] t^2) = 1 + [1] t + [1,1] t^2 + ...
        log_terms = [
            QSymmElement.zero(),
            mono((1,)),
            mono((2,), Fraction(-1, 2)),
        ]
        series = _series_exp(log_terms, 2)
        assert series[0] == QSymmElement.one()
        assert series[1] == mono((1,))
        assert series[2] == mono((1, 1))

    @staticmethod
    def fraction_series_exp(s, order, denominator=1):
        # the reference: each power scaled by the Fraction
        # 1 / (denominator**k * k!) and added in as it is built
        result = [QSymmElement.one()] + [QSymmElement() for _ in range(order)]
        power = list(result)
        scale = 1
        for k in range(1, order + 1):
            power = _series_mul(power, s, order)
            scale *= denominator * k
            for i in range(k, order + 1):
                if power[i]:
                    result[i] = result[i] + power[i] * Fraction(1, scale)
        return result

    @pytest.mark.parametrize("denominator", [1, 2, 12])
    @pytest.mark.parametrize("coeffs", [(-2, -1, 1, 3), (-1, 1, Fraction(1, 2), Fraction(-2, 3))],
                             ids=["integral", "rational"])
    def test_series_exp_matches_the_fraction_loop(self, denominator, coeffs):
        rng = random.Random(denominator)
        comps = nonempty_up_to(2)
        for _ in range(12):
            order = rng.randint(1, 4)
            s = [QSymmElement()] + [
                QSymmElement({c: rng.choice(coeffs) for c in rng.sample(comps, rng.randint(0, 2))})
                for _ in range(order)
            ]
            got = _series_exp(s, order, denominator)
            want = self.fraction_series_exp(s, order, denominator)
            assert got == want
            # the same canonical terms, integral coefficients stored as ints
            assert [[(c, type(q)) for c, q in e.terms()] for e in got] == [
                [(c, type(q)) for c, q in e.terms()] for e in want
            ]

    @pytest.mark.parametrize("perturb", [
        # exp(2 L / 12), the square of the lambda series: integral, but
        # not equal to it
        lambda s: [2 * x for x in s],
        # a t^2 term of 1/12 * [2] makes the exponential non-integral
        lambda s: s[:2] + [s[2] + mono((2,))] + s[3:],
    ], ids=["integral", "rational"])
    def test_perturbed_log_series_fails(self, monkeypatch, perturb):
        exp = lambda_ops._series_exp
        monkeypatch.setattr(lambda_ops, "_series_exp", lambda s, order, d: exp(perturb(s), order, d))
        assert not exp_identity_check((1, 2), 4)
        monkeypatch.undo()
        assert exp_identity_check((1, 2), 4)

    def test_wide_window(self):
        for w in range(0, 4):
            for c in enumerate_compositions(w):
                assert exp_identity_check(c, 4)

    def test_rejects_zero_order(self):
        with pytest.raises(ValueError):
            exp_identity_check((1,), 0)

    def test_memory_held_after_a_check(self):
        # The check multiplies three lambda products (63, 136 and 149 terms
        # times one), which take the trie. In a fresh interpreter, so that
        # no earlier test's memo entries count, the memory still held after
        # the call reads 1.74 MiB on CPython 3.11; it read 6.26 MiB when
        # those products went per pair and the quasi-shuffle memo kept every
        # suffix pair of their words.
        probe = (
            "import gc, tracemalloc\n"
            "from qsymm.lambda_ops import exp_identity_check\n"
            "tracemalloc.start()\n"
            "assert exp_identity_check((1, 1, 1), 4)\n"
            "gc.collect()\n"
            "print(tracemalloc.get_traced_memory()[0])\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(lambda_ops.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
        assert int(proc.stdout) < 3 * 2**20


class TestSumRule:
    """lambda_n(a + b) = sum_i lambda_i(a) * lambda_{n-i}(b): lambda_t turns
    sums into products."""

    @staticmethod
    def random_element(rng, coeffs):
        comps = nonempty_up_to(3)
        chosen = rng.sample(comps, rng.randint(1, 2))
        return QSymmElement({c: rng.choice(coeffs) for c in chosen})

    def assert_sum_rule(self, a, b, max_n):
        for n in range(max_n + 1):
            rhs = QSymmElement.zero()
            for i in range(n + 1):
                rhs = rhs + lambda_n(i, a) * lambda_n(n - i, b)
            assert lambda_n(n, a + b) == rhs, (a, b, n)

    def test_integral_elements(self):
        rng = random.Random(2004)
        for _ in range(6):
            a = self.random_element(rng, (-2, -1, 1, 2))
            b = self.random_element(rng, (-2, -1, 1, 2))
            self.assert_sum_rule(a, b, 4)

    def test_rational_coefficients(self):
        a = QSymmElement({(1,): Fraction(1, 2), (2,): -1})
        b = QSymmElement({(1, 1): Fraction(-2, 3)})
        self.assert_sum_rule(a, b, 4)
