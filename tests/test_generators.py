"""Generator polynomials, the constructive rewriting, and certificates."""

import json
import random
import re

import pytest

from qsymm.compositions import (
    enumerate_compositions,
    enumerate_elementary_lyndon,
    weight,
)
from qsymm.elements import QSymmElement
from qsymm.errors import ParseError
from qsymm.generators import (
    _COMPOSITIONS,
    _MONOMIALS,
    _UNIT,
    GeneratorPolynomial,
    _det_unit_pivot,
    _expand_by_dict,
    _expansion_vector,
    _express_by_dict,
    _pack,
    _packed_sum,
    _polynomial_vector,
    certificate_to_json_obj,
    det_bareiss,
    enumerate_generator_monomials,
    expand,
    express,
    express_element,
    format_generator_polynomial,
    format_monomial,
    freeness_certificate,
    generator_polynomial_from_json_obj,
    generator_polynomial_to_json_obj,
    make_monomial,
    monomial_weight,
    parse_generator_polynomial,
    product_gen,
)

from helpers import cofactor_det, solve_exact


def gen(alpha, n):
    return GeneratorPolynomial.generator(alpha, n)


def nonempty_up_to(max_weight):
    out = []
    for w in range(1, max_weight + 1):
        out.extend(enumerate_compositions(w))
    return out


class TestMonomials:
    def test_unit(self):
        assert make_monomial([]) == ()
        assert monomial_weight(()) == 0

    def test_weight(self):
        m = make_monomial([((1,), 2), ((1, 2), 1)])
        assert monomial_weight(m) == 2 * 1 + 1 * 3

    def test_rejects_non_lyndon(self):
        with pytest.raises(ValueError):
            make_monomial([((2, 1), 1)])

    def test_rejects_nonreduced(self):
        with pytest.raises(ValueError):
            make_monomial([((2,), 1)])  # gcd 2

    def test_canonical_factor_order(self):
        a = make_monomial([((1, 2), 1), ((1,), 3), ((1,), 1)])
        b = make_monomial([((1,), 1), ((1, 2), 1), ((1,), 3)])
        assert a == b
        assert a == (((1,), 1), ((1,), 3), ((1, 2), 1))


class TestPolynomialKeys:
    """The public constructor checks its monomials as `make_monomial` does."""

    @pytest.mark.parametrize(
        "key, message",
        [
            ((((1,), 2.5),), "lambda index must be >= 1"),  # would print e2.5([1])
            ((((2,), 1),), "[2] is not an elementary Lyndon word"),  # would print e1([2])
        ],
    )
    def test_rejects_what_no_parser_reads(self, key, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            GeneratorPolynomial({key: 1})

    def test_factor_order_is_canonicalized_and_summed(self):
        g = GeneratorPolynomial({(((1, 2), 1), ((1,), 1)): 1, (((1,), 1), ((1, 2), 1)): 2})
        assert g == 3 * gen((1,), 1) * gen((1, 2), 1)
        assert list(g.terms()) == [((((1,), 1), ((1, 2), 1)), 3)]
        assert str(g) == "3*e1([1])*e1([1,2])"


class TestExpand:
    def test_unit_monomial(self):
        assert GeneratorPolynomial.one().expand() == QSymmElement.one()
        assert GeneratorPolynomial.zero().expand() == QSymmElement.zero()

    def test_second_power_of_one(self):
        assert gen((1,), 2).expand() == QSymmElement.monomial((1, 1))

    def test_product_monomial(self):
        g = gen((1,), 1) * gen((1, 2), 1)
        direct = QSymmElement.monomial((1,)) * QSymmElement.monomial((1, 2))
        assert g.expand() == direct
        # value pinned by the quasi-shuffle recursion / polynomial oracle
        assert direct == QSymmElement({(1, 1, 2): 2, (1, 2, 1): 1, (2, 2): 1, (1, 3): 1})

    def test_expand_is_linear(self):
        g = gen((1,), 2) * 3 - gen((1, 2), 1)
        expected = QSymmElement({(1, 1): 3, (1, 2): -1})
        assert g.expand() == expected


class TestExpress:
    def test_pure_power_case(self):
        assert express((1, 1)) == gen((1,), 2)

    def test_lyndon_case(self):
        expected = gen((1,), 1) ** 3 - 3 * (gen((1,), 1) * gen((1,), 2)) + 3 * gen((1,), 3)
        assert express((3,)) == expected

    def test_split_case(self):
        expected = gen((1,), 1) * gen((1,), 2) - gen((1, 2), 1) - 3 * gen((1,), 3)
        assert express((2, 1)) == expected

    def test_elementary_lyndon_is_its_own_generator(self):
        for alpha in enumerate_elementary_lyndon(5):
            assert express(alpha) == gen(alpha, 1)

    def test_round_trip_through_weight_nine(self):
        for w in range(1, 10):
            for beta in enumerate_compositions(w):
                assert expand(express(beta)) == QSymmElement.monomial(beta), beta

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            express(())

    def test_integer_coefficients(self):
        for beta in nonempty_up_to(6):
            g = express(beta)
            assert all(isinstance(c, int) for _, c in g.terms())


class TestExpressElement:
    def test_zero(self):
        assert express_element(QSymmElement.zero()) == GeneratorPolynomial.zero()

    def test_square_of_first_generator(self):
        el = QSymmElement({(1, 1): 2, (2,): 1})
        assert express_element(el) == gen((1,), 1) ** 2

    def test_single_lyndon(self):
        assert express_element(QSymmElement.monomial((1, 2))) == gen((1, 2), 1)

    def test_unit_term(self):
        el = QSymmElement({(): 5, (1,): -2})
        g = express_element(el)
        assert expand(g) == el

    def test_rejects_non_integral(self):
        from fractions import Fraction

        with pytest.raises(ValueError):
            express_element(QSymmElement.monomial((1,), Fraction(1, 2)))

    def test_linear_round_trip_random(self):
        rng = random.Random(17)
        comps = [()] + nonempty_up_to(5)
        for _ in range(50):
            chosen = rng.sample(comps, rng.randint(1, 6))
            el = QSymmElement({c: rng.randint(-9, 9) for c in chosen})
            assert expand(express_element(el)) == el


def typed(terms):
    return [(key, q, type(q)) for key, q in terms]


class TestPackedVectors:
    """The packed sums of `expand` and `express_element` against the dict
    loops they fall back to, term for term, in order and with int
    coefficients."""

    @staticmethod
    def packs(g):
        return _packed_sum(g.terms(), _expansion_vector, _COMPOSITIONS) is not None

    @staticmethod
    def polynomial(rng, weights, size):
        monos = [m for w in weights for m in (enumerate_generator_monomials(w) if w else [()])]
        chosen = rng.sample(monos, min(size, len(monos)))
        return GeneratorPolynomial({m: rng.choice((-1, 1)) * rng.randint(1, 99) for m in chosen})

    def test_expand_matches_dict(self):
        rng = random.Random(41)
        seen = {"mixed": 0, "heaviest not first": 0, "unit": 0}
        for _ in range(200):
            g = self.polynomial(rng, rng.sample(range(7), rng.randint(1, 3)), rng.randint(1, 6))
            assert self.packs(g)
            assert typed(g.expand().terms()) == typed(_expand_by_dict(g).terms())
            weights = [monomial_weight(m) for m, _ in g.terms()]
            seen["mixed"] += len(set(weights)) > 1
            seen["heaviest not first"] += weights[0] < max(weights)
            seen["unit"] += 0 in weights
        assert min(seen.values()) >= 5, seen

    @pytest.mark.parametrize(
        "text, packed",
        [
            ("0", True),
            ("1", True),
            ("e1([1,2]) + e1([1])^4", True),  # the heavier monomial second
            ("3*e1([1,1,1,1,1,1,1,1,1,1,2]) - e1([1])^3*e3([1,2]) + e12([1]) - 2", True),
            ("e1([1,1,1,1,1,1,1,1,1,1,1,2]) + e1([1])", False),  # weight 13
            ("9223372036854775807*e2([1]) - 9223372036854775807*e1([1,2])", True),
            ("9223372036854775808*e2([1])", False),  # bound 2**63
            # e1([1])^2 expands to 2*[1,1] + [2]: bounds 2**63 + 1 and 2**63 - 1
            ("4611686018427387904*e1([1])^2 - e3([1])", False),
            ("4611686018427387903*e1([1])^2 - e3([1])", True),
        ],
    )
    def test_expand_route(self, text, packed):
        g = parse_generator_polynomial(text)
        assert self.packs(g) == packed
        assert typed(g.expand().terms()) == typed(_expand_by_dict(g).terms())

    def test_express_element_matches_dict(self):
        rng = random.Random(43)
        comps = [()] + nonempty_up_to(6)
        seen = {"mixed": 0, "unit": 0}
        for _ in range(150):
            el = QSymmElement({c: rng.randint(-9, 9) for c in rng.sample(comps, rng.randint(1, 8))})
            gens = [(express(c) if c else _UNIT, q) for c, q in el.terms()]
            assert _packed_sum(gens, _polynomial_vector, _MONOMIALS) is not None
            g = express_element(el)
            assert typed(g.terms()) == typed(_express_by_dict(gens).terms())
            assert expand(g) == el
            seen["mixed"] += len({sum(c) for c, _ in el.terms()}) > 1
            seen["unit"] += () in dict(el.terms())
        assert min(seen.values()) >= 10, seen

    @pytest.mark.parametrize(
        "terms, packed",
        [
            ({(1,) * 10 + (2,): 3, (1, 1): -1, (): 2}, True),  # weight 12
            ({(1,) * 11 + (2,): 1, (): 2}, False),  # weight 13
            ({(1,): 2**63 - 1, (2,): 1}, True),
            ({(1,): 2**63, (2,): 1}, False),  # bound 2**63
        ],
    )
    def test_express_element_route(self, terms, packed):
        el = QSymmElement(terms)
        gens = [(express(c) if c else _UNIT, q) for c, q in el.terms()]
        assert (_packed_sum(gens, _polynomial_vector, _MONOMIALS) is not None) == packed
        g = express_element(el)
        assert typed(g.terms()) == typed(_express_by_dict(gens).terms())
        assert expand(g) == el

    @pytest.mark.parametrize("basis", [_COMPOSITIONS, _MONOMIALS])
    def test_pack_round_trip_at_slot_limits(self, basis):
        keys = list(enumerate_compositions(4) if basis == _COMPOSITIONS else enumerate_generator_monomials(4))
        big = 2**63 - 1
        terms = {keys[0]: -big, keys[3]: big, keys[4]: -1, keys[-1]: big}
        packed = _pack(terms, 4, basis)
        assert packed[2] == big
        out, weights = _packed_sum([(None, 1)], lambda _: packed, basis)
        assert weights == 1
        assert typed(out.items()) == typed(terms.items())
        assert _pack({keys[1]: 2**63}, 4, basis) == (4, None, 2**63)


class TestEnumeration:
    def test_weight_two(self):
        monos = enumerate_generator_monomials(2)
        assert set(monos) == {
            make_monomial([((1,), 1), ((1,), 1)]),
            make_monomial([((1,), 2)]),
        }

    def test_weight_three(self):
        monos = enumerate_generator_monomials(3)
        assert set(monos) == {
            make_monomial([((1,), 1)] * 3),
            make_monomial([((1,), 1), ((1,), 2)]),
            make_monomial([((1,), 3)]),
            make_monomial([((1, 2), 1)]),
        }

    def test_weight_four_contains(self):
        monos = set(enumerate_generator_monomials(4))
        assert len(monos) == 8
        assert make_monomial([((1, 3), 1)]) in monos
        assert make_monomial([((1, 1, 2), 1)]) in monos
        assert make_monomial([((1,), 1), ((1, 2), 1)]) in monos

    def test_counts_match_compositions(self):
        for w in range(1, 11):
            assert len(enumerate_generator_monomials(w)) == 2 ** (w - 1)

    def test_homogeneous(self):
        for w in range(1, 8):
            for m in enumerate_generator_monomials(w):
                assert monomial_weight(m) == w


class TestDeterminant:
    def test_examples(self):
        assert det_bareiss([[3]]) == 3
        assert det_bareiss([[1, 2], [3, 4]]) == -2
        assert det_bareiss([[0, 1], [1, 0]]) == -1  # needs a row swap
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_against_cofactor_expansion(self):
        rng = random.Random(23)
        for n in range(1, 7):
            for _ in range(12):
                m = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
                assert det_bareiss(m) == cofactor_det(m)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            det_bareiss([[1, 2]])


def unit_pivot_det(m):
    return _det_unit_pivot([{j: v for j, v in enumerate(row) if v} for row in m])


class TestUnitPivotDeterminant:
    def test_random_sparse_against_references(self):
        rng = random.Random(31)
        singular = 0
        for n in range(1, 9):
            for _ in range(15):
                density = rng.choice([0.2, 0.4, 0.7])
                m = [
                    [rng.choice([-3, -2, -1, 1, 1, 2]) if rng.random() < density else 0 for _ in range(n)]
                    for _ in range(n)
                ]
                if n >= 2 and rng.random() < 0.25:
                    i, j = rng.sample(range(n), 2)
                    m[i] = [2 * v for v in m[j]]
                expected = cofactor_det(m) if n <= 7 else det_bareiss(m)
                singular += expected == 0
                assert unit_pivot_det(m) == expected == det_bareiss(m)
        assert singular > 0

    def test_no_unit_entry_falls_back_to_bareiss(self):
        assert unit_pivot_det([[2, 3], [3, 5]]) == 1
        assert unit_pivot_det([[1, 0, 0], [0, 2, 3], [0, 3, 5]]) == 1
        # one unit pivot, then a 2x2 block without a unit entry
        m = [[2, 1, 0], [0, 2, 3], [4, 3, 5]]
        assert unit_pivot_det(m) == cofactor_det(m) == 14

    def test_permutation_sign(self):
        rng = random.Random(7)
        for n in range(1, 9):
            for _ in range(5):
                perm = list(range(n))
                rng.shuffle(perm)
                m = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
                assert unit_pivot_det(m) == det_bareiss(m) == cofactor_det(m)

    def test_empty_matrix(self):
        assert unit_pivot_det([]) == 1 == det_bareiss([])

    def test_singular_with_empty_column(self):
        assert unit_pivot_det([[1, 0], [1, 0]]) == 0
        assert unit_pivot_det([[1, 1, 0], [1, 1, 0], [0, 1, 1]]) == 0

    def test_certificate_matrices(self):
        for generators, max_weight in (("elementary", 9), ("product", 5)):
            for w in range(1, max_weight + 1):
                cert = freeness_certificate(w, generators)
                det = unit_pivot_det(cert.matrix)
                assert det == cert.determinant == det_bareiss(cert.matrix)
                if w <= 4:
                    assert det == cofactor_det([list(row) for row in cert.matrix])


class TestCertificates:
    def test_weight_one(self):
        cert = freeness_certificate(1)
        assert cert.size == 1
        assert cert.matrix == ((1,),)
        assert cert.determinant == 1

    def test_weight_two_matrix(self):
        cert = freeness_certificate(2)
        assert cert.monomial_count == cert.composition_count == 2
        assert cert.determinant in (1, -1)
        # rows are wll-descending: [1,1] then [2]
        assert cert.row_order == ((1, 1), (2,))
        flat = sorted(v for row in cert.matrix for v in row)
        assert flat == [0, 1, 1, 2]

    def test_unimodular_through_weight_eight(self):
        for w in range(1, 9):
            cert = freeness_certificate(w)
            assert cert.monomial_count == 2 ** (w - 1)
            assert cert.composition_count == 2 ** (w - 1)
            assert cert.determinant in (1, -1)

    def test_unimodular_at_weights_nine_and_ten(self):
        for w in (9, 10):
            cert = freeness_certificate(w)
            assert cert.monomial_count == cert.composition_count == 2 ** (w - 1)
            assert len(cert.matrix) == cert.size
            assert all(len(row) == cert.size for row in cert.matrix)
            assert cert.determinant in (1, -1)

    def test_express_matches_linear_solve(self):
        # two independent routes to the generator coordinates of a composition
        for w in range(1, 6):
            cert = freeness_certificate(w)
            matrix = [list(row) for row in cert.matrix]
            col_index = {m: j for j, m in enumerate(cert.col_order)}
            for i, beta in enumerate(cert.row_order):
                rhs = [1 if r == i else 0 for r in range(cert.size)]
                solution = solve_exact(matrix, rhs)
                assert all(x.denominator == 1 for x in solution)
                g = express(beta)
                vector = [0] * cert.size
                for mono, c in g.terms():
                    vector[col_index[mono]] = c
                assert [int(x) for x in solution] == vector

    def test_certificate_json_shape(self):
        cert = freeness_certificate(3)
        obj = certificate_to_json_obj(cert)
        assert obj["weight"] == 3
        assert obj["size"] == 4
        assert obj["determinant"] in ("1", "-1")
        assert len(obj["matrix"]) == 16
        assert all(isinstance(v, str) for v in obj["matrix"])
        text = json.dumps(obj)
        assert json.loads(text) == obj


class TestProductFormGenerators:
    def test_first_three(self):
        alpha = (1, 2)
        assert product_gen(1, alpha) == gen(alpha, 1)
        assert product_gen(2, alpha) == -gen(alpha, 2)
        assert product_gen(3, alpha) == gen(alpha, 3) - gen(alpha, 1) * gen(alpha, 2)

    def test_triangular_through_five(self):
        for alpha in [(1,), (1, 2)]:
            for n in range(1, 6):
                g = product_gen(n, alpha)
                top = make_monomial([(alpha, n)])
                sign = 1 if n % 2 == 1 else -1
                assert g.coefficient(top) == sign
                for mono, _ in g.terms():
                    if mono != top:
                        assert len(mono) >= 2  # products of lower generators only

    def test_order_independence(self):
        # the k-th factor coefficient is settled at step k
        assert product_gen(3, (1,), order=3) == product_gen(3, (1,), order=6)

    def test_product_relation_holds(self):
        # multiplying the factors back together recovers the alternating
        # lambda-power series termwise
        alpha = (1,)
        order = 5
        gens = [product_gen(n, alpha, order=order) for n in range(1, order + 1)]
        series = [GeneratorPolynomial.one()] + [GeneratorPolynomial.zero()] * order
        for k, g_k in enumerate(gens, start=1):
            for j in range(order, k - 1, -1):
                series[j] = series[j] - g_k * series[j - k]
        for k in range(1, order + 1):
            expected = gen(alpha, k) if k % 2 == 0 else -gen(alpha, k)
            assert series[k] == expected

    def test_product_certificates_unimodular(self):
        for w in range(1, 6):
            cert = freeness_certificate(w, "product")
            assert cert.determinant in (1, -1)

    def test_requires_elementary_lyndon(self):
        with pytest.raises(ValueError):
            product_gen(2, (2,))


class TestTextAndJson:
    def test_format_examples(self):
        g = gen((1,), 1) * gen((1,), 2) - gen((1, 2), 1) - 3 * gen((1,), 3)
        assert format_generator_polynomial(g) == "-e1([1,2]) - 3*e3([1]) + e1([1])*e2([1])"
        assert format_generator_polynomial(GeneratorPolynomial.zero()) == "0"
        assert format_generator_polynomial(GeneratorPolynomial.one()) == "1"
        assert format_monomial(make_monomial([((1,), 1), ((1,), 1)])) == "e1([1])^2"

    def test_parse_round_trip(self):
        rng = random.Random(29)
        corpus = [express(beta) for beta in nonempty_up_to(5)]
        corpus += [GeneratorPolynomial.zero(), GeneratorPolynomial.one()]
        corpus += [product_gen(n, (1,)) for n in range(1, 6)]
        for g in corpus:
            assert parse_generator_polynomial(format_generator_polynomial(g)) == g

    def test_parse_examples(self):
        g = parse_generator_polynomial("e1([1])*e2([1]) - e1([1,2]) - 3*e3([1])")
        assert g == express((2, 1))
        assert parse_generator_polynomial("2") == GeneratorPolynomial.one() * 2

    @pytest.mark.parametrize("bad", ["e\u0661([1])", "e1([1])^\u00b2"])
    def test_parse_rejects_non_ascii_digits(self, bad):
        with pytest.raises(ParseError):
            parse_generator_polynomial(bad)

    @pytest.mark.parametrize("power", [0, -1, True, False, 2.0, "2", None])
    def test_json_rejects_powers_the_formatter_never_writes(self, power):
        obj = [{"factors": [{"alpha": [1], "n": 1, "power": power}], "coeff": "1"}]
        with pytest.raises(ValueError, match="factor power"):
            generator_polynomial_from_json_obj(obj)

    def test_json_power_defaults_to_one(self):
        obj = [{"factors": [{"alpha": [1], "n": 1}], "coeff": "1"}]
        assert generator_polynomial_from_json_obj(obj) == gen((1,), 1)

    def test_json_round_trip(self):
        for beta in nonempty_up_to(5):
            g = express(beta)
            obj = generator_polynomial_to_json_obj(g)
            assert generator_polynomial_from_json_obj(json.loads(json.dumps(obj))) == g
