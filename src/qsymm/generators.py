"""Free polynomial generators for the quasi-shuffle algebra.

The generators are the lambda powers of elementary Lyndon compositions
(Lyndon words whose parts have gcd 1). A formal monomial is a multiset of
(base composition, lambda index) factors; expanding a monomial multiplies
the corresponding lambda powers out in the quasi-shuffle algebra.

`express` inverts the expansion constructively: given any composition it
returns the unique integer generator polynomial whose expansion is exactly
that composition. The rewriting recurses along the weight-length-lex order:

- a Lyndon word is the content-gcd power sum of its reduced word, which the
  Newton identities turn into a generator polynomial;
- a word with several Lyndon factor blocks is, up to wll-smaller terms, the
  quasi-shuffle product of its leading block and its tail;
- a pure power of a Lyndon word is, up to wll-smaller terms, the expansion
  of an elementary-composed-with-power-sum polynomial.

Each branch asserts at runtime that the remainder really drops in the wll
order; a violation raises ConsistencyError rather than producing a wrong
answer. Per-weight freeness certificates record the transition matrix from
generator monomials to compositions and its exact determinant, which must
be +1 or -1.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterable

from ._sparse import (
    SparseTerms,
    _format_terms,
    _iadd_scaled,
    _parse_json_coeff,
    _parse_terms,
)
from .compositions import (
    Composition,
    cfl_factorize,
    composition,
    concat_power,
    content_gcd,
    enumerate_compositions,
    enumerate_elementary_lyndon,
    format_composition,
    is_lyndon,
    _format_cached,
    _parse_composition_at,
    _scan_int,
    _skip_ws,
    reduce_content,
    weight,
    wll_key,
)
from .elements import QSymmElement, _weight_table
from .errors import ConsistencyError, ParseError
from .lambda_ops import elementary_gen
from .symmetric import E_BASIS, SymmPoly, e_compose_p, _p_in_e

# A factor is (base composition, lambda index); a monomial is a tuple of
# factors sorted by (weight, base, index), one entry per power.
Factor = tuple[Composition, int]
GeneratorMonomial = tuple[Factor, ...]

UNIT_MONOMIAL: GeneratorMonomial = ()


def _factor_key(f: Factor) -> tuple[int, Composition, int]:
    alpha, n = f
    return (weight(alpha), alpha, n)


def make_monomial(factors: Iterable[Factor]) -> GeneratorMonomial:
    """Canonicalize a factor multiset, validating every base composition."""
    canon: list[Factor] = []
    for alpha, n in factors:
        alpha = composition(alpha)
        if not alpha or not is_lyndon(alpha) or content_gcd(alpha) != 1:
            raise ValueError(f"{format_composition(alpha)} is not an elementary Lyndon word")
        if type(n) is not int or n < 1:
            raise ValueError(f"lambda index must be >= 1 and an int, got {n!r}")
        canon.append((alpha, n))
    return tuple(sorted(canon, key=_factor_key))


def monomial_weight(m: GeneratorMonomial) -> int:
    return sum(n * weight(alpha) for alpha, n in m)


@lru_cache(maxsize=4096)
def _monomial_sort_key(m: GeneratorMonomial) -> tuple:
    return tuple(_factor_key(f) for f in m)


@lru_cache(maxsize=None)
def _expand_monomial(m: GeneratorMonomial) -> QSymmElement:
    if not m:
        return QSymmElement.one()
    acc = _expand_monomial(m[:-1])
    alpha, n = m[-1]
    return acc * elementary_gen(n, alpha)


def _int_coeff(c: int) -> int:
    if not isinstance(c, int) or isinstance(c, bool):
        raise ValueError("generator polynomial coefficients must be int")
    return c


class GeneratorPolynomial(SparseTerms):
    """Integer polynomial in the formal generators, canonical form."""

    __slots__ = ()
    _order = staticmethod(_monomial_sort_key)
    _descending = True

    @staticmethod
    def _combine(m1: GeneratorMonomial, m2: GeneratorMonomial) -> GeneratorMonomial:
        return tuple(sorted(m1 + m2, key=_factor_key))

    @staticmethod
    def _scalar(c: int) -> int:
        if not isinstance(c, int) or isinstance(c, bool):
            raise TypeError(f"generator polynomials scale only by int, not {type(c).__name__}")
        return c

    def __init__(self, terms: dict[GeneratorMonomial, int] | Iterable[tuple[GeneratorMonomial, int]] = ()):
        self._init_terms(terms, make_monomial, _int_coeff)

    @classmethod
    def generator(cls, alpha: Iterable[int], n: int) -> "GeneratorPolynomial":
        return cls._from_dict({make_monomial([(alpha, n)]): 1})

    def coefficient(self, m: GeneratorMonomial) -> int:
        return self._terms.get(m, 0)

    def __str__(self) -> str:
        return format_generator_polynomial(self)

    def expand(self) -> QSymmElement:
        """Multiply the generators out in the quasi-shuffle algebra."""
        packed = _packed_sum(self._terms.items(), _expansion_vector, _COMPOSITIONS)
        if packed is None:
            return _expand_by_dict(self)
        # weights descending, each in canonical order: the element's order
        return QSymmElement._from_sorted(packed[0])


def _expand_by_dict(g: GeneratorPolynomial) -> QSymmElement:
    acc: dict[Composition, int] = {}
    for mono, c in g._terms.items():
        _iadd_scaled(acc, _expand_monomial(mono)._terms, c)
    return QSymmElement._from_dict(acc)


def expand(g: GeneratorPolynomial) -> QSymmElement:
    return g.expand()


def _symm_to_generators(f: SymmPoly, alpha: Composition) -> GeneratorPolynomial:
    """Reinterpret an integer e-basis polynomial with e_j read as the j-th
    generator of `alpha`."""
    if f.basis != E_BASIS:
        raise ValueError("need an e-basis polynomial")
    terms: dict[GeneratorMonomial, int] = {}
    for part, q in f.terms():
        if q.denominator != 1:
            raise ValueError(f"non-integer coefficient {q} cannot enter a generator polynomial")
        terms[make_monomial([(alpha, j) for j in part])] = q
    return GeneratorPolynomial._from_dict(terms)


def express(beta: Iterable[int]) -> GeneratorPolynomial:
    """The unique generator polynomial expanding to the given composition.

    Raises ConsistencyError if a rewriting remainder fails to be strictly
    wll-smaller, which the theory rules out.
    """
    beta = composition(beta)
    if not beta:
        raise ValueError("express needs a nonempty composition")
    return _express(beta)


@lru_cache(maxsize=None)
def _express(beta: Composition) -> GeneratorPolynomial:
    # Recurse through `express`, never `_express`: the benchmark's tracer
    # counts every `express` call, memo hits included.
    if is_lyndon(beta):
        g = content_gcd(beta)
        alpha = reduce_content(beta)
        return _symm_to_generators(_p_in_e(g), alpha)
    factors = cfl_factorize(beta)
    if len(factors) >= 2:
        head_word, head_mult = factors[0]
        head = concat_power(head_word, head_mult)
        tail = beta[len(head):]
        candidate = express(head) * express(tail)
    else:
        lyndon, mult = factors[0]
        g = content_gcd(lyndon)
        alpha = reduce_content(lyndon)
        candidate = _symm_to_generators(e_compose_p(mult, g), alpha)
    return candidate - express_element(_remainder(candidate, beta))


def _remainder(candidate: GeneratorPolynomial, beta: Composition) -> QSymmElement:
    """expand(candidate) minus beta, verified strictly wll-smaller than beta."""
    rem = candidate.expand() - QSymmElement.monomial(beta)
    beta_key = wll_key(beta)
    for comp in rem.compositions():
        if wll_key(comp) >= beta_key:
            raise ConsistencyError(
                f"rewriting {format_composition(beta)} left the non-smaller "
                f"term {format_composition(comp)} in the remainder"
            )
    return rem


def express_element(a: QSymmElement) -> GeneratorPolynomial:
    """Linear extension of `express` to integral elements."""
    if not a.is_integral():
        raise ValueError("express_element needs an integral element")
    # one `express` call per term, which the benchmark's tracer counts
    gens = [(express(comp) if comp else _UNIT, q) for comp, q in a.terms()]
    packed = _packed_sum(gens, _polynomial_vector, _MONOMIALS)
    if packed is None:
        return _express_by_dict(gens)
    terms, weights = packed
    # monomial order is not weight-first: e1([1,2]) precedes e1([1])^4
    return GeneratorPolynomial._from_sorted(terms) if weights < 2 else GeneratorPolynomial._from_dict(terms)


def _express_by_dict(gens: Iterable[tuple[GeneratorPolynomial, int]]) -> GeneratorPolynomial:
    acc: dict[GeneratorMonomial, int] = {}
    for g, q in gens:
        _iadd_scaled(acc, g._terms, q)
    return GeneratorPolynomial._from_dict(acc)


# -- packed weight vectors ----------------------------------------------------
# At weight w <= _PACK_MAX_WEIGHT a vector in either basis, the 2**(w-1)
# compositions or the 2**(w-1) generator monomials of weight w, is one int
# whose slots, one per key in canonical order, are signed _SLOT_BITS-bit
# fields: Kronecker substitution, as the oracle packs exponent vectors. A
# linear combination of such vectors is one big-int multiply-add per term,
# run in C, and each weight's sum is decoded once, straight into canonical
# order. Each vector keeps its largest |coefficient| q, so a sum knows the
# bound sum |c| * q on every slot; a sum over any heavier weight, or with a
# bound that reaches 2**(_SLOT_BITS-1), takes the dict loops instead.

_SLOT_BITS = 64
_SLOT_LIMIT = 1 << (_SLOT_BITS - 1)
# slots are read and written through array("q"); no packing without it
_PACK_MAX_WEIGHT = 12 if array("q").itemsize * 8 == _SLOT_BITS else -1
_COMPOSITIONS, _MONOMIALS = 0, 1  # the bases, as `_slot_table` holds them
_UNIT = GeneratorPolynomial._from_sorted({UNIT_MONOMIAL: 1})


@lru_cache(maxsize=_PACK_MAX_WEIGHT + 1)
def _slot_table(w: int) -> tuple[int, tuple[dict[Composition, int], dict[GeneratorMonomial, int]]]:
    """The bias 2**(_SLOT_BITS-1) in every slot of weight w, and each
    basis's {key: slot}, keys in canonical order."""
    comps = _weight_table(w)[0]
    monos = enumerate_generator_monomials(w) if w else [UNIT_MONOMIAL]
    bias = int.from_bytes(_SLOT_LIMIT.to_bytes(_SLOT_BITS // 8, sys.byteorder) * len(comps), sys.byteorder)
    return bias, ({c: i for i, c in enumerate(comps)}, {m: i for i, m in enumerate(monos)})


def _pack(terms: dict, w: int, basis: int) -> tuple[int, int | None, int]:
    """(weight, packed vector or None where it cannot hold the nonzero
    weight-w terms, largest |coefficient|), built in O(slots): an array's
    two's-complement digits, read as one int, made signed by the bias."""
    top = max(map(abs, terms.values()))
    if w > _PACK_MAX_WEIGHT or top >= _SLOT_LIMIT:
        return w, None, top
    bias, bases = _slot_table(w)
    slots = bases[basis]
    vals = array("q", bytes(len(slots) * _SLOT_BITS // 8))
    for key, q in terms.items():
        vals[slots[key]] = q
    return w, (int.from_bytes(vals, sys.byteorder) ^ bias) - bias, top


@lru_cache(maxsize=4096)
def _expansion_vector(m: GeneratorMonomial) -> tuple[int, int | None, int]:
    """`_pack` of a generator monomial's expansion."""
    return _pack(_expand_monomial(m)._terms, monomial_weight(m), _COMPOSITIONS)


@lru_cache(maxsize=4096)
def _polynomial_vector(g: GeneratorPolynomial) -> tuple[int, int | None, int]:
    """`_pack` of a nonzero homogeneous generator polynomial, such as
    `express(beta)`."""
    return _pack(g._terms, monomial_weight(next(iter(g._terms))), _MONOMIALS)


def _packed_sum(pairs: Iterable[tuple], vector: Callable, basis: int) -> tuple[dict, int] | None:
    """The sum of c * vector(key) over the (key, c) pairs as (terms with
    weights descending, each weight in canonical order; the number of
    weights), or None where the packed vectors cannot hold it."""
    sums: dict[int, list[int]] = {}
    for key, c in pairs:
        w, vec, top = vector(key)
        if vec is None:
            return None
        s = sums.get(w)
        if s is None:
            sums[w] = [c * vec, abs(c) * top]
        else:
            s[0] += c * vec
            s[1] += abs(c) * top
    out: dict = {}
    for w in sorted(sums, reverse=True):
        total, bound = sums[w]
        if bound >= _SLOT_LIMIT:
            return None
        bias, bases = _slot_table(w)
        keys = bases[basis]
        # the biased sum has every digit in [0, 2**_SLOT_BITS); flipping each
        # digit's top bit leaves its two's complement, which array("q") reads
        vals = array("q", ((total + bias) ^ bias).to_bytes(len(keys) * _SLOT_BITS // 8, sys.byteorder))
        out.update(zip(compress(keys, vals), filter(None, vals)))
    return out, len(sums)


def enumerate_generator_monomials(w: int) -> list[GeneratorMonomial]:
    """All generator monomials of total weight `w`, in the canonical
    descending monomial order (there are 2**(w-1) of them)."""
    if w < 1:
        raise ValueError("weight must be >= 1")
    symbols: list[Factor] = []
    for alpha in enumerate_elementary_lyndon(w):
        for n in range(1, w // weight(alpha) + 1):
            symbols.append((alpha, n))
    symbols.sort(key=_factor_key)
    sym_weight = [n * weight(alpha) for alpha, n in symbols]

    found: list[GeneratorMonomial] = []

    def pick(start: int, remaining: int, acc: list[Factor]) -> None:
        if remaining == 0:
            found.append(tuple(acc))
            return
        for j in range(start, len(symbols)):
            if sym_weight[j] <= remaining:
                acc.append(symbols[j])
                pick(j, remaining - sym_weight[j], acc)
                acc.pop()

    pick(0, w, [])
    found.sort(key=_monomial_sort_key.__wrapped__, reverse=True)  # one-off: spare the memo
    return found


# -- exact determinants and certificates -------------------------------------


def det_bareiss(rows: Iterable[Iterable[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        row_k = a[k]
        pivot = row_k[k]
        tail_k = row_k[k + 1:]
        for i in range(k + 1, n):
            row_i = a[i]
            factor = row_i[k]
            if factor:
                row_i[k + 1:] = [(x * pivot - factor * y) // prev for x, y in zip(row_i[k + 1:], tail_k)]
            elif pivot != prev:
                # a zero factor only rescales the row by pivot/prev
                row_i[k + 1:] = [x * pivot // prev for x in row_i[k + 1:]]
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def _det_unit_pivot(rows: list[dict[int, int]]) -> int:
    """Exact determinant of the square matrix whose i-th row is `rows[i]`,
    given sparsely as {column: nonzero entry} with columns in range(n).

    Eliminates with +1/-1 pivots only, so no step divides: each step takes
    the column with the fewest nonzeros that holds a unit entry and, in it,
    the shortest row with a unit entry (a Markowitz-style choice that keeps
    fill-in low). Whatever is left without a unit pivot goes to
    `det_bareiss`. The dicts are consumed.
    """
    n = len(rows)
    col_rows: dict[int, set[int]] = {c: set() for c in range(n)}
    for r, row in enumerate(rows):
        for c in row:
            col_rows[c].add(r)
    det = 1
    pivot_col: dict[int, int] = {}
    while col_rows:
        best_col = -1
        best_len = n + 1
        for c, rs in col_rows.items():
            length = len(rs)
            if not length:
                return 0
            if length < best_len and any(rows[r][c] in (1, -1) for r in rs):
                best_col, best_len = c, length
                if length == 1:
                    break
        if best_col < 0:
            break
        c = best_col
        rs = col_rows.pop(c)
        r = min((s for s in rs if rows[s][c] in (1, -1)), key=lambda s: (len(rows[s]), s))
        rs.discard(r)
        pivot_row = rows[r]
        p = pivot_row.pop(c)
        det *= p
        pivot_col[r] = c
        for k in pivot_row:
            col_rows[k].discard(r)
        for s in rs:
            row = rows[s]
            f = row.pop(c) * p
            for k, v in pivot_row.items():
                x = row.get(k, 0) - f * v
                if x:
                    if k not in row:
                        col_rows[k].add(s)
                    row[k] = x
                else:
                    del row[k]
                    col_rows[k].discard(s)
            if not row:
                return 0
    if col_rows:
        rest_rows = [r for r in range(n) if r not in pivot_col]
        rest_cols = sorted(col_rows)
        for r, c in zip(rest_rows, rest_cols):
            pivot_col[r] = c
        det *= det_bareiss([[rows[r].get(c, 0) for c in rest_cols] for r in rest_rows])
    return _permutation_sign(pivot_col) * det


def _permutation_sign(perm: dict[int, int]) -> int:
    """Sign of a permutation given as {i: perm(i)}."""
    sign = 1
    seen: set[int] = set()
    for start in perm:
        if start in seen:
            continue
        length = 0
        i = start
        while i not in seen:
            seen.add(i)
            i = perm[i]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


@dataclass(frozen=True)
class FreenessCertificate:
    """Per-weight witness that the generator monomials form a basis: the
    transition matrix to the composition basis with determinant +1 or -1."""

    weight: int
    determinant: int
    row_order: tuple[Composition, ...]
    col_order: tuple[GeneratorMonomial, ...]
    matrix: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.row_order)

    @property
    def composition_count(self) -> int:
        return len(self.row_order)

    @property
    def monomial_count(self) -> int:
        return len(self.col_order)

    @property
    def is_unimodular(self) -> bool:
        return self.determinant in (1, -1)


def _expand_product_form(mono: GeneratorMonomial) -> QSymmElement:
    acc = QSymmElement.one()
    for alpha, n in mono:
        acc = acc * product_gen(n, alpha).expand()
    return acc


_GENERATOR_EXPANDERS: dict[str, Callable[[GeneratorMonomial], QSymmElement]] = {
    "elementary": _expand_monomial,
    "product": _expand_product_form,
}


@lru_cache(maxsize=None)
def freeness_certificate(w: int, generators: str = "elementary") -> FreenessCertificate:
    """Build the weight-`w` transition matrix and its exact determinant.

    `generators` selects which family labels the columns: the lambda-power
    generators themselves ("elementary") or their product-form counterparts
    ("product"). Raises ConsistencyError if the matrix is not square or the
    determinant is not +1 or -1, since either would falsify freeness.
    """
    if w < 1:
        raise ValueError("weight must be >= 1")
    try:
        expander = _GENERATOR_EXPANDERS[generators]
    except KeyError:
        raise ValueError(f"unknown generator family {generators!r}") from None
    comps = enumerate_compositions(w)
    monos = enumerate_generator_monomials(w)
    if len(comps) != len(monos):
        raise ConsistencyError(
            f"weight {w}: {len(monos)} generator monomials vs "
            f"{len(comps)} compositions; transition matrix is not square"
        )
    index = {comp: i for i, comp in enumerate(comps)}
    columns: list[dict[int, int]] = []
    for mono in monos:
        el = expander(mono)
        if not el.is_integral() or not el.is_homogeneous(w):
            raise ConsistencyError(f"expansion of {format_monomial(mono)} is malformed")
        columns.append({index[comp]: int(q) for comp, q in el.terms()})
    rows = [[0] * len(columns) for _ in comps]
    for j, col in enumerate(columns):
        for i, q in col.items():
            rows[i][j] = q
    matrix = tuple(map(tuple, rows))
    # the columns of the matrix are the rows of its transpose, which has
    # the same determinant
    det = _det_unit_pivot(columns)
    if det not in (1, -1):
        raise ConsistencyError(
            f"weight {w} transition matrix has determinant {det}, not +1/-1"
        )
    return FreenessCertificate(
        weight=w,
        determinant=det,
        row_order=tuple(comps),
        col_order=tuple(monos),
        matrix=matrix,
    )


# -- the product-form generator family ---------------------------------------


@lru_cache(maxsize=None)
def _product_gens_up_to(alpha: Composition, order: int) -> tuple[GeneratorPolynomial, ...]:
    """Solve prod_{k<=N} (1 - g_k t^k) = sum_k (-1)^k e_k(alpha) t^k for the
    g_k, term by term; the relation is triangular with unit diagonal."""
    series = [GeneratorPolynomial.one()] + [GeneratorPolynomial.zero()] * order
    gens: list[GeneratorPolynomial] = []
    for k in range(1, order + 1):
        e_k = GeneratorPolynomial.generator(alpha, k)
        target = e_k if k % 2 == 0 else -e_k
        g_k = series[k] - target
        gens.append(g_k)
        for j in range(order, k - 1, -1):
            series[j] = series[j] - g_k * series[j - k]
    return tuple(gens)


def product_gen(n: int, alpha: Iterable[int], order: int | None = None) -> GeneratorPolynomial:
    """The n-th generator of the product form: the factor coefficients g_k in
    prod (1 - g_k t^k) matching the alternating lambda-power series of
    `alpha`.

    Each g_n is the n-th lambda-power generator up to sign plus products of
    lower ones, so the two families generate the same ring. The defining
    product relation is the only reading under which that triangularity
    holds; it is asserted by the test suite rather than assumed.
    """
    alpha = composition(alpha)
    if order is None:
        order = n
    if not 1 <= n <= order:
        raise ValueError("need 1 <= n <= order")
    make_monomial([(alpha, 1)])  # validates alpha is elementary Lyndon
    return _product_gens_up_to(alpha, order)[n - 1]


# -- text and JSON forms ------------------------------------------------------


def _factor_powers(m: GeneratorMonomial) -> list[list]:
    """The distinct factors of a monomial in order, each as [factor, power];
    a canonical monomial holds equal factors next to each other."""
    runs: list[list] = []
    for f in m:
        if runs and runs[-1][0] == f:
            runs[-1][1] += 1
        else:
            runs.append([f, 1])
    return runs


def format_monomial(m: GeneratorMonomial) -> str:
    """Render like `e1([1])^2*e2([1,2])`; the unit monomial is `1`."""
    if not m:
        return "1"
    return "*".join([
        f"e{n}({_format_cached(alpha)})" + (f"^{power}" if power > 1 else "")
        for (alpha, n), power in _factor_powers(m)
    ])


def format_generator_polynomial(g: GeneratorPolynomial) -> str:
    """Render like `e1([1])*e2([1]) - e1([1,2]) - 3*e3([1])`; zero is `0`."""
    return _format_terms((c, format_monomial(mono) if mono else "") for mono, c in g.terms())


def parse_generator_polynomial(s: str) -> GeneratorPolynomial:
    """Parse the text form produced by `format_generator_polynomial`."""
    # Factors are checked by `make_monomial` and coefficients are scanned
    # ints, so no second pass through the public constructor is needed.
    return GeneratorPolynomial._from_dict(
        _parse_terms(s, _scan_int, _parse_monomial, UNIT_MONOMIAL, "generator polynomial")
    )


def _parse_monomial(s: str, pos: int) -> tuple[GeneratorMonomial, int]:
    factors: list[Factor] = []
    while True:
        factor, power, pos = _parse_factor(s, pos)
        factors.extend([factor] * power)
        pos = _skip_ws(s, pos)
        if pos < len(s) and s[pos] == "*":
            pos = _skip_ws(s, pos + 1)
            continue
        return make_monomial(factors), pos


def _parse_factor(s: str, pos: int) -> tuple[Factor, int, int]:
    if pos >= len(s) or s[pos] != "e":
        raise ParseError("expected a generator factor like e2([1,2])", pos)
    pos += 1
    n, pos = _scan_int(s, pos, "a lambda index after 'e'")
    if pos >= len(s) or s[pos] != "(":
        raise ParseError("expected '(' in generator factor", pos)
    alpha, pos = _parse_composition_at(s, pos + 1)
    pos = _skip_ws(s, pos)
    if pos >= len(s) or s[pos] != ")":
        raise ParseError("expected ')' in generator factor", pos)
    pos += 1
    power = 1
    if pos < len(s) and s[pos] == "^":
        pos += 1
        start = pos
        power, pos = _scan_int(s, pos, "an exponent after '^'")
        if power < 1:
            raise ParseError("exponent must be >= 1", start)
    return (alpha, n), power, pos


def generator_polynomial_to_json_obj(g: GeneratorPolynomial) -> list[dict]:
    """JSON form mirroring the element format, with factor arrays."""
    return [
        {
            "factors": [
                {"alpha": list(alpha), "n": n, "power": power}
                for (alpha, n), power in _factor_powers(mono)
            ],
            "coeff": str(c),
        }
        for mono, c in g.terms()
    ]


def generator_polynomial_from_json_obj(obj: list[dict]) -> GeneratorPolynomial:
    """Inverse of `generator_polynomial_to_json_obj`; a coefficient must be a
    decimal integer string with an optional leading `-`, and a power an int
    >= 1, as the text form's `^` takes."""
    acc: dict[GeneratorMonomial, int] = {}
    for entry in obj:
        factors: list[Factor] = []
        for f in entry["factors"]:
            power = f.get("power", 1)
            if type(power) is not int or power < 1:
                raise ValueError(f"factor power must be an int >= 1, got {power!r}")
            factors.extend([(composition(f["alpha"]), f["n"])] * power)
        mono = make_monomial(factors)
        acc[mono] = acc.get(mono, 0) + _parse_json_coeff(entry["coeff"], _scan_int)
    return GeneratorPolynomial._from_dict(acc)


def certificate_to_json_obj(cert: FreenessCertificate) -> dict:
    """Certificate JSON: weight, size, determinant and matrix entries as
    decimal strings, row-major."""
    return {
        "weight": cert.weight,
        "size": cert.size,
        "determinant": str(cert.determinant),
        "row_order": [list(c) for c in cert.row_order],
        "col_order": [
            [{"alpha": list(alpha), "n": n} for alpha, n in mono]
            for mono in cert.col_order
        ],
        "matrix": [str(v) for row in cert.matrix for v in row],
    }
