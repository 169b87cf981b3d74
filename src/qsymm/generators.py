"""Free polynomial generators for the quasi-shuffle algebra.

The generators are the lambda powers of elementary Lyndon compositions
(Lyndon words whose parts have gcd 1). A formal monomial is a multiset of
(base composition, lambda index) factors; expanding a monomial multiplies
the corresponding lambda powers out in the quasi-shuffle algebra.

`express` inverts the expansion constructively: given any composition it
returns the unique integer generator polynomial whose expansion is exactly
that composition. The rewriting recurses along the weight-length-lex order,
on the Lyndon factor blocks of the word; up to wll-smaller terms,
- one block l^k (k = 1 for a Lyndon word) is the expansion of e_k composed
  with the content-gcd power sum, in the generators of l's reduced word;
- several blocks are the quasi-shuffle product of the leading block and
  the tail.

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
from functools import cached_property, lru_cache
from itertools import compress, repeat
from math import prod
from typing import Callable, Iterable, Iterator, Sequence

from ._sparse import (
    SparseTerms,
    _format_terms,
    _iadd_scaled,
    _parse_json_coeff,
    _parse_terms,
)
from .compositions import (
    Composition,
    _check_index,
    cfl_factorize,
    composition,
    concat_power,
    content_gcd,
    enumerate_elementary_lyndon,
    format_composition,
    is_lyndon,
    _format_cached,
    _parse_composition_at,
    _scan_int,
    _skip_ws,
    _table,
    _weight_table,
    reduce_content,
    weight,
    wll_key,
    _TABLE_KEYS,
    _TABLE_MAX_WEIGHT,
)
from .elements import QSymmElement, Scalar, _mul_column
from .errors import ConsistencyError, ParseError
from .lambda_ops import elementary_gen
from .symmetric import e_compose_p

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
        _check_index(n, 1, "lambda index must be >= 1 and an int")
        canon.append((alpha, n))
    return tuple(sorted(canon, key=_factor_key))


def monomial_weight(m: GeneratorMonomial) -> int:
    return sum(n * weight(alpha) for alpha, n in m)


@lru_cache(maxsize=_TABLE_KEYS)
def _monomial_sort_key(m: GeneratorMonomial) -> tuple:
    return tuple(_factor_key(f) for f in m)


# The prefixes m[:-1] that columns (`_column`) multiply out, and the
# monomials of `expand` sums that the packed vectors cannot hold.
@lru_cache(maxsize=_TABLE_KEYS)
def _expand_monomial(m: GeneratorMonomial) -> QSymmElement:
    if not m:
        return QSymmElement.one()
    prefix, last = _column_operands(m)
    return prefix * last


def _column_operands(m: GeneratorMonomial) -> tuple[QSymmElement, QSymmElement]:
    """The two factors of a nonunit monomial's expansion: the memoized
    expansion of all its factors but the last, and the last's element."""
    alpha, n = m[-1]
    return _expand_monomial(m[:-1]), elementary_gen(n, alpha)


def _column(m: GeneratorMonomial, w: int, get_w: Callable) -> tuple[int, ...]:
    """A nonunit weight-w monomial's expansion, summed by code and read by
    `get_w`: table order, zeros included, then one 0. Raises ConsistencyError
    unless its operands' product is integral and weighs w throughout."""
    prefix, last = _column_operands(m)
    if not _product_fits(prefix._terms, last._terms, w):
        raise ConsistencyError(f"expansion of {format_monomial(m)} is malformed")
    return _mul_column(prefix, last, w, get_w)


def _product_fits(a: dict[Composition, Scalar], b: dict[Composition, Scalar], w: int) -> bool:
    """True where the product of two term maps in canonical form is integral
    and weighs w throughout, read off the operands: int coefficients only,
    checked in C, and first (heaviest) and last (lightest) terms that weigh
    w together. A zero operand fits."""
    if not a or not b:
        return True
    return (
        sum(next(iter(a))) + sum(next(iter(b))) == w == sum(next(reversed(a))) + sum(next(reversed(b)))
        and set(map(type, a.values())) | set(map(type, b.values())) <= {int}
    )


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
    (lyndon, mult), *rest = cfl_factorize(beta)
    if rest:
        head = concat_power(lyndon, mult)
        candidate = express(head) * express(beta[len(head):])
    else:
        # e_mult o p_g, integral, with e_j read as the j-th generator of the
        # reduced word alpha: a partition p's parts descend, a monomial's ascend
        alpha, f = reduce_content(lyndon), e_compose_p(mult, content_gcd(lyndon))
        candidate = GeneratorPolynomial._from_dict(
            {tuple((alpha, j) for j in reversed(p)): q for p, q in f.terms()}
        )
    return candidate - express_element(_remainder(candidate, beta))


def _remainder(candidate: GeneratorPolynomial, beta: Composition) -> QSymmElement:
    """expand(candidate) minus beta, verified strictly wll-smaller than beta."""
    rem = candidate.expand() - QSymmElement.monomial(beta)
    # terms are in wll-descending order, so only the leading one can fail
    lead = next(rem.compositions(), None)
    if lead is not None and wll_key(lead) >= wll_key(beta):
        raise ConsistencyError(
            f"rewriting {format_composition(beta)} left the non-smaller "
            f"term {format_composition(lead)} in the remainder"
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
_PACK_MAX_WEIGHT = _TABLE_MAX_WEIGHT if array("q").itemsize * 8 == _SLOT_BITS else -1
_COMPOSITIONS, _MONOMIALS = 0, 1  # the bases, as `_slot_table` holds them
_UNIT = GeneratorPolynomial._from_sorted({UNIT_MONOMIAL: 1})


@lru_cache(maxsize=_PACK_MAX_WEIGHT + 1)
def _slot_table(w: int) -> tuple[int, tuple[tuple[Composition, ...], list[GeneratorMonomial]]]:
    """The bias 2**(_SLOT_BITS-1) in every slot of weight w, and each
    basis's keys in canonical order (the compositions `_weight_table`'s)."""
    monos = enumerate_generator_monomials(w) if w else [UNIT_MONOMIAL]
    bias = int.from_bytes(_SLOT_LIMIT.to_bytes(_SLOT_BITS // 8, sys.byteorder) * len(monos), sys.byteorder)
    return bias, (_weight_table(w)[0], monos)


def _pack(values: Sequence[int], w: int) -> tuple[int, int | None, int]:
    """(weight, packed vector or None where it cannot hold the weight-w
    values, given in slot order, largest |value|): an array's two's-complement
    digits, read as one int, made signed by the bias."""
    top = max(map(abs, values))
    if top >= _SLOT_LIMIT:
        return w, None, top
    bias = _slot_table(w)[0]
    return w, (int.from_bytes(array("q", values), sys.byteorder) ^ bias) - bias, top


@lru_cache(maxsize=_TABLE_KEYS)
def _expansion_vector(m: GeneratorMonomial) -> tuple[int, int | None, int]:
    """`_pack` of a generator monomial's expansion, its `_column` read
    without the trailing 0; None above _PACK_MAX_WEIGHT."""
    w = monomial_weight(m)
    if w > _PACK_MAX_WEIGHT:
        return w, None, 0
    return _pack(_column(m, w, _weight_table(w)[1])[:-1] if m else (1,), w)


@lru_cache(maxsize=_TABLE_KEYS)
def _polynomial_vector(g: GeneratorPolynomial) -> tuple[int, int | None, int]:
    """`_pack` of a nonzero homogeneous generator polynomial, such as
    `express(beta)`, read in slot order; None above _PACK_MAX_WEIGHT."""
    w = monomial_weight(next(iter(g._terms)))
    if w > _PACK_MAX_WEIGHT:
        return w, None, 0
    return _pack([*map(g._terms.get, _slot_table(w)[1][_MONOMIALS], repeat(0))], w)


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
    descending monomial order (there are 2**(w-1) of them).

    One pass over the symbols (alpha, n), largest first: each symbol goes in
    front of every monomial of the weight it leaves over, so factors ascend
    and each weight's list is already canonical, in blocks by first factor.
    """
    _check_index(w, 1, "weight must be >= 1")
    symbols = sorted(
        ((alpha, n) for alpha in enumerate_elementary_lyndon(w) for n in range(1, w // weight(alpha) + 1)),
        key=_factor_key,
        reverse=True,
    )
    by_weight: list[list[GeneratorMonomial]] = [[UNIT_MONOMIAL]] + [[] for _ in range(w)]
    for sym in symbols:
        step = sym[1] * weight(sym[0])
        for r in range(step, w + 1):
            by_weight[r] += [(sym,) + m for m in by_weight[r - step]]
    return by_weight[w]


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


def _det_unit_pivot(rows: Sequence[tuple[Sequence[int], Sequence[int]]]) -> int:
    """Exact determinant of the square matrix whose i-th row is `rows[i]`,
    given sparsely as (ascending column indices, their nonzero entries) with
    columns in range(n). The rows are read, never modified.

    Eliminates with +1/-1 pivots only, so no step divides. It passes over
    the columns not yet eliminated in index order. A column that holds a
    unit entry is eliminated on its shortest row with a unit entry, lowest
    index first. A column with none waits for the next pass, since a later
    pivot may turn one of its entries into a unit. In the certificates the
    index order is the canonical order of the compositions, and taking the
    columns in it keeps the row-update work low. When a pass eliminates
    nothing, what is left goes to `det_bareiss`. Each column is indexed by
    one int whose bit r is set when row r has a nonzero there. A row is
    copied into a {column: entry} dict only when the elimination first
    reads it, and a pivot row's dict is dropped once its updates are done.

    Column 0 has no unit entry until column 1's pivot turns its 3 into 1:

    >>> _det_unit_pivot([((0, 1), (2, 1)), ((0, 1), (3, 1))])
    -1
    """
    n = len(rows)
    # a byte-OR per nonzero costs less than a big-int OR; then one int per column
    index = [bytearray((n + 7) >> 3) for _ in range(n)]
    for r, (cols, _) in enumerate(rows):
        byte, bit = r >> 3, 1 << (r & 7)
        for c in cols:
            index[c][byte] |= bit
    masks = [int.from_bytes(m, "little") for m in index]
    del index
    reached: list[dict[int, int] | None] = [None] * n  # the dicts of the rows read so far
    det = 1
    pivot_col: dict[int, int] = {}
    pending = list(range(n))
    while pending:
        deferred = []
        for c in pending:
            mask = masks[c]
            if not mask:
                return 0
            # the bits ascend, so a strict `<` keeps the lowest of the shortest rows
            r, best = -1, n + 1
            for s in _set_bits(mask):
                row = reached[s]
                if row is None:
                    row = reached[s] = dict(zip(*rows[s]))
                if row[c] in (1, -1) and len(row) < best:
                    r, best = s, len(row)
            if r < 0:
                deferred.append(c)
                continue
            bit = 1 << r
            pivot_row = reached[r]
            reached[r] = None  # no mask holds r after this pivot
            p = pivot_row.pop(c)
            det *= p
            pivot_col[r] = c
            for k in pivot_row:
                masks[k] ^= bit
            for s in _set_bits(mask ^ bit):
                row = reached[s]
                f = row.pop(c) * p
                row_bit = 1 << s
                for k, v in pivot_row.items():
                    x = row.get(k)
                    if x is None:  # fill-in
                        row[k] = -f * v
                        masks[k] ^= row_bit
                    elif x := x - f * v:
                        row[k] = x
                    else:  # cancellation
                        del row[k]
                        masks[k] ^= row_bit
                if not row:
                    return 0
        if len(deferred) == len(pending):
            break
        pending = deferred
    if pending:
        rest_rows = [r for r in range(n) if r not in pivot_col]
        for r, c in zip(rest_rows, pending):
            pivot_col[r] = c
        # a row that no pending column reaches is zero there
        det *= det_bareiss([[(reached[r] or {}).get(c, 0) for c in pending] for r in rest_rows])
    return _permutation_sign(pivot_col) * det


def _set_bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of `mask`, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


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
    transition matrix to the composition basis with determinant +1 or -1.

    The matrix is kept as its sparse columns, one per generator monomial:
    (row indices, entries), nonzero entries only. The dense `matrix` is
    built from them on first read and kept."""

    weight: int
    determinant: int
    row_order: tuple[Composition, ...]
    col_order: tuple[GeneratorMonomial, ...]
    columns: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @cached_property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """The dense matrix: row i for `row_order[i]`, column j for
        `col_order[j]`."""
        flat, size = self._row_major(0, int), self.size
        return tuple(tuple(flat[i:i + size]) for i in range(0, len(flat), size))

    def _row_major(self, zero: object, entry: Callable[[int], object]) -> list:
        """The entries row by row in one list: `zero` for each zero entry
        and `entry(q)` for each nonzero q."""
        size = self.size
        flat = [zero] * (size * size)
        for j, (index, entries) in enumerate(self.columns):
            for i, q in zip(index, entries):
                flat[i * size + j] = entry(q)
        return flat

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


def freeness_certificate(w: int, generators: str = "elementary") -> FreenessCertificate:
    """Build the weight-`w` transition matrix and its exact determinant.

    `generators` selects which family labels the columns: the lambda-power
    generators themselves ("elementary") or their product-form counterparts
    ("product"), whose columns are M_elem * T (`_product_columns`). Raises
    ConsistencyError if the matrix is not square, T is not unitriangular or
    the determinant is not +1 or -1, since each would falsify freeness.
    The result is not cached: a caller that reuses a certificate keeps it.
    """
    _check_index(w, 1, "weight must be >= 1")
    if generators not in ("elementary", "product"):
        raise ValueError(f"unknown generator family {generators!r}")
    comps, get_w = _table(w)
    monos = enumerate_generator_monomials(w)
    if len(comps) != len(monos):
        raise ConsistencyError(
            f"weight {w}: {len(monos)} generator monomials vs "
            f"{len(comps)} compositions; transition matrix is not square"
        )
    rows = tuple(range(len(comps)))  # one int object per row, shared by every column
    dense = (_column(mono, w, get_w) for mono in monos)
    sparse = [(tuple(compress(rows, v)), tuple(filter(None, v))) for v in dense]
    # the columns of the matrix are the rows of its transpose, which has
    # the same determinant
    det = _det_unit_pivot(sparse)
    if generators == "product":
        det *= _product_columns(monos, sparse, rows)
    if det not in (1, -1):
        raise ConsistencyError(
            f"weight {w} transition matrix has determinant {det}, not +1/-1"
        )
    return FreenessCertificate(
        weight=w,
        determinant=det,
        row_order=comps,
        col_order=tuple(monos),
        columns=tuple(sparse),
    )


# -- the product-form generator family ---------------------------------------


@lru_cache(maxsize=None)
def _product_gens_up_to(alpha: Composition, order: int) -> tuple[GeneratorPolynomial, ...]:
    """Solve prod_{k<=N} (1 - g_k t^k) = sum_k (-1)^k e_k(alpha) t^k for the
    g_k, term by term; the relation is triangular with unit diagonal."""
    series = [GeneratorPolynomial.one()] + [GeneratorPolynomial.zero()] * order
    gens: list[GeneratorPolynomial] = []
    for k in range(1, order + 1):
        g_k = series[k] - (-1) ** k * GeneratorPolynomial._from_sorted({((alpha, k),): 1})
        gens.append(g_k)
        for j in range(order, k - 1, -1):
            series[j] = series[j] - g_k * series[j - k]
    return tuple(gens)


def _product_columns(monos: list[GeneratorMonomial], columns: list, rows: tuple) -> int:
    """Turn the elementary family's sparse `columns` over `rows` into the
    product family's, M_elem * T, in place, and return det T. Column m of T,
    the g_n(alpha) of m's factors multiplied in elementary monomials, must be
    +1 or -1 times m plus only monomials with more factors: T is triangular
    by factor count. So the columns are rewritten by ascending factor count,
    and each reads only elementary columns, its own among them, which it
    then replaces."""
    col_of = {m: j for j, m in enumerate(monos)}
    det = 1
    for j in sorted(range(len(monos)), key=lambda j: len(monos[j])):
        mono = monos[j]
        t = prod((_product_gens_up_to(alpha, n)[-1] for alpha, n in mono), start=_UNIT)
        det *= t.coefficient(mono)  # stays +1 or -1 just when this diagonal entry is
        if det not in (1, -1) or any(m not in col_of or m != mono and len(m) <= len(mono) for m in t._terms):
            raise ConsistencyError(f"product form of {format_monomial(mono)} is not unitriangular")
        values = [0] * len(rows)
        for m, c in t._terms.items():
            for i, q in zip(*columns[col_of[m]]):
                values[i] += c * q
        columns[j] = (tuple(compress(rows, values)), tuple(filter(None, values)))
    return det


def product_gen(n: int, alpha: Iterable[int], order: int | None = None) -> GeneratorPolynomial:
    """The n-th generator of the product form: the factor coefficients g_k in
    prod (1 - g_k t^k) matching the alternating lambda-power series of
    `alpha`.

    Each g_n is the n-th lambda-power generator up to sign plus products of
    lower ones, so the two families generate the same ring. The defining
    product relation is the only reading under which that triangularity
    holds; every product-family certificate checks it rather than assumes
    it (`_product_columns`). The relation settles g_n at step n, so g_n
    does not depend on any `order` >= n.
    """
    alpha = composition(alpha)
    order = n if order is None else order
    _check_index(n, 1, "need 1 <= n <= order")
    _check_index(order, n, "need 1 <= n <= order")
    make_monomial([(alpha, 1)])  # validates alpha is elementary Lyndon
    return _product_gens_up_to(alpha, n)[n - 1]


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
            _check_index(power, 1, "factor power must be an int >= 1")
            factors.extend([(composition(f["alpha"]), f["n"])] * power)
        mono = make_monomial(factors)
        acc[mono] = acc.get(mono, 0) + _parse_json_coeff(entry["coeff"], _scan_int)
    return GeneratorPolynomial._from_dict(acc)


def certificate_to_json_obj(cert: FreenessCertificate) -> dict:
    """Certificate JSON: weight, size, determinant and matrix entries as
    decimal strings, row-major. The entries are written from the sparse
    columns, so no dense matrix is built."""
    return {
        "weight": cert.weight,
        "size": cert.size,
        "determinant": str(cert.determinant),
        "row_order": [list(c) for c in cert.row_order],
        "col_order": [
            [{"alpha": list(alpha), "n": n} for alpha, n in mono]
            for mono in cert.col_order
        ],
        "matrix": cert._row_major("0", str),
    }
