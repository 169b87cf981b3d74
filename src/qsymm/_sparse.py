"""Sparse term maps, the storage shared by the package's polynomial classes.

`QSymmElement`, `GeneratorPolynomial`, `SymmPoly` and `TruncatedPolynomial`
are finite combinations of keys (compositions, generator monomials,
partitions, exponent vectors) with exact coefficients. Each stores one dict
from key to coefficient with

- no zero coefficients,
- keys in the class's canonical order, fixed at construction,
- integer-valued `Fraction`s stored as `int`.

`SparseTerms` implements the arithmetic once on that dict. A subclass says
how a key is validated, how keys are ordered, how two keys combine in a
product, and whether it carries a tag (a basis or a variable count) that
must match between operands.

Public constructors validate every key and coefficient. Results the
package builds itself go through `_from_dict`, which trusts its keys and
only orders them, drops zeros and collapses integral fractions. The text
forms share one formatter and one term-list parser, both defined here; the
parsers check every key and coefficient as they scan, so they build their
results through `_from_dict` too.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Union

from .compositions import _scan_int
from .errors import ParseError

Scalar = Union[int, Fraction]


def _norm_scalar(q: Scalar) -> Scalar:
    """Collapse integer-valued fractions to int; ints stay ints."""
    if isinstance(q, Fraction):
        if q.denominator == 1:
            return q.numerator
        return q
    if isinstance(q, int) and not isinstance(q, bool):
        return q
    raise TypeError(f"coefficients must be int or Fraction, got {type(q).__name__}")


def _iadd_scaled(acc: dict, terms: Mapping, c: Scalar = 1) -> dict:
    """Add `c` times `terms` into `acc` in place, dropping keys that cancel.
    `terms` must hold no zero coefficients. Returns `acc`."""
    if not c:
        return acc
    get = acc.get
    if c == 1:
        for key, q in terms.items():
            s = get(key, 0) + q
            if s:
                acc[key] = s
            else:
                del acc[key]
    else:
        for key, q in terms.items():
            s = get(key, 0) + q * c
            if s:
                acc[key] = s
            else:
                del acc[key]
    return acc


class SparseTerms:
    """An immutable sparse combination of keys with exact coefficients."""

    __slots__ = ("_terms", "_hash")

    # Subclasses override these. `_order` is the sort key of the canonical
    # order (None: the keys' own order), descending if `_descending`.
    # `_combine(k1, k2)` is the key of a product of two basis keys. A tagged
    # subclass adds a `_tag` slot, and `_TAG_MISMATCH` formats the error for
    # operands whose tags differ.
    _tag = None
    _order: Callable | None = None
    _descending = False
    _combine: Callable
    _TAG_MISMATCH: str

    @staticmethod
    def _scalar(q: Scalar) -> Scalar:
        """Validate a caller's coefficient or scalar factor."""
        return _norm_scalar(q)

    def _init_terms(
        self,
        terms: Mapping | Iterable[tuple],
        check_key: Callable | None = None,
        check_coeff: Callable | None = None,
    ) -> None:
        """Public construction: validate every key and coefficient; repeated
        keys are summed."""
        check_coeff = check_coeff or self._scalar
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict = {}
        for key, q in items:
            if check_key is not None:
                key = check_key(key)
            acc[key] = acc.get(key, 0) + check_coeff(q)
        self._terms = self._canonical(acc)
        self._hash = None

    @classmethod
    def _canonical(cls, terms: Mapping) -> dict:
        out = {}
        for key in sorted(terms, key=cls._order, reverse=cls._descending):
            q = terms[key]
            if type(q) is not int and q.denominator == 1:
                q = q.numerator
            if q:
                out[key] = q
        return out

    @classmethod
    def _from_dict(cls, terms: Mapping, tag=None):
        """Trusted construction from keys the package built itself: orders
        the keys, drops zeros and collapses integral fractions, but validates
        nothing."""
        obj = object.__new__(cls)
        if tag is not None:
            obj._tag = tag
        obj._terms = cls._canonical(terms)
        obj._hash = None
        return obj

    def _unit(self):
        """The multiplicative unit with this object's tag."""
        return self._from_dict({(): 1}, self._tag)

    @classmethod
    def zero(cls, *tag):
        return cls(*tag)

    @classmethod
    def one(cls, *tag):
        return cls(*tag)._unit()

    # -- inspection ----------------------------------------------------------

    def terms(self) -> Iterator[tuple]:
        """Iterate (key, coefficient) pairs in canonical order."""
        return iter(self._terms.items())

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_integral(self) -> bool:
        """True iff every coefficient is an integer."""
        return all(q.denominator == 1 for q in self._terms.values())

    # -- arithmetic ----------------------------------------------------------

    def _check_tag(self, other: "SparseTerms") -> None:
        if self._tag != other._tag:
            raise ValueError(self._TAG_MISMATCH.format(self._tag, other._tag))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_tag(other)
        return self._from_dict(_iadd_scaled(dict(self._terms), other._terms), self._tag)

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check_tag(other)
        return self._from_dict(_iadd_scaled(dict(self._terms), other._terms, -1), self._tag)

    def __neg__(self):
        return self._from_dict({key: -q for key, q in self._terms.items()}, self._tag)

    def _scale(self, other: Scalar):
        q = self._scalar(other)
        return self._from_dict({key: v * q for key, v in self._terms.items()} if q else {}, self._tag)

    def _product(self, other: "SparseTerms"):
        """Pairwise product: combine the keys, multiply the coefficients."""
        self._check_tag(other)
        combine = self._combine
        acc: dict = {}
        for k1, q1 in self._terms.items():
            for k2, q2 in other._terms.items():
                key = combine(k1, k2)
                acc[key] = acc.get(key, 0) + q1 * q2
        return self._from_dict(acc, self._tag)

    def __mul__(self, other):
        if isinstance(other, type(self)):
            return self._product(other)
        return self._scale(other)

    def __rmul__(self, other: Scalar):
        return self.__mul__(other)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._unit()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._tag == other._tag and self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._tag, tuple(self._terms.items())))
        return self._hash

    def __repr__(self) -> str:
        return f"{type(self).__name__}({str(self)!r})"


# -- text forms ----------------------------------------------------------------


def _format_terms(pairs: Iterable[tuple[Scalar, str]]) -> str:
    """Join (coefficient, body) pairs as `body - 2*body + 1/2*body`. A unit
    term has body "" and prints its bare magnitude; no terms print `0`."""
    chunks = []
    for q, body in pairs:
        mag = -q if q < 0 else q
        text = (body if mag == 1 else f"{mag}*{body}") if body else str(mag)
        chunks.append(f" - {text}" if q < 0 else f" + {text}")
    if not chunks:
        return "0"
    out = "".join(chunks)
    return ("-" if out[1] == "-" else "") + out[3:]


def _scan_rational(s: str, pos: int) -> tuple[Scalar, int]:
    num, pos = _scan_int(s, pos)
    if pos < len(s) and s[pos] == "/":
        pos += 1
        den, end = _scan_int(s, pos, "a denominator")
        if den == 0:
            raise ParseError("zero denominator", pos)
        return _norm_scalar(Fraction(num, den)), end
    return num, pos


def _parse_terms(
    s: str,
    scan_coeff: Callable[[str, int], tuple[Scalar, int]],
    parse_body: Callable[[str, int], tuple[object, int]],
    unit_key: object,
    name: str,
    parse_bare: Callable[[str, int], tuple[object, int]] | None = None,
) -> dict:
    """Parse signed terms `coeff*body`, `body` or a bare `coeff` (a multiple
    of `unit_key`), joined by `+` or `-`; `0` alone is the zero literal.
    `parse_bare` parses a body that no coefficient precedes (default
    `parse_body`). Returns the summed {key: coefficient} map."""
    if s.strip() == "0":
        return {}
    parse_bare = parse_bare or parse_body
    # Whitespace is skipped inline: this loop runs once per term.
    n = len(s)
    pos = 0
    while pos < n and s[pos].isspace():
        pos += 1
    acc: dict = {}
    get = acc.get
    first = True
    while pos < n:
        sign = 1
        if s[pos] in "+-":
            sign = -1 if s[pos] == "-" else 1
            pos += 1
            while pos < n and s[pos].isspace():
                pos += 1
        elif not first:
            raise ParseError("expected '+' or '-' between terms", pos)
        first = False
        if pos < n and "0" <= s[pos] <= "9":  # an ASCII digit, as `_scan_int` reads
            coeff, pos = scan_coeff(s, pos)
            while pos < n and s[pos].isspace():
                pos += 1
            if pos < n and s[pos] == "*":
                pos += 1
                while pos < n and s[pos].isspace():
                    pos += 1
                key, pos = parse_body(s, pos)
            else:
                key = unit_key
            acc[key] = get(key, 0) + sign * coeff
        else:
            key, pos = parse_bare(s, pos)
            acc[key] = get(key, 0) + sign
        while pos < n and s[pos].isspace():
            pos += 1
    if first:
        raise ParseError(f"empty {name} literal", 0)
    return acc


def _parse_json_coeff(text: object, scan_coeff: Callable[[str, int], tuple[Scalar, int]]) -> Scalar:
    """A JSON coefficient string: an optional `-`, then exactly what
    `scan_coeff` reads in the text form, and nothing else."""
    if not isinstance(text, str):
        raise ParseError(f"coefficient must be a string, got {type(text).__name__}", 0)
    start = 1 if text.startswith("-") else 0
    q, pos = scan_coeff(text, start)
    if pos != len(text):
        raise ParseError(f"unexpected text in coefficient {text!r}", pos)
    return -q if start else q
