"""Independent brute-force oracles used by the test suite.

Everything here deliberately avoids the library's own fast paths: Lyndon
factorizations are found by exhaustive splitting, determinants by cofactor
expansion, and linear systems by plain rational elimination, so agreement
with the package is evidence rather than tautology.
"""

from fractions import Fraction
from itertools import product
from math import gcd


def brute_compositions(w):
    """Every composition of weight `w`, one per choice of the places among
    the w - 1 gaps between w units where a part ends, in no set order."""
    if w == 0:
        return [()]
    out = []
    for ends in product((False, True), repeat=w - 1):
        parts, run = [], 1
        for end in ends:
            if end:
                parts.append(run)
                run = 1
            else:
                run += 1
        out.append(tuple(parts + [run]))
    return out


def brute_generator_monomials(w):
    """Every generator monomial of weight `w`, found by a recursive search.

    A symbol is (alpha, n) with alpha an elementary Lyndon composition, one
    strictly smaller than each of its proper rotations with parts of gcd 1,
    and n * |alpha| <= w. A monomial is a tuple of symbols ascending by
    (|alpha|, alpha, n), and the list runs in the canonical order: its
    monomials' tuples of those keys, descending.
    """

    def key(symbol):
        alpha, n = symbol
        return (sum(alpha), alpha, n)

    symbols = sorted(
        (
            (alpha, n)
            for v in range(1, w + 1)
            for alpha in brute_compositions(v)
            if all(alpha < alpha[i:] + alpha[:i] for i in range(1, len(alpha)))
            and gcd(*alpha) == 1
            for n in range(1, w // v + 1)
        ),
        key=key,
    )
    found = []

    def go(start, rest, acc):
        if rest == 0:
            found.append(tuple(acc))
            return
        for j in range(start, len(symbols)):
            alpha, n = symbols[j]
            if n * sum(alpha) <= rest:
                acc.append(symbols[j])
                go(j, rest - n * sum(alpha), acc)
                acc.pop()

    go(0, w, [])
    return sorted(found, key=lambda m: [key(f) for f in m], reverse=True)


def brute_lyndon_factorizations(word, is_lyndon):
    """All ways to split `word` into a lex-nonincreasing sequence of Lyndon
    factors, by exhaustive search over split points."""
    results = []

    def go(rest, acc):
        if not rest:
            results.append(list(acc))
            return
        for cut in range(1, len(rest) + 1):
            head = rest[:cut]
            if not is_lyndon(head):
                continue
            if acc and not head <= acc[-1]:
                continue
            acc.append(head)
            go(rest[cut:], acc)
            acc.pop()

    go(tuple(word), [])
    return results


def cofactor_det(rows):
    """Determinant by Laplace expansion along the first row; works over any
    commutative ring whose elements support + - *."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = None
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total


def solve_exact(matrix, rhs):
    """Solve M x = rhs over the rationals by Gaussian elimination; raises if
    the matrix is singular."""
    n = len(matrix)
    aug = [[Fraction(v) for v in row] + [Fraction(rhs[i])] for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [aug[r][n] for r in range(n)]


def rational_rank(rows):
    """Rank of a rational matrix by elimination."""
    work = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    cols = len(work[0]) if work else 0
    row = 0
    for col in range(cols):
        pivot = next((r for r in range(row, len(work)) if work[r][col] != 0), None)
        if pivot is None:
            continue
        work[row], work[pivot] = work[pivot], work[row]
        pv = work[row][col]
        work[row] = [v / pv for v in work[row]]
        for r in range(len(work)):
            if r != row and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[row])]
        row += 1
        rank += 1
    return rank
