"""The four benchmark workloads: inputs, one pass, and its correctness check.

Each workload is a class with `make_inputs(seed)`, `run(qsymm, inputs)` and
`check(qsymm, inputs, out)`. `run` is the timed pass; `check` runs after the
timer stops and returns (attempted, failed). Inputs are built here with the
standard library only, so the package receives nothing but the generated
inputs.
"""

from __future__ import annotations

import random
import time
from array import array
from collections import Counter
from itertools import accumulate, combinations


def compositions_of(w: int) -> list[tuple[int, ...]]:
    if w == 0:
        return [()]
    return [(first,) + rest for first in range(1, w + 1) for rest in compositions_of(w - first)]


def attempt(fn, *args):
    """fn(*args), or None if it raised: a raised error is a failed result."""
    try:
        return fn(*args)
    except Exception:
        return None


class Certify:
    """`freeness_certificate(w)` for w = 1..10, cold."""

    weights = range(1, 11)

    def make_inputs(self, seed: int):
        return list(self.weights)

    def run(self, qsymm, weights):
        return [attempt(qsymm.freeness_certificate, w) for w in weights]

    def check(self, qsymm, weights, certs):
        failed = 0
        for w, cert in zip(weights, certs):
            n = 2 ** (w - 1)
            failed += cert is None or not (
                cert.determinant in (1, -1) and len(cert.matrix) == n and all(len(r) == n for r in cert.matrix)
            )
        return len(weights), failed


class Express:
    """`express(b)` and `expand` back, for every composition of weight <= 8."""

    max_weight = 8

    def make_inputs(self, seed: int):
        return [c for w in range(1, self.max_weight + 1) for c in compositions_of(w)]

    def run(self, qsymm, comps):
        return [attempt(lambda c: qsymm.expand(qsymm.express(c)), c) for c in comps]

    def check(self, qsymm, comps, expanded):
        failed = sum(el is None or dict(el.terms()) != {c: 1} for c, el in zip(comps, expanded))
        return len(comps), failed


class Verify:
    """`verify_all(7)`: every suite of the `verify-all` command."""

    max_weight = 7

    def make_inputs(self, seed: int):
        return self.max_weight

    def run(self, qsymm, max_weight):
        from qsymm.cli import verify_all

        return verify_all(max_weight)

    # The checks `verify_all(7)` gives, per identity. The workload must not
    # set its own denominator: a suite that is dropped or shrunk would make
    # the pass faster and still pass, so every missing or extra check fails.
    expected = {
        "oracle/product": 576,
        "oracle/frobenius": 381,
        "oracle/lambda": 28,
        "express-round-trip": 127,
        "lambda-leading-term": 14,
        "plethysm-compat": 85,
        "exp-identity": 8,
        "certificate": 7,
        "certificate-product-form": 5,
    }

    def check(self, qsymm, max_weight, checks):
        got = Counter(c.identity for c in checks)
        miscounted = sum(abs(got[k] - self.expected.get(k, 0)) for k in got.keys() | self.expected.keys())
        attempted = max(len(checks), sum(self.expected.values()))
        return attempted, sum(c.status != "pass" for c in checks) + miscounted


# -- session ------------------------------------------------------------------
#
# A closed loop: one client sends the next request when the previous answer
# is back. Operands come from seeded pools, so requests repeat and hit the
# package's memos while the rest miss (see `Session.zipf_exponent`). Small
# elements (1-4 terms) multiply pairwise; two large ones (9-11 terms, so at
# least 81 term pairs, above the package's switch to the trie product at 64)
# take the trie product, and the large pool yields more distinct pairs per
# pass than the product cache holds, so it evicts.

SMALL_TERMS = (1, 4)
LARGE_TERMS = (9, 11)
ELEMENT_COMPS = [c for w in range(1, 5) for c in compositions_of(w)]  # weight <= 4
LAMBDA_COMPS = [c for w in range(1, 3) for c in compositions_of(w)]  # weight <= 2
EXPRESS_COMPS = [c for w in range(1, 8) for c in compositions_of(w)]  # weight <= 7
GENERATOR_FACTORS = [(1,), (1, 2), (1, 3), (1, 1, 2)]  # elementary Lyndon, weight <= 4
COEFFS = (-3, -2, -1, 1, 2, 3)
LAMBDA_COEFFS = (-4, -3, -2, -1, 1, 2, 3, 4)

# Request mix: (kind, share). No record of real traffic exists, so each of
# the five single-request commands of the CLI (product, lambda, frobenius,
# express, expand) gets the same share, and a product request takes two
# small or two large operands with equal odds: "mul" is the pairwise path,
# "mul_large" the trie path and its cache.
MIX = (
    ("frobenius", 0.2),
    ("lambda", 0.2),
    ("express", 0.2),
    ("expand", 0.2),
    ("mul", 0.1),
    ("mul_large", 0.1),
)

EVAL_VARS = 8  # >= the longest composition in any answer, so evaluation is faithful


def format_terms(terms: list[tuple[int, str]]) -> str:
    """`[(coeff, body)]` in the package's `a + b - 2*c` text form."""
    out = []
    for i, (c, body) in enumerate(terms):
        mag = abs(c)
        text = body if mag == 1 else f"{mag}*{body}"
        if i == 0:
            out.append(("-" if c < 0 else "") + text)
        else:
            out.append(("- " if c < 0 else "+ ") + text)
    return " ".join(out)


def comp_text(c: tuple[int, ...]) -> str:
    return "[" + ",".join(map(str, c)) + "]"


def random_element(rng: random.Random, comps, terms: tuple[int, int], coeffs) -> dict:
    return {c: rng.choice(coeffs) for c in rng.sample(comps, rng.randint(*terms))}


def element_text(el: dict) -> str:
    return format_terms([(q, comp_text(c)) for c, q in el.items()])


def random_generator_poly(rng: random.Random) -> dict:
    """1-4 terms; each monomial a multiset of (alpha, n) of weight <= 6."""
    poly: dict = {}
    for _ in range(rng.randint(1, 4)):
        budget = rng.randint(1, 6)
        mono = []
        while budget:
            choices = [(a, n) for a in GENERATOR_FACTORS for n in range(1, 5) if n * sum(a) <= budget]
            a, n = rng.choice(choices)
            mono.append((a, n))
            budget -= n * sum(a)
        poly[tuple(sorted(mono))] = rng.randint(1, 5) * rng.choice((-1, 1))
    return poly


def generator_poly_text(poly: dict) -> str:
    return format_terms([(c, "*".join(f"e{n}({comp_text(a)})" for a, n in mono)) for mono, c in poly.items()])


def zipf_draws(rng: random.Random, items: list, k: int, exponent: float) -> list:
    """k draws with Zipf(exponent) popularity over a seeded permutation of
    `items`; exponent 0 draws uniformly."""
    items = items[:]
    rng.shuffle(items)
    return rng.choices(items, cum_weights=list(accumulate(r**-exponent for r in range(1, len(items) + 1))), k=k)


class Session:
    """A warm single-client stream of small library requests."""

    warmup = 1000
    requests = 6000  # enough large-operand pairs (about 600) to overflow the product cache
    pool_sizes = {"small": 2000, "large": 1500, "lambda": 600, "expand": 800}
    # Popularity of each pool. Large operands are skewed, Zipf(1), so hot
    # pairs repeat and hit the product cache while the tail overflows it.
    # The other pools are drawn uniformly: their repeats come from the pool
    # size, and the median latency does not hang on which few items a seed
    # makes hottest (under Zipf(1) the top express request alone would be
    # 18 % of its kind, enough to move op_p50_ms by a fifth between seeds).
    zipf_exponent = {"small": 0.0, "large": 1.0, "lambda": 0.0, "express": 0.0, "expand": 0.0}

    def make_inputs(self, seed: int):
        rng = random.Random(seed)
        sizes = self.pool_sizes
        data: dict = {}  # request text -> the value it was made from

        def pool(values, fmt):
            texts = [fmt(v) for v in values]
            data.update(zip(texts, values))
            return list(dict.fromkeys(texts))

        items = {
            "small": pool([random_element(rng, ELEMENT_COMPS, SMALL_TERMS, COEFFS)
                           for _ in range(sizes["small"])], element_text),
            "large": pool([random_element(rng, ELEMENT_COMPS, LARGE_TERMS, COEFFS)
                           for _ in range(sizes["large"])], element_text),
            "lambda": pool([random_element(rng, LAMBDA_COMPS, (1, 2), LAMBDA_COEFFS)
                            for _ in range(sizes["lambda"])], element_text),
            "express": pool([{c: 1} for c in EXPRESS_COMPS], element_text),
            "expand": pool([random_generator_poly(rng) for _ in range(sizes["expand"])], generator_poly_text),
        }
        total = self.warmup + self.requests
        # Exact shares, shuffled: the mix does not vary with the seed.
        kinds = [kind for kind, share in MIX for _ in range(round(share * total))]
        rng.shuffle(kinds)
        draws = {name: iter(zipf_draws(rng, pool, 2 * total, self.zipf_exponent[name]))
                 for name, pool in items.items()}
        stream = []
        for kind in kinds:
            if kind == "mul":
                stream.append(("mul", next(draws["small"]), next(draws["small"])))
            elif kind == "mul_large":
                stream.append(("mul", next(draws["large"]), next(draws["large"])))
            elif kind == "lambda":
                stream.append((kind, rng.randint(1, 4), next(draws["lambda"])))
            elif kind == "frobenius":
                stream.append((kind, rng.randint(1, 4), next(draws["small"])))
            else:
                stream.append((kind, next(draws[kind])))
        return seed, stream, data

    def run(self, qsymm, inputs):
        stream = inputs[1]
        q = qsymm

        def mul(a, b):
            return q.format_element(q.parse_element(a) * q.parse_element(b))

        def lam(n, a):
            return q.lambda_n(n, q.parse_element(a))

        def frob(n, a):
            return q.frobenius(n, q.parse_element(a))

        def express(c):
            return q.format_generator_polynomial(q.express(q.parse_composition(c)))

        def expand(g):
            return q.format_element(q.expand(q.parse_generator_polynomial(g)))

        handlers = {"mul": mul, "lambda": lam, "frobenius": frob, "express": express, "expand": expand}
        answers: dict = {}
        mismatched = 0
        latencies = array("q")
        clock = time.perf_counter_ns
        for i, (kind, *args) in enumerate(stream):
            t0 = clock()
            answer = attempt(handlers[kind], *args)
            t1 = clock()
            if i >= self.warmup:
                latencies.append(t1 - t0)
            if answer is not None and not isinstance(answer, str):
                answer = tuple(answer.terms())
            mismatched += answers.setdefault((kind, *args), answer) != answer
        return latencies, answers, mismatched

    def check(self, qsymm, inputs, out):
        """Evaluate each distinct answer at a seeded point; a repeated
        request must have returned the same answer as its first instance."""
        seed, stream, data = inputs
        _, answers, mismatched = out
        ev = Evaluator(random.Random(f"check-{seed}"), EVAL_VARS)
        failed = mismatched
        for (kind, *args), answer in answers.items():
            if answer is None:
                failed += 1
                continue
            if kind == "express":
                got = attempt(lambda: ev.generator_poly(parse_generator_text(answer)))
            elif isinstance(answer, str):
                got = attempt(ev.element_text, answer)
            else:
                got = ev.element(answer)
            if kind == "mul":
                want = ev.element(data[args[0]].items()) * ev.element(data[args[1]].items())
            elif kind == "lambda":
                want = ev.lambda_n(args[0], data[args[1]])
            elif kind == "frobenius":
                want = ev.element((tuple(args[0] * p for p in c), q) for c, q in data[args[1]].items())
            elif kind == "express":
                want = ev.element(data[args[0]].items())
            else:
                want = ev.generator_poly(data[args[0]].items())
            failed += got != want
        return len(stream), failed

    def properties(self, qsymm, inputs) -> dict:
        """Input properties the cache behaviour depends on, per pass. The
        distinct trie-product pairs are counted by the traced run
        (`elements.mul_trie_distinct`), where the package's own path choice
        is observed."""
        from qsymm import elements, lambda_ops

        _, stream, _ = inputs
        seen: set = set()
        repeats = 0
        lambda_operands: set = set()
        for i, key in enumerate(stream):
            if i >= self.warmup:
                repeats += key in seen
            seen.add(key)
            if key[0] == "lambda":
                lambda_operands.add(key[2])
        return {
            "repeat_share": repeats / (len(stream) - self.warmup),
            "distinct_requests": len(seen),
            "product_cache_cap": elements._PRODUCT_CACHE_CAP,
            "distinct_lambda_operands": len(lambda_operands),
            "series_memo_cap": lambda_ops._memo_cap(),
        }


# -- evaluation oracle for the session check ------------------------------------
#
# Every answer is evaluated at one seeded integer point in EVAL_VARS
# variables, using only this module's code: M_alpha(x) is the sum over
# strictly increasing index tuples, and lambda_t(M_alpha) is the product of
# (1 + m t) over those monomials m. EVAL_VARS is at least the length of any
# composition in an answer, so distinct elements have distinct images, and
# a wrong answer agrees at the random point with probability at most
# degree / 2**61 (Schwartz-Zippel).


class Evaluator:
    def __init__(self, rng: random.Random, k: int):
        self.x = [rng.randrange(2, 2**61) for _ in range(k)]
        self.k = k
        self._monomials: dict = {}
        self._values: dict = {}
        self._text_values: dict = {}

    def monomials(self, alpha: tuple[int, ...]) -> list[int]:
        vals = self._monomials.get(alpha)
        if vals is None:
            if len(alpha) > self.k:
                raise ValueError(f"composition {alpha} is longer than {self.k} variables")
            vals = []
            for idxs in combinations(range(self.k), len(alpha)):
                m = 1
                for i, p in zip(idxs, alpha):
                    m *= self.x[i] ** p
                vals.append(m)
            self._monomials[alpha] = vals
        return vals

    def composition(self, alpha: tuple[int, ...]) -> int:
        v = self._values.get(alpha)
        if v is None:
            v = self._values[alpha] = sum(self.monomials(alpha))
        return v

    def element(self, terms) -> int:
        return sum(q * self.composition(c) for c, q in terms)

    def element_text(self, text: str) -> int:
        """Value of an element in the package's text form."""
        total = 0
        for sign, body in _signed_bodies(text):
            coeff, _, comp = body.rpartition("*")
            if not comp.startswith("["):
                total += sign * int(comp)
                continue
            v = self._text_values.get(comp)
            if v is None:
                v = self._text_values[comp] = self.composition(_parse_comp(comp))
            total += sign * int(coeff or 1) * v
        return total

    def _series(self, alpha, n: int) -> list[int]:
        """lambda_t(M_alpha) = prod (1 + m t), truncated at t**n."""
        s = [1] + [0] * n
        for m in self.monomials(alpha):
            for j in range(n, 0, -1):
                s[j] += s[j - 1] * m
        return s

    def lambda_n(self, n: int, terms) -> int:
        """Coefficient of t**n in prod_i lambda_t(M_alpha_i) ** c_i."""
        total = [1] + [0] * n
        for c, q in terms.items():
            s = self._series(c, n)
            if q < 0:
                s = _series_inverse(s)
            for _ in range(abs(q)):
                total = _series_mul(total, s)
        return total[n]

    def elementary(self, alpha, n: int) -> int:
        return self._series(alpha, n)[n]

    def generator_poly(self, terms) -> int:
        total = 0
        for mono, c in terms:
            v = c
            for alpha, n in mono:
                v *= self.elementary(alpha, n)
            total += v
        return total


def _series_mul(a: list[int], b: list[int]) -> list[int]:
    n = len(a) - 1
    return [sum(a[i] * b[j - i] for i in range(j + 1)) for j in range(n + 1)]


def _series_inverse(s: list[int]) -> list[int]:
    """1 / s for a series with constant term 1."""
    inv = [1] + [0] * (len(s) - 1)
    for j in range(1, len(s)):
        inv[j] = -sum(s[i] * inv[j - i] for i in range(1, j + 1))
    return inv


# The package's text forms, parsed independently of the package: terms are
# separated by " + " / " - ", and a body holds no spaces.


def _signed_bodies(text: str):
    if text == "0":
        return
    toks = text.split(" ")
    first = toks[0]
    yield (-1, first[1:]) if first.startswith("-") else (1, first)
    for sign, body in zip(toks[1::2], toks[2::2]):
        yield (1 if sign == "+" else -1), body


def _parse_comp(text: str) -> tuple[int, ...]:
    inner = text[1:-1]
    return tuple(int(p) for p in inner.split(",")) if inner else ()


def parse_generator_text(text: str) -> list:
    terms = []
    for sign, body in _signed_bodies(text):
        chunks = body.split("*")
        coeff = 1
        if chunks[0].isdigit():
            coeff = int(chunks.pop(0))
        mono = []
        for f in chunks:
            head, _, power = f.partition("^")
            n, _, rest = head[1:].partition("(")
            mono.extend([(_parse_comp(rest[:-1]), int(n))] * int(power or 1))
        terms.append((tuple(mono), sign * coeff))
    return terms


WORKLOADS = {"certify": Certify, "express": Express, "verify": Verify, "session": Session}
