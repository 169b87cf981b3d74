"""Span and counter tracing of the qsymm layers, installed from outside.

The package has no trace hooks of its own, so `install` replaces public
functions and methods of `qsymm.*` with wrappers. A function is replaced in
every qsymm module that holds it (`from .x import f` copies the binding), so
recursive and cross-module calls go through the wrapper too.

Spans are kept in memory as four parallel arrays (name, start, end,
parent); self time is computed from them after the pass. Hot constructors
get a counter only, since a span per `__init__` would cost more than the
work it measures.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("l")
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.express_args: set = set()
        self.trie_pairs: set = set()
        self.matrices: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, before=None, after=None, when=None):
        """Wrap `fn` in a span. `before(args)` and `after(args, result)`
        update counters; `when(args)` false skips the span entirely."""
        nid = self._name_id(name)
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack = self._stack
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            if before is not None:
                before(args)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_function(self, module, attr: str, make) -> None:
        """Replace `module.attr` everywhere in the package by `make(orig)`."""
        orig = getattr(module, attr)
        wrapped = make(orig)
        for mod in _qsymm_modules():
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._restore.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def patch_method(self, cls, attr: str, make) -> None:
        orig = cls.__dict__[attr]
        self._restore.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per span name, and the seconds covered by root spans."""
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        self_ns = [e - s for s, e in zip(starts, ends)]
        covered = 0
        for i, p in enumerate(parents):
            if p >= 0:
                self_ns[p] -= ends[i] - starts[i]
            else:
                covered += ends[i] - starts[i]
        per_name = [0] * len(self.names)
        for nid, ns in zip(self.span_name, self_ns):
            per_name[nid] += ns
        return {n: per_name[i] / 1e9 for i, n in enumerate(self.names)}, covered / 1e9

    def matrix_stats(self) -> dict[str, float]:
        """Size, density and entry size of the largest matrix given to
        det_bareiss, and the widest entry over all of them."""
        n = nnz = max_bits = 0
        for rows in self.matrices:
            size = len(rows)
            if size >= n:
                n = size
                nnz = sum(1 for row in rows for v in row if v)
            max_bits = max(max_bits, max((abs(v).bit_length() for row in rows for v in row), default=0))
        return {
            "generators.matrix_n": n,
            "generators.matrix_nnz_ratio": nnz / (n * n) if n else 0.0,
            "generators.matrix_max_bits": max_bits,
        }


def _qsymm_modules() -> list:
    return [m for name, m in sorted(sys.modules.items()) if name == "qsymm" or name.startswith("qsymm.")]


def install() -> Tracer:
    """Wrap the layer boundaries of an imported qsymm package."""
    from qsymm import cli, compositions, elements, generators, lambda_ops, oracle, symmetric

    t = Tracer()
    counts = t.counts
    QSymmElement = elements.QSymmElement
    TruncatedPolynomial = oracle.TruncatedPolynomial

    def fn(module, attr, name, **hooks):
        t.patch_function(module, attr, lambda f: t.span(name, f, **hooks))

    def count_fn(module, attr, name):
        t.patch_function(module, attr, lambda f: t.counter(name, f))

    # compositions
    fn(compositions, "enumerate_compositions", "compositions.enumerate")
    count_fn(compositions, "cfl_factorize", "compositions.cfl_factorize_calls")

    # elements: `__mul__` of two elements calls `_mul_pairwise` or takes the
    # trie path, which calls `_mul_trie` only on a product-cache miss. So the
    # trie calls are the products that did not go pairwise, and the distinct
    # trie pairs are the distinct operands `_mul_trie` has seen.
    def mul_before(args):
        counts["elements.mul_calls"] += 1

    def mul_after(args, result):
        counts["elements.mul_terms_out"] += len(result)

    def trie_pairs(mul_trie):
        def wrapper(a, b):
            ha, hb = hash(a), hash(b)
            t.trie_pairs.add((ha, hb) if ha <= hb else (hb, ha))
            return mul_trie(a, b)

        return wrapper

    t.patch_method(QSymmElement, "__mul__", lambda f: t.span(
        "elements.mul", f, before=mul_before, after=mul_after,
        when=lambda args: isinstance(args[1], QSymmElement)))
    count_fn(elements, "_mul_pairwise", "elements.mul_pairwise_calls")
    t.patch_function(elements, "_mul_trie", trie_pairs)
    t.patch_method(QSymmElement, "__init__", lambda f: t.counter("elements.init_calls", f))
    fn(elements, "parse_element", "elements.parse")
    fn(elements, "format_element", "elements.format")

    # lambda_ops
    def series_before(args):
        counts["lambda_ops.lambda_series_calls"] += 1

    fn(lambda_ops, "lambda_series", "lambda_ops.lambda_series", before=series_before)
    fn(lambda_ops, "frobenius", "lambda_ops.frobenius")

    # symmetric
    t.patch_method(symmetric.SymmPoly, "__init__", lambda f: t.counter("symmetric.init_calls", f))
    fn(symmetric, "e_compose_p", "symmetric.e_compose_p")
    fn(symmetric, "evaluate_at", "symmetric.evaluate_at")

    # generators
    def bareiss_before(args):
        t.matrices.append(args[0])

    def express_before(args):
        counts["generators.express_calls"] += 1
        t.express_args.add(tuple(args[0]))

    fn(generators, "det_bareiss", "generators.det_bareiss", before=bareiss_before)
    fn(generators, "freeness_certificate", "generators.certificate")
    fn(generators, "enumerate_generator_monomials", "generators.enumerate_monomials")
    fn(generators, "express", "generators.express", before=express_before)
    t.patch_method(generators.GeneratorPolynomial, "expand", lambda f: t.span("generators.expand", f))
    t.patch_method(generators.GeneratorPolynomial, "__init__", lambda f: t.counter("generators.init_calls", f))
    fn(generators, "parse_generator_polynomial", "generators.parse")
    fn(generators, "format_generator_polynomial", "generators.format")

    # oracle
    fn(oracle, "oracle_suite", "oracle.oracle_suite")
    fn(oracle, "expand_element", "oracle.expand_element")
    t.patch_method(TruncatedPolynomial, "__mul__", lambda f: t.span(
        "oracle.poly_mul", f, when=lambda args: isinstance(args[1], TruncatedPolynomial)))
    t.patch_method(TruncatedPolynomial, "__str__", lambda f: t.span("oracle.str", f))
    t.patch_method(TruncatedPolynomial, "__init__", lambda f: t.counter("oracle.init_calls", f))

    # cli
    fn(cli, "verify_all", "cli.verify_all")
    return t


# Self-time spans reported under a metric name ending in `_s`.
SPAN_METRICS = {
    "generators.det_bareiss_s": "generators.det_bareiss",
    "generators.certificate_self_s": "generators.certificate",
    "generators.enumerate_monomials_s": "generators.enumerate_monomials",
    "compositions.enumerate_s": "compositions.enumerate",
    "elements.mul_s": "elements.mul",
    "lambda_ops.lambda_series_s": "lambda_ops.lambda_series",
    "lambda_ops.frobenius_s": "lambda_ops.frobenius",
    "generators.express_self_s": "generators.express",
    "generators.expand_s": "generators.expand",
    "symmetric.e_compose_p_s": "symmetric.e_compose_p",
    "oracle.oracle_suite_s": "oracle.oracle_suite",
    "oracle.expand_element_s": "oracle.expand_element",
    "oracle.poly_mul_s": "oracle.poly_mul",
    "oracle.str_s": "oracle.str",
    "symmetric.evaluate_at_s": "symmetric.evaluate_at",
    "cli.verify_all_s": "cli.verify_all",
    "elements.parse_s": "elements.parse",
    "elements.format_s": "elements.format",
    "generators.parse_s": "generators.parse",
    "generators.format_s": "generators.format",
}

COUNT_METRICS = (
    "elements.mul_calls",
    "elements.mul_terms_out",
    "lambda_ops.lambda_series_calls",
    "elements.init_calls",
    "generators.init_calls",
    "symmetric.init_calls",
    "oracle.init_calls",
    "generators.express_calls",
    "compositions.cfl_factorize_calls",
)


# Figures that must repeat exactly from pass to pass on the same inputs.
EXACT_METRICS = COUNT_METRICS + (
    "generators.matrix_n",
    "generators.matrix_nnz_ratio",
    "generators.matrix_max_bits",
    "generators.express_hit_ratio",
    "elements.mul_trie_calls",
    "elements.mul_trie_distinct",
)


def layer_metrics(t: Tracer, wall_s: float) -> dict[str, float]:
    """Every per-layer figure of one traced pass, zero where unused."""
    self_s, covered = t.self_times()
    out: dict[str, float] = {m: self_s.get(span, 0.0) for m, span in SPAN_METRICS.items()}
    for m in COUNT_METRICS:
        out[m] = t.counts.get(m, 0)
    out.update(t.matrix_stats())
    calls = t.counts.get("generators.express_calls", 0)
    out["generators.express_hit_ratio"] = (calls - len(t.express_args)) / calls if calls else 0.0
    out["elements.mul_trie_calls"] = out["elements.mul_calls"] - t.counts.get("elements.mul_pairwise_calls", 0)
    out["elements.mul_trie_distinct"] = len(t.trie_pairs)
    out["unattributed_s"] = max(wall_s - covered, 0.0)
    return out
