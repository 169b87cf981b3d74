"""The package's memo tables under concurrent use.

The product cache, the quasi-shuffle memo with its per-weight pair tables
and the lambda-series table are lru_caches shared by every thread of the
process. Threads that fill and evict them at the same time must get the
answers one thread gets, and no thread may raise. The lambda-series table is too large to fill in a test,
so a thread clears it over and over while the others grow its series.
"""

import itertools
import random
import sys
import threading

from qsymm import QSymmElement, lambda_n
from qsymm.compositions import enumerate_compositions
from qsymm.elements import _PRODUCT_CACHE_CAP, _mul_pairwise, _pair_table, _shuffle_codes, _trie_product
from qsymm.lambda_ops import clear_memo

THREADS = 8
SHORT = [c for w in (1, 2, 3) for c in enumerate_compositions(w)]


def _run_threads(work):
    """Run `work(i)` for i in range(THREADS), one thread each, switching
    threads as often as the interpreter allows. Returns the results and the
    exceptions the threads raised."""
    results = [None] * THREADS
    errors = []

    def target(i):
        try:
            results[i] = work(i)
        except Exception as exc:  # any raise fails the test below
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i,)) for i in range(THREADS)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    return results, errors


def _random_elements(rng, count, comps):
    return [QSymmElement({c: rng.choice([-3, -2, -1, 1, 2, 3]) for c in comps(rng)}) for _ in range(count)]


def test_products_overflowing_the_cache():
    rng = random.Random(20)
    # 40 elements of 9 terms give 820 unordered pairs. Their longest words
    # have lengths summing to at most 8, so these products take the per-pair
    # route over the shared quasi-shuffle memo.
    els = _random_elements(rng, 40, lambda r: SHORT + r.sample(enumerate_compositions(4), 2))
    pairs = [(i, j) for i in range(len(els)) for j in range(i, len(els))]
    expected = {(i, j): QSymmElement._from_dict(_mul_pairwise(els[i], els[j])) for i, j in pairs}
    # the threads fill the memo, and the pair tables its entries share, anew
    _shuffle_codes.cache_clear()
    _pair_table.cache_clear()

    def work(k):
        mine = pairs[k::THREADS]
        random.Random(k).shuffle(mine)
        return [(i, j) for i, j in mine if els[j] * els[i] != expected[i, j]]

    results, errors = _run_threads(work)
    assert errors == []
    assert results == [[]] * THREADS


def test_trie_products_overflowing_the_cache():
    rng = random.Random(22)
    # 33 elements give 561 unordered pairs, more than the product cache
    # keeps. Each is a distinct combination of [1]*5, [1]*6 and [1]*7, so
    # every pair's per-pair work is 120633 quasi-shuffle terms, past the
    # trie route's threshold, and takes the cached trie route. The expected
    # products come from the per-pair route, which bypasses that cache.
    words = [(1,) * 5, (1,) * 6, (1,) * 7]
    coeffs = list(itertools.product([-3, -2, -1, 1, 2, 3], repeat=len(words)))
    els = [QSymmElement(dict(zip(words, c))) for c in rng.sample(coeffs, 33)]
    pairs = [(i, j) for i in range(len(els)) for j in range(i, len(els))]
    expected = {(i, j): QSymmElement._from_dict(_mul_pairwise(els[i], els[j])) for i, j in pairs}
    # the threads fill the memo, and the pair tables its entries share, anew
    _shuffle_codes.cache_clear()
    _pair_table.cache_clear()

    def work(k):
        mine = pairs[k::THREADS]
        random.Random(k).shuffle(mine)
        return [(i, j) for i, j in mine if els[j] * els[i] != expected[i, j]]

    _trie_product.cache_clear()
    results, errors = _run_threads(work)
    assert errors == []
    assert results == [[]] * THREADS
    assert _trie_product.cache_info().misses > _PRODUCT_CACHE_CAP


def test_lambda_series_with_a_full_table():
    rng = random.Random(21)
    operands = [QSymmElement.monomial(c) for c in SHORT]
    operands += _random_elements(rng, 6, lambda r: r.sample(SHORT, 2))
    requests = [(n, a) for n in (1, 2, 3) for a in operands]
    clear_memo()
    expected = [lambda_n(n, a) for n, a in requests]
    done = threading.Event()
    clears = 0

    def work(k):
        order = random.Random(k).sample(range(len(requests)), len(requests))
        return [r for r in order * 3 if lambda_n(*requests[r]) != expected[r]]

    # a ninth thread empties the table, as eviction would, while the eight
    # read, extend and store the series in it
    def clear_until_done():
        nonlocal clears
        while not done.is_set():
            clear_memo()
            clears += 1

    clearer = threading.Thread(target=clear_until_done)
    clear_memo()
    clearer.start()
    try:
        results, errors = _run_threads(work)
    finally:
        done.set()
        clearer.join(timeout=120)
        clear_memo()
    assert not clearer.is_alive()
    assert clears > 1
    assert errors == []
    assert results == [[]] * THREADS
