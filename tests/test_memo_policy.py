"""One memo policy: every memo in the package is a `functools.lru_cache`.

A bounded cache evicts its least recently used entry; an unbounded one
(`maxsize` None) is a recursion table that grows with the weights asked
for. No module reads settings from the environment, so a memo's bound is
the one written here.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import qsymm

# Worst-case footprints are noted for the memos that have one, measured
# with tracemalloc on Python 3.11.
MEMOS = {
    "qsymm.compositions._format_cached": 4096,
    "qsymm.compositions._wll_rank": 1 << 16,
    "qsymm.elements._decode": 1 << 16,
    "qsymm.elements._delannoy": 1024,
    "qsymm.elements._shuffle_codes": None,
    "qsymm.elements._trie_product": 512,
    # one table per weight 0-12, 4096 compositions: 1.3 MiB full, counting
    # the `_decode` entries whose tuples the tables share
    "qsymm.elements._weight_table": 13,
    "qsymm.generators._expand_monomial": None,
    # one packed vector per key of weight <= 12: 38.9 MiB full, the
    # vectors alone (their expansions are `_expand_monomial`'s)
    "qsymm.generators._expansion_vector": 4096,
    "qsymm.generators._express": None,
    # every monomial of weight <= 12: 1.3 MiB full
    "qsymm.generators._monomial_sort_key": 4096,
    # one packed vector per `express` result of weight <= 12: 37.7 MiB full
    "qsymm.generators._polynomial_vector": 4096,
    "qsymm.generators._product_gens_up_to": None,
    # one table per weight 0-12, both bases: 0.8 MiB full, counting the
    # monomials it enumerates
    "qsymm.generators._slot_table": 13,
    "qsymm.generators.freeness_certificate": None,
    "qsymm.lambda_ops._series_box": 4096,
    "qsymm.oracle._packed_expansion": 4096,
    "qsymm.symmetric._e_in_p": None,
    "qsymm.symmetric._p_in_e": None,
}


def _modules():
    names = ["qsymm"] + [f"qsymm.{m.name}" for m in pkgutil.iter_modules(qsymm.__path__)]
    return [importlib.import_module(name) for name in names]


def test_every_memo_is_an_lru_cache_of_known_bound():
    found = {}
    for mod in _modules():
        for attr, value in vars(mod).items():
            # count each cache where it is defined, not where it is imported
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                found[f"{mod.__name__}.{attr}"] = value.cache_info().maxsize
    assert found == MEMOS


def test_no_module_reads_the_environment():
    readers = []
    for path in sorted(Path(qsymm.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = []
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            readers += [f"{path.name}:{node.lineno} {n}" for n in names if n in ("environ", "getenv")]
    assert readers == []
