"""One memo policy: every memo in the package is a `functools.lru_cache`.

A bounded cache evicts its least recently used entry; an unbounded one
(`maxsize` None) is a recursion table that grows with the weights asked
for. No module reads settings from the environment, so a memo's bound is
the one written here.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import qsymm

# Worst-case footprints are noted for the memos that have one, measured
# with tracemalloc on Python 3.11.
MEMOS = {
    "qsymm.compositions._decode": 1 << 16,
    "qsymm.compositions._format_cached": 4096,
    # one table per weight 0-12, 4096 compositions and a getter by code:
    # 1.27 MiB full, counting the `_decode` entries whose tuples the tables
    # share
    "qsymm.compositions._weight_table": 13,
    "qsymm.compositions._wll_rank": 1 << 16,
    "qsymm.elements._delannoy": 1024,
    # the word pairs per-pair products ask for: 14.2 MiB full with those of
    # the certificates of weight <= 12; the route keeps each entry to 16000
    # codes or fewer
    "qsymm.elements._shuffle_codes": 4096,
    # products of at most 2**15 terms: about 1.1 GiB full of products the
    # size of lambda_4([1,1])**2
    "qsymm.elements._trie_product": 512,
    # the prefixes m[:-1] that columns (`_column`) multiply out, for the
    # certificates and `_expansion_vector`, and the monomials of `expand`
    # sums the packed vectors cannot hold: 79 entries after either of
    # weight <= 10
    "qsymm.generators._expand_monomial": 4096,
    # one packed vector per monomial of weight <= 12, each packed from its
    # column, which is not kept: 38.9 MiB full
    "qsymm.generators._expansion_vector": 4096,
    "qsymm.generators._express": None,
    # every monomial of weight <= 12: 1.3 MiB full
    "qsymm.generators._monomial_sort_key": 4096,
    # one packed vector per `express` result of weight <= 12: 37.7 MiB full
    "qsymm.generators._polynomial_vector": 4096,
    "qsymm.generators._product_gens_up_to": None,
    # one table per weight 0-12, both bases: 0.4 MiB full, counting the
    # monomials it enumerates; the compositions are `_weight_table`'s
    "qsymm.generators._slot_table": 13,
    "qsymm.lambda_ops._series_box": 4096,
    "qsymm.oracle._packed_expansion": 4096,
    # e_n composed with p_m, one partition of n*m a term at most: 17.8 KiB
    # with the 20 pairs verify_all(7) asks for, 225 KiB with all 50 pairs
    # of n*m <= 16
    "qsymm.symmetric._e_compose_p": 256,
    "qsymm.symmetric._e_in_p": None,
    "qsymm.symmetric._p_in_e": None,
}


def _modules():
    names = ["qsymm"] + [f"qsymm.{m.name}" for m in pkgutil.iter_modules(qsymm.__path__)]
    return [importlib.import_module(name) for name in names]


def _memos():
    found = {}
    for mod in _modules():
        for attr, value in vars(mod).items():
            # count each cache where it is defined, not where it is imported
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == mod.__name__:
                found[f"{mod.__name__}.{attr}"] = value
    return found


def test_every_memo_is_an_lru_cache_of_known_bound():
    assert {name: memo.cache_info().maxsize for name, memo in _memos().items()} == MEMOS


def test_no_memo_parameter_has_a_default():
    # a default makes `f(x)` and `f(x, default)` two keys for one value
    defaults = [
        f"{name}({param.name})"
        for name, memo in _memos().items()
        for param in inspect.signature(memo.__wrapped__).parameters.values()
        if param.default is not param.empty
    ]
    assert defaults == []


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
