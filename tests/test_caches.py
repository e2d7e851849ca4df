import importlib
import pkgutil

import girale
from girale import clear_caches
from girale.amalgam import amalgamate, class_catalog, span_catalog, verify_amalgam
from girale.construct import KClassQuery
from girale.formula import parse
from girale.group import PrimeSet
from girale.proofs import parse_sequent, prove_sequent, validate_proof
from girale.semantics import consequence


def _memos() -> dict[str, object]:
    """Every object with ``cache_parameters`` at the top level of every girale
    module, by qualified name; the module list is the package's own."""
    found = {}
    for info in pkgutil.iter_modules(girale.__path__):
        module = importlib.import_module(f"girale.{info.name}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_parameters"):
                found[f"{value.__module__}.{name}"] = value
    return found


def test_clear_caches_empties_every_memo():
    primes, signature = PrimeSet.of(2), frozenset({"0"})
    query = KClassQuery(primes, signature)
    for span in span_catalog(primes, signature, 3):
        assert verify_amalgam(span, amalgamate(span, query)).passed
    algebras = [algebra for _, algebra, _ in class_catalog(primes, signature, 3)]
    assert consequence(algebras, [parse("x")], parse("x /\\ x")).holds
    proof = prove_sequent(parse_sequent("x, x -> y => y * 1"), 6)
    assert proof is not None and not validate_proof(proof)
    memos = _memos()
    assert [name for name, memo in memos.items() if not memo.cache_info().currsize] == []
    clear_caches()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == dict.fromkeys(
        memos, 0
    )
