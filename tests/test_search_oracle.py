"""The memoised sequent search against its reference loop, and what an
exhaustive failure decides.

The reference (tests/reference_kernel.py) re-searches every failure at each
larger budget.  The search under test memoises a failure that the bound never
cut off as failed at every budget, so it must return the same proof, with the
same principal formula at every node, or None exactly when the reference
does.  Sequents are shaped like the benchmark's random ones: one to three
antecedent formulas of depth at most two over three atoms, 1 and 0.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from girale.formula import BinOp, Const, Var, size
from girale.proofs import (
    Sequent,
    _refutation_catalog,
    parse_sequent,
    search_sequent,
    sequent_to_formula,
    validate_proof,
)
from girale.semantics import valid

from tests import reference_kernel as ref

ORACLE = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
CATALOG = _refutation_catalog()


def fragment_formulas(depth: int):
    atoms = st.sampled_from(["p", "q", "r", "p", "q", "r", "1", "0"]).map(
        lambda a: Const(a) if a in ("1", "0") else Var(a)
    )
    if depth == 0:
        return atoms
    sub = fragment_formulas(depth - 1)
    return st.one_of(
        atoms,
        st.tuples(st.sampled_from(("mul", "imp", "and", "or")), sub, sub).map(
            lambda t: BinOp(*t)
        ),
    )


def fragment_sequents(depth: int, max_antecedent: int):
    formula = fragment_formulas(depth)
    return st.builds(
        Sequent,
        st.lists(formula, min_size=1, max_size=max_antecedent).map(tuple),
        st.one_of(st.none(), formula, formula, formula),
    )


def _sequent_size(seq: Sequent) -> int:
    formulas = seq.antecedent + ((seq.succedent,) if seq.succedent is not None else ())
    return sum(size(f) for f in formulas)


def _same(proof, expected) -> bool:
    if proof is None or expected is None:
        return proof is None and expected is None
    return proof == expected and all(
        a.principal == b.principal for a, b in zip(proof.nodes(), expected.nodes())
    )


@ORACLE
@given(fragment_sequents(2, 3), st.integers(1, 12), st.booleans())
def test_search_matches_the_reference(seq, bound, with_exchange):
    proof, exhaustive = search_sequent(seq, bound, with_exchange)
    assert _same(proof, ref.prove_sequent(seq, bound, with_exchange))
    if proof is not None:
        assert exhaustive


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(fragment_sequents(2, 2), st.integers(1, 12), st.booleans())
def test_exhaustive_failures_decide(seq, bound, with_exchange):
    total = _sequent_size(seq)
    # every backward rule shrinks the sequent, so this bound never cuts
    proof, exhaustive = search_sequent(seq, total + 1, with_exchange)
    assert exhaustive
    if proof is not None:
        translated = sequent_to_formula(seq)
        assert all(valid(A, translated).holds for A in CATALOG)
    proof, exhaustive = search_sequent(seq, bound, with_exchange)
    if proof is None and exhaustive:
        assert search_sequent(seq, total + 2, with_exchange)[0] is None


# A goal that failed cut off, met again at a smaller budget, must cut off the
# failure above it too; otherwise that failure is memoised at every budget and
# a larger budget misses the proof the reference finds.
CUT_OFF_HITS = [
    "p -> q /\\ q -> r /\\ q, q => (1 \\/ p) /\\ (p /\\ r) -> q /\\ p \\/ r",
    "p, (r /\\ q) * (r \\/ q) /\\ (q -> 1), p -> (1 -> 1) * (q * q) => q \\/ r",
]


@pytest.mark.parametrize("text", CUT_OFF_HITS)
def test_memo_hits_on_cut_off_failures_cut_off(text):
    seq = parse_sequent(text)
    for bound in range(1, 13):
        proof, exhaustive = search_sequent(seq, bound)
        assert _same(proof, ref.prove_sequent(seq, bound))
        assert proof is not None or not exhaustive


# Equal formulas get equal codes, and a multiset split takes the first copies
# of each run of equal codes; these sequents repeat antecedent formulas.
REPEATED = [
    "x, x, x -> y, x -> y => y * y",
    "x, x, x, x -> y => y * x * x",
    "x -> y, x, x -> y, x => (y * y) /\\ (x * x)",
    "p * p, p * p, p -> q => q * (p * p * p)",
    "p, p, p \\/ q, p \\/ q => (p * p) * (p \\/ q)",
    "x, x, x -> y => y",
    "x, x -> y, x, x -> y => y * y",
]


@pytest.mark.parametrize("text", REPEATED)
@pytest.mark.parametrize("with_exchange", [True, False])
def test_repeated_antecedent_formulas_match_the_reference(text, with_exchange):
    seq = parse_sequent(text)
    for bound in range(1, 9):
        proof, exhaustive = search_sequent(seq, bound, with_exchange)
        assert _same(proof, ref.prove_sequent(seq, bound, with_exchange))
        if proof is not None:
            assert not validate_proof(proof, with_exchange)
