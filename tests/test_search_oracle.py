"""The memoised sequent search against its reference loop, and what an
exhaustive failure decides.

The reference (tests/reference_kernel.py) re-searches every failure at each
larger budget.  The search under test memoises a failure that the bound never
cut off as failed at every budget, and prunes goals the reference searches,
so it must find a proof exactly when the reference does: a valid proof of the
root sequent within the bound, though not always the reference's proof.
The pinned sequents below also get the reference's proof, with the same
principal formula at every node.  Sequents are shaped like the benchmark's
random ones: one to three antecedent formulas of depth at most two over three
atoms, 1 and 0.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from girale import proofs
from girale.formula import BinOp, Const, Var, size
from girale.proofs import (
    Sequent,
    _Calculus,
    _refutation_catalog,
    _search,
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


def _concludes(proof, seq: Sequent, with_exchange: bool) -> bool:
    root = proof.sequent
    if with_exchange:
        return root.succedent == seq.succedent and Counter(root.antecedent) == Counter(seq.antecedent)
    return root == seq


@ORACLE
@given(fragment_sequents(2, 3), st.integers(1, 12), st.booleans())
# the reference reuses a /\l2 proof of (1 -> p) /\ p => p found at a small
# budget in a subtree the count test skips, where the search proves it by /\l1:
# a different proof of the same sequent, valid and within the bound
@example(
    parse_sequent("p -> r, (1 -> p) /\\ p, (0 /\\ p) /\\ (q /\\ 0) => (0 * p) * (p -> r)"), 6, True
)
def test_search_matches_the_reference(seq, bound, with_exchange):
    proof, exhaustive = search_sequent(seq, bound, with_exchange)
    assert (proof is None) == (ref.prove_sequent(seq, bound, with_exchange) is None)
    if proof is not None:
        assert not validate_proof(proof, with_exchange)
        assert _concludes(proof, seq, with_exchange) and proof.depth() <= bound
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
    if proof is None:
        # exhaustive just when no cut-free proof exists at any depth
        assert exhaustive == (ref.prove_sequent(seq, total + 1, with_exchange) is None)
        if exhaustive:
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


# The search prunes a goal whose count test fails, and commits to failure when
# a premise of an invertible rule has failed at every budget.  The reference
# does neither, so at a bound no rule can outgrow it decides each sequent.


def _balanced(seq: Sequent, with_exchange: bool) -> bool:
    calculus = _Calculus(frozenset((*seq.antecedent, seq.succedent)), with_exchange)
    return calculus.balanced(calculus.encode(seq))


@ORACLE
@given(fragment_sequents(2, 3), st.booleans())
def test_provable_sequents_pass_the_count_test(seq, with_exchange):
    if ref.prove_sequent(seq, _sequent_size(seq) + 1, with_exchange) is not None:
        assert _balanced(seq, with_exchange)


@ORACLE
@given(fragment_sequents(2, 3), st.integers(1, 12), st.booleans())
def test_pruned_exhaustive_failures_are_unprovable(seq, bound, with_exchange):
    proof, exhaustive = search_sequent(seq, bound, with_exchange)
    if proof is None and exhaustive:
        assert ref.prove_sequent(seq, _sequent_size(seq) + 1, with_exchange) is None


@pytest.mark.parametrize("with_exchange", [True, False])
def test_count_test_refutes_at_the_root(with_exchange):
    # x counts -1 + 1 + 1 over the antecedent x, x -> y and the succedent y * x
    seq = parse_sequent("x, x -> y => y * x")
    assert not _balanced(seq, with_exchange)
    assert search_sequent(seq, 1, with_exchange) == (None, True)
    assert ref.prove_sequent(seq, _sequent_size(seq) + 1, with_exchange) is None


@pytest.mark.parametrize("with_exchange", [True, False])
def test_invertible_rule_commits(with_exchange):
    # balanced at the root, and 0l is cut off at bound 1; the \/l premise
    # x => 0 has x unbalanced, so the goal fails at every budget
    seq = parse_sequent("x \\/ 1 => 0")
    assert _balanced(seq, with_exchange)
    assert not _balanced(parse_sequent("x => 0"), with_exchange)
    assert search_sequent(seq, 1, with_exchange) == (None, True)
    assert ref.prove_sequent(seq, _sequent_size(seq) + 1, with_exchange) is None


# The first instance's premise fails the count test, and a later instance
# proves the goal: rules that are not invertible commit to nothing.
LATER_INSTANCE = ["x => y \\/ x", "y /\\ x => x", "x, x -> y => y * 1", "x, y => x * y"]


@pytest.mark.parametrize("text", LATER_INSTANCE)
@pytest.mark.parametrize("with_exchange", [True, False])
def test_failed_premises_of_other_rules_commit_nothing(text, with_exchange):
    seq = parse_sequent(text)
    proof, exhaustive = search_sequent(seq, 12, with_exchange)
    assert proof is not None and exhaustive
    assert _same(proof, ref.prove_sequent(seq, 12, with_exchange))


# The search at bound 6 meets => 0 \/ 0 first at budget 2 and is cut off
# there; searched again at the height bound, the sequent's size plus one, no
# branch is cut off, so these failures are decided at the height bound.
DECIDED_AT_THE_HEIGHT_BOUND = [
    "(0 \\/ 0) -> 1 => (p /\\ 0) \\/ (0 \\/ p)",
    "1, 0, (q \\/ 0) -> (1 \\/ 0) => q \\/ (1 \\/ q)",
]


@pytest.mark.parametrize("text", DECIDED_AT_THE_HEIGHT_BOUND)
@pytest.mark.parametrize("with_exchange", [True, False])
def test_failures_the_pruned_search_cuts_off_stay_exhaustive(text, with_exchange):
    seq = parse_sequent(text)
    calculus = _Calculus(frozenset((*seq.antecedent, seq.succedent)), with_exchange)
    assert _search(calculus, seq, 6) == (None, False)
    assert search_sequent(seq, 6, with_exchange) == (None, True)


# A provable sequent takes one search; only a failure it cut off is searched
# again, at the height bound.
CHAIN = "a, a -> b, b -> c, c -> d, d -> e, e -> f, f -> g, g -> h, h -> i, i -> j => (j * 1) \\/ a"


def _count_searches(monkeypatch) -> list:
    calls = []

    def counted(*args):
        calls.append(args)
        return _search(*args)

    monkeypatch.setattr(proofs, "_search", counted)
    return calls


@pytest.mark.parametrize("with_exchange", [True, False])
def test_a_proof_takes_one_search(monkeypatch, with_exchange):
    searches = _count_searches(monkeypatch)
    proof, exhaustive = search_sequent(parse_sequent(CHAIN), 12, with_exchange)
    assert len(searches) == 1
    assert proof is not None and exhaustive and proof.depth() == 12
    assert not validate_proof(proof, True) and not validate_proof(proof, False)
    # cut off at bound 3 and proved at the height bound: open, not exhaustive
    assert search_sequent(parse_sequent(CHAIN), 3, with_exchange) == (None, False)
    assert len(searches) == 3


@pytest.mark.parametrize("text", DECIDED_AT_THE_HEIGHT_BOUND)
@pytest.mark.parametrize("with_exchange", [True, False])
def test_only_cut_off_failures_are_searched_again(monkeypatch, text, with_exchange):
    searches = _count_searches(monkeypatch)
    assert search_sequent(parse_sequent(text), 6, with_exchange) == (None, True)
    assert len(searches) == 2
    assert searches[0][0] is searches[1][0]  # one calculus, so one set of count rows, for both
