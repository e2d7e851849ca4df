"""Maehara interpolation against its reference, and what ``extract_craig``
guarantees on any provable sequent.

The reference (tests/reference_kernel.py) has one branch per rule that edits
the left multiset by hand; ``_interpolate`` applies one side rule to every
rule.  They must give the equal formula for every proof and every left
sub-multiset of its antecedent.  Provable sequents are built forward from
the axioms by the rules of FLe, with side formulas drawn like the sequent
search oracle's, and then proved by search, so the proof is the one
``extract_craig`` would split.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from girale.formula import ONE, ZERO, BinOp, Var, free_variables, render
from girale.proofs import (
    Sequent,
    _interpolate,
    extract_craig,
    parse_sequent,
    prove_sequent,
)

from tests import reference_kernel as ref
from tests.test_search_oracle import fragment_formulas

BOUND = 12
_RULES = ("1l", "*l", "/\\l", "\\/l", "->l", "->r", "\\/r", "/\\r", "*r", "0l")


@st.composite
def provable_sequents(draw, steps: int = 4) -> Sequent:
    """A sequent derived from an axiom by up to ``steps`` forward rule steps;
    ``->l`` and ``*r`` take their other premise from a one-step derivation."""
    atom = Var(draw(st.sampled_from("pqr")))
    ant, succ = draw(st.sampled_from([([atom], atom), ([], ONE), ([ZERO], None)]))
    ant = list(ant)
    for _ in range(draw(st.integers(0, steps))):
        rule = draw(st.sampled_from(_RULES))
        side = draw(fragment_formulas(1))
        i = draw(st.integers(0, max(len(ant) - 1, 0)))
        if rule == "1l":
            ant.insert(i, ONE)
        elif rule == "*l" and len(ant) >= 2:
            a = ant.pop(i)
            b = ant.pop(draw(st.integers(0, len(ant) - 1)))
            ant.append(BinOp("mul", a, b))
        elif rule == "/\\l" and ant:
            ant[i] = BinOp("and", *draw(st.permutations([ant[i], side])))
        elif rule == "\\/l" and ant:  # the second premise follows by /\l
            ant[i] = BinOp("or", ant[i], BinOp("and", ant[i], side))
        elif rule == "->l" and ant or rule == "*r" and succ is not None:
            other = draw(provable_sequents(1))
            if other.succedent is None:
                continue
            if rule == "->l":
                ant[i] = BinOp("imp", other.succedent, ant[i])
            else:
                succ = BinOp("mul", succ, other.succedent)
            ant += other.antecedent
        elif rule == "->r" and ant and succ is not None:
            succ = BinOp("imp", ant.pop(i), succ)
        elif rule == "\\/r" and succ is not None:
            succ = BinOp("or", *draw(st.permutations([succ, side])))
        elif rule == "/\\r" and succ is not None:
            succ = BinOp("and", succ, BinOp("or", side, succ))
        elif rule == "0l" and succ is None:
            succ = ZERO
    return Sequent(tuple(draw(st.permutations(ant))), succ)


ORACLE = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@ORACLE
@given(provable_sequents(), st.data())
def test_interpolant_matches_the_reference(seq, data):
    proof = prove_sequent(seq, BOUND)
    assume(proof is not None)
    ant = proof.sequent.antecedent
    keep = data.draw(st.lists(st.booleans(), min_size=len(ant), max_size=len(ant)))
    left = Counter(f for f, taken in zip(ant, keep) if taken)
    assert _interpolate(proof, left) == ref._interpolate(proof, Counter(left))


# One sequent per rule at the root, and the rendered interpolant for every
# left sub-multiset: the principal on each side where it has one.  The proof
# of "x, x -> x => x" shares one node between both premises of its ->l.
PINNED = [
    ("x => x", "id", {"": "1", "x": "x"}),
    ("=> 1", "1r", {"": "1"}),
    ("0 =>", "0r", {"": "1", "0": "0"}),
    ("1, x => x", "1l", {"": "1", "x": "x", "1": "1", "1, x": "x"}),
    ("x * y => y * x", "*l", {"": "1 * 1", "x * y": "y * x"}),
    ("x /\\ y => x", "/\\l1", {"": "1", "x /\\ y": "x"}),
    ("x /\\ y => y", "/\\l2", {"": "1", "x /\\ y": "y"}),
    ("x \\/ y => y \\/ x", "\\/l", {"": "1 /\\ 1", "x \\/ y": "x \\/ y"}),
    ("x, x -> y => y", "->l", {"": "1 * 1", "x -> y": "x -> y", "x": "x * 1", "x, x -> y": "1 -> y"}),
    ("x => y -> x * y", "->r", {"": "1 * 1", "x": "x * 1"}),
    ("x => x \\/ y", "\\/r1", {"": "1", "x": "x"}),
    ("y => x \\/ y", "\\/r2", {"": "1", "y": "y"}),
    ("x, y => (x * y) /\\ (y * x)", "/\\r", {
        "": "1 * 1 /\\ 1 * 1", "y": "1 * y /\\ y * 1",
        "x": "x * 1 /\\ 1 * x", "x, y": "x * y /\\ y * x",
    }),
    ("x, y => x * y", "*r", {"": "1 * 1", "y": "1 * y", "x": "x * 1", "x, y": "x * y"}),
    ("x, x -> 0 => 0", "0l", {"": "1 * 1", "x -> 0": "x -> 0", "x": "x * 1", "x, x -> 0": "1 -> 0"}),
    ("x, x -> x => x", "->l", {"": "1 * 1", "x -> x": "x -> x", "x": "x * 1", "x, x -> x": "1 -> x"}),
    ("x -> y, x -> y, x, x => y * y", "*r", {
        "": "1 * 1 * ( 1 * 1 )",
        "x": "x * 1 * ( 1 * 1 )",
        "x, x": "x * 1 * ( x * 1 )",
        "x -> y": "( x -> y ) * ( 1 * 1 )",
        "x -> y, x": "( 1 -> y ) * ( 1 * 1 )",
        "x -> y, x, x": "( 1 -> y ) * ( x * 1 )",
        "x -> y, x -> y": "( x -> y ) * ( x -> y )",
        "x -> y, x -> y, x": "( 1 -> y ) * ( x -> y )",
        "x -> y, x -> y, x, x": "( 1 -> y ) * ( 1 -> y )",
    }),
]


@pytest.mark.parametrize("text, rule, expected", PINNED)
def test_pinned_interpolants(text, rule, expected):
    seq = parse_sequent(text)
    proof = prove_sequent(seq, 10)
    assert proof is not None and proof.rule == rule
    counts = Counter(seq.antecedent)
    found = {}
    for take in itertools.product(*(range(n + 1) for n in counts.values())):
        left = Counter(dict(zip(counts, take)))
        found[", ".join(map(render, left.elements()))] = render(_interpolate(proof, +left))
    assert found == expected


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(provable_sequents(), st.data())
def test_extract_craig_on_any_fitting_partition(seq, data):
    proof = prove_sequent(seq, BOUND)
    assume(proof is not None)
    ant = proof.sequent.antecedent
    on_left = data.draw(st.lists(st.booleans(), min_size=len(ant), max_size=len(ant)))
    left_vars, right_vars = set(), set()
    for f, taken in zip(ant, on_left):
        (left_vars if taken else right_vars).update(free_variables(f))
    if seq.succedent is not None:
        right_vars |= free_variables(seq.succedent)
    result = extract_craig(proof, left_vars, right_vars)
    assert result.left_proved and result.right_proved and result.semantically_valid
    assert free_variables(result.interpolant) <= result.shared_variables
