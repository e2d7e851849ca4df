import random

import pytest

from girale.construct import SIGNATURE_FULL, build_R
from girale.formula import Bang, BinOp, Const, Var, parse, render
from girale.group import make_group
from girale.proofs import SCHEMES
from girale.semantics import (
    consequence,
    consequence_slow,
    deduction_check,
    designated,
    eval_formula,
    interpolant_search,
    valid,
)

RZ2 = build_R(make_group([2]))
RZ3_POINTED = build_R(make_group([3]), frozenset({"0"}))
GIRALE_Z3 = build_R(make_group([3]), SIGNATURE_FULL)


def test_eval_double_negation():
    # on the pointed expansion the involution sends a to itself twice over
    value = eval_formula(RZ3_POINTED, parse("~~x -> x"), {"x": 1})
    assert value == RZ3_POINTED.one


def test_eval_constants_and_guard():
    assert eval_formula(GIRALE_Z3, Const("1"), {}) == GIRALE_Z3.one
    assert eval_formula(GIRALE_Z3, parse("!x"), {"x": 1}) == GIRALE_Z3.bot


def test_eval_errors():
    with pytest.raises(ValueError):
        eval_formula(RZ2, Var("x"), {})
    with pytest.raises(ValueError):
        eval_formula(RZ2, parse("!x"), {"x": 0})
    with pytest.raises(ValueError):
        eval_formula(RZ2, Const("0"), {})


def test_valid_distribution_fails_on_flat_order():
    result = valid(RZ3_POINTED, parse("(x /\\ (y \\/ z)) -> ((x /\\ y) \\/ (x /\\ z))"))
    assert not result.holds
    # the countermodel really refutes the formula
    value = eval_formula(
        RZ3_POINTED,
        parse("(x /\\ (y \\/ z)) -> ((x /\\ y) \\/ (x /\\ z))"),
        result.countermodel,
    )
    assert not designated(RZ3_POINTED, value)


def test_valid_identity():
    assert valid(RZ2, parse("x -> x")).holds


def test_axiom_schemes_valid_on_girales(small_girales):
    for name, scheme in SCHEMES.items():
        for algebra in small_girales:
            outcome = valid(algebra, scheme)
            assert outcome.holds, (name, outcome.countermodel)


def test_consequence_fusion_does_not_project():
    result = consequence([RZ2], [parse("x * y")], parse("x"))
    assert not result.holds
    assert result.countermodel == {"x": 1, "y": 1}  # both the group generator
    assert result.algebra_index == 0


def test_consequence_reflexivity():
    f = parse("x * y -> z")
    assert consequence([RZ2, GIRALE_Z3], [f], f).holds


def test_consequence_premise_forces_guard():
    assert consequence([GIRALE_Z3], [parse("x")], parse("!x")).holds


def test_consequence_matches_slow_path():
    cases = [
        ([parse("x * y")], parse("x")),
        ([parse("x")], parse("!x")),
        ([], parse("x -> x")),
        ([parse("x"), parse("y")], parse("x /\\ y")),
    ]
    for premises, conclusion in cases:
        fast = consequence([GIRALE_Z3], premises, conclusion)
        slow = consequence_slow([GIRALE_Z3], premises, conclusion)
        assert fast.holds == slow.holds
        assert fast.countermodel == slow.countermodel


def _random_formula(rng, depth, signature):
    if depth == 0 or rng.random() < 0.35:
        pool = ["x", "y", "z", "1"]
        if "0" in signature:
            pool.append("0")
        choice = rng.choice(pool)
        return Var(choice) if choice.isalpha() else Const(choice)
    if "bang" in signature and rng.random() < 0.2:
        return Bang(_random_formula(rng, depth - 1, signature))
    op = rng.choice(["and", "or", "mul", "imp"])
    return BinOp(
        op,
        _random_formula(rng, depth - 1, signature),
        _random_formula(rng, depth - 1, signature),
    )


def test_monotonicity_and_conjunctivity(small_girales):
    rng = random.Random(7)
    for _ in range(120):
        gamma1 = _random_formula(rng, 3, SIGNATURE_FULL)
        gamma2 = _random_formula(rng, 3, SIGNATURE_FULL)
        extra = _random_formula(rng, 2, SIGNATURE_FULL)
        goal = _random_formula(rng, 3, SIGNATURE_FULL)
        base = consequence(small_girales, [gamma1, gamma2], goal)
        if base.holds:
            assert consequence(small_girales, [gamma1, gamma2, extra], goal).holds
        merged = consequence(small_girales, [BinOp("and", gamma1, gamma2)], goal)
        assert merged.holds == base.holds


def test_substitution_invariance(small_girales):
    from girale.formula import substitute

    rng = random.Random(11)
    renaming = {"x": Var("u"), "y": Var("v"), "z": Var("w")}
    for _ in range(60):
        premise = _random_formula(rng, 3, SIGNATURE_FULL)
        goal = _random_formula(rng, 3, SIGNATURE_FULL)
        direct = consequence(small_girales, [premise], goal)
        renamed = consequence(
            small_girales,
            [substitute(premise, renaming)],
            substitute(goal, renaming),
        )
        assert direct.holds == renamed.holds


def test_deduction_check_examples(small_girales):
    x = parse("x")
    report = deduction_check(small_girales, [], x, x)
    assert report.agree and report.with_premise.holds
    report = deduction_check(small_girales, [parse("x")], parse("y"), parse("x * y"))
    assert report.agree and report.with_premise.holds
    from girale.algebra import trivial_algebra

    report = deduction_check([trivial_algebra(SIGNATURE_FULL)], [], x, parse("y"))
    assert report.agree and report.with_premise.holds


def test_deduction_check_needs_guard():
    with pytest.raises(ValueError):
        deduction_check([RZ2], [], parse("x"), parse("x"))


def test_interpolant_deductive_pinned():
    result = interpolant_search([RZ2], parse("x * (x -> y)"), parse("y \\/ z"), "deductive", 3)
    assert result.status == "found"
    assert render(result.interpolant) == "y"
    assert all(j.holds for j in result.certificate)


def test_interpolant_trivial_all_modes():
    for mode in ("deductive", "craig", "guarded"):
        result = interpolant_search([GIRALE_Z3], parse("x"), parse("x"), mode, 2)
        assert result.status == "found"
        assert render(result.interpolant) == "x"


def test_interpolant_guarded_pinned():
    result = interpolant_search([GIRALE_Z3], parse("x /\\ y"), parse("x \\/ z"), "guarded", 3)
    assert result.status == "found"
    assert render(result.interpolant) == "x"
    assert [j.holds for j in result.certificate] == [True, True]


def test_interpolant_guarded_needs_guard_signature():
    with pytest.raises(ValueError):
        interpolant_search([RZ2], parse("x"), parse("x"), "guarded", 2)
    with pytest.raises(ValueError):
        interpolant_search([RZ2], parse("x"), parse("x"), "sideways", 2)
    with pytest.raises(ValueError, match="depth must be non-negative"):
        interpolant_search([RZ2], parse("x"), parse("x"), "craig", -1)


def test_interpolant_refused_with_countermodel():
    result = interpolant_search([RZ2], parse("x"), parse("y"), "craig", 2)
    assert result.status == "refused"
    assert result.interpolant is None
    assert result.countermodel is not None
    # the countermodel refutes the entailment itself
    value = eval_formula(RZ2, parse("x -> y"), result.countermodel)
    assert not designated(RZ2, value)


def test_interpolant_exhaustion_is_not_refusal(small_girales):
    result = interpolant_search(small_girales, parse("x * y"), parse("x * y"), "craig", 0)
    assert result.status == "exhausted"
    assert result.candidates_tried > 0
    deeper = interpolant_search(small_girales, parse("x * y"), parse("x * y"), "craig", 2)
    assert deeper.status == "found"
    assert render(deeper.interpolant) == "x * y"


def test_interpolant_mixed_guard_flag():
    result = interpolant_search(
        [GIRALE_Z3], parse("x /\\ y"), parse("x \\/ z"), "guarded", 3, mixed_guard=True
    )
    assert result.status == "found"
    assert all(j.holds for j in result.certificate)
    assert "half-guarded" in result.certificate[0].description


def test_interpolant_found_reverifies(small_girales):
    result = interpolant_search(
        small_girales, parse("x * (y /\\ 1)"), parse("x * y"), "craig", 4
    )
    assert result.status == "found"
    delta = result.interpolant
    lhs = BinOp("imp", parse("x * (y /\\ 1)"), delta)
    rhs = BinOp("imp", delta, parse("x * y"))
    for algebra in small_girales:
        assert valid(algebra, lhs).holds and valid(algebra, rhs).holds
