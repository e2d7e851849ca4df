import pytest

from girale import proofs
from girale.formula import Bang, free_variables, parse, render
from girale.proofs import (
    SCHEMES,
    SYSTEMS,
    HilbertSystem,
    Sequent,
    SequentProof,
    Step,
    check_derivation,
    extract_craig,
    load_hilbert_corpus,
    match_axiom,
    parse_sequent,
    prove_sequent,
    sequent_to_formula,
    steps_from_json,
    validate_proof,
)
from girale.semantics import valid

LL = SYSTEMS["LL"]
RLE = SYSTEMS["RLe"]


def test_match_axiom_examples():
    hit = match_axiom(parse("(y * z) -> (y * z)"), SCHEMES["A1"])
    assert hit == {"alpha": parse("y * z")}
    assert match_axiom(parse("x -> y"), SCHEMES["A1"]) is None
    hit = match_axiom(parse("!(x -> y) -> (!x -> !y)"), SCHEMES["!K"])
    assert hit == {"alpha": parse("x"), "beta": parse("y")}


def test_match_axiom_requires_consistent_bindings():
    assert match_axiom(parse("x /\\ y -> z"), SCHEMES["A2"]) is None


def test_check_derivation_mp():
    steps = (
        Step(parse("1"), "A12"),
        Step(parse("1 -> (x -> x)"), "A13"),
        Step(parse("x -> x"), "mp", (1, 2)),
    )
    assert check_derivation(steps, RLE).valid


def test_check_derivation_premise_and_nec():
    steps = (
        Step(parse("x"), "premise", (0,)),
        Step(parse("!x"), "nec", (1,)),
    )
    report = check_derivation(steps, LL, [parse("x")])
    assert report.valid


def test_check_derivation_rejects_wrong_axiom():
    report = check_derivation((Step(parse("x -> y"), "A1"),), RLE)
    assert not report.valid
    assert report.step == 1
    assert "no matching substitution" in report.reason


def test_check_derivation_rejects_forward_refs():
    steps = (
        Step(parse("x -> x"), "mp", (1, 2)),
        Step(parse("1"), "A12"),
    )
    report = check_derivation(steps, RLE)
    assert not report.valid and report.step == 1


def test_check_derivation_language_guard():
    report = check_derivation((Step(parse("!x -> x"), "!T"),), RLE)
    assert not report.valid
    assert "language" in report.reason


# name -> (system, premises, steps, failing step, reason): one minimal
# derivation per rejection of check_derivation
_X, _Y, _XY = parse("x"), parse("y"), parse("x -> y")
REJECTED = {
    "no-premise": (RLE, [_X], [Step(_X, "premise", (1,))], 1, "no premise 1"),
    "not-premise": (RLE, [_X], [Step(_Y, "premise", (0,))], 1, "formula is not premise 0"),
    "premise-index": (RLE, [_X], [Step(_X, "premise", ())], 1, "premise needs one index"),
    "rule-not-in-system": (
        HilbertSystem("mp only", ("A1",), frozenset({"mp"}), frozenset()), [_X],
        [Step(_X, "premise", (0,)), Step(parse("x /\\ x"), "adj", (1, 1))], 2,
        "rule adj not in system",
    ),
    "mp-refs": (RLE, [_X], [Step(_X, "premise", (0,)), Step(_X, "mp", (1,))], 2, "mp needs 2 refs"),
    "nec-refs": (LL, [_X], [Step(_X, "premise", (0,)), Step(Bang(_X), "nec", (1, 1))], 2,
                 "nec needs 1 refs"),
    "mp-misfires": (
        RLE, [_X, _XY], [Step(_X, "premise", (0,)), Step(_XY, "premise", (1,)), Step(parse("z"), "mp", (1, 2))],
        3, "mp does not fire",
    ),
    "mp-swapped": (
        RLE, [_X, _XY], [Step(_X, "premise", (0,)), Step(_XY, "premise", (1,)), Step(_Y, "mp", (2, 1))],
        3, "mp does not fire",
    ),
    "adj-misfires": (
        RLE, [_X, _Y],
        [Step(_X, "premise", (0,)), Step(_Y, "premise", (1,)), Step(parse("y /\\ x"), "adj", (1, 2))],
        3, "adj does not fire",
    ),
    "nec-misfires": (
        LL, [_X], [Step(_X, "premise", (0,)), Step(Bang(_Y), "nec", (1,))], 2, "nec does not fire",
    ),
    "unknown-rule": (RLE, [], [Step(_X, "cut")], 1, "rule or axiom 'cut' not available"),
}


@pytest.mark.parametrize("name", sorted(REJECTED))
def test_check_derivation_rejections(name):
    system, premises, steps, step, reason = REJECTED[name]
    assert check_derivation(steps[:-1], system, premises).valid  # only the last step fails
    report = check_derivation(steps, system, premises)
    assert (report.valid, report.step, report.reason) == (False, step, reason)


@pytest.mark.parametrize(
    "axioms, rules, extra, message",
    [
        (("A1", "B9"), {"mp"}, (), r"Unknown axiom schemes \['B9'\]"),
        (("A1",), {"mp", "cut"}, (), r"Unknown rules \['cut'\]"),
        (("A1",), {"mp"}, (("mp", parse("x")),), "Extra axiom name 'mp' clashes"),
        (("A1",), {"mp"}, (("top", parse("x -> top")),),
         r"Extra axiom 'top' uses symbols \['top'\] outside the system language"),
    ],
)
def test_system_construction_errors(axioms, rules, extra, message):
    with pytest.raises(ValueError, match=message):
        HilbertSystem("broken", axioms, frozenset(rules), frozenset(), extra_axioms=extra)


def test_system_coherence():
    with pytest.raises(ValueError):
        HilbertSystem("broken", ("A1",), frozenset({"mp", "nec"}), frozenset())
    with pytest.raises(ValueError):
        HilbertSystem("broken", ("A1", "!T"), frozenset({"mp"}), frozenset({"bang"}))


def test_extra_axioms():
    system = HilbertSystem(
        "RLe+",
        tuple(f"A{i}" for i in range(1, 14)),
        frozenset({"mp", "adj"}),
        frozenset(),
        extra_axioms=(("weaken", parse("alpha -> (beta -> alpha)")),),
    )
    steps = (Step(parse("x -> (y * z -> x)"), "weaken"),)
    assert check_derivation(steps, system).valid


def test_corpus_loads_and_checks():
    corpus = load_hilbert_corpus()
    assert len(corpus) >= 50
    for entry in corpus:
        report = check_derivation(entry["steps"], SYSTEMS[entry["system"]])
        assert report.valid, (entry["name"], report.describe())
    rules = {step.rule for entry in corpus for step in entry["steps"]}
    assert {"mp", "adj", "nec"} <= rules
    assert set(SCHEMES) <= rules


def test_steps_json_round_trip():
    corpus = load_hilbert_corpus()
    steps = corpus[0]["steps"]
    entries = [{"formula": render(s.formula), "rule": s.rule, "refs": list(s.refs)} for s in steps]
    assert steps_from_json(entries) == steps


def test_steps_json_names_the_bad_step():
    with pytest.raises(ValueError, match="^Derivation step 2 must be an object.$"):
        steps_from_json([{"formula": "1", "rule": "A12"}, ["1", "A12"]])
    with pytest.raises(ValueError, match="^Derivation step 1 field 'rule' is missing.$"):
        steps_from_json([{"formula": "1"}])


def test_parse_sequent():
    seq = parse_sequent("x, x -> y => y")
    assert len(seq.antecedent) == 2
    assert seq.succedent == parse("y")
    assert parse_sequent("0 =>").succedent is None
    assert parse_sequent("=> 1").antecedent == ()
    with pytest.raises(ValueError):
        parse_sequent("x, y")


def test_prove_sequent_axioms():
    proof = prove_sequent(parse_sequent("x => x"), 2)
    assert proof is not None and proof.rule == "id"
    proof = prove_sequent(parse_sequent("=> 1"), 2)
    assert proof is not None and proof.rule == "1r"


def test_prove_sequent_fusion():
    proof = prove_sequent(parse_sequent("x, y => x * y"), 4)
    assert proof is not None
    assert proof.rule == "*r"
    assert {child.rule for child in proof.children} == {"id"}
    assert not validate_proof(proof)


def test_prove_sequent_no_contraction():
    for bound in (4, 8, 12):
        assert prove_sequent(parse_sequent("x => x * x"), bound) is None


def test_prove_requires_fragment():
    outside = "Sequent formulas must avoid {}; search covers the bounded-free, guard-free fragment."
    # the message names the symbols of the first formula outside the fragment
    for text, symbols in [
        ("!x => x", "['bang']"),
        ("x => top", "['top']"),
        ("x, bot * !top => x", "['bang', 'bot', 'top']"),
        ("1 -> !x, top => bot", "['bang']"),
    ]:
        with pytest.raises(ValueError) as err:
            prove_sequent(parse_sequent(text), 4)
        assert str(err.value) == outside.format(symbols)
    with pytest.raises(ValueError):
        prove_sequent(parse_sequent("x => x"), 0)
    assert prove_sequent(parse_sequent("=>"), 4) is None


def test_exchange_flag_matters():
    swapped = parse_sequent("x * y => y * x")
    assert prove_sequent(swapped, 10) is not None
    assert prove_sequent(swapped, 10, with_exchange=False) is None
    straight = parse_sequent("x * y => x * y")
    assert prove_sequent(straight, 10, with_exchange=False) is not None


def test_sequence_mode_left_residual():
    # with -> as the left residual, the argument must sit immediately left
    assert prove_sequent(parse_sequent("x, x -> y => y"), 8, with_exchange=False) is not None
    assert prove_sequent(parse_sequent("x -> y, x => y"), 8, with_exchange=False) is None


def test_zero_rules():
    assert prove_sequent(parse_sequent("0 =>"), 2) is not None
    assert prove_sequent(parse_sequent("x, x -> 0 =>"), 6) is not None
    assert prove_sequent(parse_sequent("x, x -> 0 => 0"), 6) is not None


def test_validate_proof_rejects_corruption():
    proof = prove_sequent(parse_sequent("x, y => x * y"), 4)
    corrupted = SequentProof(proof.sequent, "id", (), None)
    assert validate_proof(corrupted) == ["bad id instance at x, y => x * y"]
    relabeled = SequentProof(proof.sequent, "/\\r", proof.children, proof.principal)
    assert validate_proof(relabeled) == ["bad /\\r instance at x, y => x * y"]


def _count_calculi():
    """Empty the memo of calculi; the function returned counts those built since."""
    proofs._calculus.cache_clear()
    return lambda: proofs._calculus.cache_info().misses


@pytest.mark.parametrize("with_exchange", [True, False])
def test_validating_a_fresh_proof_builds_no_second_calculus(with_exchange):
    built = _count_calculi()
    seq = parse_sequent("y, x, x -> y -> z => z")
    proof, _ = proofs.search_sequent(seq, 10, with_exchange)
    assert proof is not None and built() == 1
    assert not validate_proof(proof, with_exchange) and built() == 1
    # the other calculus, or another root, needs a calculus of its own
    validate_proof(proof, not with_exchange)
    assert built() == 2
    assert not validate_proof(prove_sequent(parse_sequent("x, y => x * y"), 4))
    assert built() == 3


def _leaf(text):
    return SequentProof(parse_sequent(text), "id", (), None)


def test_validate_proof_reports_a_formula_outside_the_root():
    # w occurs nowhere in the root, so it has no code: a problem, no raise;
    # read as x, the proof would be valid
    one = SequentProof(parse_sequent("=> 1"), "1r", ())
    proof = SequentProof(parse_sequent("x => x * 1"), "*r", (_leaf("w => x"), one))
    assert validate_proof(proof) == [
        "bad *r instance at x => x * 1",
        "bad id instance at w => x",
    ]
    assert not validate_proof(SequentProof(proof.sequent, "*r", (_leaf("x => x"), one)))
    stray_root = SequentProof(parse_sequent("x => x"), "id", (_leaf("w => w"),))
    assert validate_proof(stray_root)


def test_validate_proof_reports_an_unsorted_child_under_exchange():
    # ->r adds y to a multiset antecedent; only the sorted child is an instance
    root = parse_sequent("x => y -> x * y")
    child = Sequent((parse("y"), parse("x")), parse("x * y"))
    unsorted = SequentProof(root, "->r", (SequentProof(child, "id", ()),))
    assert validate_proof(unsorted)[0] == "bad ->r instance at x => y -> x * y"
    proof = prove_sequent(root, 6)
    assert proof.children[0].sequent.antecedent == (parse("x"), parse("y"))
    assert not validate_proof(proof)
    # without exchange y goes in front: the same child is the instance there
    assert validate_proof(unsorted, with_exchange=False) == [
        "bad id instance at y, x => x * y"
    ]


def test_multiset_splits_are_lazy_and_in_product_order():
    from itertools import islice, product

    from girale.proofs import _split_masks

    # 2^40 splits: listing them would not finish
    first = list(islice(_split_masks(tuple(range(40))), 3))
    assert first == [(0,) * 40, (0,) * 39 + (1,), (0,) * 38 + (1, 0)]
    # repeated codes: how many copies of each run, first run slowest
    masks = list(_split_masks((0, 0, 1, 2, 2, 2)))
    takes = [(m[0] + m[1], m[2], m[3] + m[4] + m[5]) for m in masks]
    assert takes == list(product(range(3), range(2), range(4)))
    assert all(m[:2] in ((0, 0), (1, 0), (1, 1)) for m in masks)


def test_returned_proofs_revalidate():
    fixtures = [
        "x, y -> z, x -> y => z",
        "x * (y \\/ z) => (x * y) \\/ (x * z)",
        "x => x /\\ x",
    ]
    for text in fixtures:
        proof = prove_sequent(parse_sequent(text), 10)
        assert proof is not None
        assert not validate_proof(proof)


def test_extract_craig_modus_ponens():
    proof = prove_sequent(parse_sequent("x, x -> y => y"), 8)
    result = extract_craig(proof, {"x"}, {"x", "y"})
    assert result.left_proved and result.right_proved and result.semantically_valid
    assert free_variables(result.interpolant) <= {"x"}


def test_extract_craig_identity():
    proof = prove_sequent(parse_sequent("x => x"), 2)
    result = extract_craig(proof, {"x"}, {"x"})
    assert render(result.interpolant) == "x"
    assert result.left_proved and result.right_proved


def test_extract_craig_disjoint_antecedents():
    proof = prove_sequent(parse_sequent("x, y => x * y"), 4)
    result = extract_craig(proof, {"x"}, {"y"})
    assert free_variables(result.interpolant) <= {"x"}
    assert result.left_proved and result.right_proved and result.semantically_valid


def test_extract_craig_refuses_a_proof_that_does_not_validate():
    bogus = SequentProof(parse_sequent("x => y"), "id", ())
    with pytest.raises(ValueError, match="^Proof does not validate: bad id instance at x => y$"):
        extract_craig(bogus, {"x"}, {"x", "y"})


def test_extract_craig_unsplittable():
    proof = prove_sequent(parse_sequent("x * y, z => z * (x * y)"), 8)
    with pytest.raises(ValueError):
        extract_craig(proof, {"x"}, {"z"})


def test_sequent_hilbert_semantic_agreement(girales_upto_6):
    """Sequent-provable theorems match checkable derivations and validity."""
    corpus = {entry["name"]: entry for entry in load_hilbert_corpus()}
    paired = {
        "mp-identity": "=> x -> x",
        "identity-fusion-instance": "=> x * y -> x * y",
        "meet-reflexive": "=> x /\\ y -> x /\\ y",
        "axiom-A2": "=> x /\\ y -> x",
        "axiom-A10": "=> x -> (y -> x * y)",
    }
    for name, sequent_text in paired.items():
        entry = corpus[name]
        assert check_derivation(entry["steps"], SYSTEMS[entry["system"]]).valid
        proof = prove_sequent(parse_sequent(sequent_text), 10)
        assert proof is not None, name
        theorem = entry["steps"][-1].formula
        for algebra in girales_upto_6:
            assert valid(algebra, theorem).holds


def test_sequent_to_formula():
    assert render(sequent_to_formula(parse_sequent("x, y => z"))) == "x * y -> z"
    assert render(sequent_to_formula(parse_sequent("x =>"))) == "x -> 0"
    assert render(sequent_to_formula(parse_sequent("=> x"))) == "1 -> x"
