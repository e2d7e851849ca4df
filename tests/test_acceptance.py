"""Acceptance suite: one test per criterion, each printing its pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
import random
import time

import numpy as np
import pytest

from girale import clear_caches
from girale.algebra import (
    OPTIONAL_SYMBOLS,
    check_signature_laws,
    congruence_set,
    enumerate_homs,
    meet_partitions,
)
from girale.amalgam import amalgamate, span_catalog, verify_amalgam
from girale.construct import (
    KClassQuery,
    SIGNATURE_FULL,
    build_R,
    lift_embedding,
    member_K,
    restrict_embedding,
)
from girale.formula import Bang, BinOp, Const, Var, parse
from girale.group import PrimeSet, abelian_group_catalog, check_sigma, group_homs, make_group
from girale.proofs import (
    SCHEMES,
    SYSTEMS,
    Step,
    check_derivation,
    load_hilbert_corpus,
    parse_sequent,
    prove_sequent,
    sequent_to_formula,
    validate_proof,
)
from girale.semantics import consequence, deduction_check, interpolant_search, valid

ALL_SIGNATURES = [
    frozenset(combo)
    for k in range(5)
    for combo in itertools.combinations(OPTIONAL_SYMBOLS, k)
]
CANONICAL_SIGNATURES = [
    frozenset(),
    frozenset({"0"}),
    frozenset({"0", "bot", "top"}),
    SIGNATURE_FULL,
]


@pytest.fixture(scope="module")
def groups12():
    return [make_group(chain or [1]) for chain in abelian_group_catalog(12)]


@pytest.fixture(scope="module")
def girale_catalog6():
    return [
        build_R(make_group(chain or [1]), SIGNATURE_FULL)
        for chain in abelian_group_catalog(6)
    ]


def _report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_01_construction_fidelity(groups12):
    """Every expansion over every signature subset satisfies its class laws."""
    clear_caches()
    started = time.monotonic()
    checked = 0
    for group in groups12:
        for signature in ALL_SIGNATURES:
            algebra = build_R(group, signature)
            report = check_signature_laws(algebra)
            assert report.passed, (group.describe(), sorted(signature), report.summary())
            checked += 1
            if "bang" in signature:
                bang, one = algebra.bang, algebra.one
                assert bang[one] == one
                for a in range(algebra.size):
                    assert algebra.leq(bang[a], algebra.meet[a][one])
                    assert bang[bang[a]] == bang[a]
                    for b in range(algebra.size):
                        assert algebra.mult[bang[a]][bang[b]] == bang[algebra.meet[a][b]]
    elapsed = time.monotonic() - started
    assert checked == 17 * 16
    assert elapsed <= 60.0, f"construction sweep took {elapsed:.1f}s"
    _report(1, f"{checked} algebras pass their class laws in {elapsed:.1f}s")


def test_criterion_02_closed_form_residuals(groups12):
    """The generic residual table equals the direct formulas, entrywise."""
    entries = 0
    for group in groups12:
        n = group.size
        bot, top = n, n + 1
        for signature in ALL_SIGNATURES:
            algebra = build_R(group, signature)
            for a in range(algebra.size):
                for c in range(algebra.size):
                    if a == bot:
                        expected = top
                    elif a == top:
                        expected = top if c == top else bot
                    elif c == bot:
                        expected = bot
                    elif c == top:
                        expected = top
                    else:
                        expected = group.mul(group.inv(a), c)
                    assert algebra.imp[a][c] == expected, (group.describe(), a, c)
                    entries += 1
    _report(2, f"{entries} residual entries match the closed forms exactly")


def test_criterion_03_simplicity_and_fsi(groups12):
    """Exactly two congruences each; products of two members are never simple."""
    for group in groups12:
        for signature in ALL_SIGNATURES:
            result = congruence_set(build_R(group, signature))
            assert result.count == 2, (group.describe(), sorted(signature), result.count)
            assert result.is_simple() and result.is_fsi()

    algebras = [build_R(group) for group in groups12]
    pairs = 0
    for A, B in itertools.combinations_with_replacement(algebras, 2):
        nA, nB = A.size, B.size
        size = nA * nB
        tables = {}
        for label in ("meet", "join", "mult", "imp"):
            tA = np.asarray(getattr(A, label), dtype=np.int64)
            tB = np.asarray(getattr(B, label), dtype=np.int64)
            tables[label] = (
                tA[:, None, :, None] * nB + tB[None, :, None, :]
            ).reshape(size, size)
        left = np.arange(size, dtype=np.int64) // nB
        right = np.arange(size, dtype=np.int64) % nB
        for labels, reps in (
            (left, left * nB),
            (right, right),
        ):
            blocks = len(set(labels.tolist()))
            assert 1 < blocks < size  # neither the identity nor the total relation
            for table in tables.values():
                classes = labels[table]
                expected = classes[reps[:, None], reps[None, :]]
                assert np.array_equal(classes, expected)
        # the two kernels meet in the identity relation, so it is not meet-irreducible
        met = meet_partitions(tuple(left.tolist()), tuple(right.tolist()))
        assert len(set(met)) == size
        pairs += 1
    _report(3, f"272 catalog algebras simple; {pairs} pairwise products non-simple")


def test_criterion_04_membership_separation(groups12):
    """One prime in, one prime out for the 3-element cyclic core, over all signatures."""
    z3 = make_group([3])
    for signature in ALL_SIGNATURES:
        algebra = build_R(z3, signature)
        inside = member_K(algebra, KClassQuery(PrimeSet.of(2), signature))
        assert inside.member and inside.group is not None
        outside = member_K(algebra, KClassQuery(PrimeSet.of(3), signature))
        assert not outside.member
        assert outside.failed == "sigma-3" and outside.witness

    catalogs = {}
    for p in (2, 3, 5, 7, 11):
        primes = PrimeSet.of(p)
        catalogs[p] = frozenset(
            group.invariant_factors
            for group in groups12
            if check_sigma(group, primes).passed
        )
    for p, q in itertools.combinations(catalogs, 2):
        assert catalogs[p] != catalogs[q], (p, q)
    _report(4, "separation holds for all 16 signatures; 5 prime-set catalogs distinct")


def test_criterion_05_amalgamation_sweep():
    """Every span with group parts of order <= 7 amalgamates inside the class."""
    started = time.monotonic()
    total = 0
    strong = 0
    for primes_tuple in ((2,), (5,), (2, 5)):
        primes = PrimeSet.of(*primes_tuple)
        for signature in CANONICAL_SIGNATURES:
            query = KClassQuery(primes, signature)
            for span in span_catalog(primes, signature, 7):
                amalgam = amalgamate(span, query)
                report = verify_amalgam(span, amalgam, strong=True)
                assert report.passed, (primes_tuple, sorted(signature))
                assert member_K(amalgam.D, query).member
                total += 1
                strong += int(report.strong)
    elapsed = time.monotonic() - started
    assert elapsed <= 300.0, f"amalgamation sweep took {elapsed:.1f}s"
    assert total >= 1000
    _report(5, f"{total} spans amalgamated ({strong} strong) in {elapsed:.1f}s")


def test_criterion_06_embedding_transport(groups12):
    """Lift then restrict is the identity; lifted maps are the unique extensions."""
    lifts = 0
    for source in groups12:
        for target in groups12:
            if target.size % source.size:
                continue
            for alpha in group_homs(source, target, injective_only=True):
                # checking the empty and the full signature covers the rest:
                # any intermediate signature imposes a subset of these obligations
                for signature in (frozenset(), SIGNATURE_FULL):
                    beta = lift_embedding(alpha, signature)
                    assert beta.is_injective() and not beta.violations()
                    assert restrict_embedding(beta).mapping == alpha.mapping
                lifts += 1
    assert lifts > 300

    small = [make_group(chain or [1]) for chain in abelian_group_catalog(6)]
    for source in small:
        for target in small:
            expansions_src = build_R(source)
            expansions_tgt = build_R(target)
            found = enumerate_homs(expansions_src, expansions_tgt, injective_only=True)
            group_embeddings = group_homs(source, target, injective_only=True)
            lifted = {lift_embedding(a).mapping for a in group_embeddings}
            assert {h.mapping for h in found} == lifted
            assert len(found) == len(group_embeddings)
    _report(6, f"{lifts} group embeddings transport; extensions unique up to order 6")


def _mutations(corpus):
    """Deterministic corruptions with their expected failure step and reason."""
    jobs = []
    for entry in corpus:
        steps = list(entry["steps"])
        system = SYSTEMS[entry["system"]]
        last = len(steps)
        final = steps[-1]

        broken = list(steps)
        broken[-1] = Step(BinOp("or", final.formula, final.formula), final.rule, final.refs)
        if final.rule in ("mp", "adj", "nec"):
            reason = f"{final.rule} does not fire"
        else:
            reason = "no matching substitution"
        jobs.append((entry["name"] + ":formula", tuple(broken), system, last, reason))

        mp_steps = [i for i, s in enumerate(steps) if s.rule == "mp"]
        if mp_steps:
            i = mp_steps[0]
            swapped = list(steps)
            swapped[i] = Step(steps[i].formula, "mp", (steps[i].refs[1], steps[i].refs[0]))
            jobs.append(
                (entry["name"] + ":swap", tuple(swapped), system, i + 1, "mp does not fire")
            )
            dangled = list(steps)
            dangled[i] = Step(steps[i].formula, "mp", (i + 1, steps[i].refs[1]))
            jobs.append(
                (
                    entry["name"] + ":dangle",
                    tuple(dangled),
                    system,
                    i + 1,
                    "refs must point to earlier steps",
                )
            )
        renamed = list(steps)
        renamed[0] = Step(steps[0].formula, "A99", steps[0].refs)
        jobs.append((entry["name"] + ":rule", tuple(renamed), system, 1, "not available"))
    return jobs


def test_criterion_07_hilbert_soundness(girales_upto_6):
    corpus = load_hilbert_corpus()
    assert len(corpus) >= 50
    covered = set()
    for entry in corpus:
        report = check_derivation(entry["steps"], SYSTEMS[entry["system"]])
        assert report.valid, (entry["name"], report.describe())
        covered.update(step.rule for step in entry["steps"])
        theorem = entry["steps"][-1].formula
        for algebra in girales_upto_6:
            outcome = valid(algebra, theorem)
            assert outcome.holds, (entry["name"], outcome.countermodel)
    assert set(SCHEMES) <= covered and {"mp", "adj", "nec"} <= covered

    mutations = _mutations(corpus[:12])
    assert len(mutations) >= 20
    for name, steps, system, expected_step, expected_reason in mutations:
        report = check_derivation(steps, system)
        assert not report.valid, name
        assert report.step == expected_step, (name, report.describe())
        assert expected_reason in report.reason, (name, report.describe())
    _report(
        7,
        f"{len(corpus)} derivations sound on girales; "
        f"{len(mutations)} mutations rejected at the right step",
    )


def _random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        choice = rng.choice(["x", "y", "z", "1", "0", "bot", "top"])
        return Var(choice) if len(choice) == 1 and choice.isalpha() else Const(choice)
    if rng.random() < 0.2:
        return Bang(_random_formula(rng, depth - 1))
    op = rng.choice(["and", "or", "mul", "imp"])
    return BinOp(op, _random_formula(rng, depth - 1), _random_formula(rng, depth - 1))


def test_criterion_08_deduction_agreement(girales_upto_6):
    rng = random.Random(20260809)
    disagreements = 0
    for _ in range(1000):
        premises = [_random_formula(rng, 3) for _ in range(rng.randrange(3))]
        phi = _random_formula(rng, 4)
        psi = _random_formula(rng, 4)
        report = deduction_check(girales_upto_6, premises, phi, psi)
        if not report.agree:
            disagreements += 1
    assert disagreements == 0
    _report(8, "1000 randomized premise-discharge checks agree three ways")


PROVABLE_SEQUENTS = [
    "x => x",
    "=> 1",
    "x, y => x * y",
    "x, y => y * x",
    "x, x -> y => y",
    "x -> y, x => y",
    "x /\\ y => x",
    "x /\\ y => y",
    "x => x \\/ y",
    "y => x \\/ y",
    "=> x -> x",
    "=> 1 -> (x -> x)",
    "x * y => y * x",
    "x * (y * z) => (x * y) * z",
    "(x * y) * z => x * (y * z)",
    "x, y -> z, x -> y => z",
    "x * (x -> y) => y",
    "x -> y => (z -> x) -> (z -> y)",
    "x -> y => (y -> z) -> (x -> z)",
    "x /\\ (y /\\ z) => (x /\\ y) /\\ z",
    "x \\/ y => y \\/ x",
    "x * (y \\/ z) => (x * y) \\/ (x * z)",
    "(x * y) \\/ (x * z) => x * (y \\/ z)",
    "(x -> y) /\\ (x -> z) => x -> (y /\\ z)",
    "x -> (y /\\ z) => (x -> y) /\\ (x -> z)",
    "1, x => x",
    "0 =>",
    "x, x -> 0 =>",
    "x, x -> 0 => 0",
    "=> (x * y) -> (y * x)",
    "x \\/ x => x",
    "x => x /\\ x",
]

REFUTABLE_SEQUENTS = [
    "x => x * x",
    "x, y => x",
    "x * x => x",
    "=> x \\/ (x -> 0)",
    "x \\/ y => x * y",
]


def test_criterion_09_sequent_search():
    for text in PROVABLE_SEQUENTS:
        proof = prove_sequent(parse_sequent(text), 10)
        assert proof is not None, text
        assert not validate_proof(proof), text
    assert len(PROVABLE_SEQUENTS) >= 30

    refutation_catalog = [
        build_R(make_group([2]), frozenset({"0"})),
        build_R(make_group([3]), frozenset({"0"})),
    ]
    for text in REFUTABLE_SEQUENTS:
        seq = parse_sequent(text)
        assert prove_sequent(seq, 12) is None, text
        translated = sequent_to_formula(seq)
        countermodels = [
            result
            for algebra in refutation_catalog
            if not (result := valid(algebra, translated)).holds
        ]
        assert countermodels, text
    _report(
        9,
        f"{len(PROVABLE_SEQUENTS)} sequents proved at depth <= 10; "
        f"{len(REFUTABLE_SEQUENTS)} refuted with countermodels",
    )


INTERPOLATION_FIXTURES = [
    ("x /\\ y", "x"),
    ("x /\\ y", "x \\/ z"),
    ("x * (x -> y)", "y \\/ z"),
    ("x", "x \\/ y"),
    ("x * y", "y * x"),
    ("x /\\ (y /\\ z)", "x /\\ y"),
    ("x", "y -> x * y"),
    ("(x * y) * z", "x * (y * z)"),
    ("!x", "x"),
    ("x /\\ 1", "x"),
    ("(x /\\ y) /\\ z", "x \\/ u"),
    ("x * (y /\\ 1)", "x * y"),
    ("!(x /\\ y)", "!x"),
    ("x \\/ y", "y \\/ x"),
    ("x * 1", "x"),
    ("x", "1 -> x"),
    ("(x \\/ y) * z", "(x * z) \\/ (y * z)"),
    ("!x * !y", "!(x /\\ y)"),
    ("!x", "!!x"),
    ("~~x", "x"),
]


def test_criterion_10_interpolation(small_girales):
    found = 0
    for lhs_text, rhs_text in INTERPOLATION_FIXTURES:
        lhs, rhs = parse(lhs_text), parse(rhs_text)
        from girale.formula import free_variables

        assert free_variables(lhs) & free_variables(rhs)
        for mode in ("deductive", "craig", "guarded"):
            result = interpolant_search(
                small_girales, lhs, rhs, mode, 4, max_candidates=20000
            )
            assert result.status == "found", (lhs_text, rhs_text, mode, result.status)
            assert result.certificate and all(j.holds for j in result.certificate)
            delta = result.interpolant
            # certificate re-verification through the public judgment entry points
            if mode == "deductive":
                assert consequence(small_girales, [lhs], delta).holds
                assert consequence(small_girales, [delta], rhs).holds
            elif mode == "craig":
                for algebra in small_girales:
                    assert valid(algebra, BinOp("imp", lhs, delta)).holds
                    assert valid(algebra, BinOp("imp", delta, rhs)).holds
            else:
                for algebra in small_girales:
                    assert valid(algebra, BinOp("imp", Bang(lhs), Bang(delta))).holds
                    assert valid(algebra, BinOp("imp", Bang(delta), Bang(rhs))).holds
            found += 1

    exhausted = interpolant_search(
        small_girales, parse("x * y"), parse("x * y"), "craig", 0
    )
    assert exhausted.status == "exhausted"
    assert exhausted.interpolant is None
    _report(
        10,
        f"{found} interpolants found and re-verified; exhaustion reported distinctly",
    )
