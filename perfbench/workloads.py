"""The four benchmark workloads.

Each workload turns a seed into inputs (set-up, untimed), then on every pass
builds its catalogs and runs its items (timed).  After the pass, outside any
timing, every item's result is checked by an oracle that does not trust the
code path it checks, and rendered as one line of the result digest.

The workloads call girale only through module attributes (``amalgam.amalgamate``
and so on), so the tracer in ``spans.py`` sees every call it wraps.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from girale import algebra, amalgam, construct, formula, group, proofs, semantics
from girale.formula import Bang, BinOp, Const, Var

from fixtures import (
    CANONICAL_SIGNATURES,
    INTERPOLATION_FIXTURES,
    PROVABLE_SEQUENTS,
    REFUTABLE_SEQUENTS,
)

FULL = construct.SIGNATURE_FULL
DEFINITE = frozenset({"found", "refused", "proved", "amalgamated", "decided"})


@dataclass
class Item:
    """One timed unit of work.  ``key`` is stable across seeds and passes."""

    key: str
    run: Callable[[], Any]
    meta: Any = None


@dataclass
class Result:
    """What the oracle and the digest need from one item's output."""

    status: str
    line: str
    payload: Any = None


# Random formula and sequent shapes are drawn from this fixed seed, so every
# run seed gets the same mix of verdicts and costs; the run seed picks the
# variable names (whose sort order drives enumeration and search order) and
# the order of antecedents and of items.
STRUCTURE_SEED = 2305_05051


def _names(rng: random.Random, count: int, ordered: bool = False) -> list[str]:
    """Distinct variable names drawn from the seed.

    Unless ``ordered``, their sort order varies with the seed too.
    """
    pool = [f"{c}{i}" for c in "pqrsuvw" for i in range(10)]
    names = rng.sample(pool, count)
    return sorted(names) if ordered else names


class Workload:
    """Base: subclasses fill ``__init__`` (set-up) and the three hooks below."""

    name = ""

    def __init__(self, seed: int, tiny: bool = False) -> None:
        self.seed = seed
        # (key, line, problem) for work a pass does before its items
        self.prelude: list[tuple[str, str, str | None]] = []

    def pass_items(self) -> list[Item]:
        raise NotImplementedError

    def summarize(self, item: Item, output: Any) -> Result:
        raise NotImplementedError

    def check(self, item: Item, result: Result) -> str | None:
        """Oracle; returns a problem description or None."""
        raise NotImplementedError


# --- amalgam-sweep ---------------------------------------------------------


class AmalgamSweep(Workload):
    """``girale catalog --spans`` for primes {2}, {5}, {2,5} x 4 signatures, order <= 7."""

    name = "amalgam-sweep"

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        self.settings = [
            (primes, signature)
            for primes in ((2,), (5,), (2, 5))
            for signature in CANONICAL_SIGNATURES
        ]
        self.max_order = 3 if tiny else 7

    def pass_items(self) -> list[Item]:
        self.prelude = []
        items = []
        for primes_tuple, signature in self.settings:
            primes = group.PrimeSet.of(*primes_tuple)
            tag = f"{'+'.join(map(str, primes_tuple))}/{','.join(sorted(signature)) or '-'}"
            for label, member, grp in amalgam.class_catalog(primes, signature, self.max_order):
                laws = algebra.check_signature_laws(member).passed
                simple = algebra.congruence_set(member).is_simple() if grp is not None else None
                problem = None if laws and simple in (True, None) else "member fails laws or simplicity"
                self.prelude.append(
                    (f"member {tag} {label}", f"laws={laws} simple={simple}", problem)
                )
            query = construct.KClassQuery(primes, signature)
            for index, span in enumerate(
                amalgam.span_catalog(primes, signature, self.max_order)
            ):
                items.append(Item(f"span {tag} #{index:04d}", _span_job(span, query)))
        random.Random(self.seed).shuffle(items)
        return items

    def summarize(self, item: Item, output: Any) -> Result:
        span, result, report, member = output
        sizes = f"{span.A.size},{span.B.size},{span.C.size}->{result.D.size}"
        line = (
            f"amalgamated {sizes} passed={report.passed} strong={report.strong} "
            f"member={member.member}"
        )
        return Result("amalgamated", line, (report.passed, member.member))

    def check(self, item: Item, result: Result) -> str | None:
        passed, member = result.payload
        if not passed:
            return "verify_amalgam rejects the amalgam"
        if not member:
            return "amalgam D is not in the class"
        return None


def _span_job(span, query) -> Callable[[], Any]:
    def run():
        result = amalgam.amalgamate(span, query)
        report = amalgam.verify_amalgam(span, result, strong=True)
        member = construct.member_K(result.D, query)
        return span, result, report, member

    return run


# --- interp-search ---------------------------------------------------------


def _girales(max_order: int):
    return [
        construct.build_R(group.make_group(chain or [1]), FULL)
        for chain in group.abelian_group_catalog(max_order)
    ]


def _shared_term(rng: random.Random, names: list[str]):
    """A random formula using each shared variable exactly once."""
    parts = [Var(n) for n in names]
    rng.shuffle(parts)
    while len(parts) > 1:
        i = rng.randrange(len(parts) - 1)
        op = rng.choice(("mul", "mul", "and", "or", "imp"))
        parts[i : i + 2] = [BinOp(op, parts[i], parts[i + 1])]
    return parts[0]


def interpolation_pairs(rng: random.Random) -> list[tuple[str, str, str]]:
    """Entailing pairs phi |= psi sharing 3 or 4 variables, in two families.

    "Far" pairs put phi below a shared term S (S /\\ u, u /\\ S or
    S * (u /\\ 1)) and psi above it (S \\/ v or v \\/ S).  The smallest
    interpolant is S, five or seven nodes, which a capped search does not
    reach, so these end exhausted.  "Near" pairs are S /\\ a |= a \\/ T
    with S and T over the other shared variables, so the atom a is found
    among the first candidates.  Every pair entails in all three modes.  The
    first pair is the four-variable product from ROADMAP.

    Item times cluster by family and variable count.  The counts put
    item_p50_ms among the three-variable near searches (10-25 ms) and
    item_p90_ms among the four-variable and heavy fixture searches
    (90-280 ms), away from the gaps between clusters.  Shapes come from STRUCTURE_SEED; ``rng``
    only picks the variable names, in a fixed sort order, so each search
    enumerates the same candidates up to renaming on every seed.
    """
    shapes = random.Random(STRUCTURE_SEED)
    families = [("far", 4)] + [("far", 3)] * 8 + [("near", 3)] * 8 + [("near", 4)] * 4
    pairs = []
    for index, (family, k) in enumerate(families):
        names = _names(rng, k + 2, ordered=True)
        shared, (u, v) = names[:k], names[k:]
        if index == 0:
            a, b, c, d = shared
            term = BinOp("mul", BinOp("mul", BinOp("mul", Var(a), Var(b)), Var(c)), Var(d))
        else:
            term = _shared_term(shapes, shared)
        if family == "far":
            below = shapes.choice(
                (
                    BinOp("and", term, Var(u)),
                    BinOp("and", Var(u), term),
                    BinOp("mul", term, BinOp("and", Var(u), Const("1"))),
                )
            )
            above = shapes.choice((BinOp("or", term, Var(v)), BinOp("or", Var(v), term)))
        else:
            atom = Var(shared[0])
            below = BinOp("and", _shared_term(shapes, shared[1:]), atom)
            above = BinOp("or", atom, _shared_term(shapes, shared[1:]))
        pairs.append((family, formula.render(below), formula.render(above)))
    return pairs


class InterpSearch(Workload):
    """Interpolant search: acceptance-10 fixtures plus seeded capped searches."""

    name = "interp-search"
    FIXTURE_DEPTH = 4
    FIXTURE_CAP = 20000
    SEEDED_DEPTH = 2
    SEEDED_CAP = 30

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        fixtures = INTERPOLATION_FIXTURES[:3] if tiny else INTERPOLATION_FIXTURES
        pairs = interpolation_pairs(rng)
        if tiny:
            pairs = pairs[:1] + pairs[-1:]
        self.jobs = []  # (key, catalog, phi, psi, mode, depth, cap)
        for i, (phi, psi) in enumerate(fixtures):
            for mode in semantics.MODES:
                self.jobs.append(
                    (f"fixture {i:02d} {mode}", "small", phi, psi, mode,
                     self.FIXTURE_DEPTH, self.FIXTURE_CAP)
                )
        for i, (family, phi, psi) in enumerate(pairs):
            for mode in semantics.MODES:
                self.jobs.append(
                    (f"seeded {family} {i:02d} {mode}", "six", phi, psi, mode,
                     self.SEEDED_DEPTH, self.SEEDED_CAP)
                )
        rng.shuffle(self.jobs)

    def pass_items(self) -> list[Item]:
        catalogs = {"small": _girales(3), "six": _girales(6)}
        self.catalogs = catalogs
        items = []
        for key, cat, phi, psi, mode, depth, cap in self.jobs:
            items.append(
                Item(key, _search_job(catalogs[cat], phi, psi, mode, depth, cap),
                     (cat, mode, cap, key.startswith("fixture")))
            )
        return items

    def summarize(self, item: Item, output: Any) -> Result:
        phi, psi, res = output
        parts = [res.status, f"tried={res.candidates_tried}"]
        if res.interpolant is not None:
            parts.append(f"interpolant={formula.render(res.interpolant)}")
        if res.countermodel is not None:
            parts.append(f"countermodel={res.algebra_index}:{sorted(res.countermodel.items())}")
        return Result(res.status, " ".join(parts), (phi, psi, res))

    def check(self, item: Item, result: Result) -> str | None:
        cat, mode, cap, is_fixture = item.meta
        phi, psi, res = result.payload
        if is_fixture and res.status != "found":
            return f"fixture ended {res.status}"
        if res.status == "refused":
            return "entailing pair refused"
        if res.status == "exhausted":
            return None if res.candidates_tried <= cap else "tried more than the cap"
        if not res.certificate or not all(j.holds for j in res.certificate):
            return "certificate does not hold"
        return interpolant_problem(self.catalogs[cat], phi, psi, res.interpolant, mode)


def interpolant_problem(algebras, phi, psi, delta, mode: str) -> str | None:
    """Acceptance-10 re-verification of an interpolant through the public judgments."""
    if delta is None:
        return "no interpolant"
    shared = formula.free_variables(phi) & formula.free_variables(psi)
    if not formula.free_variables(delta) <= shared:
        return "interpolant uses a variable that is not shared"
    if mode == "deductive":
        ok = (
            semantics.consequence(algebras, [phi], delta).holds
            and semantics.consequence(algebras, [delta], psi).holds
        )
    else:
        wrap = (lambda f: f) if mode == "craig" else Bang
        ok = all(
            semantics.valid(A, BinOp("imp", wrap(phi), wrap(delta))).holds
            and semantics.valid(A, BinOp("imp", wrap(delta), wrap(psi))).holds
            for A in algebras
        )
    return None if ok else "interpolant fails re-verification"


def _search_job(algebras, phi_text, psi_text, mode, depth, cap) -> Callable[[], Any]:
    def run():
        phi = formula.parse(phi_text)
        psi = formula.parse(psi_text)
        res = semantics.interpolant_search(algebras, phi, psi, mode, depth, max_candidates=cap)
        return phi, psi, res

    return run


# --- sequent-search --------------------------------------------------------


def chain_sequent(shapes: random.Random, rng: random.Random, k: int, provable: bool) -> str:
    """p0, p0 -> p1, ..., p(k-1) -> pk => pk (or => pk * p0), renamed and shuffled.

    ``rng`` names the atoms, in a fixed sort order, and ``shapes`` orders the
    antecedent, so that the search does the same work on every seed.
    """
    atoms = _names(rng, k + 1, ordered=True)
    antecedent = [atoms[0]] + [f"{atoms[i]} -> {atoms[i + 1]}" for i in range(k)]
    shapes.shuffle(antecedent)
    succedent = atoms[k] if provable else f"{atoms[k]} * {atoms[0]}"
    return f"{', '.join(antecedent)} => {succedent}"


def _random_fragment_formula(shapes: random.Random, atoms: list[str], depth: int):
    if depth == 0 or shapes.random() < 0.3:
        choice = shapes.choice(atoms + atoms + ["1", "0"])
        return Const(choice) if choice in ("1", "0") else Var(choice)
    op = shapes.choice(("mul", "imp", "and", "or"))
    return BinOp(
        op,
        _random_fragment_formula(shapes, atoms, depth - 1),
        _random_fragment_formula(shapes, atoms, depth - 1),
    )


def random_sequent(shapes: random.Random, rng: random.Random) -> str:
    """A small sequent over * -> /\\ \\/ 1 0 with three atoms.

    ``shapes`` fixes the formulas and orders the antecedent; ``rng`` names
    the atoms, in a fixed sort order, so that the search does the same work
    on every seed.
    """
    atoms = _names(rng, 3, ordered=True)
    antecedent = [
        formula.render(_random_fragment_formula(shapes, atoms, 2)) for _ in range(shapes.randint(1, 3))
    ]
    succedent = "" if shapes.random() < 0.1 else formula.render(_random_fragment_formula(shapes, atoms, 2))
    shapes.shuffle(antecedent)
    return f"{', '.join(antecedent)} => {succedent}".strip()


class SequentSearch(Workload):
    """Bounded cut-free search: the acceptance-09 suite, chains and random sequents."""

    name = "sequent-search"
    BOUND = 12
    CHAIN_LENGTHS = range(3, 7)
    CHAIN_DRAWS = 6
    RANDOM_COUNT = 600

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        self.jobs = []  # (key, text, expected: True/False/None)
        for i, text in enumerate(PROVABLE_SEQUENTS[:6] if tiny else PROVABLE_SEQUENTS):
            self.jobs.append((f"suite+ {i:02d}", text, True))
        for i, text in enumerate(REFUTABLE_SEQUENTS):
            self.jobs.append((f"suite- {i:02d}", text, False))
        shapes = random.Random(STRUCTURE_SEED)
        for draw in range(1 if tiny else self.CHAIN_DRAWS):
            for k in (range(3, 5) if tiny else self.CHAIN_LENGTHS):
                for provable in (True, False):
                    tag = "proves" if provable else "fails"
                    text = chain_sequent(shapes, rng, k, provable)
                    self.jobs.append((f"chain {k} {tag} {draw}", text, provable))
        for i in range(5 if tiny else self.RANDOM_COUNT):
            self.jobs.append((f"random {i:03d}", random_sequent(shapes, rng), None))
        shapes.shuffle(self.jobs)

    def pass_items(self) -> list[Item]:
        return [Item(key, _prove_job(text, self.BOUND), expected) for key, text, expected in self.jobs]

    def summarize(self, item: Item, output: Any) -> Result:
        seq, proof, problems = output
        if proof is None:
            return Result("unknown", "unknown", (seq, None))
        line = f"proved depth={proof.depth()} revalidated={not problems} shape={proof_shape(proof)}"
        return Result("proved", line, (seq, proof))

    def check(self, item: Item, result: Result) -> str | None:
        seq, proof = result.payload
        expected = item.meta
        if expected is not None and (proof is not None) != expected:
            return f"verdict {result.status}, known {'provable' if expected else 'unprovable'}"
        if proof is None:
            if expected is False and item.key.startswith("suite"):
                if not any(not semantics.valid(A, proofs.sequent_to_formula(seq)).holds
                           for A in refutation_catalog()):
                    return "refutable sequent has no countermodel"
            return None
        problems = proofs.validate_proof(proof)
        if problems:
            return f"invalid proof: {problems[0]}"
        if proof.sequent.succedent != seq.succedent or sorted(
            map(formula.render, proof.sequent.antecedent)
        ) != sorted(map(formula.render, seq.antecedent)):
            return "proof concludes a different sequent"
        translated = proofs.sequent_to_formula(seq)
        for A in refutation_catalog():
            if not semantics.valid(A, translated).holds:
                return "proved sequent has a countermodel"
        return None


def refutation_catalog():
    """The two small expansions the CLI uses to look for countermodels."""
    return [
        construct.build_R(group.make_group([2]), frozenset({"0"})),
        construct.build_R(group.make_group([3]), frozenset({"0"})),
    ]


def proof_shape(proof) -> str:
    if not proof.children:
        return proof.rule
    return f"{proof.rule}({','.join(proof_shape(c) for c in proof.children)})"


def _prove_job(text: str, bound: int) -> Callable[[], Any]:
    # the same calls as ``girale prove``, which revalidates every proof it finds
    def run():
        seq = proofs.parse_sequent(text)
        proof = proofs.prove_sequent(seq, bound)
        problems = proofs.validate_proof(proof) if proof is not None else []
        return seq, proof, problems

    return run


# --- table-kernel ----------------------------------------------------------


def acceptance_random_formula(rng: random.Random, depth: int):
    """The acceptance-08 formula generator over x, y, z and all constants."""
    if depth == 0 or rng.random() < 0.35:
        choice = rng.choice(["x", "y", "z", "1", "0", "bot", "top"])
        return Var(choice) if len(choice) == 1 and choice.isalpha() else Const(choice)
    if rng.random() < 0.2:
        return Bang(acceptance_random_formula(rng, depth - 1))
    op = rng.choice(["and", "or", "mul", "imp"])
    return BinOp(op, acceptance_random_formula(rng, depth - 1),
                 acceptance_random_formula(rng, depth - 1))


def _rename(f, mapping: dict[str, str]):
    return formula.substitute(f, {old: Var(new) for old, new in mapping.items()})


class TableKernel(Workload):
    """Large-table algebra batteries, injective hom search, and deduction checks.

    The batteries hold most of the run time, so ``items_per_s`` follows the
    64-element tables; the 1000 deduction checks are most of the items, so
    ``item_p50_ms`` and ``item_p90_ms`` follow small-grid ``consequence``.
    """

    name = "table-kernel"
    BATTERY_STRATA = 12
    HOM_PAIRS = 40
    DEDUCTION_CHECKS = 1000

    def __init__(self, seed: int, tiny: bool = False) -> None:
        super().__init__(seed, tiny)
        rng = random.Random(seed)
        chains = sorted(
            (c for c in group.abelian_group_catalog(62) if 16 <= math.prod(c) <= 62),
            key=lambda c: (math.prod(c), c),
        )
        strata = 2 if tiny else self.BATTERY_STRATA
        if tiny:
            chains = chains[:8]
        # the structure seed picks the groups (one from each run of consecutive
        # orders), primes, formulas and hom pairs, so every seed does the same
        # work; the run seed names the variables and orders the items
        shapes = random.Random(STRUCTURE_SEED)
        bounds = [round(i * len(chains) / strata) for i in range(strata + 1)]
        sample = [shapes.choice(chains[bounds[i] : bounds[i + 1]]) for i in range(strata)]

        theorems = [e["steps"][-1].formula for e in proofs.load_hilbert_corpus()]
        three = [f for f in theorems if len(formula.free_variables(f)) == 3]
        two = [f for f in theorems if len(formula.free_variables(f)) == 2]
        # the refutable acceptance-09 translations fail on every nontrivial
        # expansion, except excluded middle (=> x \\/ (x -> 0)), which fails
        # iff some element has order 2, that is iff the group order is even
        refutable = [
            (proofs.sequent_to_formula(proofs.parse_sequent(t)), "odd" if "\\/ (x -> 0)" in t else False)
            for t in REFUTABLE_SEQUENTS
        ]

        self.jobs = []  # (key, kind, args)
        for chain in sample:
            n = math.prod(chain)
            prime = shapes.choice([p for p in (2, 3, 5, 7, 11, 13) if n % p])
            names = _names(rng, 3, ordered=True)
            mapping = dict(zip(("x", "y", "z"), names))
            battery = []
            for f, truth in (
                [(f, True) for f in shapes.sample(three, 2)]
                + [(f, True) for f in shapes.sample(two, 2)]
                + shapes.sample(refutable, 2)
            ):
                battery.append((_rename(f, mapping), truth))
            self.jobs.append((f"battery {chain}", "battery", (chain, prime, battery)))

        small = [c or (1,) for c in group.abelian_group_catalog(14)]
        pairs = [(s, t) for s in small for t in small if math.prod(t) % math.prod(s) == 0]
        for s, t in shapes.sample(pairs, 4 if tiny else self.HOM_PAIRS):
            sig = shapes.choice(CANONICAL_SIGNATURES)
            self.jobs.append((f"homs {s}->{t} {sorted(sig)}", "homs", (s, t, sig)))

        for i in range(20 if tiny else self.DEDUCTION_CHECKS):
            premises = [acceptance_random_formula(shapes, 3) for _ in range(shapes.randrange(3))]
            phi = acceptance_random_formula(shapes, 4)
            psi = acceptance_random_formula(shapes, 4)
            mapping = dict(zip(("x", "y", "z"), _names(rng, 3, ordered=True)))
            premises, phi, psi = ([_rename(f, mapping) for f in premises],
                                  _rename(phi, mapping), _rename(psi, mapping))
            self.jobs.append((f"deduction {i:04d}", "deduction", (premises, phi, psi)))
        rng.shuffle(self.jobs)

    def pass_items(self) -> list[Item]:
        catalog = _girales(6)
        runners = {
            "battery": _battery_job,
            "homs": _homs_job,
            "deduction": lambda args: _deduction_job(catalog, args),
        }
        return [Item(key, runners[kind](args), (kind, args)) for key, kind, args in self.jobs]

    def summarize(self, item: Item, output: Any) -> Result:
        kind, _ = item.meta
        if kind == "battery":
            grp, A, laws, member, congruences, verdicts = output
            cong = "-" if congruences is None else congruences.count
            shown = ";".join(
                "holds" if v.holds else f"fails@{sorted(v.countermodel.items())}"
                for v in verdicts
            )
            line = f"laws={laws.passed} member={member.member} congruences={cong} valid={shown}"
            return Result("decided", line, output)
        if kind == "homs":
            source, target, homs = output
            maps = sorted(h.mapping for h in homs)
            line = f"homs={len(maps)} first={maps[0] if maps else None}"
            return Result("decided", line, output)
        report = output
        line = " ".join(
            "holds" if r.holds else f"fails@{r.algebra_index}:{sorted(r.countermodel.items())}"
            for r in (report.with_premise, report.guarded_arrow, report.guarded_both)
        )
        return Result("decided", line, output)

    def check(self, item: Item, result: Result) -> str | None:
        kind, args = item.meta
        if kind == "battery":
            return _battery_problem(args, result.payload)
        if kind == "homs":
            source, target, homs = result.payload
            signature = args[2]
            expected = {
                construct.lift_embedding(alpha, signature).mapping
                for alpha in group.group_homs(
                    group.make_group(args[0]), group.make_group(args[1]), injective_only=True
                )
            }
            found = [h.mapping for h in homs]
            if set(found) != expected or len(found) != len(expected):
                return "injective homs differ from the lifted group embeddings"
            return None
        return None if result.payload.agree else "premise-discharge forms disagree"


def _battery_job(args) -> Callable[[], Any]:
    chain, prime, battery = args

    def run():
        grp = group.make_group(chain)
        A = construct.build_R(grp, FULL)
        laws = algebra.check_signature_laws(A)
        member = construct.member_K(A, construct.KClassQuery(group.PrimeSet.of(prime), FULL))
        congruences = algebra.congruence_set(A) if A.size <= 32 else None
        verdicts = [semantics.valid(A, f) for f, _ in battery]
        return grp, A, laws, member, congruences, verdicts

    return run


def _battery_problem(args, output) -> str | None:
    chain, prime, battery = args
    grp, A, laws, member, congruences, verdicts = output
    if not laws.passed:
        return "law report fails"
    n = grp.size
    bot, top = n, n + 1
    for a in range(A.size):
        for c in range(A.size):
            if a == bot:
                expected = top
            elif a == top:
                expected = top if c == top else bot
            elif c in (bot, top):
                expected = c
            else:
                expected = grp.mul(grp.inv(a), c)
            if A.imp[a][c] != expected:
                return f"imp[{a}][{c}] differs from the closed form"
    # a prime not dividing the order leaves no p-torsion, so the class admits the group
    if not member.member:
        return f"member_K rejects a group without {prime}-torsion"
    if congruences is not None and congruences.count != 2:
        return f"{congruences.count} congruences, expected 2"
    for (f, truth), verdict in zip(battery, verdicts):
        if truth == "odd":
            truth = n % 2 == 1
        if verdict.holds != truth:
            return f"valid({formula.render(f)}) = {verdict.holds}, known {truth}"
    return None


def _homs_job(args) -> Callable[[], Any]:
    s, t, signature = args

    def run():
        source = construct.build_R(group.make_group(s), signature)
        target = construct.build_R(group.make_group(t), signature)
        return source, target, algebra.enumerate_homs(source, target, injective_only=True)

    return run


def _deduction_job(catalog, args) -> Callable[[], Any]:
    premises, phi, psi = args
    return lambda: semantics.deduction_check(catalog, premises, phi, psi)


WORKLOADS = {
    cls.name: cls for cls in (AmalgamSweep, InterpSearch, SequentSearch, TableKernel)
}


def is_definite(status: str) -> bool:
    return status in DEFINITE
