"""Hilbert-style derivation checking and bounded cut-free sequent search.

The Hilbert side matches steps against axiom schemes (Greek letters are
metavariables over whole formulas) and the rules mp, adj, nec.  The sequent
side does backward search in the cut-free commutative calculus over
{and, or, mul, imp, 1, 0}; with exchange, antecedents are multisets.  When
exchange is off, antecedents are sequences and the implication is read as
the left residual, so order-sensitive sequents genuinely fail.  Every
backward rule shrinks the sequent, so a failure the depth bound never cut
off has covered the whole cut-free space: by cut elimination for FLe and
FL the sequent is unprovable, and the failure is memoised at every budget.
Two sound prunings decide most failures early.  Count each atom +1 in the
succedent and -1 in the antecedent, flipped left of an implication: every
rule keeps 0 within each atom's interval of counts over the choices of
additive branches, so a goal whose interval misses 0 is unprovable.  And
->r, *l, /\\r, \\/l and 1l are invertible, their premises following from
their goal by cut: once such a premise fails at every budget, so does the
goal, and no later instance is tried.  A failure the bound cut off is searched
again at a height no branch reaches: a failure is exhaustive (unprovable) just
when no cut-free proof exists at any depth, else (unknown) one exists deeper.
Search and proof checking run over int codes for the subformulas of the
root sequent, through one rule table for both calculi.  A Maehara-style
split of a cut-free proof yields midpoint formulas by one side rule: a
premise keeps the side of each occurrence it inherits, and what a rule adds
takes the side of its principal.  Both halves are re-proved by search and
re-checked semantically.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from importlib.resources import files
from typing import Iterable, Iterator, Sequence

from .algebra import OPTIONAL_SYMBOLS, _field
from .formula import (
    BOT,
    Bang,
    BinOp,
    Const,
    Formula,
    ONE,
    TOP,
    Var,
    ZERO,
    connectives,
    free_variables,
    parse,
    render,
    size as formula_size,
    structural_key,
)

# --- Hilbert systems -------------------------------------------------------

_SCHEME_TEXT = {
    "A1": "alpha -> alpha",
    "A2": "alpha /\\ beta -> alpha",
    "A3": "alpha /\\ beta -> beta",
    "A4": "alpha -> alpha \\/ beta",
    "A5": "beta -> alpha \\/ beta",
    "A6": "(alpha -> beta) -> ((beta -> gamma) -> (alpha -> gamma))",
    "A7": "(alpha -> (beta -> gamma)) -> (beta -> (alpha -> gamma))",
    "A8": "(alpha -> beta) /\\ (alpha -> gamma) -> (alpha -> beta /\\ gamma)",
    "A9": "(alpha -> gamma) /\\ (beta -> gamma) -> (alpha \\/ beta -> gamma)",
    "A10": "alpha -> (beta -> alpha * beta)",
    "A11": "(alpha -> (beta -> gamma)) -> (alpha * beta -> gamma)",
    "A12": "1",
    "A13": "1 -> (alpha -> alpha)",
    "Abot": "alpha -> top",
    "Atop": "bot -> alpha",
    "A0": "~0",
    "NC": "alpha -> (~alpha -> 0)",
    "DN": "~~alpha -> alpha",
    "Con": "(alpha -> ~beta) -> (beta -> ~alpha)",
    "!w": "beta -> (!alpha -> beta)",
    "!i": "(!alpha -> (!alpha -> beta)) -> (!alpha -> beta)",
    "!K": "!(alpha -> beta) -> (!alpha -> !beta)",
    "!T": "!alpha -> alpha",
    "!4": "!alpha -> !!alpha",
}

SCHEMES: dict[str, Formula] = {name: parse(text) for name, text in _SCHEME_TEXT.items()}

CORE_SCHEMES = tuple(f"A{i}" for i in range(1, 14))
BOUND_SCHEMES = ("Abot", "Atop")
INVOLUTIVE_SCHEMES = ("A0", "NC", "DN", "Con")
EXPONENTIAL_SCHEMES = ("!w", "!i", "!K", "!T", "!4")


@dataclass(frozen=True)
class HilbertSystem:
    name: str
    axioms: tuple[str, ...]
    rules: frozenset[str]
    language: frozenset[str]  # allowed optional symbols among 0, bot, top, bang
    extra_axioms: tuple[tuple[str, Formula], ...] = ()

    def __post_init__(self) -> None:
        unknown = [a for a in self.axioms if a not in SCHEMES]
        if unknown:
            raise ValueError(f"Unknown axiom schemes {unknown}.")
        bad_rules = self.rules - {"mp", "adj", "nec"}
        if bad_rules:
            raise ValueError(f"Unknown rules {sorted(bad_rules)}.")
        has_exponentials = any(a in EXPONENTIAL_SCHEMES for a in self.axioms)
        if has_exponentials != ("nec" in self.rules):
            raise ValueError("nec must be present exactly when the guard axioms are.")
        for name, extra in self.extra_axioms:
            if name in SCHEMES or name in ("mp", "adj", "nec", "premise"):
                raise ValueError(f"Extra axiom name {name!r} clashes.")
            outside = _optional_symbols(extra) - self.language
            if outside:
                raise ValueError(
                    f"Extra axiom {name!r} uses symbols {sorted(outside)} "
                    "outside the system language."
                )

    def scheme(self, name: str) -> Formula | None:
        if name in self.axioms:  # each of them is one of SCHEMES
            return SCHEMES[name]
        return next((extra for extra_name, extra in self.extra_axioms if extra_name == name), None)


def _optional_symbols(f: Formula) -> frozenset[str]:
    return frozenset(connectives(f)) & frozenset(OPTIONAL_SYMBOLS)


SYSTEMS: dict[str, HilbertSystem] = {
    "RLe": HilbertSystem("RLe", CORE_SCHEMES, frozenset({"mp", "adj"}), frozenset()),
    "FLe": HilbertSystem("FLe", CORE_SCHEMES, frozenset({"mp", "adj"}), frozenset({"0"})),
    "MALL": HilbertSystem(
        "MALL",
        CORE_SCHEMES + BOUND_SCHEMES + INVOLUTIVE_SCHEMES,
        frozenset({"mp", "adj"}),
        frozenset({"0", "bot", "top"}),
    ),
    "LL": HilbertSystem(
        "LL",
        CORE_SCHEMES + BOUND_SCHEMES + INVOLUTIVE_SCHEMES + EXPONENTIAL_SCHEMES,
        frozenset({"mp", "adj", "nec"}),
        frozenset({"0", "bot", "top", "bang"}),
    ),
}


def match_axiom(f: Formula, scheme: Formula) -> dict[str, Formula] | None:
    """One-sided match: a substitution for the scheme's variables hitting f."""
    bindings: dict[str, Formula] = {}
    return bindings if _match(scheme, f, bindings) else None


def _match(pattern: Formula, target: Formula, bindings: dict[str, Formula]) -> bool:
    if isinstance(pattern, Var):
        return bindings.setdefault(pattern.name, target) is target
    if isinstance(pattern, Const):
        return pattern is target
    if isinstance(pattern, Bang):
        return isinstance(target, Bang) and _match(pattern.child, target.child, bindings)
    return (
        isinstance(target, BinOp)
        and target.op == pattern.op
        and _match(pattern.left, target.left, bindings)
        and _match(pattern.right, target.right, bindings)
    )


@dataclass(frozen=True)
class Step:
    formula: Formula
    rule: str
    refs: tuple[int, ...] = ()  # 1-based step refs; for premises, a 0-based index


@dataclass(frozen=True)
class DerivationReport:
    valid: bool
    step: int | None = None  # 1-based position of the first invalid step
    reason: str | None = None

    def describe(self) -> str:
        if self.valid:
            return "valid"
        return f"invalid at step {self.step}: {self.reason}"


def check_derivation(
    steps: Sequence[Step],
    system: HilbertSystem,
    premises: Sequence[Formula] = (),
) -> DerivationReport:
    """Validate every step against its stated justification; first failure wins."""
    for position, step in enumerate(steps, start=1):
        outside = _optional_symbols(step.formula) - system.language
        if outside:
            return DerivationReport(
                False, position, f"symbols {sorted(outside)} outside the system language"
            )
        rule = step.rule
        if rule == "premise":
            if len(step.refs) != 1:
                return DerivationReport(False, position, "premise needs one index")
            k = step.refs[0]
            if not 0 <= k < len(premises):
                return DerivationReport(False, position, f"no premise {k}")
            if premises[k] != step.formula:
                return DerivationReport(False, position, f"formula is not premise {k}")
            continue
        if rule in ("mp", "adj", "nec"):
            if rule not in system.rules:
                return DerivationReport(False, position, f"rule {rule} not in system")
            want = 1 if rule == "nec" else 2
            if len(step.refs) != want:
                return DerivationReport(False, position, f"{rule} needs {want} refs")
            if any(not 1 <= r < position for r in step.refs):
                return DerivationReport(False, position, "refs must point to earlier steps")
            cited = [steps[r - 1].formula for r in step.refs]
            # one node per formula: each rule fires just when its node is the one cited
            if rule == "mp":
                if cited[1] is not BinOp("imp", cited[0], step.formula):
                    return DerivationReport(False, position, "mp does not fire")
            elif rule == "adj":
                if step.formula is not BinOp("and", cited[0], cited[1]):
                    return DerivationReport(False, position, "adj does not fire")
            elif step.formula is not Bang(cited[0]):
                return DerivationReport(False, position, "nec does not fire")
            continue
        scheme = system.scheme(rule)
        if scheme is None:
            return DerivationReport(False, position, f"rule or axiom {rule!r} not available")
        if match_axiom(step.formula, scheme) is None:
            return DerivationReport(False, position, "no matching substitution")
    return DerivationReport(True)


def steps_from_json(data: Sequence[dict]) -> tuple[Step, ...]:
    """Load derivation steps, raising ValueError naming the bad field."""
    if not isinstance(data, (list, tuple)):
        raise ValueError("Derivation steps must be a list.")
    for number, entry in enumerate(data, 1):
        where = f"Derivation step {number}"
        if not isinstance(entry, dict):
            raise ValueError(f"{where} must be an object.")
        for key in ("formula", "rule"):
            _field(entry, key, "a string", where)
        _field(entry, "refs", "a list of integers", where, [])
    return tuple(
        Step(parse(entry["formula"]), entry["rule"], tuple(entry.get("refs", ()))) for entry in data
    )


def load_hilbert_corpus() -> list[dict]:
    """The shipped derivation corpus: name, system, and parsed steps per entry."""
    raw = json.loads(
        files("girale").joinpath("data/hilbert_corpus.json").read_text(encoding="utf-8")
    )
    return [
        {"name": entry["name"], "system": entry["system"], "steps": steps_from_json(entry["steps"])}
        for entry in raw["derivations"]
    ]


# --- sequents --------------------------------------------------------------

_FRAGMENT = frozenset({"and", "or", "mul", "imp", "1", "0"})


@dataclass(frozen=True)
class Sequent:
    antecedent: tuple[Formula, ...]
    succedent: Formula | None

    def render(self) -> str:
        left = ", ".join(render(f) for f in self.antecedent)
        right = render(self.succedent) if self.succedent is not None else ""
        return f"{left} => {right}".strip()


def parse_sequent(text: str) -> Sequent:
    if text.count("=>") != 1:
        raise ValueError(f"Sequent text needs exactly one '=>': {text!r}.")
    left, right = text.split("=>")
    antecedent = tuple(parse(part) for part in left.split(",") if part.strip())
    succedent = parse(right) if right.strip() else None
    return Sequent(antecedent, succedent)


def _check_fragment(seq: Sequent) -> None:
    for f in list(seq.antecedent) + ([seq.succedent] if seq.succedent else []):
        outside = connectives(f) - _FRAGMENT
        if outside:
            raise ValueError(
                f"Sequent formulas must avoid {sorted(outside)}; "
                "search covers the bounded-free, guard-free fragment."
            )


@dataclass(frozen=True)
class SequentProof:
    sequent: Sequent
    rule: str
    children: tuple["SequentProof", ...] = ()
    principal: Formula | None = field(default=None, compare=False)

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def nodes(self) -> Iterator["SequentProof"]:
        yield self
        for child in self.children:
            yield from child.nodes()


def _sorted_ms(formulas: Iterable[Formula]) -> tuple[Formula, ...]:
    return tuple(sorted(formulas, key=structural_key))


Goal = tuple[tuple[int, ...], int | None]  # antecedent and succedent codes
_NEVER = (None, float("inf"))  # the memo entry of a goal that fails at every budget
# the rules whose goal is provable just when their premises are
_INVERTIBLE = frozenset({"->r", "*l", "/\\r", "\\/l", "1l"})


def _sorted_tuple(codes: Iterable[int]) -> tuple[int, ...]:
    return tuple(sorted(codes))


def _split_masks(ant: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """The sub-multisets of a sorted code tuple as masks over its positions,
    lazily, in ``itertools.product`` order over how many copies of each
    distinct code they take (the first copies)."""
    if len(set(ant)) == len(ant):  # one bit per position: most calls, far cheaper
        return itertools.product((0, 1), repeat=len(ant))
    runs = [sum(1 for _ in run) for _, run in itertools.groupby(ant)]
    choices = [[(1,) * k + (0,) * (n - k) for k in range(n + 1)] for n in runs]
    return map(tuple, map(itertools.chain.from_iterable, itertools.product(*choices)))


def _split(
    ant: tuple[int, ...], mask: tuple, a: int, add: tuple, succ: int | None
) -> Iterator[Goal]:
    """The premises of a split: the positions of ``ant`` that ``mask`` takes,
    to prove ``a``; only once that is proved, the rest and ``add``, sorted."""
    yield tuple(itertools.compress(ant, mask)), a
    rest = (code for code, taken in zip(ant, mask) if not taken)
    yield _sorted_tuple(itertools.chain(rest, add)), succ


class _Calculus:
    """The backward rules of FLe (with exchange) or FL (without) over the
    subformulas of ``roots``, the formulas of one root sequent.  By the
    subformula property no rule introduces any other formula, so each is
    coded by its rank under ``structural_key``: sorting codes sorts formulas
    in multiset order, and goals are tuples of ints.  With exchange,
    antecedents are sorted tuples; without it, the implication is read as
    the left residual."""

    def __init__(self, roots: frozenset, exchange: bool) -> None:
        code: dict[Formula, int] = {}
        stack = [f for f in roots if f is not None]
        while stack:
            f = stack.pop()
            if f not in code:
                code[f] = -1
                if type(f) is BinOp:
                    stack += (f.left, f.right)
                elif type(f) is Bang:
                    stack.append(f.child)
        self.formulas = sorted(code, key=structural_key)
        for i, f in enumerate(self.formulas):
            code[f] = i
        self.code, self.exchange = code, exchange
        # each code's connective and immediate subformulas; -1 for none
        self.op: list[str | None] = [None] * len(code)
        self.left, self.right = [-1] * len(code), [-1] * len(code)
        for i, f in enumerate(self.formulas):
            if type(f) is BinOp:
                self.op[i], self.left[i], self.right[i] = f.op, code[f.left], code[f.right]
        self.one, self.zero = code.get(ONE, -1), code.get(ZERO, -1)
        # the count rows: per atom, a code's interval of counts read on the
        # right is its lows, then its negated highs; on the left the halves swap
        atoms = sum(type(f) is Var for f in self.formulas)  # variables sort first
        on_right: list = [None] * len(self.formulas)

        def fill(c: int) -> tuple[int, ...]:  # children first, which code order is not
            if on_right[c] is None:
                kind = self.op[c]
                if kind is None:  # an atom, or a constant
                    unit = [int(i == c) for i in range(atoms)]
                    on_right[c] = (*unit, *map(int.__neg__, unit))
                else:
                    a, b = fill(self.left[c]), fill(self.right[c])
                    if kind == "imp":  # a is read on the left: its halves swap
                        a = a[atoms:] + a[:atoms]
                    on_right[c] = tuple(map(min if kind in ("and", "or") else int.__add__, a, b))
            return on_right[c]

        self.on_left = [row[atoms:] + row[:atoms] for row in map(fill, range(len(on_right)))]
        self.on_right = on_right
        del fill  # else its own cell keeps it, and self, in a cycle for the collector

    def balanced(self, goal: Goal) -> bool:
        """The count test: whether, for every atom, 0 lies in the goal's
        interval of counts.  Read on the right, an atom counts +1, ``*`` adds
        its sides, ``a -> b`` is ``b`` minus ``a``, ``/\\`` and ``\\/`` take
        the hull of their sides and constants count 0; the antecedent counts
        negated.  So no column of a goal's rows may sum above 0."""
        ant, succ = goal
        rows = list(map(self.on_left.__getitem__, ant))
        if succ is not None:
            rows.append(self.on_right[succ])
        return max(map(sum, zip(*rows)), default=0) <= 0

    def encode(self, seq: Sequent) -> Goal | None:
        """The coded goal, or None if it holds a formula outside the root's."""
        ant = tuple(map(self.code.get, seq.antecedent))
        succ = None if seq.succedent is None else self.code.get(seq.succedent, -1)
        return None if None in ant or succ == -1 else (ant, succ)  # type: ignore[return-value]

    def decode(self, ant: tuple[int, ...], succ: int | None) -> Sequent:
        at = self.formulas.__getitem__
        return Sequent(tuple(map(at, ant)), None if succ is None else at(succ))

    def instances(self, ant: tuple[int, ...], succ: int | None) -> Iterator[tuple]:
        """Backward rule instances at a coded goal, in search order:
        (rule, principal code or None, premises).  The multiset splits of
        ``*r`` and ``->l`` come one at a time, and the second premise of each
        split only once the first is proved."""
        op, left, right, exchange = self.op, self.left, self.right, self.exchange
        arrange = _sorted_tuple if exchange else tuple
        if len(ant) == 1 and ant[0] == succ:
            yield "id", None, ()
        if not ant and succ == self.one:
            yield "1r", None, ()
        if len(ant) == 1 and ant[0] == self.zero and succ is None:
            yield "0r", None, ()
        if succ is not None:
            kind, a, b = op[succ], left[succ], right[succ]
            if kind == "imp":
                yield "->r", None, ((arrange((a,) + ant), b),)
            elif kind == "and":
                yield "/\\r", None, ((ant, a), (ant, b))
            elif kind == "or":
                yield "\\/r1", None, ((ant, a),)
                yield "\\/r2", None, ((ant, b),)
            elif kind == "mul" and exchange:
                for mask in _split_masks(ant):
                    yield "*r", None, _split(ant, mask, a, (), b)
            elif kind == "mul":
                for cut in range(len(ant) + 1):
                    yield "*r", None, ((ant[:cut], a), (ant[cut:], b))
            if succ == self.zero:
                yield "0l", None, ((ant, None),)
        for i, f in enumerate(ant):
            if exchange and ant.index(f) < i:
                continue  # a multiset has one instance per distinct formula
            before, after = ant[:i], ant[i + 1 :]
            kind, a, b = op[f], left[f], right[f]
            if f == self.one:
                yield "1l", f, ((before + after, succ),)
            elif kind == "mul":
                yield "*l", f, ((arrange(before + (a, b) + after), succ),)
            elif kind == "and":
                yield "/\\l1", f, ((arrange(before + (a,) + after), succ),)
                yield "/\\l2", f, ((arrange(before + (b,) + after), succ),)
            elif kind == "or":
                one, two = arrange(before + (a,) + after), arrange(before + (b,) + after)
                yield "\\/l", f, ((one, succ), (two, succ))
            elif kind == "imp" and exchange:
                rest = before + after
                for mask in _split_masks(rest):
                    yield "->l", f, _split(rest, mask, a, (b,), succ)
            elif kind == "imp":
                for j in range(i, -1, -1):
                    yield "->l", f, ((ant[j:i], a), (ant[:j] + (b,) + after, succ))


# the last calculus built, so that a proof is checked in the one its search built
_calculus = lru_cache(maxsize=1)(_Calculus)


def search_sequent(
    seq: Sequent, bound: int, with_exchange: bool = True
) -> tuple[SequentProof | None, bool]:
    """Backward cut-free search up to the given proof depth: the first proof
    found or None, and whether that answer holds at every bound.  A failure is
    exhaustive (unprovable) just when the sequent has no cut-free proof at any
    depth; one that is not (unknown) has a cut-free proof deeper than the bound.

    The search skips two kinds of goal, memoised as failed at every budget.
    A goal that fails the count test (``_Calculus.balanced``) has no proof: each
    axiom's interval holds 0, and each rule's holds that of each premise or,
    for the splits ``*r`` and ``->l``, their sum.  Nor has a goal one of whose
    invertible rules has a premise that fails at every budget: a proof of the
    goal and a cut give one of the premise, and cut elimination a cut-free
    one.  Neither skips a provable goal, so a proof is found just when one
    exists within the bound.  A failure cut off is searched again at the
    sequent's size plus one, a height that no branch reaches."""
    if bound < 1:
        raise ValueError("bound must be at least 1.")
    calculus = _calculus(frozenset((*seq.antecedent, seq.succedent)), with_exchange)
    formulas = calculus.formulas  # bangs sort last
    if BOT in calculus.code or TOP in calculus.code or formulas and type(formulas[-1]) is Bang:
        _check_fragment(seq)  # names the first formula's symbols outside the fragment
    proof, exhaustive = _search(calculus, seq, bound)
    if proof is not None or exhaustive:
        return proof, exhaustive
    height = sum(formula_size(f) for f in (*seq.antecedent, seq.succedent) if f is not None) + 1
    return None, _search(calculus, seq, height)[0] is None


def _search(calculus: _Calculus, seq: Sequent, bound: int) -> tuple[SequentProof | None, bool]:
    """The memoised search of ``search_sequent``, pruned by the count test
    ``calculus.balanced`` and by commits on invertible rules: the first proof
    within the bound or None, and whether no branch was cut off, which makes a
    failure exhaustive: no cut-free proof at any depth.  At the height bound
    none is."""
    instances, formulas, balanced = calculus.instances, calculus.formulas, calculus.balanced
    # a goal's proof and its depth, or None and the budget it failed at
    memo: dict[Goal, tuple[SequentProof | None, float]] = {}
    cuts = 0  # cut-offs below the failures still open on the call stack

    def search(goal: Goal, budget: int) -> SequentProof | None:
        nonlocal cuts
        before = cuts
        hit = memo.get(goal)
        if hit is not None:
            proof, value = hit
            if proof is not None:
                if value <= budget:
                    return proof
                cuts += 1  # a proof exists, so any failure below is a cut-off
            elif value >= budget:  # failed at this depth or deeper already
                cuts += hit is not _NEVER
                return None
        elif not balanced(goal):
            memo[goal] = _NEVER
            return None
        if budget < 1:
            cuts += 1
            return None
        for rule, principal, premises in instances(*goal):
            children = []
            for premise in premises:
                # most goals met are failures memoised at every budget
                child = None if memo.get(premise) is _NEVER else search(premise, budget - 1)
                if child is None:
                    break
                children.append(child)
            else:
                f = None if principal is None else formulas[principal]
                proof = SequentProof(calculus.decode(*goal), rule, tuple(children), f)
                memo[goal] = (proof, proof.depth())
                cuts = before  # cut-offs under a proof decide nothing
                return proof
            if rule in _INVERTIBLE and memo.get(premise) is _NEVER:
                memo[goal] = _NEVER  # so cut-offs under it decide nothing either
                cuts = before
                return None
        # every backward rule shrinks the sequent, so goal recurs in no subtree,
        # and a failure memoised at budget or deeper has returned above; one
        # never cut off covered the whole cut-free space and fails at any budget
        memo[goal] = (None, budget) if cuts != before else _NEVER
        return None

    ant, succ = calculus.encode(seq)  # type: ignore[misc]
    try:
        proof = search((_sorted_tuple(ant) if calculus.exchange else ant, succ), bound)
    finally:
        del search  # else search's cell keeps it, and the memo, in a cycle for the collector
    return proof, cuts == 0


def prove_sequent(seq: Sequent, bound: int, with_exchange: bool = True) -> SequentProof | None:
    """The proof ``search_sequent`` finds, or None: unknown at this bound."""
    return search_sequent(seq, bound, with_exchange)[0]


def validate_proof(proof: SequentProof, with_exchange: bool = True) -> list[str]:
    """Check that every node instantiates one calculus rule, over the codes
    of the root's subformulas; [] means valid."""
    seq = proof.sequent
    calculus = _calculus(frozenset((*seq.antecedent, seq.succedent)), with_exchange)
    problems = []
    for node in proof.nodes():
        goal = calculus.encode(node.sequent)
        premises = tuple(calculus.encode(child.sequent) for child in node.children)
        if goal is None or None in premises or not any(
            rule == node.rule and tuple(found) == premises
            for rule, _, found in calculus.instances(*goal)
        ):
            problems.append(f"bad {node.rule} instance at {node.sequent.render()}")
    return problems


def proof_to_json(proof: SequentProof) -> dict:
    return {
        "sequent": proof.sequent.render(),
        "rule": proof.rule,
        "children": [proof_to_json(c) for c in proof.children],
    }


def sequent_to_formula(seq: Sequent) -> Formula:
    """Fuse the antecedent into the succedent; empty sides become 1 and 0."""
    if seq.antecedent:
        lhs = seq.antecedent[0]
        for f in seq.antecedent[1:]:
            lhs = BinOp("mul", lhs, f)
    else:
        lhs = ONE
    rhs = seq.succedent if seq.succedent is not None else ZERO
    return BinOp("imp", lhs, rhs)


# --- Maehara interpolation -------------------------------------------------


@dataclass(frozen=True)
class CraigResult:
    interpolant: Formula
    shared_variables: frozenset[str]
    left_sequent: Sequent
    right_sequent: Sequent
    left_proved: bool
    right_proved: bool
    semantically_valid: bool


# the connective joining a two-premise rule's interpolants, by principal side
_JOIN = {"/\\r": ("and",), "*r": ("mul",), "\\/l": ("and", "or"), "->l": ("mul", "imp")}


def _interpolate(node: SequentProof, left: Counter) -> Formula:
    """Maehara's interpolant of a cut-free FLe proof whose antecedent
    sub-multiset ``left`` lies on the left side of the split.

    A leaf gives its antecedent formula if that is on the left, else 1.  A
    premise keeps the side of each occurrence it inherits; what a rule adds
    to an antecedent takes the side of its principal, and a right rule's
    principal, the succedent, is on the right.  The premises of a split share
    the occurrences out, the first taking the left ones in its antecedent;
    ``->l`` with its principal on the left reads that premise with the sides
    swapped.  A two-premise rule joins the interpolants by ``_JOIN``.
    """
    ant = node.sequent.antecedent
    if not node.children:  # id, 1r, 0r
        return ant[0] if ant and left[ant[0]] else ONE
    principal = Counter() if node.principal is None else Counter([node.principal])
    on_left = bool(left & principal)
    pool, pool_left = Counter(ant) - principal, left - principal
    parts = []
    for i, child in enumerate(node.children):  # premises may be one shared object
        premise = Counter(child.sequent.antecedent)
        side = pool_left & premise
        if on_left:
            side += premise - pool  # what the rule added
        if i == 0 and node.rule in ("*r", "->l"):  # a split: the rest is the second's
            pool, pool_left = pool - premise, pool_left - side
            side = premise - side if on_left else side
        parts.append(_interpolate(child, side))
    return parts[0] if len(parts) == 1 else BinOp(_JOIN[node.rule][on_left], *parts)


def _refutation_catalog() -> list:
    """R(Z2) and R(Z3) over {0}: the algebras that refute an unproved
    sequent and check an extracted interpolant."""
    from .construct import build_R
    from .group import make_group

    return [build_R(make_group([d]), frozenset({"0"})) for d in (2, 3)]


def extract_craig(
    proof: SequentProof, left_variables: Iterable[str], right_variables: Iterable[str]
) -> CraigResult:
    """Split a cut-free proof along a variable partition and verify both halves.

    Antecedent formulas go to the side whose variable set covers them (ties
    prefer the left); the succedent must fit the right side.  The extracted
    midpoint is verified by re-running proof search on both half-sequents and
    by semantic validity on ``_refutation_catalog``.
    """
    problems = validate_proof(proof, with_exchange=True)
    if problems:
        raise ValueError(f"Proof does not validate: {problems[0]}")
    left_set = frozenset(left_variables)
    right_set = frozenset(right_variables)
    root = proof.sequent
    left_ms: Counter = Counter()
    right_ms: Counter = Counter()
    for f in root.antecedent:
        fv = free_variables(f)
        if fv <= left_set:
            left_ms[f] += 1
        elif fv <= right_set:
            right_ms[f] += 1
        else:
            raise ValueError(
                f"Antecedent {render(f)} fits neither side of the partition."
            )

    delta = _interpolate(proof, left_ms)
    left_vars = set().union(*map(free_variables, left_ms))
    right_vars = set().union(*map(free_variables, right_ms))
    if root.succedent is not None:  # the succedent always belongs to the right half
        right_vars |= free_variables(root.succedent)
    shared = frozenset(left_vars & right_vars)
    if not free_variables(delta) <= shared:
        raise RuntimeError("Extraction broke the variable condition.")

    left_sequent = Sequent(_sorted_ms(left_ms.elements()), delta)
    right_sequent = Sequent(_sorted_ms(list(right_ms.elements()) + [delta]), root.succedent)
    reprove_bound = 2 * proof.depth() + formula_size(delta) + 6
    left_proof = prove_sequent(left_sequent, reprove_bound)
    right_proof = prove_sequent(right_sequent, reprove_bound)

    from .semantics import consequence

    semantic_ok = all(
        consequence(_refutation_catalog(), [], sequent_to_formula(half)).holds
        for half in (left_sequent, right_sequent)
    )
    return CraigResult(
        interpolant=delta,
        shared_variables=shared,
        left_sequent=left_sequent,
        right_sequent=right_sequent,
        left_proved=left_proof is not None,
        right_proved=right_proof is not None,
        semantically_valid=semantic_ok,
    )
