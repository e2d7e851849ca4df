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
A Maehara-style split of a cut-free proof yields midpoint formulas whose
two halves are re-proved by search and re-checked semantically.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field
from importlib.resources import files
from typing import Iterable, Iterator, Sequence

from .formula import (
    Bang,
    BinOp,
    Const,
    Formula,
    ONE,
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
        if name in SCHEMES and name in self.axioms:
            return SCHEMES[name]
        for extra_name, extra in self.extra_axioms:
            if extra_name == name:
                return extra
        return None


def _optional_symbols(f: Formula) -> frozenset[str]:
    return frozenset(connectives(f)) & frozenset({"0", "bot", "top", "bang"})


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

    def go(pattern: Formula, target: Formula) -> bool:
        if isinstance(pattern, Var):
            if pattern.name in bindings:
                return bindings[pattern.name] == target
            bindings[pattern.name] = target
            return True
        if isinstance(pattern, Const):
            return pattern == target
        if isinstance(pattern, Bang):
            return isinstance(target, Bang) and go(pattern.child, target.child)
        return (
            isinstance(target, BinOp)
            and target.op == pattern.op
            and go(pattern.left, target.left)
            and go(pattern.right, target.right)
        )

    return bindings if go(scheme, f) else None


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
            if rule == "mp":
                major = cited[1]
                if not (
                    isinstance(major, BinOp)
                    and major.op == "imp"
                    and major.left == cited[0]
                    and major.right == step.formula
                ):
                    return DerivationReport(False, position, "mp does not fire")
            elif rule == "adj":
                if step.formula != BinOp("and", cited[0], cited[1]):
                    return DerivationReport(False, position, "adj does not fire")
            else:
                if step.formula != Bang(cited[0]):
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
            if not isinstance(entry.get(key), str):
                raise ValueError(f"{where} field {key!r} must be a string.")
        refs = entry.get("refs", [])
        if not (isinstance(refs, (list, tuple)) and all(type(r) is int for r in refs)):
            raise ValueError(f"{where} field 'refs' must be a list of integers.")
    return tuple(
        Step(
            formula=parse(entry["formula"]),
            rule=entry["rule"],
            refs=tuple(entry.get("refs", ())),
        )
        for entry in data
    )


def steps_to_json(steps: Sequence[Step]) -> list[dict]:
    out = []
    for step in steps:
        entry: dict = {"formula": render(step.formula), "rule": step.rule}
        if step.refs:
            entry["refs"] = list(step.refs)
        out.append(entry)
    return out


def load_hilbert_corpus() -> list[dict]:
    """The shipped derivation corpus: name, system, and parsed steps per entry."""
    raw = json.loads(
        files("girale").joinpath("data/hilbert_corpus.json").read_text(encoding="utf-8")
    )
    out = []
    for entry in raw["derivations"]:
        out.append(
            {
                "name": entry["name"],
                "system": entry["system"],
                "steps": steps_from_json(entry["steps"]),
            }
        )
    return out


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


def _splits(ms: tuple[Formula, ...]) -> Iterator[tuple[tuple[Formula, ...], tuple[Formula, ...]]]:
    """All multiset splits of a sorted tuple, deterministically."""
    groups: list[list] = []
    for f in ms:
        if groups and groups[-1][0] == f:
            groups[-1][1] += 1
        else:
            groups.append([f, 1])
    for take in itertools.product(*(range(count + 1) for _, count in groups)):
        sub: list[Formula] = []
        rest: list[Formula] = []
        for (f, count), k in zip(groups, take):
            sub.extend([f] * k)
            rest.extend([f] * (count - k))
        yield tuple(sub), tuple(rest)


Goal = tuple[tuple[Formula, ...], Formula | None]
_EVERY_BUDGET = float("inf")


def _expand_exchange(ant: tuple[Formula, ...], succ: Formula | None):
    """Backward rule instances at a multiset sequent: (rule, subgoals, principal)."""
    if len(ant) == 1 and succ is not None and ant[0] == succ:
        yield ("id", (), None)
    if not ant and succ == ONE:
        yield ("1r", (), None)
    if len(ant) == 1 and ant[0] == ZERO and succ is None:
        yield ("0r", (), None)
    if succ is not None:
        if isinstance(succ, BinOp):
            if succ.op == "imp":
                yield ("->r", ((_sorted_ms(ant + (succ.left,)), succ.right),), None)
            elif succ.op == "and":
                yield ("/\\r", ((ant, succ.left), (ant, succ.right)), None)
            elif succ.op == "or":
                yield ("\\/r1", ((ant, succ.left),), None)
                yield ("\\/r2", ((ant, succ.right),), None)
            elif succ.op == "mul":
                for sub, rest in _splits(ant):
                    yield ("*r", ((sub, succ.left), (rest, succ.right)), None)
        if succ == ZERO:
            yield ("0l", ((ant, None),), None)
    seen = set()
    for i, f in enumerate(ant):
        if f in seen:
            continue
        seen.add(f)
        rest = ant[:i] + ant[i + 1 :]
        if f == ONE:
            yield ("1l", ((rest, succ),), f)
        elif isinstance(f, BinOp):
            if f.op == "mul":
                yield ("*l", ((_sorted_ms(rest + (f.left, f.right)), succ),), f)
            elif f.op == "and":
                yield ("/\\l1", ((_sorted_ms(rest + (f.left,)), succ),), f)
                yield ("/\\l2", ((_sorted_ms(rest + (f.right,)), succ),), f)
            elif f.op == "or":
                yield (
                    "\\/l",
                    (
                        (_sorted_ms(rest + (f.left,)), succ),
                        (_sorted_ms(rest + (f.right,)), succ),
                    ),
                    f,
                )
            elif f.op == "imp":
                for sub, keep in _splits(rest):
                    yield (
                        "->l",
                        ((sub, f.left), (_sorted_ms(keep + (f.right,)), succ)),
                        f,
                    )


def _expand_sequence(ant: tuple[Formula, ...], succ: Formula | None):
    """Order-sensitive rules; the implication is read as the left residual."""
    if len(ant) == 1 and succ is not None and ant[0] == succ:
        yield ("id", (), None)
    if not ant and succ == ONE:
        yield ("1r", (), None)
    if len(ant) == 1 and ant[0] == ZERO and succ is None:
        yield ("0r", (), None)
    if succ is not None:
        if isinstance(succ, BinOp):
            if succ.op == "imp":
                yield ("->r", (((succ.left,) + ant, succ.right),), None)
            elif succ.op == "and":
                yield ("/\\r", ((ant, succ.left), (ant, succ.right)), None)
            elif succ.op == "or":
                yield ("\\/r1", ((ant, succ.left),), None)
                yield ("\\/r2", ((ant, succ.right),), None)
            elif succ.op == "mul":
                for cut in range(len(ant) + 1):
                    yield ("*r", ((ant[:cut], succ.left), (ant[cut:], succ.right)), None)
        if succ == ZERO:
            yield ("0l", ((ant, None),), None)
    for i, f in enumerate(ant):
        before = ant[:i]
        after = ant[i + 1 :]
        if f == ONE:
            yield ("1l", ((before + after, succ),), f)
        elif isinstance(f, BinOp):
            if f.op == "mul":
                yield ("*l", ((before + (f.left, f.right) + after, succ),), f)
            elif f.op == "and":
                yield ("/\\l1", ((before + (f.left,) + after, succ),), f)
                yield ("/\\l2", ((before + (f.right,) + after, succ),), f)
            elif f.op == "or":
                yield (
                    "\\/l",
                    (
                        (before + (f.left,) + after, succ),
                        (before + (f.right,) + after, succ),
                    ),
                    f,
                )
            elif f.op == "imp":
                for j in range(i, -1, -1):
                    sigma = ant[j:i]
                    yield (
                        "->l",
                        ((sigma, f.left), (ant[:j] + (f.right,) + after, succ)),
                        f,
                    )


def search_sequent(
    seq: Sequent, bound: int, with_exchange: bool = True
) -> tuple[SequentProof | None, bool]:
    """Backward cut-free search up to the given proof depth: the first proof
    found or None, and whether that answer holds at every bound (after a
    failure: whether no branch it depends on was cut off by the bound)."""
    if bound < 1:
        raise ValueError("bound must be at least 1.")
    _check_fragment(seq)
    expand = _expand_exchange if with_exchange else _expand_sequence
    memo: dict[Goal, tuple[str, object]] = {}
    cuts = 0  # cut-offs below the failures still open on the call stack

    def search(ant: tuple[Formula, ...], succ: Formula | None, budget: int) -> SequentProof | None:
        nonlocal cuts
        before = cuts
        key: Goal = (ant, succ)
        hit = memo.get(key)
        if hit is not None:
            status, value = hit
            if status == "proved":
                proof, proof_depth = value  # type: ignore[misc]
                if proof_depth <= budget:
                    return proof
                cuts += 1  # a proof exists, so any failure below is a cut-off
            elif value >= budget:  # failed at this depth or deeper already
                cuts += value != _EVERY_BUDGET
                return None
        if budget < 1:
            cuts += 1
            return None
        for rule, goals, principal in expand(ant, succ):
            children = []
            for child_ant, child_succ in goals:
                child = search(child_ant, child_succ, budget - 1)
                if child is None:
                    children = None
                    break
                children.append(child)
            if children is not None:
                proof = SequentProof(Sequent(ant, succ), rule, tuple(children), principal)
                memo[key] = ("proved", (proof, proof.depth()))
                cuts = before  # cut-offs under a proof decide nothing
                return proof
        # every backward rule shrinks the sequent, so key recurs in no subtree,
        # and a failure memoised at budget or deeper has returned above; one
        # never cut off covered the whole cut-free space and fails at any budget
        memo[key] = ("failed", budget if cuts != before else _EVERY_BUDGET)
        return None

    ant = _sorted_ms(seq.antecedent) if with_exchange else seq.antecedent
    proof = search(ant, seq.succedent, bound)
    return proof, cuts == 0


def prove_sequent(seq: Sequent, bound: int, with_exchange: bool = True) -> SequentProof | None:
    """The proof ``search_sequent`` finds, or None: unknown at this bound."""
    return search_sequent(seq, bound, with_exchange)[0]


def validate_proof(proof: SequentProof, with_exchange: bool = True) -> list[str]:
    """Check that every node instantiates one calculus rule; [] means valid."""
    expand = _expand_exchange if with_exchange else _expand_sequence
    problems = []
    for node in proof.nodes():
        ant = node.sequent.antecedent
        goals = tuple((c.sequent.antecedent, c.sequent.succedent) for c in node.children)
        ok = any(
            rule == node.rule and tuple(sub) == goals
            for rule, sub, _ in expand(ant, node.sequent.succedent)
        )
        if not ok:
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


def _take(available: Counter, wanted: Iterable[Formula]) -> Counter:
    """Greedy sub-multiset of `available` along `wanted`, by formula value."""
    taken: Counter = Counter()
    pool = Counter(available)
    for f in wanted:
        if pool[f] > 0:
            pool[f] -= 1
            taken[f] += 1
    return taken


def _interpolate(node: SequentProof, left: Counter) -> Formula:
    rule = node.rule
    ant = node.sequent.antecedent
    if rule == "id":
        return ant[0] if left[ant[0]] else ONE
    if rule == "1r":
        return ONE
    if rule == "0r":
        return ZERO if left[ZERO] else ONE
    if rule in ("1l", "*l", "/\\l1", "/\\l2"):
        f = node.principal
        assert f is not None
        adjusted = Counter(left)
        if left[f]:
            adjusted[f] -= 1
            if rule == "*l":
                adjusted[f.left] += 1  # type: ignore[union-attr]
                adjusted[f.right] += 1  # type: ignore[union-attr]
            elif rule == "/\\l1":
                adjusted[f.left] += 1  # type: ignore[union-attr]
            elif rule == "/\\l2":
                adjusted[f.right] += 1  # type: ignore[union-attr]
        return _interpolate(node.children[0], +adjusted)
    if rule == "\\/l":
        f = node.principal
        assert isinstance(f, BinOp)
        if left[f]:
            with_left = Counter(left)
            with_left[f] -= 1
            one = Counter(with_left)
            one[f.left] += 1
            two = Counter(with_left)
            two[f.right] += 1
            return BinOp("or", _interpolate(node.children[0], +one), _interpolate(node.children[1], +two))
        return BinOp(
            "and",
            _interpolate(node.children[0], left),
            _interpolate(node.children[1], left),
        )
    if rule in ("->r", "\\/r1", "\\/r2", "0l"):
        return _interpolate(node.children[0], left)
    if rule == "/\\r":
        return BinOp(
            "and",
            _interpolate(node.children[0], left),
            _interpolate(node.children[1], left),
        )
    if rule == "*r":
        first, second = node.children
        left_first = _take(left, first.sequent.antecedent)
        left_second = +(Counter(left) - left_first)
        return BinOp(
            "mul",
            _interpolate(first, left_first),
            _interpolate(second, left_second),
        )
    if rule == "->l":
        f = node.principal
        assert isinstance(f, BinOp)
        first, second = node.children
        on_left = bool(left[f])
        remaining = Counter(left)
        if on_left:
            remaining[f] -= 1
        remaining = +remaining
        left_sigma = _take(remaining, first.sequent.antecedent)
        left_keep = +(remaining - left_sigma)
        if on_left:
            flipped = Counter(first.sequent.antecedent) - left_sigma
            epsilon = _interpolate(first, +flipped)
            left_keep[f.right] += 1
            zeta = _interpolate(second, left_keep)
            return BinOp("imp", epsilon, zeta)
        epsilon = _interpolate(first, left_sigma)
        zeta = _interpolate(second, left_keep)
        return BinOp("mul", epsilon, zeta)
    raise ValueError(f"Unsupported rule {rule!r} in interpolation.")


def _refutation_catalog() -> list:
    """R(Z2) and R(Z3) over {0}: the default algebras that refute an unproved
    sequent and check an extracted interpolant."""
    from .construct import build_R
    from .group import make_group

    return [build_R(make_group([d]), frozenset({"0"})) for d in (2, 3)]


def extract_craig(
    proof: SequentProof,
    left_variables: Iterable[str],
    right_variables: Iterable[str],
    algebras: Sequence | None = None,
    reprove_bound: int | None = None,
) -> CraigResult:
    """Split a cut-free proof along a variable partition and verify both halves.

    Antecedent formulas go to the side whose variable set covers them (ties
    prefer the left); the succedent must fit the right side.  The extracted
    midpoint is verified by re-running proof search on both half-sequents and
    by semantic validity on a small default catalog.
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
    # the succedent always belongs to the right half of the split
    right_vars: set[str] = set()
    for f in right_ms.elements():
        right_vars |= free_variables(f)
    if root.succedent is not None:
        right_vars |= free_variables(root.succedent)
    left_vars: set[str] = set()
    for f in left_ms.elements():
        left_vars |= free_variables(f)
    shared = frozenset(left_vars & right_vars)
    if not free_variables(delta) <= shared:
        raise RuntimeError("Extraction broke the variable condition.")

    left_sequent = Sequent(_sorted_ms(left_ms.elements()), delta)
    right_sequent = Sequent(_sorted_ms(list(right_ms.elements()) + [delta]), root.succedent)
    if reprove_bound is None:
        reprove_bound = 2 * proof.depth() + formula_size(delta) + 6
    left_proof = prove_sequent(left_sequent, reprove_bound)
    right_proof = prove_sequent(right_sequent, reprove_bound)

    if algebras is None:
        algebras = _refutation_catalog()
    from .semantics import valid

    semantic_ok = all(
        valid(A, sequent_to_formula(half)).holds
        for A in algebras
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
