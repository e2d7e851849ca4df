"""Evaluation and designated-value reasoning over finite algebra catalogs.

A formula holds in an algebra when its value v satisfies v /\\ 1 = 1 under
every assignment; consequence relativizes that to a finite list of algebras.
Assignment sweeps run vectorized over the full grid, in lexicographic order
of the sorted variable names, so the first countermodel is deterministic.
Interpolant search enumerates candidates by size with value-vector
deduplication and re-verifies any hit with a separate scalar evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .algebra import FiniteAlgebra
from .capacity import CapacityError
from .formula import (
    Bang,
    BinOp,
    Const,
    Formula,
    Var,
    depth as formula_depth,
    free_variables,
    render,
    size as formula_size,
)

MAX_GRID = 4_000_000

MODES = ("deductive", "craig", "guarded")


# reading -> (the judgment a => b as (premises, conclusion), then the
# certificate descriptions of phi => delta and delta => psi).  The entailment
# pre-check is phi => psi, and the scalar recheck re-decides the same two.
_READINGS = {
    "deductive": (
        lambda a, b: ((a,), b),
        "premise entails interpolant",
        "interpolant entails conclusion",
    ),
    "craig": (
        lambda a, b: ((), BinOp("imp", a, b)),
        "left implication valid",
        "right implication valid",
    ),
    "guarded": (
        lambda a, b: ((), BinOp("imp", Bang(a), Bang(b))),
        "left guarded valid",
        "right guarded valid",
    ),
    "half-guarded": (
        lambda a, b: ((), BinOp("imp", Bang(a), b)),
        "left half-guarded valid",
        "right half-guarded valid",
    ),
}


def _constant_index(A: FiniteAlgebra, symbol: str) -> int:
    if symbol == "1":
        return A.one
    value = {"0": A.zero, "bot": A.bot, "top": A.top}[symbol]
    if value is None:
        raise ValueError(f"Constant {symbol!r} is not in the algebra signature.")
    return value


def eval_formula(A: FiniteAlgebra, f: Formula, assignment: Mapping[str, int]) -> int:
    """Bottom-up table evaluation of one assignment."""
    if isinstance(f, Var):
        if f.name not in assignment:
            raise ValueError(f"Unbound variable {f.name!r}.")
        value = assignment[f.name]
        if not 0 <= value < A.size:
            raise ValueError(f"Assignment value {value} out of range for {f.name!r}.")
        return value
    if isinstance(f, Const):
        return _constant_index(A, f.symbol)
    if isinstance(f, Bang):
        if A.bang is None:
            raise ValueError("Guard connective is not in the algebra signature.")
        return A.bang[eval_formula(A, f.child, assignment)]
    left = eval_formula(A, f.left, assignment)
    right = eval_formula(A, f.right, assignment)
    table = {"and": A.meet, "or": A.join, "mul": A.mult, "imp": A.imp}[f.op]
    return table[left][right]


def designated(A: FiniteAlgebra, value: int) -> bool:
    return A.meet[value][A.one] == A.one


@lru_cache(maxsize=None)
def _np_tables(A: FiniteAlgebra) -> dict:
    return {
        "and": np.asarray(A.meet, dtype=np.int64),
        "or": np.asarray(A.join, dtype=np.int64),
        "mul": np.asarray(A.mult, dtype=np.int64),
        "imp": np.asarray(A.imp, dtype=np.int64),
        "bang": None if A.bang is None else np.asarray(A.bang, dtype=np.int64),
    }


def _grid(A: FiniteAlgebra, variables: Sequence[str]) -> tuple[dict, int]:
    n = A.size
    k = len(variables)
    count = n**k
    if count > MAX_GRID:
        raise CapacityError(f"Assignment grid of size {count} exceeds {MAX_GRID}.")
    idx = np.arange(count, dtype=np.int64)
    coords = {}
    for j, name in enumerate(variables):
        coords[name] = (idx // n ** (k - 1 - j)) % n
    return coords, count


def _eval_vec(A: FiniteAlgebra, tables: dict, f: Formula, coords: dict, count: int) -> np.ndarray:
    # tables is _np_tables(A), fetched once per algebra by the caller
    if isinstance(f, Var):
        return coords[f.name]
    if isinstance(f, Const):
        return np.full(count, _constant_index(A, f.symbol), dtype=np.int64)
    if isinstance(f, Bang):
        bang = tables["bang"]
        if bang is None:
            raise ValueError("Guard connective is not in the algebra signature.")
        return bang[_eval_vec(A, tables, f.child, coords, count)]
    left = _eval_vec(A, tables, f.left, coords, count)
    right = _eval_vec(A, tables, f.right, coords, count)
    return tables[f.op][left, right]


def _decode(A: FiniteAlgebra, variables: Sequence[str], flat: int) -> dict[str, int]:
    n = A.size
    values = {}
    for name in reversed(variables):
        values[name] = flat % n
        flat //= n
    return {name: values[name] for name in variables}


@dataclass(frozen=True)
class ValidityResult:
    holds: bool
    countermodel: dict[str, int] | None = None


@dataclass(frozen=True)
class ConsequenceResult:
    holds: bool
    algebra_index: int | None = None
    countermodel: dict[str, int] | None = None


def consequence(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    conclusion: Formula,
) -> ConsequenceResult:
    """Designated-value consequence over every algebra and assignment."""
    if not algebras:
        raise ValueError("Consequence needs at least one algebra.")
    names: set[str] = set(free_variables(conclusion))
    for p in premises:
        names |= free_variables(p)
    variables = sorted(names)
    for index, A in enumerate(algebras):
        coords, count = _grid(A, variables)
        one = A.one
        tables = _np_tables(A)
        meet = tables["and"]
        mask = np.ones(count, dtype=bool)
        for p in premises:
            vec = _eval_vec(A, tables, p, coords, count)
            mask &= meet[vec, one] == one
            if not mask.any():
                break
        if not mask.any():
            continue
        vec = _eval_vec(A, tables, conclusion, coords, count)
        bad = mask & (meet[vec, one] != one)
        if bad.any():
            flat = int(np.nonzero(bad)[0][0])
            return ConsequenceResult(False, index, _decode(A, variables, flat))
    return ConsequenceResult(True)


def valid(A: FiniteAlgebra, f: Formula) -> ValidityResult:
    """True iff f takes a designated value under every assignment."""
    result = consequence([A], [], f)
    return ValidityResult(result.holds, result.countermodel)


def consequence_slow(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    conclusion: Formula,
) -> ConsequenceResult:
    """Scalar re-evaluation of the same judgment; the independent cross-check."""
    names: set[str] = set(free_variables(conclusion))
    for p in premises:
        names |= free_variables(p)
    variables = sorted(names)
    for index, A in enumerate(algebras):
        for values in itertools.product(range(A.size), repeat=len(variables)):
            h = dict(zip(variables, values))
            if all(designated(A, eval_formula(A, p, h)) for p in premises):
                if not designated(A, eval_formula(A, conclusion, h)):
                    return ConsequenceResult(False, index, h)
    return ConsequenceResult(True)


@dataclass(frozen=True)
class DeductionReport:
    """Agreement record for the three premise-discharge forms."""

    with_premise: ConsequenceResult
    guarded_arrow: ConsequenceResult
    guarded_both: ConsequenceResult

    @property
    def agree(self) -> bool:
        return (
            self.with_premise.holds
            == self.guarded_arrow.holds
            == self.guarded_both.holds
        )


def deduction_check(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    phi: Formula,
    psi: Formula,
) -> DeductionReport:
    """Compare moving phi into the premises against guarding it on the left."""
    for A in algebras:
        if A.bang is None:
            raise ValueError("deduction_check needs the guard in every signature.")
    with_premise = consequence(algebras, list(premises) + [phi], psi)
    guarded_arrow = consequence(algebras, premises, BinOp("imp", Bang(phi), psi))
    guarded_both = consequence(algebras, premises, BinOp("imp", Bang(phi), Bang(psi)))
    return DeductionReport(with_premise, guarded_arrow, guarded_both)


@dataclass(frozen=True)
class Judgment:
    description: str
    holds: bool


@dataclass(frozen=True)
class InterpolationResult:
    status: str  # "found" | "exhausted" | "refused"
    mode: str
    interpolant: Formula | None = None
    certificate: tuple[Judgment, ...] = ()
    algebra_index: int | None = None
    countermodel: dict[str, int] | None = None
    candidates_tried: int = 0

    def describe(self) -> str:
        if self.status == "found":
            assert self.interpolant is not None
            return f"found {render(self.interpolant)}"
        if self.status == "exhausted":
            return f"exhausted after {self.candidates_tried} candidates (not a refutation)"
        return "refused: the entailment itself fails"


def _atoms(shared: Sequence[str], signature: frozenset[str]) -> list[Formula]:
    atoms: list[Formula] = [Var(v) for v in shared]
    atoms.append(Const("1"))
    if "0" in signature:
        atoms.append(Const("0"))
    if "bot" in signature:
        atoms.append(Const("bot"))
    if "top" in signature:
        atoms.append(Const("top"))
    return atoms


def interpolant_search(
    algebras: Sequence[FiniteAlgebra],
    phi: Formula,
    psi: Formula,
    mode: str,
    depth: int,
    mixed_guard: bool = False,
    max_candidates: int = 5000,
) -> InterpolationResult:
    """Bounded search for a middle formula over the shared variables.

    Candidates are generated smallest first; syntactically distinct
    candidates with equal value vectors over the catalog are tested once.
    ``mixed_guard`` switches guarded mode to the half-guarded reading where
    only the antecedent of each certificate judgment carries the guard.
    Exhaustion is a bounded-search outcome, not a refutation.
    """
    if mode not in MODES:
        raise ValueError(f"Unknown mode {mode!r}; expected one of {MODES}.")
    if not algebras:
        raise ValueError("Interpolant search needs at least one algebra.")
    signatures = {A.signature for A in algebras}
    if len(signatures) != 1:
        raise ValueError("All algebras must share one signature.")
    signature = next(iter(signatures))
    if mode == "guarded" and "bang" not in signature:
        raise ValueError("Guarded mode needs the guard in the signature.")

    reading = "half-guarded" if mode == "guarded" and mixed_guard else mode
    entails, left_judgment, right_judgment = _READINGS[reading]
    entailment = consequence(algebras, *entails(phi, psi))
    if not entailment.holds:
        return InterpolationResult(
            status="refused",
            mode=mode,
            algebra_index=entailment.algebra_index,
            countermodel=entailment.countermodel,
        )

    shared = sorted(free_variables(phi) & free_variables(psi))

    def recheck(sides: tuple[tuple[str, Formula, Formula], ...]) -> tuple[Judgment, ...] | None:
        """Independent scalar verification; certificate of the two judgments."""
        items = []
        for description, a, b in sides:
            slow = consequence_slow(algebras, *entails(a, b))
            items.append(Judgment(description, slow.holds))
            if not slow.holds:
                return None
        return tuple(items)

    grids = [(A, _np_tables(A), *_grid(A, shared)) for A in algebras]

    def vector_key(delta: Formula) -> bytes:
        chunks = [_eval_vec(A, t, delta, coords, count).tobytes() for A, t, coords, count in grids]
        return b"|".join(chunks)

    seen: set[bytes] = set()
    by_size: dict[int, list[Formula]] = {}
    tried = 0
    max_size_cap = min(2 ** (depth + 1) - 1, 33)

    def consider(delta: Formula) -> InterpolationResult | None:
        nonlocal tried
        key = vector_key(delta)
        if key in seen:
            return None
        seen.add(key)
        by_size.setdefault(formula_size(delta), []).append(delta)
        tried += 1
        sides = ((left_judgment, phi, delta), (right_judgment, delta, psi))
        if all(consequence(algebras, *entails(a, b)).holds for _, a, b in sides):
            certificate = recheck(sides)
            if certificate is not None:
                return InterpolationResult(
                    status="found",
                    mode=mode,
                    interpolant=delta,
                    certificate=certificate,
                    candidates_tried=tried,
                )
        return None

    for atom in _atoms(shared, signature):
        if tried >= max_candidates:
            break
        hit = consider(atom)
        if hit is not None:
            return hit

    for target in range(2, max_size_cap + 1):
        if tried >= max_candidates:
            break
        for op in ("and", "or", "mul", "imp"):
            for left_size in range(1, target - 1):
                right_size = target - 1 - left_size
                for left in by_size.get(left_size, []):
                    for right in by_size.get(right_size, []):
                        candidate = BinOp(op, left, right)
                        if formula_depth(candidate) > depth or tried >= max_candidates:
                            continue
                        hit = consider(candidate)
                        if hit is not None:
                            return hit
        if "bang" in signature:
            for child in by_size.get(target - 1, []):
                candidate = Bang(child)
                if formula_depth(candidate) > depth or tried >= max_candidates:
                    continue
                hit = consider(candidate)
                if hit is not None:
                    return hit

    return InterpolationResult(status="exhausted", mode=mode, candidates_tried=tried)
