"""Evaluation and designated-value reasoning over finite algebra catalogs.

A formula holds in an algebra when its value v satisfies v /\\ 1 = 1 under
every assignment; consequence relativizes that to a finite list of algebras.
One vector evaluator serves ``consequence``, ``valid``, ``deduction_check``
and interpolant search.  It takes a batch of consecutive catalog algebras as
one disjoint union: block-diagonal flat tables of global indices, in the
smallest dtype holding N^2, over each block's grid in lexicographic order of
the sorted variable names, so the first countermodel is deterministic.  A
batch holds algebras that have every symbol the formulas use and whose grid
fits ``MAX_GRID``, and ends before its cells pass ``MAX_GRID`` or its
elements 256 (so that it indexes in uint16); any other algebra is a batch of
its own.  Within one call each distinct subformula is evaluated once.
Interpolant search reads one candidate stream, smallest first, and judges
each candidate whose value vector is new.  Three evaluators serve the whole
search: one over the atoms gives the value vectors, and one over phi and one
over psi judge the two sides, evaluating phi and psi once per batch.  A hit
is re-verified by the separate scalar evaluator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .algebra import OPTIONAL_SYMBOLS, FiniteAlgebra, _index_dtype
from .capacity import CapacityError
from .formula import (
    OPS,
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
    value = {"1": A.one, "0": A.zero, "bot": A.bot, "top": A.top}[symbol]
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


_UNION_ELEMENTS = 256  # most elements in a batch of several algebras


@lru_cache(maxsize=64)
def _union(algebras: tuple[FiniteAlgebra, ...]) -> tuple[tuple[int, ...], dict, np.ndarray]:
    """The block offsets, block-diagonal flat tables ("bang": None unless every
    block has it) and designated elements of a disjoint union of algebras."""
    sizes = [A.size for A in algebras]
    n = sum(sizes)
    offsets = tuple(itertools.accumulate(sizes[:-1], initial=0))
    square = {op: np.zeros((n, n), dtype=_index_dtype(n * n)) for op in OPS}
    for A, offset in zip(algebras, offsets):
        block = slice(offset, offset + A.size)
        for op, table in zip(OPS, (A.meet, A.join, A.mult, A.imp)):
            square[op][block, block] = np.asarray(table) + offset
    tables: dict = {op: table.ravel() for op, table in square.items()}
    bangs = [np.asarray(A.bang) + o for A, o in zip(algebras, offsets) if A.bang is not None]
    full = len(bangs) == len(algebras)
    tables["bang"] = np.concatenate(bangs).astype(square["and"].dtype) if full else None
    designated = np.concatenate([np.asarray(A.meet)[:, A.one] == A.one for A in algebras])
    return offsets, tables, designated


@lru_cache(maxsize=8)
def _cells(sizes: tuple[int, ...], k: int) -> tuple[np.ndarray, np.ndarray]:
    """The assignment grid of a union, one row of global indices per
    variable: each block's grid in lexicographic order, block after block.
    Also the first cell of each block."""
    dtype = _index_dtype(sum(sizes) ** 2)
    offsets = itertools.accumulate(sizes[:-1], initial=0)
    blocks = [np.indices((m,) * k, dtype).reshape(k, m**k) + o for m, o in zip(sizes, offsets)]
    rows = np.concatenate(blocks, axis=1)
    rows.setflags(write=False)
    return rows, np.cumsum([0] + [m**k for m in sizes[:-1]])


class _Batch:
    """Catalog algebras ``start`` and on, evaluated as one union over their
    concatenated grids.  The values of the ``shared`` formulas are kept."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], start: int, variables: Sequence[str],
                 shared: set[Formula]) -> None:
        self.counts = [A.size ** len(variables) for A in algebras]
        if self.counts[0] > MAX_GRID:  # then the algebra is alone in its batch
            raise CapacityError(f"Assignment grid of size {self.counts[0]} exceeds {MAX_GRID}.")
        self.algebras, self.start = algebras, start
        self.offsets, self.tables, self.designated_at = _union(algebras)
        rows, self.starts = _cells(tuple(A.size for A in algebras), len(variables))
        self.columns = dict(zip(variables, rows))
        self.size, self.dtype = len(self.designated_at), rows.dtype
        self.shared, self.memo = shared, {}

    def value(self, f: Formula) -> np.ndarray:
        if isinstance(f, Var):
            return self.columns[f.name]
        vec = self.memo.get(f)
        if vec is not None:
            return vec
        if isinstance(f, Const):
            points = [_constant_index(A, f.symbol) + o for A, o in zip(self.algebras, self.offsets)]
            vec = np.array(points, dtype=self.dtype).repeat(self.counts)
        elif isinstance(f, Bang):
            if self.tables["bang"] is None:
                raise ValueError("Guard connective is not in the algebra signature.")
            vec = self.tables["bang"].take(self.value(f.child))
        else:
            left = self.value(f.left)
            vec = self.tables[f.op].take(left * self.size + self.value(f.right))
        if f in self.shared:
            self.memo[f] = vec
        return vec

    def designated(self, f: Formula) -> np.ndarray:
        return self.designated_at.take(self.value(f))


def _scan(formulas: Iterable[Formula]) -> tuple[list[str], set[str], set[Formula]]:
    """The variables, the optional symbols, and the subformulas other than
    variables met more than once; below a repeat nothing is counted again."""
    names: set[str] = set()
    symbols: set[str] = set()
    seen: set[Formula] = set()
    shared: set[Formula] = set()
    stack = list(formulas)
    while stack:
        f = stack.pop()
        if isinstance(f, Var):
            names.add(f.name)
        elif f in seen:
            shared.add(f)
        else:
            seen.add(f)
            if isinstance(f, Const):
                symbols.add(f.symbol)
            elif isinstance(f, Bang):
                symbols.add("bang")
                stack.append(f.child)
            else:
                stack += (f.left, f.right)
    return sorted(names), symbols.intersection(OPTIONAL_SYMBOLS), shared


class _Evaluator:
    """Designated-value judgments over one catalog, on ``formulas``: every
    formula they evaluate, repeats included.  Each batch is built when a
    judgment first reaches it, so a missing symbol or an oversized grid
    raises just when the judgment reaches that algebra."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], formulas: Iterable[Formula]) -> None:
        if not algebras:
            raise ValueError("Consequence needs at least one algebra.")
        self.algebras = algebras
        self.variables, self.symbols, self.shared = _scan(formulas)
        self._built: list[_Batch] = []
        self._next = self._cut()

    def _cut(self) -> Iterator[_Batch]:
        algebras, k = self.algebras, len(self.variables)
        fits = [self.symbols <= A.signature and A.size**k <= MAX_GRID for A in algebras]
        start = 0
        while start < len(algebras):
            end, cells, elements = start + 1, algebras[start].size ** k, algebras[start].size
            while fits[start] and end < len(algebras) and fits[end]:
                cells += algebras[end].size ** k
                elements += algebras[end].size
                if cells > MAX_GRID or elements > _UNION_ELEMENTS:
                    break
                end += 1
            yield _Batch(algebras[start:end], start, self.variables, self.shared)
            start = end

    def batches(self) -> Iterator[_Batch]:
        yield from self._built
        for batch in self._next:
            self._built.append(batch)
            yield batch

    def consequence(self, premises: Sequence[Formula], conclusion: Formula) -> ConsequenceResult:
        for batch in self.batches():
            mask = np.ones(sum(batch.counts), dtype=bool)
            for p in premises:
                mask &= batch.designated(p)
                if not mask.any():
                    break
            if not mask.any():
                continue
            bad = mask & ~batch.designated(conclusion)
            flat = int(bad.argmax())
            if bad[flat]:
                block = int(batch.starts.searchsorted(flat, side="right")) - 1
                shape = (batch.algebras[block].size,) * len(self.variables)
                cell = map(int, np.unravel_index(flat - batch.starts[block], shape))
                countermodel = dict(zip(self.variables, cell))
                return ConsequenceResult(False, batch.start + block, countermodel)
        return ConsequenceResult(True)


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
    algebras, premises = tuple(algebras), tuple(premises)
    return _Evaluator(algebras, (*premises, conclusion)).consequence(premises, conclusion)


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
    premises = tuple(premises)
    variables = sorted(set(free_variables(conclusion)).union(*map(free_variables, premises)))
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
        return self.with_premise.holds == self.guarded_arrow.holds == self.guarded_both.holds


def deduction_check(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    phi: Formula,
    psi: Formula,
) -> DeductionReport:
    """Compare moving phi into the premises against guarding it on the left.
    The three judgments share one evaluator: each subformula is evaluated once."""
    algebras, premises = tuple(algebras), tuple(premises)
    for A in algebras:
        if A.bang is None:
            raise ValueError("deduction_check needs the guard in every signature.")
    readings = (_READINGS[r][0](phi, psi) for r in ("deductive", "half-guarded", "guarded"))
    judgments = [((*premises, *ps), c) for ps, c in readings]
    evaluator = _Evaluator(algebras, [f for ps, c in judgments for f in (*ps, c)])
    return DeductionReport(*(evaluator.consequence(*judgment) for judgment in judgments))


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
    constants = [Const(c) for c in ("1", "0", "bot", "top") if c == "1" or c in signature]
    return [*map(Var, shared), *constants]


def _candidates(atoms: list[Formula], by_size: dict[int, list[Formula]], bang: bool,
                max_size: int) -> Iterator[Formula]:
    """The atoms, then for each size up to ``max_size`` each connective in
    ``OPS`` order by left size, then the guard, over the kept candidates of
    smaller sizes that the caller files in ``by_size``."""
    yield from atoms
    for target in range(2, max_size + 1):
        for op in OPS:
            for left_size in range(1, target - 1):
                for left in by_size.get(left_size, ()):
                    for right in by_size.get(target - 1 - left_size, ()):
                        yield BinOp(op, left, right)
        if bang:
            yield from map(Bang, by_size.get(target - 1, ()))


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
    if depth < 0:
        raise ValueError("The search depth must be non-negative.")
    algebras = tuple(algebras)
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

    atoms = _atoms(sorted(free_variables(phi) & free_variables(psi)), signature)
    # every batch now: an oversized grid raises before the first candidate
    batches = list(_Evaluator(algebras, atoms).batches())
    # phi and psi given twice are shared: each batch keeps their values
    left, right = _Evaluator(algebras, (phi, phi)), _Evaluator(algebras, (psi, psi))
    seen: set[bytes] = set()
    by_size: dict[int, list[Formula]] = {}
    tried = 0
    for delta in _candidates(atoms, by_size, "bang" in signature, min(2 ** (depth + 1) - 1, 33)):
        if tried >= max_candidates:
            break
        if formula_depth(delta) > depth:
            continue
        key = b"|".join(batch.value(delta).tobytes() for batch in batches)
        if key in seen:
            continue
        seen.add(key)
        by_size.setdefault(formula_size(delta), []).append(delta)
        tried += 1
        if not (left.consequence(*entails(phi, delta)).holds
                and right.consequence(*entails(delta, psi)).holds):
            continue
        # the certificate: both judgments re-decided by the scalar evaluator
        sides = ((left_judgment, phi, delta), (right_judgment, delta, psi))
        certificate = tuple(Judgment(text, consequence_slow(algebras, *entails(a, b)).holds)
                            for text, a, b in sides)
        if all(judgment.holds for judgment in certificate):
            return InterpolationResult("found", mode, delta, certificate, candidates_tried=tried)
    return InterpolationResult(status="exhausted", mode=mode, candidates_tried=tried)
