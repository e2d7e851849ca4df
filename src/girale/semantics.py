"""Evaluation and designated-value reasoning over finite algebra catalogs.

A formula holds in an algebra when its value v satisfies v /\\ 1 = 1 under
every assignment; consequence relativizes that to a finite list of algebras.
One vector evaluator serves ``consequence``, ``valid``, ``deduction_check``
and interpolant search.  It takes a batch of consecutive catalog algebras as
one disjoint union of N elements: block-diagonal flat tables of global
indices, in the smallest dtype holding N^2, over each block's grid in
lexicographic order of the sorted variable names, so the first countermodel
is deterministic.  A batch holds algebras that have every symbol the
formulas use and whose grid fits ``MAX_GRID``, and ends before its cells
pass ``MAX_GRID`` or its elements 256 (so that it indexes in uint16); any
other algebra is a batch of its own.  The batch spans, and per batch and
number of variables the tables, grid and constant columns, are kept in
bounded caches, and their arrays and the kept values are read-only.  A
binary node is one add and one gather: its left operand comes as N times
its value, from tables and columns also kept times N.  Within one call each
distinct subformula is evaluated once.
Interpolant search reads one candidate stream, smallest first, and judges
each candidate whose value vector is new.  Three evaluators serve the whole
search: one over the atoms gives the value vectors, and one over phi and one
over psi judge the two sides, evaluating phi and psi once per batch.  A hit
is re-verified by the separate scalar evaluator.
"""

from __future__ import annotations

import bisect
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
    """Bottom-up table evaluation of one assignment, every value of which is checked."""
    for name, value in assignment.items():
        if not 0 <= value < A.size:
            raise ValueError(f"Assignment value {value} out of range for {name!r}.")
    return _evaluate(A, f, assignment)


def _evaluate(A: FiniteAlgebra, f: Formula, assignment: Mapping[str, int]) -> int:
    if isinstance(f, Var):
        if f.name not in assignment:
            raise ValueError(f"Unbound variable {f.name!r}.")
        return assignment[f.name]
    if isinstance(f, Const):
        return _constant_index(A, f.symbol)
    if isinstance(f, Bang):
        if A.bang is None:
            raise ValueError("Guard connective is not in the algebra signature.")
        return A.bang[_evaluate(A, f.child, assignment)]
    left = _evaluate(A, f.left, assignment)
    right = _evaluate(A, f.right, assignment)
    table = {"and": A.meet, "or": A.join, "mul": A.mult, "imp": A.imp}[f.op]
    return table[left][right]


def designated(A: FiniteAlgebra, value: int) -> bool:
    return A.meet[value][A.one] == A.one


_UNION_ELEMENTS = 256  # most elements in a batch of several algebras


@lru_cache(maxsize=64)
def _spans(algebras: tuple[FiniteAlgebra, ...], k: int, symbols: frozenset[str], max_grid: int,
           max_elements: int) -> tuple[tuple[int, int], ...]:
    """The (start, end) of each batch of k-variable judgments using ``symbols``.
    The limits ``MAX_GRID`` and ``_UNION_ELEMENTS`` are passed in, so that the
    cache follows them."""
    fits = [symbols <= A.signature and A.size**k <= max_grid for A in algebras]
    spans, start = [], 0
    while start < len(algebras):
        end, cells, elements = start + 1, algebras[start].size ** k, algebras[start].size
        while fits[start] and end < len(algebras) and fits[end]:
            cells += algebras[end].size ** k
            elements += algebras[end].size
            if cells > max_grid or elements > max_elements:
                break
            end += 1
        spans.append((start, end))
        start = end
    return tuple(spans)


class _Layout:
    """What every k-variable judgment over one batch shares, as read-only
    arrays: the flat tables, the grid (one row per variable position, each
    block's grid in lexicographic order, block after block) and the
    designated elements; and the first cell of each block.  Constant
    columns, and each array times the union size N, are made on first use."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], k: int) -> None:
        self.algebras, sizes = algebras, [A.size for A in algebras]
        self.size = n = sum(sizes)
        self.dtype = dtype = _index_dtype(n * n)
        self.offsets = offsets = tuple(itertools.accumulate(sizes[:-1], initial=0))
        self.counts = [m**k for m in sizes]
        self.starts = tuple(itertools.accumulate(self.counts[:-1], initial=0))
        square = {op: np.zeros((n, n), dtype) for op in OPS}
        for A, offset in zip(algebras, offsets):
            block = slice(offset, offset + A.size)
            for op, table in zip(OPS, (A.meet, A.join, A.mult, A.imp)):
                square[op][block, block] = np.asarray(table) + offset
        arrays = {op: table.ravel() for op, table in square.items()}
        bangs = [np.asarray(A.bang) + o for A, o in zip(algebras, offsets) if A.bang is not None]
        if len(bangs) == len(algebras):  # else the guard is missing
            arrays["bang"] = np.concatenate(bangs).astype(dtype)
        grids = [np.indices((m,) * k, dtype).reshape(k, m**k) + o for m, o in zip(sizes, offsets)]
        arrays.update(enumerate(np.concatenate(grids, axis=1)))
        arrays["designated"] = np.concatenate([np.asarray(A.meet)[:, A.one] == A.one for A in algebras])
        self.arrays = {(key, False): array for key, array in arrays.items()}
        for array in arrays.values():
            array.setflags(write=False)

    def array(self, key: int | str, scaled: bool = False) -> np.ndarray:
        """An op's or the guard's table, a variable position's row or a constant's column."""
        vec = self.arrays.get((key, scaled))
        if vec is None:
            if scaled:
                vec = self.array(key) * self.size
            elif key == "bang":
                raise ValueError("Guard connective is not in the algebra signature.")
            else:
                points = [_constant_index(A, key) + o for A, o in zip(self.algebras, self.offsets)]
                vec = np.array(points, dtype=self.dtype).repeat(self.counts)
            vec.setflags(write=False)
            self.arrays[key, scaled] = vec
        return vec


_layout = lru_cache(maxsize=8)(_Layout)


class _Batch:
    """Catalog algebras ``start`` and on, evaluated as one union over their
    concatenated grids.  The values and designated cells of the ``shared``
    formulas are kept, read-only."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], start: int, variables: Sequence[str],
                 shared: set[Formula]) -> None:
        cells = algebras[0].size ** len(variables)
        if cells > MAX_GRID:  # then the algebra is alone in its batch
            raise CapacityError(f"Assignment grid of size {cells} exceeds {MAX_GRID}.")
        self.layout, self.start = _layout(algebras, len(variables)), start
        self.position = {name: j for j, name in enumerate(variables)}
        self.shared, self.memo, self.held = shared, {}, {}

    def value(self, f: Formula, scaled: bool = False) -> np.ndarray:
        """The values of ``f``, times N if ``scaled``: the form of a left operand."""
        if isinstance(f, Var):
            return self.layout.array(self.position[f.name], scaled)
        if isinstance(f, Const):
            return self.layout.array(f.symbol, scaled)
        vec = self.memo.get((f, scaled))
        if vec is not None:
            return vec
        if scaled and f in self.shared:  # gathered once, then one multiply
            vec = self.value(f) * self.layout.size
        elif isinstance(f, Bang):
            vec = self.layout.array("bang", scaled).take(self.value(f.child))
        else:
            vec = self.layout.array(f.op, scaled).take(self.value(f.left, True) + self.value(f.right))
        if f in self.shared:
            vec.setflags(write=False)
            self.memo[f, scaled] = vec
        return vec

    def designated(self, f: Formula) -> np.ndarray:
        held = self.held.get(f)
        if held is None:
            held = self.layout.array("designated").take(self.value(f))
            if f in self.shared:
                held.setflags(write=False)
                self.held[f] = held
        return held


def _scan(formulas: Iterable[Formula]) -> tuple[list[str], frozenset[str], set[Formula]]:
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
    return sorted(names), frozenset(OPTIONAL_SYMBOLS).intersection(symbols), shared


class _Evaluator:
    """Designated-value judgments over one catalog, on ``formulas``: every
    formula they evaluate, repeats included.  Each batch is built when a
    judgment first reaches it, so a missing symbol or an oversized grid
    raises just when the judgment reaches that algebra."""

    def __init__(self, algebras: tuple[FiniteAlgebra, ...], formulas: Iterable[Formula]) -> None:
        if not algebras:
            raise ValueError("Consequence needs at least one algebra.")
        self.algebras = algebras
        self.variables, symbols, self.shared = _scan(formulas)
        self._spans = iter(_spans(algebras, len(self.variables), symbols, MAX_GRID, _UNION_ELEMENTS))
        self._built: list[_Batch] = []

    def batches(self) -> Iterator[_Batch]:
        yield from self._built
        for start, end in self._spans:
            self._built.append(_Batch(self.algebras[start:end], start, self.variables, self.shared))
            yield self._built[-1]

    def consequence(self, premises: Sequence[Formula], conclusion: Formula) -> ConsequenceResult:
        for batch in self.batches():
            mask = None  # the cells where every premise so far is designated
            for p in premises:
                mask = batch.designated(p) if mask is None else mask & batch.designated(p)
                if not mask.any():
                    break
            else:
                held = batch.designated(conclusion)
                bad = ~held if mask is None else mask > held  # mask and not held
                flat = int(bad.argmax())
                if bad[flat]:
                    starts, algebras = batch.layout.starts, batch.layout.algebras
                    block = bisect.bisect_right(starts, flat) - 1
                    shape = (algebras[block].size,) * len(self.variables)
                    cell = map(int, np.unravel_index(flat - starts[block], shape))
                    return ConsequenceResult(False, batch.start + block, dict(zip(self.variables, cell)))
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
            if all(designated(A, _evaluate(A, p, h)) for p in premises):
                if not designated(A, _evaluate(A, conclusion, h)):
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
    for delta in _candidates(atoms, by_size, "bang" in signature, min(2 ** (min(depth, 5) + 1) - 1, 33)):
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
