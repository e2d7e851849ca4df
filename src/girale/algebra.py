"""Finite algebra kernel: tables, law checks, residuals, congruences, homs.

An algebra lives on indices 0..n-1 with binary tables for meet, join,
fusion, and implication, the unit constant, and optional extras (the
pointed constant, bounds, and the unary guard).  Law checking is separate
from construction so that deliberately broken tables can be built and
reported on.  The laws form one table, ``LAWS``, of numpy masks over
witness tuples; loops run only to build an error once an array shows one.
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .capacity import CapacityError, guard

Table = tuple[tuple[int, ...], ...]

OPTIONAL_SYMBOLS = ("0", "bot", "top", "bang")
CLASS_TAGS = ("crl", "prl", "bounded_prl", "a_algebra", "girale")
MAX_HOMS = 4096  # hom enumeration stops past this many maps: its answer bounds its work

# tag -> (symbols the class needs, groups of LAWS it checks)
_TAGS = {
    "crl": (frozenset(), {"core"}),
    "prl": (frozenset({"0"}), {"core"}),
    "bounded_prl": (frozenset({"0", "bot", "top"}), {"core", "bounds"}),
    "a_algebra": (frozenset({"0", "bot", "top"}), {"core", "bounds", "negation"}),
    "girale": (frozenset({"0", "bot", "top", "bang"}), {"core", "bounds", "negation", "bang"}),
}


def _check_indices(rows: Sequence[Sequence], n: int, what: str) -> None:
    """Raise ValueError naming ``what`` unless each value is an int in range(n), in C if n <= 256."""
    with contextlib.suppress(TypeError, ValueError):
        if n <= 256 and not b"".join(map(bytes, rows)).translate(None, bytes(range(n))):
            return
    if not all(isinstance(v, int) and 0 <= v < n for row in rows for v in row):
        raise ValueError(f"{what} out of range or not an integer.")


@dataclass(frozen=True)
class FiniteAlgebra:
    size: int
    meet: Table
    join: Table
    mult: Table
    imp: Table
    one: int
    zero: int | None = None
    bot: int | None = None
    top: int | None = None
    bang: tuple[int, ...] | None = None
    names: tuple[str, ...] | None = dataclasses.field(default=None, compare=False)

    def __post_init__(self) -> None:
        n = self.size
        for label in ("meet", "join", "mult", "imp"):
            table = getattr(self, label)
            if len(table) != n or any(len(row) != n for row in table):
                raise ValueError(f"{label} table is not {n}x{n}.")
            _check_indices(table, n, f"{label} table entry")
        for label in ("one", "zero", "bot", "top"):
            v = getattr(self, label)
            if (v is not None or label == "one") and not (isinstance(v, int) and 0 <= v < n):
                raise ValueError(f"Constant {label}={v} out of range or not an integer.")
        if self.bang is not None:
            if len(self.bang) != n:
                raise ValueError("bang table malformed.")
            _check_indices((self.bang,), n, "bang table entry")
        if self.names is not None and len(self.names) != n:
            raise ValueError("names length does not match size.")

    def __hash__(self) -> int:
        """The hash of the compared fields, computed once.  Neither ``replace``
        nor pickling copies it: ``hash(None)`` can differ between processes."""
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            fields = (self.size, self.meet, self.join, self.mult, self.imp,
                      self.one, self.zero, self.bot, self.top, self.bang)
            object.__setattr__(self, "_hash", hash(fields))
            return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple:
        """Unpickle through the constructor: no cached hash, and fresh attribute storage."""
        return type(self), tuple(getattr(self, field.name) for field in dataclasses.fields(self))

    @property
    def signature(self) -> frozenset[str]:
        values = (self.zero, self.bot, self.top, self.bang)  # in OPTIONAL_SYMBOLS order
        return frozenset(s for s, v in zip(OPTIONAL_SYMBOLS, values) if v is not None)

    def leq(self, a: int, b: int) -> bool:
        return self.meet[a][b] == a

    def name_of(self, a: int) -> str:
        if self.names is None:
            return f"e{a}"
        return self.names[a]


@dataclass(frozen=True)
class Violation:
    law: str
    witness: tuple[int, ...]

    def describe(self) -> str:
        args = ",".join(str(w) for w in self.witness)
        return f"{self.law}({args})"


@dataclass(frozen=True)
class ClassReport:
    passed: bool
    violations: tuple[Violation, ...]

    def summary(self) -> str:
        if self.passed:
            return "pass"
        return "; ".join(v.describe() for v in self.violations[:8])


class NotResiduated(Exception):
    """The fusion table has no largest residual for some argument pair."""

    def __init__(self, a: int, c: int, maximal: tuple[int, ...]) -> None:
        super().__init__(
            f"No maximum b with {a}*b <= {c}; maximal candidates {list(maximal)}."
        )
        self.a = a
        self.c = c
        self.maximal = maximal


def residuals_from_mult(meet: Table, join: Table, mult: Table) -> Table:
    """Implication table with entry (a,c) the largest b such that a*b <= c.

    The entry is the join of the candidates b (those with a*b <= c), folded in
    increasing b.  Raises NotResiduated at the first (a,c) where that join is
    no candidate, listing the maximal candidates (the fusion is not
    residuated against this order).
    """
    n = len(meet)
    dtype = _index_dtype(n)
    meet_a, join_a, mult_a = (np.array(t, dtype=dtype) for t in (meet, join, mult))
    leq = meet_a == np.arange(n, dtype=dtype)[:, None]
    imp = []
    for rows in _row_blocks(n):
        fits = leq[mult_a[rows].T]  # [b, a, c]: a*b <= c
        best = np.zeros(fits.shape[1:], dtype=dtype)  # [a, c]
        seen = np.zeros(best.shape, dtype=bool)
        for b, join_b in enumerate(join_a.T):
            take = fits[b]
            best[take] = np.where(seen[take], join_b[best[take]], b)
            seen |= take
        failed = ~(seen & np.take_along_axis(fits, best[None], axis=0)[0])
        if failed.any():
            a, c = np.argwhere(failed)[0].tolist()
            a += rows.start
            found = [b for b in range(n) if meet[mult[a][b]][c] == mult[a][b]]
            maximal = [b for b in found if all(o == b or meet[b][o] != b for o in found)]
            raise NotResiduated(a, c, tuple(maximal))
        imp.extend(best.tolist())
    return tuple(tuple(row) for row in imp)


# --- the law table -------------------------------------------------------


def _index_dtype(n: int) -> np.dtype:
    """Smallest unsigned dtype holding the indices 0..n-1."""
    return np.min_scalar_type(max(n - 1, 0))


def _row_blocks(n: int) -> Iterator[slice]:
    """Slices of first coordinates a; each (a, b, c) block has at most 2^20 cells."""
    step = max(1, (1 << 20) // max(n * n, 1))
    return (slice(lo, min(n, lo + step)) for lo in range(0, n, step))


class _Tables:
    """An algebra's operations as arrays of its index dtype, plus its order."""

    def __init__(self, A: FiniteAlgebra) -> None:
        dtype = _index_dtype(A.size)
        self.meet, self.join, self.mult, self.imp = (
            np.array(t, dtype=dtype) for t in (A.meet, A.join, A.mult, A.imp)
        )
        self.index = np.arange(A.size, dtype=dtype)
        self.leq = self.meet == self.index[:, None]  # leq[x, y]: x <= y
        self.upper = self.index[:, None] < self.index  # pairs a < b
        self.one, self.bot, self.top = A.one, A.bot, A.top
        self.bang = None if A.bang is None else np.array(A.bang, dtype=dtype)
        self.neg = None if A.zero is None else self.imp[:, A.zero]


class Law(NamedTuple):
    """``mask(T, rows)`` is True at the law's violating witness tuples (one axis
    per coordinate) whose first coordinate is in ``rows``."""

    name: str
    group: str
    block: int  # report position: by block, then by witness, then by table order
    mask: Callable[[_Tables, slice], np.ndarray]
    needs: frozenset[str] = frozenset()  # the optional symbols the law mentions


def _commutative(t: np.ndarray, T: _Tables, r: slice) -> np.ndarray:
    return (t[r] != t.T[r]) & T.upper[r]


def _associative(t: np.ndarray, r: slice) -> np.ndarray:
    return t[t[r]] != t[r][:, t]  # (ab)c vs a(bc)


def _absorbs(t: np.ndarray, s: np.ndarray, T: _Tables, r: slice) -> np.ndarray:
    return t[T.index[r, None], s[r]] != T.index[r, None]  # a t (a s b) vs a


def _unit(T: _Tables, r: slice) -> np.ndarray:
    return (T.mult[T.one, r] != T.index[r]) | (T.mult[r, T.one] != T.index[r])


def _negation_symmetry(T: _Tables, r: slice) -> np.ndarray:
    return T.imp[r][:, T.neg] != T.imp[:, T.neg[r]].T  # a -> ~b vs b -> ~a


_NEG = frozenset({"0", "bot", "top"})
_BANG = frozenset({"bang"})

LAWS: tuple[Law, ...] = (
    Law("meet-idempotent", "core", 0, lambda T, r: T.meet.diagonal()[r] != T.index[r]),
    Law("meet-commutative", "core", 0, lambda T, r: _commutative(T.meet, T, r)),
    Law("meet-associative", "core", 1, lambda T, r: _associative(T.meet, r)),
    Law("join-idempotent", "core", 2, lambda T, r: T.join.diagonal()[r] != T.index[r]),
    Law("join-commutative", "core", 2, lambda T, r: _commutative(T.join, T, r)),
    Law("join-associative", "core", 3, lambda T, r: _associative(T.join, r)),
    Law("absorption-meet-join", "core", 4, lambda T, r: _absorbs(T.meet, T.join, T, r)),
    Law("absorption-join-meet", "core", 4, lambda T, r: _absorbs(T.join, T.meet, T, r)),
    Law("unit", "core", 5, _unit),
    Law("mult-commutative", "core", 5, lambda T, r: _commutative(T.mult, T, r)),
    Law("mult-associative", "core", 6, lambda T, r: _associative(T.mult, r)),
    Law("residuation", "core", 7, lambda T, r: T.leq[T.mult[r]] != T.leq[r][:, T.imp]),
    Law("bot-least", "bounds", 8, lambda T, r: ~T.leq[T.bot, r], frozenset({"bot"})),
    Law("top-greatest", "bounds", 8, lambda T, r: ~T.leq[r, T.top], frozenset({"top"})),
    Law("double-negation", "negation", 9, lambda T, r: T.neg[T.neg[r]] != T.index[r], _NEG),
    Law("negation-symmetry", "negation", 10, _negation_symmetry, _NEG),
    Law("G1", "bang", 11, lambda T, r: (T.index[r] == T.one) & (T.bang[T.one] != T.one), _BANG),
    Law("G2", "bang", 12, lambda T, r: ~T.leq[T.bang[r], T.meet[r, T.one]], _BANG),
    Law("G4", "bang", 12, lambda T, r: T.bang[T.bang[r]] != T.bang[r], _BANG),
    Law("G3", "bang", 12, lambda T, r: T.mult[T.bang[r]][:, T.bang] != T.bang[T.meet[r]], _BANG),
)


def _violations(A: FiniteAlgebra, ranks: Sequence[int]) -> list[tuple[int, tuple, int]]:
    """(block, witness, rank) of each violation of the laws ``LAWS[rank]``."""
    T = _Tables(A) if ranks else None
    found = []
    for rank in ranks:
        for rows in _row_blocks(A.size):
            mask = LAWS[rank].mask(T, rows)
            if mask.any():
                hits = np.argwhere(mask)
                hits[:, 0] += rows.start
                found.extend((LAWS[rank].block, tuple(w), rank) for w in hits.tolist())
    return found


@lru_cache(maxsize=1024)
def _core_violations(size: int, meet: Table, join: Table, mult: Table, imp: Table, one: int):
    """The violations of the laws that read no optional symbol: one scan serves
    every algebra on the same tables, such as an expansion in each signature."""
    core = [rank for rank, law in enumerate(LAWS) if not law.needs]
    return tuple(_violations(FiniteAlgebra(size, meet, join, mult, imp, one), core))


def _scan(A: FiniteAlgebra, chosen: Callable[[Law], bool]) -> ClassReport:
    """The core laws and the chosen others, reported by block, then witness, then rank."""
    found = list(_core_violations(A.size, A.meet, A.join, A.mult, A.imp, A.one))
    found += _violations(A, [r for r, law in enumerate(LAWS) if law.needs and chosen(law)])
    violations = tuple(Violation(LAWS[rank].name, w) for _, w, rank in sorted(found))
    return ClassReport(not violations, violations)


def check_class(A: FiniteAlgebra, tag: str) -> ClassReport:
    """Report every law violation for the named class; all tuples are scanned."""
    if tag not in CLASS_TAGS:
        raise ValueError(f"Unknown class tag {tag!r}; expected one of {CLASS_TAGS}.")
    needs, groups = _TAGS[tag]
    missing = needs - A.signature
    if missing:
        raise ValueError(f"Class {tag!r} needs symbols {sorted(missing)} in the signature.")
    return _scan(A, lambda law: law.group in groups)


def check_signature_laws(A: FiniteAlgebra) -> ClassReport:
    """Core residuated-lattice laws plus the laws of every optional symbol present."""
    return _scan(A, lambda law: law.needs <= A.signature)


# --- congruences ---------------------------------------------------------

Partition = tuple[int, ...]


def _canonical(labels: Iterable) -> Partition:
    relabel: dict = {}
    out = []
    for x in labels:
        if x not in relabel:
            relabel[x] = len(relabel)
        out.append(relabel[x])
    return tuple(out)


def _find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _merge(parent: list[int], labels: Partition) -> int:
    """Union every element with the first of its block; return the merges made."""
    merges, first = 0, {}
    for v, label in enumerate(labels):
        ru, rv = _find(parent, first.setdefault(label, v)), _find(parent, v)
        if ru != rv:
            parent[rv] = ru
            merges += 1
    return merges


def _principal(
    A: FiniteAlgebra, a: int, b: int, known: dict[tuple[int, int], Partition]
) -> Partition:
    """Cg(a, b); a union that relates a pair with a known Cg merges all of it."""
    n = A.size
    parent, queue = list(range(n)), []
    blocks = n

    def union(x: int, y: int) -> None:
        nonlocal blocks
        rx, ry = _find(parent, x), _find(parent, y)
        if rx != ry:
            theta = known.get((x, y) if x < y else (y, x))
            if theta is not None:
                blocks -= _merge(parent, theta)
            else:
                parent[ry] = rx
                blocks -= 1
                queue.append((x, y))

    def images(x: int, y: int) -> Iterator[tuple[int, int]]:
        # on a flat order, meet and join rows mostly hit bot and top, while
        # product and implication rows are translations: they go first
        for t in (A.mult, A.imp, A.meet, A.join):
            yield from zip(t[x], t[y])
            for row in t:
                yield row[x], row[y]
        if A.bang is not None:
            yield A.bang[x], A.bang[y]

    union(a, b)
    while queue:
        # every merged pair is propagated once, even if later unions
        # already joined the classes by another route
        for u, v in images(*queue.pop()):
            if u != v:
                union(u, v)
                if blocks == 1:
                    return (0,) * n
    return _canonical([_find(parent, v) for v in range(n)])


def meet_partitions(p: Partition, q: Partition) -> Partition:
    return _canonical((p[x], q[x]) for x in range(len(p)))


@dataclass(frozen=True)
class CongruenceSet:
    """The complete congruence set of a finite algebra, as canonical partitions."""

    congruences: tuple[Partition, ...]

    @property
    def count(self) -> int:
        return len(self.congruences)

    @property
    def delta(self) -> Partition:
        return tuple(range(len(self.congruences[0])))

    def is_simple(self) -> bool:
        return self.count == 2

    def is_fsi(self) -> bool:
        """Delta is meet-irreducible: in a finite lattice, the meet of the others is not Delta."""
        delta = self.delta
        above = [p for p in self.congruences if p != delta]
        return not above or reduce(meet_partitions, above) != delta


def congruence_set(A: FiniteAlgebra) -> CongruenceSet:
    """All congruences, by closing the principal ones under pairwise joins.

    Two facts spare most of the propagation (Freese, *Computing congruences
    efficiently*, Algebra Universalis 59, 2008).  Cg(x, y) <= theta for every
    congruence theta with (x, y) in theta, and Cg(x, y) is compatible: so a
    closure that relates a pair whose Cg is known merges all of it and queues
    none of its pairs.  Con(A) <= Eq(A) is a sublattice: so two congruences
    join as equivalences, by union-find over their blocks.
    """
    guard(A.size, "congruence computation")
    n = A.size
    known: dict[tuple[int, int], Partition] = {}
    for a in range(n):
        for b in range(a + 1, n):
            known[a, b] = _principal(A, a, b, known)
    found = {_canonical(range(n)), *known.values()}
    worklist = sorted(found)
    while worklist:
        fresh = []
        current = sorted(found)
        for p in worklist:
            for q in current:
                parent = list(range(n))
                _merge(parent, p)
                _merge(parent, q)
                j = _canonical([_find(parent, v) for v in range(n)])
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        worklist = fresh
    return CongruenceSet(tuple(sorted(found)))


# --- homomorphisms ---------------------------------------------------------


class _Ops(NamedTuple):
    """What a hom between two structures preserves, as (name, source, target)
    constants, binary tables and unary tables, in report order."""

    constants: tuple[tuple[str, int, int], ...]
    binary: tuple[tuple[str, Table, Table], ...]
    unary: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = ()


def _alg_ops(A: FiniteAlgebra, B: FiniteAlgebra) -> _Ops:
    """The operations and constants of the signature two algebras share."""
    constants = (
        ("one", A.one, B.one),
        ("zero", A.zero, B.zero),
        ("bot", A.bot, B.bot),
        ("top", A.top, B.top),
    )
    return _Ops(
        tuple(c for c in constants if c[1] is not None and c[2] is not None),
        (
            ("meet", A.meet, B.meet),
            ("join", A.join, B.join),
            ("mult", A.mult, B.mult),
            ("imp", A.imp, B.imp),
        ),
        (("bang", A.bang, B.bang),) if A.bang is not None and B.bang is not None else (),
    )


def _preservation_violations(h: Sequence[int], ops: _Ops) -> list[Violation]:
    """Each witness at which the map h fails to commute with an operation."""
    out = [Violation(f"hom-{name}", (a,)) for name, a, b in ops.constants if h[a] != b]
    for name, s, t in ops.binary:
        for x, row in enumerate(s):
            image = t[h[x]]
            for y, c in enumerate(row):
                if h[c] != image[h[y]]:
                    out.append(Violation(f"hom-{name}", (x, y)))
    for name, s, t in ops.unary:
        out.extend(Violation(f"hom-{name}", (x,)) for x, c in enumerate(s) if h[c] != t[h[x]])
    return out


@lru_cache(maxsize=4096)
def _hom_violations(
    ops_of: Callable[..., _Ops], source, target, mapping: tuple[int, ...]
) -> tuple[Violation, ...]:
    """``_preservation_violations`` of a map between two structures, once per
    distinct map: the key holds every field the check reads, so an equal map
    between equal structures, names aside, shares the answer."""
    return tuple(_preservation_violations(mapping, ops_of(source, target)))


def _search_homs(
    ops: _Ops, allowed: Sequence[Sequence[int]], injective_only: bool
) -> list[tuple[int, ...]]:
    """Every map preserving ops whose free choices come from ``allowed[x]``.

    The constants seed the map.  Closure under the operations forces what it
    can, then the search branches on the first unassigned index, trying its
    allowed images in order.  The closure visits each pair of assigned
    indices when the later of the two is assigned, and its fixpoint does not
    depend on the order it is reached in; so a complete map has been
    compared on every pair and is a hom without another check.
    """
    n = len(allowed)
    seed = [-1] * n
    for _, a, b in ops.constants:
        if seed[a] not in (-1, b):
            return []  # two constants at one source element, apart in the target
        seed[a] = b
    results: list[tuple[int, ...]] = []

    def close(mapping: list[int], new: list[int]) -> bool:
        """Assign every forced image; False on a conflict.  The pairs among
        the indices assigned before ``new`` must already be closed."""
        done = [x for x in range(n) if mapping[x] >= 0 and x not in new]
        while new:
            done += new
            forced = [(s[x], t[mapping[x]]) for _, s, t in ops.unary for x in new]
            for _, s, t in ops.binary:
                for x in new:
                    row, col, image = s[x], [r[x] for r in s], t[mapping[x]]
                    forced += [(row[y], image[mapping[y]]) for y in done]
                    forced += [(col[y], t[mapping[y]][mapping[x]]) for y in done]
            new = []
            for c, v in forced:
                if mapping[c] < 0:
                    mapping[c] = v
                    new.append(c)
                elif mapping[c] != v:
                    return False
        return True

    def search(mapping: list[int], new: list[int]) -> None:
        if len(results) > MAX_HOMS or not close(mapping, new):
            return
        assigned = [v for v in mapping if v >= 0]
        if injective_only and len(set(assigned)) != len(assigned):
            return
        if len(assigned) == n:
            results.append(tuple(mapping))
            return
        x = mapping.index(-1)
        for v in allowed[x]:
            if not (injective_only and v in mapping):
                child = list(mapping)
                child[x] = v
                search(child, [x])

    search(seed, sorted({a for _, a, _ in ops.constants}))
    del search  # else its own cell keeps it, and close, in a cycle for the collector
    if len(results) > MAX_HOMS:
        raise CapacityError(f"Hom enumeration finds more than {MAX_HOMS} maps.")
    return results


class _Hom:
    """A map between the carriers of two finite structures, given by index;
    its dataclass holds ``source``, ``target`` and ``mapping``, which is kept as
    a tuple because the memos it enters hash it.  Every kind of map reads one
    memo of hom checks, which ``cache_clear`` empties."""

    cache_clear = staticmethod(_hom_violations.cache_clear)

    def __post_init__(self) -> None:
        if type(self.mapping) is not tuple:
            object.__setattr__(self, "mapping", tuple(self.mapping))
        if len(self.mapping) != self.source.size:
            raise ValueError("Mapping length does not match source size.")
        for v in self.mapping:
            if type(v) is not int:
                raise ValueError(f"Mapping value {v!r} must be an integer.")
            if not 0 <= v < self.target.size:
                raise ValueError(f"Mapping value {v} out of target range.")

    def __call__(self, a: int) -> int:
        return self.mapping[a]

    def is_injective(self) -> bool:
        return len(set(self.mapping)) == len(self.mapping)

    def require_embedding(self, who: str) -> None:
        """Raise ValueError naming ``who`` unless the map is an injective homomorphism.
        The hom check is ``violations``, so it runs once per distinct map."""
        if not self.is_injective():
            raise ValueError(f"{who} is not injective.")
        bad = self.violations()
        if bad:
            raise ValueError(f"{who} is not a homomorphism ({bad[0].describe()}).")


@dataclass(frozen=True)
class AlgHom(_Hom):
    source: FiniteAlgebra
    target: FiniteAlgebra
    mapping: tuple[int, ...]

    def violations(self) -> list[Violation]:
        """Failures to preserve the operations and constants of the common signature."""
        return list(_hom_violations(_alg_ops, self.source, self.target, self.mapping))


def enumerate_homs(
    source: FiniteAlgebra, target: FiniteAlgebra, injective_only: bool = False
) -> list[AlgHom]:
    """Every map preserving all operations and constants, by guided backtracking."""
    guard(max(source.size, target.size), "hom enumeration")
    if source.signature != target.signature:
        raise ValueError("Hom enumeration needs matching signatures.")
    allowed = [range(target.size)] * source.size
    maps = _search_homs(_alg_ops(source, target), allowed, injective_only)
    return [AlgHom(source, target, h) for h in maps]


def signature_of(symbols: Iterable[str]) -> frozenset[str]:
    """The symbols as a signature; ValueError if any is not in ``OPTIONAL_SYMBOLS``."""
    sig = frozenset(symbols)
    bad = sig - frozenset(OPTIONAL_SYMBOLS)
    if bad:
        raise ValueError(f"Unknown signature symbols {sorted(bad)}.")
    return sig


def trivial_algebra(signature: Iterable[str] = ()) -> FiniteAlgebra:
    """The one-element algebra carrying the requested optional symbols."""
    sig = signature_of(signature)
    cell: Table = ((0,),)
    return FiniteAlgebra(
        size=1,
        meet=cell,
        join=cell,
        mult=cell,
        imp=cell,
        one=0,
        zero=0 if "0" in sig else None,
        bot=0 if "bot" in sig else None,
        top=0 if "top" in sig else None,
        bang=(0,) if "bang" in sig else None,
        names=("1",),
    )


# --- serialization --------------------------------------------------------


def algebra_to_json(A: FiniteAlgebra) -> dict:
    data: dict = {
        "size": A.size,
        "signature": sorted(A.signature),
        "meet": [list(r) for r in A.meet],
        "join": [list(r) for r in A.join],
        "mult": [list(r) for r in A.mult],
        "imp": [list(r) for r in A.imp],
        "one": A.one,
    }
    if A.zero is not None:
        data["zero"] = A.zero
    if A.bot is not None:
        data["bot"] = A.bot
    if A.top is not None:
        data["top"] = A.top
    if A.bang is not None:
        data["bang"] = list(A.bang)
    if A.names is not None:
        data["names"] = list(A.names)
    return data


def _is_list_of(value, kind: type) -> bool:
    """JSON shape check: a list whose items are exactly of ``kind`` (so no bools for int)."""
    return isinstance(value, list) and all(type(v) is kind for v in value)


# JSON field kinds, each named by the words of its message; "a JSON value" is
# any value, left to the loader it goes to (a span's algebras, a derivation's steps)
_KINDS: dict[str, Callable[[object], bool]] = {
    "an integer": lambda v: type(v) is int,
    "a string": lambda v: type(v) is str,
    "a list of integers": lambda v: _is_list_of(v, int),
    "a list of strings": lambda v: _is_list_of(v, str),
    "a table of integers": lambda v: _is_list_of(v, list) and all(_is_list_of(r, int) for r in v),
    "a JSON value": lambda v: True,
}
_REQUIRED = object()


def _field(data: dict, key: str, kind: str, where: str, default=_REQUIRED):
    """``data[key]`` checked as ``kind``, raising ValueError naming the field. A field with
    a default reads as it when absent, and when null too if the default is None."""
    if key not in data:
        if default is _REQUIRED:
            raise ValueError(f"{where} field {key!r} is missing.")
        return default
    value = data[key]
    if not (value is None and default is None or _KINDS[kind](value)):
        raise ValueError(f"{where} field {key!r} must be {kind}.")
    return value


def algebra_from_json(data: dict) -> FiniteAlgebra:
    """Load an algebra object, raising ValueError naming the bad field.

    Shape, types and the size bound are checked here, tables by FiniteAlgebra.
    A null zero, bot, top or names reads as absent; a null bang is rejected.
    A ``signature``, when given, must be the one the constants give.
    """
    if not isinstance(data, dict):
        raise ValueError("Algebra JSON must be an object.")
    where = "Algebra JSON"
    table = lambda key: tuple(map(tuple, _field(data, key, "a table of integers", where)))  # noqa: E731
    names = _field(data, "names", "a list of strings", where, None)
    signature = _field(data, "signature", "a list of strings", where, None)
    size = _field(data, "size", "an integer", where)
    guard(size, "algebra")
    A = FiniteAlgebra(
        size=size,
        meet=table("meet"),
        join=table("join"),
        mult=table("mult"),
        imp=table("imp"),
        one=_field(data, "one", "an integer", where),
        zero=_field(data, "zero", "an integer", where, None),
        bot=_field(data, "bot", "an integer", where, None),
        top=_field(data, "top", "an integer", where, None),
        bang=tuple(_field(data, "bang", "a list of integers", where)) if "bang" in data else None,
        names=tuple(names) if names is not None else None,
    )
    if signature is not None and set(signature) != A.signature:
        raise ValueError(f"{where} field 'signature' must match the constants: {sorted(A.signature)}.")
    return A
