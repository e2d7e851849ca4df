"""Scalar reference for the vectorized table kernel (test-only oracle).

These are plain nested loops over the tables, one function per law family,
in the report order of ``girale.algebra``: each law's witnesses in
lexicographic order, and where a loop tests two laws per witness, both are
reported at that witness.  The tests require the kernel to equal them
exactly: the same violations in the same order, the same ``NotResiduated``
arguments and the same first group-table error.  ``refines`` and
``is_congruence`` check the congruence order and the congruences that
``congruence_set`` computes, and ``congruence_set_reference`` computes them
without reuse: every principal congruence is closed on its own, and every
join is closed again under all the operations.  ``is_fsi`` meets every pair
of congruences above Delta.  The hom searches and
preservation loops are the two separate engines for algebras and groups:
the shared engine must list the same maps in the same order and report the
same violations.  The group layer at the end computes each fact its own way:
element powers by repeated squaring and orders by walking powers, the
invariant factors per prime by conjugating the partition that the torsion
counts give, the ``make_group`` table by decoding and encoding each pair of
elements, and the pushout by closing its kernel under products.  Four
fixture builders follow that girale itself does not need: ``direct_product``,
whose tables come from four nested loops, ``negative_cone``, and the Goedel
and Lukasiewicz chains, whose unit is the top, so that every element lies
below it.  The sequent
section keeps the search loop that re-searches every failure at each larger
budget, its two rule generators
over formula tuples (one per calculus, with the multiset splits listed in
full), the recursive structural key, all without caches or subformula
codes, and Maehara's interpolant with one branch per rule that edits the
left multiset by hand.
The last section keeps ``build_R`` with one function per operation called on
every cell, ``build_R_reference``, which writes the rows from the layout and
computes the residuals again for every signature, and ``member_K`` with its
own bound search and copy of the sentences over a ``split_R`` that scans for
the bounds and checks the interior closed.
The semantics section keeps the ``consequence`` loop that evaluates every
formula per algebra over its own int64 grid, with no memo, and
``deduction_check`` as three such calls.  ``interpolant_search`` is the
search before its candidates became one stream: one loop each for atoms,
products and guards, each with its own cap and depth check, and a fresh
such call for every judgment (its value vectors still come from girale's
evaluator).
The formula syntax section keeps the parser with a token list per notation,
one method per binding level and the notation's cases inside them,
``render`` with its own operator and constant spellings per notation, and
``formula_from_dict``, the inverse of ``formula_to_dict``.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from girale.algebra import (
    AlgHom,
    ClassReport,
    CongruenceSet,
    FiniteAlgebra,
    NotResiduated,
    Table,
    Violation,
    _canonical,
)
from girale.capacity import CapacityError, guard
from girale.formula import (
    BOT,
    CONSTS,
    MAX_NESTING,
    NOTATIONS,
    ONE,
    OPS,
    TOP,
    ZERO,
    Bang,
    BinOp,
    Const,
    Formula,
    ParseError,
    Var,
    free_variables,
    negation,
)
from girale.group import FiniteGroup, GroupHom, PrimeSet, group_from_table
from girale.proofs import Sequent, SequentProof, _check_fragment
from girale.formula import depth as formula_depth, size as formula_size
from girale.semantics import (
    MAX_GRID,
    MODES,
    _READINGS,
    ConsequenceResult,
    DeductionReport,
    InterpolationResult,
    Judgment,
    _atoms,
    _Evaluator,
    consequence_slow,
)


def residuals_from_mult(meet: Table, join: Table, mult: Table) -> Table:
    n = len(meet)

    def leq(x: int, y: int) -> bool:
        return meet[x][y] == x

    imp_rows = []
    for a in range(n):
        row = []
        for c in range(n):
            candidates = [b for b in range(n) if leq(mult[a][b], c)]
            if not candidates:
                raise NotResiduated(a, c, ())
            best = candidates[0]
            for b in candidates[1:]:
                best = join[best][b]
            if best not in candidates or not leq(mult[a][best], c):
                maximal = tuple(
                    b
                    for b in candidates
                    if all(other == b or not leq(b, other) for other in candidates)
                )
                raise NotResiduated(a, c, maximal)
            row.append(best)
        imp_rows.append(tuple(row))
    return tuple(imp_rows)


def lattice_violations(A: FiniteAlgebra) -> list[Violation]:
    n = A.size
    out = []
    for label in ("meet", "join"):
        t = getattr(A, label)
        for a in range(n):
            if t[a][a] != a:
                out.append(Violation(f"{label}-idempotent", (a,)))
            for b in range(a + 1, n):
                if t[a][b] != t[b][a]:
                    out.append(Violation(f"{label}-commutative", (a, b)))
        for a in range(n):
            for b in range(n):
                ab = t[a][b]
                for c in range(n):
                    if t[ab][c] != t[a][t[b][c]]:
                        out.append(Violation(f"{label}-associative", (a, b, c)))
    for a in range(n):
        for b in range(n):
            if A.meet[a][A.join[a][b]] != a:
                out.append(Violation("absorption-meet-join", (a, b)))
            if A.join[a][A.meet[a][b]] != a:
                out.append(Violation("absorption-join-meet", (a, b)))
    return out


def monoid_violations(A: FiniteAlgebra) -> list[Violation]:
    n = A.size
    out = []
    for a in range(n):
        if A.mult[A.one][a] != a or A.mult[a][A.one] != a:
            out.append(Violation("unit", (a,)))
        for b in range(a + 1, n):
            if A.mult[a][b] != A.mult[b][a]:
                out.append(Violation("mult-commutative", (a, b)))
    for a in range(n):
        for b in range(n):
            ab = A.mult[a][b]
            for c in range(n):
                if A.mult[ab][c] != A.mult[a][A.mult[b][c]]:
                    out.append(Violation("mult-associative", (a, b, c)))
    return out


def residuation_violations(A: FiniteAlgebra) -> list[Violation]:
    n = A.size
    out = []
    for a in range(n):
        for b in range(n):
            ab = A.mult[a][b]
            for c in range(n):
                if A.leq(ab, c) != A.leq(a, A.imp[b][c]):
                    out.append(Violation("residuation", (a, b, c)))
    return out


def bounds_violations(A: FiniteAlgebra) -> list[Violation]:
    out = []
    for a in range(A.size):
        if A.bot is not None and not A.leq(A.bot, a):
            out.append(Violation("bot-least", (a,)))
        if A.top is not None and not A.leq(a, A.top):
            out.append(Violation("top-greatest", (a,)))
    return out


def negation_violations(A: FiniteAlgebra) -> list[Violation]:
    assert A.zero is not None
    n = A.size
    out = []
    neg = [A.imp[a][A.zero] for a in range(n)]
    for a in range(n):
        if A.imp[neg[a]][A.zero] != a:
            out.append(Violation("double-negation", (a,)))
    for a in range(n):
        for b in range(n):
            if A.imp[a][neg[b]] != A.imp[b][neg[a]]:
                out.append(Violation("negation-symmetry", (a, b)))
    return out


def bang_violations(A: FiniteAlgebra) -> list[Violation]:
    assert A.bang is not None
    n = A.size
    out = []
    if A.bang[A.one] != A.one:
        out.append(Violation("G1", (A.one,)))
    for a in range(n):
        if not A.leq(A.bang[a], A.meet[a][A.one]):
            out.append(Violation("G2", (a,)))
        if A.bang[A.bang[a]] != A.bang[a]:
            out.append(Violation("G4", (a,)))
        for b in range(n):
            if A.mult[A.bang[a]][A.bang[b]] != A.bang[A.meet[a][b]]:
                out.append(Violation("G3", (a, b)))
    return out


def check_class(A: FiniteAlgebra, tag: str) -> ClassReport:
    """Reference for ``girale.algebra.check_class`` on an algebra with the tag's symbols."""
    violations = lattice_violations(A) + monoid_violations(A) + residuation_violations(A)
    if tag in ("bounded_prl", "a_algebra", "girale"):
        violations += bounds_violations(A)
    if tag in ("a_algebra", "girale"):
        violations += negation_violations(A)
    if tag == "girale":
        violations += bang_violations(A)
    return ClassReport(not violations, tuple(violations))


def check_signature_laws(A: FiniteAlgebra) -> ClassReport:
    violations = lattice_violations(A) + monoid_violations(A) + residuation_violations(A)
    if A.bot is not None or A.top is not None:
        violations += bounds_violations(A)
    if {"0", "bot", "top"} <= A.signature:
        violations += negation_violations(A)
    if A.bang is not None:
        violations += bang_violations(A)
    return ClassReport(not violations, tuple(violations))


def _binary_tables(A: FiniteAlgebra) -> tuple[Table, ...]:
    return (A.meet, A.join, A.mult, A.imp)


def refines(p: Sequence[int], q: Sequence[int]) -> bool:
    """True iff every p-block is inside a q-block (p <= q in the congruence order)."""
    seen: dict[int, int] = {}
    for x in range(len(p)):
        if p[x] in seen:
            if q[x] != seen[p[x]]:
                return False
        else:
            seen[p[x]] = q[x]
    return True


def is_congruence(A: FiniteAlgebra, labels: Sequence[int]) -> bool:
    """True iff the labelling's blocks are compatible with every operation."""
    n = A.size
    first: dict[int, int] = {}
    for x in range(n):
        lab = labels[x]
        if lab not in first:
            first[lab] = x
            continue
        r = first[lab]
        for t in _binary_tables(A):
            for z in range(n):
                if labels[t[x][z]] != labels[t[r][z]]:
                    return False
                if labels[t[z][x]] != labels[t[z][r]]:
                    return False
        if A.bang is not None and labels[A.bang[x]] != labels[A.bang[r]]:
            return False
    return True


def _congruence_closure(A: FiniteAlgebra, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    n = A.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
            queue.append((x, y))

    for x, y in pairs:
        union(x, y)
    tables = _binary_tables(A)
    while queue:
        # every merged pair must be propagated once, even if later unions
        # already joined the classes by another route
        x, y = queue.pop()
        for t in tables:
            for z in range(n):
                union(t[x][z], t[y][z])
                union(t[z][x], t[z][y])
        if A.bang is not None:
            union(A.bang[x], A.bang[y])
        if len({find(v) for v in range(n)}) == 1:
            break
    return _canonical([find(v) for v in range(n)])


def _join_partitions(A: FiniteAlgebra, p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    pairs = []
    for labels in (p, q):
        first: dict[int, int] = {}
        for x, lab in enumerate(labels):
            if lab in first:
                pairs.append((first[lab], x))
            else:
                first[lab] = x
    return _congruence_closure(A, pairs)


def congruence_set_reference(A: FiniteAlgebra) -> CongruenceSet:
    """Reference for ``girale.algebra.congruence_set``: principal congruences
    each closed on its own, then closed under joins that propagate again."""
    guard(A.size, "congruence computation")
    n = A.size
    found = {_canonical(range(n))}
    for a in range(n):
        for b in range(a + 1, n):
            found.add(_congruence_closure(A, [(a, b)]))
    worklist = sorted(found)
    while worklist:
        fresh = []
        current = sorted(found)
        for p in worklist:
            for q in current:
                j = _join_partitions(A, p, q)
                if j not in found:
                    found.add(j)
                    fresh.append(j)
        worklist = fresh
    return CongruenceSet(tuple(sorted(found)))


def is_fsi(congruences: CongruenceSet) -> bool:
    """Delta is meet-irreducible by definition: no two congruences above Delta
    meet in Delta (``CongruenceSet.is_fsi`` takes one meet of all of them)."""
    n = len(congruences.congruences[0])
    delta = _canonical(range(n))
    above = [p for p in congruences.congruences if p != delta]
    for p in above:
        for q in above:
            if _canonical((p[x], q[x]) for x in range(n)) == delta:
                return False
    return True


def validate_group(table: Sequence[Sequence[int]]) -> None:
    n = len(table)
    for i, row in enumerate(table):
        if len(row) != n:
            raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}.")
        for x in row:
            if not 0 <= x < n:
                raise ValueError(f"Cayley entry {x} out of range [0,{n - 1}].")
    identity = None
    for e in range(n):
        if all(table[e][x] == x == table[x][e] for x in range(n)):
            identity = e
            break
    if identity is None:
        raise ValueError("No identity element.")
    for a in range(n):
        invs = [b for b in range(n) if table[a][b] == identity]
        if len(invs) != 1:
            raise ValueError(f"Element {a} has {len(invs)} inverses.")
    for a in range(n):
        for b in range(a + 1, n):
            if table[a][b] != table[b][a]:
                raise ValueError(f"Not commutative at ({a},{b}).")
    for a in range(n):
        for b in range(n):
            ab = table[a][b]
            for c in range(n):
                if table[ab][c] != table[a][table[b][c]]:
                    raise ValueError(f"Not associative at ({a},{b},{c}).")


# --- homomorphisms: the two searches and preservation loops the shared hom
# engine of girale.algebra replaced, each leaf re-checked by these loops


def alg_hom_violations(hom: AlgHom) -> list[Violation]:
    """Failures to preserve the operations and constants of the common signature."""
    A, B, h = hom.source, hom.target, hom.mapping
    out = []
    if h[A.one] != B.one:
        out.append(Violation("hom-one", (A.one,)))
    for label in ("zero", "bot", "top"):
        a = getattr(A, label)
        b = getattr(B, label)
        if a is not None and b is not None and h[a] != b:
            out.append(Violation(f"hom-{label}", (a,)))
    for label in ("meet", "join", "mult", "imp"):
        tA = getattr(A, label)
        tB = getattr(B, label)
        for x in range(A.size):
            for y in range(A.size):
                if h[tA[x][y]] != tB[h[x]][h[y]]:
                    out.append(Violation(f"hom-{label}", (x, y)))
    if A.bang is not None and B.bang is not None:
        for x in range(A.size):
            if h[A.bang[x]] != B.bang[h[x]]:
                out.append(Violation("hom-bang", (x,)))
    return out


def group_hom_violations(hom: GroupHom) -> list[str]:
    out = []
    if hom.mapping[hom.source.identity] != hom.target.identity:
        out.append("identity not preserved")
    for a in range(hom.source.size):
        for b in range(hom.source.size):
            if hom.mapping[hom.source.mul(a, b)] != hom.target.mul(
                hom.mapping[a], hom.mapping[b]
            ):
                out.append(f"product not preserved at ({a},{b})")
    return out


def enumerate_homs(
    source: FiniteAlgebra,
    target: FiniteAlgebra,
    injective_only: bool = False,
) -> list[AlgHom]:
    """Every map preserving all operations and constants, by guided backtracking."""
    guard(max(source.size, target.size), "hom enumeration")
    if source.signature != target.signature:
        raise ValueError("Hom enumeration needs matching signatures.")
    n, m = source.size, target.size
    src_tables = _binary_tables(source)
    tgt_tables = _binary_tables(target)
    results: list[AlgHom] = []

    def close(mapping: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for x in range(n):
                if mapping[x] < 0:
                    continue
                if source.bang is not None:
                    bx = source.bang[x]
                    v = target.bang[mapping[x]]  # type: ignore[index]
                    if mapping[bx] < 0:
                        mapping[bx] = v
                        changed = True
                    elif mapping[bx] != v:
                        return False
                for y in range(n):
                    if mapping[y] < 0:
                        continue
                    for ts, tt in zip(src_tables, tgt_tables):
                        c = ts[x][y]
                        v = tt[mapping[x]][mapping[y]]
                        if mapping[c] < 0:
                            mapping[c] = v
                            changed = True
                        elif mapping[c] != v:
                            return False
        return True

    def injective_ok(mapping: list[int]) -> bool:
        assigned = [v for v in mapping if v >= 0]
        return len(set(assigned)) == len(assigned)

    def search(mapping: list[int]) -> None:
        work = list(mapping)
        if not close(work):
            return
        if injective_only and not injective_ok(work):
            return
        try:
            x = work.index(-1)
        except ValueError:
            hom = AlgHom(source, target, tuple(work))
            if not alg_hom_violations(hom):
                results.append(hom)
            return
        for v in range(m):
            if injective_only and v in work:
                continue
            child = list(work)
            child[x] = v
            search(child)

    seed = [-1] * n
    seed[source.one] = target.one
    for label in ("zero", "bot", "top"):
        a = getattr(source, label)
        b = getattr(target, label)
        if a is not None:
            seed[a] = b
    search(seed)
    return results


def group_homs(
    source: FiniteGroup, target: FiniteGroup, injective_only: bool = False
) -> list[GroupHom]:
    """All homomorphisms source -> target, by backtracking with product closure."""
    n, m = source.size, target.size
    orders_src = [order_of(source, a) for a in range(n)]
    orders_tgt = [order_of(target, b) for b in range(m)]
    results: list[GroupHom] = []

    def close(mapping: list[int]) -> bool:
        changed = True
        while changed:
            changed = False
            for a in range(n):
                if mapping[a] < 0:
                    continue
                for b in range(n):
                    if mapping[b] < 0:
                        continue
                    c = source.mul(a, b)
                    v = target.mul(mapping[a], mapping[b])
                    if mapping[c] < 0:
                        mapping[c] = v
                        changed = True
                    elif mapping[c] != v:
                        return False
        return True

    def search(mapping: list[int]) -> None:
        work = list(mapping)
        if not close(work):
            return
        if injective_only:
            assigned = [v for v in work if v >= 0]
            if len(set(assigned)) != len(assigned):
                return
        try:
            x = work.index(-1)
        except ValueError:
            hom = GroupHom(source, target, tuple(work))
            if not group_hom_violations(hom):
                results.append(hom)
            return
        for v in range(m):
            if injective_only and v in work:
                continue
            if orders_tgt[v] > orders_src[x] or orders_src[x] % orders_tgt[v]:
                continue
            if injective_only and orders_tgt[v] != orders_src[x]:
                continue
            child = list(work)
            child[x] = v
            search(child)

    seed = [-1] * n
    seed[source.identity] = target.identity
    search(seed)
    return results


# --- group layer -----------------------------------------------------------


def power(group: FiniteGroup, a: int, k: int) -> int:
    """a^k by repeated squaring; k >= 0."""
    result = group.identity
    base = a
    while k > 0:
        if k & 1:
            result = group.mul(result, base)
        base = group.mul(base, base)
        k >>= 1
    return result


def order_of(group: FiniteGroup, a: int) -> int:
    k = 1
    x = a
    while x != group.identity:
        x = group.mul(x, a)
        k += 1
    return k


def _prime_factorization(n: int) -> dict[int, int]:
    factors: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def invariant_factors_of(group: FiniteGroup) -> tuple[int, ...]:
    """Canonical invariant factors d1 | d2 | ... (ascending); () for the trivial group.

    Recovered from the counts of elements killed by successive prime powers,
    which determine the type of each primary component.
    """
    n = group.size
    if n == 1:
        return ()
    per_prime: dict[int, list[int]] = {}
    for p in _prime_factorization(n):
        exps = [0]
        i = 1
        while True:
            c = sum(1 for g in range(n) if power(group, g, p**i) == group.identity)
            e = 0
            cc = c
            while cc > 1:
                if cc % p:
                    raise ValueError("Torsion counts are not prime powers; not a group?")
                cc //= p
                e += 1
            if e == exps[-1]:
                break
            exps.append(e)
            i += 1
        conj = [exps[i] - exps[i - 1] for i in range(1, len(exps))]
        parts = [sum(1 for c_ in conj if c_ >= j) for j in range(1, (conj[0] if conj else 0) + 1)]
        per_prime[p] = sorted(parts, reverse=True)
    width = max(len(parts) for parts in per_prime.values())
    factors_desc = []
    for j in range(width):
        d = 1
        for p, parts in per_prime.items():
            if j < len(parts):
                d *= p ** parts[j]
        factors_desc.append(d)
    return tuple(sorted(factors_desc))


def check_sigma(group: FiniteGroup, primes: PrimeSet) -> tuple[bool, int | None, int | None]:
    """(passed, witness element, witness prime): the first g != 1 with g^p = 1."""
    for p in primes:
        for g in range(group.size):
            if g != group.identity and power(group, g, p) == group.identity:
                return False, g, p
    return True, None, None


def make_group(invariant_factors: Sequence[int]) -> tuple[list[list[int]], list[str]]:
    """Table and names of the direct product of cyclic groups of the given orders."""
    factors = [int(d) for d in invariant_factors]
    n = 1
    for d in factors:
        n *= d

    nontrivial = [d for d in factors if d > 1]

    def decode(idx: int) -> tuple[int, ...]:
        parts = []
        for d in reversed(nontrivial):
            parts.append(idx % d)
            idx //= d
        return tuple(reversed(parts))

    def encode(parts: Sequence[int]) -> int:
        idx = 0
        for d, r in zip(nontrivial, parts):
            idx = idx * d + r
        return idx

    table = [
        [
            encode([(x + y) % d for d, x, y in zip(nontrivial, decode(i), decode(j))])
            for j in range(n)
        ]
        for i in range(n)
    ]
    if len(nontrivial) <= 1:
        names = ["1"] + [f"a{k}" if k > 1 else "a" for k in range(1, n)]
    else:
        names = ["(" + ",".join(str(r) for r in decode(i)) + ")" for i in range(n)]
    return table, names


def pushout(
    f: GroupHom, g: GroupHom
) -> tuple[list[list[int]], list[str], tuple[int, ...], tuple[int, ...]]:
    """Quotient table, names and the two legs of (B x C)/N, N closed under products."""
    left, right = f.target, g.target
    n_left, n_right = left.size, right.size

    def enc(b: int, c: int) -> int:
        return b * n_right + c

    def pmul(x: int, y: int) -> int:
        bx, cx = divmod(x, n_right)
        by, cy = divmod(y, n_right)
        return enc(left.mul(bx, by), right.mul(cx, cy))

    gens = [
        enc(f.mapping[a], right.inv(g.mapping[a])) for a in range(f.source.size)
    ]
    kernel = {enc(left.identity, right.identity)}
    frontier = list(gens)
    kernel.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(kernel):
            z = pmul(x, y)
            if z not in kernel:
                kernel.add(z)
                frontier.append(z)

    coset_index: dict[int, int] = {}
    reps: list[int] = []
    for x in range(n_left * n_right):
        if x in coset_index:
            continue
        members = sorted(pmul(x, k) for k in kernel)
        idx = len(reps)
        for m in members:
            coset_index[m] = idx
        reps.append(members[0])

    size = len(reps)
    table = [
        [coset_index[pmul(reps[i], reps[j])] for j in range(size)] for i in range(size)
    ]
    into_left = tuple(coset_index[enc(b, right.identity)] for b in range(n_left))
    into_right = tuple(coset_index[enc(left.identity, c)] for c in range(n_right))
    return table, [f"c{i}" for i in range(size)], into_left, into_right


# --- fixture builders: products and negative cones of test algebras --------


def product_table(tA: Table, tB: Table) -> Table:
    """``direct_product``'s componentwise table of two factors."""
    nA, nB = len(tA), len(tB)
    rows = []
    for a1 in range(nA):
        for b1 in range(nB):
            row = []
            for a2 in range(nA):
                ta = tA[a1][a2]
                for b2 in range(nB):
                    row.append(ta * nB + tB[b1][b2])
            rows.append(tuple(row))
    return tuple(rows)


def direct_product(A: FiniteAlgebra, B: FiniteAlgebra) -> FiniteAlgebra:
    """Componentwise product; optional constants kept when both factors have them."""
    nA, nB = A.size, B.size

    def const(cA: int | None, cB: int | None) -> int | None:
        if cA is None or cB is None:
            return None
        return cA * nB + cB

    bang = None
    if A.bang is not None and B.bang is not None:
        bang = tuple(
            A.bang[a] * nB + B.bang[b] for a in range(nA) for b in range(nB)
        )
    names = tuple(
        f"({A.name_of(a)}|{B.name_of(b)})" for a in range(nA) for b in range(nB)
    )
    return FiniteAlgebra(
        size=nA * nB,
        meet=product_table(A.meet, B.meet),
        join=product_table(A.join, B.join),
        mult=product_table(A.mult, B.mult),
        imp=product_table(A.imp, B.imp),
        one=A.one * nB + B.one,
        zero=const(A.zero, B.zero),
        bot=const(A.bot, B.bot),
        top=const(A.top, B.top),
        bang=bang,
        names=names,
    )


def negative_cone(A: FiniteAlgebra) -> FiniteAlgebra:
    """Subalgebra of elements <= 1 with the truncated residual (a -> b) /\\ 1."""
    keep = [a for a in range(A.size) if A.leq(a, A.one)]
    index = {a: i for i, a in enumerate(keep)}

    def restrict(table: Table) -> Table:
        for a in keep:
            for b in keep:
                if table[a][b] not in index:
                    raise ValueError("Negative elements are not closed under the tables.")
        return tuple(tuple(index[table[a][b]] for b in keep) for a in keep)

    imp = tuple(
        tuple(index[A.meet[A.imp[a][b]][A.one]] for b in keep) for a in keep
    )
    names = tuple(A.name_of(a) for a in keep) if A.names is not None else None
    return FiniteAlgebra(
        size=len(keep),
        meet=restrict(A.meet),
        join=restrict(A.join),
        mult=restrict(A.mult),
        imp=imp,
        one=index[A.one],
        names=names,
    )


def _chain(n: int, mult, imp) -> FiniteAlgebra:
    """The n-element chain 0 < 1 < ... < n - 1 with unit n - 1 and the given
    product and residual of two elements."""
    rows = range(n)
    return FiniteAlgebra(
        size=n,
        meet=tuple(tuple(min(a, b) for b in rows) for a in rows),
        join=tuple(tuple(max(a, b) for b in rows) for a in rows),
        mult=tuple(tuple(mult(a, b) for b in rows) for a in rows),
        imp=tuple(tuple(imp(a, b) for b in rows) for a in rows),
        one=n - 1,
    )


def godel_chain(n: int) -> FiniteAlgebra:
    """Product min, a -> b the top when a <= b and b otherwise: every up-set
    of the chain is the unit class of a congruence, so it has n of them."""
    return _chain(n, min, lambda a, b: n - 1 if a <= b else b)


def lukasiewicz_chain(n: int) -> FiniteAlgebra:
    """Truncated sum, a * b = max(0, a + b - top) and a -> b = min(top, top - a + b):
    a simple algebra, whose congruences are Delta and the full relation."""
    top = n - 1
    return _chain(n, lambda a, b: max(0, a + b - top), lambda a, b: min(top, top - a + b))


# --- sequents ---------------------------------------------------------------


def structural_key(f: Formula):
    """Total order key: variables, constants, then and < or < mul < imp < bang."""
    if isinstance(f, Var):
        return (0, f.name)
    if isinstance(f, Const):
        return (1, CONSTS.index(f.symbol))
    if isinstance(f, BinOp):
        return (2, OPS.index(f.op), structural_key(f.left), structural_key(f.right))
    return (3, structural_key(f.child))


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


def prove_sequent(
    seq: Sequent, bound: int, with_exchange: bool = True
) -> SequentProof | None:
    """Backward cut-free search up to the given proof depth; None means unknown."""
    if bound < 1:
        raise ValueError("bound must be at least 1.")
    _check_fragment(seq)
    expand = _expand_exchange if with_exchange else _expand_sequence
    memo: dict[Goal, tuple[str, object]] = {}

    def search(ant: tuple[Formula, ...], succ: Formula | None, budget: int) -> SequentProof | None:
        key: Goal = (ant, succ)
        hit = memo.get(key)
        if hit is not None:
            status, value = hit
            if status == "proved":
                proof, proof_depth = value  # type: ignore[misc]
                if proof_depth <= budget:
                    return proof
            elif value >= budget:  # failed at this depth or deeper already
                return None
        if budget < 1:
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
                return proof
        # every backward rule shrinks the sequent, so key recurs in no subtree,
        # and a failure memoised at budget or deeper has returned above
        memo[key] = ("failed", budget)
        return None

    ant = tuple(sorted(seq.antecedent, key=structural_key)) if with_exchange else seq.antecedent
    return search(ant, seq.succedent, bound)


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
        left_first = left & Counter(first.sequent.antecedent)
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
        left_sigma = remaining & Counter(first.sequent.antecedent)
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


# --- group expansions: build_R by one function per operation, and membership
# by a bound search, its own copy of the sentences and a separate split


def build_R(group: FiniteGroup, sig: frozenset[str]) -> FiniteAlgebra:
    """The expansion of the group with bot at n and top at n + 1, cell by cell."""
    n = group.size
    bot = n
    top = n + 1
    size = n + 2

    def meet_of(a: int, b: int) -> int:
        if a == b:
            return a
        if a == bot or b == bot:
            return bot
        if a == top:
            return b
        if b == top:
            return a
        return bot

    def join_of(a: int, b: int) -> int:
        if a == b:
            return a
        if a == top or b == top:
            return top
        if a == bot:
            return b
        if b == bot:
            return a
        return top

    def mult_of(a: int, b: int) -> int:
        if a == bot or b == bot:
            return bot
        if a == top or b == top:
            return top
        return group.mul(a, b)

    meet = tuple(tuple(meet_of(a, b) for b in range(size)) for a in range(size))
    join = tuple(tuple(join_of(a, b) for b in range(size)) for a in range(size))
    mult = tuple(tuple(mult_of(a, b) for b in range(size)) for a in range(size))
    imp = residuals_from_mult(meet, join, mult)
    one = group.identity
    names = tuple(group.element_names) + ("bot", "top")
    return FiniteAlgebra(
        size=size,
        meet=meet,
        join=join,
        mult=mult,
        imp=imp,
        one=one,
        zero=one if "0" in sig else None,
        bot=bot if "bot" in sig else None,
        top=top if "top" in sig else None,
        bang=tuple(meet[a][one] for a in range(size)) if "bang" in sig else None,
        names=names,
    )


def build_R_reference(group: FiniteGroup, sig: frozenset[str]) -> FiniteAlgebra:
    """The expansion written row by row from the layout and residuated afresh
    for each signature, with no table shared between signatures."""
    n = group.size
    bot = n
    top = n + 1
    size = n + 2
    every = tuple(range(size))
    meet = tuple(tuple(a if b in (a, top) else bot for b in every) for a in range(n))
    join = tuple(tuple(a if b in (a, bot) else top for b in every) for a in range(n))
    mult = tuple(row + (bot, top) for row in group.table)
    meet += ((bot,) * size, every)
    join += (every, (top,) * size)
    mult += ((bot,) * size, (top,) * n + (bot, top))
    imp = residuals_from_mult(meet, join, mult)
    one = group.identity
    names = tuple(group.element_names) + ("bot", "top")
    return FiniteAlgebra(
        size=size,
        meet=meet,
        join=join,
        mult=mult,
        imp=imp,
        one=one,
        zero=one if "0" in sig else None,
        bot=bot if "bot" in sig else None,
        top=top if "top" in sig else None,
        bang=tuple(meet[a][one] for a in range(size)) if "bang" in sig else None,
        names=names,
    )


def split_R(A: FiniteAlgebra) -> tuple[int, int, FiniteGroup, tuple[int, ...]]:
    """(bot, top, group, interior) by scanning for the unique least and greatest
    elements and checking that the interior is closed under the product."""
    n = A.size
    least = [a for a in range(n) if all(A.leq(a, b) for b in range(n))]
    greatest = [a for a in range(n) if all(A.leq(b, a) for b in range(n))]
    if len(least) != 1 or len(greatest) != 1:
        raise ValueError("Algebra has no unique bounds; not an expansion of a group.")
    bot, top = least[0], greatest[0]
    if bot == top:
        raise ValueError("Degenerate order; not an expansion of a group.")
    interior = [a for a in range(n) if a not in (bot, top)]
    if A.one not in interior:
        raise ValueError("Unit sits on a bound; not an expansion of a group.")
    index = {a: i for i, a in enumerate(interior)}
    for a in interior:
        for b in interior:
            if A.mult[a][b] not in index:
                raise ValueError("Interior is not closed under the product.")
    table = [[index[A.mult[a][b]] for b in interior] for a in interior]
    names = [A.name_of(a) for a in interior]
    return bot, top, group_from_table(table, names), tuple(interior)


def member_K(A: FiniteAlgebra, primes: PrimeSet) -> tuple:
    """(member, trivial, failed, witness, group, canon mapping) of membership in
    the class generated over the primes, in the signature of A; raises
    ValueError when A fails its laws."""
    laws = check_signature_laws(A)
    if not laws.passed:
        raise ValueError(f"Algebra fails its class laws: {laws.summary()}.")
    if A.size == 1:
        return True, True, None, (), None, None

    bot = 0
    top = 0
    for a in range(A.size):
        bot = A.meet[bot][a]
        top = A.join[top][a]
    one = A.one
    if one in (bot, top):
        return False, False, "unit-is-a-bound", (one,), None, None

    interior = [a for a in range(A.size) if a not in (bot, top)]
    for x in interior:
        if A.mult[x][A.imp[x][one]] != one:
            return False, False, "sentence-1", (x,), None, None
    for x in range(A.size):
        for y in range(A.size):
            if x == y:
                continue
            if x != bot and y != bot and A.join[x][y] != top:
                return False, False, "sentence-2", (x, y), None, None
            if x != top and y != top and A.meet[x][y] != bot:
                return False, False, "sentence-3", (x, y), None, None
    for x in range(A.size):
        if x != bot and A.mult[x][top] != top:
            return False, False, "sentence-4", (x,), None, None

    try:
        group = split_R(A)[2]
    except ValueError:
        return False, False, "group-laws", (), None, None

    passed, element, prime = check_sigma(group, primes)
    if not passed:
        return False, False, f"sigma-{prime}", (interior[element],), None, None

    rebuilt = build_R(group, A.signature)
    canon_map = [0] * A.size
    for g, a in enumerate(interior):
        canon_map[a] = g
    canon_map[bot] = group.size
    canon_map[top] = group.size + 1
    canon = AlgHom(A, rebuilt, tuple(canon_map))
    if alg_hom_violations(canon) or len(set(canon_map)) != A.size:
        return False, False, "structure-mismatch", (), None, None
    return True, False, None, (), group, tuple(canon_map)


def _constant_index(A: FiniteAlgebra, symbol: str) -> int:
    if symbol == "1":
        return A.one
    value = {"0": A.zero, "bot": A.bot, "top": A.top}[symbol]
    if value is None:
        raise ValueError(f"Constant {symbol!r} is not in the algebra signature.")
    return value


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


def consequence(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    conclusion: Formula,
) -> ConsequenceResult:
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


def deduction_check(
    algebras: Sequence[FiniteAlgebra],
    premises: Sequence[Formula],
    phi: Formula,
    psi: Formula,
) -> DeductionReport:
    for A in algebras:
        if A.bang is None:
            raise ValueError("deduction_check needs the guard in every signature.")
    with_premise = consequence(algebras, list(premises) + [phi], psi)
    guarded_arrow = consequence(algebras, premises, BinOp("imp", Bang(phi), psi))
    guarded_both = consequence(algebras, premises, BinOp("imp", Bang(phi), Bang(psi)))
    return DeductionReport(with_premise, guarded_arrow, guarded_both)


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

    # every batch now: an oversized grid raises before the first candidate
    batches = list(_Evaluator(algebras, _atoms(shared, signature)).batches())

    def vector_key(delta: Formula) -> bytes:  # no value is kept: no formula is shared
        return b"|".join(batch.value(delta).tobytes() for batch in batches)

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
                return InterpolationResult("found", mode, delta, certificate,
                                           candidates_tried=tried)
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


# --- formula syntax: the descent parser with one method per binding level ---


_SUBSTRUCTURAL_TOKENS = [
    ("IMP", r"->"),
    ("OR", r"\\/"),
    ("AND", r"/\\"),
    ("MUL", r"\*"),
    ("BANG", r"!"),
    ("NEG", r"~"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9']*"),
    ("NUM", r"[0-9]+"),
]

_GIRARD_TOKENS = [
    ("PERP", r"\^_\|_"),
    ("ZERO", r"_\|_"),
    ("JOIN", r"\(\+\)"),
    ("MUL", r"\(x\)"),
    ("IMP", r"-o"),
    ("AND", r"&"),
    ("BANG", r"!"),
    ("NEG", r"~"),
    ("LP", r"\("),
    ("RP", r"\)"),
    ("BOTG", r"0g"),
    ("IDENT", r"[A-Za-z_][A-Za-z_0-9']*"),
    ("NUM", r"[0-9]+"),
]

_LEXERS = {
    notation: re.compile("|".join(f"(?P<{kind}>{pat})" for kind, pat in spec))
    for notation, spec in (("substructural", _SUBSTRUCTURAL_TOKENS), ("girard", _GIRARD_TOKENS))
}


def _tokenize(text: str, notation: str) -> list[tuple[str, str, int]]:
    """The (kind, text, position) of each token, then an EOF token."""
    lexer, tokens, pos, n = _LEXERS[notation], [], 0, len(text)
    while pos < n:
        if text[pos].isspace():
            pos += 1
            continue
        m = lexer.match(text, pos)
        if m is None:
            raise ParseError(f"Unknown symbol {text[pos]!r} for the {notation} notation", pos)
        tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, notation: str) -> None:
        self.notation = notation
        self.tokens = _tokenize(text, notation)
        self.index = 0
        self.parens = 0

    def peek(self) -> str:  # the next token's kind
        return self.tokens[self.index][0]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str) -> None:
        found, text, pos = self.advance()
        if found != kind:
            raise ParseError(f"Expected {kind}, found {text!r}", pos)

    def parse_form(self) -> Formula:
        operands = [self.parse_or()]
        while self.peek() == "IMP":
            self.advance()
            operands.append(self.parse_or())
        node = operands.pop()
        while operands:
            node = BinOp("imp", operands.pop(), node)
        return node

    def parse_or(self) -> Formula:
        node = self.parse_and()
        while self.peek() in ("OR", "JOIN"):
            self.advance()
            node = BinOp("or", node, self.parse_and())
        return node

    def parse_and(self) -> Formula:
        node = self.parse_mul()
        while self.peek() == "AND":
            self.advance()
            node = BinOp("and", node, self.parse_mul())
        return node

    def parse_mul(self) -> Formula:
        node = self.parse_unary()
        while self.peek() == "MUL":
            self.advance()
            node = BinOp("mul", node, self.parse_unary())
        return node

    def parse_unary(self) -> Formula:
        if self.peek() not in ("BANG", "NEG"):
            return self.parse_postfix()
        prefixes = []
        while self.peek() in ("BANG", "NEG"):
            prefixes.append(self.advance()[0])
        node = self.parse_postfix()
        for kind in reversed(prefixes):
            node = Bang(node) if kind == "BANG" else negation(node)
        return node

    def parse_postfix(self) -> Formula:
        node = self.parse_atom()
        while self.peek() == "PERP":
            self.advance()
            node = negation(node)
        return node

    def parse_atom(self) -> Formula:
        kind, text, pos = self.advance()
        if kind == "LP":
            self.parens += 1
            if self.parens > MAX_NESTING:
                raise ParseError(f"Parentheses nest deeper than {MAX_NESTING}", pos)
            node = self.parse_form()
            self.expect("RP")
            self.parens -= 1
            return node
        if kind == "NUM":  # girard's 0 is spelled _|_
            if text == "1" or text == "0" and self.notation == "substructural":
                return ONE if text == "1" else ZERO
            raise ParseError(f"Unknown symbol {text!r} for the {self.notation} notation", pos)
        if kind == "ZERO":
            return ZERO
        if kind == "BOTG":
            return BOT
        if kind == "IDENT":  # girard's bot is spelled 0g
            if text == "top" or text == "bot" and self.notation == "substructural":
                return TOP if text == "top" else BOT
            if text in ("bot", "top"):
                raise ParseError(f"Reserved word {text!r}", pos)
            return Var(text)
        raise ParseError(f"Unexpected token {text!r}", pos)


def parse(text: str, notation: str = "substructural") -> Formula:
    """The formula, or the ParseError, that ``girale.formula.parse`` must give."""
    if notation not in NOTATIONS:
        raise ValueError(f"Unknown notation {notation!r}; expected one of {NOTATIONS}.")
    if not text.strip():
        raise ParseError("Empty formula", 0)
    parser = _Parser(text, notation)
    node = parser.parse_form()
    kind, text, pos = parser.advance()
    if kind != "EOF":
        raise ParseError(f"Trailing input {text!r}", pos)
    stack = [(node, 0)] if len(parser.tokens) > MAX_NESTING else []
    while stack:
        sub, level = stack.pop()
        if level > MAX_NESTING:
            raise ParseError(f"Connectives nest deeper than {MAX_NESTING}", 0)
        if isinstance(sub, Bang):
            stack.append((sub.child, level + 1))
        elif isinstance(sub, BinOp):
            stack.extend(((sub.left, level + 1), (sub.right, level + 1)))
    return node


_SUB_SURFACE = {"and": " /\\ ", "or": " \\/ ", "mul": " * ", "imp": " -> "}
_GIR_SURFACE = {"and": " & ", "or": " (+) ", "mul": " (x) ", "imp": " -o "}
_SUB_CONSTS = {"1": "1", "0": "0", "bot": "bot", "top": "top"}
_GIR_CONSTS = {"1": "1", "0": "_|_", "bot": "0g", "top": "top"}

_RENDER_LEVEL = {"imp": 0, "or": 1, "and": 2, "mul": 3}


def _render_level(f: Formula) -> int:
    if isinstance(f, BinOp):
        return _RENDER_LEVEL[f.op]
    if isinstance(f, Bang):
        return 4
    return 5


def render(f: Formula, notation: str = "substructural") -> str:
    """The text that ``girale.formula.render`` must give."""
    surface = _SUB_SURFACE if notation == "substructural" else _GIR_SURFACE
    consts = _SUB_CONSTS if notation == "substructural" else _GIR_CONSTS

    def go(node: Formula, min_level: int) -> str:
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Const):
            return consts[node.symbol]
        if isinstance(node, Bang):
            text = "!" + go(node.child, 4)
        else:
            level = _RENDER_LEVEL[node.op]
            if node.op == "imp":
                text = go(node.left, 1) + surface["imp"] + go(node.right, 0)
            else:
                text = go(node.left, level) + surface[node.op] + go(node.right, level + 1)
        if _render_level(node) < min_level:
            return "( " + text + " )"
        return text

    return go(f, 0)


def formula_from_dict(data: dict) -> Formula:
    """The inverse of ``girale.formula.formula_to_dict``."""
    if "var" in data:
        return Var(data["var"])
    if "const" in data:
        return Const(data["const"])
    if "bang" in data:
        return Bang(formula_from_dict(data["bang"]))
    return BinOp(
        data["op"], formula_from_dict(data["left"]), formula_from_dict(data["right"])
    )
