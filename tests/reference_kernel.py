"""Scalar reference for the vectorized table kernel (test-only oracle).

These are plain nested loops over the tables, one function per law family,
in the report order of ``girale.algebra``: each law's witnesses in
lexicographic order, and where a loop tests two laws per witness, both are
reported at that witness.  The tests require the kernel to equal them
exactly: the same violations in the same order, the same ``NotResiduated``
arguments and the same first group-table error.
"""

from __future__ import annotations

from typing import Sequence

from girale.algebra import ClassReport, FiniteAlgebra, NotResiduated, Table, Violation


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
