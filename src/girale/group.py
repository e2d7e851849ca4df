"""Finite abelian groups as Cayley tables.

Elements are indices 0..n-1.  Provides construction from invariant factors,
the torsion quasi-equation check ("no nontrivial p-th roots of 1"), subgroup
enumeration, essential-embedding tests, and pushouts along injective
homomorphisms, which serve as the finite amalgamation oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .algebra import (
    Violation,
    _Hom,
    _Ops,
    _associative,
    _index_dtype,
    _is_list_of,
    _preservation_violations,
    _row_blocks,
    _search_homs,
)
from .capacity import CapacityError, guard


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class PrimeSet:
    """A finite set of primes; the finite stand-in for an arbitrary prime set."""

    primes: frozenset[int]

    def __post_init__(self) -> None:
        bad = sorted(p for p in self.primes if not is_prime(p))
        if bad:
            raise ValueError(f"Not prime: {bad}.")

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(frozenset(primes))

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self.primes))

    def __contains__(self, p: int) -> bool:
        return p in self.primes

    def __len__(self) -> int:
        return len(self.primes)


@dataclass(frozen=True)
class FiniteGroup:
    """Abelian group given by its Cayley table; the constructor checks no law."""

    size: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int, ...]
    element_names: tuple[str, ...]
    invariant_factors: tuple[int, ...] | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.invariant_factors is None:
            object.__setattr__(self, "invariant_factors", invariant_factors_of(self))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def name_of(self, a: int) -> str:
        return self.element_names[a]

    def describe(self) -> str:
        if not self.invariant_factors:
            return "Z1"
        return "x".join(f"Z{d}" for d in self.invariant_factors)


def _validate_group(table: Sequence[Sequence[int]]) -> None:
    """Check shape, range, identity, inverses, commutativity and associativity;
    raise at the first failure (in that order, then lexicographically)."""
    n = len(table)
    t = np.asarray(table) if all(len(row) == n for row in table) else None
    if t is None or not ((t >= 0) & (t < n)).all():
        for i, row in enumerate(table):
            if len(row) != n:
                raise ValueError(f"Cayley row {i} has length {len(row)}, expected {n}.")
            for x in row:
                if not 0 <= x < n:
                    raise ValueError(f"Cayley entry {x} out of range [0,{n - 1}].")
    if n and t.dtype.kind not in "biu":
        raise TypeError("Cayley entries must be integers.")
    t = t.reshape(n, n).astype(_index_dtype(n))
    index = np.arange(n, dtype=t.dtype)
    is_identity = (t == index).all(axis=1) & (t == index[:, None]).all(axis=0)
    if not is_identity.any():
        raise ValueError("No identity element.")
    inverses = (t == np.argmax(is_identity)).sum(axis=1)
    if (inverses != 1).any():
        a = int(np.argmax(inverses != 1))
        raise ValueError(f"Element {a} has {inverses[a]} inverses.")
    unequal = np.triu(t != t.T, 1)
    if unequal.any():
        raise ValueError("Not commutative at ({},{}).".format(*np.argwhere(unequal)[0].tolist()))
    for rows in _row_blocks(n):
        unequal = _associative(t, rows)
        if unequal.any():
            a, b, c = np.argwhere(unequal)[0].tolist()
            raise ValueError(f"Not associative at ({rows.start + a},{b},{c}).")


def _trusted_group(table: Sequence[Sequence[int]], names: Sequence[str]) -> FiniteGroup:
    """FiniteGroup on a table that is an abelian group by construction; not checked."""
    rows = tuple(tuple(row) for row in table)
    identity = rows.index(tuple(range(len(rows))))  # the row that is the identity map
    inverse = tuple(row.index(identity) for row in rows)
    return FiniteGroup(len(rows), rows, identity, inverse, tuple(names))


def group_from_table(
    table: Sequence[Sequence[int]],
    element_names: Sequence[str] | None = None,
    max_size: int | None = None,
) -> FiniteGroup:
    """Validate a Cayley table from outside and wrap it as a group."""
    guard(len(table), "group", max_size)
    _validate_group(table)
    n = len(table)
    if element_names is None:
        element_names = [f"g{i}" for i in range(n)]
    elif len(element_names) != n:
        raise ValueError("element_names length does not match group size.")
    return _trusted_group(table, element_names)


def make_group(
    invariant_factors: Sequence[int], max_size: int | None = None
) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders (a group by construction)."""
    factors = [int(d) for d in invariant_factors]
    if not factors or any(d < 1 for d in factors):
        raise ValueError(f"Factors must be integers >= 1, got {invariant_factors}.")
    n = 1
    for d in factors:
        n *= d
    guard(n, "group", max_size)

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
    return _trusted_group(table, names)


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


@dataclass(frozen=True)
class SigmaResult:
    """Outcome of the torsion quasi-equation check over a prime set."""

    passed: bool
    witness_element: int | None = None
    witness_prime: int | None = None


def check_sigma(group: FiniteGroup, primes: PrimeSet) -> SigmaResult:
    """Pass iff g^p = 1 forces g = 1 for every p in the set; witness otherwise."""
    for p in primes:
        for g in range(group.size):
            if g != group.identity and power(group, g, p) == group.identity:
                return SigmaResult(False, g, p)
    return SigmaResult(True)


@dataclass(frozen=True)
class GroupHom(_Hom):
    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def violations(self) -> list[Violation]:
        """Failures to preserve the identity (``hom-identity``) or the product (``hom-mult``)."""
        return _preservation_violations(self.mapping, _group_ops(self.source, self.target))


def _group_ops(source: FiniteGroup, target: FiniteGroup) -> _Ops:
    return _Ops(
        (("identity", source.identity, target.identity),),
        (("mult", source.table, target.table),),
    )


def identity_hom(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, tuple(range(group.size)))


def subgroup_closure(group: FiniteGroup, generators: Iterable[int]) -> frozenset[int]:
    """Smallest subgroup containing the generators (closure under the product)."""
    closed = {group.identity}
    frontier = [g for g in generators]
    closed.update(frontier)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            for z in (group.mul(x, y), group.mul(y, x)):
                if z not in closed:
                    closed.add(z)
                    frontier.append(z)
    return frozenset(closed)


def subgroups(group: FiniteGroup) -> list[frozenset[int]]:
    """All subgroups, via closures of generated sets; exponential in bad cases."""
    trivial = frozenset({group.identity})
    found = {trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        for g in range(group.size):
            if g in current:
                continue
            bigger = subgroup_closure(group, current | {g})
            if bigger not in found:
                found.add(bigger)
                queue.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_essential(embedding: GroupHom) -> bool:
    """True iff the image meets every nontrivial subgroup of the target nontrivially."""
    if not embedding.is_injective():
        raise ValueError("is_essential requires an injective homomorphism.")
    if embedding.violations():
        raise ValueError("is_essential requires a valid homomorphism.")
    target = embedding.target
    image = set(embedding.mapping)
    for sub in subgroups(target):
        if len(sub) == 1:
            continue
        if all(x == target.identity for x in image & sub):
            return False
    return True


@dataclass(frozen=True)
class Pushout:
    group: FiniteGroup
    into_left: GroupHom  # from the target of the first leg
    into_right: GroupHom  # from the target of the second leg


def pushout(f: GroupHom, g: GroupHom, max_size: int | None = None) -> Pushout:
    """Pushout (B x C)/N of an injective span B <- A -> C of abelian groups.

    N is generated by the pairs (f(a), g(a)^-1).  The legs are checked; the
    quotient and the legs into it are a pushout by construction and are not.
    """
    if f.source != g.source:
        raise ValueError("Pushout legs must share their source.")
    if not f.is_injective() or not g.is_injective():
        raise ValueError("Pushout requires injective legs.")
    if f.violations() or g.violations():
        raise ValueError("Pushout requires valid homomorphisms.")
    left, right = f.target, g.target
    n_left, n_right = left.size, right.size
    from .capacity import max_size as _cap

    bound = _cap() if max_size is None else max_size
    if n_left * n_right > bound * bound:
        raise CapacityError(
            f"Pushout intermediate of size {n_left * n_right} exceeds {bound * bound}."
        )

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
    guard(size, "pushout", max_size)
    table = [
        [coset_index[pmul(reps[i], reps[j])] for j in range(size)] for i in range(size)
    ]
    quotient = _trusted_group(table, [f"c{i}" for i in range(size)])

    into_left = GroupHom(
        left, quotient, tuple(coset_index[enc(b, right.identity)] for b in range(n_left))
    )
    into_right = GroupHom(
        right, quotient, tuple(coset_index[enc(left.identity, c)] for c in range(n_right))
    )
    return Pushout(quotient, into_left, into_right)


def group_homs(
    source: FiniteGroup, target: FiniteGroup, injective_only: bool = False
) -> list[GroupHom]:
    """All homomorphisms source -> target, by backtracking with product closure.

    A free choice for a sends it to an element whose order divides a's, or,
    for embeddings, equals it.
    """
    orders_tgt = [order_of(target, b) for b in range(target.size)]
    allowed = []
    for a in range(source.size):
        k = order_of(source, a)
        allowed.append(
            [v for v, d in enumerate(orders_tgt) if (d == k if injective_only else k % d == 0)]
        )
    maps = _search_homs(_group_ops(source, target), allowed, injective_only)
    return [GroupHom(source, target, h) for h in maps]


def abelian_group_catalog(max_order: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains of every abelian group of order <= max_order.

    One chain per isomorphism class, ascending with each factor dividing the
    next; the empty chain is the trivial group.
    """
    out: list[tuple[int, ...]] = [()]

    def extend(chain: tuple[int, ...], product: int) -> None:
        last = chain[-1] if chain else 1
        d = last if chain else 2
        while product * d <= max_order:
            if d % last == 0:
                grown = chain + (d,)
                out.append(grown)
                extend(grown, product * d)
            d += 1

    extend((), 1)
    return sorted(out, key=lambda c: (_chain_order(c), c))


def _chain_order(chain: tuple[int, ...]) -> int:
    n = 1
    for d in chain:
        n *= d
    return n


def group_to_json(group: FiniteGroup) -> dict:
    return {
        "size": group.size,
        "table": [list(row) for row in group.table],
        "identity": group.identity,
        "names": list(group.element_names),
        "invariant_factors": list(group.invariant_factors or ()),
    }


def group_from_json(data: dict, max_size: int | None = None) -> FiniteGroup:
    """Load a group object; shape and types are checked here, raising ValueError."""
    if not isinstance(data, dict):
        raise ValueError("Group JSON must be an object.")
    if "invariant_factors" in data and "table" not in data:
        if not _is_list_of(data["invariant_factors"], int):
            raise ValueError("Group JSON field 'invariant_factors' must list integers.")
        return make_group(data["invariant_factors"], max_size=max_size)
    if "table" in data:
        table, names = data["table"], data.get("names")
        if not (_is_list_of(table, list) and all(_is_list_of(row, int) for row in table)):
            raise ValueError("Group JSON field 'table' must be a table of integers.")
        if names is not None and not _is_list_of(names, str):
            raise ValueError("Group JSON field 'names' must be a list of strings.")
        return group_from_table(table, names, max_size=max_size)
    raise ValueError("Group JSON needs either invariant_factors or a table.")

