"""Finite abelian groups as Cayley tables.

Elements are indices 0..n-1.  Provides construction from invariant factors,
the torsion quasi-equation check ("no nontrivial p-th roots of 1"), and
pushouts along injective homomorphisms, which serve as the finite
amalgamation oracle.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

import numpy as np

from .algebra import (
    Table,
    Violation,
    _Hom,
    _Ops,
    _associative,
    _field,
    _hom_violations,
    _index_dtype,
    _row_blocks,
    _search_homs,
)
from .capacity import guard, max_size


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
    """Abelian group given by its Cayley table; the constructor checks no law.

    Element orders, invariant factors and the hash are computed on first use
    and kept by ``object.__setattr__``: a ``cached_property`` would write the
    instance ``__dict__`` and slow every later attribute read.  Equality and
    pickles see only the fields.
    """

    size: int
    table: Table
    identity: int
    inverse: tuple[int, ...]
    element_names: tuple[str, ...]

    def __hash__(self) -> int:
        try:
            return self._hash  # type: ignore[attr-defined]
        except AttributeError:
            fields = (self.size, self.table, self.identity, self.inverse, self.element_names)
            object.__setattr__(self, "_hash", hash(fields))
            return self._hash  # type: ignore[attr-defined]

    def __reduce__(self) -> tuple:
        """Unpickle through the constructor: no cached hash, and fresh attribute storage."""
        return type(self), tuple(getattr(self, field.name) for field in dataclasses.fields(self))

    @property
    def orders(self) -> tuple[int, ...]:
        """The order of each element, by walking its powers."""
        try:
            return self._orders  # type: ignore[attr-defined]
        except AttributeError:
            orders = []
            for a, row in enumerate(self.table):
                k, x = 1, a
                while x != self.identity:
                    k, x = k + 1, row[x]
                orders.append(k)
            object.__setattr__(self, "_orders", tuple(orders))
            return self._orders  # type: ignore[attr-defined]

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        """The canonical invariant factors (``invariant_factors_of``)."""
        try:
            return self._factors  # type: ignore[attr-defined]
        except AttributeError:
            object.__setattr__(self, "_factors", invariant_factors_of(self))
            return self._factors  # type: ignore[attr-defined]

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverse[a]

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
    table: Sequence[Sequence[int]], element_names: Sequence[str] | None = None
) -> FiniteGroup:
    """Validate a Cayley table from outside and wrap it as a group."""
    guard(len(table), "group")
    _validate_group(table)
    n = len(table)
    if element_names is None:
        element_names = [f"g{i}" for i in range(n)]
    elif len(element_names) != n:
        raise ValueError("element_names length does not match group size.")
    return _trusted_group(table, element_names)


def _product_table(s: Table, t: Table) -> Table:
    """Componentwise product of two tables, the pair (x, y) at x * len(t) + y."""
    m = len(t)
    return tuple(tuple(a * m + b for a in row_s for b in row_t) for row_s in s for row_t in t)


def make_group(invariant_factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders (a group by construction)."""
    factors = [int(d) for d in invariant_factors]
    if not factors or any(d < 1 for d in factors):
        raise ValueError(f"Factors must be integers >= 1, got {invariant_factors}.")
    n = math.prod(factors)
    guard(n, "group")

    nontrivial = [d for d in factors if d > 1]
    table: Table = ((0,),)
    for d in nontrivial:
        table = _product_table(table, tuple(tuple((x + y) % d for y in range(d)) for x in range(d)))
    if len(nontrivial) <= 1:
        names = ["1"] + [f"a{k}" if k > 1 else "a" for k in range(1, n)]
    else:
        digits = itertools.product(*(range(d) for d in nontrivial))
        names = ["(" + ",".join(map(str, parts)) + ")" for parts in digits]
    return _trusted_group(table, names)


def invariant_factors_of(group: FiniteGroup) -> tuple[int, ...]:
    """Canonical invariant factors d1 | d2 | ... (ascending); () for the trivial group.

    The elements whose order divides m number the product of gcd(m, d) over
    the factors d.  So, largest first, each factor is the least divisor m of
    the one before (of |G| for the first) at which that count is that product
    over the factors found so far times the order still to place.
    """
    counts = Counter(group.orders)
    found: list[int] = []
    rest = group.size
    while rest > 1:
        last = found[-1] if found else rest
        for m in (k for k in range(2, last + 1) if last % k == 0):
            fits = math.prod(math.gcd(m, d) for d in found) * rest
            if sum(c for d, c in counts.items() if m % d == 0) == fits:
                break
        else:
            raise ValueError("Element orders fit no invariant factors; not a group?")
        found.append(m)
        rest //= m
    return tuple(reversed(found))


@dataclass(frozen=True)
class SigmaResult:
    """Outcome of the torsion quasi-equation check over a prime set."""

    passed: bool
    witness_element: int | None = None
    witness_prime: int | None = None


def check_sigma(group: FiniteGroup, primes: PrimeSet) -> SigmaResult:
    """Pass iff g^p = 1 forces g = 1 for every p in the set; otherwise the
    witness is the first element of order p."""
    for p in primes:
        if p in group.orders:
            return SigmaResult(False, group.orders.index(p), p)
    return SigmaResult(True)


@dataclass(frozen=True)
class GroupHom(_Hom):
    source: FiniteGroup
    target: FiniteGroup
    mapping: tuple[int, ...]

    def violations(self) -> list[Violation]:
        """Failures to preserve the identity (``hom-identity``) or the product (``hom-mult``)."""
        return list(_hom_violations(_group_ops, self.source, self.target, self.mapping))


def _group_ops(source: FiniteGroup, target: FiniteGroup) -> _Ops:
    return _Ops(
        (("identity", source.identity, target.identity),),
        (("mult", source.table, target.table),),
    )


@dataclass(frozen=True)
class Pushout:
    group: FiniteGroup
    into_left: GroupHom  # from the target of the first leg
    into_right: GroupHom  # from the target of the second leg


def pushout(f: GroupHom, g: GroupHom) -> Pushout:
    """Pushout (B x C)/N of an injective span B <- A -> C of abelian groups.

    N is the set of pairs (f(a), g(a)^-1), the image of A under a
    homomorphism and so already a subgroup.  With the pair (b, c) at
    b * |C| + c, the cosets are numbered in the order of their least members.
    The legs are checked; the quotient and the legs into it are a pushout by
    construction and are not.  Memoised on the legs and the size bound.
    """
    return _pushout(f, g, max_size())


@lru_cache(maxsize=1024)
def _pushout(f: GroupHom, g: GroupHom, bound: int) -> Pushout:
    if f.source != g.source:
        raise ValueError("Pushout legs must share their source.")
    f.require_embedding("Pushout leg f")
    g.require_embedding("Pushout leg g")
    left, right = f.target, g.target
    n_left, n_right = left.size, right.size
    guard(n_left * n_right, "pushout intermediate", bound * bound)

    kernel = [(f.mapping[a], right.inv(g.mapping[a])) for a in range(f.source.size)]
    coset = [-1] * (n_left * n_right)
    reps: list[tuple[int, int]] = []
    for x in range(n_left * n_right):
        if coset[x] < 0:  # x is the least member of its coset
            b, c = divmod(x, n_right)
            row_b, row_c = left.table[b], right.table[c]
            for kb, kc in kernel:
                coset[row_b[kb] * n_right + row_c[kc]] = len(reps)
            reps.append((b, c))

    size = len(reps)
    guard(size, "pushout", bound)
    rows = [(left.table[b], right.table[c]) for b, c in reps]
    table = [[coset[row_b[b] * n_right + row_c[c]] for b, c in reps] for row_b, row_c in rows]
    quotient = _trusted_group(table, [f"c{i}" for i in range(size)])

    into_left = GroupHom(
        left, quotient, tuple(coset[b * n_right + right.identity] for b in range(n_left))
    )
    into_right = GroupHom(
        right, quotient, tuple(coset[left.identity * n_right + c] for c in range(n_right))
    )
    return Pushout(quotient, into_left, into_right)


pushout.cache_clear = _pushout.cache_clear  # type: ignore[attr-defined]


def group_homs(
    source: FiniteGroup, target: FiniteGroup, injective_only: bool = False
) -> list[GroupHom]:
    """All homomorphisms source -> target, by backtracking with product closure.

    A free choice for a sends it to an element whose order divides a's, or,
    for embeddings, equals it.
    """
    allowed = [
        [v for v, d in enumerate(target.orders) if (d == k if injective_only else k % d == 0)]
        for k in source.orders
    ]
    maps = _search_homs(_group_ops(source, target), allowed, injective_only)
    return [GroupHom(source, target, h) for h in maps]


def abelian_group_catalog(max_order: int) -> list[tuple[int, ...]]:
    """Invariant-factor chains of every abelian group of order <= max_order.

    One chain per isomorphism class, ascending with each factor dividing the
    next; the empty chain is the trivial group.
    """
    out: list[tuple[int, ...]] = [()]
    for chain in out:  # the list is its own work list: a chain's extensions go on its end
        step = chain[-1] if chain else 1  # the next factor is a multiple of the last
        out += [chain + (d,) for d in range(max(step, 2), max_order // math.prod(chain) + 1, step)]
    return sorted(out, key=lambda c: (math.prod(c), c))


def group_from_json(data: dict) -> FiniteGroup:
    """Load a group object, raising ValueError; a table wins over invariant factors."""
    if not isinstance(data, dict):
        raise ValueError("Group JSON must be an object.")
    where = "Group JSON"
    if "table" in data:
        table = _field(data, "table", "a table of integers", where)
        return group_from_table(table, _field(data, "names", "a list of strings", where, None))
    if "invariant_factors" in data:
        return make_group(_field(data, "invariant_factors", "a list of integers", where))
    raise ValueError("Group JSON needs either invariant_factors or a table.")
