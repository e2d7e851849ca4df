"""Lattice expansion of a finite abelian group, and membership in the generated class.

``build_R`` flattens a group into an antichain, adds bounds, extends the
product so the top absorbs everything except the bottom, and computes the
implication generically as the largest residual.  The closed forms of that
implication table are deliberately NOT used here; they live in the tests as
an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    AlgHom,
    FiniteAlgebra,
    OPTIONAL_SYMBOLS,
    check_signature_laws,
    residuals_from_mult,
    signature_of,
)
from .capacity import guard
from .group import (
    FiniteGroup,
    GroupHom,
    PrimeSet,
    check_sigma,
    group_from_table,
)

SIGNATURE_FULL = frozenset(OPTIONAL_SYMBOLS)


def parse_signature(spec: str) -> frozenset[str]:
    """Signature subsets from CLI-style text: 'full', 'none', or a comma list."""
    text = spec.strip().lower()
    if text in ("full", "all"):
        return SIGNATURE_FULL
    if text in ("none", "empty", ""):
        return frozenset()
    return signature_of(p.strip() for p in text.split(","))


def build_R(
    group: FiniteGroup, signature: frozenset[str] | set[str] = frozenset()
) -> FiniteAlgebra:
    """Expand a group with a new bottom and top over the flat order.

    The universe is the group followed by bot (index n) and top (index n+1).
    Constants beyond the unit are attached only when named in ``signature``;
    the pointed constant equals the unit and the guard is a /\\ 1.
    Results are cached: the construction is pure and batch sweeps rebuild
    the same expansions constantly.
    """
    sig = signature_of(signature)
    guard(group.size, "group expansion")
    return _build_R_cached(group, sig)


@lru_cache(maxsize=4096)
def _build_R_cached(group: FiniteGroup, sig: frozenset[str]) -> FiniteAlgebra:
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


@dataclass(frozen=True)
class RParts:
    """Decomposition of an R-shaped algebra into bounds and group subreduct."""

    bot: int
    top: int
    group: FiniteGroup
    to_algebra: tuple[int, ...]  # group index -> algebra index


def split_R(A: FiniteAlgebra) -> RParts:
    """Locate the bounds and extract the group living on the rest of the universe."""
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
    group = group_from_table(table, names)
    return RParts(bot=bot, top=top, group=group, to_algebra=tuple(interior))


def lift_embedding(
    alpha: GroupHom, signature: frozenset[str] | set[str] = frozenset()
) -> AlgHom:
    """Extend a group embedding to the expansions, fixing bot and top (not re-checked)."""
    alpha.require_embedding("The group map to lift_embedding")
    source = build_R(alpha.source, signature)
    target = build_R(alpha.target, signature)
    h = alpha.target.size
    return AlgHom(source, target, tuple(alpha.mapping) + (h, h + 1))


def restrict_embedding(beta: AlgHom) -> GroupHom:
    """Cut an embedding between expansions down to the group subreducts (not re-checked)."""
    beta.require_embedding("The algebra map to restrict_embedding")
    src = split_R(beta.source)
    tgt = split_R(beta.target)
    tgt_index = {a: i for i, a in enumerate(tgt.to_algebra)}
    mapping = []
    for g in range(src.group.size):
        image = beta.mapping[src.to_algebra[g]]
        if image not in tgt_index:
            raise ValueError(
                "Internal inconsistency: embedding sends a group element to a bound."
            )
        mapping.append(tgt_index[image])
    return GroupHom(src.group, tgt.group, tuple(mapping))


@dataclass(frozen=True)
class KClassQuery:
    """A generated-class query: a nonempty prime set plus a signature choice."""

    primes: PrimeSet
    signature: frozenset[str]

    def __post_init__(self) -> None:
        if len(self.primes) == 0:
            raise ValueError("The prime set must be nonempty.")
        signature_of(self.signature)


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    trivial: bool = False
    group: FiniteGroup | None = None
    canon: AlgHom | None = None  # isomorphism onto the rebuilt expansion
    failed: str | None = None
    witness: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.member and self.trivial:
            return "yes (trivial algebra)"
        if self.member:
            assert self.group is not None
            return f"yes (expansion of {self.group.describe()})"
        return f"no ({self.failed}, witness {list(self.witness)})"


@lru_cache(maxsize=4096)
def member_K(A: FiniteAlgebra, query: KClassQuery) -> MembershipResult:
    """Decide membership in the class generated over the prime set.

    A nontrivial member must look like ``build_R`` output: checked by the
    first-order sentences pinning the flat bounded order and absorbing top,
    the group laws on the interior, and the torsion quasi-equations.  A yes
    answer carries the reconstructed group and a verified isomorphism, so it
    can be independently re-checked.  Pure, so results are cached.
    """
    if A.signature != query.signature:
        raise ValueError(
            f"Algebra signature {sorted(A.signature)} does not match the query "
            f"signature {sorted(query.signature)}."
        )
    laws = check_signature_laws(A)
    if not laws.passed:
        raise ValueError(f"Algebra fails its class laws: {laws.summary()}.")
    if A.size == 1:
        return MembershipResult(member=True, trivial=True)

    bot = 0
    top = 0
    for a in range(A.size):
        bot = A.meet[bot][a]
        top = A.join[top][a]
    one = A.one
    if one in (bot, top):
        return MembershipResult(member=False, failed="unit-is-a-bound", witness=(one,))

    interior = [a for a in range(A.size) if a not in (bot, top)]
    for x in interior:
        if A.mult[x][A.imp[x][one]] != one:
            return MembershipResult(member=False, failed="sentence-1", witness=(x,))
    for x in range(A.size):
        for y in range(A.size):
            if x == y:
                continue
            if x != bot and y != bot and A.join[x][y] != top:
                return MembershipResult(member=False, failed="sentence-2", witness=(x, y))
            if x != top and y != top and A.meet[x][y] != bot:
                return MembershipResult(member=False, failed="sentence-3", witness=(x, y))
    for x in range(A.size):
        if x != bot and A.mult[x][top] != top:
            return MembershipResult(member=False, failed="sentence-4", witness=(x,))

    # split_R can fail only on the group laws: by the laws and sentences 1 and 4,
    # y = (x -> 1) * (x * y), so x * y on a bound would put y on it.
    try:
        group = split_R(A).group
    except ValueError:
        return MembershipResult(member=False, failed="group-laws", witness=())

    sigma = check_sigma(group, query.primes)
    if not sigma.passed:
        assert sigma.witness_element is not None and sigma.witness_prime is not None
        return MembershipResult(
            member=False,
            failed=f"sigma-{sigma.witness_prime}",
            witness=(interior[sigma.witness_element],),
        )

    rebuilt = build_R(group, query.signature)
    canon_map = [0] * A.size
    for g, a in enumerate(interior):
        canon_map[a] = g
    canon_map[bot] = group.size
    canon_map[top] = group.size + 1
    canon = AlgHom(A, rebuilt, tuple(canon_map))
    if canon.violations() or len(set(canon_map)) != A.size:
        return MembershipResult(member=False, failed="structure-mismatch", witness=())
    return MembershipResult(member=True, group=group, canon=canon)
