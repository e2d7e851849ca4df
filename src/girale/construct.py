"""Lattice expansion of a finite abelian group, and membership in the generated class.

``build_R`` flattens a group into an antichain, adds bounds, extends the
product so the top absorbs everything except the bottom, and computes the
implication generically as the largest residual.  The closed forms of that
implication table are deliberately NOT used here; they live in the tests as
an independent oracle.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from functools import lru_cache

from .algebra import (
    AlgHom,
    FiniteAlgebra,
    OPTIONAL_SYMBOLS,
    Table,
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
    make_group,
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
    the same expansions constantly.  The tables and names, residuals
    included, are built once per group and shared by every signature.
    """
    sig = signature_of(signature)
    guard(group.size + 2, "group expansion")
    return _build_R_cached(group, sig)


@lru_cache(maxsize=4096)
def _build_R_cached(group: FiniteGroup, sig: frozenset[str]) -> FiniteAlgebra:
    A = _expansion(group)
    one, bot, top = A.one, group.size, group.size + 1
    return dataclasses.replace(
        A,
        zero=one if "0" in sig else None,
        bot=bot if "bot" in sig else None,
        top=top if "top" in sig else None,
        bang=tuple(A.meet[a][one] for a in range(A.size)) if "bang" in sig else None,
    )


@lru_cache(maxsize=1024)
def _expansion(group: FiniteGroup) -> FiniteAlgebra:
    """The expansion without optional symbols: its tables and names, which no
    signature changes."""
    n = group.size
    bot = n
    top = n + 1
    size = n + 2
    every = tuple(range(size))
    # rows in layout order: a group element meets itself and top to itself and
    # the rest to bot, and joins dually; bot absorbs every product, and top
    # every product but the one with bot
    meet = tuple(tuple(a if b in (a, top) else bot for b in every) for a in range(n))
    join = tuple(tuple(a if b in (a, bot) else top for b in every) for a in range(n))
    mult = tuple(row + (bot, top) for row in group.table)
    meet += ((bot,) * size, every)
    join += (every, (top,) * size)
    mult += ((bot,) * size, (top,) * n + (bot, top))
    imp = residuals_from_mult(meet, join, mult)
    names = tuple(group.element_names) + ("bot", "top")
    return FiniteAlgebra(size, meet, join, mult, imp, group.identity, names=names)


def _clear_build_R() -> None:
    _build_R_cached.cache_clear()
    _expansion.cache_clear()


build_R.cache_info = _build_R_cached.cache_info  # type: ignore[attr-defined]
build_R.cache_clear = _clear_build_R  # type: ignore[attr-defined]


@dataclass(frozen=True)
class RParts:
    """Decomposition of an R-shaped algebra into bounds and group subreduct."""

    bot: int
    top: int
    group: FiniteGroup
    to_algebra: tuple[int, ...]  # group index -> algebra index


class NotAnExpansion(ValueError):
    """The algebra is not shaped like ``build_R`` output: the sentence or law
    that fails, and its witness elements."""

    def __init__(self, failed: str, witness: tuple[int, ...] = ()) -> None:
        super().__init__(f"Not an expansion of a group: {failed}, witness {list(witness)}.")
        self.failed = failed
        self.witness = witness


def split_R(A: FiniteAlgebra) -> RParts:
    """Check that A is shaped like ``build_R`` output and take it apart.

    The order of the checks fixes the reported failure: the class laws (a
    plain ValueError), then unit-is-a-bound, sentence 1 (every interior
    element is invertible) and the group laws on the interior (each a
    ``NotAnExpansion``).  The laws are checked per algebra; what follows
    them reads no optional symbol, so it is kept per table set and names and
    the signature variants of one expansion share it.  A failure is raised
    again on each call and never kept.
    """
    laws = check_signature_laws(A)
    if not laws.passed:
        raise ValueError(f"Algebra fails its class laws: {laws.summary()}.")
    return _split_tables(A.meet, A.join, A.mult, A.imp, A.one, A.names)


@lru_cache(maxsize=4096)
def _split_tables(
    meet: Table, join: Table, mult: Table, imp: Table, one: int, names: tuple | None
) -> RParts:
    bot = top = 0
    for a in range(len(meet)):
        bot = meet[bot][a]
        top = join[top][a]
    if one in (bot, top):
        raise NotAnExpansion("unit-is-a-bound", (one,))

    interior = tuple(a for a in range(len(meet)) if a not in (bot, top))
    for x in interior:
        if mult[x][imp[x][one]] != one:
            raise NotAnExpansion("sentence-1", (x,))
    # Sentence 1 pins the flat order and the absorbing top.  Each interior x is
    # invertible, so x * - is an order automorphism; a finite algebra has no
    # invertible u > 1 (1 < u < u * u < ... would not end), so no interior
    # x < z exists.  So distinct interior elements join to top and meet to bot,
    # and x * top = top, as x * top > x.  And x * y on a bound would put
    # y = (x -> 1) * (x * y) on it, so the interior is closed under the product.
    index = {a: i for i, a in enumerate(interior)}
    table = [[index[mult[a][b]] for b in interior] for a in interior]
    try:
        group = group_from_table(table, [f"e{a}" if names is None else names[a] for a in interior])
    except ValueError:
        raise NotAnExpansion("group-laws") from None
    return RParts(bot=bot, top=top, group=group, to_algebra=interior)


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
    """Cut an embedding between expansions down to the group subreducts (not re-checked).

    Both ends come from the shape cache that ``member_K`` fills, the source first.
    The trivial algebra is the expansion of Z1: a map out of it restricts to the
    unit map of Z1.  Any other end that is no expansion raises as ``split_R`` does.
    """
    beta.require_embedding("The algebra map to restrict_embedding")
    src, tgt = map(_expansion_parts, (beta.source, beta.target))
    if src is None:
        unit = make_group([1])
        target = unit if tgt is None else tgt.group
        return GroupHom(unit, target, (target.identity,))
    # an embedding keeps 1 and the product, so it sends invertibles to invertibles: never to a bound
    index = {a: i for i, a in enumerate(tgt.to_algebra)}
    return GroupHom(src.group, tgt.group, tuple(index[beta.mapping[a]] for a in src.to_algebra))


def _expansion_parts(A: FiniteAlgebra) -> RParts | None:
    """The parts of an expansion, None for the trivial algebra."""
    shape = _shape(A, A.names)
    if shape.parts is None and not shape.trivial:  # the failure split_R raised to _shape
        raise NotAnExpansion(shape.failed, shape.witness)
    return shape.parts


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
    parts: RParts | None = None  # the bounds and group of a nontrivial expansion
    canon: AlgHom | None = None  # isomorphism onto the rebuilt expansion
    failed: str | None = None
    witness: tuple[int, ...] = ()

    @property
    def group(self) -> FiniteGroup | None:
        return self.parts.group if self.parts is not None else None

    def describe(self) -> str:
        if self.member and self.trivial:
            return "yes (trivial algebra)"
        if self.member:
            assert self.group is not None
            return f"yes (expansion of {self.group.describe()})"
        return f"no ({self.failed}, witness {list(self.witness)})"


def member_K(A: FiniteAlgebra, query: KClassQuery) -> MembershipResult:
    """Decide membership in the class generated over the prime set.

    A nontrivial member must pass ``split_R``, the shape of ``build_R``
    output, and the torsion quasi-equations.  A yes answer carries the
    reconstructed group and its isomorphism ``canon``, so it can be
    independently re-checked.  Pure, so results are cached, keyed on the
    element names too: algebra equality ignores them, but the group and
    ``canon.source`` carry them.  The shape check and the isomorphism do not
    read the query, so they are cached once per algebra and names, and each
    new query adds only the torsion check.
    """
    return _member_K(A, A.names, query)


@lru_cache(maxsize=4096)
def _member_K(A: FiniteAlgebra, names: tuple | None, query: KClassQuery) -> MembershipResult:
    if A.signature != query.signature:
        raise ValueError(
            f"Algebra signature {sorted(A.signature)} does not match the query "
            f"signature {sorted(query.signature)}."
        )
    shape = _shape(A, names)
    if shape.parts is None:  # trivial, or not shaped like an expansion
        return shape
    sigma = check_sigma(shape.parts.group, query.primes)
    if not sigma.passed:
        assert sigma.witness_element is not None and sigma.witness_prime is not None
        return MembershipResult(
            member=False,
            failed=f"sigma-{sigma.witness_prime}",
            witness=(shape.parts.to_algebra[sigma.witness_element],),
        )
    return shape if shape.member else MembershipResult(member=False, failed=shape.failed)


@lru_cache(maxsize=4096)
def _shape(A: FiniteAlgebra, names: tuple | None) -> MembershipResult:
    """``member_K``'s verdict but for the torsion check, which alone reads the
    query.  An algebra that ``split_R`` takes apart keeps its parts, also when
    it is no member: its structure mismatch is reported after the torsion check."""
    if A.size == 1:  # every one-element algebra satisfies its laws
        return MembershipResult(member=True, trivial=True)
    try:
        parts = split_R(A)
    except NotAnExpansion as failure:
        return MembershipResult(member=False, failed=failure.failed, witness=failure.witness)
    # split_R's laws and sentence 1 fix every table and !a = a /\ 1; only 0 is left free
    if A.zero not in (None, A.one):
        return MembershipResult(member=False, parts=parts, failed="structure-mismatch")
    # the group indices in order, then bot and top: the layout of build_R
    layout = {a: i for i, a in enumerate(parts.to_algebra + (parts.bot, parts.top))}
    canon = AlgHom(A, build_R(parts.group, A.signature), tuple(map(layout.get, range(A.size))))
    return MembershipResult(member=True, parts=parts, canon=canon)


def _clear_member_K() -> None:
    _member_K.cache_clear()
    _shape.cache_clear()
    _split_tables.cache_clear()


member_K.cache_info = _member_K.cache_info  # type: ignore[attr-defined]
member_K.cache_clear = _clear_member_K  # type: ignore[attr-defined]
