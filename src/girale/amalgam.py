"""Spans of class members and the constructive amalgamation procedure.

A span is amalgamated by dropping to the group subreducts, pushing out, and
lifting back.  Trivial members (legal only when the signature carries no
bounds) are treated as expansions of the one-element group.  Strong
amalgamation is measured and reported, never asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .algebra import AlgHom, FiniteAlgebra, trivial_algebra
from .capacity import guard
from .construct import (
    KClassQuery, MembershipResult, build_R, lift_embedding, member_K, restrict_embedding
)
from .group import (
    FiniteGroup,
    GroupHom,
    PrimeSet,
    abelian_group_catalog,
    check_sigma,
    group_homs,
    make_group,
    pushout,
)


@dataclass(frozen=True)
class Span:
    """Two embeddings out of a common algebra: left A -> B, right A -> C.

    Checked when built, raising ValueError: one signature, legs between the
    span's algebras, and each leg an injective homomorphism.
    """

    A: FiniteAlgebra
    B: FiniteAlgebra
    C: FiniteAlgebra
    phi1: AlgHom
    phi2: AlgHom

    def __post_init__(self) -> None:
        if len({self.A.signature, self.B.signature, self.C.signature}) != 1:
            raise ValueError("Invalid span: signatures differ across the span.")
        for name, leg, target in (("phi1", self.phi1, self.B), ("phi2", self.phi2, self.C)):
            if leg.source != self.A or leg.target != target:
                raise ValueError(f"Invalid span: {name} endpoints do not match the span.")
            leg.require_embedding(f"Invalid span: {name}")


@dataclass(frozen=True)
class Amalgam:
    D: FiniteAlgebra
    psi1: AlgHom
    psi2: AlgHom


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: tuple[int, ...] = ()


@dataclass(frozen=True)
class AmalgamReport:
    checks: tuple[CheckItem, ...]
    strong_checked: bool

    @property
    def passed(self) -> bool:
        """Amalgam validity: homs, injectivity, endpoints, commuting square."""
        return all(
            item.passed for item in self.checks if item.name != "strong-intersection"
        )

    @property
    def strong(self) -> bool | None:
        """Whether the image-intersection equality held, None when it was not
        checked; diagnostic, not required."""
        if not self.strong_checked:
            return None
        return all(
            item.passed for item in self.checks if item.name == "strong-intersection"
        )

    def failures(self) -> list[CheckItem]:
        return [item for item in self.checks if not item.passed]


def amalgamate(span: Span, query: KClassQuery) -> Amalgam:
    """Amalgamate a span of class members; the result is again a member."""
    results = {}
    for name, algebra in (("A", span.A), ("B", span.B), ("C", span.C)):
        result = member_K(algebra, query)
        if not result.member:
            raise ValueError(f"Span algebra {name} is not in the class: {result.describe()}.")
        results[name] = result

    if results["B"].trivial and results["C"].trivial:
        return Amalgam(span.B, AlgHom(span.B, span.B, (0,)), AlgHom(span.C, span.B, (0,)))

    po = pushout(restrict_embedding(span.phi1), restrict_embedding(span.phi2))
    D = build_R(po.group, query.signature)

    def lifted_leg(endpoint: FiniteAlgebra, result: MembershipResult, leg: GroupHom) -> AlgHom:
        if result.trivial:
            return AlgHom(endpoint, D, (D.one,))
        assert result.canon is not None
        # the lift of the pushout leg: group indices kept, bounds after the group
        lifted = leg.mapping + (po.group.size, po.group.size + 1)
        return AlgHom(endpoint, D, tuple(lifted[v] for v in result.canon.mapping))

    psi1 = lifted_leg(span.B, results["B"], po.into_left)
    psi2 = lifted_leg(span.C, results["C"], po.into_right)
    return Amalgam(D, psi1, psi2)


def class_catalog(
    primes: PrimeSet, signature: frozenset[str], max_order: int
) -> list[tuple[str, FiniteAlgebra, FiniteGroup | None]]:
    """Class members with group parts up to max_order, plus the trivial algebra.

    Entries are (label, algebra, group); the trivial algebra carries None.
    """
    guard(max_order, "catalog group")
    members: list[tuple[str, FiniteAlgebra, FiniteGroup | None]] = [
        ("T", trivial_algebra(signature), None)
    ]
    for chain in abelian_group_catalog(max_order):
        group = make_group(chain or [1])
        if not check_sigma(group, primes).passed:
            continue
        members.append((group.describe(), build_R(group, signature), group))
    return members


def _member_embeddings(
    source: tuple[str, FiniteAlgebra, FiniteGroup | None],
    target: tuple[str, FiniteAlgebra, FiniteGroup | None],
    signature: frozenset[str],
) -> list[AlgHom]:
    """Embeddings between catalog members: unit maps out of the trivial algebra
    and lifted group embeddings between expansions (complete by uniqueness)."""
    _, src_alg, src_group = source
    _, tgt_alg, tgt_group = target
    if src_group is None:  # 0, ! and each operation keep 1; a named bound is 1 only in T
        unit = AlgHom(src_alg, tgt_alg, (tgt_alg.one,))
        return [] if tgt_group is not None and signature & {"bot", "top"} else [unit]
    if tgt_group is None:
        return []
    return [
        lift_embedding(alpha, signature)
        for alpha in group_homs(src_group, tgt_group, injective_only=True)
    ]


def span_catalog(
    primes: PrimeSet,
    signature: frozenset[str],
    max_order: int,
) -> Iterator[Span]:
    """Every span over the class catalog, in a deterministic order."""
    members = class_catalog(primes, signature, max_order)
    emb_cache: dict[tuple[int, int], list[AlgHom]] = {}

    def embeddings(i: int, j: int) -> list[AlgHom]:
        if (i, j) not in emb_cache:
            emb_cache[(i, j)] = _member_embeddings(members[i], members[j], signature)
        return emb_cache[(i, j)]

    for a in range(len(members)):
        for b in range(len(members)):
            first = embeddings(a, b)
            if not first:
                continue
            for c in range(len(members)):
                second = embeddings(a, c)
                for phi1 in first:
                    for phi2 in second:
                        yield Span(
                            members[a][1], members[b][1], members[c][1], phi1, phi2
                        )


def verify_amalgam(span: Span, amalgam: Amalgam, strong: bool = False) -> AmalgamReport:
    """Re-check every amalgam requirement from the raw tables; nothing is trusted.
    Each of the four maps is asked for its violations, which the hom-check memo
    computes once per distinct map and process."""
    checks: list[CheckItem] = []

    for name, hom in (
        ("phi1", span.phi1),
        ("phi2", span.phi2),
        ("psi1", amalgam.psi1),
        ("psi2", amalgam.psi2),
    ):
        bad = hom.violations()
        checks.append(CheckItem(f"{name}-hom", not bad, bad[0].witness if bad else ()))
        checks.append(CheckItem(f"{name}-injective", hom.is_injective()))

    endpoint_ok = (
        amalgam.psi1.source == span.B
        and amalgam.psi2.source == span.C
        and amalgam.psi1.target == amalgam.D
        and amalgam.psi2.target == amalgam.D
    )
    checks.append(CheckItem("endpoints", endpoint_ok))

    commute_witness: tuple[int, ...] = ()
    commutes = True
    if endpoint_ok:
        for a in range(span.A.size):
            if amalgam.psi1.mapping[span.phi1.mapping[a]] != amalgam.psi2.mapping[
                span.phi2.mapping[a]
            ]:
                commutes = False
                commute_witness = (a,)
                break
    else:
        commutes = False
    checks.append(CheckItem("square-commutes", commutes, commute_witness))

    if strong:
        through = {
            amalgam.psi1.mapping[span.phi1.mapping[a]] for a in range(span.A.size)
        }
        left_image = set(amalgam.psi1.mapping)
        right_image = set(amalgam.psi2.mapping)
        overlap = left_image & right_image
        witness = tuple(sorted(overlap.symmetric_difference(through)))
        checks.append(CheckItem("strong-intersection", overlap == through, witness))

    return AmalgamReport(tuple(checks), strong_checked=strong)
