import pytest

from girale.algebra import OPTIONAL_SYMBOLS, AlgHom, trivial_algebra
from girale.amalgam import (
    Amalgam,
    Span,
    _member_embeddings,
    amalgamate,
    class_catalog,
    span_catalog,
    verify_amalgam,
)
from girale.construct import KClassQuery, build_R, member_K, restrict_embedding, split_R
from girale.group import PrimeSet, group_homs, make_group

from tests.test_expansion_oracle import _relabelled

Z3 = make_group([3])
Z5 = make_group([5])
Z9 = make_group([9])


def unit_map(target):
    return AlgHom(trivial_algebra(), target, (target.one,))


def identity(algebra):
    return AlgHom(algebra, algebra, tuple(range(algebra.size)))


def test_amalgamate_coprime_over_trivial():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    b, c = build_R(Z3), build_R(Z5)
    span = Span(trivial_algebra(), b, c, unit_map(b), unit_map(c))
    amalgam = amalgamate(span, query)
    assert amalgam.D.size == 17
    assert split_R(amalgam.D).group.invariant_factors == (15,)
    report = verify_amalgam(span, amalgam, strong=True)
    assert report.passed and report.strong_checked
    assert member_K(amalgam.D, query).member


def test_amalgamate_identity_span():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    algebra = build_R(Z3)
    span = Span(algebra, algebra, algebra, identity(algebra), identity(algebra))
    amalgam = amalgamate(span, query)
    assert split_R(amalgam.D).group.invariant_factors == (3,)
    assert verify_amalgam(span, amalgam, strong=True).passed


def test_amalgamate_absorbs_bigger_leg():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    small, big = build_R(Z3), build_R(Z9)
    from girale.construct import lift_embedding

    alpha = group_homs(Z3, Z9, injective_only=True)[0]
    lifted = lift_embedding(alpha)
    span = Span(
        small,
        small,
        big,
        identity(small),
        AlgHom(small, big, lifted.mapping),
    )
    amalgam = amalgamate(span, query)
    assert split_R(amalgam.D).group.invariant_factors == (9,)
    assert verify_amalgam(span, amalgam).passed


def test_amalgamate_symmetric_up_to_iso():
    query = KClassQuery(PrimeSet.of(5), frozenset({"0"}))
    b = build_R(make_group([2]), query.signature)
    c = build_R(make_group([4]), query.signature)
    t = trivial_algebra(query.signature)
    one = amalgamate(Span(t, b, c, unit_map_sig(b), unit_map_sig(c)), query)
    other = amalgamate(Span(t, c, b, unit_map_sig(c), unit_map_sig(b)), query)
    assert (
        split_R(one.D).group.invariant_factors
        == split_R(other.D).group.invariant_factors
    )


def unit_map_sig(target):
    triv = trivial_algebra(target.signature)
    return AlgHom(triv, target, (target.one,))


def test_amalgamate_all_trivial():
    sig = frozenset({"bot", "top", "0"})
    query = KClassQuery(PrimeSet.of(3), sig)
    t = trivial_algebra(sig)
    span = Span(t, t, t, AlgHom(t, t, (0,)), AlgHom(t, t, (0,)))
    amalgam = amalgamate(span, query)
    assert amalgam.D.size == 1
    assert verify_amalgam(span, amalgam, strong=True).passed


def test_amalgamate_rejects_non_members():
    query = KClassQuery(PrimeSet.of(3), frozenset())
    algebra = build_R(Z3)  # has an order-3 element, so it is out for P={3}
    span = Span(algebra, algebra, algebra, identity(algebra), identity(algebra))
    with pytest.raises(ValueError):
        amalgamate(span, query)


def test_amalgamate_rejects_broken_span():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    algebra = build_R(Z3)
    mapping = list(range(algebra.size))
    mapping[0], mapping[1] = mapping[1], mapping[0]
    crooked = AlgHom(algebra, algebra, tuple(mapping))  # moves the unit: not a hom
    with pytest.raises(ValueError):
        amalgamate(Span(algebra, algebra, algebra, crooked, identity(algebra)), query)


def test_span_rejects_bad_forms_when_built():
    b, c = build_R(Z3), build_R(Z5)
    t = trivial_algebra()
    pointed = build_R(Z5, frozenset({"0"}))
    with pytest.raises(ValueError, match="signatures differ"):
        Span(t, b, pointed, unit_map(b), AlgHom(t, pointed, (pointed.one,)))
    with pytest.raises(ValueError, match="phi2 endpoints"):
        Span(t, b, c, unit_map(b), unit_map(b))
    mapping = list(range(b.size))
    mapping[0], mapping[1] = mapping[1], mapping[0]
    with pytest.raises(ValueError, match=r"phi1 is not a homomorphism \(hom-one"):
        Span(b, b, b, AlgHom(b, b, tuple(mapping)), identity(b))
    collapse = AlgHom(b, t, (0,) * b.size)
    assert not collapse.violations()
    with pytest.raises(ValueError, match="phi2 is not injective"):
        Span(b, b, t, identity(b), collapse)


def test_verify_amalgam_consults_all_four_maps_of_a_checked_span(violation_calls, hom_checks):
    """Building a span checks each leg once, and a second span on the same legs
    checks none.  verify_amalgam, the oracle, asks every map again and the memo
    computes only the amalgam's maps, once each; a corrupted psi1 that follows a
    clean verify is still rejected."""
    query = KClassQuery(PrimeSet.of(2), frozenset())
    b, c = build_R(Z3), build_R(Z5)
    legs = [unit_map(b), unit_map(c)]
    span = Span(trivial_algebra(), b, c, *legs)
    assert hom_checks == [legs[0].mapping, legs[1].mapping]
    amalgam = amalgamate(span, query)
    violation_calls.clear()
    hom_checks.clear()
    Span(trivial_algebra(), b, c, *legs)
    assert hom_checks == []
    for _ in range(2):
        violation_calls.clear()
        assert verify_amalgam(span, amalgam).passed
        assert violation_calls == [span.phi1, span.phi2, amalgam.psi1, amalgam.psi2]
    assert hom_checks == [amalgam.psi1.mapping, amalgam.psi2.mapping]
    mapping = list(amalgam.psi1.mapping)
    mapping[0], mapping[-1] = mapping[-1], mapping[0]
    corrupt = Amalgam(amalgam.D, AlgHom(b, amalgam.D, tuple(mapping)), amalgam.psi2)
    assert "psi1-hom" in {item.name for item in verify_amalgam(span, corrupt).failures()}


def test_catalog_spans_build():
    assert sum(1 for _ in span_catalog(PrimeSet.of(2), frozenset(), 4)) == 17


def test_verify_amalgam_catches_corruption():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    b, c = build_R(Z3), build_R(Z5)
    span = Span(trivial_algebra(), b, c, unit_map(b), unit_map(c))
    amalgam = amalgamate(span, query)
    mapping = list(amalgam.psi1.mapping)
    mapping[0], mapping[1] = mapping[1], mapping[0]
    corrupted = Amalgam(amalgam.D, AlgHom(b, amalgam.D, tuple(mapping)), amalgam.psi2)
    report = verify_amalgam(span, corrupted)
    failed = {item.name for item in report.failures()}
    assert "psi1-hom" in failed
    witnessed = [item for item in report.failures() if item.name == "psi1-hom"]
    assert witnessed[0].witness != ()


def test_verify_amalgam_catches_a_leg_from_the_wrong_algebra():
    """psi1 must start at B: here it starts at C, so the endpoints fail and the
    square is not compared, and fails too."""
    query = KClassQuery(PrimeSet.of(2), frozenset())
    b, c = build_R(Z3), build_R(Z5)
    span = Span(trivial_algebra(), b, c, unit_map(b), unit_map(c))
    amalgam = amalgamate(span, query)
    report = verify_amalgam(span, Amalgam(amalgam.D, amalgam.psi2, amalgam.psi2))
    assert {item.name: item.witness for item in report.failures()} == {
        "endpoints": (),
        "square-commutes": (),
    }


def test_identity_amalgam_is_strong():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    algebra = build_R(Z3)
    span = Span(algebra, algebra, algebra, identity(algebra), identity(algebra))
    amalgam = Amalgam(algebra, identity(algebra), identity(algebra))
    report = verify_amalgam(span, amalgam, strong=True)
    assert report.passed and report.strong


def test_trivial_spans_are_weak_but_amalgamate():
    query = KClassQuery(PrimeSet.of(2), frozenset())
    b = build_R(Z3)
    span = Span(trivial_algebra(), b, b, unit_map(b), unit_map(b))
    amalgam = amalgamate(span, query)
    report = verify_amalgam(span, amalgam, strong=True)
    assert report.passed
    assert not report.strong  # bounds meet outside the image of the trivial core


def test_unchecked_strong_reads_unknown():
    """Without strong=True the report leaves strength unknown: of these 17
    spans, 4 fail the strong-intersection check when it is run."""
    primes = PrimeSet.of(2)
    query = KClassQuery(primes, frozenset())
    weak = 0
    spans = list(span_catalog(primes, frozenset(), 3))
    for span in spans:
        amalgam = amalgamate(span, query)
        unchecked = verify_amalgam(span, amalgam)
        checked = verify_amalgam(span, amalgam, strong=True)
        assert unchecked.passed and not unchecked.strong_checked and unchecked.strong is None
        assert checked.passed and checked.strong_checked and checked.strong in (True, False)
        weak += not checked.strong
    assert len(spans) == 17 and weak == 4


def test_span_catalog_small_sweep():
    primes = PrimeSet.of(2)
    sig = frozenset()
    query = KClassQuery(primes, sig)
    count = 0
    for span in span_catalog(primes, sig, 5):
        amalgam = amalgamate(span, query)
        assert verify_amalgam(span, amalgam).passed
        assert member_K(amalgam.D, query).member
        count += 1
    assert count == 45


def test_leg_group_hom_matches_restriction():
    """The group leg of a span leg is the restriction of the composite
    canon(B) . phi . canon(A)^-1 between the rebuilt expansions.  The spans
    are copies of the catalog's with each algebra's elements in reverse
    order, so the canons are not identities and the composite differs from
    phi on some legs."""
    primes = PrimeSet.of(2)
    sig = frozenset()
    query = KClassQuery(primes, sig)

    def reversed_copy(A):
        return _relabelled(A, tuple(range(A.size - 1, -1, -1)))

    legs = moved = 0
    for span in span_catalog(primes, sig, 5):
        A = reversed_copy(span.A)
        src = member_K(A, query)
        if src.trivial:
            continue
        for phi, target in ((span.phi1, span.B), (span.phi2, span.C)):
            B = reversed_copy(target)
            phi = AlgHom(A, B, tuple(B.size - 1 - phi.mapping[A.size - 1 - a] for a in range(A.size)))
            tgt = member_K(B, query)
            inverse = {v: x for x, v in enumerate(src.canon.mapping)}
            composite = AlgHom(
                src.canon.target,
                tgt.canon.target,
                tuple(tgt.canon.mapping[phi.mapping[inverse[i]]] for i in range(A.size)),
            )
            assert restrict_embedding(phi) == restrict_embedding(composite)
            legs += 1
            moved += composite.mapping != phi.mapping
    assert legs > 20 and moved > 0


def test_class_catalog_respects_sigma():
    members = class_catalog(PrimeSet.of(2), frozenset(), 7)
    labels = [label for label, _, _ in members]
    assert labels == ["T", "Z1", "Z3", "Z5", "Z7"]


def test_unit_map_out_of_the_trivial_algebra(violation_calls):
    """The unit map out of T embeds just when the target is T or the signature
    names neither bound: _member_embeddings gives it exactly when its hom check
    passes, and runs no hom check itself."""
    signatures = [
        frozenset(symbols)
        for symbols in ((), ("0",), ("bang",), ("0", "bang"), ("bot",), ("top",), ("0", "bot", "top"))
    ] + [frozenset(OPTIONAL_SYMBOLS)]
    pairs = embedded = 0
    for primes in (PrimeSet.of(2), PrimeSet.of(3), PrimeSet.of(5), PrimeSet.of(2, 5)):
        for sig in signatures:
            members = class_catalog(primes, sig, 7)
            trivial = members[0]
            assert trivial[2] is None and trivial[1].size == 1
            for target in members:
                violation_calls.clear()
                found = _member_embeddings(trivial, target, sig)
                assert violation_calls == []
                unit = AlgHom(trivial[1], target[1], (target[1].one,))
                assert found == ([] if unit.violations() else [unit])
                pairs += 1
                embedded += len(found)
    # 24 targets per signature: all of them without bounds, only T with one
    assert (pairs, embedded) == (8 * 24, 4 * 24 + 4 * 4)
