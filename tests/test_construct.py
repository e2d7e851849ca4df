import dataclasses

import pytest

from girale import construct
from girale.algebra import (
    AlgHom,
    check_signature_laws,
    enumerate_homs,
    trivial_algebra,
)
from girale.capacity import CapacityError
from girale.construct import (
    KClassQuery,
    SIGNATURE_FULL,
    build_R,
    lift_embedding,
    member_K,
    parse_signature,
    NotAnExpansion,
    restrict_embedding,
    split_R,
)
from girale.group import GroupHom, PrimeSet, abelian_group_catalog, check_sigma, group_homs, make_group

from tests.reference_kernel import direct_product

Z2 = make_group([2])
Z3 = make_group([3])
Z9 = make_group([9])
TRIVIAL = make_group([1])


def test_parse_signature():
    assert parse_signature("full") == SIGNATURE_FULL
    assert parse_signature("none") == frozenset()
    assert parse_signature("0,bang") == frozenset({"0", "bang"})
    with pytest.raises(ValueError):
        parse_signature("0,whatnot")


@pytest.mark.parametrize(
    "make",
    [
        lambda: parse_signature("0,whatnot"),
        lambda: build_R(Z2, {"0", "whatnot"}),
        lambda: KClassQuery(PrimeSet.of(2), frozenset({"0", "whatnot"})),
        lambda: trivial_algebra({"0", "whatnot"}),
    ],
    ids=["parse_signature", "build_R", "KClassQuery", "trivial_algebra"],
)
def test_unknown_symbol_message_is_shared(make):
    with pytest.raises(ValueError) as caught:
        make()
    assert str(caught.value) == "Unknown signature symbols ['whatnot']."


def test_build_R_z3_full():
    algebra = build_R(Z3, SIGNATURE_FULL)
    assert algebra.size == 5
    one, a, a2, bot, top = range(5)
    assert algebra.zero == algebra.one == one
    assert (algebra.bot, algebra.top) == (bot, top)
    # flat order plus bounds
    assert algebra.meet[a][a2] == bot
    assert algebra.join[one][a] == top
    assert algebra.meet[a][top] == a
    # absorbing product
    assert algebra.mult[a][top] == top
    assert algebra.mult[top][bot] == bot
    assert algebra.mult[a][a2] == one
    assert algebra.bang == (one, bot, bot, bot, one)
    assert algebra.names == ("1", "a", "a2", "bot", "top")


def test_build_R_trivial_is_three_chain():
    algebra = build_R(TRIVIAL)
    assert algebra.size == 3
    assert algebra.leq(1, 0) and algebra.leq(0, 2)
    assert check_signature_laws(algebra).passed


def test_build_R_z2_imp_table():
    algebra = build_R(Z2)
    one, a, bot, top = range(4)
    assert algebra.imp[a][a] == one
    assert algebra.imp[a][one] == a
    for x in range(4):
        assert algebra.imp[bot][x] == top
    for x in (one, a, bot):
        assert algebra.imp[top][x] == bot
    assert algebra.imp[top][top] == top
    assert algebra.imp[one][a] == a


def test_build_R_capacity(monkeypatch):
    monkeypatch.setenv("GIRALE_MAX_SIZE", "2")
    with pytest.raises(CapacityError):
        build_R(Z3)


def test_term_definability_full_signature():
    for chain in ((2,), (3,), (2, 2)):
        algebra = build_R(make_group(chain), SIGNATURE_FULL)
        assert algebra.zero == algebra.one
        assert algebra.imp[algebra.bot][algebra.one] == algebra.top
        assert algebra.imp[algebra.top][algebra.one] == algebra.bot
        for a in range(algebra.size):
            assert algebra.bang[a] == algebra.meet[a][algebra.one]


def test_closed_form_residuals():
    """The generic residual table agrees with the direct formulas entrywise."""
    for chain in ((1,), (2,), (3,), (2, 2), (4,)):
        group = make_group(chain)
        algebra = build_R(group)
        n = group.size
        bot, top = n, n + 1
        for a in range(algebra.size):
            for c in range(algebra.size):
                if a == bot:
                    expected = top
                elif a == top:
                    expected = top if c == top else bot
                elif c == bot:
                    expected = bot
                elif c == top:
                    expected = top
                else:
                    expected = group.mul(group.inv(a), c)
                assert algebra.imp[a][c] == expected


def test_split_R_rejects_non_expansions():
    from girale.algebra import trivial_algebra

    from tests.conftest import bounded_involutive_chain

    with pytest.raises(ValueError):
        split_R(bounded_involutive_chain())  # unit sits on the top bound
    with pytest.raises(ValueError):
        split_R(trivial_algebra())


def test_lift_and_restrict_roundtrip():
    catalog = [make_group(chain or [1]) for chain in abelian_group_catalog(8)]
    pairs = 0
    for source in catalog:
        for target in catalog:
            for alpha in group_homs(source, target, injective_only=True):
                beta = lift_embedding(alpha, SIGNATURE_FULL)
                assert beta.is_injective() and not beta.violations()
                back = restrict_embedding(beta)
                assert back.mapping == alpha.mapping
                assert back.is_injective() and not back.violations()
                pairs += 1
    assert pairs > 50


def test_lift_identity_and_trivial():
    beta = lift_embedding(GroupHom(Z3, Z3, (0, 1, 2)))
    assert beta.mapping == (0, 1, 2, 3, 4)
    gamma = lift_embedding(group_homs(TRIVIAL, Z2, injective_only=True)[0])
    assert gamma.source.size == 3 and gamma.target.size == 4
    assert gamma.mapping[0] == 0  # unit goes to unit


def test_lift_requires_embedding():
    from girale.group import GroupHom

    collapse = GroupHom(Z2, TRIVIAL, (0, 0))
    with pytest.raises(ValueError):
        lift_embedding(collapse)


def test_embeddings_between_expansions_are_lifts():
    klein = make_group([2, 2])
    found = enumerate_homs(build_R(Z2), build_R(klein), injective_only=True)
    restricted = {restrict_embedding(h).mapping for h in found}
    expected = {h.mapping for h in group_homs(Z2, klein, injective_only=True)}
    assert restricted == expected
    assert len(found) == len(expected) == 3


def test_restrict_embedding_out_of_the_trivial_algebra():
    """The trivial algebra is the expansion of Z1: a map out of it restricts
    to the unit map of Z1, into the target's group or into Z1."""
    for sig in (frozenset(), frozenset({"0", "bang"})):
        T, B = trivial_algebra(sig), build_R(Z3, sig)
        assert restrict_embedding(AlgHom(T, B, (B.one,))) == GroupHom(TRIVIAL, Z3, (0,))
        assert restrict_embedding(AlgHom(T, T, (0,))) == GroupHom(TRIVIAL, TRIVIAL, (0,))


def _raised(call, *args):
    """The ValueError a call raises: its type, message, reason and witness."""
    with pytest.raises(ValueError) as caught:
        call(*args)
    error = caught.value
    return type(error), str(error), getattr(error, "failed", None), getattr(error, "witness", None)


def _identity(algebra):
    return AlgHom(algebra, algebra, tuple(range(algebra.size)))


R1 = build_R(TRIVIAL)
# R(Z1) x R(Z1): (bot|1) is interior and not invertible, so sentence 1 fails
SQUARE = direct_product(R1, R1)


def _broken_z3():
    """R(Z3) with a * a moved to the unit: its product is no longer associative."""
    mult = [list(row) for row in build_R(Z3).mult]
    mult[1][1] = 0
    return dataclasses.replace(build_R(Z3), mult=tuple(map(tuple, mult)))


BROKEN = _broken_z3()


def _non_expansions():
    """A sentence-1 failure, a unit on a bound and a class-law failure, each
    with an embedding into it from an expansion or the trivial algebra."""
    from tests.conftest import bounded_involutive_chain

    chain = dataclasses.replace(bounded_involutive_chain(), zero=None, bot=None, top=None)
    lift = lift_embedding(GroupHom(TRIVIAL, Z3, (0,))).mapping
    return [
        (SQUARE, AlgHom(R1, SQUARE, tuple(a * R1.size + a for a in range(R1.size)))),
        (chain, AlgHom(trivial_algebra(), chain, (chain.one,))),
        (BROKEN, AlgHom(R1, BROKEN, lift)),
    ]


def test_restrict_embedding_raises_as_split_R_does():
    """On an end that is no expansion, restrict_embedding raises what split_R
    raises on it: the exception, its reason and its witness, the source first."""
    reasons = []
    for algebra, into in _non_expansions():
        expected = _raised(split_R, algebra)
        reasons.append(expected[2])
        assert _raised(restrict_embedding, _identity(algebra)) == expected  # at the source
        assert _raised(restrict_embedding, into) == expected  # at the target
    assert reasons == ["sentence-1", "unit-is-a-bound", None]
    # a source that fails sentence 1, into a target that fails its class laws
    target = direct_product(SQUARE, BROKEN)
    beta = AlgHom(SQUARE, target, tuple(a * BROKEN.size + BROKEN.one for a in range(SQUARE.size)))
    assert _raised(split_R, target)[0] is ValueError
    assert _raised(restrict_embedding, beta) == _raised(split_R, SQUARE)
    assert _raised(restrict_embedding, beta)[0] is NotAnExpansion


def test_restrict_embedding_reads_the_shapes_member_K_found(monkeypatch):
    """Once member_K has seen both ends, restrict_embedding makes no split_R call."""
    klein = make_group([2, 2])
    beta = enumerate_homs(build_R(Z2), build_R(klein), injective_only=True)[0]
    calls = []
    split = construct.split_R
    monkeypatch.setattr(construct, "split_R", lambda A: calls.append(A) or split(A))
    member_K.cache_clear()
    alpha = restrict_embedding(beta)
    assert calls == [beta.source, beta.target]  # not yet seen: one split per end
    member_K.cache_clear()
    query = KClassQuery(PrimeSet.of(3), frozenset())
    assert member_K(beta.source, query).member and member_K(beta.target, query).member
    del calls[:]
    assert restrict_embedding(beta) == alpha and calls == []


def test_member_K_separation():
    algebra = build_R(Z3, SIGNATURE_FULL)
    yes = member_K(algebra, KClassQuery(PrimeSet.of(2), SIGNATURE_FULL))
    assert yes.member and yes.group is not None
    assert yes.group.invariant_factors == (3,)
    assert yes.canon is not None and not yes.canon.violations()
    no = member_K(algebra, KClassQuery(PrimeSet.of(3), SIGNATURE_FULL))
    assert not no.member
    assert no.failed == "sigma-3"
    assert no.witness and no.witness[0] in (1, 2)


def test_member_K_reports_the_names_it_is_given():
    """An equal algebra under other element names is not answered from the
    cache entry of the first: its group and canonical map carry its names."""
    A = build_R(Z3)
    query = KClassQuery(PrimeSet.of(2), A.signature)
    assert member_K(A, query).group.element_names == ("1", "a", "a2")
    renamed = dataclasses.replace(A, names=("u", "v", "w", "lo", "hi"))
    result = member_K(renamed, query)
    assert result.group.element_names == ("u", "v", "w")
    assert result.canon.source.names == renamed.names
    assert member_K(A, query).canon.source.names == A.names


def test_member_K_trivial():
    from girale.algebra import trivial_algebra

    for sig in (frozenset(), SIGNATURE_FULL):
        result = member_K(trivial_algebra(sig), KClassQuery(PrimeSet.of(5), sig))
        assert result.member and result.trivial


def test_member_K_rejects_non_members():
    from tests.conftest import bounded_involutive_chain

    chain = bounded_involutive_chain()
    query = KClassQuery(PrimeSet.of(2), chain.signature)
    result = member_K(chain, query)
    assert not result.member
    assert result.failed == "unit-is-a-bound"


def test_member_K_signature_mismatch():
    algebra = build_R(Z2)
    with pytest.raises(ValueError):
        member_K(algebra, KClassQuery(PrimeSet.of(2), SIGNATURE_FULL))


def test_member_K_matches_sigma():
    query_sigs = [frozenset(), SIGNATURE_FULL]
    for chain in abelian_group_catalog(8):
        group = make_group(chain or [1])
        for sig in query_sigs:
            algebra = build_R(group, sig)
            for primes in (PrimeSet.of(2), PrimeSet.of(2, 3)):
                verdict = member_K(algebra, KClassQuery(primes, sig))
                assert verdict.member == check_sigma(group, primes).passed
