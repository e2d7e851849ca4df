"""Group expansions and membership against their reference (tests/reference_kernel.py).

``build_R`` writes its rows from the layout (the group, then bot, then top);
the reference calls one function per operation on every cell.  ``member_K``
reads the shape through ``split_R``; the reference searches the bounds and
checks the sentences itself.  Both must agree on members, on non-members that
pass their laws, and on algebras that fail them.
"""

import dataclasses
import itertools
import random

import pytest

from girale import construct
from girale.algebra import (
    OPTIONAL_SYMBOLS,
    AlgHom,
    check_signature_laws,
    trivial_algebra,
)
from girale.amalgam import class_catalog
from girale.construct import (
    SIGNATURE_FULL,
    KClassQuery,
    NotAnExpansion,
    build_R,
    lift_embedding,
    member_K,
    restrict_embedding,
    split_R,
)
from girale.group import PrimeSet, abelian_group_catalog, group_homs, make_group
from girale.proofs import _refutation_catalog

from tests import reference_kernel as ref
from tests.conftest import bounded_involutive_chain

SIGNATURES = (frozenset(), frozenset({"0"}), frozenset({"0", "bot", "top"}), SIGNATURE_FULL)
PRIME_SETS = (PrimeSet.of(2), PrimeSet.of(3), PrimeSet.of(5), PrimeSet.of(2, 5))


def _expansions(max_order: int):
    return [
        build_R(make_group(chain or [1]), sig)
        for chain in abelian_group_catalog(max_order)
        for sig in SIGNATURES
    ]


def _relabelled(A, new):
    """A copy of A whose element a is element ``new[a]``."""
    n = A.size
    old = [0] * n
    for a, b in enumerate(new):
        old[b] = a

    def table(t):
        return tuple(tuple(new[t[old[a]][old[b]]] for b in range(n)) for a in range(n))

    def const(c):
        return None if c is None else new[c]

    return dataclasses.replace(
        A,
        meet=table(A.meet),
        join=table(A.join),
        mult=table(A.mult),
        imp=table(A.imp),
        one=new[A.one],
        zero=const(A.zero),
        bot=const(A.bot),
        top=const(A.top),
        bang=None if A.bang is None else tuple(new[A.bang[old[a]]] for a in range(n)),
        names=tuple(A.names[old[a]] for a in range(n)) if A.names is not None else None,
    )


def _reversed(A):
    """A copy of A with its universe in reverse order: top first, the group last."""
    return _relabelled(A, [A.size - 1 - a for a in range(A.size)])


def _non_members():
    """Algebras that pass their laws but are not shaped like an expansion of a
    group with the unit as its constant 0."""
    z1, z2, z3 = (make_group([d]) for d in (1, 2, 3))
    out = [bounded_involutive_chain()]
    for sig in SIGNATURES:
        out.append(ref.direct_product(build_R(z2, sig), build_R(z3, sig)))
        out.append(ref.direct_product(build_R(z1, sig), build_R(z1, sig)))
    out.append(ref.negative_cone(build_R(z3)))
    out.append(ref.negative_cone(ref.direct_product(build_R(z2), build_R(z2))))
    for sig in (frozenset({"0"}), SIGNATURE_FULL):
        for group in (z2, z3, make_group([2, 2])):
            A = build_R(group, sig)
            out.extend(dataclasses.replace(A, zero=g) for g in range(group.size) if g != A.one)
    return out


FAMILY = (
    [trivial_algebra(sig) for sig in SIGNATURES]
    + _expansions(8)
    + [
        A
        for primes in PRIME_SETS
        for sig in SIGNATURES
        for _, A, _ in class_catalog(primes, sig, 7)
    ]
    + _refutation_catalog()
    + _non_members()
)
FAMILY += [_reversed(A) for A in FAMILY]


def _new_verdict(A, primes):
    result = member_K(A, KClassQuery(primes, A.signature))
    canon = result.canon.mapping if result.canon is not None else None
    return (result.member, result.trivial, result.failed, result.witness, result.group, canon)


def test_build_R_rows_match_cell_functions():
    checked = 0
    for chain in abelian_group_catalog(16):
        group = make_group(chain or [1])
        for sig in SIGNATURES:
            new, old = build_R(group, sig), ref.build_R(group, sig)
            assert new == old
            assert new.names == old.names
            assert (new.zero, new.bot, new.top, new.bang) == (old.zero, old.bot, old.top, old.bang)
            checked += 1
    assert checked == 4 * len(abelian_group_catalog(16))


def test_build_R_matches_the_per_signature_reference():
    """The tables and names are built once per group and shared by every
    signature; each expansion equals one built afresh for its signature."""
    signatures = [
        frozenset(combo) for k in range(5) for combo in itertools.combinations(OPTIONAL_SYMBOLS, k)
    ]
    groups = [make_group(chain or [1]) for chain in abelian_group_catalog(12)]
    assert (len(groups), len(signatures)) == (17, 16)
    build_R.cache_clear()
    for group in groups:
        for sig in signatures:
            new, old = build_R(group, sig), ref.build_R_reference(group, sig)
            for field in dataclasses.fields(new):
                assert getattr(new, field.name) == getattr(old, field.name), field.name
    assert build_R.cache_info().currsize == 17 * 16
    assert construct._expansion.cache_info().currsize == 17
    build_R.cache_clear()
    assert build_R.cache_info().currsize == construct._expansion.cache_info().currsize == 0


def test_non_members_pass_their_laws():
    for A in _non_members():
        assert check_signature_laws(A).passed


def test_member_K_matches_reference_on_family():
    failures = set()
    for A in FAMILY:
        for primes in PRIME_SETS:
            old = ref.member_K(A, primes)
            assert _new_verdict(A, primes) == old
            failures.add(old[2])
    # the family reaches every verdict that algebras passing their laws can get
    assert {"unit-is-a-bound", "sentence-1", "structure-mismatch", None} <= failures
    assert {"sigma-2", "sigma-3", "sigma-5"} <= failures


def test_member_K_matches_reference_under_each_prime_set_in_turn():
    """Every query after the first finds the shape of the algebra cached: the
    verdict, failure, witness, group names and canon still match."""
    member_K.cache_clear()
    assert member_K.cache_info().currsize == construct._shape.cache_info().currsize == 0
    for primes in PRIME_SETS:
        for A in FAMILY:
            assert _new_verdict(A, primes) == ref.member_K(A, primes)
    # one shape check per algebra and names, whatever the number of queries
    assert construct._shape.cache_info().misses == len({(A, A.names) for A in FAMILY})


def _shuffled(A, seed):
    new = list(range(A.size))
    random.Random(seed).shuffle(new)
    return _relabelled(A, new)


def _zero_and_bang_edits():
    """The expansions of order <= 12 in six signatures, each copy with 0 moved
    to another element and each with one value of ! changed, kept when they
    pass their laws; a shuffled and a reversed copy of each; and FAMILY with a
    shuffled copy of each of its algebras."""
    base = []
    for chain in abelian_group_catalog(12):
        for sig in SIGNATURES + (frozenset({"bang"}), frozenset({"0", "bang"})):
            A = build_R(make_group(chain or [1]), sig)
            base.append(A)
            if A.zero is not None:
                base += [dataclasses.replace(A, zero=z) for z in range(A.size) if z != A.zero]
            for a, b in itertools.product(range(A.size), repeat=2) if A.bang is not None else ():
                if b != A.bang[a]:
                    bang = A.bang[:a] + (b,) + A.bang[a + 1:]
                    base.append(dataclasses.replace(A, bang=bang))
    base = [A for A in base if check_signature_laws(A).passed]
    return (
        base
        + [_shuffled(A, seed) for seed, A in enumerate(base)]
        + [_reversed(A) for A in base]
        + FAMILY
        + [_shuffled(A, seed) for seed, A in enumerate(FAMILY)]
    )


def test_structure_mismatch_is_zero_off_the_unit(violation_calls):
    """Once split_R takes an algebra apart, its canonical map onto the rebuilt
    expansion is a homomorphism just when 0 is absent or the unit: member_K
    decides structure-mismatch so, with no hom check of its own, and each of
    its verdicts is the reference's.  No edit of ! passes the laws, and a
    build_R output is a member whose canon is the identity."""
    member_K.cache_clear()
    accepted = mismatched = rebuilt = 0
    for A in _zero_and_bang_edits():
        try:
            parts = split_R(A)
        except ValueError:
            continue
        violation_calls.clear()
        for primes in (PrimeSet.of(2), PrimeSet.of(13)):
            assert _new_verdict(A, primes) == ref.member_K(A, primes)
        mismatch = member_K(A, KClassQuery(PrimeSet.of(13), A.signature)).failed is not None
        assert violation_calls == []
        layout = {a: i for i, a in enumerate(parts.to_algebra + (parts.bot, parts.top))}
        canon = AlgHom(A, build_R(parts.group, A.signature), tuple(map(layout.get, range(A.size))))
        assert mismatch == bool(canon.violations()) == (A.zero not in (None, A.one))
        if canon.target == A:
            assert not mismatch and canon.mapping == tuple(range(A.size))
            rebuilt += 1
        accepted += 1
        mismatched += mismatch
    assert (accepted, mismatched, rebuilt) == (2286, 1476, 248)


def test_split_R_is_the_shape_check():
    """split_R raises on each non-member whose shape is wrong, with member_K's
    reason and witness, and otherwise finds the reference's bounds and group."""
    raised = 0
    for A in FAMILY:
        if A.size == 1:
            continue
        _, _, failed, witness, _, _ = ref.member_K(A, PrimeSet.of(2))
        if failed is None or failed == "structure-mismatch" or failed.startswith("sigma-"):
            parts = split_R(A)
            assert (parts.bot, parts.top, parts.group, parts.to_algebra) == ref.split_R(A)
            continue
        with pytest.raises(NotAnExpansion) as caught:
            split_R(A)
        assert (caught.value.failed, caught.value.witness) == (failed, witness)
        raised += 1
    assert raised >= len(_non_members()) // 2


def test_split_R_rejects_failed_laws():
    A = build_R(make_group([3]), SIGNATURE_FULL)
    mult = [list(row) for row in A.mult]
    mult[1][1] = 0
    broken = dataclasses.replace(A, mult=tuple(tuple(row) for row in mult))
    assert not check_signature_laws(broken).passed
    with pytest.raises(ValueError, match="fails its class laws") as caught:
        split_R(broken)
    assert not isinstance(caught.value, NotAnExpansion)
    for primes in PRIME_SETS:
        with pytest.raises(ValueError, match="fails its class laws"):
            member_K(broken, KClassQuery(primes, broken.signature))
        with pytest.raises(ValueError, match="fails its class laws"):
            ref.member_K(broken, primes)


def test_split_R_keeps_its_group_part_per_table_set():
    """After the law check, split_R's work is kept per table set and names:
    member_K.cache_clear() empties it, and over FAMILY each kept answer is
    computed once while each failure is computed again on every call."""
    member_K.cache_clear()
    assert construct._split_tables.cache_info().currsize == 0
    kept, raised = set(), 0
    for A in FAMILY + FAMILY:
        if not check_signature_laws(A).passed:
            continue
        try:
            split_R(A)
        except NotAnExpansion:
            raised += 1
        else:
            kept.add((A.meet, A.join, A.mult, A.imp, A.one, A.names))
    info = construct._split_tables.cache_info()
    assert raised and (info.misses, info.currsize) == (len(kept) + raised, len(kept))


def test_signature_variants_share_one_group_part(monkeypatch):
    """The four signature variants of one expansion build its group once."""
    calls = []
    group_from_table = construct.group_from_table
    monkeypatch.setattr(
        construct, "group_from_table", lambda *a: calls.append(a) or group_from_table(*a)
    )
    member_K.cache_clear()
    group = make_group([2, 4])
    parts = [split_R(build_R(group, sig)) for sig in SIGNATURES]
    assert len(calls) == 1
    assert all(p == parts[0] for p in parts) and parts[0].group == group


def test_split_R_raises_each_failure_on_every_call(monkeypatch):
    """A sentence-1 or group-laws failure is raised again on every call, and a
    later call that passes is not answered by an earlier failure."""
    member_K.cache_clear()
    sentence_1 = next(
        A for A in FAMILY
        if check_signature_laws(A).passed and ref.member_K(A, PrimeSet.of(2))[2] == "sentence-1"
    )
    for _ in range(3):
        with pytest.raises(NotAnExpansion, match="sentence-1"):
            split_R(sentence_1)
    calls = []

    def no_group(*args):
        calls.append(args)
        raise ValueError("not a group")

    monkeypatch.setattr(construct, "group_from_table", no_group)
    A = build_R(make_group([3]), SIGNATURE_FULL)
    for _ in range(3):
        with pytest.raises(NotAnExpansion, match="group-laws"):
            split_R(A)
    assert len(calls) == 3
    monkeypatch.undo()
    assert split_R(A).group == make_group([3])


def test_one_restriction_on_reversed_expansions():
    """restrict_embedding, which also gives the amalgamation legs, reads the
    embedding on the interiors of expansions whose group does not sit at 0..n-1."""
    groups = [make_group(chain or [1]) for chain in abelian_group_catalog(8)]
    query = KClassQuery(PrimeSet.of(11), frozenset())
    legs = 0
    for source in groups:
        for target in groups:
            for alpha in group_homs(source, target, injective_only=True):
                beta = lift_embedding(alpha)
                A, B = _reversed(beta.source), _reversed(beta.target)
                back_a, back_b = A.size - 1, B.size - 1
                mapping = [0] * A.size
                for a, image in enumerate(beta.mapping):
                    mapping[back_a - a] = back_b - image
                reversed_beta = AlgHom(A, B, tuple(mapping))
                restricted = restrict_embedding(reversed_beta)
                src, tgt = member_K(A, query), member_K(B, query)
                assert not restricted.violations() and restricted.is_injective()
                for g, h in enumerate(restricted.mapping):
                    assert tgt.parts.to_algebra[h] == mapping[src.parts.to_algebra[g]]
                legs += 1
    assert legs > 50
