import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from girale import algebra as algebra_module
from girale.algebra import (
    AlgHom,
    FiniteAlgebra,
    NotResiduated,
    _alg_ops,
    _preservation_violations,
    algebra_from_json,
    algebra_to_json,
    check_class,
    congruence_set,
    enumerate_homs,
    meet_partitions,
    residuals_from_mult,
    trivial_algebra,
)
from girale.construct import SIGNATURE_FULL, build_R
from girale.capacity import CapacityError
from girale.group import GroupHom, _group_ops, abelian_group_catalog, group_homs, make_group

from tests.reference_kernel import direct_product, is_congruence, negative_cone, refines

Z2 = make_group([2])
Z3 = make_group([3])


def R(group, sig=frozenset()):
    return build_R(group, sig)


def test_residuals_on_flat_expansion():
    a = R(Z2)
    bot, top, one = 2, 3, 0
    assert a.imp[top][one] == bot
    b = R(Z3)
    # the residual of a group element is its inverse times the target
    assert b.imp[1][2] == 1  # a -> a2 = a
    assert b.imp[2][1] == 2  # a2 -> a = a2


def test_residuals_two_element_chain():
    meet = ((0, 0), (0, 1))
    join = ((0, 1), (1, 1))
    imp = residuals_from_mult(meet, join, meet)
    assert imp[0][0] == 1


def test_residuals_reject_nondistributive_meet():
    # diamond with three atoms: meet against its own order has no residual
    order = {0: set(), 1: {0}, 2: {0}, 3: {0}, 4: {0, 1, 2, 3}}
    n = 5

    def leq(x, y):
        return x == y or x in order[y]

    def meet_of(x, y):
        lowers = [z for z in range(n) if leq(z, x) and leq(z, y)]
        return max(lowers, key=lambda z: len([w for w in lowers if leq(w, z)]))

    meet = tuple(tuple(meet_of(x, y) for y in range(n)) for x in range(n))
    join = tuple(
        tuple(min((z for z in range(n) if leq(x, z) and leq(y, z)),
                  key=lambda z: sum(leq(w, z) for w in range(n)))
              for y in range(n))
        for x in range(n)
    )
    with pytest.raises(NotResiduated) as err:
        residuals_from_mult(meet, join, meet)
    assert len(err.value.maximal) > 1


def test_check_class_girale():
    assert check_class(R(Z3, SIGNATURE_FULL), "girale").passed


def test_check_class_reports_bang_violations():
    good = R(Z2, SIGNATURE_FULL)
    bad = dataclasses.replace(good, bang=(good.top,) * good.size)
    report = check_class(bad, "girale")
    assert not report.passed
    laws = {v.law for v in report.violations}
    assert "G1" in laws and "G2" in laws
    # the unit itself witnesses the decrease failure: !1 = top is not below 1
    assert any(v.law == "G2" and v.witness == (good.one,) for v in report.violations)


def test_trivial_algebra_passes_every_tag():
    t = trivial_algebra(SIGNATURE_FULL)
    for tag in ("crl", "prl", "bounded_prl", "a_algebra", "girale"):
        assert check_class(t, tag).passed


def test_check_class_signature_mismatch():
    with pytest.raises(ValueError):
        check_class(R(Z2), "girale")


def test_congruences_simple():
    result = congruence_set(R(Z2))
    assert result.count == 2
    assert result.is_simple() and result.is_fsi()


def test_congruences_trivial_algebra():
    result = congruence_set(trivial_algebra())
    assert result.count == 1
    assert not result.is_simple()
    assert result.is_fsi()


def test_congruences_product_not_simple():
    product = direct_product(R(Z2), R(Z2))
    result = congruence_set(product)
    assert result.count >= 4
    assert not result.is_simple()
    assert not result.is_fsi()
    # the kernels of the two projections
    left, right = tuple(x // 4 for x in range(16)), tuple(x % 4 for x in range(16))
    assert is_congruence(product, left) and is_congruence(product, right)
    delta = tuple(range(16))
    assert meet_partitions(left, right) == delta
    assert refines(delta, left)


def test_cone_congruence_count_matches():
    for group in (Z2, Z3, make_group([4])):
        algebra = R(group)
        assert congruence_set(algebra).count == congruence_set(negative_cone(algebra)).count
    product = direct_product(R(Z2), R(Z2))
    con_a = congruence_set(product)
    con_cone = congruence_set(negative_cone(product))
    assert con_a.count == con_cone.count
    assert _order_isomorphic(con_a.congruences, con_cone.congruences)


def _order_isomorphic(first, second):
    if len(first) != len(second):
        return False
    for perm in itertools.permutations(range(len(second))):
        ok = True
        for i in range(len(first)):
            for j in range(len(first)):
                if refines(first[i], first[j]) != refines(second[perm[i]], second[perm[j]]):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return True
    return False


def test_enumerate_homs_unbounded_expansion():
    homs = enumerate_homs(R(Z2), R(Z2))
    mappings = {h.mapping for h in homs}
    # constants must be preserved, so only the collapse to 1 joins the identity
    assert mappings == {(0, 1, 2, 3), (0, 0, 0, 0)}


def test_enumerate_homs_bounded_expansion_rigid():
    bounded = R(Z2, frozenset({"bot", "top"}))
    homs = enumerate_homs(bounded, bounded)
    assert [h.mapping for h in homs] == [(0, 1, 2, 3)]


def test_enumerate_homs_from_trivial():
    triv = trivial_algebra()
    assert [h.mapping for h in enumerate_homs(triv, triv, injective_only=True)] == [(0,)]
    into = enumerate_homs(triv, R(Z2), injective_only=True)
    assert [h.mapping for h in into] == [(0,)]


def test_hom_composition_closed():
    algebra = R(Z2)
    homs = enumerate_homs(algebra, algebra)
    mappings = {h.mapping for h in homs}
    for f in homs:
        for g in homs:
            assert tuple(g.mapping[v] for v in f.mapping) in mappings
    assert tuple(range(algebra.size)) in mappings


def test_residuation_corollaries():
    for group in (Z2, Z3):
        algebra = R(group)
        for a in range(algebra.size):
            for b in range(algebra.size):
                assert algebra.leq(algebra.mult[a][algebra.imp[a][b]], b)
                assert algebra.leq(a, algebra.imp[b][algebra.mult[b][a]])


def test_involution_on_pointed_expansions():
    for group in (Z2, Z3, make_group([2, 2])):
        algebra = build_R(group, frozenset({"0", "bot", "top"}))
        for a in range(algebra.size):
            neg = algebra.imp[a][algebra.zero]
            assert algebra.imp[neg][algebra.zero] == a


def test_girale_guard_image_properties():
    algebra = build_R(Z3, SIGNATURE_FULL)
    image = set(algebra.bang)
    for a in image:
        assert algebra.leq(a, algebra.one)
        for b in image:
            assert algebra.mult[a][b] in image


def test_capacity_guards(monkeypatch):
    """One bound on carriers: R(Z31) and R(Z15) answer under the default and not
    under a lower GIRALE_MAX_SIZE.  A hom enumeration stops past MAX_HOMS maps,
    in the engine that the group homs share."""
    z2_3 = make_group([2, 2, 2])
    r31, r15, r8 = (R(group, SIGNATURE_FULL) for group in (make_group([31]), make_group([15]), z2_3))
    assert congruence_set(r31).is_simple()
    assert len(enumerate_homs(r15, r15)) == 8
    monkeypatch.setenv("GIRALE_MAX_SIZE", "16")
    with pytest.raises(CapacityError, match="^congruence computation has size 17, exceeding the bound 16.$"):
        congruence_set(r15)
    with pytest.raises(CapacityError, match="^hom enumeration has size 17, exceeding the bound 16.$"):
        enumerate_homs(R(Z2, SIGNATURE_FULL), r15)
    monkeypatch.delenv("GIRALE_MAX_SIZE")
    monkeypatch.setattr(algebra_module, "MAX_HOMS", 167)  # Z2^3 has 168 automorphisms
    searches = (lambda: enumerate_homs(r8, r8, True), lambda: group_homs(z2_3, z2_3, True))
    for search in searches:
        with pytest.raises(CapacityError, match="^Hom enumeration finds more than 167 maps.$"):
            search()
    monkeypatch.setattr(algebra_module, "MAX_HOMS", 168)
    assert [len(search()) for search in searches] == [168, 168]


def test_algebra_json_round_trip():
    algebra = build_R(Z3, SIGNATURE_FULL)
    again = algebra_from_json(algebra_to_json(algebra))
    assert again == algebra
    assert again.names == algebra.names


def test_constructor_checks_every_table_with_the_same_messages():
    algebra = build_R(Z3, SIGNATURE_FULL)
    for label in ("meet", "join", "mult", "imp"):
        table = [list(row) for row in getattr(algebra, label)]
        for bad in (-1, algebra.size):
            table[2][3] = bad
            broken = tuple(tuple(row) for row in table)
            with pytest.raises(ValueError, match=f"^{label} table entry out of range or not an integer.$"):
                dataclasses.replace(algebra, **{label: broken})
        with pytest.raises(ValueError, match=f"^{label} table is not 5x5.$"):
            dataclasses.replace(algebra, **{label: getattr(algebra, label)[:4]})
    with pytest.raises(ValueError, match="^Constant one=0 out of range or not an integer.$"):
        FiniteAlgebra(0, (), (), (), (), 0)
    for one in (None, -1, algebra.size):  # the unit is not optional
        with pytest.raises(ValueError, match=f"^Constant one={one} out of range or not an integer.$"):
            dataclasses.replace(algebra, one=one)
    with pytest.raises(ValueError, match="^names length does not match size.$"):
        dataclasses.replace(algebra, names=algebra.names[:4])
    with pytest.raises(ValueError, match="^bang table malformed.$"):
        dataclasses.replace(algebra, bang=algebra.bang[:4])


def test_hom_check_runs_once_per_distinct_map_and_a_failure_raises_each_time(hom_checks):
    """The hom check is computed once per (source, target, mapping): for equal
    but distinct map objects, for algebras that differ only in names, and for
    group maps alike.  A failing map raises the same message on every call."""
    algebra = R(Z3)
    renamed = dataclasses.replace(algebra, names=tuple(f"n{a}" for a in range(algebra.size)))
    identity = tuple(range(algebra.size))
    for source, target in ((algebra, algebra), (renamed, algebra), (algebra, renamed)):
        for _ in range(3):
            AlgHom(source, target, identity).require_embedding("The identity")
            assert AlgHom(source, target, identity).violations() == []
    for _ in range(3):
        GroupHom(Z3, Z3, (0, 1, 2)).require_embedding("The group identity")
    assert hom_checks == [identity, (0, 1, 2)]
    mapping = list(range(algebra.size))
    mapping[0], mapping[1] = mapping[1], mapping[0]
    for who, image, values in (("A swap", algebra, tuple(mapping)),
                               ("A collapse", trivial_algebra(), (0,) * algebra.size)):
        messages = set()
        for _ in range(3):
            with pytest.raises(ValueError, match=f"^{who} is not") as caught:
                AlgHom(algebra, image, values).require_embedding(who)
            messages.add(str(caught.value))
        assert len(messages) == 1
    # the collapse fails injectivity before any hom check
    assert hom_checks == [identity, (0, 1, 2), tuple(mapping)]


_CATALOG = [R(make_group(chain or [1]), sig)
            for chain in abelian_group_catalog(4) for sig in (frozenset(), SIGNATURE_FULL)]
_GROUPS = [make_group(chain or [1]) for chain in abelian_group_catalog(6)]


def _maps_between(structures):
    def mapping(pair):
        source, target = pair
        return st.tuples(*[st.integers(0, target.size - 1)] * source.size).map(
            lambda h: (source, target, h)
        )
    return st.tuples(st.sampled_from(structures), st.sampled_from(structures)).flatmap(mapping)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_maps_between(_CATALOG), _maps_between(_GROUPS)))
def test_memoised_violations_match_a_fresh_check(case):
    """For random maps between catalog algebras and between groups, violations()
    from the memo, asked twice and on a renamed source, is the fresh check."""
    source, target, h = case
    if isinstance(source, FiniteAlgebra):
        hom, ops = AlgHom, _alg_ops(source, target)
        sources = [source, dataclasses.replace(source, names=tuple(f"m{a}" for a in range(source.size)))]
    else:
        hom, ops, sources = GroupHom, _group_ops(source, target), [source]
    fresh = _preservation_violations(h, ops)
    for _ in range(2):
        assert all(hom(s, target, h).violations() == fresh for s in sources)


def test_pickle_round_trip_builds_a_fresh_algebra(monkeypatch):
    """Unpickling goes through the constructor: an equal algebra with its names,
    its hash recomputed and not carried over."""
    A = build_R(make_group([12]), SIGNATURE_FULL)
    hash(A)
    data = pickle.dumps(A)
    built = []
    init = FiniteAlgebra.__init__
    monkeypatch.setattr(FiniteAlgebra, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    copy = pickle.loads(data)
    assert built == [copy] and "_hash" not in vars(copy)
    assert copy == A and copy.names == A.names
    assert hash(copy) == hash(A)
