import itertools
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from girale import group as group_module
from girale.capacity import CapacityError
from girale.group import (
    FiniteGroup,
    GroupHom,
    PrimeSet,
    abelian_group_catalog,
    check_sigma,
    group_from_json,
    group_from_table,
    group_homs,
    invariant_factors_of,
    is_prime,
    make_group,
    pushout,
)

from tests import reference_kernel as ref


def identity(group: FiniteGroup) -> GroupHom:
    return GroupHom(group, group, tuple(range(group.size)))


def embeddings(a: FiniteGroup, b: FiniteGroup):
    return group_homs(a, b, injective_only=True)


def test_make_group_cyclic():
    z3 = make_group([3])
    assert z3.size == 3
    assert z3.element_names == ("1", "a", "a2")
    assert z3.invariant_factors == (3,)


def test_make_group_trivial():
    t = make_group([1])
    assert t.size == 1
    assert t.invariant_factors == ()


def test_make_group_klein():
    k = make_group([2, 2])
    assert k.size == 4
    # every element is its own inverse; test_make_group_tables_are_groups checks the laws
    for g in range(4):
        assert k.mul(g, g) == k.identity
        assert k.inv(g) == g


def test_make_group_rejects_bad_factors():
    with pytest.raises(ValueError):
        make_group([])
    with pytest.raises(ValueError):
        make_group([0])


def test_capacity_bound():
    with pytest.raises(CapacityError):
        make_group([67])


def test_capacity_env_override(monkeypatch):
    monkeypatch.setenv("GIRALE_MAX_SIZE", "8")
    with pytest.raises(CapacityError):
        make_group([9])
    monkeypatch.setenv("GIRALE_MAX_SIZE", "70")
    assert make_group([65]).size == 65


def test_group_from_table_validates():
    # a "table" where row 1 is constant: no inverses
    with pytest.raises(ValueError):
        group_from_table([[0, 1], [1, 1]])


def test_prime_set_rejects_composites():
    with pytest.raises(ValueError):
        PrimeSet.of(4)
    assert sorted(PrimeSet.of(3, 2)) == [2, 3]
    assert not is_prime(1)


def test_check_sigma_examples():
    z3 = make_group([3])
    failing = check_sigma(z3, PrimeSet.of(3))
    assert not failing.passed
    assert failing.witness_prime == 3
    assert failing.witness_element != z3.identity
    assert z3.orders[failing.witness_element] == 3
    assert check_sigma(z3, PrimeSet.of(2)).passed
    assert check_sigma(make_group([1]), PrimeSet.of(2, 3, 5)).passed


def test_check_sigma_coprime_orders_always_pass():
    primes = PrimeSet.of(2, 3)
    for chain in abelian_group_catalog(12):
        group = make_group(chain or [1])
        coprime = all(group.size % p for p in primes)
        if coprime:
            assert check_sigma(group, primes).passed


def test_invariant_factors():
    assert invariant_factors_of(make_group([2, 4])) == (2, 4)
    assert invariant_factors_of(make_group([2, 3])) == (6,)
    assert invariant_factors_of(make_group([12])) == (12,)
    assert invariant_factors_of(make_group([2, 2, 2])) == (2, 2, 2)


def test_order_of():
    z6 = make_group([6])
    orders = sorted(z6.orders)
    assert orders == [1, 2, 3, 3, 6, 6]


def test_pushout_coprime_over_trivial():
    trivial = make_group([1])
    z3, z5 = make_group([3]), make_group([5])
    po = pushout(embeddings(trivial, z3)[0], embeddings(trivial, z5)[0])
    assert po.group.size == 15
    assert invariant_factors_of(po.group) == (15,)


def test_pushout_absorbs_subgroup():
    z3, z9 = make_group([3]), make_group([9])
    into_z9 = embeddings(z3, z9)[0]
    po = pushout(identity(z3), into_z9)
    assert invariant_factors_of(po.group) == (9,)


def test_pushout_of_identities():
    z4 = make_group([4])
    po = pushout(identity(z4), identity(z4))
    assert invariant_factors_of(po.group) == (4,)


def test_pushout_requires_injective():
    z2, z4 = make_group([2]), make_group([4])
    collapse = GroupHom(z4, z2, (0, 1, 0, 1))
    assert not collapse.violations()
    with pytest.raises(ValueError):
        pushout(collapse, identity(z4))


def test_pushout_legs_commute_and_embed():
    catalog = [make_group(c or [1]) for c in abelian_group_catalog(8)]
    spans = 0
    for a, b, c in itertools.product(catalog, repeat=3):
        if b.size * c.size > 64 or a.size > 4:
            continue
        for f in embeddings(a, b)[:2]:
            for g in embeddings(a, c)[:2]:
                po = pushout(f, g)
                for leg in (po.into_left, po.into_right):
                    assert leg.is_injective() and not leg.violations()
                for x in range(a.size):
                    assert po.into_left(f(x)) == po.into_right(g(x))
                checked = group_from_table(po.group.table, po.group.element_names)
                assert checked == po.group
                assert checked.invariant_factors == po.group.invariant_factors
                spans += 1
    assert spans > 40


def test_make_group_tables_are_groups():
    for chain in abelian_group_catalog(64):
        group = make_group(chain or [1])
        checked = group_from_table(group.table, group.element_names)
        assert checked == group  # same table, identity, inverses and names
        assert checked.invariant_factors == group.invariant_factors


def test_pushout_preserves_sigma():
    primes = PrimeSet.of(2)
    z3, z9 = make_group([3]), make_group([9])
    po = pushout(embeddings(z3, z9)[0], embeddings(z3, z9)[1])
    assert (z3.size * z9.size) % po.group.size == 0
    assert check_sigma(po.group, primes).passed


def test_pushout_is_built_once_for_equal_legs():
    """Legs that are equal but separate objects find the first pushout in the
    memo, and it is still the reference's."""
    pushout.cache_clear()
    z3, z9 = make_group([3]), make_group([9])
    f, g = embeddings(z3, z9)
    first = pushout(f, g)
    z3_again, z9_again = make_group([3]), make_group([9])
    assert z3_again is not z3 and z9_again is not z9
    f_again = GroupHom(z3_again, z9_again, tuple(f.mapping))
    g_again = GroupHom(z3_again, make_group([9]), tuple(g.mapping))
    again = pushout(f_again, g_again)
    info = group_module._pushout.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert again == first
    table, names, into_left, into_right = ref.pushout(f_again, g_again)
    assert [list(row) for row in again.group.table] == table
    assert list(again.group.element_names) == names
    assert (again.into_left.mapping, again.into_right.mapping) == (into_left, into_right)


def test_pushout_takes_a_leg_with_a_list_mapping():
    """A map keeps its mapping as a tuple, so a leg given by a list enters the
    pushout memo and answers as the same leg given by a tuple."""
    pushout.cache_clear()
    z2, z4 = make_group([2]), make_group([4])
    listed = GroupHom(z2, z4, [0, 2])
    from_list = pushout(listed, identity(z2))
    pushout.cache_clear()
    from_tuple = pushout(GroupHom(z2, z4, (0, 2)), identity(z2))
    assert from_list == from_tuple and from_list.group.size == 4
    assert listed.mapping == (0, 2) and listed == GroupHom(z2, z4, (0, 2))


def test_pushout_memo_reads_the_size_bound_on_every_call(monkeypatch):
    """A lowered GIRALE_MAX_SIZE is a new key: the cached pushout of Z3 and Z5
    over the trivial group (size 15) does not get past either capacity check."""
    pushout.cache_clear()
    monkeypatch.delenv("GIRALE_MAX_SIZE", raising=False)
    trivial, z3, z5 = make_group([1]), make_group([3]), make_group([5])
    f, g = embeddings(trivial, z3)[0], embeddings(trivial, z5)[0]
    assert pushout(f, g).group.size == 15
    monkeypatch.setenv("GIRALE_MAX_SIZE", "14")  # the quotient is too big
    with pytest.raises(CapacityError, match="pushout has size 15"):
        pushout(f, g)
    monkeypatch.setenv("GIRALE_MAX_SIZE", "3")  # so is the intermediate B x C
    with pytest.raises(CapacityError, match="intermediate has size 15"):
        pushout(f, g)
    monkeypatch.delenv("GIRALE_MAX_SIZE")
    assert pushout(f, g).group.size == 15
    assert group_module._pushout.cache_info().hits == 1


def test_pushout_rejects_a_bad_leg_on_every_call():
    """Failures are not memoised: each call checks the legs again."""
    pushout.cache_clear()
    z2, z4 = make_group([2]), make_group([4])
    collapse = GroupHom(z4, z2, (0, 1, 0, 1))
    for _ in range(3):
        with pytest.raises(ValueError, match="Pushout leg f is not injective"):
            pushout(collapse, identity(z4))
        with pytest.raises(ValueError, match="Pushout leg g is not injective"):
            pushout(identity(z4), collapse)
    info = group_module._pushout.cache_info()
    assert (info.misses, info.hits, info.currsize) == (6, 0, 0)


def test_group_homs_counts():
    z2, z4 = make_group([2]), make_group([4])
    assert len(group_homs(z2, z4)) == 2
    assert len(embeddings(z2, z4)) == 1
    assert len(embeddings(z2, z2)) == 1
    assert len(embeddings(make_group([3]), make_group([9]))) == 2
    assert not any(h.violations() for h in group_homs(z4, z4))


def test_group_json_round_trip():
    k = make_group([2, 2])
    again = group_from_json({"table": [list(row) for row in k.table], "names": list(k.element_names)})
    assert again.table == k.table
    assert again.element_names == k.element_names
    assert group_from_json({"invariant_factors": [3]}).size == 3


_DUMP = """
import pickle, sys
from girale.group import make_group
group = make_group([2, 4])
hash(group), group.orders, group.invariant_factors
sys.stdout.buffer.write(pickle.dumps(group))
"""

_LOAD = """
import pickle, sys
from girale.group import make_group
group = pickle.loads(sys.stdin.buffer.read())
print(hash(group) == hash(make_group([2, 4])), group == make_group([2, 4]), group.describe())
"""


def test_pickled_group_drops_its_cached_hash():
    """A hash cached under one PYTHONHASHSEED must not survive into another:
    the element names are strings."""
    src = str(Path(__import__("girale").__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": "1"}
    data = subprocess.run(
        [sys.executable, "-c", _DUMP], env=env, capture_output=True, check=True
    ).stdout
    group = pickle.loads(data)
    assert hash(group) == hash(make_group([2, 4]))
    env["PYTHONHASHSEED"] = "2"
    out = subprocess.run(
        [sys.executable, "-c", _LOAD], env=env, input=data, capture_output=True, check=True
    ).stdout
    assert out.split() == [b"True", b"True", b"Z2xZ4"]


def test_pickle_round_trip_builds_a_fresh_group(monkeypatch):
    """Unpickling goes through the constructor: an equal group with its names,
    its hash recomputed and not carried over."""
    group = make_group([2, 6])
    hash(group)
    data = pickle.dumps(group)
    built = []
    init = FiniteGroup.__init__
    monkeypatch.setattr(FiniteGroup, "__init__", lambda self, *a: built.append(self) or init(self, *a))
    copy = pickle.loads(data)
    assert built == [copy] and "_hash" not in vars(copy)
    assert copy == group and copy.element_names == group.element_names
    assert hash(copy) == hash(group)


def test_group_facts_are_computed_once():
    group = make_group([2, 6])
    assert group.orders is group.orders
    assert group.invariant_factors is group.invariant_factors == (2, 6)
    assert hash(group) == hash(make_group([2, 6]))
    assert group == pickle.loads(pickle.dumps(group))
