"""The group layer against its reference (tests/reference_kernel.py).

Every abelian group of order <= 64, and some factor lists that are not
invariant-factor chains, must give the reference's tables, names, element
orders, invariant factors and sigma witnesses.  Pushouts of injective spans
B <- A -> C with |B|*|C| <= 64 must give the reference's quotient table,
names and legs.  The invariant factors, read from element-order counts, must
equal the reference's per-prime partitions also on relabelled tables.  The
catalog of invariant-factor chains must equal every chain found by brute
force, and leave nothing to the cyclic garbage collector.
"""

import gc
import itertools
import math
import random

import pytest

from girale.group import (
    FiniteGroup,
    PrimeSet,
    abelian_group_catalog,
    check_sigma,
    group_from_table,
    group_homs,
    make_group,
    pushout,
)

from tests import reference_kernel as ref

CHAINS = [chain or (1,) for chain in abelian_group_catalog(64)]
FACTOR_LISTS = CHAINS + [(2, 3), (3, 2), (1, 4, 1, 2), (6, 2), (5, 1), (2, 9), (4, 2, 3)]
PRIME_SETS = [PrimeSet.of(p) for p in (2, 3, 5, 7, 11, 13)] + [
    PrimeSet.of(2, 3), PrimeSet.of(3, 2, 5), PrimeSet.of(5, 7), PrimeSet.of(2, 13)
]


def test_make_group_matches_reference():
    for factors in FACTOR_LISTS:
        group = make_group(factors)
        table, names = ref.make_group(factors)
        assert [list(row) for row in group.table] == table, factors
        assert list(group.element_names) == names, factors
        assert group.orders == tuple(ref.order_of(group, a) for a in range(group.size))
        assert group.invariant_factors == ref.invariant_factors_of(group), factors
        for primes in PRIME_SETS:
            result = check_sigma(group, primes)
            expected = ref.check_sigma(group, primes)
            assert (result.passed, result.witness_element, result.witness_prime) == expected


def _spans():
    """Injective spans B <- A -> C over the catalog with |B|*|C| <= 64: for
    each triple, every 11th pair of legs (all of them for up to 8 pairs): 4245
    of the 36256 spans."""
    groups = [make_group(chain) for chain in CHAINS]
    embeddings = {}

    def into(a, b):
        if (a, b) not in embeddings:
            embeddings[a, b] = group_homs(groups[a], groups[b], injective_only=True)
        return embeddings[a, b]

    for a, b, c in itertools.product(range(len(groups)), repeat=3):
        if groups[b].size * groups[c].size > 64 or groups[a].size > min(groups[b].size, groups[c].size):
            continue
        legs = list(itertools.product(into(a, b), into(a, c)))
        yield from legs if len(legs) <= 8 else legs[::11]


def test_pushout_matches_reference():
    count = 0
    for f, g in _spans():
        po = pushout(f, g)
        table, names, into_left, into_right = ref.pushout(f, g)
        assert [list(row) for row in po.group.table] == table
        assert list(po.group.element_names) == names
        assert po.into_left.mapping == into_left
        assert po.into_right.mapping == into_right
        count += 1
    assert count == 4245


def _relabelled(group, rng):
    """The group on a random relabelling of its elements, checked by group_from_table."""
    perm = list(range(group.size))
    rng.shuffle(perm)
    table = [[0] * group.size for _ in perm]
    for a, b in itertools.product(range(group.size), repeat=2):
        table[perm[a]][perm[b]] = perm[group.mul(a, b)]
    return group_from_table(table)


def test_invariant_factors_match_reference_on_relabelled_groups():
    """The order-count characterization on every abelian group of order <= 64
    and on a copy whose identity and order of elements are shuffled."""
    rng = random.Random(23)
    checked = 0
    for chain in CHAINS:
        group = make_group(chain)
        for copy in (group, _relabelled(group, rng)):
            assert copy.invariant_factors == ref.invariant_factors_of(copy) == tuple(
                d for d in chain if d > 1
            ), chain
            checked += 1
    assert checked == 234


def test_non_group_table_raises_value_error():
    """Orders (1, 2, 2) over three elements: no divisor of 3 fits the counts."""
    fake = FiniteGroup(3, ((0, 0, 0),) * 3, 0, (0, 0, 0), ("e", "x", "y"))
    assert fake.orders == (1, 2, 2)
    with pytest.raises(ValueError, match="not a group"):
        fake.invariant_factors


def test_abelian_group_catalog_is_every_chain():
    """For each bound up to 129, the catalog is every tuple of factors >= 2,
    each dividing the next, whose product is at most the bound, ordered by
    product and then by the tuple."""
    chains = [()]
    for length in range(1, 8):  # a product <= 129 has at most 7 factors >= 2
        top = 129 // 2 ** (length - 1)
        for chain in itertools.product(range(2, top + 1), repeat=length):
            if math.prod(chain) <= 129 and all(b % a == 0 for a, b in zip(chain, chain[1:])):
                chains.append(chain)
    chains.sort(key=lambda c: (math.prod(c), c))
    for max_order in range(130):  # the trivial group is in every catalog, even at bound 0
        expected = [c for c in chains if math.prod(c) <= max(max_order, 1)]
        assert abelian_group_catalog(max_order) == expected
    # one group for each of the 11 squarefree orders, 2 of orders 4, 9 and 12, 3 of 8, 5 of 16
    assert len(abelian_group_catalog(16)) == 11 + 2 * 3 + 3 + 5


def test_abelian_group_catalog_leaves_no_cycle():
    """Reference counting alone frees what a call builds: the cyclic collector
    stays off and finds nothing after ten calls."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for _ in range(10):
            abelian_group_catalog(7)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
