"""``congruence_set`` against two oracles.

The reference (tests/reference_kernel.py) closes every principal congruence
on its own and every join under all the operations again; it must give the
same congruence set on the 272 algebras of acceptance criterion 03, on the
pairwise products of at most 16 elements and their negative cones, and on
R(Z2) x R(Z3).  On random tables of at most 5 elements, which need satisfy
no law and some of which read one argument only, the congruences must be
exactly the set partitions that ``is_congruence`` accepts.  ``is_fsi``, one
meet of every congruence above Delta, must agree with the reference's pairwise
meets.

Where the core laws hold, ``congruence_set`` closes Cg(u, 1) for each u < 1
alone.  The Goedel and Lukasiewicz chains, where every element lies below 1,
and an R(Z5) whose ``!`` no longer meets G1-G4 check that path against the
reference; a count of ``_principal`` calls checks which path runs.
"""

import dataclasses
import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from girale import algebra
from girale.algebra import (
    OPTIONAL_SYMBOLS,
    FiniteAlgebra,
    check_signature_laws,
    congruence_set,
    trivial_algebra,
)
from girale.construct import SIGNATURE_FULL, build_R
from girale.group import abelian_group_catalog, make_group

from tests.reference_kernel import (
    congruence_set_reference,
    direct_product,
    godel_chain,
    is_congruence,
    is_fsi,
    lukasiewicz_chain,
    negative_cone,
)

GROUPS12 = [make_group(chain or [1]) for chain in abelian_group_catalog(12)]
ALL_SIGNATURES = [
    frozenset(combo) for k in range(5) for combo in itertools.combinations(OPTIONAL_SYMBOLS, k)
]
PRODUCT_SIGNATURES = (frozenset(), frozenset({"0", "bot", "top"}), SIGNATURE_FULL)


def _assert_matches_reference(algebras):
    for A in algebras:
        assert congruence_set(A) == congruence_set_reference(A), A.size


def test_criterion_03_algebras_match_reference():
    algebras = [build_R(group, sig) for group in GROUPS12 for sig in ALL_SIGNATURES]
    assert len(algebras) == 272
    _assert_matches_reference(algebras)


def test_small_products_and_cones_match_reference():
    algebras = []
    for sig in PRODUCT_SIGNATURES:
        factors = [build_R(group, sig) for group in GROUPS12]
        for A, B in itertools.combinations_with_replacement(factors, 2):
            if A.size * B.size <= 16:
                product = direct_product(A, B)
                algebras += [product, negative_cone(product)]
    assert len(algebras) == 24
    assert any(not congruence_set(A).is_simple() for A in algebras)
    _assert_matches_reference(algebras)


def test_r_z2_times_r_z3_matches_reference():
    product = direct_product(
        build_R(make_group([2]), SIGNATURE_FULL), build_R(make_group([3]), SIGNATURE_FULL)
    )
    result = congruence_set(product)
    assert result == congruence_set_reference(product)
    assert product.size == 20 and result.count == 4
    assert not result.is_simple() and not result.is_fsi()


CHAINS = [build(n) for build in (godel_chain, lukasiewicz_chain) for n in range(2, 9)]


def _r_z5_with_permuted_bang():
    A = build_R(make_group([5]), SIGNATURE_FULL)
    return dataclasses.replace(A, bang=A.bang[1:] + A.bang[:1])


def test_chains_match_reference():
    """Every element lies below 1, so every Cg(u, 1) with u < 1 is closed."""
    assert all(check_signature_laws(A).passed for A in CHAINS)
    _assert_matches_reference(CHAINS)
    assert [congruence_set(A).count for A in CHAINS] == [*range(2, 9), *[2] * 7]


def test_permuted_bang_matches_reference():
    """The core laws hold and G1-G4 do not: the seeds come from the lattice
    reduct, and compatibility with ``!`` still comes from propagation."""
    A = _r_z5_with_permuted_bang()
    report = check_signature_laws(A)
    assert not report.passed
    assert {v.law for v in report.violations} <= {"G1", "G2", "G3", "G4"}
    _assert_matches_reference([A])


def _principal_calls(monkeypatch, A) -> int:
    calls = []
    closure = algebra._principal

    def counted(*args):
        calls.append(args)
        return closure(*args)

    with monkeypatch.context() as patch:
        patch.setattr(algebra, "_principal", counted)
        congruence_set(A)
    return len(calls)


def test_one_closure_per_element_below_the_unit(monkeypatch):
    """|down(1)| - 1 closures where the core laws hold, n(n - 1)/2 otherwise."""
    r_z5 = build_R(make_group([5]), SIGNATURE_FULL)
    product = direct_product(
        build_R(make_group([2]), SIGNATURE_FULL), build_R(make_group([3]), SIGNATURE_FULL)
    )
    for A in [r_z5, _r_z5_with_permuted_bang(), product, *CHAINS]:
        below = sum(A.leq(u, A.one) for u in range(A.size))
        assert _principal_calls(monkeypatch, A) == below - 1, A.size
    assert _principal_calls(monkeypatch, r_z5) == 1
    broken = dataclasses.replace(r_z5, mult=r_z5.join)  # 1 is no unit of the join
    assert not check_signature_laws(broken).passed
    assert _principal_calls(monkeypatch, broken) == 7 * 6 // 2
    assert congruence_set(broken) == congruence_set_reference(broken)


def _set_partitions(n: int):
    """Every set partition of range(n) as a canonical labelling, in sorted order."""
    if n == 0:
        yield ()
        return
    for prefix in _set_partitions(n - 1):
        for label in range(max(prefix, default=-1) + 2):
            yield prefix + (label,)


@st.composite
def random_tables(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, n - 1)

    def table():
        # a table that reads one argument relates images along rows or along
        # columns alone, and a constant table relates none: such tables
        # leave more congruences, so that bang and each direction count
        reads = draw(st.sampled_from(["both", "left", "right", "none"]))
        if reads == "both":
            return tuple(tuple(draw(cell) for _ in range(n)) for _ in range(n))
        values = tuple(draw(cell) for _ in range(n))
        if reads == "left":
            return tuple((v,) * n for v in values)
        if reads == "right":
            return (values,) * n
        return ((values[0],) * n,) * n

    bang = tuple(draw(cell) for _ in range(n)) if draw(st.booleans()) else None
    return FiniteAlgebra(n, table(), table(), table(), table(), one=draw(cell), bang=bang)


@settings(max_examples=300, deadline=None)
@given(random_tables())
def test_random_tables_match_brute_force(A):
    expected = [p for p in _set_partitions(A.size) if is_congruence(A, p)]
    assert list(congruence_set(A).congruences) == expected


def test_is_fsi_matches_pairwise_definition():
    """One meet of all congruences above Delta against every pairwise meet:
    the expansions of the groups of order <= 12, their products of at most 32
    elements, and the trivial algebra (whose only congruence is Delta)."""
    sets = [congruence_set(trivial_algebra(SIGNATURE_FULL))]
    for sig in PRODUCT_SIGNATURES:
        factors = [build_R(group, sig) for group in GROUPS12]
        sets += [congruence_set(A) for A in factors]
        for A, B in itertools.combinations_with_replacement(factors, 2):
            if A.size * B.size <= 32:
                sets.append(congruence_set(direct_product(A, B)))
    verdicts = [congruences.is_fsi() for congruences in sets]
    assert verdicts == [is_fsi(congruences) for congruences in sets]
    assert sets[0].count == 1 and verdicts[0]
    assert len(sets) == 112 and verdicts.count(False) == 60
