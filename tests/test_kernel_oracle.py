"""The vectorized table kernel and the shared hom engine against their scalar
reference (tests/reference_kernel.py).

Algebras are the expansions of the abelian groups of order <= 8 in four
signatures, plus the one-element algebras, with up to three mutated table
entries, constants or guard values.  Reports, residual tables, errors, hom
lists and hom violations must be equal exactly, order included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from girale.algebra import (
    CLASS_TAGS,
    LAWS,
    AlgHom,
    FiniteAlgebra,
    NotResiduated,
    Violation,
    _TAGS,
    _index_dtype,
    check_class,
    check_signature_laws,
    enumerate_homs,
    residuals_from_mult,
    trivial_algebra,
)
from girale.construct import SIGNATURE_FULL, build_R
from girale.group import GroupHom, _validate_group, abelian_group_catalog, group_homs, make_group

from tests import reference_kernel as ref

SIGNATURES = (frozenset(), frozenset({"0"}), frozenset({"0", "bot", "top"}), SIGNATURE_FULL)
CATALOG = [trivial_algebra(sig) for sig in SIGNATURES] + [
    build_R(make_group(chain or [1]), sig)
    for chain in abelian_group_catalog(8)
    for sig in SIGNATURES
]
MUTABLE = ("meet", "join", "mult", "imp", "one", "bang", "zero", "bot", "top")
CORE_LAWS = frozenset(law.name for law in LAWS if not law.needs)
GROUPS = [make_group(chain or [1]) for chain in abelian_group_catalog(8)]
GROUP_TABLES = [group.table for group in GROUPS]

ORACLE = settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _set(table, i, j, v):
    rows = [list(r) for r in table]
    rows[i][j] = v
    return tuple(tuple(r) for r in rows)


@st.composite
def mutated_algebras(draw):
    A = draw(st.sampled_from(CATALOG))
    cell = st.integers(0, A.size - 1)
    for _ in range(draw(st.integers(0, 3))):
        label = draw(st.sampled_from(MUTABLE))
        if label in ("meet", "join", "mult", "imp"):
            table = _set(getattr(A, label), draw(cell), draw(cell), draw(cell))
            A = dataclasses.replace(A, **{label: table})
        elif label == "bang" and A.bang is not None:
            bang = list(A.bang)
            bang[draw(cell)] = draw(cell)
            A = dataclasses.replace(A, bang=tuple(bang))
        elif label == "one" or getattr(A, label) is not None:
            A = dataclasses.replace(A, **{label: draw(cell)})
    return A


@st.composite
def mutated_group_tables(draw):
    rows = [list(r) for r in draw(st.sampled_from(GROUP_TABLES))]
    n = len(rows)
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, n - 1))]
        kind = draw(st.sampled_from(["entry", "entry", "range", "length"]))
        if kind == "length" and (draw(st.booleans()) or not row):
            row.append(0)
        elif kind == "length":
            row.pop()
        elif row:
            value = draw(st.integers(0, n - 1) if kind == "entry" else st.sampled_from([-1, n]))
            row[draw(st.integers(0, len(row) - 1))] = value
    return rows


def _outcome(call, *args):
    try:
        return call(*args)
    except NotResiduated as err:
        return ("NotResiduated", err.a, err.c, err.maximal, str(err))
    except ValueError as err:
        return ("ValueError", str(err))


@ORACLE
@given(mutated_algebras())
def test_law_kernel_matches_reference(A):
    assert check_signature_laws(A) == ref.check_signature_laws(A)
    for tag in CLASS_TAGS:
        if _TAGS[tag][0] <= A.signature:
            assert check_class(A, tag) == ref.check_class(A, tag), tag


@st.composite
def mutated_expansion_tables(draw):
    """The expansion of a group in each of the four signatures, all on the same
    tables with one to three entries changed."""
    group = draw(st.sampled_from(GROUPS))
    tables = {label: getattr(build_R(group), label) for label in ("meet", "join", "mult", "imp")}
    cell = st.integers(0, group.size + 1)
    for _ in range(draw(st.integers(1, 3))):
        label = draw(st.sampled_from(sorted(tables)))
        tables[label] = _set(tables[label], draw(cell), draw(cell), draw(cell))
    return [dataclasses.replace(build_R(group, sig), **tables) for sig in SIGNATURES]


@ORACLE
@given(mutated_expansion_tables())
def test_shared_core_scan_matches_full_scan(algebras):
    """The core laws are scanned once for the four algebras; each report still
    equals the reference's scan of every law, where core and other laws fail."""
    reports = [check_signature_laws(A) for A in algebras]
    failed = {v.law for v in reports[-1].violations}
    assume(failed & CORE_LAWS and failed - CORE_LAWS)
    for A, report in zip(algebras, reports):
        assert report == ref.check_signature_laws(A)


@ORACLE
@given(mutated_algebras())
def test_residuals_match_reference(A):
    assert _outcome(residuals_from_mult, A.meet, A.join, A.mult) == _outcome(
        ref.residuals_from_mult, A.meet, A.join, A.mult
    )


@ORACLE
@given(mutated_group_tables())
def test_group_validation_matches_reference(table):
    assert _outcome(_validate_group, table) == _outcome(ref.validate_group, table)


def test_one_element_tables():
    for A in CATALOG[: len(SIGNATURES)]:
        assert A.size == 1
        assert check_signature_laws(A) == ref.check_signature_laws(A)
        assert check_signature_laws(A).passed
    assert residuals_from_mult(((0,),), ((0,),), ((0,),)) == ((0,),)
    _validate_group([[0]])
    with pytest.raises(ValueError, match="No identity element"):
        _validate_group([])


def goedel_chain(n: int, one: int | None = None) -> FiniteAlgebra:
    """The n-element Goedel chain: fusion is meet, a -> c is top when a <= c."""
    top = n - 1
    meet = tuple(tuple(min(a, b) for b in range(n)) for a in range(n))
    join = tuple(tuple(max(a, b) for b in range(n)) for a in range(n))
    imp = tuple(tuple(top if a <= c else c for c in range(n)) for a in range(n))
    return FiniteAlgebra(
        size=n, meet=meet, join=join, mult=meet, imp=imp,
        one=top if one is None else one, bot=0, top=top,
    )


@pytest.mark.parametrize("n, dtype", [(256, np.uint8), (257, np.uint16)])
def test_dtype_boundary(n, dtype):
    assert _index_dtype(n) == dtype
    chain = goedel_chain(n)
    assert check_signature_laws(chain).passed
    assert residuals_from_mult(chain.meet, chain.join, chain.mult) == chain.imp
    # moving the unit below the top breaks only the unit law, at the top
    assert check_signature_laws(goedel_chain(n, one=n - 2)).violations == (
        Violation("unit", (n - 1,)),
    )


def test_group_dtype_boundary(monkeypatch):
    n = 257
    monkeypatch.setenv("GIRALE_MAX_SIZE", str(n))
    table = [list(r) for r in make_group([n]).table]
    _validate_group(table)
    broken = [list(r) for r in table]
    broken[n - 2][n - 1] = broken[n - 1][n - 2] = n - 4  # commutative, inverses kept
    other = [list(r) for r in table]
    other[n - 2][n - 1] = n - 4
    for t in (broken, other):
        assert _outcome(_validate_group, t) == _outcome(ref.validate_group, t)
    assert _outcome(_validate_group, other) == ("ValueError", "Not commutative at (255,256).")


def _maps(homs):
    return [h.mapping for h in homs]


def test_hom_search_matches_reference_on_catalog():
    for injective in (False, True):
        for G in GROUPS:
            for H in GROUPS:
                assert _maps(group_homs(G, H, injective)) == _maps(ref.group_homs(G, H, injective))
        for A in CATALOG:
            for B in CATALOG:
                if A.signature == B.signature:
                    found = _maps(enumerate_homs(A, B, injective))
                    assert found == _maps(ref.enumerate_homs(A, B, injective))


def test_colliding_constants():
    # one element carries 1, 0, bot and top: a hom exists only where their images agree
    point = trivial_algebra(SIGNATURE_FULL)
    for target, expected in ((point, [(0,)]), (build_R(make_group([2]), SIGNATURE_FULL), [])):
        for injective in (False, True):
            assert _maps(enumerate_homs(point, target, injective)) == expected
            assert _maps(ref.enumerate_homs(point, target, injective)) == expected


@st.composite
def hom_pairs(draw):
    """Two mutated algebras of one signature (a hom search needs it)."""
    A = draw(mutated_algebras())
    B = draw(mutated_algebras().filter(lambda B: B.signature == A.signature))
    return A, B


@ORACLE
@given(hom_pairs(), st.booleans())
def test_hom_search_matches_reference_on_mutants(pair, injective):
    A, B = pair
    assert _maps(enumerate_homs(A, B, injective)) == _maps(ref.enumerate_homs(A, B, injective))


@st.composite
def mutated_maps(draw, source_size, target_size, homs):
    """A hom from ``homs`` (or the constant map) with up to three images moved."""
    mapping = list(draw(st.sampled_from(homs)) if homs else [0] * source_size)
    for _ in range(draw(st.integers(0, 3))):
        mapping[draw(st.integers(0, source_size - 1))] = draw(st.integers(0, target_size - 1))
    return tuple(mapping)


@ORACLE
@given(st.data())
def test_alg_hom_violations_match_reference(data):
    A = data.draw(mutated_algebras())
    B = data.draw(st.sampled_from(CATALOG))
    homs = _maps(enumerate_homs(A, B)) if A.signature == B.signature else []
    hom = AlgHom(A, B, data.draw(mutated_maps(A.size, B.size, homs)))
    assert hom.violations() == ref.alg_hom_violations(hom)


def _group_message(v: Violation) -> str:
    if v.law == "hom-identity":
        return "identity not preserved"
    assert v.law == "hom-mult"
    return "product not preserved at ({},{})".format(*v.witness)


@ORACLE
@given(st.data())
def test_group_hom_violations_match_reference(data):
    G, H = data.draw(st.sampled_from(GROUPS)), data.draw(st.sampled_from(GROUPS))
    hom = GroupHom(G, H, data.draw(mutated_maps(G.size, H.size, _maps(group_homs(G, H)))))
    assert [_group_message(v) for v in hom.violations()] == ref.group_hom_violations(hom)
