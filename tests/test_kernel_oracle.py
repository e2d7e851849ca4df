"""The vectorized table kernel against its scalar reference (tests/reference_kernel.py).

Algebras are the expansions of the abelian groups of order <= 8 in four
signatures, plus the one-element algebras, with up to three mutated table
entries, constants or guard values.  Reports, residual tables and errors
must be equal exactly, violation order included.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from girale.algebra import (
    CLASS_TAGS,
    FiniteAlgebra,
    NotResiduated,
    Violation,
    _TAGS,
    _index_dtype,
    check_class,
    check_signature_laws,
    residuals_from_mult,
    trivial_algebra,
)
from girale.construct import SIGNATURE_FULL, build_R
from girale.group import _validate_group, abelian_group_catalog, make_group

from tests import reference_kernel as ref

SIGNATURES = (frozenset(), frozenset({"0"}), frozenset({"0", "bot", "top"}), SIGNATURE_FULL)
CATALOG = [trivial_algebra(sig) for sig in SIGNATURES] + [
    build_R(make_group(chain or [1]), sig)
    for chain in abelian_group_catalog(8)
    for sig in SIGNATURES
]
MUTABLE = ("meet", "join", "mult", "imp", "one", "bang", "zero", "bot", "top")
GROUP_TABLES = [make_group(chain or [1]).table for chain in abelian_group_catalog(8)]

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


def test_group_dtype_boundary():
    n = 257
    table = [list(r) for r in make_group([n], max_size=n).table]
    _validate_group(table)
    broken = [list(r) for r in table]
    broken[n - 2][n - 1] = broken[n - 1][n - 2] = n - 4  # commutative, inverses kept
    other = [list(r) for r in table]
    other[n - 2][n - 1] = n - 4
    for t in (broken, other):
        assert _outcome(_validate_group, t) == _outcome(ref.validate_group, t)
    assert _outcome(_validate_group, other) == ("ValueError", "Not commutative at (255,256).")
