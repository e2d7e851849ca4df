"""The batched catalog evaluator against the per-algebra loop it replaced
(tests/reference_kernel.py) and against the scalar ``consequence_slow``.

Catalogs are 1-5 algebras: expansions of the groups of order <= 5 in the
four canonical signatures and the bounded involutive chain, so constants
and the guard are often missing from some algebra; formulas use every
constant and ``!``.  Some examples lower
``MAX_GRID`` and the batch element bound, so that batches split and grids
run over capacity part way through a catalog.  Results must be equal, or
both sides must raise the same exception type with the same message.
Interpolant search is held to the loop it replaced on R(Z1), R(Z2) and
R(Z3) in the full signature: the same status, interpolant, certificate,
candidate count and countermodel.
"""

import contextlib
import dataclasses
import os
import pickle
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from girale import semantics
from girale.capacity import CapacityError
from girale.construct import SIGNATURE_FULL, build_R
from girale.formula import OPS, Bang, BinOp, Const, Var, parse
from girale.group import abelian_group_catalog, make_group
from girale.formula import render
from girale.semantics import consequence, consequence_slow, deduction_check, interpolant_search

from tests import reference_kernel as ref
from tests.conftest import bounded_involutive_chain

SIGNATURES = (frozenset(), frozenset({"0"}), frozenset({"0", "bot", "top"}), SIGNATURE_FULL)
ALGEBRAS = [
    build_R(make_group(chain or [1]), sig)
    for chain in abelian_group_catalog(5)
    for sig in SIGNATURES
] + [bounded_involutive_chain()]
GIRALES = [A for A in ALGEBRAS if A.bang is not None]

ORACLE = settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])

ATOMS = [Var("x"), Var("y"), Var("z"), Const("1"), Const("0"), Const("bot"), Const("top")]
formulas = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(
        st.builds(Bang, inner),
        st.builds(BinOp, st.sampled_from(OPS), inner, inner),
    ),
    max_leaves=6,
)
# (MAX_GRID, elements per batch): the defaults, or small enough to split
# batches and to put some grids over capacity
limits = st.sampled_from([(semantics.MAX_GRID, semantics._UNION_ELEMENTS), (60, 256), (400, 12), (4, 8)])


def outcome(judge, *args):
    try:
        return judge(*args)
    except (ValueError, CapacityError) as exc:
        return type(exc), str(exc)


def limited(grid, elements):
    return mock.patch.multiple(semantics, MAX_GRID=grid, _UNION_ELEMENTS=elements), mock.patch.object(
        ref, "MAX_GRID", grid
    )


@ORACLE
@given(
    st.lists(st.sampled_from(ALGEBRAS), min_size=1, max_size=5),
    st.lists(formulas, max_size=3),
    formulas,
    limits,
)
def test_consequence_equals_reference(algebras, premises, conclusion, limit):
    new_limits, ref_limit = limited(*limit)
    with new_limits, ref_limit:
        expected = outcome(ref.consequence, algebras, premises, conclusion)
        assert outcome(consequence, algebras, premises, conclusion) == expected
        if not isinstance(expected, tuple):
            assert consequence_slow(algebras, premises, conclusion).holds == expected.holds


@ORACLE
@given(
    st.lists(st.sampled_from(ALGEBRAS + GIRALES * 3), min_size=1, max_size=5),
    st.lists(formulas, max_size=2),
    formulas,
    formulas,
    limits,
)
def test_deduction_check_equals_reference(algebras, premises, phi, psi, limit):
    new_limits, ref_limit = limited(*limit)
    with new_limits, ref_limit:
        expected = outcome(ref.deduction_check, algebras, premises, phi, psi)
        assert outcome(deduction_check, algebras, premises, phi, psi) == expected


SMALL_GIRALES = [build_R(make_group([n]), SIGNATURE_FULL) for n in (1, 2, 3)]
small_formulas = st.recursive(
    st.sampled_from(ATOMS),
    lambda inner: st.one_of(st.builds(Bang, inner), st.builds(BinOp, st.sampled_from(OPS), inner, inner)),
    max_leaves=5,
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.sampled_from(SMALL_GIRALES), min_size=1, max_size=3),
    small_formulas,
    small_formulas,
    st.sampled_from([("deductive", False), ("craig", False), ("guarded", False), ("guarded", True)]),
    st.integers(0, 3),
    st.integers(1, 500),
)
# the depth filter decides this one: it keeps out x * (x * (x * x)), of depth 3
@example(SMALL_GIRALES[1:], parse("x * x * x * x /\\ u"), parse("x * x * x * x \\/ v"),
         ("craig", False), 2, 500)
def test_interpolant_search_equals_reference(algebras, phi, psi, reading, depth, cap):
    mode, mixed_guard = reading
    args = (algebras, phi, psi, mode, depth, mixed_guard, cap)
    expected, result = ref.interpolant_search(*args), interpolant_search(*args)
    event(expected.status)
    assert result == expected
    if expected.interpolant is not None:
        assert render(result.interpolant) == render(expected.interpolant)


def test_premises_and_algebras_read_once():
    """Generators are read once: the premise x entails x on every catalog."""
    A = build_R(make_group([2]))
    x = Var("x")
    assert consequence([A], (p for p in [x]), x).holds
    assert consequence_slow([A], (p for p in [x]), x).holds
    catalog = [build_R(make_group([2]), SIGNATURE_FULL), build_R(make_group([3]), SIGNATURE_FULL)]
    premises, phi, psi = [parse("x \\/ y")], parse("x"), parse("x * y")
    expected = deduction_check(catalog, premises, phi, psi)
    assert not expected.with_premise.holds
    assert deduction_check(iter(catalog), iter(premises), phi, psi) == expected


def test_each_subformula_evaluated_once(monkeypatch):
    """The three judgments of deduction_check share one evaluator: the
    premises, phi, psi, !phi and every other subformula but an atom are
    gathered once, here over one batch of two algebras.  x -> y is a left
    and a right operand: gathered once, and N times its value is one
    multiply of the kept value; so is N times !phi, the left side of !phi -> psi."""
    computed, batches = [], []
    value = semantics._Batch.value

    def counting(batch, f, scaled=False):
        if not isinstance(f, (Var, Const)) and (f, scaled) not in batch.memo:
            computed.append((f, scaled, f in batch.shared))
            batches.append(batch)
        return value(batch, f, scaled)

    monkeypatch.setattr(semantics._Batch, "value", counting)
    catalog = [build_R(make_group([2]), SIGNATURE_FULL), build_R(make_group([3]), SIGNATURE_FULL)]
    imp = parse("x -> y")
    premises = [imp, parse("(x -> y) * 0 \\/ 0"), parse("(x -> y) -> (x -> y)")]
    phi = parse("x /\\ (x -> y)")
    deduction_check(catalog, premises, phi, parse("y \\/ (x -> y)"))
    assert len(set(batches)) == 1 and len(computed) == len(set(computed))
    gathered = [f for f, scaled, shared in computed if not (scaled and shared)]
    assert len(gathered) == len(set(gathered)) == 10
    multiplied = [f for f, scaled, shared in computed if scaled and shared]
    assert multiplied == [imp, Bang(phi)]
    memo, size = batches[0].memo, batches[0].layout.size
    assert (memo[imp, True] == memo[imp, False] * size).all()


def test_batches_follow_the_limits_in_force():
    """The cached batch spans are keyed on MAX_GRID and the batch element
    bound as well as on the catalog: R(Z1), R(Z2), R(Z3) of 3, 4 and 5
    elements are one batch at the defaults, and one algebra each at (4, 8),
    where the 5-cell grid of R(Z3) is over capacity.  A judgment first
    refuted in R(Z2) keeps its countermodel; one first refuted in R(Z3)
    raises there once the limits are lowered."""
    catalog = [build_R(make_group([n]), SIGNATURE_FULL) for n in (1, 2, 3)]
    middle, last = parse("x \\/ (x -> 0)"), parse("x * x * x -> x")

    def run(*limit):
        new_limits, ref_limit = limited(*limit)
        with new_limits, ref_limit:
            spans = []
            with contextlib.suppress(CapacityError):
                for batch in semantics._Evaluator(tuple(catalog), [middle]).batches():
                    spans.append((batch.start, len(batch.layout.algebras)))
            verdicts = [outcome(consequence, catalog, [], f) for f in (middle, last)]
            assert verdicts == [outcome(ref.consequence, catalog, [], f) for f in (middle, last)]
            return spans, verdicts

    spans, (refuted, late) = run(semantics.MAX_GRID, semantics._UNION_ELEMENTS)
    assert spans == [(0, 3)]
    assert refuted == semantics.ConsequenceResult(False, 1, {"x": 1}) and late.algebra_index == 2
    spans, verdicts = run(4, 8)
    assert spans == [(0, 1), (1, 1)]
    assert verdicts == [refuted, (CapacityError, "Assignment grid of size 5 exceeds 4.")]


def test_caches_are_bounded_and_read_only():
    """Every evaluator cache has a finite size, and no array that a cache or
    a batch keeps can be written: the tables, grid rows and designated
    elements, the constant columns and N-scaled forms made on first use, and
    the kept values and designated cells of shared formulas."""
    assert all(cache.cache_info().maxsize is not None for cache in (semantics._spans, semantics._layout))
    catalog = (build_R(make_group([2]), SIGNATURE_FULL), build_R(make_group([3]), SIGNATURE_FULL))
    premise, conclusion = parse("!(x -> bot) * top \\/ (x -> bot)"), parse("(x -> bot) -> 0 * y")
    evaluator = semantics._Evaluator(catalog, [premise, premise, conclusion])  # premise shared
    evaluator.consequence([premise], conclusion)
    (batch,) = evaluator._built
    assert {("bang", True), (0, True), ("0", True), ("bot", False), ("top", False)} <= set(batch.layout.arrays)
    assert batch.memo and batch.held
    for array in [*batch.layout.arrays.values(), *batch.memo.values(), *batch.held.values()]:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_missing_guard_only_when_reached():
    """The chain lacks the guard and never designates 0, so the premise 0
    leaves no cell there for the premise !x: no error, on either side of a
    full-signature algebra, whose 0 is its unit."""
    chain, trivial = bounded_involutive_chain(), build_R(make_group([1]), SIGNATURE_FULL)
    premises, conclusion = [parse("0"), parse("!x")], parse("x")
    for catalog in ([chain, trivial], [trivial, chain]):
        assert consequence(catalog, premises, conclusion).holds
        assert ref.consequence(catalog, premises, conclusion).holds
    with pytest.raises(ValueError, match="^Guard connective is not in the algebra signature.$"):
        consequence([trivial, chain], premises[1:], conclusion)


def test_capacity_error_only_when_reached():
    """R(Z62) has a 64^4 grid: a countermodel in R(Z2) is found first, and a
    formula valid in R(Z2) runs into the capacity error."""
    catalog = [build_R(make_group([2])), build_R(make_group([62]))]
    refuted = consequence(catalog, [], parse("x /\\ y /\\ z /\\ w"))
    assert refuted == semantics.ConsequenceResult(False, 0, {"w": 0, "x": 0, "y": 0, "z": 1})
    with pytest.raises(CapacityError, match="^Assignment grid of size 16777216 exceeds 4000000.$"):
        consequence(catalog, [], parse("(x /\\ y /\\ z /\\ w) -> x"))


def test_pickled_algebra_carries_no_hash():
    """The cached hash stays in the object and process that computed it."""
    A = build_R(make_group([3]), frozenset({"0"}))  # None in bot, top and bang
    hash(A)
    data = pickle.dumps(A)
    assert "_hash" not in vars(pickle.loads(data)) and "_hash" not in vars(dataclasses.replace(A))
    script = (
        "import pickle, sys; from girale.construct import build_R; from girale.group import make_group; "
        "B = pickle.loads(sys.stdin.buffer.read()); "
        "print(hash(B) == hash(build_R(make_group([3]), frozenset({'0'}))))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), PYTHONHASHSEED="random")
    run = subprocess.run([sys.executable, "-c", script], input=data, capture_output=True, check=True, env=env)
    assert run.stdout.strip() == b"True"
