"""Library calls with bad arguments raise at once, with the exception and
message that name the fault, before any work is done."""

import dataclasses
import os
from unittest import mock

import pytest

from girale.algebra import AlgHom, algebra_from_json, algebra_to_json, check_class, enumerate_homs
from girale.capacity import ENV_VAR
from girale.construct import SIGNATURE_FULL, KClassQuery, build_R
from girale.formula import Var, parse
from girale.group import GroupHom, PrimeSet, group_from_json, group_from_table, make_group, pushout
from girale.semantics import consequence, eval_formula, interpolant_search

Z2, Z3, Z4 = make_group([2]), make_group([3]), make_group([4])
R_FULL = build_R(Z2, SIGNATURE_FULL)
R_NONE = build_R(Z2, frozenset())
X = Var("x")


def _under_env(value, call):
    def run():
        with mock.patch.dict(os.environ, {ENV_VAR: value}):
            return call()
    return run


# name -> (call, exception, message pattern)
ERRORS = {
    "hom-mapping-length": (
        lambda: AlgHom(R_FULL, R_FULL, (0,)), ValueError, "Mapping length does not match source size",
    ),
    "hom-value-out-of-range": (
        lambda: GroupHom(Z2, Z2, (0, 5)), ValueError, "Mapping value 5 out of target range",
    ),
    # a mapping value equal to an integer is still no index: no float, no bool
    "hom-value-float": (
        lambda: AlgHom(R_FULL, R_FULL, (0.0, 1, 2, 3)), ValueError, "Mapping value 0.0 must be an integer",
    ),
    "hom-value-bool": (
        lambda: GroupHom(Z2, Z2, (False, True)), ValueError, "Mapping value False must be an integer",
    ),
    # nor is a table entry, a constant or a guard value: it would equal and hash
    # like its int twin, and index no table
    "algebra-float-entry": (
        lambda: dataclasses.replace(R_FULL, mult=((0.0, 1, 2, 3),) + R_FULL.mult[1:]),
        ValueError, "^mult table entry out of range or not an integer.$",
    ),
    "algebra-float-constant": (
        lambda: dataclasses.replace(R_FULL, top=3.0),
        ValueError, "^Constant top=3.0 out of range or not an integer.$",
    ),
    "algebra-float-bang": (
        lambda: dataclasses.replace(R_FULL, bang=(0.0,) + R_FULL.bang[1:]),
        ValueError, "^bang table entry out of range or not an integer.$",
    ),
    "enumerate-homs-signatures": (
        lambda: enumerate_homs(R_FULL, R_NONE), ValueError, "needs matching signatures",
    ),
    "check-class-tag": (lambda: check_class(R_FULL, "girales"), ValueError, "Unknown class tag 'girales'"),
    "query-no-primes": (
        lambda: KClassQuery(PrimeSet.of(), frozenset()), ValueError, "prime set must be nonempty",
    ),
    "pushout-sources": (
        lambda: pushout(GroupHom(Z2, Z4, (0, 2)), GroupHom(Z3, Z3, (0, 1, 2))),
        ValueError, "Pushout legs must share their source",
    ),
    "group-json-list": (lambda: group_from_json([[0]]), ValueError, "Group JSON must be an object"),
    "cayley-float": (
        lambda: group_from_table([[0, 1], [1, 0.0]]), TypeError, "Cayley entries must be integers",
    ),
    "max-size-word": (
        _under_env("x", lambda: make_group([2])), ValueError, f"{ENV_VAR} must be an integer, got 'x'",
    ),
    "max-size-zero": (
        _under_env("0", lambda: make_group([2])), ValueError, f"{ENV_VAR} must be positive, got 0",
    ),
    "eval-out-of-range": (
        lambda: eval_formula(R_FULL, X, {"x": 9}), ValueError, "Assignment value 9 out of range for 'x'",
    ),
    "consequence-no-algebra": (
        lambda: consequence([], [], X), ValueError, "Consequence needs at least one algebra",
    ),
    "interpolate-no-algebra": (
        lambda: interpolant_search([], X, X, "craig", 1), ValueError, "needs at least one algebra",
    ),
    "interpolate-mixed-signatures": (
        lambda: interpolant_search([R_FULL, R_NONE], X, X, "craig", 1),
        ValueError, "All algebras must share one signature",
    ),
    "parse-notation": (lambda: parse("x", "latex"), ValueError, "Unknown notation 'latex'"),
    "algebra-json-names": (
        lambda: algebra_from_json({**algebra_to_json(R_FULL), "names": [0, 1, 2, 3]}),
        ValueError, "field 'names' must be a list of strings",
    ),
}


@pytest.mark.parametrize("name", sorted(ERRORS))
def test_bad_arguments_raise(name):
    call, exception, message = ERRORS[name]
    with pytest.raises(exception, match=message):
        call()
