"""Finite-model workbench for residuated lattices, girales, and their logics."""

__version__ = "0.1.0"

import types

from .algebra import (
    AlgHom,
    ClassReport,
    CongruenceSet,
    FiniteAlgebra,
    NotResiduated,
    check_class,
    check_signature_laws,
    congruence_set,
    enumerate_homs,
    residuals_from_mult,
    trivial_algebra,
)
from .amalgam import Amalgam, Span, amalgamate, span_catalog, verify_amalgam
from .capacity import CapacityError
from .construct import (
    KClassQuery,
    MembershipResult,
    build_R,
    lift_embedding,
    member_K,
    restrict_embedding,
)
from .formula import Formula, ParseError, free_variables, parse, render, substitute
from .group import (
    FiniteGroup,
    GroupHom,
    PrimeSet,
    check_sigma,
    make_group,
    pushout,
)
from .proofs import (
    HilbertSystem,
    SYSTEMS,
    Sequent,
    SequentProof,
    check_derivation,
    extract_craig,
    match_axiom,
    parse_sequent,
    prove_sequent,
    search_sequent,
)
from .semantics import (
    consequence,
    deduction_check,
    eval_formula,
    interpolant_search,
    valid,
)

# the public API: every name imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
