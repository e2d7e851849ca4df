"""Finite-model workbench for residuated lattices, girales, and their logics."""

__version__ = "0.1.0"

import sys
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


def clear_caches() -> None:
    """Empty every memo: each ``functools.lru_cache``, found by its
    ``cache_parameters``, at the top level of a loaded girale module."""
    for name, module in list(sys.modules.items()):
        if name.startswith(__name__ + "."):
            for value in vars(module).values():
                if hasattr(value, "cache_parameters"):
                    value.cache_clear()


# the public API: every name imported or defined above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
