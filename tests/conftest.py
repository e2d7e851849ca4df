import pytest

from girale import algebra
from girale.algebra import AlgHom, FiniteAlgebra
from girale.construct import SIGNATURE_FULL, build_R
from girale.group import abelian_group_catalog, make_group


def bounded_involutive_chain() -> FiniteAlgebra:
    """Four-element involutive chain whose middle elements square downward.

    Satisfies the bounded involutive laws but not the idempotence needed for
    the guard expansion: a useful counterexample input.
    """
    n = 4
    meet = tuple(tuple(min(a, b) for b in range(n)) for a in range(n))
    join = tuple(tuple(max(a, b) for b in range(n)) for a in range(n))
    mult = tuple(tuple(max(0, a + b - 3) for b in range(n)) for a in range(n))
    imp = tuple(tuple(min(3, 3 - a + b) for b in range(n)) for a in range(n))
    return FiniteAlgebra(
        size=n, meet=meet, join=join, mult=mult, imp=imp,
        one=3, zero=0, bot=0, top=3,
    )


@pytest.fixture(scope="session")
def small_girales():
    """Full-signature expansions of the abelian groups of order <= 3."""
    return [
        build_R(make_group(chain or [1]), SIGNATURE_FULL)
        for chain in abelian_group_catalog(3)
    ]


@pytest.fixture(scope="session")
def girales_upto_6():
    return [
        build_R(make_group(chain or [1]), SIGNATURE_FULL)
        for chain in abelian_group_catalog(6)
    ]


@pytest.fixture
def violation_calls(monkeypatch):
    """The maps whose ``AlgHom.violations`` runs during the test, in call order."""
    calls = []
    violations = AlgHom.violations
    monkeypatch.setattr(AlgHom, "violations", lambda self: calls.append(self) or violations(self))
    return calls


@pytest.fixture
def hom_checks(monkeypatch):
    """The mappings whose hom check is computed during the test, in call order,
    starting from an empty memo: ``violations`` answers the rest from it."""
    calls = []
    check = algebra._preservation_violations
    monkeypatch.setattr(
        algebra, "_preservation_violations", lambda h, ops: calls.append(h) or check(h, ops)
    )
    AlgHom.cache_clear()
    return calls
