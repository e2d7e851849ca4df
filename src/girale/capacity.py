"""Shared size limit: the carrier elements of a structure built, loaded or scanned."""

from __future__ import annotations

import os

DEFAULT_MAX_SIZE = 66  # the carrier of R(G) for |G| = 64
ENV_VAR = "GIRALE_MAX_SIZE"


class CapacityError(Exception):
    """A requested construction exceeds the configured size bound."""


def max_size() -> int:
    """Bound on carrier elements of groups and table algebras; override via GIRALE_MAX_SIZE."""
    raw = os.environ.get(ENV_VAR, str(DEFAULT_MAX_SIZE))
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}.") from exc
    if value < 1:
        raise ValueError(f"{ENV_VAR} must be positive, got {value}.")
    return value


def guard(size: int, what: str, bound: int | None = None) -> None:
    limit = max_size() if bound is None else bound
    if size > limit:
        raise CapacityError(f"{what} has size {size}, exceeding the bound {limit}.")
