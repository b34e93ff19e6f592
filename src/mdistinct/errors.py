"""Shared exception types; the CLI exits 3 on an `InfeasibilityError`, 2 on
any other."""

from __future__ import annotations


class MDistinctError(Exception):
    """Base class for all library errors."""


class ValidationError(MDistinctError):
    """Malformed input: schema mismatch, bad update model, broken file."""


class InfeasibilityError(MDistinctError):
    """The requested output cannot exist (not m-eligible, empty graph, ...)."""


class InconsistentHistoryError(InfeasibilityError):
    """A record's published history admits no feasible explanation."""


class CapExceededError(MDistinctError):
    """The joint-enumeration oracle's size cap was hit (no CLI command)."""
