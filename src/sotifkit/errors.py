"""Exception types shared across the toolkit, and the key and number checks
of the JSON loaders."""

from __future__ import annotations

import contextlib
import math
from typing import Iterable, Mapping


class SotifkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SotifkitError, ValueError):
    """A kinematic or physical parameter is outside its valid domain."""


class TaxonomyError(SotifkitError, ValueError):
    """A taxonomy document is syntactically or semantically invalid.

    ``location`` points at the offending node (JSON path for semantic
    errors, line/column text for syntax errors).
    """

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class UnmappedConditionError(SotifkitError, KeyError):
    """A triggering condition has no entry in the effect mapping."""

    def __init__(self, leaf_id: str):
        self.leaf_id = leaf_id
        super().__init__(
            f"no effect mapping entry for condition '{leaf_id}' "
            "(no by_leaf entry, no matching by_category entry, no defaults)"
        )

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0]


class InvalidMitigationError(SotifkitError, ValueError):
    """A mitigation override would move an effect field away from neutral."""


class SimulationError(SotifkitError, RuntimeError):
    """The integrator produced a non-finite or otherwise impossible state."""


class ContractViolationError(SotifkitError, ValueError):
    """A value handed between pipeline stages violates its contract."""


class IncompleteAnalysisError(SotifkitError, ValueError):
    """A scenario is missing its sweep result during sheet construction."""


class IncompleteOccurrenceError(SotifkitError, ValueError):
    """A triggering condition has no occurrence (exposure) entry."""


class InvalidComparisonError(SotifkitError, ValueError):
    """KPIs from different ODDs were compared against each other."""


class PipelineError(SotifkitError, RuntimeError):
    """Wraps a module error with the pipeline stage it originated from."""

    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


def check_keys(
    data: object,
    context: str,
    required: Iterable[str] = (),
    allowed: Iterable[str] = (),
) -> Mapping:
    """Return ``data`` if it is a JSON object holding every ``required`` key
    and no key outside ``allowed`` (required keys are always allowed).

    Raises ValueError prefixed with ``context`` (the file, and the index or
    field within it) otherwise, so every loader reports a malformed
    document the same way.
    """
    if not isinstance(data, dict):
        raise ValueError(f"{context}: expected a JSON object, got {type(data).__name__}")
    required = set(required)
    missing = required - data.keys()
    if missing:
        raise ValueError(f"{context}: missing keys {sorted(missing)}")
    unknown = data.keys() - required - set(allowed)
    if unknown:
        raise ValueError(f"{context}: unknown keys {sorted(unknown)}")
    return data


def check_number(value: object, context: str) -> float:
    """Return ``value`` as a float if it is a finite JSON number (an int or
    a float, not a bool).

    Raises ValueError prefixed with ``context`` (the file and the field)
    for anything else: a bool, a string, a list, an object, null, or a
    non-finite or float-overflowing value.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{context}: expected a finite number, got {value!r}")
