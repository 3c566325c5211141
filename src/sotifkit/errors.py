"""Exception types shared across the toolkit, and the checks every JSON
document goes through, the input files and the report bundle alike.

A document's fields are declared as kinds of JSON value (:class:`Kind`);
:func:`check_object` and :func:`check_items` check them, naming the
offending field, and :func:`located` names the place of an error raised
while the checked values are built into records.  :func:`json_encoder`
writes what the bundle and the trace file hold.
"""

from __future__ import annotations

import dataclasses
import json
import math
from contextlib import contextmanager
from itertools import chain
from typing import Callable, Iterable, Mapping, NamedTuple


class SotifkitError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(SotifkitError, ValueError):
    """A kinematic or physical parameter is outside its valid domain."""


class TaxonomyError(SotifkitError, ValueError):
    """A taxonomy document is syntactically or semantically invalid."""


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


class Kind(NamedTuple):
    """What a JSON value must be.  ``accepts`` tests a whole column of
    values at once, which keeps checking a large table cheap; a column it
    rejects is searched value by value."""

    expected: str
    accepts: Callable[[list], bool]


def of_types(expected: str, *types: type) -> Kind:
    allowed = frozenset(types)
    return Kind(expected, lambda column: set(map(type, column)) <= allowed)


def numbers(nullable: bool) -> Kind:
    allowed = frozenset((int, float, type(None)) if nullable else (int, float))

    def accepts(column: list) -> bool:
        if not set(map(type, column)) <= allowed:
            return False
        try:
            # A finite float sum has finite terms: an int too large for a
            # float overflows.  (A bool is not a number: its type is not int.)
            return math.isfinite(sum(filter(None, column), 0.0))
        except OverflowError:
            return False

    return Kind("a finite number or null" if nullable else "a finite number", accepts)


def one_of(names: Iterable[str]) -> Kind:
    names = list(names)
    allowed = frozenset(names)
    return Kind(
        f"one of {names}",
        lambda column: set(map(type, column)) <= {str} and set(column) <= allowed,
    )


def list_of(kind: Kind) -> Kind:
    return Kind(
        f"a list, each item {kind.expected}",
        lambda column: set(map(type, column)) <= {list}
        and kind.accepts(list(chain.from_iterable(column))),
    )


def object_of(kind: Kind) -> Kind:
    return Kind(
        f"a JSON object, each value {kind.expected}",
        lambda column: set(map(type, column)) <= {dict}
        and kind.accepts([value for obj in column for value in obj.values()]),
    )


STR = of_types("a string", str)
STR_OR_NULL = of_types("a string or null", str, type(None))
INT = of_types("an integer", int)
BOOL = of_types("true or false", bool)
BOOL_OR_NULL = of_types("true, false or null", bool, type(None))
OBJECT = of_types("a JSON object", dict)
LIST = of_types("a JSON list", list)
NUMBER = numbers(nullable=False)
NUMBER_OR_NULL = numbers(nullable=True)
STRINGS = list_of(STR)


def parse_json(text: str) -> object:
    """``json.loads``, rejecting a document nested too deep to parse by a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply to parse") from None


def json_encoder() -> Callable[[object], str]:
    """A function giving ``json.dumps(value)``'s text, built once for many values.

    ``json.dumps`` builds a new C encoder at every call; this builds one,
    with the same settings, through json's private ``c_make_encoder``, and
    is ``json.dumps`` itself where json has no C encoder.  The encoder
    keeps no circular-reference markers: a failed encode would leave its
    containers in them, alive.  A cycle in a value raises RecursionError
    instead of ValueError; the bundle and the trace lines hold none."""
    make = json.encoder.c_make_encoder
    if make is None:
        return json.dumps
    # The arguments of JSONEncoder.iterencode at json.dumps's defaults:
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan.
    encode = make(
        None, json.JSONEncoder().default, json.encoder.encode_basestring_ascii,
        None, ": ", ", ", False, False, True,
    )
    return lambda value: "".join(encode(value, 0))


def fields_of(cls: type, kind: Kind, **kinds: Kind) -> dict[str, Kind]:
    """The JSON keys of a record written field by field: every field of
    ``cls``, a NamedTuple (its ``_fields``) or a dataclass, in declaration
    order, of kind ``kind`` unless ``kinds`` names another."""
    names = cls._fields if issubclass(cls, tuple) else [f.name for f in dataclasses.fields(cls)]
    return {name: kinds.get(name, kind) for name in names}


def check_object(
    data: object,
    context: str,
    fields: Mapping[str, Kind],
    optional: Mapping[str, Kind] = {},
) -> Mapping:
    """``data`` if it is a JSON object holding every key of ``fields``, any
    of ``optional`` and no other, each holding a value of its kind.  Errors
    name ``context`` (the object's place, empty for a whole document) and
    the key."""
    prefix = f"{context}: " if context else ""
    if not isinstance(data, dict):
        raise ValueError(f"{prefix}expected a JSON object, got {type(data).__name__}")
    missing = fields.keys() - data.keys()
    if missing:
        raise ValueError(f"{prefix}missing keys {sorted(missing)}")
    unknown = data.keys() - fields.keys() - optional.keys()
    if unknown:
        raise ValueError(f"{prefix}unknown keys {sorted(unknown)}")
    for key, kind in chain(fields.items(), optional.items()):
        if key in data and not kind.accepts([data[key]]):
            place = f"{context}.{key}" if context else key
            raise ValueError(f"{place}: expected {kind.expected}, got {data[key]!r}")
    return data


def items_pass(
    items: list, fields: Mapping[str, Kind], optional: Mapping[str, Kind] = {}
) -> bool:
    """True if ``items`` are JSON objects that would each pass
    :func:`check_object`.  A whole column is checked at once."""
    if not set(map(type, items)) <= {dict}:
        return False
    try:
        columns = [(kind, [item[key] for item in items]) for key, kind in fields.items()]
    except KeyError:  # a required key is missing
        return False
    columns += [
        (kind, [item[key] for item in items if key in item]) for key, kind in optional.items()
    ]
    # The columns hold every known key of every item: the items hold no
    # other key if they hold no more keys than the columns.
    if sum(map(len, items)) != sum(len(column) for _, column in columns):
        return False
    return all(kind.accepts(column) for kind, column in columns)


def check_items(
    items: object,
    context: str,
    fields: Mapping[str, Kind],
    optional: Mapping[str, Kind] = {},
) -> list:
    """``items`` if it is a JSON list of objects that each pass
    :func:`check_object`.  Only a list that fails :func:`items_pass` is
    searched item by item, so that the error names the item
    (``context[i]``) and the field."""
    if not isinstance(items, list):
        raise ValueError(f"{context}: expected a JSON list of objects")
    if not items_pass(items, fields, optional):
        for i, item in enumerate(items):
            check_object(item, f"{context}[{i}]", fields, optional)
    return items


def check_unique(items: list, context: str, key: str) -> None:
    """Raise naming ``context[i].key`` if item i of a checked list repeats
    the ``key`` value of an earlier item."""
    first: dict = {}
    for i, item in enumerate(items):
        j = first.setdefault(item[key], i)
        if j != i:
            raise ValueError(f"{context}[{i}].{key}: {item[key]!r} repeats {context}[{j}]")


@contextmanager
def located(context: str):
    """Prefix the message of a ValueError raised in the block with
    ``context``: the file, or the entry or field within it, that the
    failing values came from.  A :class:`ParameterError` stays one."""
    try:
        yield
    except ParameterError as exc:
        raise ParameterError(f"{context}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{context}: {exc}") from exc
