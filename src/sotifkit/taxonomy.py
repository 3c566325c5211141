"""Hierarchical triggering-conditions taxonomy: parsing, validation, queries.

A taxonomy is a forest of categories.  Main categories sit at the roots
(environmental conditions, road conditions, ...), subcategories below, and
the most granular conditions are the leaves (e.g. heavy snow is a leaf with
intensity "heavy" under .../weather/snow).  Each node carries relevance
tags used to filter conditions against an operational design domain.

File format (JSON, UTF-8, no comments)::

    {"version": 1, "roots": [<node>, ...]}

    <node> = {"id": str, "name": str, "odd_tags": [str, ...],
              "children": [<node>, ...]}                  # category
           | {"id": str, "name": str, "odd_tags": [str, ...],
              "intensity": "light"|"medium"|"heavy"}      # leaf
           | {"id": str, "name": str, "odd_tags": [str, ...]}  # leaf, no level

A node either has a nonempty ``children`` list or is a leaf; ids and names
are nonempty, and ids are unique across the whole document.  A taxonomy
is at most ``MAX_DEPTH`` levels deep: a root is at level 1, its children
at level 2, and so on.  Values are checked against the kinds of
:mod:`sotifkit.errors`, as every input file is.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Iterator

from .errors import (
    INT,
    LIST,
    STR,
    STRINGS,
    TaxonomyError,
    check_items,
    check_object,
    one_of,
    parse_json,
)
from .records import Record, set_field

__all__ = [
    "INTENSITY_LEVELS",
    "TaxonomyNode",
    "Taxonomy",
    "TriggeringCondition",
    "parse_taxonomy",
    "load_taxonomy",
    "serialize_taxonomy",
    "enumerate_leaves",
    "filter_by_odd",
]

INTENSITY_LEVELS = ("light", "medium", "heavy")

FORMAT_VERSION = 1

# The deepest level a node may sit at.  Fixed, so that whether a taxonomy
# loads depends on the file only, not on how deep the caller's stack is.
MAX_DEPTH = 64

_NODE_FIELDS = {"id": STR, "name": STR, "odd_tags": STRINGS}
_NODE_OPTIONAL = {"children": LIST, "intensity": one_of(INTENSITY_LEVELS)}


class TaxonomyNode(Record):
    """One taxonomy node; immutable after parsing."""

    __slots__ = _fields = ("id", "name", "odd_tags", "children", "intensity")

    def __init__(
        self,
        id: str,
        name: str,
        odd_tags: frozenset[str],
        children: tuple[TaxonomyNode, ...] = (),
        intensity: str | None = None,
    ) -> None:
        set_field(self, "id", id)
        set_field(self, "name", name)
        set_field(self, "odd_tags", odd_tags)
        set_field(self, "children", children)
        set_field(self, "intensity", intensity)

    @property
    def is_leaf(self) -> bool:
        return not self.children


class Taxonomy(Record):
    """A parsed taxonomy document (forest of root categories)."""

    __slots__ = _fields = ("roots",)

    def __init__(self, roots: tuple[TaxonomyNode, ...]) -> None:
        set_field(self, "roots", roots)

    def leaf_count(self) -> int:
        return sum(1 for _ in _iter_leaves(self.roots))


class TriggeringCondition(Record):
    """A leaf condition plus its category path and effective relevance tags.

    ``category_path`` holds the ancestor *names* root-first (the leaf's own
    name is not included).  ``odd_tags`` is the union of the leaf's tags and
    all its ancestors' tags, so subtree-level tagging propagates down.
    """

    __slots__ = _fields = ("leaf_id", "category_path", "intensity", "odd_tags")

    def __init__(
        self,
        leaf_id: str,
        category_path: tuple[str, ...],
        intensity: str | None = None,
        odd_tags: frozenset[str] = frozenset(),
    ) -> None:
        for name, names in (("category_path", category_path), ("odd_tags", odd_tags)):
            if isinstance(names, str):
                raise TaxonomyError(
                    f"condition '{leaf_id}': {name} must be a collection of names, got {names!r}"
                )
        category_path, odd_tags = tuple(category_path), frozenset(odd_tags)
        if not category_path:
            raise TaxonomyError(f"condition '{leaf_id}' has an empty category path")
        set_field(self, "leaf_id", leaf_id)
        set_field(self, "category_path", category_path)
        set_field(self, "intensity", intensity)
        set_field(self, "odd_tags", odd_tags)


def _parse_nodes(
    items: list, context: str, seen_ids: dict[str, str], depth: int = 1
) -> tuple[TaxonomyNode, ...]:
    """The sibling nodes ``items``, held at ``context`` on level ``depth``,
    with their subtrees.  ``seen_ids`` maps every id built so far to the
    place of its node."""
    check_items(items, context, _NODE_FIELDS, _NODE_OPTIONAL)
    nodes = []
    for i, item in enumerate(items):
        place = f"{context}[{i}]"
        node_id = item["id"]
        for key in ("id", "name"):
            if not item[key]:
                raise ValueError(f"{place}.{key}: must not be empty")
        first = seen_ids.setdefault(node_id, place)
        if first != place:
            raise ValueError(f"{place}.id: {node_id!r} repeats {first}")
        children = ()
        if "children" in item:
            if "intensity" in item:
                raise ValueError(
                    f"{place}: node {node_id!r} has both children and an intensity level"
                )
            if not item["children"]:
                raise ValueError(
                    f"{place}.children: category {node_id!r} must have a nonempty children list"
                )
            if depth == MAX_DEPTH:
                raise ValueError(
                    f"{place}.children: a taxonomy is at most {MAX_DEPTH} levels deep"
                )
            children = _parse_nodes(item["children"], f"{place}.children", seen_ids, depth + 1)
        nodes.append(
            TaxonomyNode(
                node_id, item["name"], frozenset(item["odd_tags"]), children, item.get("intensity")
            )
        )
    return tuple(nodes)


def parse_taxonomy(document: str) -> Taxonomy:
    """Parse and validate a taxonomy document from JSON text.

    Raises :class:`TaxonomyError` naming the place of any violation: the
    line and column of a syntax error, the field otherwise.
    """
    try:
        data = check_object(parse_json(document), "", {"version": INT, "roots": LIST})
        if data["version"] != FORMAT_VERSION:
            raise ValueError(
                f"version: unsupported version {data['version']}, expected {FORMAT_VERSION}"
            )
        return Taxonomy(roots=_parse_nodes(data["roots"], "roots", {}))
    except ValueError as exc:
        raise TaxonomyError(str(exc)) from exc


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Read and parse a taxonomy file.  Every error but an :class:`OSError`
    is a :class:`TaxonomyError` whose message starts with the file."""
    try:
        return parse_taxonomy(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # a TaxonomyError, or text that is not UTF-8
        raise TaxonomyError(f"{path}: {exc}") from exc


def _node_to_dict(node: TaxonomyNode) -> dict:
    out: dict = {
        "id": node.id,
        "name": node.name,
        "odd_tags": sorted(node.odd_tags),
    }
    if node.children:
        out["children"] = [_node_to_dict(c) for c in node.children]
    elif node.intensity is not None:
        out["intensity"] = node.intensity
    return out


def serialize_taxonomy(taxonomy: Taxonomy) -> str:
    """Render a taxonomy back to its canonical JSON form.

    parse -> serialize -> parse is a fixed point (tags are emitted sorted,
    which parsing does not distinguish).
    """
    doc = {
        "version": FORMAT_VERSION,
        "roots": [_node_to_dict(r) for r in taxonomy.roots],
    }
    return json.dumps(doc, indent=2) + "\n"


def _iter_leaves(
    nodes: Iterable[TaxonomyNode],
    names: tuple[str, ...] = (),
    tags: frozenset[str] = frozenset(),
) -> Iterator[tuple[TaxonomyNode, tuple[str, ...], frozenset[str]]]:
    for node in nodes:
        node_tags = tags | node.odd_tags
        if node.is_leaf:
            yield node, names, node_tags
        else:
            yield from _iter_leaves(node.children, names + (node.name,), node_tags)


def enumerate_leaves(taxonomy: Taxonomy) -> list[TriggeringCondition]:
    """All leaf conditions in depth-first document order.

    Root-level leaves are given a single-element category path (their own
    name) so the path invariant holds even for degenerate taxonomies.
    """
    conditions = []
    for leaf, names, tags in _iter_leaves(taxonomy.roots):
        conditions.append(
            TriggeringCondition(
                leaf_id=leaf.id,
                category_path=names if names else (leaf.name,),
                intensity=leaf.intensity,
                odd_tags=tags,
            )
        )
    return conditions


def filter_by_odd(
    conditions: Iterable[TriggeringCondition], odd_tags: Iterable[str]
) -> list[TriggeringCondition]:
    """Keep the conditions whose tags intersect the ODD's tag set.

    Order-preserving; idempotent; the result is always a subset of the
    input.  An empty ODD tag set keeps nothing.
    """
    tag_set = frozenset(odd_tags)
    return [c for c in conditions if c.odd_tags & tag_set]
