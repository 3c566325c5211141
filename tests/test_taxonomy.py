from __future__ import annotations

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sotifkit import (
    TriggeringCondition,
    enumerate_leaves,
    filter_by_odd,
    load_taxonomy,
    parse_taxonomy,
    serialize_taxonomy,
)
from sotifkit.errors import TaxonomyError
from sotifkit.fixtures import fixture_path
from sotifkit.taxonomy import MAX_DEPTH, TaxonomyNode

SNOW_DOC = json.dumps(
    {
        "version": 1,
        "roots": [
            {
                "id": "environmental-conditions",
                "name": "Environmental conditions",
                "odd_tags": ["weather"],
                "children": [
                    {
                        "id": "weather",
                        "name": "Weather",
                        "odd_tags": [],
                        "children": [
                            {
                                "id": "snow",
                                "name": "Snow",
                                "odd_tags": [],
                                "children": [
                                    {"id": "snow-light", "name": "Light snow", "odd_tags": [], "intensity": "light"},
                                    {"id": "snow-medium", "name": "Medium snow", "odd_tags": [], "intensity": "medium"},
                                    {"id": "snow-heavy", "name": "Heavy snow", "odd_tags": [], "intensity": "heavy"},
                                ],
                            }
                        ],
                    }
                ],
            }
        ],
    }
)


def _count_leaves(node: TaxonomyNode) -> int:
    # Independent recursive walk, used as the oracle for enumerate_leaves.
    if node.is_leaf:
        return 1
    return sum(_count_leaves(c) for c in node.children)


class TestParse:
    def test_snow_subtree(self):
        tax = parse_taxonomy(SNOW_DOC)
        assert tax.leaf_count() == 3
        leaves = enumerate_leaves(tax)
        assert [c.leaf_id for c in leaves] == ["snow-light", "snow-medium", "snow-heavy"]
        assert all(
            c.category_path == ("Environmental conditions", "Weather", "Snow")
            for c in leaves
        )
        assert [c.intensity for c in leaves] == ["light", "medium", "heavy"]
        # Tags propagate down from ancestors.
        assert all(c.odd_tags == frozenset({"weather"}) for c in leaves)

    def test_empty_children_rejected(self):
        doc = json.dumps(
            {
                "version": 1,
                "roots": [{"id": "a", "name": "A", "odd_tags": [], "children": []}],
            }
        )
        with pytest.raises(TaxonomyError, match="nonempty children"):
            parse_taxonomy(doc)

    def test_duplicate_id_reports_both_locations(self):
        doc = json.dumps(
            {
                "version": 1,
                "roots": [
                    {
                        "id": "weather",
                        "name": "Weather",
                        "odd_tags": [],
                        "children": [
                            {"id": "snow-heavy", "name": "Heavy snow", "odd_tags": []},
                            {"id": "snow-heavy", "name": "Heavy snow again", "odd_tags": []},
                        ],
                    }
                ],
            }
        )
        with pytest.raises(TaxonomyError) as exc_info:
            parse_taxonomy(doc)
        message = str(exc_info.value)
        assert "snow-heavy" in message
        assert "children[0]" in message and "children[1]" in message

    def test_syntax_error_reports_line(self):
        with pytest.raises(TaxonomyError, match="line"):
            parse_taxonomy('{"version": 1, "roots": [}')

    def test_intensity_on_category_rejected(self):
        doc = json.dumps(
            {
                "version": 1,
                "roots": [
                    {
                        "id": "a",
                        "name": "A",
                        "odd_tags": [],
                        "intensity": "heavy",
                        "children": [{"id": "b", "name": "B", "odd_tags": []}],
                    }
                ],
            }
        )
        with pytest.raises(TaxonomyError, match="both children and an intensity"):
            parse_taxonomy(doc)

    def test_unknown_intensity_rejected(self):
        doc = json.dumps(
            {
                "version": 1,
                "roots": [{"id": "a", "name": "A", "odd_tags": [], "intensity": "extreme"}],
            }
        )
        with pytest.raises(
            TaxonomyError, match=r"roots\[0\]\.intensity: expected one of .*, got 'extreme'"
        ):
            parse_taxonomy(doc)

    def test_unknown_keys_rejected(self):
        doc = json.dumps(
            {"version": 1, "roots": [{"id": "a", "name": "A", "odd_tags": [], "note": "x"}]}
        )
        with pytest.raises(TaxonomyError, match="unknown keys"):
            parse_taxonomy(doc)

    def test_unsupported_version(self):
        # Only the integer 1: not true, 1.0 or "1", though each compares
        # equal to it or reads as it.
        for version in ("2", "true", "1.0", '"1"'):
            with pytest.raises(TaxonomyError, match="version"):
                parse_taxonomy(f'{{"version": {version}, "roots": []}}')


def chain_taxonomy(levels: int) -> str:
    """A taxonomy that is one chain of categories, with its leaf on level
    ``levels``."""
    node = {"id": f"n{levels}", "name": "leaf", "odd_tags": []}
    for level in range(levels - 1, 0, -1):
        node = {"id": f"n{level}", "name": f"level {level}", "odd_tags": [], "children": [node]}
    return json.dumps({"version": 1, "roots": [node]})


def called_deep(frames: int, call):
    """``call()``, run ``frames`` Python frames deeper than this call."""
    return call() if frames == 0 else called_deep(frames - 1, call)


class TestMaxDepth:
    """Whether a taxonomy loads depends on its depth, not on the caller's
    stack: a json.loads call nested deep enough fails where the same call
    at the top of a script succeeds."""

    def test_at_the_limit_loads_deep_in_the_stack(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text(chain_taxonomy(MAX_DEPTH), encoding="utf-8")
        (condition,) = enumerate_leaves(called_deep(300, lambda: load_taxonomy(path)))
        assert len(condition.category_path) == MAX_DEPTH - 1

    def test_one_level_deeper_is_rejected(self, tmp_path):
        path = tmp_path / "deeper.json"
        path.write_text(chain_taxonomy(MAX_DEPTH + 1), encoding="utf-8")
        place = "roots[0]" + ".children[0]" * (MAX_DEPTH - 1)
        with pytest.raises(TaxonomyError) as info:
            load_taxonomy(path)
        assert str(info.value) == f"{path}: {place}.children: a taxonomy is at most 64 levels deep"


class TestRoundTrip:
    def test_fixture_is_fixed_point(self):
        text = fixture_path("taxonomy.json").read_text(encoding="utf-8")
        first = parse_taxonomy(text)
        second = parse_taxonomy(serialize_taxonomy(first))
        assert first == second
        # And serialization is stable from there on.
        assert serialize_taxonomy(first) == serialize_taxonomy(second)

    def test_snow_doc_round_trip(self):
        first = parse_taxonomy(SNOW_DOC)
        assert parse_taxonomy(serialize_taxonomy(first)) == first


class TestEnumerate:
    def test_single_leaf_tree(self):
        doc = json.dumps(
            {"version": 1, "roots": [{"id": "only", "name": "Only", "odd_tags": ["t"]}]}
        )
        leaves = enumerate_leaves(parse_taxonomy(doc))
        assert len(leaves) == 1
        assert leaves[0].leaf_id == "only"
        assert leaves[0].category_path == ("Only",)

    def test_fixture_count_matches_independent_walk(self, fixture_taxonomy):
        expected = sum(_count_leaves(root) for root in fixture_taxonomy.roots)
        assert len(enumerate_leaves(fixture_taxonomy)) == expected
        assert fixture_taxonomy.leaf_count() == expected

    def test_document_order(self, fixture_taxonomy):
        leaves = enumerate_leaves(fixture_taxonomy)
        ids = [c.leaf_id for c in leaves]
        assert ids.index("rain-light") < ids.index("rain-heavy") < ids.index("surface-dry")


class TestFilterByOdd:
    def test_target_vehicle_conditions_excluded(self, fixture_taxonomy, fixture_odd):
        conditions = enumerate_leaves(fixture_taxonomy)
        kept = filter_by_odd(conditions, fixture_odd.odd_tags)
        kept_ids = {c.leaf_id for c in kept}
        assert "lead-vehicle-braking" not in kept_ids
        assert "vehicle-cut-in" not in kept_ids
        assert "darkness" not in kept_ids  # illumination not in the ODD tags
        assert "snow-heavy" in kept_ids and "surface-icy" in kept_ids

    def test_empty_tag_set_keeps_nothing(self, fixture_taxonomy):
        assert filter_by_odd(enumerate_leaves(fixture_taxonomy), frozenset()) == []

    def test_shared_tag_is_identity(self):
        conditions = enumerate_leaves(parse_taxonomy(SNOW_DOC))
        assert filter_by_odd(conditions, {"weather"}) == conditions

    def test_idempotent_and_subset_on_random_tag_sets(self, fixture_taxonomy):
        conditions = enumerate_leaves(fixture_taxonomy)
        universe = sorted({t for c in conditions for t in c.odd_tags} | {"unused-tag"})
        rng = random.Random(20240811)
        for _ in range(100):
            tags = frozenset(rng.sample(universe, rng.randint(0, len(universe))))
            once = filter_by_odd(conditions, tags)
            twice = filter_by_odd(once, tags)
            assert twice == once
            assert all(c in conditions for c in once)
            # Order preserved.
            indices = [conditions.index(c) for c in once]
            assert indices == sorted(indices)
            # Monotone: shrinking the tag set never grows the result.
            for tag in list(tags):
                smaller = filter_by_odd(conditions, tags - {tag})
                assert len(smaller) <= len(once)
                assert set(c.leaf_id for c in smaller) <= {c.leaf_id for c in once}
                break

    @given(st.sets(st.sampled_from(["weather", "road-surface", "static-object", "x"])))
    def test_result_is_subset(self, fixture_taxonomy, tags):
        conditions = enumerate_leaves(fixture_taxonomy)
        kept = filter_by_odd(conditions, tags)
        assert set(c.leaf_id for c in kept) <= {c.leaf_id for c in conditions}


def test_condition_requires_category_path():
    with pytest.raises(TaxonomyError):
        TriggeringCondition(leaf_id="x", category_path=())


def test_condition_stores_its_collections_frozen():
    condition = TriggeringCondition("x", ["Weather", "Snow"], odd_tags={"weather"})
    expected = TriggeringCondition("x", ("Weather", "Snow"), odd_tags=frozenset({"weather"}))
    assert condition == expected
    assert type(condition.category_path) is tuple and type(condition.odd_tags) is frozenset
    hash(condition)


@pytest.mark.parametrize("field", ["category_path", "odd_tags"])
def test_condition_rejects_a_string_for_a_collection(field):
    with pytest.raises(TaxonomyError, match=field):
        TriggeringCondition(**{"leaf_id": "x", "category_path": ("Weather",), field: "weather"})
