import pytest

from hypothesis import given, strategies as st

from mdistinct.errors import ValidationError
from mdistinct.model import (AttributeSchema, CounterfeitMember, Hierarchy,
                             Record, TableSchema, bounding_region,
                             generalize, region_contains)

TREE = {
    "unmarried": {"never_married": None, "separated": None,
                  "divorced": None, "widowed": None},
    "married": {"civil_marriage": None, "religious_marriage": None},
}


@pytest.fixture
def marital() -> Hierarchy:
    return Hierarchy("any", TREE)


class TestHierarchy:
    def test_leaves_in_tree_order(self, marital):
        assert marital.leaves == ("never_married", "separated", "divorced",
                                  "widowed", "civil_marriage",
                                  "religious_marriage")

    def test_span_and_leafcount(self, marital):
        assert marital.span("unmarried") == (0, 3)
        assert marital.span("divorced") == (2, 2)
        assert marital.leafcount("any") == 6
        assert marital.leafcount("married") == 2

    def test_covering_node_picks_smallest(self, marital):
        assert marital.covering_node(0, 3) == "unmarried"
        assert marital.covering_node(1, 2) == "unmarried"
        assert marital.covering_node(4, 4) == "civil_marriage"
        # crossing the top split forces the root
        assert marital.covering_node(3, 4) == "any"

    def test_lca(self, marital):
        assert marital.lca(["separated", "widowed"]) == "unmarried"
        assert marital.lca(["separated", "civil_marriage"]) == "any"
        assert marital.lca(["divorced"]) == "divorced"

    def test_flat_builds_single_level(self):
        h = Hierarchy.flat("any_gender", ["female", "male"])
        assert h.leaves == ("female", "male")
        assert h.span("any_gender") == (0, 1)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValidationError):
            Hierarchy("top", {"a": {"top": None}})

    @pytest.mark.parametrize("tree", [{"a": None, "b": {"a": None}},
                                      ["a", "a"]])
    def test_repeated_leaf_is_a_duplicate_node(self, tree):
        with pytest.raises(ValidationError, match="duplicate hierarchy node"):
            Hierarchy("top", tree)

    @pytest.mark.parametrize("tree", [{}, {"a": {}, "b": None}, {"a": []}])
    def test_node_without_leaves_rejected(self, tree):
        with pytest.raises(ValidationError, match="has no leaves"):
            Hierarchy("top", tree)

    def test_unknown_node_rejected(self, marital):
        with pytest.raises(ValidationError, match="unknown hierarchy node"):
            marital.span("engaged")

    @pytest.mark.parametrize("lo, hi", [(3, 2), (-1, 0), (0, 6)])
    def test_covering_node_out_of_bounds_rejected(self, marital, lo, hi):
        with pytest.raises(ValidationError, match="out of bounds"):
            marital.covering_node(lo, hi)


class TestAttributeSchema:
    def test_numeric_bounds(self):
        attr = AttributeSchema.numeric("age", 15, 40)
        assert attr.size == 26
        assert attr.contains(15) and attr.contains(40)
        assert not attr.contains(41)
        assert attr.to_index(20) == 5

    def test_categorical_index(self, marital):
        attr = AttributeSchema.categorical("marital", marital)
        assert attr.size == 6
        assert attr.to_index("divorced") == 2
        assert not attr.contains("any")   # only leaves are values

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            AttributeSchema.numeric("age", 10, 9)

    def test_categorical_needs_a_hierarchy(self):
        with pytest.raises(ValidationError, match="without hierarchy"):
            AttributeSchema("marital", "categorical")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValidationError, match="unknown kind 'ordinal'"):
            AttributeSchema("grade", "ordinal", 1, 5)


@pytest.fixture
def schema(marital) -> TableSchema:
    return TableSchema((AttributeSchema.numeric("age", 0, 99),
                        AttributeSchema.categorical("marital", marital)),
                       "job", ("clerk", "nurse", "pilot"))


class TestValidateRecord:
    def test_record_in_domain_passes(self, schema):
        schema.validate_record(Record("r", (30, "widowed"), "nurse"))

    @pytest.mark.parametrize("record, message", [
        (Record("r", (30,), "nurse"), "expected 2 QI values, got 1"),
        (Record("r", (100, "widowed"), "nurse"), "age=100 outside domain"),
        (Record("r", (30, "unmarried"), "nurse"),
         "marital='unmarried' outside domain"),
        (Record("r", (30, "widowed"), "chef"),
         "sensitive value 'chef' outside domain"),
    ])
    def test_record_outside_the_schema_rejected(self, schema, record,
                                                message):
        with pytest.raises(ValidationError, match=message):
            schema.validate_record(record)


class TestRegions:
    def test_empty_point_set_rejected(self, schema):
        with pytest.raises(ValidationError, match="empty group"):
            bounding_region(schema, [])

    def test_bounding_region(self, schema):
        region = bounding_region(schema, [(30, "separated"),
                                          (40, "widowed")])
        assert region == ((30, 40), "unmarried")

    @given(st.lists(st.tuples(st.integers(0, 99),
                              st.sampled_from(Hierarchy("any", TREE).leaves)),
                    min_size=1, max_size=6))
    def test_bounding_region_contains_every_point(self, points):
        schema = TableSchema((AttributeSchema.numeric("age", 0, 99),
                              AttributeSchema.categorical(
                                  "marital", Hierarchy("any", TREE))),
                             "job", ("clerk",))
        region = bounding_region(schema, points)
        assert all(region_contains(schema, region, p) for p in points)


class TestGeneralize:
    def test_counterfeit_tags_run_across_groups(self, schema):
        release = generalize(schema, 3, [
            [Record("r2", (20, "divorced"), "nurse"),
             Record("r1", (25, "widowed"), "clerk"),
             CounterfeitMember("pilot")],
            [Record("r3", (50, "civil_marriage"), "pilot"),
             CounterfeitMember("clerk")],
        ])
        assert release.release_index == 3
        g1, g2 = release.groups
        # reals sorted by id first, then counterfeits
        assert [m.rid for m in g1.members] == ["r1", "r2", "c1"]
        assert [m.rid for m in g2.members] == ["r3", "c2"]
        assert release.counterfeit_stats == {1: 1, 2: 1}
        # the region ignores counterfeits (they have no QI values)
        assert g1.region == ((20, 25), "unmarried")

    def test_empty_group_rejected(self, schema):
        with pytest.raises(ValidationError, match="empty group"):
            generalize(schema, 1, [[Record("a", (1, "divorced"), "clerk")],
                                   []])

    def test_group_needs_a_real_member(self, schema):
        with pytest.raises(ValidationError):
            generalize(schema, 1, [[CounterfeitMember("clerk")]])

    def test_group_of_maps_real_ids(self, schema):
        release = generalize(schema, 1, [
            [Record("a", (1, "divorced"), "clerk"),
             Record("b", (2, "widowed"), "nurse")],
        ])
        assert set(release.group_of()) == {"a", "b"}
        assert release.groups[0].values == ("clerk", "nurse")
