"""Tests for dataset, schema, filter, and profile annotations."""

import dataclasses

import pytest

from repro.common.errors import AnnotationError
from repro.workflow.annotations import (
    DatasetAnnotation,
    FilterAnnotation,
    FilterRange,
    JobAnnotations,
    OperatorProfile,
    ProfileAnnotation,
    SchemaAnnotation,
)


class TestDatasetAnnotation:
    def test_partitioned_on_subset(self):
        annotation = DatasetAnnotation(partition_kind="hash", partition_fields=("doc",))
        assert annotation.partitioned_on_subset_of(["doc", "word"])
        assert not annotation.partitioned_on_subset_of(["word"])

    def test_unpartitioned_never_matches(self):
        assert not DatasetAnnotation().partitioned_on_subset_of(["doc"])

    def test_sorted_to_group_on(self):
        annotation = DatasetAnnotation(sort_fields=("doc", "word"))
        assert annotation.sorted_to_group_on(["doc"])
        assert annotation.sorted_to_group_on(["doc", "word"])
        assert not annotation.sorted_to_group_on(["word", "other"])

    def test_unknown_sort_means_not_grouped(self):
        assert not DatasetAnnotation().sorted_to_group_on(["doc"])
        assert DatasetAnnotation().sorted_to_group_on([])

    def test_invalid_partition_kind(self):
        with pytest.raises(AnnotationError):
            DatasetAnnotation(partition_kind="zigzag")


class TestSchemaAnnotation:
    def test_of_builds_fieldsets(self):
        schema = SchemaAnnotation.of(k2=["a", "b"], k3=["a"])
        assert schema.k2 == frozenset({"a", "b"})
        assert schema.k1 is None

    def test_key_flows_through_reduce(self):
        schema = SchemaAnnotation.of(k2=["o", "z"], k3=["o", "z"])
        assert schema.key_flows_through_reduce(["o"])
        assert not SchemaAnnotation.of(k2=["o"], k3=["x"]).key_flows_through_reduce(["o"])
        assert not SchemaAnnotation.of(k2=["o"]).key_flows_through_reduce(["o"])

    def test_map_emits_fields_from_input(self):
        schema = SchemaAnnotation.of(k1=["o"], v1=["o", "z"], k2=["o"])
        assert schema.map_emits_fields_from_input(["o"])
        schema2 = SchemaAnnotation.of(k1=["x"], v1=["x"], k2=["o"])
        assert not schema2.map_emits_fields_from_input(["o"])

    def test_map_emits_with_unknown_input_schema(self):
        schema = SchemaAnnotation.of(k2=["o"])
        assert schema.map_emits_fields_from_input(["o"])
        assert not schema.map_emits_fields_from_input(["q"])


class TestFilterAnnotation:
    def test_empty_range_rejected(self):
        with pytest.raises(AnnotationError):
            FilterRange(5.0, 5.0)

    def test_of_constructor_and_lookup(self):
        annotation = FilterAnnotation.of(age=(10.0, 35.0))
        assert list(annotation.ranges) == ["age"]
        assert annotation.range_for("age").high == 35.0
        assert annotation.range_for("other") is None


class TestProfileAnnotation:
    def test_negative_statistics_rejected(self):
        with pytest.raises(AnnotationError):
            ProfileAnnotation(map_selectivity=-1.0)
        with pytest.raises(AnnotationError):
            OperatorProfile(selectivity=-0.1)

    def test_cardinality_exact_superset_subset(self):
        profile = ProfileAnnotation(key_cardinalities={("a", "b"): 100.0, ("a",): 10.0})
        assert profile.cardinality(("a", "b")) == 100.0
        assert profile.cardinality(("a",)) == 10.0
        # superset fallback
        assert profile.cardinality(("b",)) == 100.0
        # unknown fields fall back to default
        assert ProfileAnnotation().cardinality(("zz",), default=7.0) == 7.0

    def test_merged_with_unions_operators(self):
        left = ProfileAnnotation(operator_profiles={"m1": OperatorProfile(selectivity=2.0)})
        right = ProfileAnnotation(
            operator_profiles={"m2": OperatorProfile(selectivity=0.5)},
            key_cardinalities={("k",): 5.0},
        )
        merged = left.merged_with(right)
        assert set(merged.operator_profiles) == {"m1", "m2"}
        assert merged.cardinality(("k",)) == 5.0



class TestJobAnnotations:
    def test_copy_is_independent(self):
        # Annotations are frozen: a "copy" is dataclasses.replace, and neither
        # the source dict nor an in-place write can reach a built value.
        source = {"flag": 1}
        annotations = JobAnnotations(filter=FilterAnnotation.of(x=(0, 1)), conditions=source)
        source["flag"] = 3
        copy = dataclasses.replace(annotations, conditions={**annotations.conditions, "flag": 2})
        assert annotations.conditions["flag"] == 1 and copy.conditions["flag"] == 2
        assert copy.filter is annotations.filter
        with pytest.raises(TypeError):
            annotations.conditions["flag"] = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            annotations.filter = None

    def test_filter_for_prefers_per_input(self):
        annotations = JobAnnotations(
            filter=FilterAnnotation.of(x=(0, 1)),
            per_input_filters={"d": FilterAnnotation.of(y=(2, 3))},
        )
        assert list(annotations.filter_for("d").ranges) == ["y"]
        assert list(annotations.filter_for("other").ranges) == ["x"]
        assert list(annotations.filter_for().ranges) == ["x"]

    def test_has_flags(self):
        assert not JobAnnotations().has_profile
        assert JobAnnotations(profile=ProfileAnnotation()).has_profile
