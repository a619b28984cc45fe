"""The five transformation types that define Stubby's plan space (paper §3),
plus the ReStore-style sub-result reuse rewrite (docs/reuse.md)."""

from repro.core.transformations.base import (
    Transformation,
    TransformationApplication,
    TransformationGroup,
)
from repro.core.transformations.intra_vertical import IntraJobVerticalPacking
from repro.core.transformations.inter_vertical import InterJobVerticalPacking
from repro.core.transformations.horizontal import HorizontalPacking
from repro.core.transformations.partition_function import PartitionFunctionTransformation
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.core.transformations.reuse import SubResultReuseTransformation

VERTICAL_GROUP = (
    IntraJobVerticalPacking,
    InterJobVerticalPacking,
    PartitionFunctionTransformation,
)
HORIZONTAL_GROUP = (
    HorizontalPacking,
    PartitionFunctionTransformation,
)

__all__ = [
    "Transformation",
    "TransformationApplication",
    "TransformationGroup",
    "IntraJobVerticalPacking",
    "InterJobVerticalPacking",
    "HorizontalPacking",
    "PartitionFunctionTransformation",
    "ConfigurationTransformation",
    "SubResultReuseTransformation",
    "VERTICAL_GROUP",
    "HORIZONTAL_GROUP",
]
