"""The five transformation types that define Stubby's plan space (paper §3),
plus the ReStore-style sub-result reuse rewrite (docs/reuse.md)."""

from repro.core.transformations.base import Transformation, TransformationApplication
from repro.core.transformations.intra_vertical import IntraJobVerticalPacking
from repro.core.transformations.inter_vertical import InterJobVerticalPacking
from repro.core.transformations.horizontal import HorizontalPacking
from repro.core.transformations.partition_function import PartitionFunctionTransformation
from repro.core.transformations.configuration import ConfigurationTransformation
from repro.core.transformations.reuse import SubResultReuseTransformation

__all__ = [
    "Transformation",
    "TransformationApplication",
    "IntraJobVerticalPacking",
    "InterJobVerticalPacking",
    "HorizontalPacking",
    "PartitionFunctionTransformation",
    "ConfigurationTransformation",
    "SubResultReuseTransformation",
]
