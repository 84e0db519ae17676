"""parsemunge: fit/apply tabular preprocessing with categoric string parsing,
family-tree transform composition, and a serializable fit artifact."""

from .encoders import auto_root_select
from .errors import ConfigError, DataError, ParsemungeError
from .extract_search import nmcm_extract
from .importance import ImportanceReport, PredictorAdapter, builtin_tree, permutation_importance
from .registry import FamilyTree, ProcessEntry, Registry, builtin_registry, merge_overrides, validate_registry
from .stringparse import OverlapMap, OverlapScanConfig, scan_overlaps
from .tidytable import TidyTable, infer_coltype, load_csv, write_csv
from .treeengine import (
    DriftReport,
    FitArtifact,
    Options,
    StepRecord,
    apply,
    deserialize,
    drift_report,
    fit,
    invert,
    serialize,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "DriftReport",
    "FamilyTree",
    "FitArtifact",
    "ImportanceReport",
    "Options",
    "OverlapMap",
    "OverlapScanConfig",
    "ParsemungeError",
    "PredictorAdapter",
    "ProcessEntry",
    "Registry",
    "StepRecord",
    "TidyTable",
    "apply",
    "auto_root_select",
    "builtin_registry",
    "builtin_tree",
    "deserialize",
    "drift_report",
    "fit",
    "infer_coltype",
    "invert",
    "load_csv",
    "merge_overrides",
    "nmcm_extract",
    "permutation_importance",
    "scan_overlaps",
    "serialize",
    "validate_registry",
    "write_csv",
]
