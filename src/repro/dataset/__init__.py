"""Anonymized dataset release (paper Appendix A.1).

The paper released its dataset with IP addresses and AS numbers
replaced by consecutive identifiers, certificate fields carrying
address-equivalent information blackened, and all payload data
excluded.  This package applies the same transformations and writes
newline-delimited JSON.
"""

from repro.dataset.anonymize import AnonymizationMap, anonymize_snapshot
from repro.dataset.catalog import RunInfo, StudyCatalog
from repro.dataset.io import (
    DatasetFormatError,
    iter_snapshots,
    read_snapshots,
    write_snapshots,
)
from repro.dataset.store import (
    StoreIntegrityError,
    StudyStore,
    resolve_store,
    study_key,
)

__all__ = [
    "AnonymizationMap",
    "DatasetFormatError",
    "RunInfo",
    "StoreIntegrityError",
    "StudyCatalog",
    "StudyStore",
    "anonymize_snapshot",
    "iter_snapshots",
    "read_snapshots",
    "resolve_store",
    "study_key",
    "write_snapshots",
]
