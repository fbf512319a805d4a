"""Ground-truth deployment population.

Builds the simulated Internet the study scans: ~1900 OPC UA hosts
whose *joint* configuration distribution encodes every number the
paper published (Figures 2-8, Tables 1-2, and the longitudinal
statistics of §5.5).  The scanner never sees this package's ground
truth — it measures the resulting servers over the wire.
"""

from repro.deployments.keyfactory import KeyFactory
from repro.deployments.manufacturers import (
    MANUFACTURERS,
    Manufacturer,
    manufacturer_by_name,
)
from repro.deployments.profiles import (
    CERT_CLASSES,
    CertClass,
    POLICY_GROUPS,
    PolicyGroup,
)
from repro.deployments.spec import (
    PAPER_TOTALS,
    PopulationSpec,
    SpecRow,
    build_default_spec,
)
from repro.deployments.population import BuiltHost, PopulationBuilder
from repro.deployments.evolution import StudyTimeline, SWEEP_DATES

__all__ = [
    "BuiltHost",
    "CERT_CLASSES",
    "CertClass",
    "KeyFactory",
    "MANUFACTURERS",
    "Manufacturer",
    "PAPER_TOTALS",
    "POLICY_GROUPS",
    "PolicyGroup",
    "PopulationBuilder",
    "PopulationSpec",
    "SWEEP_DATES",
    "SpecRow",
    "StudyTimeline",
    "build_default_spec",
    "manufacturer_by_name",
]
