"""Workload generators: traffic mixes, web catalogs, diurnal curves, EHR."""

from repro.workloads.diurnal import (
    RESIDENTIAL_EVENING_PEAK,
    DiurnalCurve,
)
from repro.workloads.ehr import RECORD_KINDS, EhrEvent, EhrEventGenerator
from repro.workloads.fleet import (
    BackgroundAggregate,
    Fleet,
    FleetSpec,
    build_fleet,
)
from repro.workloads.traffic import (
    HouseholdProfile,
    HouseholdTrafficModel,
    TrafficEvent,
)
from repro.workloads.web import (
    CatalogSpec,
    ZipfPagePopularity,
    generate_catalog,
    poisson_arrivals,
)

__all__ = [
    "RESIDENTIAL_EVENING_PEAK",
    "DiurnalCurve",
    "RECORD_KINDS",
    "EhrEvent",
    "EhrEventGenerator",
    "BackgroundAggregate",
    "Fleet",
    "FleetSpec",
    "build_fleet",
    "HouseholdProfile",
    "HouseholdTrafficModel",
    "TrafficEvent",
    "CatalogSpec",
    "ZipfPagePopularity",
    "generate_catalog",
    "poisson_arrivals",
]
