"""Shared pipeline machinery: fetch, in-flight window, resources, core
engine."""

from repro.pipeline.core_base import FAULT_NONE, OutOfOrderCore
from repro.pipeline.fetch import FetchEngine
from repro.pipeline.resources import FunctionalUnitPool, LoadBuffer
from repro.pipeline.stats import SimStats
from repro.pipeline.window import InflightWindow

__all__ = [
    "FAULT_NONE",
    "FetchEngine",
    "FunctionalUnitPool",
    "InflightWindow",
    "LoadBuffer",
    "OutOfOrderCore",
    "SimStats",
]
