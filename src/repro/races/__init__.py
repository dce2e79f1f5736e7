"""Dynamic data-race detection: ESP-bags (SRW and MRW) and the MHP oracle."""

from .arraycore import (
    ALGORITHMS,
    ArrayMrwDetector,
    ArraySrwDetector,
    run_arraycore,
)
from .bags import BagManager, P_BAG, S_BAG
from .detect import DetectionResult, detect_races
from .oracle import OracleDetector
from .replay import replay_detection
from .report import DataRace, RaceReport, addr_to_str, merge_reports

__all__ = [
    "ALGORITHMS",
    "BagManager",
    "S_BAG",
    "P_BAG",
    "DataRace",
    "RaceReport",
    "addr_to_str",
    "merge_reports",
    "OracleDetector",
    "ArrayMrwDetector",
    "ArraySrwDetector",
    "run_arraycore",
    "DetectionResult",
    "detect_races",
    "replay_detection",
]
