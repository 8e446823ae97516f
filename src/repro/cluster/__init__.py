"""Experiment assembly: configs, schemes, the runner, results."""

from .builder import ExperimentRunner, run_experiment
from .config import ExperimentConfig
from .results import RunResult, merge_client_stats
from .schemes import (
    OFFLOAD_ADAPTIVE,
    OFFLOAD_ALWAYS,
    OFFLOAD_NEVER,
    SCHEMES,
    SchemeSpec,
    scheme_spec,
)

__all__ = [
    "ExperimentRunner",
    "run_experiment",
    "ExperimentConfig",
    "RunResult",
    "merge_client_stats",
    "OFFLOAD_ADAPTIVE",
    "OFFLOAD_ALWAYS",
    "OFFLOAD_NEVER",
    "SCHEMES",
    "SchemeSpec",
    "scheme_spec",
]
