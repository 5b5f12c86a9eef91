"""Finite-horizon LQ control synthesis: H2, H-infinity, offline-noncausal and
regret-optimal controllers, with a certificate of the regret controller's
worst-case regret gain."""

import importlib

from .system_model import (
    LqSystem,
    Trajectory,
    validate_system,
    normalize_control_weight,
    evaluate_cost,
)
from . import riccati, controllers, augmentation, sim_bench

__all__ = [
    "LqSystem",
    "Trajectory",
    "validate_system",
    "normalize_control_weight",
    "evaluate_cost",
    "riccati",
    "operator_oracle",
    "controllers",
    "augmentation",
    "sim_bench",
]

__version__ = "0.1.0"


def __getattr__(name):
    # the certificate loads on first access (PEP 562): of the subcommands,
    # only `certify` uses it
    if name == "operator_oracle":
        return importlib.import_module(".operator_oracle", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
