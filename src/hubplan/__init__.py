"""Capacity planning for building-scale multi-energy hubs.

The package takes historical load/PV/EV data, generates correlated scenario
days by moment matching, assembles a two-stage stochastic MILP of the hub
(grid import, PV, fuel cells, battery and thermal storage, bidirectional
EVs, and a chance limit on EV departure shortfalls), solves it with a
built-in branch-and-bound over a bounded-variable simplex, and reports
costs, emissions and dispatch.
"""

__version__ = "0.1.0"

from .core import (BessSpec, EquipmentCatalog, EvFleetSpec, EvRecord, FcSpec,
                   MONEY_SCALE, Scenario, ScenarioSet, TariffSet, TessSpec,
                   TimeGrid, annualization_factor, validate_scenario_set)
from .errors import (DecompositionError, DegenerateColumnError, HubplanError,
                     InvalidParameterError, ModelBuildError, MomentFitError,
                     MpsFormatError, ParseError, SolverError)

__all__ = [
    "BessSpec", "EquipmentCatalog", "EvFleetSpec", "EvRecord", "FcSpec",
    "MONEY_SCALE", "Scenario", "ScenarioSet", "TariffSet", "TessSpec",
    "TimeGrid", "annualization_factor", "validate_scenario_set",
    "DecompositionError", "DegenerateColumnError", "HubplanError",
    "InvalidParameterError", "ModelBuildError", "MomentFitError",
    "MpsFormatError", "ParseError", "SolverError",
    "__version__",
]
