"""Nonlinear Young integration, Young flows, localized backward-equation
solvers, and Feynman-Kac Monte Carlo for Young PDEs, with a deterministic
experiment CLI."""

__version__ = "0.1.0"

from .diffusion import DiffusionSpec, PathBatch, first_exit, simulate
from .drivers import (SpaceTimeDriver, estimate_seminorm,
                      make_separable_driver, mollify_time)
from .fractional_sheet import SheetSpec, hurst_admissible, sample_sheet
from .paths import SamplePath, TimeGrid, p_variation
from .young_calculus import (FlowPath, flow_inverse, flow_product_defect,
                             nonlinear_young_integral, solve_flow)

__all__ = [
    "__version__",
    "TimeGrid", "SamplePath", "p_variation",
    "SpaceTimeDriver", "make_separable_driver", "mollify_time",
    "estimate_seminorm",
    "SheetSpec", "sample_sheet", "hurst_admissible",
    "nonlinear_young_integral", "solve_flow", "flow_inverse",
    "flow_product_defect", "FlowPath",
    "DiffusionSpec", "PathBatch", "simulate", "first_exit",
]
