"""Grid laboratory for weighted p-Dirichlet principal eigenvalues, their
geometric large-p limits, and residual checks of the limit equation."""

from .grid import (DistanceField, Disk, DomainMask, Grid, Polygon, Rect,
                   ScalarField, edt, rasterize)
from .weight import WeightField, build_weight, negate, regions_weight
from .geometry import (GeoLimits, PackingResult, compute_limits, cone_field,
                       pack, r_plus, two_cone_field)
from .eigen import (EigenResult, SolverOpts, dirichlet_energy_p, mu1,
                    rayleigh_root, solve_lambda1, sweep, two_cone_upper_bound,
                    weighted_mass_p)
from .viscosity import CheckOpts, ViscosityReport, check, inf_laplacian

__all__ = [
    "Grid", "DomainMask", "DistanceField", "ScalarField",
    "Disk", "Rect", "Polygon", "rasterize", "edt",
    "WeightField", "build_weight", "regions_weight", "negate",
    "GeoLimits", "PackingResult", "r_plus", "pack", "cone_field",
    "two_cone_field", "compute_limits",
    "EigenResult", "SolverOpts", "dirichlet_energy_p", "weighted_mass_p",
    "rayleigh_root", "solve_lambda1", "mu1", "two_cone_upper_bound", "sweep",
    "CheckOpts", "ViscosityReport", "inf_laplacian", "check",
]

__version__ = "0.1.0"
