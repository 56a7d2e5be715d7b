"""Periodic-domain laboratory for nonlocal aggregation-diffusion dynamics and
their local Keller-Segel-type approximations via Green-function kernels."""

from .domain import (Field, Grid, SpaceTimeSeries, gradient, norm_l1, norm_l2,
                     norm_l2_spacetime, norm_w11, periodic_convolve)
from .fit import FitResult, default_diffusivities, fit_coefficients, fit_to_tolerance
from .greens import GreensBasis, elliptic_solve, greens_periodic_spectral
from .kernel import (PeriodizedKernel, RadialKernel, adhesion_potential,
                     gaussian_kernel, greens_free_space, periodize)
from .pde import (ChemicalSpec, ModelFunctions, RunConfig, SolverState,
                  porous_medium_model, run)
from .specfun import bessel_k
from .harness import ExperimentReport, basis_fits, compare_runs, study_kernel, study_xi

__version__ = "0.1.0"
