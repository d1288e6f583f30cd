"""Pseudo-spectral simulator and numerical test bench for viscous gravity
waves in the flattened half-strip formulation."""

from .config import RunConfig, initial_data, parse_config
from .diagnostics import (DiagRecord, analyticity_radius, compute_records,
                          decay_rate)
from .elliptic import (EllipticSolution, PoissonSolution, poisson_divform,
                       solve_phi1, solve_phi2)
from .errors import (ConfigurationError, ContractionError, DiffeomorphismError,
                     NumericsError, SingularityError)
from .evolution import ModelParams, SimState, StepOptions, Trajectory, run, step
from .geometry import (GeometryBundle, StripField, StripGrid, build_geometry,
                       check_piola, harmonic_extension)
from .norms import (InequalityReport, NormSpec, compose_G, constant_K,
                    constant_k, sobolev_norm, strip_norm, wiener_norm)
from .spectral import (SpectrumField, cosine, mollify, pointwise_product, sine,
                       values_on_grid)

__version__ = "0.1.0"
