"""Random flights with sin-power directional drift and Dirichlet intertimes.

Simulation of the d-dimensional motion, every available closed-form law
(projected characteristic function / density / radial law for any drift
level, the full-flight characteristic function and density at drift
level 1), and a numerical validation suite tying the two together.
"""

from .analytic import (
    MixtureParams,
    cdf_radial_projection,
    cf_nu1,
    cf_projection,
    density_nu1,
    density_nu1_closed,
    density_projection,
    fractional_poisson_pmf,
    mixture_tail_bound,
    radial_density_nu1,
    radial_density_projection,
    radial_moment,
    unconditional_density_projection,
)
from .angular import angles_to_direction, angular_density, marginal_angular_density, sample_angles
from .flight import (
    FlightParams,
    draws_per_flight,
    replicate_stream,
    simulate_batch,
    simulate_flight,
    simulate_trajectories,
)
from .specfun import (
    bessel_j,
    bessel_j_ratio,
    double_factorial_odd,
    falling_factorial_coeffs,
    mittag_leffler_paper,
)
from .temporal import intertime_density, sample_intertimes

__version__ = "0.1.0"

_VALIDATION_NAMES = frozenset({
    "GofReport", "IdentityReport", "SuiteConfig", "check_identity",
    "gof_cf", "gof_radial", "ks_distance", "run_suite",
})


def __getattr__(name):
    # validation is imported on the first use of one of its names: its own
    # import costs about 5 ms (16 ms when it compiles; python -X importtime)
    # and 2 MB, which nothing else needs
    if name in _VALIDATION_NAMES:
        from . import validation

        return getattr(validation, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
