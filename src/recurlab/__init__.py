"""recurlab: exact and Monte Carlo experiments on quantitative recurrence
in expanding dynamical systems.

Highlights: exact rational interval-set arithmetic on the circle, closed-form
recurrence sets and their pairwise correlations for integer circle maps,
number-theoretic solution lattices, Ulam transfer-operator diagnostics,
precision-budgeted orbit statistics, and seeded reproducible experiments.
"""

from .circle import (
    EarRadius,
    ExplicitTable,
    IntervalSet,
    LogTimesH,
    PowerLaw,
    PowerLog,
    RadiusSequence,
    circle_dist,
    circle_point,
    ear_log2_delta,
    radius_eval,
)
from .dynamics import (
    DyadicOrbitView,
    FixedPointOrbit,
    LatticeOrbit,
    boshernitzan_statistic,
    iterate,
    min_return_distance,
    point_distance,
    return_exponents,
    return_time,
)
from .errors import (
    ArcBudgetExceeded,
    BranchBudgetExceeded,
    ConfigError,
    NonExpandingSystemError,
    PrecisionBudgetError,
    RecurlabError,
    RootOfUnityError,
)
from .exact_sets import (
    branch_ratio_check,
    build_ear_sets,
    build_recurrence_set,
    build_recurrence_set_piecewise,
    ear_truncated_A,
    fourier_indicator_coeff,
    pair_correlation,
    petrov_profile,
    petrov_ratio,
)
from .experiments import (
    ExperimentReport,
    boshernitzan_scan,
    ear_exact,
    ear_truncated_measure,
    prop_ear_bound_check,
    recurrence_measure_scan,
    rio_dichotomy,
    rio_truncated_exact,
    rio_truncated_measure,
    theoremA_rate_scan,
    wilson_interval,
)
from .number_theory import (
    bezout_polynomials,
    gcd_mersenne,
    generator_growth,
    matrix_lattice,
    matrix_lattice_bruteforce,
    scalar_lattice,
    scalar_lattice_bruteforce,
)
from .systems import (
    BetaMap,
    Branch,
    IntegerCircleMap,
    PiecewiseLinear,
    Rotation,
    SystemSpec,
    ToralLinear,
)
from .ulam import build_ulam, correlation_decay_fit, density_bounds, theoremB_series

__version__ = "0.1.0"
