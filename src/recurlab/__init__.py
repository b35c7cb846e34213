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
    PowerLaw,
    PowerLog,
    RadiusSequence,
    circle_dist,
    circle_point,
)
from .dynamics import (
    DyadicOrbitView,
    FixedPointOrbit,
    LatticeOrbit,
    point_distance,
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
    build_ear_sets,
    build_recurrence_set,
    build_recurrence_set_piecewise,
    ear_truncated_A,
    pair_correlation,
    petrov_profile,
)
from .experiments import (
    ExperimentReport,
    boshernitzan_scan,
    ear_exact,
    ear_truncated_measure,
    prop_ear_bound_check,
    recurrence_measure_scan,
    rio_dichotomy,
    rio_truncated_measure,
    wilson_interval,
)
from .number_theory import (
    bezout_polynomials,
    gcd_mersenne,
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
