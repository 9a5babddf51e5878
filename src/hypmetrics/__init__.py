"""Hyperbolic-type metrics on canonical Euclidean domains.

The package computes the Gromov-type metric u and a family of related
metrics (hyperbolic, distance-ratio, boundary-pair, Apollonian,
half-Apollonian, Cassinian, triangular ratio) on the unit ball, the
upper half-space, and complements of finite point sets; applies Mobius
transformations; and verifies the comparison inequalities between these
metrics on randomized configurations, including the sharpness of every
constant.
"""

from .geometry import (
    BoundaryCardinalityError,
    DomainMembershipError,
    FiniteComplement,
    INFINITY,
    ParameterError,
    UnitBall,
    UpperHalfSpace,
    cross_ratio,
    distance_to_boundary,
    is_infinity,
)
from .metrics import (
    MetricId,
    alpha_metric,
    alpha_pair_form,
    cassinian,
    delta_metric,
    eta_metric,
    evaluable_metrics,
    evaluate_metric,
    j_metric,
    j_tilde,
    rho,
    triangular_ratio,
    u_metric,
)
from .mobius import (
    MobiusMap,
    Orthogonal,
    Scaling,
    SphereInversion,
    Translation,
    ball_automorphism,
    cayley_map,
    inversion_unit,
    map_domain,
)
from .suite import (
    Catalog,
    CaseResult,
    ConfigurationError,
    InequalityCase,
    ProbeResult,
    ScheduleError,
    SharpnessProbe,
    catalog,
    check_case,
    parse_report,
    records_to_csv,
    records_to_json,
    records_to_text,
    run_probe,
)

__version__ = "0.1.0"

