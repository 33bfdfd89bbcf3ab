"""Generalized averaged fixed-point iteration with explicit rate certificates
and desk-scale empirical verification."""

from .moduli import (
    PreconditionViolation,
    RateFn,
    RateKind,
    UcModulus,
    ceil_int,
    check_divergence_rate,
    check_series_cauchy_modulus,
    combine_cauchy_moduli,
    hilbert_modulus,
    inverse_square_modulus,
    lp_convexity_modulus,
    lp_modulus,
    rate_from_liminf,
)
from .schedules import (
    ZERO_SERIES,
    Schedule,
    Series,
    coupling_cap,
    inverse_square_series,
    make_anchor,
    make_classical_km,
    make_example1,
    make_example2,
    make_inexact_km,
    verify_hypotheses,
)
from .operators import (
    Operator,
    Space,
    catalog_names,
    make_operator,
)
from .certificates import (
    Certificate,
    CertificateOverflow,
    InstanceConstants,
    hilbert_threshold,
    instance_constants,
    make_certificate,
    make_liminf_modulus,
    make_step_rate,
    weight_threshold,
    weight_threshold_factored,
)
from .engine import (
    NumericAbort,
    Trajectory,
    audit_inequalities,
    iterate,
    write_trajectory_csv,
)
from .verify import (
    auto_horizon,
    check_liminf_contract,
    check_rate_soundness,
    empirical_first_index,
)
from .config import ConfigError, Instance, RunConfig, assemble, load_config

__version__ = "0.1.0"
