import types

import km_rates as km

#: the public names of ``km_rates``: what the CLI, the library's own modules
#: and README's documented API use.  Test oracles live in ``tests/lemmas.py``.
PUBLIC = {
    "Certificate", "CertificateOverflow", "ConfigError", "Family", "FormulaTag", "Instance",
    "InstanceConstants", "LiminfModulus", "NumericAbort", "Operator",
    "PreconditionViolation", "RateFn", "RateKind", "RunConfig", "Schedule", "Series",
    "Space", "Trajectory", "UcModulus", "ZERO_SERIES", "assemble", "audit_inequalities",
    "auto_horizon", "catalog_names", "ceil_int", "check_divergence_rate",
    "check_liminf_contract", "check_rate_soundness", "check_series_cauchy_modulus",
    "combine_cauchy_moduli", "coupling_cap", "empirical_first_index", "hilbert_modulus",
    "hilbert_threshold", "instance_constants", "inverse_square_modulus",
    "inverse_square_series", "iterate", "load_config", "lp_convexity_modulus", "lp_modulus",
    "make_anchor", "make_certificate", "make_classical_km", "make_example1", "make_example2",
    "make_inexact_km", "make_liminf_modulus", "make_operator", "make_step_rate",
    "rate_from_liminf", "verify_hypotheses", "weight_threshold", "weight_threshold_factored",
    "write_trajectory_csv",
}


def test_exported_names_are_the_listed_set():
    exported = {name for name, value in vars(km).items()
                if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(PUBLIC) == 55
    assert exported == PUBLIC
