import json
import types
from pathlib import Path

import km_rates as km
from km_rates import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

#: the public names of ``km_rates``: what the CLI, the library's own modules
#: and README's documented API use.  Test oracles live in ``tests/lemmas.py``.
PUBLIC = {
    "Certificate", "CertificateOverflow", "ConfigError", "Instance",
    "InstanceConstants", "NumericAbort", "Operator",
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
    assert len(PUBLIC) == 52
    assert exported == PUBLIC


def test_benchmark_tracer_finds_what_it_hooks(tmp_path, monkeypatch):
    # the benchmark's tracer wraps cli entry points by name and reads report
    # attributes; here it traces a real run and verify, so a rename fails in
    # the suite and not only in the benchmark
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    assert all(callable(getattr(cli, name, None)) for name in tracing.CLI_HOOKS)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "space": {"dim": 2, "norm": "euclidean"},
        "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
        "start": [1.0, 0.0],
        "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "run": {"horizon": 2000, "k_max": 3},
        "output": {"directory": str(tmp_path / "out")},
    }))
    tracer = tracing.Tracer(count_calls=True)
    tracer.install()
    try:
        for i, command in enumerate(("run", "verify")):
            tracer.begin(i)
            assert cli.main([command, "--config", str(config)]) == 0
            assert tracer.probe()
    finally:
        tracer.uninstall()
    tracer.check_spans(["run", "verify"])
    # checks[*].checked: ten audit rows of 2000 or 2001 entries per command
    assert tracer.counts["engine.audit_checked"] == 2 * (10 * 2000 + 6)
    # rows[*].truncated and cells[*].truncated: res_T k = 3 and res_step
    # k = 1, 2, 3 are past the horizon, and no liminf cell is
    assert tracer.counts["verify.rows_truncated"] == 4
