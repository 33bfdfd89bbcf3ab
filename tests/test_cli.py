import csv
import json
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest

import km_rates as km
from km_rates import cli
from km_rates.certificates import THRESHOLD_ROUTES
from km_rates.cli import main

from conftest import example2_ball_config
from malformed_configs import CONFIG_VALUES, FLAGS, MISSPELT_PARAMS, OPERATOR_PARAMS


def rotation_config(out_dir, **run):
    doc = {
        "space": {"dim": 2, "norm": "euclidean"},
        "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
        "start": [1.0, 0.0],
        "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "certificate": {"formula": "auto"},
        "run": {"horizon": 2000, "k_max": 3, "seed": 1},
        "output": {"directory": str(out_dir), "formats": ["csv", "json"]},
    }
    doc["run"].update(run)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_round_trip_identity(tmp_path):
    doc = example2_ball_config(str(tmp_path))
    first = km.RunConfig.from_dict(doc)
    second = km.RunConfig.from_dict(first.to_dict())
    assert first == second
    third = km.RunConfig.from_dict(second.to_dict())
    assert second == third
    # documents that still carry run.seed load; the field is not echoed
    assert doc["run"]["seed"] == 7 and "seed" not in first.to_dict()["run"]


def test_config_validation_errors():
    with pytest.raises(km.ConfigError):
        km.RunConfig.from_dict({"space": {"dim": 0}})
    doc = example2_ball_config()
    doc["start"] = [1.0]  # wrong length
    with pytest.raises(km.ConfigError):
        km.RunConfig.from_dict(doc)
    for formula in ("nonsense", "example2", "classical_km", "Hilbert", "FormulaTag.HILBERT",
                    "", None):
        doc = example2_ball_config()
        doc["certificate"]["formula"] = formula
        with pytest.raises(km.ConfigError, match=r"one of \['auto', 'factored', 'general', "
                                                 r"'hilbert'\]"):
            km.RunConfig.from_dict(doc)
    # certificate.formula accepts exactly "auto" and the threshold route names
    assert sorted(THRESHOLD_ROUTES) == ["factored", "general", "hilbert"]
    for formula in ("auto", *THRESHOLD_ROUTES):
        doc = example2_ball_config()
        doc["certificate"]["formula"] = formula
        assert km.RunConfig.from_dict(doc).to_dict()["certificate"]["formula"] == formula


def test_certify_table_rotation(tmp_path, capsys):
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out"))
    assert main(["certify", "--config", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "certificate.json").read_text())
    table = report["certificate"]["table"]
    assert [row["residual_rate"] for row in table] == [132, 516, 1156, 2052]
    with open(tmp_path / "out" / "certificate.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [int(r["residual_rate"]) for r in rows] == [132, 516, 1156, 2052]


def test_certify_identity_same_table(tmp_path, capsys):
    doc = rotation_config(tmp_path / "out")
    doc["operator"] = {"name": "identity", "params": {}}
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "certificate.json").read_text())
    # certificates depend on constants and moduli only, not on the map itself
    assert [row["residual_rate"] for row in report["certificate"]["table"]] == \
        [132, 516, 1156, 2052]


def test_run_writes_trajectory_and_audit(tmp_path, capsys):
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out", horizon=100))
    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    with open(tmp_path / "out" / "trajectory.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 101
    half_sqrt2 = math.sqrt(2) / 2
    for n in (0, 1, 2, 50):
        expected = math.sqrt(2) * half_sqrt2**n
        assert float(rows[n]["res_T"]) == pytest.approx(expected, abs=1e-9)
    audit = json.loads((tmp_path / "out" / "audit.json").read_text())
    assert audit["audit"]["passed"] is True


def test_cli_runs_keep_only_scalar_streams(tmp_path, capsys):
    horizon = 3000
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out", horizon=horizon))
    for command in ("run", "audit", "verify"):
        args = cli.build_parser().parse_args([command, "--config", cfg])
        _, _, _, traj, audit = cli._load_and_run(args)
        assert traj.horizon == horizon and audit.passed
        assert all(np.ndim(value) <= 1 for value in vars(traj).values())

    assert main(["run", "--config", cfg]) == 0
    capsys.readouterr()
    instance = km.assemble(km.load_config(cfg))
    library = km.iterate(instance.space, instance.operator, instance.start,
                         instance.schedule, horizon)
    km.write_trajectory_csv(library, tmp_path / "library.csv")
    assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
            == (tmp_path / "library.csv").read_bytes())


def test_run_rejects_out_of_range_schedule(tmp_path, capsys):
    doc = rotation_config(tmp_path / "out", horizon=50)
    doc["schedule"] = {
        "family": "custom",
        "params": {
            "alpha": {"const": 0.5},
            "beta": {"values": [0.5, 0.5, 0.5, 0.5, 0.5, 1.2], "then": 0.5},
            "perturbation": {"zero": True},
            "defect_is_zero": True,
            "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
            "defect_sum_bound": 0,
            "perturbation_sum_bound": 0,
        },
    }
    doc["certificate"]["formula"] = "general"
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 2
    capsys.readouterr()


def test_config_errors_exit_2(tmp_path, capsys):
    assert main(["certify", "--config", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["certify", "--config", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("changes,key", CONFIG_VALUES.values(), ids=CONFIG_VALUES)
def test_config_values_of_the_wrong_type_exit_2(tmp_path, capsys, changes, key):
    doc = dict(rotation_config(tmp_path / "out"), **changes)
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("name,params,key", OPERATOR_PARAMS.values(), ids=OPERATOR_PARAMS)
def test_operator_params_of_the_wrong_type_exit_2(tmp_path, capsys, name, params, key):
    doc = dict(rotation_config(tmp_path / "out"), operator={"name": name, "params": params})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err and "Traceback" not in err


#: per catalog entry in dim 3: params, start, then the fixed point stored for
#: "default" and for "nearest", a declared vector that is fixed and one that
#: is not; every vector is fixed by the identity
FIXED_POINT_CASES = {
    "identity": ({}, [2.0, -1.0, 0.5], [0.0, 0.0, 0.0], [2.0, -1.0, 0.5],
                 [1.0, 2.0, 3.0], None),
    "rotation": ({"angle_deg": 90.0}, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0],
                 [0.0, 0.0, 4.0], [1.0, 0.0, 0.0]),
    "ball_projection": ({"center": [1.0, 0.0, 0.0], "radius": 2.0}, [5.0, 0.0, 0.0],
                        [1.0, 0.0, 0.0], [3.0, 0.0, 0.0], [1.0, 1.0, 1.0], [4.0, 0.0, 0.0]),
    "halfspace_projection": ({"normal": [0.0, 2.0, 0.0], "offset": -2.0}, [1.0, 3.0, -1.0],
                             [0.0, -1.0, 0.0], [1.0, -1.0, -1.0], [5.0, -1.5, 5.0],
                             [0.0, 0.0, 0.0]),
    "box_projection": ({"lo": [-1.0, 0.5, -1.0], "hi": [1.0, 2.0, 1.0]}, [3.0, 0.0, -0.5],
                       [0.0, 0.5, 0.0], [1.0, 0.5, -0.5], [0.25, 1.0, 0.0], [2.0, 1.0, 0.0]),
    "affine_avg": ({"matrix": [[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
                    "shift": [1.0, 0.0, -0.5]}, [1.0, 1.0, 1.0],
                   [2.0, 0.0, -1.0], [2.0, 0.0, -1.0], [2.0, 0.0, -1.0], [0.0, 0.0, 0.0]),
    "coordinate_shrink": ({"factors": [0.5, 1.0, -1.0]}, [1.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                          [0.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]),
}


@pytest.mark.parametrize("name,choice", [
    (name, choice) for name in FIXED_POINT_CASES
    for choice in ("default", "nearest", "fixed", "not_fixed")
    if FIXED_POINT_CASES[name][5] is not None or choice != "not_fixed"])
def test_operator_fixed_point_choices(tmp_path, capsys, name, choice):
    params, start, default, nearest, fixed, not_fixed = FIXED_POINT_CASES[name]
    declared = {"default": "default", "nearest": "nearest", "fixed": fixed,
                "not_fixed": not_fixed}[choice]
    doc = rotation_config(tmp_path / "out", horizon=20)
    doc.update(space={"dim": 3, "norm": "euclidean"}, start=start,
               operator={"name": name, "params": params, "fixed_point": declared})
    code = main(["certify", "--config", write_config(tmp_path, doc)])
    err = capsys.readouterr().err
    if choice == "not_fixed":
        assert code == 2
        assert err.startswith("config error: ") and "not fixed" in err
        return
    assert code == 0 and err == ""
    expected = {"default": default, "nearest": nearest, "fixed": fixed}[choice]
    z = km.assemble(km.RunConfig.from_dict(doc)).operator.fixed_point
    assert z.tobytes() == np.array(expected, dtype=float).tobytes()


def test_verify_rotation_full(tmp_path, capsys):
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out", horizon=35000,
                                                 k_max=15))
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert doc["audit"]["passed"] is True
    assert all(rep["all_passed"] for rep in doc["soundness"])
    assert doc["hypotheses"]["passed"] is True and doc["hypotheses"]["window"] == 35000
    with open(tmp_path / "out" / "soundness_res_T.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert rows[0]["pass"] == "true" and rows[0]["bound"] == "132"
    assert rows[0]["empirical_first_index"] == "1"
    assert list(rows[0].keys()) == ["k", "bound", "empirical_first_index",
                                    "max_excess", "pass", "truncated"]


def test_verify_negative_rate_override_exits_5(tmp_path, capsys):
    doc = rotation_config(tmp_path / "out", horizon=500)
    doc["certificate"]["overrides"] = {"residual_rate": {"const": 0}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 5
    capsys.readouterr()


def test_verify_rejects_false_schedule_premises(tmp_path, capsys):
    # the coupling weights are 1/4, so the sum up to index k is (k+1)/4 and
    # the claimed divergence rate k -> k is false; the trajectory checks
    # alone all pass
    doc = rotation_config(tmp_path / "out", horizon=2000)
    doc["schedule"] = {"family": "custom", "params": {
        "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
        "weight_divergence": {"affine": {"slope": 1, "intercept": 0}}}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 5
    out = capsys.readouterr().out
    assert "schedule hypotheses on [0, 2000]: FAIL" in out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["hypotheses"]["passed"] is False
    assert report["hypotheses"]["coupling_divergence"]["passed"] is False
    assert report["audit"]["passed"] and report["liminf"]["all_passed"]
    assert all(rep["all_passed"] for rep in report["soundness"])


def test_verify_small_weight_reads_premises_on_window(tmp_path, capsys):
    # beta = 1e-5 needs about 1e5 summands per unit of the coupling series,
    # so the divergence check must stop at the run window instead of
    # reading the series up to rate(2000), about 2e8 indices
    doc = rotation_config(tmp_path / "out", horizon=2000)
    doc["schedule"] = {"family": "classical_km", "params": {"beta": 1e-5}}
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 0
    assert "schedule hypotheses on [0, 2000]: pass" in capsys.readouterr().out
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    divergence = report["hypotheses"]["coupling_divergence"]
    assert divergence["passed"] and divergence["n_max"] == 0


def non_finite_audit_config(tmp_path):
    """A start near 1e154 makes the anchor recursion overflow: its audit rows
    compare inf with inf."""
    doc = rotation_config(tmp_path / "out", horizon=3)
    doc["operator"]["params"]["angle_deg"] = 1e-160
    doc["start"] = [1.0, 1e154]
    doc["schedule"] = {"family": "example1",
                       "params": {"lam": 1e-160, "r_star": [1.0, 1e154]}}
    return write_config(tmp_path, doc)


@pytest.mark.parametrize("command, report", [("verify", "verify.json"), ("run", "audit.json")])
def test_non_finite_audit_rows_fail_without_warnings(tmp_path, capsys, command, report):
    """A row that compares inf with inf is a violation, not a clean row, and
    no numpy warning leaks."""
    cfg = non_finite_audit_config(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--config", cfg]) == 5
    capsys.readouterr()
    audit = json.loads((tmp_path / "out" / report).read_text())["audit"]
    assert audit["checks"]["step_to_anchor"]["violations"] == 3


@pytest.mark.parametrize("command, report", [("verify", "verify.json"), ("run", "audit.json")])
def test_non_finite_values_are_written_as_strict_json(tmp_path, capsys, command, report):
    """RFC 8259 has no NaN or Infinity: a non-finite float is written as the
    string of its name, so a parser that refuses the bare tokens reads the
    report."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    assert main([command, "--config", non_finite_audit_config(tmp_path)]) == 5
    capsys.readouterr()
    text = (tmp_path / "out" / report).read_text()
    check = json.loads(text, parse_constant=refuse)["audit"]["checks"]["step_to_anchor"]
    assert check["max_excess"] == "NaN"
    assert {v["lhs"] for v in check["first_violations"]} == {"Infinity"}


def test_finite_json_keeps_its_bytes(tmp_path):
    payload = {"b": [1.5, 1e308, -0.0], "a": {"n": 3, "x": None}}
    cli._write_json(str(tmp_path / "x.json"), payload)
    assert (tmp_path / "x.json").read_text() == json.dumps(payload, indent=2,
                                                           sort_keys=True) + "\n"


def test_certify_overflow_exits_3(tmp_path, capsys):
    doc = {
        "space": {"dim": 2, "norm": "lp", "p": 400},
        "operator": {"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}},
        "start": [1.0, 0.0],
        "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "certificate": {"formula": "general"},
        "run": {"horizon": 100, "k_max": 2000, "seed": 1},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["certify", "--config", cfg]) == 3
    capsys.readouterr()


def test_audit_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out", horizon=300))
    assert main(["audit", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    assert (tmp_path / "out" / "audit.json").exists()


def test_catalog_lists_entries(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    for name in km.catalog_names():
        assert name in out
    assert "  example2               params: {lam, J?, offset?, r_star?}\n" in out


#: minimal schedule params per family
MINIMAL_SCHEDULES = {
    "example1": {"lam": 0.5},
    "example2": {"lam": 0.5},
    "classical_km": {"beta": 0.5},
    "inexact_km": {"beta": 0.5,
                   "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}},
    "anchor": {"base": {"family": "example2", "params": {"lam": 0.5}}, "u": [1.0, 0.0]},
    "custom": {"alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
               "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}},
}


def test_catalog_families_all_assemble(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    families = [line.split()[0] for line in out.split("schedule families:\n")[1].splitlines()]
    assert sorted(families) == sorted(MINIMAL_SCHEDULES)
    for family in families:
        doc = rotation_config("out")
        doc["schedule"] = {"family": family, "params": MINIMAL_SCHEDULES.get(family)}
        instance = km.assemble(km.RunConfig.from_dict(doc))
        assert instance.certificate.residual_rate(0) > 0, family


@pytest.mark.parametrize("family,params,key",
                         [(family, *case) for family, case in MISSPELT_PARAMS.items()],
                         ids=[f"{family}-{key}" for family, (_, key) in MISSPELT_PARAMS.items()])
def test_schedule_params_with_an_unknown_key_exit_2(tmp_path, capsys, family, params, key):
    doc = dict(rotation_config(tmp_path / "out"), schedule={"family": family, "params": params})
    assert main(["run", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and repr(key) in err and "Traceback" not in err


def test_cli_flag_overrides(tmp_path, capsys):
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out"))
    assert main(["run", "--config", cfg, "--horizon", "50",
                 "--out", str(tmp_path / "other"), "--format", "json"]) == 0
    capsys.readouterr()
    assert (tmp_path / "other" / "audit.json").exists()
    assert not (tmp_path / "other" / "trajectory.csv").exists()


@pytest.mark.parametrize("changes,argv,key", FLAGS.values(), ids=FLAGS)
def test_flags_are_checked_as_the_keys_they_set(tmp_path, capsys, changes, argv, key):
    doc = dict(rotation_config(tmp_path / "out"), **changes)
    assert main([argv[0], "--config", write_config(tmp_path, doc), *argv[1:]]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("config error: ") and key in err and "Traceback" not in err
    assert "all checks passed" not in out


def test_lp_instance_verifies(tmp_path, capsys):
    doc = {
        "space": {"dim": 2, "norm": "lp", "p": 3.0},
        "operator": {"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}},
        "start": [1.0, 1.0],
        "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "certificate": {"formula": "auto"},
        "run": {"horizon": "auto", "k_max": 2, "seed": 1},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]},
    }
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    doc = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert doc["certificate"]["formula"] == "factored"
    assert doc["audit"]["passed"] is True


def test_unrepresentable_start_exits_2(tmp_path, capsys):
    # the squared Euclidean norm of this start overflows; rejected up front
    doc = rotation_config(tmp_path / "out", horizon=10)
    doc["start"] = [1e308, 0.0]
    cfg = write_config(tmp_path, doc)
    assert main(["run", "--config", cfg]) == 2
    capsys.readouterr()


def test_unrepresentable_schedule_constants_exit_2(tmp_path, capsys):
    # the inverse-square modulus of this r_star overflows while the schedule is built
    doc = rotation_config(tmp_path / "out", horizon=100)
    doc["space"] = {"dim": 2, "norm": "lp", "p": 1.0001}
    doc["operator"] = {"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}}
    doc["schedule"] = {"family": "example1", "params": {"lam": 0.5, "r_star": [1e308, 0.0]}}
    assert main(["certify", "--config", write_config(tmp_path, doc)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: schedule constants are not representable")
    assert "Traceback" not in err


def test_numeric_abort_exits_4(tmp_path, capsys, monkeypatch):
    # catalog instances stay bounded by construction, so the abort path is
    # exercised by injecting a failing iteration
    import km_rates.cli as cli_mod
    from km_rates.engine import NumericAbort

    def explode(*args, **kwargs):
        raise NumericAbort(7)

    monkeypatch.setattr(cli_mod, "iterate", explode)
    cfg = write_config(tmp_path, rotation_config(tmp_path / "out", horizon=10))
    assert main(["run", "--config", cfg]) == 4
    capsys.readouterr()


def test_verify_example2_ball_via_cli(tmp_path, capsys):
    doc = example2_ball_config(str(tmp_path / "out"))
    doc["output"]["formats"] = ["json"]
    cfg = write_config(tmp_path, doc)
    assert main(["verify", "--config", cfg]) == 0
    capsys.readouterr()
    report = json.loads((tmp_path / "out" / "verify.json").read_text())
    assert report["certificate"]["table"][0]["residual_rate"] == 1291
    assert report["horizon"] == 100100
    assert report["liminf"]["all_passed"] is True


def test_console_entry_point_runs():
    proc = subprocess.run([sys.executable, "-m", "km_rates.cli", "catalog"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "identity" in proc.stdout
