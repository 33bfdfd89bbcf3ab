"""Command-line front-end.

Subcommands: certify, run, verify, audit, catalog.  Exit codes form a stable
contract for CI: 0 success, 2 config error, 3 certificate overflow, 4 numeric
abort, 5 verification failure (of the trajectory checks or, for verify, of
the schedule premises on the run window).  The KM_RATES_LOG environment variable sets
the log level.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
from typing import List, Optional

import numpy as np

from .certificates import CertificateOverflow
from .config import FAMILY_PARAMS, ConfigError, Instance, RunConfig, assemble, load_config
from .engine import NumericAbort, audit_inequalities, iterate, write_trajectory_csv
from .operators import CATALOG
from .schedules import range_findings, stream_values, verify_hypotheses
from .verify import (
    auto_horizon,
    check_liminf_contract,
    check_rate_soundness,
    SoundnessReport,
)

log = logging.getLogger("km_rates")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_OVERFLOW = 3
EXIT_NUMERIC = 4
EXIT_VERIFY = 5


#: flag -> (section, key) of the document it sets
FLAG_KEYS = {"out": ("output", "directory"), "k_max": ("run", "k_max"),
             "horizon": ("run", "horizon"), "format": ("output", "formats")}


def _load(args) -> RunConfig:
    """The config at ``--config`` with each flag given written into the key it
    sets and the document read again, so that a flag is checked, and refused,
    as that key is."""
    cfg = load_config(args.config)
    given = [(flag, getattr(args, flag)) for flag in FLAG_KEYS if getattr(args, flag) is not None]
    if not given:
        return cfg
    doc = cfg.to_dict()
    for flag, value in given:
        section, key = FLAG_KEYS[flag]
        doc[section][key] = [value] if flag == "format" else value
    return RunConfig.from_dict(doc)


def _ensure_out(doc: dict) -> str:
    os.makedirs(doc["output"]["directory"], exist_ok=True)
    return doc["output"]["directory"]


def _json_safe(value):
    """``value`` with each non-finite float replaced by the JSON string
    ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value


def _write_json(path: str, payload: dict) -> None:
    """Strict JSON (RFC 8259 has no NaN or Infinity), one ``json.dumps`` and
    one write: ``json.dump`` would write each token of the indented output
    with its own ``write`` call.

    Only a payload that ``allow_nan=False`` refuses is rewritten by
    :func:`_json_safe`; any other keeps its bytes.  Walking every payload
    instead made the ``grid_short`` benchmark's commands 9% slower (median
    of ten pairs, 2-vCPU x86_64, ``BENCH_17.json``), about 1 ms per
    ``verify.json``."""
    try:
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        text = json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _validate_schedule_window(instance: Instance, horizon: int) -> None:
    """The range check of :func:`range_findings` on the weights of [0,
    horizon); the first violating index rejects the config before any
    iteration runs."""
    ns = np.arange(horizon)
    findings = range_findings(stream_values(instance.schedule.alpha, ns),
                              stream_values(instance.schedule.beta, ns))
    if findings:
        raise ConfigError(min(findings, key=lambda f: f.index).message)


def _resolve_horizon(instance: Instance, run: dict) -> int:
    """``run.horizon`` of the ``run`` section, or the auto horizon."""
    if run["horizon"] != "auto":
        return run["horizon"]
    cert = instance.certificate
    requested = [cert.residual_rate(k) for k in range(run["k_max"] + 1)]
    requested += [cert.step_rate(k) for k in range(run["k_max"] + 1)]
    horizon = auto_horizon(requested)
    log.info("auto horizon: %d", horizon)
    return horizon


def cmd_certify(args) -> int:
    cfg = _load(args)
    instance = assemble(cfg)
    doc = cfg.to_dict()
    k_max, formats = doc["run"]["k_max"], doc["output"]["formats"]
    cert = instance.certificate
    certificate = cert.to_dict(k_max)
    table = certificate["table"]
    out = _ensure_out(doc)
    if "json" in formats:
        _write_json(os.path.join(out, "certificate.json"),
                    {"config": doc, "certificate": certificate})
    if "csv" in formats:
        with open(os.path.join(out, "certificate.csv"), "w", encoding="utf-8") as handle:
            handle.write("k,threshold,residual_rate,step_rate\n")
            for row in table:
                handle.write(f"{row['k']},{row['threshold']},{row['residual_rate']},"
                             f"{row['step_rate']}\n")
    print(f"certificate [{cert.formula}] constants: {cert.constants.to_dict()}")
    for row in table:
        print(f"  k={row['k']:>3}  threshold={row['threshold']}  "
              f"residual_rate={row['residual_rate']}  step_rate={row['step_rate']}")
    return EXIT_OK


def _load_and_run(args):
    """Load and assemble the config of a run, audit or verify command, check
    its weights on the run window, iterate and audit the trajectory (its
    scalar streams; no command reads the points).  Returns the config's
    document with the run's objects."""
    cfg = _load(args)
    instance = assemble(cfg)
    doc = cfg.to_dict()
    horizon = _resolve_horizon(instance, doc["run"])
    _validate_schedule_window(instance, horizon)
    traj = iterate(instance.space, instance.operator, instance.start, instance.schedule, horizon)
    return doc, instance, horizon, traj, audit_inequalities(traj, instance.constants)


def cmd_run(args) -> int:
    doc, _, horizon, traj, audit = _load_and_run(args)
    out = _ensure_out(doc)
    if "csv" in doc["output"]["formats"]:
        write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    if "json" in doc["output"]["formats"]:
        _write_json(os.path.join(out, "audit.json"), {"config": doc, "audit": audit.to_dict()})
    status = "clean" if audit.passed else f"{audit.total_violations} violation(s)"
    print(f"run horizon={horizon} audit: {status}")
    return EXIT_OK if audit.passed else EXIT_VERIFY


def cmd_audit(args) -> int:
    doc, _, _, _, audit = _load_and_run(args)
    out = _ensure_out(doc)
    if "json" in doc["output"]["formats"]:
        _write_json(os.path.join(out, "audit.json"), {"config": doc, "audit": audit.to_dict()})
    for name, check in audit.checks.items():
        print(f"  {name}: checked={check.checked} violations={check.count} "
              f"max_excess={check.max_excess:.3e}")
    print(f"audit: {'clean' if audit.passed else 'violations found'}")
    return EXIT_OK if audit.passed else EXIT_VERIFY


def _soundness_csv(path: str, report: SoundnessReport) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("k,bound,empirical_first_index,max_excess,pass,truncated\n")
        for row in report.rows:
            efi = "" if row.empirical_first_index is None else row.empirical_first_index
            excess = "" if row.max_excess is None else format(row.max_excess, ".17g")
            verdict = "" if row.passed is None else str(row.passed).lower()
            handle.write(f"{row.k},{row.bound},{efi},{excess},{verdict},"
                         f"{str(row.truncated).lower()}\n")


def cmd_verify(args) -> int:
    doc, instance, horizon, traj, audit = _load_and_run(args)
    k_max, formats = doc["run"]["k_max"], doc["output"]["formats"]
    cert = instance.certificate
    hypotheses = verify_hypotheses(instance.schedule, horizon)

    residual_report = check_rate_soundness(traj, cert.residual_rate, "res_T", k_max)
    step_report = check_rate_soundness(traj, cert.step_rate, "res_step", k_max)
    reports = [residual_report, step_report]
    liminf_report = check_liminf_contract(traj, cert.liminf_modulus, min(8, k_max), 8)

    out = _ensure_out(doc)
    if "csv" in formats:
        _soundness_csv(os.path.join(out, "soundness_res_T.csv"), residual_report)
        _soundness_csv(os.path.join(out, "soundness_res_step.csv"), step_report)
    if "json" in formats:
        _write_json(os.path.join(out, "verify.json"), {
            "config": doc,
            "certificate": cert.to_dict(k_max),
            "horizon": horizon,
            "hypotheses": hypotheses.to_dict(),
            "audit": audit.to_dict(),
            "soundness": [r.to_dict() for r in reports],
            "liminf": liminf_report.to_dict(),
        })

    ok = (hypotheses.passed and audit.passed and liminf_report.all_passed
          and all(r.all_passed for r in reports))
    for report in (residual_report, step_report):
        for row in report.rows:
            state = ("trunc" if row.truncated else ("pass" if row.passed else "FAIL"))
            slack = (f" slack={row.slack_factor:.1f}"
                     if row.slack_factor is not None else "")
            print(f"  {report.quantity} k={row.k:>3} bound={row.bound} "
                  f"[{state}]{slack}")
    print(f"liminf cells checked={liminf_report.checked} "
          f"{'pass' if liminf_report.all_passed else 'FAIL'}")
    print(f"schedule hypotheses on [0, {horizon}]: "
          f"{'pass' if hypotheses.passed else 'FAIL'}")
    print(f"verify: {'all checks passed' if ok else 'FAILURES found'} "
          f"(horizon={horizon})")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_catalog(args) -> int:
    print("operators:")
    for name, entry in CATALOG.items():
        print(f"  {name:<22} {entry.describe()}")
    print("schedule families:")
    for family, params in FAMILY_PARAMS.items():
        print(f"  {family:<22} params: {{{params}}}")
    return EXIT_OK


#: the subcommands that read a config: name, handler, help
CONFIG_COMMANDS = (
    ("certify", cmd_certify, "compute and tabulate the certificate"),
    ("run", cmd_run, "run the iteration, export the trajectory, audit"),
    ("verify", cmd_verify, "certify + run + soundness checks"),
    ("audit", cmd_audit, "run and report the inequality audit"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="km-rates",
        description="Averaged fixed-point iteration with explicit, empirically "
                    "verified asymptotic-regularity rate certificates.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON run config")
    common.add_argument("--out", default=None, help="output directory override")
    common.add_argument("--k-max", dest="k_max", type=int, default=None)
    common.add_argument("--horizon", type=int, default=None)
    common.add_argument("--format", choices=("csv", "json"), default=None,
                        help="restrict outputs to one format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, text in CONFIG_COMMANDS:
        sub.add_parser(name, help=text, parents=[common]).set_defaults(fn=fn)
    sub.add_parser("catalog", help="list operators and schedule families").set_defaults(
        fn=cmd_catalog)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    level = os.environ.get("KM_RATES_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CertificateOverflow as exc:
        print(f"certificate overflow: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
