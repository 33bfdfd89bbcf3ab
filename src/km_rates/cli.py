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
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from .certificates import CertificateOverflow
from .config import ConfigError, Instance, RunConfig, assemble, load_config
from .engine import NumericAbort, audit_inequalities, iterate, write_trajectory_csv
from .operators import catalog_names
from .schedules import Family, range_findings, verify_hypotheses
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


def _apply_cli_overrides(cfg: RunConfig, args) -> RunConfig:
    fields = {}
    if args.out is not None:
        fields["out_dir"] = args.out
    if getattr(args, "k_max", None) is not None:
        fields["k_max"] = args.k_max
    if getattr(args, "horizon", None) is not None:
        fields["horizon"] = args.horizon
    if getattr(args, "format", None) is not None:
        fields["formats"] = (args.format,)
    return replace(cfg, **fields) if fields else cfg


def _ensure_out(cfg: RunConfig) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg.out_dir


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _validate_schedule_window(instance: Instance, horizon: int) -> None:
    """The range check of :func:`range_findings` on [0, horizon); the first
    violating index rejects the config before any iteration runs."""
    findings = range_findings(instance.schedule, np.arange(horizon))
    if findings:
        raise ConfigError(min(findings, key=lambda f: f.index).message)


def _resolve_horizon(instance: Instance) -> int:
    cfg = instance.config
    if cfg.horizon is not None:
        return cfg.horizon
    cert = instance.certificate
    requested = [cert.residual_rate(k) for k in range(cfg.k_max + 1)]
    requested += [cert.step_rate(k) for k in range(cfg.k_max + 1)]
    horizon = auto_horizon(requested)
    log.info("auto horizon: %d", horizon)
    return horizon


def cmd_certify(args) -> int:
    cfg = _apply_cli_overrides(load_config(args.config), args)
    instance = assemble(cfg)
    cert = instance.certificate
    table = cert.table(cfg.k_max)
    out = _ensure_out(cfg)
    report = {
        "config": cfg.to_dict(),
        "certificate": cert.to_dict(cfg.k_max),
    }
    if "json" in cfg.formats:
        _write_json(os.path.join(out, "certificate.json"), report)
    if "csv" in cfg.formats:
        with open(os.path.join(out, "certificate.csv"), "w", encoding="utf-8") as handle:
            handle.write("k,threshold,residual_rate,step_rate\n")
            for row in table:
                handle.write(f"{row['k']},{row['threshold']},{row['residual_rate']},"
                             f"{row['step_rate']}\n")
    print(f"certificate [{cert.formula.value}] constants: {cert.constants.to_dict()}")
    for row in table:
        print(f"  k={row['k']:>3}  threshold={row['threshold']}  "
              f"residual_rate={row['residual_rate']}  step_rate={row['step_rate']}")
    return EXIT_OK


def _load_and_run(args):
    """Load and assemble the config of a run, audit or verify command, check
    its weights on the run window, iterate and audit the trajectory."""
    cfg = _apply_cli_overrides(load_config(args.config), args)
    instance = assemble(cfg)
    horizon = _resolve_horizon(instance)
    _validate_schedule_window(instance, horizon)
    traj = iterate(instance.space, instance.operator, instance.start,
                   instance.schedule, horizon)
    return cfg, instance, horizon, traj, audit_inequalities(traj, instance.constants)


def cmd_run(args) -> int:
    cfg, _, horizon, traj, audit = _load_and_run(args)
    out = _ensure_out(cfg)
    if "csv" in cfg.formats:
        write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    if "json" in cfg.formats:
        _write_json(os.path.join(out, "audit.json"),
                    {"config": cfg.to_dict(), "audit": audit.to_dict()})
    status = "clean" if audit.passed else f"{audit.total_violations} violation(s)"
    print(f"run horizon={horizon} audit: {status}")
    return EXIT_OK if audit.passed else EXIT_VERIFY


def cmd_audit(args) -> int:
    cfg, _, _, _, audit = _load_and_run(args)
    out = _ensure_out(cfg)
    if "json" in cfg.formats:
        _write_json(os.path.join(out, "audit.json"),
                    {"config": cfg.to_dict(), "audit": audit.to_dict()})
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
    cfg, instance, horizon, traj, audit = _load_and_run(args)
    cert = instance.certificate
    hypotheses = verify_hypotheses(instance.schedule, horizon)

    residual_report = check_rate_soundness(traj, cert.residual_rate, "res_T", cfg.k_max)
    step_report = check_rate_soundness(traj, cert.step_rate, "res_step", cfg.k_max)
    reports = [residual_report, step_report]
    liminf_report = check_liminf_contract(traj, cert.liminf_modulus,
                                          min(8, cfg.k_max), 8)

    out = _ensure_out(cfg)
    if "csv" in cfg.formats:
        _soundness_csv(os.path.join(out, "soundness_res_T.csv"), residual_report)
        _soundness_csv(os.path.join(out, "soundness_res_step.csv"), step_report)
    if "json" in cfg.formats:
        _write_json(os.path.join(out, "verify.json"), {
            "config": cfg.to_dict(),
            "certificate": cert.to_dict(cfg.k_max),
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
    hints = {
        "identity": "params: {fixed_point?}",
        "rotation": "params: {angle|angle_deg, axes?}; Euclidean only",
        "ball_projection": "params: {center?, radius?, anchor?}; Euclidean only",
        "halfspace_projection": "params: {normal, offset?, anchor?}; Euclidean only",
        "box_projection": "params: {lo, hi, anchor?}; Euclidean only",
        "affine_avg": "params: {matrix, shift?}; operator norm at most 1; Euclidean only",
        "coordinate_shrink": "params: {factors}; any p-norm",
    }
    for name in catalog_names():
        print(f"  {name:<22} {hints[name]}")
    print("schedule families:")
    for family in Family:
        print(f"  {family.value}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="km-rates",
        description="Averaged fixed-point iteration with explicit, empirically "
                    "verified asymptotic-regularity rate certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="path to the JSON run config")
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--k-max", dest="k_max", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None,
                       help="restrict outputs to one format")

    p_certify = sub.add_parser("certify", help="compute and tabulate the certificate")
    add_common(p_certify)
    p_certify.set_defaults(fn=cmd_certify)

    p_run = sub.add_parser("run", help="run the iteration, export the trajectory, audit")
    add_common(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_verify = sub.add_parser("verify", help="certify + run + soundness checks")
    add_common(p_verify)
    p_verify.set_defaults(fn=cmd_verify)

    p_audit = sub.add_parser("audit", help="run and report the inequality audit")
    add_common(p_audit)
    p_audit.set_defaults(fn=cmd_audit)

    p_catalog = sub.add_parser("catalog", help="list operators and schedule families")
    p_catalog.set_defaults(fn=cmd_catalog, out=None)

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
