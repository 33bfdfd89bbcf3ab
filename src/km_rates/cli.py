"""Command-line front-end.

Subcommands: certify, run, verify, audit, catalog.  Exit codes form a stable
contract for CI: 0 success, 2 config error, 3 certificate overflow, 4 numeric
abort, 5 verification failure (of the trajectory checks or, for verify, of
the schedule premises on the run window).  The KM_RATES_LOG environment variable sets
the log level.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import os
import sys
from typing import List, Optional

from .certificates import CertificateOverflow
from .config import FAMILY_PARAMS, ConfigError, Instance, RunConfig, assemble, load_config
from .engine import NumericAbort, audit_inequalities, iterate, write_trajectory_csv
from .operators import CATALOG
from .schedules import Window, range_findings, verify_hypotheses
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


_ESCAPE = json.encoder.encode_basestring_ascii


def _json_text(value, parts: list, newline: str) -> None:
    """Appends to ``parts`` the text that ``json.dumps(indent=2,
    sort_keys=True)`` gives ``value`` at the indent of ``newline``, in the
    dispatch order of ``json.encoder``, but a non-finite float as the string
    ``"NaN"``, ``"Infinity"`` or ``"-Infinity"`` and a key that is not a
    ``str`` as a TypeError."""
    if isinstance(value, str):
        parts.append(_ESCAPE(value))
    elif value is None:
        parts.append("null")
    elif value is True:
        parts.append("true")
    elif value is False:
        parts.append("false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, float):
        parts.append(float.__repr__(value) if math.isfinite(value) else
                     '"NaN"' if value != value else '"Infinity"' if value > 0 else '"-Infinity"')
    elif isinstance(value, (list, tuple, dict)) and not value:
        parts.append("{}" if isinstance(value, dict) else "[]")
    elif isinstance(value, (list, tuple)):
        inner, opening = newline + "  ", "["
        for item in value:
            parts.append(opening + inner)
            opening = ","
            _json_text(item, parts, inner)
        parts.append(newline + "]")
    elif isinstance(value, dict):
        inner, opening = newline + "  ", "{"
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(opening + inner + _ESCAPE(key) + ": ")
            opening = ","
            _json_text(item, parts, inner)
        parts.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _write_json(path: str, payload: dict) -> None:
    """Strict JSON (RFC 8259 has no NaN or Infinity) in one write: the bytes
    of ``json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)``
    and a newline, with each non-finite float written as the string of its
    name (see :func:`_json_text`)."""
    parts: list = []
    _json_text(payload, parts, "\n")
    parts.append("\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(parts))


def _validate_schedule_window(instance: Instance, horizon: int) -> None:
    """The range check of :func:`range_findings` on the weights of [0,
    horizon), read from the schedule's window up to
    :meth:`Window.range_prefix`: the first violating index rejects the
    config before any iteration runs."""
    alpha, beta, _ = Window.read(instance.schedule, horizon).range_prefix(horizon)
    findings = range_findings(alpha, beta)
    if findings:
        raise ConfigError(min(findings, key=lambda f: f.index).message)


def _resolve_horizon(instance: Instance, run: dict):
    """``(horizon, table)``: ``run.horizon`` of the ``run`` section and None,
    or the auto horizon and the certificate table up to ``run.k_max`` whose
    rate values it was read from."""
    if run["horizon"] != "auto":
        return run["horizon"], None
    table = instance.certificate.table(run["k_max"])
    horizon = auto_horizon(row[rate] for row in table for rate in ("residual_rate", "step_rate"))
    log.info("auto horizon: %d", horizon)
    return horizon, table


def cmd_certify(args) -> int:
    cfg = _load(args)
    instance = assemble(cfg)
    doc = cfg.to_dict()
    k_max, formats = doc["run"]["k_max"], doc["output"]["formats"]
    cert = instance.certificate
    table = cert.table(k_max)
    certificate = cert.to_dict(table)
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


def _load_and_check(args):
    """Load and assemble the config of a run, audit or verify command and
    range-check its schedule window.  Returns the config's document, the
    instance, the horizon, and the certificate table an auto horizon was
    read from (else None)."""
    cfg = _load(args)
    instance = assemble(cfg)
    doc = cfg.to_dict()
    horizon, table = _resolve_horizon(instance, doc["run"])
    _validate_schedule_window(instance, horizon)
    return doc, instance, horizon, table


def _run_and_audit(instance: Instance, horizon: int):
    """The instance's trajectory up to ``horizon`` and its audit (its scalar
    streams; no command reads the points)."""
    traj = iterate(instance.space, instance.operator, instance.start, instance.schedule, horizon)
    return traj, audit_inequalities(traj, instance.constants)


def cmd_run(args) -> int:
    doc, instance, horizon, _ = _load_and_check(args)
    traj, audit = _run_and_audit(instance, horizon)
    out = _ensure_out(doc)
    if "csv" in doc["output"]["formats"]:
        write_trajectory_csv(traj, os.path.join(out, "trajectory.csv"))
    if "json" in doc["output"]["formats"]:
        _write_json(os.path.join(out, "audit.json"), {"config": doc, "audit": audit.to_dict()})
    status = "clean" if audit.passed else f"{audit.total_violations} violation(s)"
    print(f"run horizon={traj.horizon} audit: {status}")
    return EXIT_OK if audit.passed else EXIT_VERIFY


def cmd_audit(args) -> int:
    doc, instance, horizon, _ = _load_and_check(args)
    _, audit = _run_and_audit(instance, horizon)
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
    doc, instance, horizon, table = _load_and_check(args)
    # the premises before the run, so that their arrays and the trajectory
    # are never held at once
    hypotheses = verify_hypotheses(instance.schedule, horizon)
    traj, audit = _run_and_audit(instance, horizon)
    k_max, formats, cert = doc["run"]["k_max"], doc["output"]["formats"], instance.certificate

    table = table or cert.table(k_max)
    certificate = cert.to_dict(table)
    residual_report = check_rate_soundness(traj, [row["residual_rate"] for row in table], "res_T",
                                           cert.residual_rate.description)
    step_report = check_rate_soundness(traj, [row["step_rate"] for row in table], "res_step",
                                       cert.step_rate.description)
    reports = [residual_report, step_report]
    liminf_report = check_liminf_contract(traj, [[cert.liminf_modulus(k, L) for L in range(9)]
                                                 for k in range(min(8, k_max) + 1)])

    out = _ensure_out(doc)
    if "csv" in formats:
        _soundness_csv(os.path.join(out, "soundness_res_T.csv"), residual_report)
        _soundness_csv(os.path.join(out, "soundness_res_step.csv"), step_report)
    if "json" in formats:
        _write_json(os.path.join(out, "verify.json"), {
            "config": doc,
            "certificate": certificate,
            "horizon": horizon,
            "hypotheses": hypotheses.to_dict(),
            "audit": audit.to_dict(),
            "soundness": [r.to_dict() for r in reports],
            "liminf": liminf_report.to_dict(),
        })

    ok = all(r.passed for r in (hypotheses, audit, liminf_report, *reports))
    for report in reports:
        for row in report.rows:
            state = ("trunc" if row.truncated else ("pass" if row.passed else "FAIL"))
            slack = (f" slack={row.slack_factor:.1f}"
                     if row.slack_factor is not None else "")
            print(f"  {report.quantity} k={row.k:>3} bound={row.bound} "
                  f"[{state}]{slack}")
    print(f"liminf cells checked={liminf_report.checked} "
          f"{'pass' if liminf_report.passed else 'FAIL'}")
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later
    one: parsing leaves no state in it."""
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
