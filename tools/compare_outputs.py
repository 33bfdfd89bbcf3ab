"""Same-behaviour check between two checkouts of km-rates.

    python3 tools/compare_outputs.py <checkout-a> <checkout-b> [--seeds 1 2 3]

Every config that ``perfbench/workloads.py`` makes for the given seeds goes
through ``run`` and ``verify``, and a fixed set of configs taken from the
test suite, plus config-parse edge cases, certificate arithmetic at the
edges of the double range, false schedule premises, usage
errors, help text and multi-block runs of the two matrix operators, of
per-index coefficients, of a coefficient table that turns constant, of
points that repeat before and after a change of the step map and of a
perturbation that underflows to 0 mid-run, a divergence rate that fails
on its whole window, an audit that fails on every row of three checks, a
settled run whose audit fails on its tail, settled runs whose CSV ends just
below, at and just above multiples of its chunk, a weight table whose
``then`` value is out of range, and a constant nonzero defect of rounding
(``inexact_km`` at beta 0.1) over a long window, an output directory whose
name needs JSON escapes, a certificate whose integers pass 2^64 and starts
whose norm overflows the plain formula though it is finite (at p = 1100
too, where a scaled entry's power underflows), and p-norm starts whose
norm alone once differed from their norm as a row of a stack, goes
through the commands and flags the tests give them.  Each checkout's CLI runs
the whole list in a fresh interpreter that imports ``km_rates`` from that
checkout's ``src/``.  Every command runs in its own directory with the
relative output directory ``out``, so the echoed ``output.directory`` is the
same on both sides.  Then exit codes, stdout and stderr lines, the set of
output files and the bytes of every file are compared.

Prints one line per difference and a summary; exits 1 when there is any
difference, 0 when there is none.  The configs and both sides' outputs stay
in ``--work`` (default ``.compare-work/`` in the current directory).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def _rotation(horizon=2000, k_max=3, **changes) -> dict:
    doc = {
        "space": {"dim": 2, "norm": "euclidean"},
        "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
        "start": [1.0, 0.0],
        "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "certificate": {"formula": "auto"},
        "run": {"horizon": horizon, "k_max": k_max},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    doc.update(changes)
    return doc


def _test_suite_jobs() -> list:
    """(name, config document or None, argv after the config) as the tests
    run them, plus config-parse edges; a document None runs the argv alone."""
    sys.path.insert(0, str(ROOT / "tests"))
    from malformed_configs import (CERTIFICATE_EDGES, CONFIG_VALUES, CUSTOM, FLAGS, INEXACT,
                                   INVERSE_SQUARE, MISSPELT_PARAMS, OPERATOR_PARAMS)

    out_of_range = _rotation(50, schedule={"family": "custom", "params": {
        "alpha": {"const": 0.5},
        "beta": {"values": [0.5, 0.5, 0.5, 0.5, 0.5, 1.2], "then": 0.5},
        "perturbation": {"zero": True}, "defect_is_zero": True,
        "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
        "defect_sum_bound": 0, "perturbation_sum_bound": 0}})
    out_of_range["certificate"]["formula"] = "general"
    negative = _rotation(500)
    negative["certificate"]["overrides"] = {"residual_rate": {"const": 0}}
    false_premise = _rotation(schedule={"family": "custom", "params": {
        "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
        "weight_divergence": {"affine": {"slope": 1, "intercept": 0}}}})
    # a declared defect modulus the window refutes (the defect is 0.1 on the
    # first ten indices, so the modulus 0 fails from k = 1 on), and a
    # divergence rate that fails both the sum and the growth check
    false_defect_modulus = _rotation(500, 3, schedule={"family": "custom", "params": {
        "alpha": 0.5, "beta": {"values": [0.4] * 10, "then": 0.5},
        "defect_cauchy": {"const": 0}, "defect_sum_bound": 1,
        "weight_divergence": {"affine": {"slope": 5, "intercept": 0}}}})
    no_divergence = _rotation(schedule={"family": "custom", "params": {
        "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
        "weight_divergence": {"const": 0}}})
    lp = _rotation("auto", 2, space={"dim": 2, "norm": "lp", "p": 3.0},
                   operator={"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}},
                   start=[1.0, 1.0])
    overflow = dict(lp, space={"dim": 2, "norm": "lp", "p": 400}, start=[1.0, 0.0],
                    run={"horizon": 100, "k_max": 2000})
    overflow["certificate"] = {"formula": "general"}
    ball = _rotation("auto", 5, space={"dim": 3, "norm": "euclidean"},
                     operator={"name": "ball_projection", "fixed_point": "nearest",
                               "params": {"center": [0.0, 0.0, 0.0], "radius": 1.0}},
                     start=[2.0, 0.0, 0.0],
                     schedule={"family": "example2", "params": {
                         "lam": 0.5, "J": 2, "offset": 1, "r_star": None}})
    # multi-block trajectories of the two matrix operators: three blocks of
    # 256 points and a partial one
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    affine = _rotation(3 * 256 + 5, space={"dim": 8, "norm": "euclidean"},
                       operator={"name": "affine_avg", "params": {
                           "matrix": (0.9 * q).tolist(),
                           "shift": rng.uniform(-1.0, 1.0, 8).tolist()}},
                       start=rng.uniform(-1.0, 1.0, 8).tolist())
    rotation64 = _rotation(3 * 256 + 5, space={"dim": 64, "norm": "euclidean"},
                           operator={"name": "rotation",
                                     "params": {"angle_deg": 30.0, "axes": [5, 40]}},
                           start=rng.uniform(-1.0, 1.0, 64).tolist())
    # multi-block trajectories whose coefficients vary per index: beta_n and
    # a full row r_n under example2 on an lp space, and an anchor over example2
    rng = np.random.default_rng(10)
    shrink8 = _rotation(3 * 256 + 5, space={"dim": 8, "norm": "lp", "p": 3.0},
                        operator={"name": "coordinate_shrink",
                                  "params": {"factors": rng.uniform(-1.0, 1.0, 8).tolist()}},
                        start=rng.uniform(-1.0, 1.0, 8).tolist(),
                        schedule={"family": "example2", "params": {
                            "lam": 0.5, "J": 3, "offset": 2,
                            "r_star": rng.uniform(-0.5, 0.5, 8).tolist()}})
    anchor64 = dict(rotation64, schedule={"family": "anchor", "params": {
        "base": {"family": "example2", "params": {"lam": 0.5}},
        "u": rng.uniform(-1.0, 1.0, 64).tolist()}})
    # alpha per index on its first 300 indices, then constant: the step loop
    # takes per-row coefficients in the first two blocks of 256 points and
    # one repeated row from index 512 on
    alpha_table = _rotation(3 * 256 + 5, schedule={"family": "custom", "params": {
        "alpha": {"values": [0.5 - 0.1 / (n + 1) ** 2 for n in range(300)], "then": 0.5},
        "beta": 0.5, "perturbation": {"zero": True}, "defect_is_zero": False,
        "defect_cauchy": {"affine": {"slope": 1, "intercept": 0}}, "defect_sum_bound": 1,
        "weight_divergence": {"affine": {"slope": 5, "intercept": 0}}}})
    # the identity repeats its start from the first step, so the step loop
    # ends after the first block; under the alpha table the points repeat up
    # to index 600, where alpha turns 0.25 and they shrink to a fixed point
    identity = _rotation(5 * 256 + 3, operator={"name": "identity", "params": {}})
    alpha_switch = _rotation(16 * 256 + 3, operator={"name": "identity", "params": {}},
                             schedule={"family": "custom", "params": {
                                 "alpha": {"values": [0.5] * 600, "then": 0.25},
                                 "beta": {"const": 0.5}, "perturbation": {"zero": True},
                                 "defect_is_zero": False,
                                 "defect_cauchy": {"affine": {"slope": 1, "intercept": 0}},
                                 "defect_sum_bound": 1,
                                 "weight_divergence": {"affine": {"slope": 5, "intercept": 0}}}})
    # r_n = 1e-316/(n+1)^2 underflows to 0 near n = 6300, so the settled
    # index falls mid-window and the backward walk of the perturbation
    # crosses more than one of its chunks
    subnormal_r = _rotation(30_000, 15, schedule={"family": "example1", "params": {
        "lam": 0.5, "r_star": [1e-316, 0.0]}})
    # a divergence rate k -> k that the coupling 1/4 refutes at every target
    # from 1 on, over the whole window of 2001 targets
    false_divergence = _rotation(5000, 3, schedule={"family": "custom", "params": {
        "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
        "weight_divergence": {"affine": {"slope": 1, "intercept": 0}}}})
    # a declared perturbation sum bound of 0 that the run passes at every
    # index from 1 on: dist_bound, norm_bound and dist_by_sums fail on 5000
    # rows each
    failing_audit = _rotation(5000, 3, operator={"name": "identity"}, start=[0.5, 0.0],
                              schedule={"family": "custom", "params": {
                                  "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
                                  "perturbation": {"inverse_square": {
                                      "r_star": [3.0, 0.0], "offset": 1}},
                                  "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
                                  "perturbation_cauchy": {"affine": {"slope": 3, "intercept": 3}},
                                  "perturbation_sum_bound": 0}})
    # a settled run whose audit fails on its tail: the identity from its
    # fixed point shrinks for three steps and then stays, and the defect sum
    # bound 0 claims it never leaves; dist_by_sums fails on every row but 0
    tail_failing = _rotation(operator={"name": "identity", "fixed_point": [1.0, 0.0]},
                             start=[1.0, 0.0], schedule={"family": "custom", "params": {
                                 "alpha": {"values": [0.25, 0.25, 0.25], "then": 0.5},
                                 "beta": 0.5, "defect_cauchy": {"const": 3},
                                 "defect_sum_bound": 0,
                                 "weight_divergence": {"affine": {"slope": 4,
                                                                  "intercept": 0}}}})
    # beta leaves [0, 1] from index 300 on, where the window settles
    then_out_of_range = _rotation(5000, schedule={"family": "custom", "params": {
        "alpha": 0.5, "beta": {"values": [0.5] * 300, "then": 1.2},
        "perturbation": {"zero": True}, "defect_is_zero": True,
        "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}}})
    then_out_of_range["certificate"]["formula"] = "general"
    # the defect (1 - 0.9) - 0.1 is a nonzero constant of rounding, summed
    # over the whole window of 100 101 indices
    inexact_rounding = _rotation(100_100, 15, schedule={"family": "inexact_km", "params": {
        "beta": 0.1, "weight_divergence": {"affine": {"slope": 12, "intercept": 0}}}})
    # the distance and the anchor recursion overflow, so audit rows compare
    # inf with inf
    non_finite_audit = _rotation(3, start=[1e308, 1e308],
                                 operator={"name": "rotation", "params": {"angle_deg": 1e-160}},
                                 schedule={"family": "example1", "params": {
                                     "lam": 1e-160, "r_star": [3e307, 3e307]}})
    # the JSON writer's edges: an output directory, echoed in verify.json,
    # whose name holds a non-ASCII letter, a quote and a backslash, and a
    # start bound of 10^12, whose certificate integers pass 2^64 from k = 0
    escaped_directory = _rotation(500, output={"directory": 'out/\u00e9 "q" \\ d',
                                               "formats": ["csv", "json"]})
    big_start = _rotation(start=[1e12, 0.0])
    # starts whose norm the plain formula overflows though it is finite: an
    # entry of 1e200, whose square passes the double range, and entries of
    # 3 and 2 at p = 1100, whose 1100th powers do (and 0.5^1100 underflows)
    large_entry = _rotation(500, 3, start=[1e200, 0.0])
    large_power = _rotation(500, 3, space={"dim": 2, "norm": "lp", "p": 1100.0},
                            operator={"name": "coordinate_shrink",
                                      "params": {"factors": [0.5, 0.5]}},
                            start=[3.0, 0.0])
    power_of_two = dict(large_power, start=[2.0, 0.0])
    # starts whose p-norm alone and as a row of a stack once differed in the
    # last bit, so K_z[0] and dist_z[0] were two values of ||x_0 - z||
    one_norm_starts = {f"lp-start-p{p:g}": dict(lp, space={"dim": 2, "norm": "lp", "p": p},
                                                start=start, run={"horizon": 500, "k_max": 3})
                       for p, start in ((3.0, [0.125, 1.5]), (1.5, [0.375, -0.625]))}
    # config-parse edges: bounds kept for series declared zero, a missing
    # bound, the first of two bad params, an anchor over a declared series
    parse_edges = [
        ("custom-zero-perturbation-bound", "custom",
         dict(CUSTOM, perturbation_sum_bound=3), "verify"),
        ("custom-zero-defect-bound", "custom", dict(CUSTOM, defect_sum_bound=2), "verify"),
        ("inexact-missing-bound", "inexact_km", INEXACT, "certify"),
        ("custom-bad-alpha-and-modulus", "custom",
         dict(CUSTOM, alpha="x", perturbation=INVERSE_SQUARE,
              perturbation_cauchy={"const": 1.5}), "certify"),
        ("anchor-over-inexact", "anchor",
         {"base": {"family": "inexact_km", "params": dict(INEXACT, perturbation_sum_bound=2)},
          "u": [1.0, 0.0]}, "verify"),
    ]
    # the malformed configs of the test suite: values of the wrong JSON type or
    # shape, non-finite numbers, operator vectors whose squared norm overflows,
    # and keys an operator entry or a schedule family does not accept; the
    # cases the two tables share are one job
    wrong_types = {name: changes for name, (changes, _) in CONFIG_VALUES.items()}
    for name, (op, params, _) in OPERATOR_PARAMS.items():
        changes = {"operator": {"name": op, "params": params}}
        if wrong_types.setdefault(name, changes) != changes:
            raise ValueError(f"two different malformed configs are named {name!r}")
    wrong_types.update({f"misspelt-{family}": {"schedule": {"family": family, "params": params}}
                        for family, (params, _) in MISSPELT_PARAMS.items()})
    # every catalog entry under each operator.fixed_point choice: (params, a
    # declared vector that is fixed, one that is not); the identity fixes all
    q3 = [[0.5, -0.25, 0.0], [0.25, 0.5, 0.0], [0.0, 0.0, 0.75]]
    shift3 = [1.0, 0.0, -0.5]
    fixed_point_cases = {
        "identity": ({}, [1.0, 2.0, 3.0], None),
        "rotation": ({"angle_deg": 90.0}, [0.0, 0.0, 4.0], [1.0, 0.0, 0.0]),
        "ball_projection": ({"center": [0.5, 0.0, 0.0], "radius": 1.0},
                            [0.5, 0.5, 0.0], [3.0, 0.0, 0.0]),
        "halfspace_projection": ({"normal": [1.0, 1.0, 0.0], "offset": 0.5},
                                 [0.0, 0.0, 7.0], [1.0, 1.0, 0.0]),
        "box_projection": ({"lo": [-1.0, -0.5, -1.0], "hi": [1.0, 0.5, 1.0]},
                           [0.5, 0.25, 0.0], [2.0, 0.0, 0.0]),
        "affine_avg": ({"matrix": q3, "shift": shift3},
                       np.linalg.solve(np.eye(3) - np.array(q3), shift3).tolist(),
                       [0.0, 0.0, 0.0]),
        "coordinate_shrink": ({"factors": [0.5, 1.0, -1.0]}, [0.0, 3.0, 0.0], [0.0, 0.0, 1.0]),
    }
    fixed_point_jobs = [
        (f"fixed-point-{name}-{choice}",
         _rotation(20, space={"dim": 3, "norm": "euclidean"}, start=[2.0, -1.0, 0.5],
                   operator={"name": name, "params": params, "fixed_point": declared}),
         ["run"])
        for name, (params, fixed, not_fixed) in fixed_point_cases.items()
        for choice, declared in (("default", "default"), ("nearest", "nearest"),
                                 ("fixed", fixed), ("not-fixed", not_fixed))
        if declared is not None]
    huge_r_star = _rotation(100, space={"dim": 2, "norm": "lp", "p": 1.0001},
                            operator={"name": "coordinate_shrink",
                                      "params": {"factors": [0.5, 0.5]}},
                            schedule={"family": "example1",
                                      "params": {"lam": 0.5, "r_star": [1e308, 0.0]}})
    jobs = [(f"rotation-{c}", _rotation(), [c]) for c in ("certify", "run", "audit", "verify")]
    jobs += [(name, _rotation(500, 3, schedule={"family": family, "params": params}), [command])
             for name, family, params, command in parse_edges]
    jobs += [(f"wrong-type-{name}", _rotation(20, **changes), ["run"])
             for name, changes in wrong_types.items()]
    jobs += [(f"flag-{name}", _rotation(**changes), argv)
             for name, (changes, argv, _) in FLAGS.items()]
    jobs += [("huge-r-star", huge_r_star, ["certify"])]
    jobs += [(f"edge-{name}-{command}", _rotation(**changes), [command])
             for name, (changes, exits) in CERTIFICATE_EDGES.items() for command in exits]
    jobs += fixed_point_jobs
    jobs += [
        ("rotation-run-100", _rotation(100), ["run"]),
        ("rotation-run-streamed", _rotation(100_500), ["run"]),
        ("rotation-verify-35000", _rotation(35_000, 15), ["verify"]),
        ("rotation-flags", _rotation(), ["run", "--horizon", "50", "--format", "json"]),
        ("negative-override", negative, ["verify"]),
        ("out-of-range", out_of_range, ["run"]),
        ("false-premise", false_premise, ["verify"]),
        ("false-defect-modulus", false_defect_modulus, ["verify"]),
        ("constant-divergence-rate", no_divergence, ["verify"]),
        ("small-weight", _rotation(schedule={"family": "classical_km",
                                             "params": {"beta": 1e-5}}), ["verify"]),
        ("unrepresentable-start", _rotation(10, start=[1.7e308, 1.7e308]), ["run"]),
        ("lp-verify", lp, ["verify"]),
        ("overflow", overflow, ["certify"]),
        ("example2-ball", ball, ["verify"]),
        ("affine-shift-dim8-run", affine, ["run"]),
        ("affine-shift-dim8-verify", affine, ["verify"]),
        ("rotation-dim64-run", rotation64, ["run"]),
        ("rotation-dim64-verify", rotation64, ["verify"]),
        ("example2-shrink-dim8-run", shrink8, ["run"]),
        ("example2-shrink-dim8-verify", shrink8, ["verify"]),
        ("anchor-rotation-dim64-run", anchor64, ["run"]),
        ("anchor-rotation-dim64-verify", anchor64, ["verify"]),
        ("alpha-table-run", alpha_table, ["run"]),
        ("alpha-table-verify", alpha_table, ["verify"]),
        ("identity-run", identity, ["run"]),
        ("alpha-switch-run", alpha_switch, ["run"]),
        ("subnormal-perturbation-verify", subnormal_r, ["verify"]),
        ("false-divergence-5000", false_divergence, ["verify"]),
        ("failing-audit-run", failing_audit, ["run"]),
        ("failing-audit-audit", failing_audit, ["audit"]),
        ("non-finite-audit-run", non_finite_audit, ["run"]),
        ("non-finite-audit-verify", non_finite_audit, ["verify"]),
        ("missing-config", None, ["certify", "--config", "missing.json"]),
        ("catalog", None, ["catalog"]),
        ("verify-without-config", None, ["verify"]),
        ("run-format-xml", _rotation(), ["run", "--format", "xml"]),
        ("verify-help", None, ["verify", "--help"]),
        ("help", None, ["--help"]),
    ]
    jobs += [(f"tail-failing-audit-{horizon}-{command}",
              dict(tail_failing, run={"horizon": horizon, "k_max": 3}), [command])
             for horizon in (257, 5000) for command in ("run", "audit", "verify")]
    # the README rotation settles at 2303; its CSV is written in chunks of
    # 4096 rows, and the rows past 2303 repeat row 2303
    jobs += [(f"settled-csv-{horizon}", _rotation(horizon), ["run"])
             for chunks in (1, 2, 3) for horizon in (4096 * chunks - 1, 4096 * chunks,
                                                     4096 * chunks + 1)]
    jobs += [(f"then-out-of-range-{command}", then_out_of_range, [command])
             for command in ("run", "verify")]
    jobs += [("inexact-rounding-defect-verify", inexact_rounding, ["verify"]),
             ("escaped-directory-verify", escaped_directory, ["verify"]),
             ("big-integers-certify", big_start, ["certify"])]
    jobs += [(f"{name}-{command}", doc, [command])
             for name, doc in (("start-entry-1e200", large_entry),
                               ("start-entry-3-p1100", large_power))
             for command in ("certify", "verify")]
    jobs += [(f"start-entry-{name}-p1100-{command}", doc, [command])
             for name, doc in (("3", large_power), ("2", power_of_two))
             for command in (("run",) if name == "3" else ("certify", "run", "verify"))]
    jobs += [(f"{name}-{command}", doc, [command])
             for name, doc in one_norm_starts.items() for command in ("run", "verify")]
    return jobs


def make_jobs(work: Path, seeds) -> list:
    """Writes the configs under ``work/configs`` and returns the jobs as
    ``{"name", "argv"}``."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    configs = work / "configs"
    configs.mkdir(parents=True)
    entries = []
    for seed in seeds:
        for workload, make in workloads.WORKLOADS.items():
            for command in make(seed):
                name = f"{workload}-s{seed}-{command.name}"
                entries += [(f"{name}-{c}", command.config, [c]) for c in ("run", "verify")]
    entries += _test_suite_jobs()
    jobs = []
    for name, doc, argv in entries:
        if doc is not None:
            path = configs / f"{name}.json"
            path.write_text(json.dumps(doc))
            argv = [argv[0], "--config", str(path)] + argv[1:]
        jobs.append({"name": name, "argv": argv})
    return jobs


def run_jobs(src: str, jobs_path: str, out_root: str) -> None:
    """Worker: runs every job through ``km_rates.cli.main`` of ``src``, each
    in ``out_root/<name>``, and writes ``results.json`` there.  A job that
    raises records the exception's type and message as its exit.  As in the
    test suite, a RuntimeWarning is raised as an error, so a leaked numpy
    warning ends the job that hit it."""
    warnings.simplefilter("error", RuntimeWarning)
    from km_rates import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported {cli.__file__}, not a module under {src}")
    results = {}
    for job in json.loads(Path(jobs_path).read_text()):
        job_dir = Path(out_root) / job["name"]
        job_dir.mkdir(parents=True)
        os.chdir(job_dir)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(job["argv"])
            except SystemExit as exc:  # argparse errors
                code = exc.code
            except Exception as exc:  # a crash is this job's result, not the worker's end
                code = f"uncaught {type(exc).__name__}: {exc}"
        results[job["name"]] = {"exit": code, "stdout": stdout.getvalue().splitlines(),
                                "stderr": stderr.getvalue().splitlines()}
    (Path(out_root) / "results.json").write_text(json.dumps(results, indent=1))


def _files(job_dir: Path) -> dict:
    return {str(p.relative_to(job_dir)): p for p in sorted(job_dir.rglob("*")) if p.is_file()}


def compare(a: Path, b: Path, jobs: list) -> tuple:
    """Returns (differences, files compared)."""
    results = [json.loads((side / "results.json").read_text()) for side in (a, b)]
    differences, compared = [], 0
    for job in jobs:
        name = job["name"]
        ra, rb = results[0][name], results[1][name]
        for key in ("exit", "stdout", "stderr"):
            if ra[key] != rb[key]:
                differences.append(f"{name}: {key} differs: {ra[key]!r} != {rb[key]!r}")
        fa, fb = _files(a / name), _files(b / name)
        for rel in sorted(set(fa) ^ set(fb)):
            differences.append(f"{name}: {rel} exists on one side only")
        for rel in sorted(set(fa) & set(fb)):
            compared += 1
            if fa[rel].read_bytes() != fb[rel].read_bytes():
                differences.append(f"{name}: {rel} bytes differ")
    return differences, compared


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs=2, type=Path, help="two repository checkouts")
    parser.add_argument("--seeds", nargs="+", type=int, default=[1, 2, 3])
    parser.add_argument("--work", type=Path, default=Path(".compare-work"))
    args = parser.parse_args(argv)
    work = args.work.resolve()
    shutil.rmtree(work, ignore_errors=True)
    jobs = make_jobs(work, args.seeds)
    jobs_path = work / "jobs.json"
    jobs_path.write_text(json.dumps(jobs))
    sides = []
    for i, checkout in enumerate(args.checkouts):
        src = checkout.resolve() / "src"
        out_root = work / f"side{i}"
        env = dict(os.environ, PYTHONPATH=str(src))
        subprocess.run([sys.executable, __file__, "--worker", str(src), str(jobs_path),
                        str(out_root)], env=env, check=True)
        sides.append(out_root)
    differences, compared = compare(sides[0], sides[1], jobs)
    for line in differences:
        print(line)
    print(f"{len(jobs)} commands, {compared} output files compared, "
          f"{len(differences)} differences")
    return 1 if differences else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        run_jobs(*sys.argv[2:5])
    else:
        sys.exit(main())
