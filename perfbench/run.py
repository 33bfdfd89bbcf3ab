"""km-rates benchmark: seeded CLI workloads, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload rotation_long --seed 1 --seconds 30 --trace 0

One process, one thread.  It writes seeded configs under ``.perfbench-work/``
and runs them in-process through ``km_rates.cli.main``, one whole pass over
the workload's commands at a time, until ``--seconds`` have elapsed.  Every
command's exit code and output files are checked.  Between commands it runs
reference slices that read the host's speed, and the end-to-end times are
normalised by them (see :class:`HostSpeed`).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# Pinned before numpy is imported; children inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
#: one reference slice: engine-like steps and JSON round trips, which take
#: about 6 ms each on the baseline host
REFERENCE_STEPS = 700
REFERENCE_JSON_TRIPS = 8
#: seconds of reference slices run per second of measured commands; set-up
#: is short and has few samples, so it takes more
REFERENCE_SHARE = 0.15
SETUP_REFERENCE_SHARE = 0.5
#: mean seconds of one reference slice on the baseline host (baseline.md);
#: the time metrics are in seconds at that host's speed
REFERENCE_BASELINE_S = 0.012
SETUP_SNIPPET = ("import time; t = time.perf_counter(); import km_rates.cli; "
                 "print(time.perf_counter() - t)")

END_TO_END_UNITS = {
    "cmd_s": "s", "steps_per_s": "steps/s",
    "verified_rows": "count", "ok_ratio": "ratio", "setup_s": "s", "peak_rss_mb": "MB",
}
#: per-layer time metric -> span name; times are seconds per command
LAYER_TIMES = {
    "config.load_s": "config.load",
    "config.assemble_s": "config.assemble",
    "certificates.table_s": "certificates.table",
    "cli.validate_s": "cli.validate",
    "schedules.hypotheses_s": "schedules.hypotheses",
    "engine.iterate_s": "engine.iterate",
    "engine.audit_s": "engine.audit",
    "verify.soundness_s": "verify.soundness",
    "verify.liminf_s": "verify.liminf",
    "cli.export_s": "cli.export",
}
#: per-layer counters, each reported per pass over the workload
LAYER_COUNTS = ("engine.trajectory_bytes", "engine.audit_checked", "verify.rows_truncated",
                "cli.export_bytes")
PER_STEP = {
    "operators.norm_calls_per_step": "operators.norm_calls",
    "operators.apply_calls_per_step": "operators.apply_calls",
    "schedules.calls_per_step": "schedules.calls",
}
LAYER_UNITS = dict(
    {name: "s" for name in LAYER_TIMES},
    **{name: "B" if name.endswith("bytes") else "count" for name in LAYER_COUNTS},
    **{name: "calls/step" for name in PER_STEP},
    **{"engine.iterate_us_per_step": "us/step", "cli.other_s": "s",
       "trace.wall_s": "s", "trace.overhead_s": "s",
       "host.wall_mean_s": "s", "host.wall_p50_s": "s", "host.wall_p90_s": "s",
       "host.reference_s": "s"},
)


class BenchmarkError(RuntimeError):
    """The benchmark cannot measure this checkout."""


class _Rotation:
    matrix = np.array([[0.0, -1.0], [1.0, 0.0]])

    def __call__(self, x):
        return self.matrix @ x


#: a verify.json-like document for the reference slice's JSON round trips
_REFERENCE_DOC = {"rows": [{"k": k, "bound": 7 * k, "pass": k % 3 == 0, "value": 0.1 * k + 1e-3,
                            "quantity": "res_T"} for k in range(64)]}


def reference_slice() -> float:
    """Seconds of fixed, benchmark-owned work shaped like the program's: a
    loop like the engine's (an operator call, a norm and a stored point per
    step), then JSON round trips like the per-command export and parsing.
    It never calls the program, so its speed is the host's alone."""
    op = _Rotation()
    x = np.array([0.6, 0.8])
    residuals = np.empty(REFERENCE_STEPS)
    points = np.empty((REFERENCE_STEPS, 2))
    start = time.perf_counter()
    for n in range(REFERENCE_STEPS):
        tx = op(x)
        residuals[n] = float(np.linalg.norm(x - tx))
        points[n] = x
        x = 0.5 * x + 0.5 * tx
    for _ in range(REFERENCE_JSON_TRIPS):
        json.loads(json.dumps(_REFERENCE_DOC, indent=1))
    return time.perf_counter() - start


class HostSpeed:
    """Reads the host's speed from reference slices run between commands.

    A shared host flips between a fast and a slow state, about 1.8x apart,
    every few seconds, and the share of time in the fast state drifts over
    minutes; no statistic of one run's wall times removes that drift.  The
    slices run after every command, for a fixed share of its wall time, in
    one group per measured unit (a pass, or one set-up import).  A unit's
    wall time over the mean of the slices just before and during it cancels
    the host's state and keeps any change in the program.  Means, not
    medians, of the slices: each slice lands wholly in one state, so their
    median jumps between the states while their mean follows the mix.
    """

    def __init__(self, share: float):
        self.share = share
        self.groups = [[]]
        self._owed = 0.0
        self.after(0.0)

    def start_group(self) -> int:
        self.groups.append([])
        return len(self.groups) - 1

    def after(self, seconds: float) -> None:
        """Runs reference slices for ``share`` of ``seconds`` of work, at
        least one per group."""
        self._owed += seconds * self.share
        while self._owed > 0 or not self.groups[-1]:
            elapsed = reference_slice()
            self.groups[-1].append(elapsed)
            self._owed -= elapsed

    def normalised(self, group: int, seconds: float) -> float:
        """``seconds`` measured in ``group``, at the baseline host's speed."""
        slices = self.groups[group - 1] + self.groups[group]
        return seconds * REFERENCE_BASELINE_S / statistics.fmean(slices)

    @property
    def samples(self) -> list:
        return [t for group in self.groups for t in group]


def _sha(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _count_lines(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


def _clean_audit_checks(audit: dict) -> int:
    return sum(1 for c in audit["checks"].values() if c["checked"] > 0 and c["violations"] == 0)


def check_verify(command, out: Path, code: int):
    """Returns (problems, verified rows, digest material)."""
    doc = json.loads((out / "verify.json").read_text())
    k_max = command.config["run"]["k_max"]
    horizon = doc["horizon"]
    table = doc["certificate"]["table"]
    problems = []
    if not doc["audit"]["passed"]:
        problems.append("audit reports violations")
    soundness = doc["soundness"]
    verified = doc["liminf"]["checked"] + _clean_audit_checks(doc["audit"])
    for report, rate, last in ((soundness[0], "residual_rate", horizon),
                               (soundness[1], "step_rate", horizon - 1)):
        rows = report["rows"]
        if len(rows) != k_max + 1:
            problems.append(f"{report['quantity']}: {len(rows)} rows, expected {k_max + 1}")
            continue
        for row, predicted in zip(rows, table):
            if row["bound"] != predicted[rate] or row["truncated"] != (predicted[rate] > last):
                problems.append(f"{report['quantity']} k={row['k']}: checked/truncated "
                                f"split differs from Certificate.table")
        verified += report["checked"]
        csv_path = out / f"soundness_{report['quantity']}.csv"
        if _count_lines(csv_path) != k_max + 2:
            problems.append(f"{csv_path.name} does not have {k_max + 1} rows")
    failing = [r["quantity"] for r in soundness
               if any(row["pass"] is False for row in r["rows"] if not row["truncated"])]
    if command.negative_control:
        if set(failing) != {"res_T"}:
            problems.append(f"negative control failed in {failing or 'no report'}")
        if not doc["liminf"]["all_passed"]:
            problems.append("negative control: liminf check failed")
    elif failing or not doc["liminf"]["all_passed"]:
        problems.append(f"failing rows in {failing or ['liminf']}")
    digest = {
        "exit": code,
        "certificate": doc["certificate"],
        "rows": [[(r["k"], r["bound"], r["pass"], r["truncated"]) for r in rep["rows"]]
                 for rep in soundness],
        "liminf": [doc["liminf"]["checked"], doc["liminf"]["all_passed"]],
        "audit": {n: c["violations"] for n, c in doc["audit"]["checks"].items()},
    }
    return problems, verified, digest


def check_run(command, out: Path, code: int):
    audit = json.loads((out / "audit.json").read_text())["audit"]
    horizon = command.config["run"]["horizon"]
    problems = [] if audit["passed"] else ["audit reports violations"]
    rows = _count_lines(out / "trajectory.csv") - 1
    if rows != horizon + 1:
        problems.append(f"trajectory.csv has {rows} rows, expected {horizon + 1}")
    digest = {"exit": code, "rows": rows,
              "audit": {n: [c["checked"], c["violations"]] for n, c in audit["checks"].items()}}
    return problems, _clean_audit_checks(audit), digest


CHECKS = {"verify": check_verify, "run": check_run}


class Workload:
    """Generated configs, output checks and per-command samples of one run."""

    def __init__(self, commands, work: Path):
        self.commands = commands
        self.work = work
        self.paths = []
        for i, command in enumerate(commands):
            config = dict(command.config)
            config["output"] = dict(config["output"], directory=str(work / "out" / str(i)))
            path = work / "cfg" / f"{i:03d}-{command.name}.json"
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(config, indent=1))
            self.paths.append(path)
        self.digests = {}
        self.attempted = 0
        self.failures = []
        self.verified_per_pass = None  # set by the first pass; the digests pin it

    def run_pass(self, cli, host: HostSpeed, tracer=None):
        """One pass over every command; returns the wall seconds of each."""
        samples = []
        verified = 0
        for i, (command, path) in enumerate(zip(self.commands, self.paths)):
            out = self.work / "out" / str(i)
            shutil.rmtree(out, ignore_errors=True)
            if tracer is not None:
                tracer.begin(i)
            sink = io.StringIO()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                start = time.perf_counter()
                code = cli.main([command.subcommand, "--config", str(path)])
                wall = time.perf_counter() - start
            self.attempted += 1
            problems = []
            if code != command.expected_exit:
                problems.append(f"exit {code}, expected {command.expected_exit}: "
                                f"{sink.getvalue()[-300:]!r}")
            try:
                found, rows, digest = CHECKS[command.subcommand](command, out, code)
                problems += found
                verified += rows
            except (OSError, KeyError, IndexError, TypeError, ValueError) as exc:
                problems.append(f"output unreadable: {exc!r}")
                digest = None
            if tracer is not None and not tracer.count_calls and not tracer.probe():
                problems.append("verify_hypotheses rejects the generated schedule")
            if digest is not None:
                first = self.digests.setdefault(i, _sha(digest))
                if first != _sha(digest):
                    problems.append("certificate/verdict digest differs from the first run")
            if problems:
                self.failures.append((command.name, problems))
            samples.append(wall)
            host.after(wall)
        if self.verified_per_pass is None:
            self.verified_per_pass = verified
        return samples


def measure_setup() -> float:
    """Median seconds of ``import km_rates.cli`` in fresh interpreters, at
    the baseline host's speed as read by slices run between them."""
    host = HostSpeed(SETUP_REFERENCE_SHARE)
    normalised = []
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    for _ in range(SETUP_REPEATS):
        group = host.start_group()
        done = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds = float(done.stdout.strip().splitlines()[-1])
        host.after(seconds)
        normalised.append(host.normalised(group, seconds))
    return statistics.median(normalised)


def environment(args) -> dict:
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
                                ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "numpy": np.__version__, "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(), "git_commit": commit,
    }


def run(args) -> dict:
    if not (SRC / "km_rates" / "cli.py").is_file():
        raise BenchmarkError(f"no km_rates sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from km_rates import cli  # noqa: PLC0415
    import tracing  # noqa: PLC0415

    work = ROOT / ".perfbench-work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    commands = workloads.WORKLOADS[args.workload](args.seed)
    workload = Workload(commands, work)
    setup_s = measure_setup() if args.trace == 0 else None
    host = HostSpeed(REFERENCE_SHARE)

    # --trace 1: pass 1 counts calls, later odd passes are timed with spans
    counter = tracing.Tracer(count_calls=True) if args.trace else None
    timer = tracing.Tracer(count_calls=False) if args.trace else None
    untraced, traced = [], []
    untraced_passes = []  # (slice group, seconds in commands)
    passes = 0
    pass_walls = []
    deadline = time.perf_counter() + args.seconds
    # a pass starts only if it is expected to end less than half a pass
    # after the deadline, so a run measures --seconds give or take half a pass
    while passes < (4 if args.trace else 1) or (
            time.perf_counter() + statistics.median(pass_walls) / 2 < deadline):
        started = time.perf_counter()
        group = host.start_group()
        tracer = None if passes % 2 == 0 or not args.trace else (
            counter if passes == 1 else timer)
        if tracer is None:
            walls = workload.run_pass(cli, host)
            untraced += walls
            untraced_passes.append((group, sum(walls)))
        else:
            tracer.install()
            try:
                walls = workload.run_pass(cli, host, tracer)
            finally:
                tracer.uninstall()
            if tracer is timer:
                traced += walls
        pass_walls.append(time.perf_counter() - started)
        passes += 1

    n = len(commands)
    env = environment(args)
    env.update(passes=passes, commands_per_pass=n, untraced_samples=len(untraced),
               traced_samples=len(traced), reference_samples=len(host.samples),
               reference_mean_s=statistics.fmean(host.samples))
    if args.trace == 0:
        # a pass's mean command time at the baseline host's speed, averaged
        # over the passes without the fastest and slowest fifth: the passes
        # that straddle a change of the host's state land in the tails
        cmd_s = trimmed_mean([host.normalised(g, t) for g, t in untraced_passes]) / n
        metrics = {
            "cmd_s": cmd_s,
            "steps_per_s": steps_per_pass(work, commands) / (cmd_s * n),
            "verified_rows": workload.verified_per_pass,
            "ok_ratio": 1.0 - len(workload.failures) / workload.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    else:
        for tracer in (counter, timer):
            tracer.check_spans([c.subcommand for c in commands])
        metrics = layer_metrics(counter, timer, traced, untraced)
        metrics.update({
            "host.wall_mean_s": statistics.fmean(untraced),
            "host.wall_p50_s": statistics.median(untraced),
            "host.wall_p90_s": statistics.quantiles(untraced, n=10, method="inclusive")[-1],
            "host.reference_s": statistics.fmean(host.samples),
        })
        units = LAYER_UNITS
        (work / "spans.json").write_text(json.dumps(timer.to_records()))
    shutil.rmtree(work / "out", ignore_errors=True)
    failed = len(workload.failures)
    result = {
        "correct": failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "result": result, "failures": workload.failures[:50],
         "untraced_walls": untraced, "traced_walls": traced,
         "untraced_passes": untraced_passes, "reference_groups": host.groups}, indent=1))
    return env, workload.failures, result


def trimmed_mean(values) -> float:
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def steps_per_pass(work: Path, commands) -> int:
    """Iteration steps of one pass; auto horizons are read from verify.json."""
    steps = 0
    for i, command in enumerate(commands):
        horizon = command.config["run"]["horizon"]
        if not isinstance(horizon, int):
            horizon = json.loads((work / "out" / str(i) / "verify.json").read_text())["horizon"]
        steps += horizon
    return steps


def layer_metrics(counter, timer, traced_walls, untraced_walls) -> dict:
    """Times from the timed passes, counts from the one counting pass."""
    per_command = len(traced_walls)
    self_times = timer.self_times()
    in_command = timer.command_time()
    steps = counter.counts["engine.steps"]
    metrics = {name: self_times[span] / per_command for name, span in LAYER_TIMES.items()}
    metrics.update({name: counter.counts[name] for name in LAYER_COUNTS})
    metrics.update({name: counter.counts[c] / steps for name, c in PER_STEP.items()})
    metrics["engine.iterate_us_per_step"] = (self_times["engine.iterate"]
                                             / timer.counts["engine.steps"] * 1e6)
    metrics["trace.wall_s"] = sum(traced_walls) / per_command
    metrics["cli.other_s"] = (sum(traced_walls) - in_command) / per_command
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"]
                                   - sum(untraced_walls) / len(untraced_walls))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        env, failures, result = run(args)
    except Exception as exc:  # report and exit nonzero without a result line
        import traceback

        traceback.print_exc()
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, problems in failures[:20]:
        print(f"FAILED {name}: {'; '.join(problems)}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
