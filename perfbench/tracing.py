"""Spans and counters around the calls that ``km_rates.cli`` makes into each
module, installed from outside the package.

Every hook names a module attribute that must exist; a missing one raises
:class:`MissingHook`, so a refactor that renames or removes an entry point
has to update this file instead of leaving a layer silently at zero.
"""

from __future__ import annotations

import inspect
import os
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

from km_rates import cli
from km_rates.certificates import Certificate
from km_rates.operators import Space
from km_rates.schedules import verify_hypotheses

#: cli attribute -> span name; each is a call from cli into another layer
CLI_HOOKS = {
    "load_config": "config.load",
    "assemble": "config.assemble",
    "_validate_schedule_window": "cli.validate",
    "iterate": "engine.iterate",
    "audit_inequalities": "engine.audit",
    "check_rate_soundness": "verify.soundness",
    "check_liminf_contract": "verify.liminf",
    "_write_json": "cli.export",
    "_soundness_csv": "cli.export",
    "write_trajectory_csv": "cli.export",
}
#: spans every traced command of a subcommand must produce
EXPECTED_SPANS = {
    "run": {"config.load", "config.assemble", "cli.validate", "engine.iterate",
            "engine.audit", "cli.export"},
    "verify": {"config.load", "config.assemble", "cli.validate", "engine.iterate",
               "engine.audit", "verify.soundness", "verify.liminf", "cli.export"},
}
SCHEDULE_STREAMS = ("alpha", "beta", "perturbation", "perturbation_norm")
#: spans of the off-path probes, recorded outside the command's timed wall
PROBES = ("certificates.table", "schedules.hypotheses")


class MissingHook(RuntimeError):
    """A traced entry point no longer exists or changed its signature."""


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float
    command: int


def _bind(fn: Callable, args, kwargs, *names) -> inspect.BoundArguments:
    """Binds a call, checking that the named parameters exist."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
        for name in names:
            bound.arguments[name]
    except (TypeError, KeyError) as exc:
        raise MissingHook(f"{fn.__module__}.{fn.__qualname__}: expected parameters "
                          f"{names}: {exc}") from None
    return bound


class Tracer:
    """Records spans and counters in memory while installed.

    With ``count_calls`` the operator, schedule-stream and norm calls made
    inside ``iterate`` are counted too.  Those counters add a Python call per
    counted call, so a tracer that counts should not also be timed.
    """

    def __init__(self, count_calls: bool):
        self.count_calls = count_calls
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._originals: dict = {}
        self._counting = False  # inside iterate
        self.command = -1
        self.instance = None
        self.horizon: Optional[int] = None

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, parent, time.perf_counter(), 0.0, self.command))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def _timed(self, name: str, fn: Callable, *args, **kwargs):
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    # -- counters ------------------------------------------------------
    def _counted(self, fn: Callable, key: str) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks ---------------------------------------------------------
    def _hook(self, attr: str, span: str) -> Callable:
        original = self._originals[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if attr == "iterate":
                return tracer._iterate(original, args, kwargs)
            result = tracer._timed(span, original, *args, **kwargs)
            if attr == "assemble":
                tracer.instance = result
            elif attr == "_validate_schedule_window":
                tracer.horizon = _bind(original, args, kwargs, "horizon").arguments["horizon"]
            elif attr == "audit_inequalities":
                tracer.counts["engine.audit_checked"] += sum(
                    c.checked for c in result.checks.values())
            elif attr == "check_rate_soundness":
                tracer.counts["verify.rows_truncated"] += sum(r.truncated
                                                              for r in result.rows)
            elif attr == "check_liminf_contract":
                tracer.counts["verify.rows_truncated"] += sum(c.truncated
                                                              for c in result.cells)
            elif span == "cli.export":
                path = _bind(original, args, kwargs, "path").arguments["path"]
                tracer.counts["cli.export_bytes"] += os.path.getsize(path)
            return result

        return wrapper

    def _iterate(self, original: Callable, args, kwargs):
        """Iterate; when counting, with per-instance counters on the operator
        and schedule streams and the class-level norm counter switched on."""
        bound = _bind(original, args, kwargs, "op", "schedule", "horizon")
        op, schedule = bound.arguments["op"], bound.arguments["schedule"]
        self.counts["engine.steps"] += bound.arguments["horizon"]
        if not self.count_calls:
            return self._timed("engine.iterate", original, *args, **kwargs)
        bound.arguments["op"] = replace(op, apply=self._counted(op.apply,
                                                                "operators.apply_calls"))
        bound.arguments["schedule"] = replace(schedule, **{
            name: self._counted(getattr(schedule, name), "schedules.calls")
            for name in SCHEDULE_STREAMS})
        self._counting = True
        try:
            traj = self._timed("engine.iterate", original, *bound.args, **bound.kwargs)
        finally:
            self._counting = False
        self.counts["engine.trajectory_bytes"] += sum(
            v.nbytes for v in vars(traj).values() if hasattr(v, "nbytes"))
        return traj

    def install(self) -> None:
        for attr in CLI_HOOKS:
            if not callable(getattr(cli, attr, None)):
                raise MissingHook(f"km_rates.cli.{attr} no longer exists")
            self._originals[attr] = getattr(cli, attr)
        for attr, span in CLI_HOOKS.items():
            setattr(cli, attr, self._hook(attr, span))
        norm = vars(Space).get("norm")
        if norm is None or not callable(getattr(Certificate, "table", None)):
            raise MissingHook("Space.norm or Certificate.table no longer exists")
        if self.count_calls:
            self._originals["Space.norm"] = norm
            tracer = self

            def counted_norm(space, v):
                if tracer._counting:
                    tracer.counts["operators.norm_calls"] += 1
                return norm(space, v)

            Space.norm = counted_norm

    def uninstall(self) -> None:
        if "Space.norm" in self._originals:
            Space.norm = self._originals.pop("Space.norm")
        for attr, original in self._originals.items():
            setattr(cli, attr, original)
        self._originals.clear()

    # -- per command ---------------------------------------------------
    def begin(self, command: int) -> None:
        self.command = command
        self.instance = None
        self.horizon = None

    def probe(self) -> bool:
        """Off-path probes on the command just run, outside its timed wall:
        the certificate table and the schedule hypotheses on the run window.
        Returns the hypotheses verdict."""
        if self.instance is None or self.horizon is None:
            raise MissingHook("assemble or _validate_schedule_window was not reached")
        cert = self.instance.certificate
        self._timed("certificates.table", cert.table, self.instance.config.k_max)
        report = self._timed("schedules.hypotheses", verify_hypotheses,
                             self.instance.schedule, self.horizon)
        return report.passed

    def self_times(self) -> Counter:
        """Per span name, summed: each span's duration minus the part its
        child spans cover."""
        children = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                children[s.parent] += s.end - s.start
        out: Counter = Counter()
        for s, covered in zip(self.spans, children):
            out[s.name] += s.end - s.start - covered
        return out

    def command_time(self) -> float:
        """Summed self time of the spans inside the commands' timed walls."""
        return sum(t for name, t in self.self_times().items() if name not in PROBES)

    def check_spans(self, subcommands: List[str]) -> None:
        """Every traced command must have entered each layer its subcommand
        uses; command i of a pass ran ``subcommands[i]``."""
        seen: dict = {}
        for span in self.spans:
            seen.setdefault(span.command, set()).add(span.name)
        for i, subcommand in enumerate(subcommands):
            missing = EXPECTED_SPANS[subcommand] - seen.get(i, set())
            if missing:
                raise MissingHook(f"command {i} ({subcommand}) has no {sorted(missing)} "
                                  f"span; update perfbench/tracing.py")

    def to_records(self) -> List[dict]:
        return [vars(s) for s in self.spans]
