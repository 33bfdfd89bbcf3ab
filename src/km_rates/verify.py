"""Empirical validation of rate certificates against realized trajectories.

A rate claim "quantity <= 1/(k+1) from index rate(k) on" is checked only up
to the recorded horizon; rows whose bound exceeds the horizon are marked
truncated and carry no verdict.  The reported slack factor (bound divided by
the first empirically sufficient index) quantifies conservativeness and has
no pass/fail semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

from .engine import Trajectory
from .moduli import LiminfModulus, RateFn

SOUNDNESS_TOL = 1e-9
HORIZON_CAP = 100_000
HORIZON_MARGIN = 100


def _series(traj: Trajectory, quantity: str) -> np.ndarray:
    if quantity == "res_T":
        return traj.res_T
    if quantity == "res_step":
        return traj.res_step
    raise ValueError(f"unknown quantity {quantity!r}; use 'res_T' or 'res_step'")


def auto_horizon(rate_values: Iterable[int], cap: int = HORIZON_CAP,
                 margin: int = HORIZON_MARGIN) -> int:
    """min(cap, max requested bound) + margin."""
    values = list(rate_values)
    if not values:
        raise ValueError("auto horizon needs at least one requested bound")
    return min(cap, max(values)) + margin


@dataclass(frozen=True)
class SoundnessRow:
    k: int
    bound: int
    quantity: str
    window: Optional[tuple]
    max_excess: Optional[float]
    passed: Optional[bool]
    empirical_first_index: Optional[int]
    truncated: bool
    slack_factor: Optional[float]


@dataclass
class SoundnessReport:
    quantity: str
    rate_description: str
    horizon: int
    tol: float
    rows: List[SoundnessRow]

    @property
    def all_passed(self) -> bool:
        """True when every non-truncated row passes; truncation is not failure."""
        return all(r.passed for r in self.rows if not r.truncated)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.rows if not r.truncated)

    def row(self, k: int) -> SoundnessRow:
        return self.rows[k]

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "rate": self.rate_description,
            "horizon": self.horizon,
            "tol": self.tol,
            "all_passed": self.all_passed,
            "checked": self.checked,
            "rows": [
                {
                    "k": r.k, "bound": r.bound, "window": list(r.window) if r.window else None,
                    "max_excess": r.max_excess, "pass": r.passed,
                    "empirical_first_index": r.empirical_first_index,
                    "truncated": r.truncated, "slack_factor": r.slack_factor,
                }
                for r in self.rows
            ],
        }


def _suffix_max(values: np.ndarray) -> np.ndarray:
    return np.maximum.accumulate(values[::-1])[::-1]


def _first_quiet_index(suffix: np.ndarray, threshold: float) -> Optional[int]:
    # suffix max is nonincreasing, so the quiet region is a suffix
    quiet = suffix <= threshold
    if not quiet[-1]:
        return None
    return int(np.argmax(quiet))


def empirical_first_index(traj: Trajectory, quantity: str, k: int,
                          tol: float = SOUNDNESS_TOL) -> Optional[int]:
    """Least index from which the quantity stays at or below 1/(k+1)+tol up to
    the horizon; None when even the final entry is above."""
    values = _series(traj, quantity)
    return _first_quiet_index(_suffix_max(values), 1.0 / (k + 1) + tol)


def check_rate_soundness(traj: Trajectory, rate: RateFn, quantity: str, k_max: int,
                         tol: float = SOUNDNESS_TOL) -> SoundnessReport:
    """Verify quantity[n] <= 1/(k+1)+tol for all n in [rate(k), end] per k.

    ``end`` is the last defined index of the stream (horizon for res_T,
    horizon-1 for res_step); rows with rate(k) beyond it are truncated.
    """
    values = _series(traj, quantity)
    last = len(values) - 1
    suffix = _suffix_max(values)
    rows: List[SoundnessRow] = []
    for k in range(k_max + 1):
        bound = rate(k)
        threshold = 1.0 / (k + 1)
        first = _first_quiet_index(suffix, threshold + tol)
        if bound > last:
            rows.append(SoundnessRow(
                k=k, bound=bound, quantity=quantity, window=None, max_excess=None,
                passed=None, empirical_first_index=first, truncated=True,
                slack_factor=None))
            continue
        max_excess = float(suffix[bound] - threshold)
        passed = bool(max_excess <= tol)
        slack = float(bound) / max(1, first) if first is not None else None
        rows.append(SoundnessRow(
            k=k, bound=bound, quantity=quantity, window=(bound, last),
            max_excess=max_excess, passed=passed, empirical_first_index=first,
            truncated=False, slack_factor=slack))
    return SoundnessReport(quantity=quantity, rate_description=rate.description,
                           horizon=traj.horizon, tol=tol, rows=rows)


@dataclass(frozen=True)
class LiminfCell:
    k: int
    L: int
    bound: int
    witness: Optional[int]
    passed: Optional[bool]
    truncated: bool


@dataclass
class LiminfReport:
    horizon: int
    quantity: str
    cells: List[LiminfCell]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.cells if not c.truncated)

    @property
    def checked(self) -> int:
        return sum(1 for c in self.cells if not c.truncated)

    def cell(self, k: int, L: int) -> LiminfCell:
        for c in self.cells:
            if c.k == k and c.L == L:
                return c
        raise KeyError((k, L))

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "quantity": self.quantity,
            "all_passed": self.all_passed,
            "checked": self.checked,
            "failures": [
                {"k": c.k, "L": c.L, "bound": c.bound}
                for c in self.cells if c.passed is False
            ][:20],
        }


def check_liminf_contract(traj: Trajectory, modulus: LiminfModulus, k_max: int,
                          L_max: int, quantity: str = "res_T") -> LiminfReport:
    """Grid check of the witness property: some index in [L, modulus(k, L)]
    has the quantity strictly below 1/(k+1).  Cells whose window end exceeds
    the horizon are truncated."""
    values = _series(traj, quantity)
    last = len(values) - 1
    cells: List[LiminfCell] = []
    for k in range(k_max + 1):
        threshold = 1.0 / (k + 1)
        for L in range(L_max + 1):
            bound = modulus(k, L)
            if bound > last:
                cells.append(LiminfCell(k, L, bound, None, None, True))
                continue
            hits = np.nonzero(values[L:bound + 1] < threshold)[0]
            witness = int(L + hits[0]) if hits.size else None
            cells.append(LiminfCell(k, L, bound, witness, witness is not None, False))
    return LiminfReport(horizon=traj.horizon, quantity=quantity, cells=cells)


def step_rate_consistency(residual_report: SoundnessReport,
                          step_report: SoundnessReport) -> List[int]:
    """Indices k where the residual check passed at 2k+1 but the step check
    failed at k; empty on a consistent pair of reports."""
    bad = []
    for row in step_report.rows:
        if row.truncated or row.passed:
            continue
        j = 2 * row.k + 1
        if j < len(residual_report.rows):
            ref = residual_report.rows[j]
            if not ref.truncated and ref.passed:
                bad.append(row.k)
    return bad
