"""Empirical validation of rate certificates against realized trajectories.

A rate claim "quantity <= 1/(k+1) from index rate(k) on" is checked only up
to the recorded horizon; rows whose bound exceeds the horizon are marked
truncated and carry no verdict.  The reported slack factor (bound divided by
the first empirically sufficient index) quantifies conservativeness and has
no pass/fail semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

import numpy as np

from .engine import Trajectory
from .moduli import Row, RowReport

SOUNDNESS_TOL = 1e-9
HORIZON_CAP = 100_000
HORIZON_MARGIN = 100


def _series(traj: Trajectory, quantity: str) -> np.ndarray:
    """The head of the stream that a check reads."""
    if quantity not in ("res_T", "res_step"):
        raise ValueError(f"unknown quantity {quantity!r}; use 'res_T' or 'res_step'")
    return getattr(traj, quantity)


def auto_horizon(rate_values: Iterable[int]) -> int:
    """min(HORIZON_CAP, max requested bound) + HORIZON_MARGIN."""
    values = list(rate_values)
    if not values:
        raise ValueError("auto horizon needs at least one requested bound")
    return min(HORIZON_CAP, max(values)) + HORIZON_MARGIN


@dataclass(frozen=True)
class SoundnessRow(Row):
    k: int
    bound: int
    window: Optional[tuple]
    max_excess: Optional[float]
    passed: Optional[bool]
    empirical_first_index: Optional[int]
    slack_factor: Optional[float]


@dataclass
class SoundnessReport(RowReport):
    quantity: str
    rate_description: str
    horizon: int
    rows: List[SoundnessRow]

    def to_dict(self) -> dict:
        return {
            "quantity": self.quantity,
            "rate": self.rate_description,
            "horizon": self.horizon,
            "tol": SOUNDNESS_TOL,
            "all_passed": self.passed,
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
    """max(values[n:]) at every n: a reversed view of the running max of the
    reversed values, which is contiguous and nondecreasing."""
    return np.maximum.accumulate(values[::-1])[::-1]


def _first_quiet_indices(suffix: np.ndarray, thresholds) -> np.ndarray:
    """Per threshold, the least n with ``suffix[n] <= threshold``, or -1
    when there is none.

    ``suffix`` is nonincreasing, so the quiet indices are a suffix of it:
    reversed, it is the contiguous running max, and its quiet prefix has the
    length that one binary search per threshold finds, all in one call.  A
    NaN is above every threshold, as numpy sorts it last.
    """
    quiet = np.searchsorted(suffix[::-1], thresholds, side="right")
    return np.where(quiet > 0, suffix.size - quiet, -1)


def empirical_first_index(traj: Trajectory, quantity: str, k: int) -> Optional[int]:
    """Least index from which the quantity stays at or below
    1/(k+1)+SOUNDNESS_TOL up to the horizon; None when even the final entry is
    above."""
    suffix = _suffix_max(_series(traj, quantity))
    first = int(_first_quiet_indices(suffix, 1.0 / (k + 1) + SOUNDNESS_TOL))
    return first if first >= 0 else None


def check_rate_soundness(traj: Trajectory, bounds: Sequence[int], quantity: str,
                         description: str = "") -> SoundnessReport:
    """Verify quantity[n] <= 1/(k+1)+SOUNDNESS_TOL for all n in [bounds[k], end]
    per k, where ``bounds`` holds a rate's values at k = 0 .. len(bounds) - 1
    and ``description`` names it in the report.

    ``end`` is the last defined index of the stream (horizon for res_T,
    horizon-1 for res_step); rows with a bound beyond it are truncated.
    The suffix maxima are taken over the stream's head only, and a bound
    past it reads the one at its last entry.  The empirical first indices
    of all rows come from one binary search over the suffix maxima.
    """
    last = traj.horizon - (quantity == "res_step")
    suffix = _suffix_max(_series(traj, quantity))
    head = suffix.size - 1
    thresholds = 1.0 / np.arange(1, len(bounds) + 1)
    firsts = _first_quiet_indices(suffix, thresholds + SOUNDNESS_TOL).tolist()
    rows: List[SoundnessRow] = []
    for k, (bound, threshold, first) in enumerate(zip(bounds, thresholds.tolist(), firsts)):
        first = first if first >= 0 else None
        window = max_excess = passed = slack = None
        if bound <= last:
            window, max_excess = (bound, last), float(suffix[min(bound, head)] - threshold)
            passed = bool(max_excess <= SOUNDNESS_TOL)
            slack = float(bound) / max(1, first) if first is not None else None
        rows.append(SoundnessRow(k=k, bound=bound, window=window, max_excess=max_excess,
                                 passed=passed, empirical_first_index=first, slack_factor=slack))
    return SoundnessReport(quantity=quantity, rate_description=description,
                           horizon=traj.horizon, rows=rows)


@dataclass(frozen=True)
class LiminfCell(Row):
    k: int
    L: int
    bound: int
    witness: Optional[int]
    passed: Optional[bool]


@dataclass
class LiminfReport(RowReport):
    horizon: int
    cells: List[LiminfCell]

    @property
    def rows(self) -> List[LiminfCell]:
        return self.cells

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "quantity": "res_T",
            "all_passed": self.passed,
            "checked": self.checked,
            "failures": [{"k": c.k, "L": c.L, "bound": c.bound} for c in self.failures],
        }


def check_liminf_contract(traj: Trajectory, bounds: Sequence[Sequence[int]]) -> LiminfReport:
    """Grid check of the witness property: some index in [L, bounds[k][L]]
    has res_T strictly below 1/(k+1), where ``bounds`` holds a dip-window
    modulus's values, one row per k from 0 and one entry per L from 0.
    Cells whose window end exceeds the horizon are truncated.  A window
    reads its indices up to the last entry of the head of res_T, at index
    k, and from k on only entry k, which stands for every later one.

    Per k the indices below the threshold are found once, unless every
    cell of the row is truncated, and one binary search gives every window
    start its first such index at or after it; a cell's witness is that
    index when its window reaches it."""
    last, values = traj.horizon, traj.res_T
    head = values.size - 1
    cells: List[LiminfCell] = []
    for k, row in enumerate(bounds):
        first_hits = None  # a row of truncated cells reads no value
        for L, bound in enumerate(row):
            if bound > last:
                cells.append(LiminfCell(k, L, bound, None, None))
                continue
            if first_hits is None:
                hits = np.flatnonzero(values < 1.0 / (k + 1))
                # per L, the first hit at or after min(L, head), -1 when none
                starts = np.minimum(np.arange(len(row)), head)
                first_hits = np.append(hits, -1)[np.searchsorted(hits, starts)].tolist()
            hit = first_hits[L]
            witness = max(L, hit) if L <= bound and 0 <= hit <= bound else None
            cells.append(LiminfCell(k, L, bound, witness, witness is not None))
    return LiminfReport(horizon=traj.horizon, cells=cells)
