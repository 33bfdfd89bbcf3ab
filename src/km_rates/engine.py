"""Runs the averaged iteration x_{n+1} = alpha_n*x_n + beta_n*T(x_n) + r_n,
records residual streams and audits the bookkeeping inequalities along the
trajectory.

Only the scalar streams are kept, never the points: the audit, the
soundness checks and ``trajectory.csv`` read nothing else.  A caller that
wants x_n takes it from the arguments of ``op.apply``, which sees the points
x_0 .. x_m once each, in order, after the fixed-point check, for some
m <= horizon; x_n = x_m for every n > m.  No point is written after ``apply``
has seen it, so a reference to it suffices.  The CSV rows are turned into
bytes ``CSV_BATCH`` at a time by the numpy kernel of :mod:`km_rates.g17`,
which writes the digits of ``%.17g`` from an exact double-double product
and takes ``"%.17g" % x`` for a value whose rounding it cannot prove.  The
iteration is deterministic: identical inputs give bit-identical
trajectories.

A run holds its streams and no other array of the horizon: each stream as
its head (see :func:`~km_rates.schedules.held`, which reads entries past a
head as a zero-stride view), ``dist_z`` as the array of ``norm_x`` when the
fixed point is zero, and every pass over them (the ``K_z`` accumulation,
the audit's checks and the CSV rows) folds over chunks of ``CSV_CHUNK`` or
``CSV_BATCH`` rows.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .certificates import InstanceConstants
from .g17 import CSV_BATCH, csv_rows
from .operators import FIXED_POINT_TOL, Operator, Space
from .schedules import CSV_CHUNK, Schedule, Window, held, read, settled_from

AUDIT_TOL = 1e-9
#: points per block of the step loop: enough that the per-block array calls
#: are a small share of the steps, few enough that the block's scratch rows
#: add little to peak memory
BLOCK = 256
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"


class NumericAbort(RuntimeError):
    """Iteration produced a non-finite value."""

    def __init__(self, index: int):
        super().__init__(f"non-finite iterate at index {index}")
        self.index = index


@dataclass(frozen=True)
class Trajectory:
    """Streams indexed by iteration step, each held as its head.

    ``res_T[n] = ||x_n - T(x_n)||`` and ``dist_z``/``norm_x``/``K_z`` run on
    [0, horizon]; ``res_step[n] = ||x_{n+1} - x_n||`` and the recorded
    schedule streams, the heads of the run's ``Window``, on [0, horizon).
    Each array holds a head of its stream, a prefix after which every entry
    repeats its last one bit for bit: entry n is the head's entry
    min(n, len - 1) (see :func:`~km_rates.schedules.held`).
    """

    horizon: int
    res_T: np.ndarray
    res_step: np.ndarray
    K_z: np.ndarray
    dist_z: np.ndarray
    norm_x: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    r_norm: np.ndarray
    norm_z: float
    fix_residual: float  # ||T(z) - z||, clamped to 0 below FIXED_POINT_TOL

    @property
    def last_read(self) -> int:
        """The last index a check reads: the last index any head holds, as
        every later entry repeats the entry there, or ``horizon``."""
        heads = (v for v in vars(self).values() if isinstance(v, np.ndarray))
        return min(max(v.size for v in heads) - 1, self.horizon)

    @property
    def settled(self) -> Optional[int]:
        """The index k < ``horizon`` past which no stream changes, read off
        the heads: :attr:`last_read` when it is below the horizon, else None.
        A check of a row past k is the check of row k."""
        k = self.last_read
        return k if k < self.horizon else None


def _coefficient_rows(values: np.ndarray, rows: tuple):
    """A block's coefficient rows, ``values`` broadcast to ``rows``: read-only
    zero-stride views, so that row k repeats entry k dim times without a
    copy and every product and sum of the update is array by array, the same
    IEEE operation as with a scalar but without numpy's promotion of one.
    A zero-stride ``values``, as past a head, gives one row repeated."""
    full = np.broadcast_to(values, rows)
    return itertools.repeat(full[0]) if values.strides[0] == 0 else full


def _perturbation_rows(schedule: Schedule, n0: int, n1: int, dim: int) -> np.ndarray:
    """r_n for n in [n0, n1), as floats of shape (m, dim), or (m, 1) for one
    coordinate that broadcasts, through :func:`~km_rates.schedules.read`.
    Any other shape breaks the stream contract and raises ValueError."""
    m = n1 - n0
    r = read(schedule.perturbation, n0, n1)
    if r.shape not in ((m, dim), (m, 1)):
        raise ValueError(f"perturbation returned shape {r.shape} for {m} indices, "
                         f"not ({m}, {dim}) or ({m}, 1)")
    return r


def _anchor_bounds(K0: float, heads: tuple, norm_z: float, fix_residual: float,
                   head: int) -> np.ndarray:
    """K_0 .. K_head of K_{m+1} = ((K_m + beta_m*fr) + defect_m*||z||) +
    ||r_m||, summed in this order, for the increments m < head of alpha,
    beta and ||r_n||, whose ``heads`` these are.

    ``CSV_CHUNK`` increments at a time, each chunk's alpha, beta and ||r_n||
    read through :func:`~km_rates.schedules.held` and summed in one
    sequential accumulate that starts from the carried K_m, so the sums are
    those of one accumulate over all 3*head + 1 terms without a buffer of
    that size.
    """
    K_z = np.empty(head + 1)
    K_z[0] = K0
    terms = np.empty(3 * min(head, CSV_CHUNK) + 1)
    for m0 in range(0, head, CSV_CHUNK):
        m1 = min(m0 + CSV_CHUNK, head)
        alpha, beta, r_norm = (held(v, m0, m1) for v in heads)
        t = terms[:3 * (m1 - m0) + 1]
        t[0] = K_z[m0]
        np.multiply(beta, fix_residual, out=t[1::3])
        np.subtract(1.0, alpha, out=t[2::3])
        t[2::3] -= beta
        t[2::3] *= norm_z
        t[3::3] = r_norm
        K_z[m0 + 1:m1 + 1] = np.add.accumulate(t, out=t)[3::3]
    return K_z


def iterate(space: Space, op: Operator, start, schedule: Schedule, horizon: int) -> Trajectory:
    """Materialize the trajectory up to ``horizon`` steps.

    Alpha, beta and ||r_n|| on [0, horizon] are those of the schedule's
    window, :meth:`~km_rates.schedules.Window.read` on it.  The steps run in
    blocks of ``BLOCK`` points, each step only applying the operator and
    writing the update into its row of the block's point array, and the norm
    streams of a block are taken as row norms after it.  Aborts with
    :class:`NumericAbort` at the first non-finite iterate.  ``K_z`` is
    accumulated after the walk.

    A block that ends on x_{k+1} with the bits of x_k ends the walk when
    k < horizon is at least the larger of the window's settled index and
    the perturbation's declared one (:func:`~km_rates.schedules.settled_from`):
    from k on the step map is one map and x_k is a bit-exact fixed point of
    it, so x_n = x_k for every n > k, and the four norm streams are cut at
    k.  This needs ``op.apply`` to be a function of its argument's bits.
    Alpha, beta and ||r_n|| at k are the last entries of the window's
    heads, which the trajectory keeps and the blocks read through
    :func:`~km_rates.schedules.held`.  When the three increments of ``K_z``
    there are 0 (-0.0 too, as K + -0.0 is K), ``K_z`` is accumulated up to
    k only, and the trajectory is ``settled`` at k; otherwise ``K_z`` runs
    to the horizon.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    x = np.asarray(start, dtype=float).copy()
    if x.shape != (space.dim,):
        raise ValueError(f"start point must have shape ({space.dim},)")
    z = op.fixed_point
    norm_z = space.norm(z)
    fix_residual = space.norm(op(z) - z)
    if fix_residual < FIXED_POINT_TOL:
        fix_residual = 0.0
    K0 = space.norm(x - z)
    if not math.isfinite(K0) or not math.isfinite(space.norm(x)):
        raise NumericAbort(0)

    # overflow gives inf or NaN, never a warning; a non-finite norm aborts below
    with np.errstate(over="ignore", invalid="ignore"):
        # one step past the horizon, so that every point x_0..x_horizon is
        # reached by the same step body; x_{horizon+1} is dropped
        window = Window.read(schedule, horizon)
        heads = window.alpha, window.beta, window.r_norm
        z_is_zero = not z.any()  # then x - z is x bit for bit, and dist_z is norm_x
        res_T = np.empty(horizon + 1)
        norm_x = np.empty(horizon + 1)
        dist_z = norm_x if z_is_zero else np.empty(horizon + 1)
        res_step = np.empty(horizon)
        apply, multiply, add = op.apply, np.multiply, np.add
        scratch = np.empty(space.dim)
        # from step ``steady`` on, every step applies the same map
        steady = max(window.settled, settled_from(schedule.perturbation, horizon))
        stop = None  # the k whose point x_k ends the walk
        for n0 in range(0, horizon + 1, BLOCK):
            n1 = min(n0 + BLOCK, horizon + 1)
            m = n1 - n0
            a_rows, b_rows = held(window.alpha, n0, n1), held(window.beta, n0, n1)
            r = _perturbation_rows(schedule, n0, n1, space.dim)
            rows = (m, space.dim)
            # x_n0 .. x_n1: row k + 1 is written once, by step k, from row k
            block_x = np.empty((m + 1, space.dim))
            block_x[0] = x
            txs = []
            for a, b, ri, row in zip(_coefficient_rows(a_rows[:, None], rows),
                                     _coefficient_rows(b_rows[:, None], rows),
                                     _coefficient_rows(r, rows), block_x[1:]):
                tx = apply(x)
                txs.append(tx)
                # a*x + b*tx + ri in that order, the same IEEE operations as
                # the expression; no point apply has seen is written again
                multiply(a, x, row)
                multiply(b, tx, scratch)
                add(row, scratch, row)
                add(row, ri, row)
                x = row  # after the block, x_n1 is carried into the next one
            pts = block_x[:m]
            s = min(n1, horizon) - n0  # steps of this block inside the horizon
            res_T[n0:n1] = space.norm(pts - np.concatenate(txs).reshape(rows))
            norm_x[n0:n1] = space.norm(pts)
            if not z_is_zero:
                dist_z[n0:n1] = space.norm(pts - z)
            res_step[n0:n0 + s] = space.norm(block_x[1:s + 1] - block_x[:s])
            bad = ~np.isfinite(res_T[n0:n1])
            bad[:s] |= ~np.isfinite(res_step[n0:n0 + s])
            if bad.any():
                raise NumericAbort(min(n0 + int(np.argmax(bad)) + 1, horizon))
            # x_n1 with the bits of x_k, k = n1 - 1, repeats for good from a
            # settled k on; the streams past k repeat their entry at k
            k = n1 - 1
            if steady <= k < horizon and np.array_equal(x.view(np.uint64), pts[-1].view(np.uint64)):
                stop = k
                break

        # past the walk's end k every norm stream repeats its entry at k, and
        # alpha, beta and ||r_n|| keep their bits, so every later increment
        # of K_z is the one at k
        head = horizon
        if stop is not None:  # the heads [0, k] only, which lets the whole arrays go
            res_T, norm_x, res_step = (v[:stop + 1].copy() for v in (res_T, norm_x, res_step))
            dist_z = norm_x if z_is_zero else dist_z[:stop + 1].copy()
            a, b, rn = (v[-1] for v in heads)
            if b * fix_residual == 0.0 and ((1.0 - a) - b) * norm_z == 0.0 and rn == 0.0:
                head = stop
        K_z = _anchor_bounds(K0, heads, norm_z, fix_residual, head)
    return Trajectory(
        horizon=horizon, res_T=res_T, res_step=res_step, K_z=K_z, dist_z=dist_z,
        norm_x=norm_x, alpha=window.alpha, beta=window.beta, r_norm=window.r_norm,
        norm_z=norm_z, fix_residual=fix_residual,
    )


@dataclass(frozen=True)
class AuditViolation:
    index: int
    lhs: float
    rhs: float


@dataclass
class AuditCheck:
    """``count`` of the ``checked`` rows break the inequality;
    ``first_violations`` holds the first ten of them in index order."""

    checked: int
    count: int
    max_excess: float
    first_violations: List[AuditViolation]


@dataclass
class AuditReport:
    horizon: int
    checks: dict  # name -> AuditCheck

    @property
    def total_violations(self) -> int:
        return sum(c.count for c in self.checks.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "tol": AUDIT_TOL,
            "passed": self.passed,
            "total_violations": self.total_violations,
            "checks": {
                name: {
                    "checked": c.checked,
                    "violations": c.count,
                    "max_excess": c.max_excess,
                    "first_violations": [
                        {"index": v.index, "lhs": v.lhs, "rhs": v.rhs}
                        for v in c.first_violations
                    ],
                }
                for name, c in self.checks.items()
            },
        }


class _Fold:
    """``lhs <= rhs`` folded over chunks of consecutive rows: the count of
    the rows that break it, the first ten of them, the excess maxima of the
    chunks, and the last row read when it breaks the inequality."""

    __slots__ = ("rows", "count", "first", "maxima", "last")

    def __init__(self):
        self.rows = self.count = 0
        self.first: List[AuditViolation] = []
        self.maxima: list = []
        self.last = None

    def add(self, lhs: np.ndarray, rhs) -> None:
        """The next ``len(lhs)`` rows; a scalar ``rhs`` bounds each."""
        excess = lhs - rhs
        ok = excess <= AUDIT_TOL  # a NaN excess is a violation
        self.maxima.append(excess.max())
        bad = lhs.size - int(np.count_nonzero(ok))
        self.last = None
        if bad:
            self.count += bad
            rhs = np.broadcast_to(rhs, lhs.shape)
            if len(self.first) < 10:
                self.first += [AuditViolation(self.rows + i, float(lhs[i]), float(rhs[i]))
                               for i in np.flatnonzero(~ok)[:10 - len(self.first)].tolist()]
            if not ok[-1]:
                self.last = float(lhs[-1]), float(rhs[-1])
        self.rows += lhs.size

    def close(self, tail: int) -> AuditCheck:
        """The check of the rows read and ``tail`` rows after them, each of
        which is the last row read again: they count when it fails."""
        count, first = self.count, self.first
        if self.last is not None:
            count += tail
            first = first + [AuditViolation(i, *self.last)
                             for i in range(self.rows, min(self.rows + tail,
                                                           self.rows + 10 - len(first)))]
        # np.max propagates a NaN of any chunk, as it would over every row
        return AuditCheck(checked=self.rows + tail, count=count,
                          max_excess=float(np.max(self.maxima)), first_violations=first)


def _as_double(bound: int) -> float:
    """An integer bound as a double, +inf past the double range."""
    try:
        return float(bound)
    except OverflowError:
        return math.inf


def audit_inequalities(traj: Trajectory, constants: InstanceConstants) -> AuditReport:
    """Check every bookkeeping inequality along the full trajectory.

    On a trajectory ``settled`` at k every row past k is row k again, so
    each check reads the streams up to index k + 1, index k + 1 as k, and
    counts the rows past them with the last row it read: the report is that
    of every row.  The rows are read ``CSV_CHUNK`` at a time, through
    :func:`~km_rates.schedules.held`, and each check is folded over the
    chunks (:class:`_Fold`), so no temporary holds more than a chunk of
    rows; a violation keeps its index in the whole run, and the largest
    excess is NaN when any row's is, as ``np.max`` over every row gives.

    Checked, each to the absolute tolerance AUDIT_TOL, writing findings into the
    report (nothing raises):

    * step_to_anchor: ||x_{n+1}-z|| against the one-step anchor recursion
    * anchor_bound:   ||x_n-z|| <= K_z[n]
    * step_by_anchor: ||x_{n+1}-x_n|| <= 2*K_z[n+1]
    * residual_by_dist: ||x_n-Tx_n|| <= 2||x_n-z|| + ||z-Tz||
    * residual_chain: ||x_n-Tx_n|| <= 2||x_n-z|| <= 2K_z[n]  (fixed z)
    * step_decomposition: ||x_{n+1}-x_n|| <= beta_n*||x_n-Tx_n||
                          + defect_n*||x_n|| + ||r_n||
    * residual_increment: ||x_{n+1}-Tx_{n+1}|| <= ||x_n-Tx_n||
                          + 2*defect_n*||x_n|| + 2*||r_n||
    * dist_bound / norm_bound: ||x_n-z|| <= dist_bound, ||x_n|| <= norm_bound
    * dist_by_sums: ||x_n-z|| <= ||x_0-z|| + defect_sum_bound*||z||
                    + perturbation_sum_bound

    Overflow and inf - inf give inf or NaN without a warning; a row whose
    excess is NaN counts as a violation.  An integer bound past the double
    range acts as +inf.
    """
    h = traj.horizon
    end = min(traj.last_read + 1, h)
    nz = traj.norm_z
    fr = traj.fix_residual
    folds = collections.defaultdict(_Fold)

    with np.errstate(over="ignore", invalid="ignore"):
        # a defect bound past the double range times ||z|| = 0 is still 0
        defect_sum = _as_double(constants.defect_sum_bound) * nz if nz else 0.0
        sums = traj.dist_z[0] + defect_sum + _as_double(constants.perturbation_sum_bound)
        dist_bound, norm_bound = (_as_double(constants.dist_bound),
                                  _as_double(constants.norm_bound))
        for n0 in range(0, end, CSV_CHUNK):
            # rows n of [n0, n1) of the step checks, which read the point
            # streams at n + 1, and of the point checks, which the last
            # chunk extends to row ``end``
            n1 = min(n0 + CSV_CHUNK, end)
            p = n1 - n0 + (n1 == end)
            a, b, rn, res_step = (held(s, n0, n1) for s in (traj.alpha, traj.beta, traj.r_norm,
                                                            traj.res_step))
            dist, normx, res_T, K = (held(s, n0, n1 + 1) for s in (traj.dist_z, traj.norm_x,
                                                                   traj.res_T, traj.K_z))
            defect = 1.0 - a - b
            rows = {
                "step_to_anchor": (dist[1:],
                                   (a + b) * dist[:-1] + b * fr + defect * nz + rn),
                "anchor_bound": (dist[:p], K[:p]),
                "step_by_anchor": (res_step, 2.0 * K[1:]),
                "residual_by_dist": (res_T[:p], 2.0 * dist[:p] + fr),
                "residual_chain": (res_T[:p], np.minimum(2.0 * dist[:p], 2.0 * K[:p])),
                "step_decomposition": (res_step, b * res_T[:-1] + defect * normx[:-1] + rn),
                "residual_increment": (res_T[1:],
                                       res_T[:-1] + 2.0 * defect * normx[:-1] + 2.0 * rn),
                "dist_bound": (dist[:p], dist_bound),
                "norm_bound": (normx[:p], norm_bound),
                "dist_by_sums": (dist[:p], sums),
            }
            for name, (lhs, rhs) in rows.items():
                folds[name].add(lhs, rhs)
    return AuditReport(horizon=h, checks={name: fold.close(h - end)
                                          for name, fold in folds.items()})


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns n, res_T, res_step, K_zn, norm_xn, dist_xz; '.' decimals, 17
    significant digits; the final row has no step entry.

    Rows are turned into bytes ``CSV_BATCH`` at a time by
    :func:`~km_rates.g17.csv_rows`,
    whose fields are the bytes of ``"%.17g" % v``, and so of a per-value
    ``format(v, ".17g")``; each column is read through
    :func:`~km_rates.schedules.held`.  On a trajectory ``settled`` at k the
    rows past k repeat the heads' last entries, formatted once; each of
    those rows formats only its index.  The final row is those entries too.
    """
    h, k = traj.horizon, traj.last_read
    columns = (traj.res_T, traj.res_step, traj.K_z, traj.norm_x, traj.dist_z)
    with open(path, "wb") as handle:
        handle.write(b"n,res_T,res_step,K_zn,norm_xn,dist_xz\n")
        head = min(k + 1, h)
        values = np.empty((min(head, CSV_BATCH), 5))
        for n0 in range(0, head, CSV_BATCH):
            n1 = min(n0 + CSV_BATCH, head)
            block = values[:n1 - n0]
            for j, column in enumerate(columns):
                block[:, j] = held(column, n0, n1)
            handle.write(csv_rows(n0, block))
        if k + 1 < h:
            row = "%d" + _CSV_ROW[2:] % tuple(float(c[-1]) for c in columns)
            for n0 in range(k + 1, h, CSV_CHUNK):
                n1 = min(n0 + CSV_CHUNK, h)
                handle.write((row * (n1 - n0) % tuple(range(n0, n1))).encode())
        handle.write(b"%d,%.17g,,%.17g,%.17g,%.17g\n"
                     % (h, traj.res_T[-1], traj.K_z[-1], traj.norm_x[-1], traj.dist_z[-1]))
