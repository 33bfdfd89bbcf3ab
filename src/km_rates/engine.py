"""Runs the averaged iteration x_{n+1} = alpha_n*x_n + beta_n*T(x_n) + r_n,
records residual streams and audits the bookkeeping inequalities along the
trajectory.

Only the scalar streams are kept, never the points: the audit, the
soundness checks and ``trajectory.csv`` read nothing else.  A caller that
wants x_n takes it from the arguments of ``op.apply``, which sees the points
x_0 .. x_m once each, in order, after the fixed-point check, for some
m <= horizon; x_n = x_m for every n > m.  No point is written after ``apply``
has seen it, so a reference to it suffices.  The CSV is written in
bulk-formatted chunks of ``CSV_CHUNK`` rows.  The iteration is
deterministic: identical inputs give bit-identical trajectories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .certificates import InstanceConstants
from .operators import FIXED_POINT_TOL, Operator, Space
from .schedules import Schedule, stream_values

AUDIT_TOL = 1e-9
#: points per block of the step loop: enough that the per-block array calls
#: are a small share of the steps, few enough that the block's scratch rows
#: add little to peak memory
BLOCK = 256
#: rows of trajectory.csv formatted per write, so its buffers stay bounded
CSV_CHUNK = 4096
_CSV_ROW = "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"


class NumericAbort(RuntimeError):
    """Iteration produced a non-finite value."""

    def __init__(self, index: int):
        super().__init__(f"non-finite iterate at index {index}")
        self.index = index


@dataclass(frozen=True)
class Trajectory:
    """Streams indexed by iteration step.

    ``res_T[n] = ||x_n - T(x_n)||`` and ``dist_z``/``norm_x``/``K_z`` have
    ``horizon + 1`` entries; ``res_step[n] = ||x_{n+1} - x_n||`` and the
    recorded schedule streams have ``horizon`` entries.
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


def _coefficient_rows(values: np.ndarray, rows: tuple):
    """A block's coefficient rows, ``values`` broadcast to ``rows``: read-only
    zero-stride views, so that row k repeats entry k dim times without a
    copy and every product and sum of the update is array by array, the same
    IEEE operation as with a scalar but without numpy's promotion of one.

    When every row has the same bits, one row repeated; bits, not ``==``,
    because +0.0 == -0.0 and the two give points that differ in the sign of
    a zero.
    """
    full = np.broadcast_to(values, rows)
    bits = values.view(np.uint64)
    if (bits == bits[0]).all():
        return itertools.repeat(full[0])
    return full


def _perturbation_rows(schedule: Schedule, n0: int, n1: int, dim: int) -> np.ndarray:
    """r_n for n in [n0, n1) in one call, as floats of shape (m, dim), or
    (m, 1) for one coordinate that broadcasts; any other shape breaks the
    stream contract and raises ValueError."""
    m = n1 - n0
    r = np.asarray(schedule.perturbation(np.arange(n0, n1)), dtype=float)
    if r.shape not in ((m, dim), (m, 1)):
        raise ValueError(f"perturbation returned shape {r.shape} for {m} indices, "
                         f"not ({m}, {dim}) or ({m}, 1)")
    return r


def _settled(a_all: np.ndarray, b_all: np.ndarray, schedule: Schedule, dim: int) -> int:
    """The smallest s such that alpha_n, beta_n and the row r_n have the bits
    of alpha_H, beta_H and r_H for every n in [s, H], where ``a_all`` and
    ``b_all`` hold alpha and beta on [0, H]: from step s on, every step
    applies the same map.

    The perturbation is read backwards from H, ``BLOCK`` rows per call as in
    the step loop, and the walk stops at the first row that differs, or
    where alpha and beta already rule the earlier indices out.
    """
    h = a_all.size - 1
    settled = 0
    for values in (a_all, b_all):
        bits = values.view(np.uint64)
        differ = np.flatnonzero(bits != bits[h])
        if differ.size:
            settled = max(settled, int(differ[-1]) + 1)
    last = _perturbation_rows(schedule, h, h + 1, dim).view(np.uint64)[0]
    n1 = h
    while n1 > settled:
        n0 = max(settled, n1 - BLOCK)
        rows = _perturbation_rows(schedule, n0, n1, dim).view(np.uint64)
        differ = np.flatnonzero((rows != last).any(axis=1))
        if differ.size:
            return n0 + int(differ[-1]) + 1
        n1 = n0
    return settled


def iterate(space: Space, op: Operator, start, schedule: Schedule, horizon: int) -> Trajectory:
    """Materialize the trajectory up to ``horizon`` steps.

    Two phases: the schedule streams for the whole horizon are read in one
    call each, with ``K_z`` as one accumulate; then the steps run in blocks of
    ``BLOCK`` points, each step only applying the operator and writing the
    update into its row of the block's point array, and the norm streams of
    a block are taken as row norms after it.  Aborts with
    :class:`NumericAbort` at the first non-finite iterate.

    A block that ends on x_{k+1} with the bits of x_k ends the walk when
    k >= :func:`_settled` (found once, at the first such block): from k on
    the step map is one map and x_k is a bit-exact fixed point of it, so
    x_n = x_k for every n > k, and the norm streams past k repeat their
    value at k.  This needs ``op.apply`` to be a function of its
    argument's bits.
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
        a_all = stream_values(schedule.alpha, np.arange(horizon + 1))
        b_all = stream_values(schedule.beta, np.arange(horizon + 1))
        alpha, beta = a_all[:horizon], b_all[:horizon]
        r_norm = stream_values(schedule.perturbation_norm, np.arange(horizon))
        # K_{n+1} = ((K_n + beta_n*fr) + defect_n*||z||) + ||r_n||, summed in this order
        terms = np.empty(3 * horizon + 1)
        terms[0] = K0
        np.multiply(beta, fix_residual, out=terms[1::3])
        np.subtract(1.0, alpha, out=terms[2::3])
        terms[2::3] -= beta
        terms[2::3] *= norm_z
        terms[3::3] = r_norm
        K_z = np.add.accumulate(terms, out=terms)[::3].copy()
        del terms  # 3*horizon floats, not held through the block walk

        res_T = np.empty(horizon + 1)
        dist_z = np.empty(horizon + 1)
        norm_x = np.empty(horizon + 1)
        res_step = np.empty(horizon)
        apply, multiply, add = op.apply, np.multiply, np.add
        scratch = np.empty(space.dim)
        z_is_zero = not z.any()  # then x - z is x bit for bit, and dist_z is norm_x
        settled = None  # found at the first block that ends on a repeated point
        for n0 in range(0, horizon + 1, BLOCK):
            n1 = min(n0 + BLOCK, horizon + 1)
            m = n1 - n0
            r = _perturbation_rows(schedule, n0, n1, space.dim)
            rows = (m, space.dim)
            # x_n0 .. x_n1: row k + 1 is written once, by step k, from row k
            block_x = np.empty((m + 1, space.dim))
            block_x[0] = x
            txs = []
            for a, b, ri, row in zip(_coefficient_rows(a_all[n0:n1, None], rows),
                                     _coefficient_rows(b_all[n0:n1, None], rows),
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
            dist_z[n0:n1] = norm_x[n0:n1] if z_is_zero else space.norm(pts - z)
            res_step[n0:n0 + s] = space.norm(block_x[1:s + 1] - block_x[:s])
            bad = ~np.isfinite(res_T[n0:n1])
            bad[:s] |= ~np.isfinite(res_step[n0:n0 + s])
            if bad.any():
                raise NumericAbort(min(n0 + int(np.argmax(bad)) + 1, horizon))
            # x_n1 with the bits of x_k, k = n1 - 1, repeats for good from a
            # settled k on; the streams past k take their value at k
            k = n1 - 1
            if n1 <= horizon and np.array_equal(x.view(np.uint64), pts[-1].view(np.uint64)):
                if settled is None:
                    settled = _settled(a_all, b_all, schedule, space.dim)
                if k >= settled:
                    for stream in (res_T, norm_x, dist_z, res_step):
                        stream[n1:] = stream[k]
                    break

    return Trajectory(
        horizon=horizon, res_T=res_T, res_step=res_step, K_z=K_z, dist_z=dist_z,
        norm_x=norm_x, alpha=alpha, beta=beta, r_norm=r_norm, norm_z=norm_z,
        fix_residual=fix_residual,
    )


@dataclass(frozen=True)
class AuditViolation:
    index: int
    lhs: float
    rhs: float


@dataclass
class AuditCheck:
    checked: int
    max_excess: float
    violations: List[AuditViolation] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.violations)


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
                        for v in c.violations[:10]
                    ],
                }
                for name, c in self.checks.items()
            },
        }


def _collect(lhs: np.ndarray, rhs: np.ndarray) -> AuditCheck:
    excess = lhs - rhs
    bad = np.nonzero(~(excess <= AUDIT_TOL))[0]  # a NaN excess is a violation
    violations = [AuditViolation(int(i), float(lhs[i]), float(rhs[i])) for i in bad]
    return AuditCheck(checked=int(lhs.size),
                      max_excess=float(np.max(excess)) if lhs.size else 0.0,
                      violations=violations)


def audit_inequalities(traj: Trajectory, constants: InstanceConstants) -> AuditReport:
    """Check every bookkeeping inequality along the full trajectory.

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
    excess is NaN counts as a violation.
    """
    a = traj.alpha
    b = traj.beta
    rn = traj.r_norm
    dist = traj.dist_z
    normx = traj.norm_x
    res_T = traj.res_T
    res_step = traj.res_step
    K = traj.K_z
    nz = traj.norm_z
    fr = traj.fix_residual

    with np.errstate(over="ignore", invalid="ignore"):
        defect = 1.0 - a - b
        chain = np.minimum(2.0 * dist, 2.0 * K)
        sums = dist[0] + constants.defect_sum_bound * nz + constants.perturbation_sum_bound
        checks = {
            "step_to_anchor": _collect(dist[1:],
                                       (a + b) * dist[:-1] + b * fr + defect * nz + rn),
            "anchor_bound": _collect(dist, K),
            "step_by_anchor": _collect(res_step, 2.0 * K[1:]),
            "residual_by_dist": _collect(res_T, 2.0 * dist + fr),
            "residual_chain": _collect(res_T, chain),
            "step_decomposition": _collect(res_step,
                                           b * res_T[:-1] + defect * normx[:-1] + rn),
            "residual_increment": _collect(
                res_T[1:], res_T[:-1] + 2.0 * defect * normx[:-1] + 2.0 * rn),
            "dist_bound": _collect(dist, np.full_like(dist, float(constants.dist_bound))),
            "norm_bound": _collect(normx, np.full_like(normx, float(constants.norm_bound))),
            "dist_by_sums": _collect(dist, np.full_like(dist, sums)),
        }
    return AuditReport(horizon=traj.horizon, checks=checks)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns n, res_T, res_step, K_zn, norm_xn, dist_xz; '.' decimals, 17
    significant digits; the final row has no step entry.

    Rows are formatted ``CSV_CHUNK`` at a time by one ``%`` over the chunk;
    ``%.17g`` and ``format(v, ".17g")`` are the same conversion, so the bytes
    are those of a per-value ``format``.
    """
    h = traj.horizon
    columns = (traj.res_T, traj.res_step, traj.K_z, traj.norm_x, traj.dist_z)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("n,res_T,res_step,K_zn,norm_xn,dist_xz\n")
        for n0 in range(0, h, CSV_CHUNK):
            n1 = min(n0 + CSV_CHUNK, h)
            rows = np.column_stack([np.arange(n0, n1)] + [c[n0:n1] for c in columns])
            handle.write(_CSV_ROW * (n1 - n0) % tuple(rows.ravel().tolist()))
        handle.write("%d,%.17g,,%.17g,%.17g,%.17g\n"
                     % (h, traj.res_T[h], traj.K_z[h], traj.norm_x[h], traj.dist_z[h]))
