"""Runs the averaged iteration x_{n+1} = alpha_n*x_n + beta_n*T(x_n) + r_n,
records residual streams and audits the bookkeeping inequalities along the
trajectory.

Storage policy: full point storage up to ``store_limit`` points (default
1e5); longer runs keep only the scalar streams, and the audit then covers
exactly those streamed quantities (all audited inequalities are expressible
through them).  The iteration itself is deterministic: identical inputs give
bit-identical trajectories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional

import numpy as np

from .certificates import InstanceConstants
from .moduli import stream_values
from .operators import Operator, Space
from .schedules import Schedule

AUDIT_TOL = 1e-9
_FIX_CLAMP = 1e-12
DEFAULT_STORE_LIMIT = 100_000
#: points per block of the step loop: enough that the per-block array calls
#: are a small share of the steps, few enough that the block's scratch rows
#: add little to peak memory next to stored points
BLOCK = 256


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
    recorded schedule streams have ``horizon`` entries.  ``points`` is None
    when the run exceeded the storage limit.
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
    points: Optional[np.ndarray]
    space: Space
    operator: Operator
    schedule: Schedule
    start: np.ndarray
    norm_z: float
    fix_residual: float  # ||T(z) - z||, clamped to 0 below 1e-12

    @property
    def streamed(self) -> bool:
        return self.points is None


def iterate(space: Space, op: Operator, start, schedule: Schedule, horizon: int,
            store_limit: int = DEFAULT_STORE_LIMIT) -> Trajectory:
    """Materialize the trajectory up to ``horizon`` steps.

    Two phases: the schedule streams for the whole horizon are read in one
    call each, with ``K_z`` as one accumulate; then the steps run in blocks of
    ``BLOCK`` points, each step only applying the operator and the update, and
    the norm streams of a block are taken as row norms after it.  Aborts with
    :class:`NumericAbort` at the first non-finite iterate.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1, got {horizon}")
    x = np.asarray(start, dtype=float).copy()
    if x.shape != (space.dim,):
        raise ValueError(f"start point must have shape ({space.dim},)")
    z = op.fixed_point
    norm_z = space.norm(z)
    fix_residual = space.norm(op(z) - z)
    if fix_residual < _FIX_CLAMP:
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
        store = horizon <= store_limit
        points = np.empty((horizon + 1, space.dim)) if store else None
        block_x = np.empty((BLOCK + 1, space.dim))  # x_n0 .. x_n1, the last one carried on
        block_tx = np.empty((BLOCK, space.dim))
        for n0 in range(0, horizon + 1, BLOCK):
            n1 = min(n0 + BLOCK, horizon + 1)
            m = n1 - n0
            r = np.asarray(schedule.perturbation(np.arange(n0, n1)), dtype=float)
            if r.shape not in ((m, space.dim), (m, 1)):
                raise ValueError(f"perturbation returned shape {r.shape} for {m} indices, "
                                 f"not ({m}, {space.dim}) or ({m}, 1)")
            for i, (a, b, ri) in enumerate(zip(a_all[n0:n1].tolist(),
                                               b_all[n0:n1].tolist(), r)):
                tx = op(x)
                block_x[i] = x
                block_tx[i] = tx
                x = a * x + b * tx + ri
            block_x[m] = x
            pts = block_x[:m]
            s = min(n1, horizon) - n0  # steps of this block inside the horizon
            res_T[n0:n1] = space.norm(pts - block_tx[:m])
            dist_z[n0:n1] = space.norm(pts - z)
            norm_x[n0:n1] = space.norm(pts)
            res_step[n0:n0 + s] = space.norm(block_x[1:s + 1] - block_x[:s])
            if store:
                points[n0:n1] = pts
            bad = ~np.isfinite(res_T[n0:n1])
            bad[:s] |= ~np.isfinite(res_step[n0:n0 + s])
            if bad.any():
                raise NumericAbort(min(n0 + int(np.argmax(bad)) + 1, horizon))

    return Trajectory(
        horizon=horizon, res_T=res_T, res_step=res_step, K_z=K_z, dist_z=dist_z,
        norm_x=norm_x, alpha=alpha, beta=beta, r_norm=r_norm, points=points,
        space=space, operator=op, schedule=schedule, start=np.asarray(start, dtype=float),
        norm_z=norm_z, fix_residual=fix_residual,
    )


@dataclass(frozen=True)
class AuditViolation:
    check: str
    index: int
    lhs: float
    rhs: float

    @property
    def excess(self) -> float:
        return self.lhs - self.rhs


@dataclass
class AuditCheck:
    name: str
    checked: int
    max_excess: float
    violations: List[AuditViolation] = field(default_factory=list)

    @property
    def count(self) -> int:
        return len(self.violations)


@dataclass
class AuditReport:
    horizon: int
    tol: float
    checks: dict  # name -> AuditCheck

    @property
    def total_violations(self) -> int:
        return sum(c.count for c in self.checks.values())

    @property
    def passed(self) -> bool:
        return self.total_violations == 0

    def violations_for(self, name: str) -> List[AuditViolation]:
        return self.checks[name].violations

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "tol": self.tol,
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


def _collect(name: str, lhs: np.ndarray, rhs: np.ndarray, tol: float,
             offset: int = 0) -> AuditCheck:
    excess = lhs - rhs
    bad = np.nonzero(excess > tol)[0]
    violations = [
        AuditViolation(name, int(i) + offset, float(lhs[i]), float(rhs[i]))
        for i in bad
    ]
    return AuditCheck(name=name, checked=int(lhs.size),
                      max_excess=float(np.max(excess)) if lhs.size else 0.0,
                      violations=violations)


def audit_inequalities(traj: Trajectory, constants: InstanceConstants,
                       tol: float = AUDIT_TOL) -> AuditReport:
    """Check every bookkeeping inequality along the full trajectory.

    Checked, each to the given absolute tolerance, writing findings into the
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
    """
    a = traj.alpha
    b = traj.beta
    defect = 1.0 - a - b
    rn = traj.r_norm
    dist = traj.dist_z
    normx = traj.norm_x
    res_T = traj.res_T
    res_step = traj.res_step
    K = traj.K_z
    nz = traj.norm_z
    fr = traj.fix_residual

    checks = {}
    checks["step_to_anchor"] = _collect(
        "step_to_anchor", dist[1:], (a + b) * dist[:-1] + b * fr + defect * nz + rn, tol)
    checks["anchor_bound"] = _collect("anchor_bound", dist, K, tol)
    checks["step_by_anchor"] = _collect("step_by_anchor", res_step, 2.0 * K[1:], tol)
    checks["residual_by_dist"] = _collect(
        "residual_by_dist", res_T, 2.0 * dist + fr, tol)
    chain = np.minimum(2.0 * dist, 2.0 * K)
    checks["residual_chain"] = _collect("residual_chain", res_T, chain, tol)
    checks["step_decomposition"] = _collect(
        "step_decomposition", res_step, b * res_T[:-1] + defect * normx[:-1] + rn, tol)
    checks["residual_increment"] = _collect(
        "residual_increment", res_T[1:], res_T[:-1] + 2.0 * defect * normx[:-1] + 2.0 * rn,
        tol)
    checks["dist_bound"] = _collect(
        "dist_bound", dist, np.full_like(dist, float(constants.dist_bound)), tol)
    checks["norm_bound"] = _collect(
        "norm_bound", normx, np.full_like(normx, float(constants.norm_bound)), tol)
    checks["dist_by_sums"] = _collect(
        "dist_by_sums", dist,
        np.full_like(dist, dist[0] + constants.defect_sum_bound * nz
                     + constants.perturbation_sum_bound), tol)
    return AuditReport(horizon=traj.horizon, tol=tol, checks=checks)


def corrupt_point(traj: Trajectory, index: int, magnitude: float = 1.0) -> Trajectory:
    """Negative-control helper: push x_index radially away from the fixed point
    by ``magnitude`` and recompute the streams that depend on it.

    Needs stored points.
    """
    if traj.points is None:
        raise ValueError("corruption needs a stored-points trajectory")
    if not 0 <= index <= traj.horizon:
        raise ValueError(f"index {index} outside [0, {traj.horizon}]")
    points = traj.points.copy()
    z = traj.operator.fixed_point
    d = points[index] - z
    nd = traj.space.norm(d)
    direction = d / nd if nd > 0 else np.eye(traj.space.dim)[0]
    points[index] = points[index] + magnitude * direction
    x = points[index]
    res_T = traj.res_T.copy()
    dist = traj.dist_z.copy()
    normx = traj.norm_x.copy()
    res_step = traj.res_step.copy()
    res_T[index] = traj.space.norm(x - traj.operator(x))
    dist[index] = traj.space.norm(x - z)
    normx[index] = traj.space.norm(x)
    if index > 0:
        res_step[index - 1] = traj.space.norm(x - points[index - 1])
    if index < traj.horizon:
        res_step[index] = traj.space.norm(points[index + 1] - x)
    return replace(traj, points=points, res_T=res_T, dist_z=dist, norm_x=normx,
                   res_step=res_step)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns n, res_T, res_step, K_zn, norm_xn, dist_xz; '.' decimals, 17
    significant digits; the final row has no step entry."""
    def fmt(v: float) -> str:
        return format(float(v), ".17g")

    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("n,res_T,res_step,K_zn,norm_xn,dist_xz\n")
        for n in range(traj.horizon + 1):
            step = fmt(traj.res_step[n]) if n < traj.horizon else ""
            handle.write(
                f"{n},{fmt(traj.res_T[n])},{step},{fmt(traj.K_z[n])},"
                f"{fmt(traj.norm_x[n])},{fmt(traj.dist_z[n])}\n"
            )
