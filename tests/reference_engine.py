"""The per-step iteration loop that ``km_rates.engine.iterate`` replaced,
kept as the oracle of the differential tests: one schedule call per stream
and four norm calls per step, the final point handled after the loop.  Also
the per-row trajectory CSV writer that ``write_trajectory_csv`` replaced."""

import math

import numpy as np

from km_rates.engine import NumericAbort, Trajectory
from km_rates.operators import FIXED_POINT_TOL


def reference_iterate(space, op, start, schedule, horizon) -> Trajectory:
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

    res_T = np.empty(horizon + 1)
    dist_z = np.empty(horizon + 1)
    norm_x = np.empty(horizon + 1)
    K_z = np.empty(horizon + 1)
    res_step = np.empty(horizon)
    alpha = np.empty(horizon)
    beta = np.empty(horizon)
    r_norm = np.empty(horizon)

    K = space.norm(x - z)
    if not math.isfinite(K) or not math.isfinite(space.norm(x)):
        raise NumericAbort(0)
    for n in range(horizon):
        tx = op(x)
        res_T[n] = space.norm(x - tx)
        dist_z[n] = space.norm(x - z)
        norm_x[n] = space.norm(x)
        K_z[n] = K
        a = schedule.alpha(n)
        b = schedule.beta(n)
        r = schedule.perturbation(n)
        alpha[n] = a
        beta[n] = b
        rn = schedule.perturbation_norm(n)
        r_norm[n] = rn
        x_next = a * x + b * tx + r
        res_step[n] = space.norm(x_next - x)
        if not math.isfinite(res_step[n]) or not math.isfinite(res_T[n]):
            raise NumericAbort(n + 1)
        K = K + b * fix_residual + (1.0 - a - b) * norm_z + rn
        x = x_next
    tx = op(x)
    res_T[horizon] = space.norm(x - tx)
    dist_z[horizon] = space.norm(x - z)
    norm_x[horizon] = space.norm(x)
    K_z[horizon] = K
    if not math.isfinite(res_T[horizon]):
        raise NumericAbort(horizon)

    return Trajectory(
        horizon=horizon, res_T=res_T, res_step=res_step, K_z=K_z, dist_z=dist_z,
        norm_x=norm_x, alpha=alpha, beta=beta, r_norm=r_norm, norm_z=norm_z,
        fix_residual=fix_residual,
    )


def reference_write_trajectory_csv(traj: Trajectory, path) -> None:
    """One ``format(float(v), ".17g")`` per value, one write per row."""
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
