"""The per-step iteration loop that ``km_rates.engine.iterate`` replaced,
kept as the oracle of the differential tests: one schedule call per stream
and four norm calls per step, the final point handled after the loop."""

import math

import numpy as np

from km_rates.engine import DEFAULT_STORE_LIMIT, NumericAbort, Trajectory

_FIX_CLAMP = 1e-12


def reference_iterate(space, op, start, schedule, horizon,
                      store_limit=DEFAULT_STORE_LIMIT) -> Trajectory:
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

    res_T = np.empty(horizon + 1)
    dist_z = np.empty(horizon + 1)
    norm_x = np.empty(horizon + 1)
    K_z = np.empty(horizon + 1)
    res_step = np.empty(horizon)
    alpha = np.empty(horizon)
    beta = np.empty(horizon)
    r_norm = np.empty(horizon)
    store = horizon <= store_limit
    points = np.empty((horizon + 1, space.dim)) if store else None

    K = space.norm(x - z)
    if not math.isfinite(K) or not math.isfinite(space.norm(x)):
        raise NumericAbort(0)
    for n in range(horizon):
        tx = op(x)
        res_T[n] = space.norm(x - tx)
        dist_z[n] = space.norm(x - z)
        norm_x[n] = space.norm(x)
        K_z[n] = K
        if store:
            points[n] = x
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
    if store:
        points[horizon] = x
    if not math.isfinite(res_T[horizon]):
        raise NumericAbort(horizon)

    return Trajectory(
        horizon=horizon, res_T=res_T, res_step=res_step, K_z=K_z, dist_z=dist_z,
        norm_x=norm_x, alpha=alpha, beta=beta, r_norm=r_norm, points=points,
        space=space, operator=op, schedule=schedule, start=np.asarray(start, dtype=float),
        norm_z=norm_z, fix_residual=fix_residual,
    )
