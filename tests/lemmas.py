"""Test oracles and negative controls for the moduli lemmas, the operator
catalog and the audit: the sampled convexity-transfer and nonexpansiveness
checks, the factorization self-check of a convexity modulus, the shifted
inverse-square modulus with its sharp sum bound, the summands of a schedule's
coupling series, the points of a run as its operator sees them, and a point
corruption that the audit must catch.  The library runs none of them; the
tests hold its objects against them."""

from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

from km_rates.moduli import (
    CHECK_TOL,
    PreconditionViolation,
    RateFn,
    RateKind,
    UcModulus,
    ceil_int,
)
from km_rates.operators import NONEXPANSIVE_TOL, Operator, Space
from reference_engine import reference_iterate

#: Tolerance for the eta(eps) = eps * eta_tilde(eps) factorization check.
FACTOR_TOL = 1e-12


def uc_self_check(uc: UcModulus, eps_grid: Optional[Sequence[float]] = None) -> List[str]:
    """Sampled invariant check of a convexity modulus: values in (0, 1], the
    factorization and a nondecreasing eta_tilde; returns human-readable
    violations."""
    if eps_grid is None:
        eps_grid = [i / 50.0 for i in range(1, 101)]
    problems: List[str] = []
    prev_tilde = None
    for eps in eps_grid:
        value = uc.eval(eps)
        if not 0.0 < value <= 1.0:
            problems.append(f"eta({eps}) = {value} outside (0, 1]")
        if uc.eta_tilde is not None:
            tilde = uc.eval_tilde(eps)
            if abs(value - eps * tilde) > FACTOR_TOL:
                problems.append(
                    f"factorization defect at {eps}: |eta - eps*eta_tilde| = "
                    f"{abs(value - eps * tilde):.3e}"
                )
            if prev_tilde is not None and tilde < prev_tilde - FACTOR_TOL:
                problems.append(f"eta_tilde decreases at {eps}")
            prev_tilde = tilde
    return problems


def check_uc_transfer(eta: UcModulus, a, x, y, r: float, eps: float, lam: float,
                      norm: Callable, tol: float = CHECK_TOL) -> bool:
    """Check the convex-combination contraction granted by a convexity modulus.

    For ||x-a|| <= r, ||y-a|| <= r and ||x-y|| >= eps*r the claim is

        ||(1-lam)x + lam*y - a|| <= (1 - 2*lam*(1-lam)*eta(eps)) * r.

    Returns True/False for the inequality itself; precondition breaches raise
    :class:`PreconditionViolation` so a bad sample is never reported as a
    counterexample to the modulus.
    """
    if not r > 0.0:
        raise PreconditionViolation(f"radius must be positive, got {r}")
    if not 0.0 < eps <= 2.0:
        raise PreconditionViolation(f"eps must lie in (0, 2], got {eps}")
    if not 0.0 <= lam <= 1.0:
        raise PreconditionViolation(f"lambda must lie in [0, 1], got {lam}")
    a = np.asarray(a, dtype=float)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dxa = norm(x - a)
    dya = norm(y - a)
    dxy = norm(x - y)
    if dxa > r + tol:
        raise PreconditionViolation(f"||x-a|| = {dxa} exceeds r = {r}")
    if dya > r + tol:
        raise PreconditionViolation(f"||y-a|| = {dya} exceeds r = {r}")
    if dxy < eps * r - tol:
        raise PreconditionViolation(f"||x-y|| = {dxy} below eps*r = {eps * r}")
    lhs = norm((1.0 - lam) * x + lam * y - a)
    bound = (1.0 - 2.0 * lam * (1.0 - lam) * eta.eval(eps)) * r
    return lhs <= bound + tol


@dataclass
class NonexpansiveReport:
    samples: int
    max_excess: float
    violations: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def check_nonexpansive(op: Operator, space: Space, samples: int, seed: int,
                       box: tuple = (-5.0, 5.0),
                       tol: float = NONEXPANSIVE_TOL) -> NonexpansiveReport:
    """Sampled nonexpansiveness check: max of ||Tx-Ty|| - ||x-y|| over seeded
    random pairs drawn from a box."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    lo, hi = box
    max_excess = 0.0
    violations = []
    for i in range(samples):
        x = rng.uniform(lo, hi, space.dim)
        y = rng.uniform(lo, hi, space.dim)
        excess = space.norm(op(x) - op(y)) - space.norm(x - y)
        if excess > max_excess:
            max_excess = excess
        if excess > tol and len(violations) < 10:
            violations.append({"sample": i, "excess": float(excess)})
    return NonexpansiveReport(samples=samples, max_excess=float(max_excess),
                              violations=violations)


def shifted_inverse_square_modulus(scale: float, offset: int) -> RateFn:
    """Cauchy modulus k -> max(ceil(scale)*(k+1) - offset, 0) of
    sum_n scale/(n+offset)^2: the library's modulus shifted by the offset."""
    cs = ceil_int(scale)
    return RateFn(
        lambda k: max(cs * (k + 1) - offset, 0),
        RateKind.CAUCHY_MODULUS,
        description=f"shifted inverse-square series modulus (scale={scale}, offset={offset})",
    )


def inverse_square_sum_bound(scale: float, offset: int) -> int:
    """ceil(scale*(1/offset + 1/offset^2)) bounds sum_n scale/(n+offset)^2
    and never exceeds the paper's 2*ceil(scale)."""
    if scale == 0.0:
        return 0
    return ceil_int(scale * (1.0 / offset + 1.0 / (offset * offset)))


def coupling_values(schedule, n_max: int) -> np.ndarray:
    """alpha_n*beta_n/(alpha_n+beta_n) of ``schedule`` for n in [0, n_max]:
    the summands whose series its weight_divergence must drive past every k."""
    ns = np.arange(n_max + 1)
    a, b = schedule.alpha(ns), schedule.beta(ns)
    return a * b / (a + b)


def iterate_with_points(run: Callable, space: Space, op: Operator, start, schedule,
                        horizon: int):
    """``run(space, op, start, schedule, horizon)``, for ``km.iterate`` or the
    reference loop, and its points x_0 .. x_horizon as a (horizon + 1, dim)
    array: copies of the arguments of ``op.apply`` after the first call, the
    fixed-point check.  The reference loop applies the operator to every
    point; ``km.iterate`` stops at the m-th point once it is a settled fixed
    point, so its last argument x_m stands for every x_n with n > m, and
    ``res_step`` reads 0 from m on."""
    seen = []

    def apply(x):
        seen.append(x.copy())
        return op.apply(x)

    traj = run(space, replace(op, apply=apply), start, schedule, horizon)
    if run is reference_iterate:
        assert len(seen) == horizon + 2
    else:
        assert 2 <= len(seen) <= horizon + 2
        assert np.all(traj.res_step[len(seen) - 2:] == 0)
    points = np.array(seen[1:])
    return traj, np.concatenate([points, np.repeat(points[-1:], horizon + 2 - len(seen), 0)])


def corrupt_point(space: Space, op: Operator, traj, points, index: int,
                  magnitude: float = 1.0):
    """Negative control for the audit: push x_index of a trajectory of ``op``
    on ``space`` with ``points`` x_0 .. x_horizon (from
    :func:`iterate_with_points`) radially away from the fixed point by
    ``magnitude`` and recompute the streams that depend on it."""
    if not 0 <= index <= traj.horizon:
        raise ValueError(f"index {index} outside [0, {traj.horizon}]")
    points = points.copy()
    z = op.fixed_point
    d = points[index] - z
    nd = space.norm(d)
    direction = d / nd if nd > 0 else np.eye(space.dim)[0]
    points[index] = points[index] + magnitude * direction
    x = points[index]
    res_T = traj.res_T.copy()
    dist = traj.dist_z.copy()
    normx = traj.norm_x.copy()
    res_step = traj.res_step.copy()
    res_T[index] = space.norm(x - op(x))
    dist[index] = space.norm(x - z)
    normx[index] = space.norm(x)
    if index > 0:
        res_step[index - 1] = space.norm(x - points[index - 1])
    if index < traj.horizon:
        res_step[index] = space.norm(points[index + 1] - x)
    return replace(traj, res_T=res_T, dist_z=dist, norm_x=normx, res_step=res_step)
