"""Test oracles and negative controls for the moduli lemmas, the operator
catalog and the audit: the sampled convexity-transfer and nonexpansiveness
checks, the factorization self-check of a convexity modulus, the shifted
inverse-square modulus with its sharp sum bound, the summands of a schedule's
coupling series, the points of a run as its operator sees them, a point
corruption that the audit must catch, and the checks over whole arrays that
the library's settled heads replaced: the schedule window, its range check
and premise check, the audit, the soundness rows and the liminf cells, with
the expansion of a settled trajectory to whole streams that they read, the
two-pass norm that the one-pass tiny stack replaced, and the non-finite
float replacement that strict JSON output is held against.
The library runs none of them; the tests hold its objects against them."""

import itertools
import math
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
    check_divergence_rate,
    check_series_cauchy_modulus,
)
from km_rates.engine import (
    AUDIT_TOL,
    AuditCheck,
    AuditReport,
    AuditViolation,
    _as_double,
    audit_inequalities,
)
from km_rates.operators import NONEXPANSIVE_TOL, TINY_POWER_SUM, Operator, Space, _norm2
from km_rates.schedules import (
    DIVERGENCE_N_MAX,
    HYPOTHESES_K_MAX,
    RANGE_TOL,
    Finding,
    HypothesesReport,
    Window,
    held,
    range_findings,
)
from km_rates.verify import (
    SOUNDNESS_TOL,
    LiminfCell,
    LiminfReport,
    SoundnessReport,
    SoundnessRow,
)
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
        assert np.all(whole_trajectory(traj).res_step[len(seen) - 2:] == 0)
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
    traj = whole_trajectory(traj)
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


def _whole_array_collect(lhs: np.ndarray, rhs) -> AuditCheck:
    rhs = np.broadcast_to(rhs, lhs.shape)
    excess = lhs - rhs
    bad = ~(excess <= AUDIT_TOL)
    return AuditCheck(checked=int(lhs.size), count=int(np.count_nonzero(bad)),
                      max_excess=float(np.max(excess)) if lhs.size else 0.0,
                      first_violations=[AuditViolation(int(i), float(lhs[i]), float(rhs[i]))
                                        for i in np.flatnonzero(bad)[:10]])


def whole_trajectory(traj):
    """``traj`` with every stream whole, ``horizon + 1`` or ``horizon``
    entries, each entry past its head the head's last entry, so that it is
    settled nowhere: the trajectory as it was before a run held its heads
    only."""
    h = traj.horizon
    ends = {"res_T": h + 1, "dist_z": h + 1, "norm_x": h + 1, "K_z": h + 1,
            "res_step": h, "alpha": h, "beta": h, "r_norm": h}
    return replace(traj, **{name: held(getattr(traj, name), 0, end)
                            for name, end in ends.items()})


def whole_array_audit(traj, constants) -> AuditReport:
    """``audit_inequalities`` as it was before it folded a settled tail:
    every row of every check computed over the whole streams of
    :func:`whole_trajectory`."""
    traj = whole_trajectory(traj)
    a, b, rn = traj.alpha, traj.beta, traj.r_norm
    dist, normx, res_T, res_step, K = (traj.dist_z, traj.norm_x, traj.res_T, traj.res_step,
                                       traj.K_z)
    nz, fr = traj.norm_z, traj.fix_residual
    with np.errstate(over="ignore", invalid="ignore"):
        defect = 1.0 - a - b
        chain = np.minimum(2.0 * dist, 2.0 * K)
        defect_sum = _as_double(constants.defect_sum_bound) * nz if nz else 0.0
        sums = dist[0] + defect_sum + _as_double(constants.perturbation_sum_bound)
        checks = {
            "step_to_anchor": (dist[1:], (a + b) * dist[:-1] + b * fr + defect * nz + rn),
            "anchor_bound": (dist, K),
            "step_by_anchor": (res_step, 2.0 * K[1:]),
            "residual_by_dist": (res_T, 2.0 * dist + fr),
            "residual_chain": (res_T, chain),
            "step_decomposition": (res_step, b * res_T[:-1] + defect * normx[:-1] + rn),
            "residual_increment": (res_T[1:],
                                   res_T[:-1] + 2.0 * defect * normx[:-1] + 2.0 * rn),
            "dist_bound": (dist, _as_double(constants.dist_bound)),
            "norm_bound": (normx, _as_double(constants.norm_bound)),
            "dist_by_sums": (dist, sums),
        }
        return AuditReport(horizon=traj.horizon, checks={
            name: _whole_array_collect(lhs, rhs) for name, (lhs, rhs) in checks.items()})


def _check_fields(check: AuditCheck) -> tuple:
    """Every field of an audit check, its doubles as bits."""
    def bits(value):
        return int(np.float64(value).view(np.uint64))

    return (check.checked, check.count, bits(check.max_excess),
            [(v.index, bits(v.lhs), bits(v.rhs)) for v in check.first_violations])


def assert_audit_matches_whole_array(traj, constants) -> AuditReport:
    """``audit_inequalities`` of ``traj``, of its :func:`whole_trajectory`
    and :func:`whole_array_audit` of ``traj`` agree in every field of every
    check; returns the first."""
    reports = [audit_inequalities(traj, constants),
               audit_inequalities(whole_trajectory(traj), constants),
               whole_array_audit(traj, constants)]
    for report in reports:
        assert report.horizon == traj.horizon
        assert list(report.checks) == list(reports[-1].checks)
    for name in reports[-1].checks:
        expected = _check_fields(reports[-1].checks[name])
        assert [_check_fields(r.checks[name]) for r in reports[:2]] == [expected] * 2, name
    return reports[0]


def opaque(schedule):
    """``schedule`` with each of its four streams behind a plain callable,
    which declares no settled index: a window holds it whole, and a run on
    it never settles."""
    return replace(schedule, **{name: (lambda stream: lambda n: stream(n))(
        getattr(schedule, name)) for name in ("alpha", "beta", "perturbation",
                                               "perturbation_norm")})


def whole_window(schedule, n_max: int) -> Window:
    """The window as it was read before it kept its settled head only: every
    stream whole on [0, n_max], each from one call of the stream itself, a
    head stream too, in read-only arrays.  A reference of values only:
    ``iterate`` and ``verify_hypotheses`` read their own windows."""
    ns = np.arange(n_max + 1)
    views = [np.asarray(stream(ns), dtype=float).view()
             for stream in (schedule.alpha, schedule.beta, schedule.perturbation_norm)]
    for view in views:
        assert view.shape == ns.shape
        view.flags.writeable = False
    return Window(*views, n_max)


def whole_range_message(schedule, horizon: int) -> Optional[str]:
    """The message of the command line's range check as it was: the first
    finding of :func:`range_findings` on the whole weights of [0, horizon),
    None when there is none."""
    window = whole_window(schedule, horizon)
    findings = range_findings(window.alpha[:horizon], window.beta[:horizon])
    return min(findings, key=lambda f: f.index).message if findings else None


def whole_verify_hypotheses(schedule, n_max: int) -> HypothesesReport:
    """``verify_hypotheses`` as it was before it read the settled head only:
    every check, sum and summand array over the whole window."""
    window = whole_window(schedule, n_max)
    alpha, beta, pert = window.alpha, window.beta, window.r_norm
    findings = range_findings(alpha, beta)
    findings += [Finding("perturbation_norm", int(n), f"negative perturbation norm at n={n}")
                 for n in np.flatnonzero(pert < -RANGE_TOL)[:20]]
    series_checked = not findings
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        coupling = alpha * beta
        coupling /= alpha + beta
    defect = np.subtract(1.0, alpha)
    defect -= beta
    divergence_report = check_divergence_rate(coupling, schedule.weight_divergence,
                                              min(n_max, DIVERGENCE_N_MAX))
    reports, sums = [], []
    for name, values, magnitude, series in (
            ("defect", defect, np.abs, schedule.defect_series),
            ("perturbation", pert, np.asarray, schedule.perturbation_series)):
        report = None
        window_sum = float(np.sum(values))
        if series.zero:
            size = magnitude(values)
            if float(np.max(size)) > CHECK_TOL:
                n_bad = int(np.argmax(size))
                findings.append(Finding(f"{name}_zero", n_bad,
                                        f"{name} declared zero but nonzero at n={n_bad}"))
        else:
            if series_checked:
                report = check_series_cauchy_modulus(values, series.modulus, HYPOTHESES_K_MAX,
                                                     tail_bound=series.tail)
            if window_sum - CHECK_TOL > series.bound:
                findings.append(Finding(f"{name}_sum_bound", None,
                                        f"window {name} sum {window_sum} exceeds bound "
                                        f"{series.bound}"))
        reports.append(report)
        sums.append(window_sum)
    return HypothesesReport(window=n_max, findings=findings, defect_report=reports[0],
                            perturbation_report=reports[1],
                            divergence_report=divergence_report,
                            defect_window_sum=sums[0], perturbation_window_sum=sums[1])


def rate_values(rate: RateFn, k_max: int) -> List[int]:
    """``rate`` at k = 0 .. k_max: the bounds that ``check_rate_soundness``
    takes."""
    return [rate(k) for k in range(k_max + 1)]


def modulus_grid(modulus: RateFn, k_max: int, L_max: int) -> List[List[int]]:
    """``modulus`` at (k, L) for k <= k_max and L <= L_max, one row per k:
    the grid that ``check_liminf_contract`` takes."""
    return [[modulus(k, L) for L in range(L_max + 1)] for k in range(k_max + 1)]


def whole_soundness(traj, rate: RateFn, quantity: str, k_max: int) -> SoundnessReport:
    """``check_rate_soundness`` as it was before it read the settled head
    only: the suffix maxima and the first quiet index of the whole stream,
    the index found by a scan."""
    values = getattr(whole_trajectory(traj), quantity)
    last = len(values) - 1
    suffix = np.maximum.accumulate(values[::-1])[::-1]
    rows = []
    for k in range(k_max + 1):
        bound, threshold = rate(k), 1.0 / (k + 1)
        loud = np.flatnonzero(~(suffix <= threshold + SOUNDNESS_TOL))
        first = int(loud[-1]) + 1 if loud.size else 0
        first = None if first > last else first
        window = max_excess = passed = slack = None
        if bound <= last:
            window, max_excess = (bound, last), float(suffix[bound] - threshold)
            passed = bool(max_excess <= SOUNDNESS_TOL)
            slack = float(bound) / max(1, first) if first is not None else None
        rows.append(SoundnessRow(k=k, bound=bound, window=window, max_excess=max_excess,
                                 passed=passed, empirical_first_index=first, slack_factor=slack))
    return SoundnessReport(quantity=quantity, rate_description=rate.description,
                           horizon=traj.horizon, rows=rows)


def whole_liminf(traj, modulus, k_max: int, L_max: int) -> LiminfReport:
    """``check_liminf_contract`` as it was before it read the settled head
    only: each window [L, modulus(k, L)] read from the whole stream."""
    values = whole_trajectory(traj).res_T
    last = len(values) - 1
    cells = []
    for k, L in itertools.product(range(k_max + 1), range(L_max + 1)):
        bound = modulus(k, L)
        if bound > last:
            cells.append(LiminfCell(k, L, bound, None, None))
            continue
        hits = np.nonzero(values[L:bound + 1] < 1.0 / (k + 1))[0]
        witness = int(L + hits[0]) if hits.size else None
        cells.append(LiminfCell(k, L, bound, witness, witness is not None))
    return LiminfReport(horizon=traj.horizon, cells=cells)


def two_pass_norm(space: Space, v):
    """``Space.norm`` as it was before a stack of tiny entries skipped the
    plain formula, for p <= 968: every row takes the plain formula; then
    the nonzero rows whose norms come out below the cutoff, and after them
    those that come out inf, are taken again as one stack scaled by powers
    of two (by 2^600 for tiny rows at p = 2, else each row's largest entry
    into [0.5, 1))."""
    assert space.p <= 968
    p = space.p
    v = np.asarray(v, dtype=float)
    with np.errstate(over="ignore"):
        out = _norm2(v) if p == 2.0 else np.sum(np.abs(v) ** p, axis=-1) ** (1.0 / p)
        for redo, tiny in ((out < TINY_POWER_SUM ** (1.0 / p), True), (out == np.inf, False)):
            every = np.all(redo)
            rows = v if every else v[redo]
            if not rows.any():
                continue
            if tiny and p == 2.0:
                norms = _norm2(rows * 2.0 ** 600) * 2.0 ** -600
            else:
                shift = -np.frexp(np.abs(rows).max(axis=-1))[1]
                scaled = np.ldexp(rows, shift[..., None])
                norms = np.ldexp(_norm2(scaled) if p == 2.0 else
                                 np.sum(np.abs(scaled) ** p, axis=-1) ** (1.0 / p), -shift)
            if every:
                out = norms
            else:
                out = out.copy()
                out[redo] = norms
    return float(out) if np.ndim(out) == 0 else out


def _json_safe(value):
    """``value`` with each non-finite float replaced by the JSON string
    ``"Infinity"``, ``"-Infinity"`` or ``"NaN"``: the payload whose
    ``json.dumps(..., allow_nan=False)`` the CLI's JSON writer must match."""
    if isinstance(value, float) and not math.isfinite(value):
        return "NaN" if math.isnan(value) else ("Infinity" if value > 0 else "-Infinity")
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(item) for item in value]
    return value
