"""Quantitative moduli: rates of convergence, Cauchy moduli, divergence rates,
liminf moduli and moduli of uniform convexity.

Rate-valued functions map naturals to naturals in exact (arbitrary width)
integer arithmetic; wraparound cannot occur and any non-finite intermediate is
a hard error.  Real-valued quantities are evaluated in double precision, and
integer ceilings of them go through :func:`ceil_int`, which snaps values
sitting within a few ulps of an integer so that closed-form integer identities
survive the float round trip.

Contract semantics used throughout (for a sequence ``a_n`` and ``k`` natural):

* rate of convergence ``f`` towards ``a``:  ``|a_n - a| <= 1/(k+1)`` for all
  ``n >= f(k)``;
* Cauchy modulus ``f``: ``|a_{n+p} - a_n| <= 1/(k+1)`` for all ``n >= f(k)``
  and all ``p``; a Cauchy modulus of a series is one of its partial sums;
* rate of divergence ``f`` of a series: the partial sum up to index ``f(k)``
  is at least ``k``;
* modulus of liminf ``d``: every window ``[L, d(k, L)]`` contains an index
  where the sequence drops below ``1/(k+1)``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence

import numpy as np

#: Default absolute tolerance for real-valued inequality checks.
CHECK_TOL = 1e-10

#: Tolerance for the eta(eps) = eps * eta_tilde(eps) factorization check.
FACTOR_TOL = 1e-12

_SNAP_ULPS = 8.0


class PreconditionViolation(ValueError):
    """Inputs break a documented precondition (distinct from a check failing)."""


def ceil_int(x: float) -> int:
    """Integer ceiling of a double-precision value, snap-guarded.

    Certificate quotients are exact integers whenever the convexity modulus is
    a rational power formula; accumulated rounding then leaves the computed
    value within a few ulps of that integer, where a naive ceiling could land
    one above it.  Values within 8 ulps of an integer are snapped to it.

    Raises OverflowError on non-finite input.
    """
    if not math.isfinite(x):
        raise OverflowError(f"non-finite value in certificate arithmetic: {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= _SNAP_ULPS * math.ulp(max(abs(x), 1.0)):
        return int(nearest)
    return int(math.ceil(x))


def _as_index(value, what: str) -> int:
    try:
        out = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an exact integer, got {value!r}") from None
    return out


def _norm2(v) -> float:
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


class RateKind(Enum):
    RATE_OF_CONVERGENCE = "rate_of_convergence"
    CAUCHY_MODULUS = "cauchy_modulus"
    RATE_OF_DIVERGENCE = "rate_of_divergence"
    #: auxiliary naturals-to-naturals functions fed into divergence rates
    THRESHOLD = "threshold"


@dataclass(frozen=True)
class RateFn:
    """A function from naturals to naturals with a declared contract.

    ``fn`` must return exact integers; floats are rejected so silent rounding
    cannot forge a certificate.
    """

    fn: Callable[[int], int]
    kind: RateKind
    description: str = ""
    target: str = ""

    def __call__(self, k: int) -> int:
        k = _as_index(k, "rate argument")
        if k < 0:
            raise ValueError(f"rate functions are defined on naturals, got {k}")
        value = _as_index(self.fn(k), f"value of {self.description or 'rate function'}")
        if value < 0:
            raise ValueError(
                f"rate function produced a negative value {value} at {k}"
            )
        return value

    @staticmethod
    def constant(value: int, kind: RateKind, description: str = "") -> "RateFn":
        value = _as_index(value, "constant rate value")
        return RateFn(lambda k: value, kind, description)

    @staticmethod
    def affine(slope: int, intercept: int, kind: RateKind, description: str = "") -> "RateFn":
        """k -> slope*k + intercept."""
        slope = _as_index(slope, "slope")
        intercept = _as_index(intercept, "intercept")
        return RateFn(lambda k: slope * k + intercept, kind, description)


ZERO_CAUCHY = RateFn.constant(0, RateKind.CAUCHY_MODULUS, "modulus of an identically zero series")


@dataclass(frozen=True)
class LiminfModulus:
    """Witness-window function: some index in [L, eval(k, L)] dips below 1/(k+1)."""

    fn: Callable[[int, int], int]
    description: str = ""

    def __call__(self, k: int, L: int) -> int:
        k = _as_index(k, "liminf argument k")
        L = _as_index(L, "liminf argument L")
        if k < 0 or L < 0:
            raise ValueError(f"liminf modulus arguments must be naturals, got ({k}, {L})")
        value = _as_index(self.fn(k, L), "liminf modulus value")
        if value < 0:
            raise ValueError(f"liminf modulus produced a negative value at ({k}, {L})")
        return value


@dataclass(frozen=True)
class UcModulus:
    """Modulus of uniform convexity eta: (0, 2] -> (0, 1].

    ``eta_tilde`` optionally carries the factorization eta(eps) = eps *
    eta_tilde(eps); set ``tilde_increasing`` when eta_tilde is nondecreasing
    (required by the quadratic-threshold route).
    """

    eta: Callable[[float], float]
    name: str = "custom"
    eta_tilde: Optional[Callable[[float], float]] = None
    tilde_increasing: bool = False
    hilbert: bool = False

    @property
    def factored(self) -> bool:
        return self.eta_tilde is not None and self.tilde_increasing

    def eval(self, eps: float) -> float:
        if not 0.0 < eps <= 2.0:
            raise PreconditionViolation(f"modulus argument must lie in (0, 2], got {eps}")
        return float(self.eta(eps))

    def eval_tilde(self, eps: float) -> float:
        if self.eta_tilde is None:
            raise ValueError(f"modulus {self.name!r} carries no factorization")
        if not 0.0 < eps <= 2.0:
            raise PreconditionViolation(f"modulus argument must lie in (0, 2], got {eps}")
        return float(self.eta_tilde(eps))

    def self_check(self, eps_grid: Optional[Sequence[float]] = None) -> List[str]:
        """Sampled invariant check; returns human-readable violations."""
        if eps_grid is None:
            eps_grid = [i / 50.0 for i in range(1, 101)]
        problems: List[str] = []
        prev_tilde = None
        for eps in eps_grid:
            value = self.eval(eps)
            if not 0.0 < value <= 1.0:
                problems.append(f"eta({eps}) = {value} outside (0, 1]")
            if self.eta_tilde is not None:
                tilde = self.eval_tilde(eps)
                if abs(value - eps * tilde) > FACTOR_TOL:
                    problems.append(
                        f"factorization defect at {eps}: |eta - eps*eta_tilde| = "
                        f"{abs(value - eps * tilde):.3e}"
                    )
                if prev_tilde is not None and tilde < prev_tilde - FACTOR_TOL:
                    problems.append(f"eta_tilde decreases at {eps}")
                prev_tilde = tilde
        return problems


def lp_convexity_modulus(p: float, eps: float) -> float:
    """Modulus of uniform convexity of the p-norm at eps.

    (p-1)*eps^2/8 for 1 < p < 2 and eps^p/(p*2^p) for p >= 2; both branches
    give eps^2/8 at p = 2.
    """
    if not p > 1.0:
        raise ValueError(f"p-norm modulus needs p > 1, got {p}")
    if not 0.0 < eps <= 2.0:
        raise ValueError(f"modulus argument must lie in (0, 2], got {eps}")
    if p < 2.0:
        return (p - 1.0) * eps * eps / 8.0
    return eps**p / (p * 2.0**p)


def hilbert_modulus() -> UcModulus:
    """eps^2/8, factored as eps * (eps/8)."""
    return UcModulus(
        eta=lambda e: e * e / 8.0,
        name="hilbert",
        eta_tilde=lambda e: e / 8.0,
        tilde_increasing=True,
        hilbert=True,
    )


def lp_modulus(p: float) -> UcModulus:
    """UcModulus wrapper of :func:`lp_convexity_modulus`, always factored."""
    if not p > 1.0:
        raise ValueError(f"p-norm modulus needs p > 1, got {p}")
    if p == 2.0:
        return hilbert_modulus()
    if p < 2.0:
        tilde = lambda e: (p - 1.0) * e / 8.0
    else:
        tilde = lambda e: e ** (p - 1.0) / (p * 2.0**p)
    return UcModulus(
        eta=lambda e: lp_convexity_modulus(p, e),
        name=f"lp({p})",
        eta_tilde=tilde,
        tilde_increasing=True,
    )


def check_uc_transfer(
    eta: UcModulus,
    a,
    x,
    y,
    r: float,
    eps: float,
    lam: float,
    norm: Optional[Callable] = None,
    tol: float = CHECK_TOL,
) -> bool:
    """Check the convex-combination contraction granted by a convexity modulus.

    For ||x-a|| <= r, ||y-a|| <= r and ||x-y|| >= eps*r the claim is

        ||(1-lam)x + lam*y - a|| <= (1 - 2*lam*(1-lam)*eta(eps)) * r.

    Returns True/False for the inequality itself; precondition breaches raise
    :class:`PreconditionViolation` so a bad sample is never reported as a
    counterexample to the modulus.
    """
    if norm is None:
        norm = _norm2
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


def cauchy_to_rate(modulus: RateFn) -> RateFn:
    """A Cauchy modulus of a nonnegative series yields the rate
    k -> modulus(k)+1 at which the summands themselves go to zero."""
    if modulus.kind is not RateKind.CAUCHY_MODULUS:
        raise ValueError(f"expected a Cauchy modulus, got kind {modulus.kind}")
    return RateFn(
        lambda k: modulus(k) + 1,
        RateKind.RATE_OF_CONVERGENCE,
        description=f"summand rate from Cauchy modulus ({modulus.description})",
        target="series summands",
    )


def series_upper_bound(partial_sum_at: Callable[[int], float], modulus: RateFn) -> int:
    """Least positive integer at least ``partial_sum(modulus(0)) + 1``.

    That integer bounds the whole nonnegative series whose Cauchy modulus is
    ``modulus``.
    """
    if modulus.kind is not RateKind.CAUCHY_MODULUS:
        raise ValueError(f"expected a Cauchy modulus, got kind {modulus.kind}")
    s = float(partial_sum_at(modulus(0)))
    if s < -CHECK_TOL:
        raise ValueError(f"negative partial sum {s} for a nonnegative series")
    return ceil_int(max(s, 0.0)) + 1


def combine_cauchy_moduli(modulus_a: RateFn, modulus_b: RateFn,
                          scale_a: int, scale_b: int) -> RateFn:
    """Cauchy modulus of scale_a*a_n + scale_b*b_n from Cauchy moduli of the
    two sequences: k -> max over both of modulus(2*scale*(k+1)-1)."""
    scale_a = _as_index(scale_a, "scale_a")
    scale_b = _as_index(scale_b, "scale_b")
    if scale_a < 1 or scale_b < 1:
        raise ValueError(
            f"combination coefficients must be positive integers, got {scale_a}, {scale_b}")
    for modulus in (modulus_a, modulus_b):
        if modulus.kind is not RateKind.CAUCHY_MODULUS:
            raise ValueError(f"expected Cauchy moduli, got kind {modulus.kind}")
    return RateFn(
        lambda k: max(modulus_a(2 * scale_a * (k + 1) - 1),
                      modulus_b(2 * scale_b * (k + 1) - 1)),
        RateKind.CAUCHY_MODULUS,
        description="combined Cauchy modulus of an integer linear combination",
    )


def rate_from_liminf(dip_modulus: LiminfModulus, increment_modulus: RateFn) -> RateFn:
    """Full rate of convergence for an almost-decreasing sequence.

    If ``dip_modulus`` locates dips of ``a_n``, ``increment_modulus`` is a
    Cauchy modulus of a nonnegative series ``sum b_n`` and
    ``a_{n+1} <= a_n + b_n``, then
    ``k -> dip_modulus(2k+1, increment_modulus(2k+1)+1)`` is a rate of
    convergence of ``a_n`` to 0.
    """
    if increment_modulus.kind is not RateKind.CAUCHY_MODULUS:
        raise ValueError(f"expected a Cauchy modulus, got kind {increment_modulus.kind}")
    return RateFn(
        lambda k: dip_modulus(2 * k + 1, increment_modulus(2 * k + 1) + 1),
        RateKind.RATE_OF_CONVERGENCE,
        description="rate assembled from liminf modulus and perturbation modulus",
    )


@dataclass(frozen=True)
class InverseSquareBundle:
    """Moduli and sum bound for the series sum_n scale/(n+offset)^2."""

    modulus: RateFn
    shifted_modulus: RateFn
    sum_bound: int


def inverse_square_modulus(scale: float, offset: int) -> InverseSquareBundle:
    """Cauchy moduli for sum_n scale/(n+offset)^2, offset >= 1.

    modulus(k) = ceil(scale)*(k+1); shifted_modulus subtracts offset (floored
    at 0); sum_bound = ceil(scale*(1/offset + 1/offset^2)) bounds the series
    and never exceeds 2*ceil(scale).
    """
    if scale < 0.0:
        raise ValueError(f"series scale must be nonnegative, got {scale}")
    offset = _as_index(offset, "offset")
    if offset < 1:
        raise ValueError(f"offset must be a positive integer, got {offset}")
    cs = ceil_int(scale)
    modulus = RateFn.affine(cs, cs, RateKind.CAUCHY_MODULUS,
                            description=f"inverse-square series modulus (scale={scale})")
    shifted = RateFn(
        lambda k: max(cs * (k + 1) - offset, 0),
        RateKind.CAUCHY_MODULUS,
        description=f"shifted inverse-square series modulus (scale={scale}, offset={offset})",
    )
    if scale == 0.0:
        bound = 0
    else:
        bound = ceil_int(scale * (1.0 / offset + 1.0 / (offset * offset)))
    assert bound <= 2 * cs
    return InverseSquareBundle(modulus, shifted, bound)


@dataclass(frozen=True)
class DivergenceRow:
    n: int
    rate_value: int
    partial_sum: float
    sum_ok: bool
    growth_ok: Optional[bool]  # None when the summands leave [0, 1)


@dataclass
class DivergenceReport:
    n_max: int
    rows: List[DivergenceRow]
    summands_in_unit: bool
    unit_violations: List[int] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.sum_ok and r.growth_ok is not False for r in self.rows)

    def to_dict(self) -> dict:
        failures = [r for r in self.rows if not (r.sum_ok and r.growth_ok is not False)]
        return {
            "n_max": self.n_max,
            "passed": self.passed,
            "summands_in_unit": self.summands_in_unit,
            "failures": [
                {"n": r.n, "rate_value": r.rate_value, "partial_sum": r.partial_sum,
                 "sum_ok": r.sum_ok, "growth_ok": r.growth_ok}
                for r in failures[:20]
            ],
        }


def check_divergence_rate(
    summand: Callable[[int], float],
    rate: RateFn,
    n_max: int,
    tol: float = CHECK_TOL,
) -> DivergenceReport:
    """Check a claimed divergence rate on [0, n_max].

    For each n the partial sum up to index rate(n) must reach n.  When every
    summand seen lies in [0, 1) the growth property rate(n) >= n is checked
    as well; summands outside [0, 1) disable only that sub-check.
    """
    if rate.kind is not RateKind.RATE_OF_DIVERGENCE:
        raise ValueError(f"expected a rate of divergence, got kind {rate.kind}")
    n_max = _as_index(n_max, "n_max")
    values = [rate(n) for n in range(n_max + 1)]
    top = max(values)
    terms = np.array([float(summand(i)) for i in range(top + 1)])
    in_unit = bool(np.all((terms >= 0.0) & (terms < 1.0)))
    unit_violations = [] if in_unit else [int(i) for i in np.nonzero(~((terms >= 0.0) & (terms < 1.0)))[0][:10]]
    sums = np.cumsum(terms)
    rows = []
    for n, rv in enumerate(values):
        partial = float(sums[rv])
        rows.append(DivergenceRow(
            n=n,
            rate_value=rv,
            partial_sum=partial,
            sum_ok=bool(partial >= n - tol),
            growth_ok=(rv >= n) if in_unit else None,
        ))
    return DivergenceReport(n_max=n_max, rows=rows, summands_in_unit=in_unit,
                            unit_violations=unit_violations)


@dataclass(frozen=True)
class CauchyRow:
    k: int
    start: int
    tail_gap: Optional[float]  # worst |S_{n+p} - S_n| witnessed/bounded, None if truncated
    ok: Optional[bool]
    truncated: bool


@dataclass
class CauchyReport:
    window: int
    tail_bounded: bool
    rows: List[CauchyRow]

    @property
    def passed(self) -> bool:
        return all(r.ok is not False for r in self.rows)

    @property
    def checked(self) -> int:
        return sum(1 for r in self.rows if not r.truncated)

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "tail_bounded": self.tail_bounded,
            "passed": self.passed,
            "checked": self.checked,
            "failures": [
                {"k": r.k, "start": r.start, "tail_gap": r.tail_gap}
                for r in self.rows if r.ok is False
            ][:20],
        }


def check_series_cauchy_modulus(
    summand: Callable[[int], float],
    modulus: RateFn,
    k_max: int,
    window: int,
    tail_bound: Optional[Callable[[int], float]] = None,
    tol: float = CHECK_TOL,
) -> CauchyReport:
    """Check a Cauchy modulus of a nonnegative series on a finite window.

    For nonnegative summands the worst gap past index n is the full remaining
    tail, so each k reduces to one comparison at n = modulus(k).  When
    ``tail_bound(m)`` bounds the sum beyond index m the check covers all p,
    otherwise it covers the window only (row stays honest about that via
    ``tail_bounded`` on the report).
    """
    if modulus.kind is not RateKind.CAUCHY_MODULUS:
        raise ValueError(f"expected a Cauchy modulus, got kind {modulus.kind}")
    window = _as_index(window, "window")
    terms = np.array([float(summand(i)) for i in range(window + 1)])
    if np.any(terms < -tol):
        raise ValueError("series summands must be nonnegative")
    sums = np.concatenate([[0.0], np.cumsum(terms)])  # sums[i] = sum of first i terms
    total = float(sums[window + 1])
    extra = float(tail_bound(window)) if tail_bound is not None else 0.0
    rows = []
    for k in range(k_max + 1):
        start = modulus(k)
        if start > window:
            if tail_bound is not None:
                gap = float(tail_bound(start))
                rows.append(CauchyRow(k, start, gap, bool(gap <= 1.0 / (k + 1) + tol), False))
            else:
                rows.append(CauchyRow(k, start, None, None, True))
            continue
        # S_inf - S_start <= (window sum past start) + tail beyond the window
        gap = total - float(sums[start + 1]) + extra
        rows.append(CauchyRow(k, start, gap, bool(gap <= 1.0 / (k + 1) + tol), False))
    return CauchyReport(window=window, tail_bounded=tail_bound is not None, rows=rows)
