"""Quantitative moduli: rates of convergence, Cauchy moduli, divergence rates,
liminf moduli and moduli of uniform convexity.

Rate-valued functions map naturals to naturals in exact (arbitrary width)
integer arithmetic; wraparound cannot occur and any non-finite intermediate is
a hard error.  Real-valued quantities are evaluated in double precision, and
integer ceilings of them go through :func:`ceil_int`, whose snap keeps
closed-form integer identities but can land one below the exact ceiling.

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

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

#: Absolute tolerance of the real-valued inequality checks.
CHECK_TOL = 1e-10

_SNAP_ULPS = 8.0


class PreconditionViolation(ValueError):
    """Inputs break a documented precondition (distinct from a check failing)."""


def ceil_int(x: float) -> int:
    """Integer ceiling of a double-precision value, snap-guarded.

    Certificate quotients are exact integers whenever the convexity modulus is
    a rational power formula; accumulated rounding then leaves the computed
    value within a few ulps of that integer, where a naive ceiling could land
    one above it.  Values within 8 ulps of an integer are snapped to it.  That
    is not always sound: once the rounding error passes one half, the nearest
    integer can be below the exact ceiling (seen for lp moduli with p > 4; exact
    arithmetic is direction 1 of ROADMAP.md).

    Raises OverflowError on non-finite input.
    """
    if not math.isfinite(x):
        raise OverflowError(f"non-finite value in certificate arithmetic: {x!r}")
    nearest = round(x)
    if abs(x - nearest) <= _SNAP_ULPS * math.ulp(max(abs(x), 1.0)):
        return int(nearest)
    return int(math.ceil(x))


def _natural(value, what: str) -> int:
    """``value`` as a natural number: a non-integer (a float included) raises
    TypeError and a negative integer ValueError, each naming ``what``."""
    try:
        out = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} must be an exact integer, got {value!r}") from None
    if out < 0:
        raise ValueError(f"{what} must be a natural number, got {out}")
    return out


class RateKind(Enum):
    RATE_OF_CONVERGENCE = "rate_of_convergence"
    CAUCHY_MODULUS = "cauchy_modulus"
    RATE_OF_DIVERGENCE = "rate_of_divergence"
    #: auxiliary naturals-to-naturals functions fed into divergence rates
    THRESHOLD = "threshold"
    #: (k, L) -> the end of a window [L, d(k, L)] that holds a dip below 1/(k+1)
    LIMINF_MODULUS = "liminf_modulus"


@dataclass(frozen=True)
class RateFn:
    """A function from naturals to naturals with a declared contract; a
    ``LIMINF_MODULUS`` takes the window start L besides k.

    ``fn`` must return exact integers; floats are rejected so silent rounding
    cannot forge a certificate.  A rate made by :meth:`affine` or
    :meth:`constant` also carries ``coefficients``, its (slope, intercept)
    as Python ints (a constant c is (0, c)), which ``dataclasses.replace``
    keeps; array checks evaluate such a rate from them in one expression.
    Every other rate has ``coefficients`` None and is evaluated call by call.
    """

    fn: Callable[..., int]
    kind: RateKind
    description: str = ""
    coefficients: Optional[Tuple[int, int]] = None

    def __call__(self, k: int, L: Optional[int] = None) -> int:
        k = _natural(k, "rate argument")
        value = self.fn(k) if L is None else self.fn(k, _natural(L, "rate argument L"))
        return _natural(value, f"value of {self.description or 'rate function'}")

    @staticmethod
    def constant(value: int, kind: RateKind, description: str = "") -> "RateFn":
        value = _natural(value, "constant rate value")
        return RateFn(lambda k: value, kind, description, (0, value))

    @staticmethod
    def affine(slope: int, intercept: int, kind: RateKind, description: str = "") -> "RateFn":
        """k -> slope*k + intercept."""
        slope = _natural(slope, "slope")
        intercept = _natural(intercept, "intercept")
        return RateFn(lambda k: slope * k + intercept, kind, description, (slope, intercept))


ZERO_CAUCHY = RateFn.constant(0, RateKind.CAUCHY_MODULUS, "modulus of an identically zero series")


@dataclass(frozen=True)
class UcModulus:
    """Modulus of uniform convexity eta: (0, 2] -> (0, 1].

    ``eta_tilde`` optionally carries the factorization eta(eps) = eps *
    eta_tilde(eps), which the quadratic-threshold route uses; it must be
    nondecreasing.
    """

    eta: Callable[[float], float]
    name: str = "custom"
    eta_tilde: Optional[Callable[[float], float]] = None

    @property
    def factored(self) -> bool:
        return self.eta_tilde is not None

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


_EUCLIDEAN = UcModulus(eta=lambda e: e * e / 8.0, name="hilbert", eta_tilde=lambda e: e / 8.0)


def hilbert_modulus() -> UcModulus:
    """eps^2/8, factored as eps * (eps/8).  There is one such object, and the
    threshold routes recognise the Euclidean modulus by its identity, so an
    equal copy is an ordinary modulus."""
    return _EUCLIDEAN


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
    )


def combine_cauchy_moduli(modulus_a: RateFn, modulus_b: RateFn,
                          scale_a: int, scale_b: int) -> RateFn:
    """Cauchy modulus of scale_a*a_n + scale_b*b_n from Cauchy moduli of the
    two sequences: k -> max over both of modulus(2*scale*(k+1)-1)."""
    scale_a = _natural(scale_a, "scale_a")
    scale_b = _natural(scale_b, "scale_b")
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


def rate_from_liminf(dip_modulus: RateFn, increment_modulus: RateFn) -> RateFn:
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


def inverse_square_modulus(scale: float, offset: int) -> RateFn:
    """Cauchy modulus k -> ceil(scale)*(k+1) of sum_n scale/(n+offset)^2,
    offset >= 1."""
    if scale < 0.0:
        raise ValueError(f"series scale must be nonnegative, got {scale}")
    offset = _natural(offset, "offset")
    if offset < 1:
        raise ValueError(f"offset must be a positive integer, got {offset}")
    cs = ceil_int(scale)
    return RateFn.affine(cs, cs, RateKind.CAUCHY_MODULUS,
                         description=f"inverse-square series modulus (scale={scale})")


@dataclass
class DivergenceReport:
    """The checks of the targets n = 0 .. n_max, held as arrays indexed by n:
    ``rate_values[n]`` = rate(n), ``partials[n]`` the partial sum up to index
    rate(n) and ``sum_ok[n]`` whether it reaches n.  The verdict and the
    first 20 failures are read off the arrays."""

    rate_values: np.ndarray
    partials: np.ndarray
    sum_ok: np.ndarray
    summands_in_unit: bool

    @property
    def n_max(self) -> int:
        """The last target checked, -1 if none."""
        return self.rate_values.size - 1

    def _failed(self) -> np.ndarray:
        """Per target: the sum check failed, or the growth check rate(n) >= n
        did, which runs only when the summands lie in [0, 1)."""
        ok = self.sum_ok
        if self.summands_in_unit:
            ok = ok & (self.rate_values >= np.arange(self.rate_values.size))
        return ~ok

    @property
    def passed(self) -> bool:
        return not self._failed().any()

    def to_dict(self) -> dict:
        return {
            "n_max": self.n_max,
            "passed": self.passed,
            "summands_in_unit": self.summands_in_unit,
            "failures": [{"n": n, "rate_value": int(self.rate_values[n]),
                          "partial_sum": float(self.partials[n]),
                          "sum_ok": bool(self.sum_ok[n]),
                          "growth_ok": bool(self.rate_values[n] >= n)
                          if self.summands_in_unit else None}
                         for n in np.flatnonzero(self._failed())[:20].tolist()],
        }


def check_divergence_rate(terms: np.ndarray, rate: RateFn, n_max: int) -> DivergenceReport:
    """Check a claimed divergence rate on [0, n_max] against the summand
    values ``terms`` of the indices [0, len(terms) - 1], the window.

    For each n the partial sum up to index rate(n) must reach n.  When every
    summand up to rate(n) of the last n checked lies in [0, 1) the growth
    property rate(n) >= n is checked as well; summands outside [0, 1) disable
    only that sub-check.  The check stops before the first n whose rate(n)
    leaves the window, and the report's ``n_max`` is the last n checked (-1
    if none).
    """
    return divergence_report_of(terms, divergence_targets(rate, n_max, len(terms)))


def divergence_targets(rate: RateFn, n_max: int, length: int) -> np.ndarray:
    """rate(0), rate(1), ... up to rate(n_max), stopping before the first
    value that is not below ``length``, the size of the window: the indices
    whose partial sums :func:`check_divergence_rate` reads.

    A rate with ``coefficients`` is one array expression, its length found
    in Python ints; any other rate is called once per target until a value
    leaves the window."""
    if rate.kind is not RateKind.RATE_OF_DIVERGENCE:
        raise ValueError(f"expected a rate of divergence, got kind {rate.kind}")
    n_max = _natural(n_max, "n_max")
    # every value is below length, so it fits an index array
    if rate.coefficients is None:
        return np.fromiter(itertools.takewhile(lambda rv: rv < length,
                                               (rate(n) for n in range(n_max + 1))),
                           dtype=np.intp)
    slope, intercept = rate.coefficients
    if intercept >= length:
        return np.empty(0, dtype=np.intp)
    count = n_max + 1 if slope == 0 else min(n_max + 1, (length - 1 - intercept) // slope + 1)
    # a slope past the index range leaves at most the first value
    return intercept + (slope if count > 1 else 0) * np.arange(count, dtype=np.intp)


def divergence_report_of(terms: np.ndarray, values: np.ndarray) -> DivergenceReport:
    """The report of :func:`check_divergence_rate` on the rate values
    ``values`` of :func:`divergence_targets`; ``terms`` must hold at least
    the summands up to the largest of them, and only those are read."""
    terms = np.asarray(terms[:values.max(initial=-1) + 1], dtype=float)
    in_unit = bool(np.all((terms >= 0.0) & (terms < 1.0)))
    partials = np.cumsum(terms)[values]
    sum_ok = partials >= np.arange(values.size) - CHECK_TOL
    return DivergenceReport(rate_values=values, partials=partials, sum_ok=sum_ok,
                            summands_in_unit=in_unit)


class Row:
    """A checked row whose ``passed`` is True, False, or None when the row
    lies past the window and is not checked."""

    @property
    def truncated(self) -> bool:
        return self.passed is None


class RowReport:
    """The one verdict of a report of :class:`Row` s in ``rows``: it passes
    when no row failed, so truncation is not failure."""

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)

    @property
    def checked(self) -> int:
        return sum(r.passed is not None for r in self.rows)

    @property
    def failures(self) -> List[Row]:
        """The first 20 failed rows."""
        return [r for r in self.rows if r.passed is False][:20]


@dataclass(frozen=True)
class CauchyRow(Row):
    k: int
    start: int
    tail_gap: Optional[float]  # worst |S_{n+p} - S_n| witnessed/bounded, None if truncated
    passed: Optional[bool]


@dataclass
class CauchyReport(RowReport):
    window: int
    tail_bounded: bool
    rows: List[CauchyRow]

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "tail_bounded": self.tail_bounded,
            "passed": self.passed,
            "checked": self.checked,
            "failures": [{"k": r.k, "start": r.start, "tail_gap": r.tail_gap}
                         for r in self.failures],
        }


def check_series_cauchy_modulus(
    terms: np.ndarray,
    modulus: RateFn,
    k_max: int,
    tail_bound: Optional[Callable[[int], float]] = None,
) -> CauchyReport:
    """Check a Cauchy modulus of a nonnegative series against its summand
    values ``terms`` of the indices [0, window], window = len(terms) - 1.

    For nonnegative summands the worst gap past index n is the full remaining
    tail, so each k reduces to one comparison at n = modulus(k).  When
    ``tail_bound(m)`` bounds the sum beyond index m the check covers all p,
    otherwise it covers the window only (row stays honest about that via
    ``tail_bounded`` on the report).
    """
    if modulus.kind is not RateKind.CAUCHY_MODULUS:
        raise ValueError(f"expected a Cauchy modulus, got kind {modulus.kind}")
    terms = np.asarray(terms, dtype=float)
    window = len(terms) - 1
    if np.any(terms < -CHECK_TOL):
        raise ValueError("series summands must be nonnegative")
    sums = np.empty(window + 2)  # sums[i] = sum of the first i terms
    sums[0] = 0.0
    np.cumsum(terms, out=sums[1:])
    total = float(sums[window + 1])
    extra = float(tail_bound(window)) if tail_bound is not None else 0.0
    rows = []
    for k in range(k_max + 1):
        start = modulus(k)
        if start <= window:
            # S_inf - S_start <= (window sum past start) + tail beyond the window
            gap = total - float(sums[start + 1]) + extra
        elif tail_bound is not None:
            gap = float(tail_bound(start))
        else:
            rows.append(CauchyRow(k, start, None, None))
            continue
        rows.append(CauchyRow(k, start, gap, bool(gap <= 1.0 / (k + 1) + CHECK_TOL)))
    return CauchyReport(window=window, tail_bounded=tail_bound is not None, rows=rows)
