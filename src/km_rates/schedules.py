"""Parameter schedules for the generalized averaged iteration
x_{n+1} = alpha_n*x_n + beta_n*T(x_n) + r_n and their proof moduli.

A schedule carries, besides the three parameter streams, the quantitative
hypotheses as explicit objects:

* a Cauchy modulus of the summable defect series  sum (1 - alpha_n - beta_n),
* a rate of divergence of the coupling series     sum alpha_n*beta_n/(alpha_n+beta_n),
* a Cauchy modulus of the summable perturbation   sum ||r_n||,

plus integer bounds on the two summable series.  Moduli are proof objects:
constructors either derive them from a closed form that is provably valid or
require the caller to supply them; they are never inferred from samples.
Schedules are evaluated lazily by index, so long horizons cost no memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, List, Optional, Union

import numpy as np

from .moduli import (
    CHECK_TOL,
    ZERO_CAUCHY,
    CauchyReport,
    DivergenceReport,
    RateFn,
    RateKind,
    _norm2,
    ceil_int,
    check_divergence_rate,
    check_series_cauchy_modulus,
)

Vector = Union[np.ndarray, float]

RANGE_TOL = 1e-12


def coupling_cap(lam: float) -> int:
    """Smallest integer dominating 1/(lam*(1-lam)); at least 4."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"averaging weight must lie in (0, 1), got {lam}")
    return ceil_int(1.0 / (lam * (1.0 - lam)))


class Family(Enum):
    INEXACT_KM = "inexact_km"
    CLASSICAL_KM = "classical_km"
    ANCHOR = "anchor"
    EXAMPLE1 = "example1"
    EXAMPLE2 = "example2"
    CUSTOM = "custom"


@dataclass(frozen=True)
class ExampleParams:
    """Parameter bundle for the two worked schedule families.

    ``lam`` is the averaging weight, ``offset`` shifts the inverse-square
    perturbation decay, ``J`` shifts the defect decay of the second family,
    ``r_star`` is the perturbation direction, ``u`` an anchor direction and
    ``scale`` the inverse-square series scale.
    """

    lam: float
    offset: int = 1
    J: Optional[int] = None
    r_star: Optional[tuple] = None
    u: Optional[tuple] = None
    scale: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise ValueError(f"averaging weight must lie in (0, 1), got {self.lam}")
        if self.offset < 1:
            raise ValueError(f"decay offset must be a positive integer, got {self.offset}")
        if self.J is not None and self.J < 2:
            raise ValueError(f"defect decay offset must be at least 2, got {self.J}")
        if self.scale < 0.0:
            raise ValueError(f"series scale must be nonnegative, got {self.scale}")

    @property
    def cap(self) -> int:
        return coupling_cap(self.lam)

    @property
    def admissible_for_shrinking_family(self) -> bool:
        """The second family needs lam < (J^2-1)/J^2 so that beta_0 > 0."""
        if self.J is None:
            return False
        return self.lam < (self.J * self.J - 1.0) / (self.J * self.J)


@dataclass(frozen=True)
class Schedule:
    """Immutable parameter triple with attached moduli and sum bounds."""

    alpha: Callable[[int], float]
    beta: Callable[[int], float]
    perturbation: Callable[[int], Vector]
    perturbation_norm: Callable[[int], float]
    defect_cauchy: RateFn
    weight_divergence: RateFn
    perturbation_cauchy: RateFn
    defect_sum_bound: int
    perturbation_sum_bound: int
    family: Family
    defect_is_zero: bool
    perturbation_is_zero: bool
    defect_tail: Optional[Callable[[int], float]] = None
    perturbation_tail: Optional[Callable[[int], float]] = None

    def defect(self, n: int) -> float:
        return 1.0 - self.alpha(n) - self.beta(n)

    def coupling_weight(self, n: int) -> float:
        a = self.alpha(n)
        b = self.beta(n)
        return a * b / (a + b)


def _zero_perturbation(n: int) -> float:
    return 0.0


def _zero_norm(n: int) -> float:
    return 0.0


def inverse_square_perturbation(r_star, offset: int = 1, norm: Optional[Callable] = None):
    """The stream r_n = r_star/(n+offset)^2.

    Returns (perturbation, perturbation_norm, tail, ||r_star||) where
    tail(m) = ||r_star||/(m+offset) bounds the norm series past index m.  An
    absent or zero r_star gives the zero stream and no tail.
    """
    if offset < 1:
        raise ValueError(f"decay offset must be a positive integer, got {offset}")
    if r_star is not None:
        r_star = np.asarray(r_star, dtype=float)
    r_norm = 0.0 if r_star is None else (norm or _norm2)(r_star)
    if r_norm == 0.0:
        return _zero_perturbation, _zero_norm, None, 0.0
    return (lambda n: r_star / float((n + offset) ** 2),
            lambda n: r_norm / float((n + offset) ** 2),
            lambda m: r_norm / float(m + offset),
            r_norm)


def make_example1(
    lam: float,
    offset: int = 1,
    r_star=None,
    norm: Optional[Callable] = None,
) -> Schedule:
    """Constant averaging alpha = 1-lam, beta = lam with an inverse-square
    perturbation r_n = r_star/(n+offset)^2."""
    cap = coupling_cap(lam)
    perturbation, perturbation_norm, tail, r_norm = inverse_square_perturbation(
        r_star, offset, norm)
    c = ceil_int(r_norm)
    return Schedule(
        alpha=lambda n: 1.0 - lam,
        beta=lambda n: lam,
        perturbation=perturbation,
        perturbation_norm=perturbation_norm,
        defect_cauchy=ZERO_CAUCHY,
        weight_divergence=RateFn.affine(cap, 0, RateKind.RATE_OF_DIVERGENCE,
                                        f"constant-weight coupling divergence (cap={cap})"),
        perturbation_cauchy=RateFn.affine(c, c, RateKind.CAUCHY_MODULUS,
                                          "inverse-square perturbation modulus"),
        defect_sum_bound=0,
        perturbation_sum_bound=2 * c,
        family=Family.EXAMPLE1,
        defect_is_zero=True,
        perturbation_is_zero=r_norm == 0.0,
        perturbation_tail=tail,
    )


def make_example2(
    lam: float,
    J: int = 2,
    offset: int = 1,
    r_star=None,
    norm: Optional[Callable] = None,
) -> Schedule:
    """alpha = lam, beta_n = 1 - lam - 1/(n+J)^2, inverse-square perturbation.

    Needs lam < (J^2-1)/J^2 so that beta_0 > 0.
    """
    if J < 2:
        raise ValueError(f"defect decay offset must be at least 2, got {J}")
    hi = (J * J - 1.0) / (J * J)
    if not 0.0 < lam < hi:
        raise ValueError(f"averaging weight must lie in (0, {hi}) for this family, got {lam}")
    cap = coupling_cap(lam)
    perturbation, perturbation_norm, p_tail, r_norm = inverse_square_perturbation(
        r_star, offset, norm)
    c = ceil_int(r_norm)
    return Schedule(
        alpha=lambda n: lam,
        beta=lambda n: 1.0 - lam - 1.0 / float((n + J) ** 2),
        perturbation=perturbation,
        perturbation_norm=perturbation_norm,
        defect_cauchy=RateFn.affine(1, 1, RateKind.CAUCHY_MODULUS,
                                    "inverse-square defect modulus"),
        weight_divergence=RateFn.affine(cap, 2 * cap - 1, RateKind.RATE_OF_DIVERGENCE,
                                        f"shrinking-weight coupling divergence (cap={cap})"),
        perturbation_cauchy=RateFn.affine(c, c, RateKind.CAUCHY_MODULUS,
                                          "inverse-square perturbation modulus"),
        defect_sum_bound=2,
        perturbation_sum_bound=2 * c,
        family=Family.EXAMPLE2,
        defect_is_zero=False,
        perturbation_is_zero=r_norm == 0.0,
        defect_tail=lambda m: 1.0 / float(m + J),
        perturbation_tail=p_tail,
    )


def make_inexact_km(
    beta: Union[float, Callable[[int], float]],
    weight_divergence: RateFn,
    perturbation: Optional[Callable[[int], Vector]],
    perturbation_cauchy: RateFn,
    perturbation_sum_bound: int,
    norm: Optional[Callable] = None,
    family: Family = Family.INEXACT_KM,
) -> Schedule:
    """alpha_n = 1 - beta_n; the defect vanishes and the coupling series is
    sum beta_n*(1-beta_n), for which the caller supplies the divergence rate.

    The constructor passes moduli through unchanged; it never synthesizes one.
    """
    if norm is None:
        norm = _norm2
    beta_fn = (lambda n: float(beta)) if not callable(beta) else beta
    if weight_divergence.kind is not RateKind.RATE_OF_DIVERGENCE:
        raise ValueError("the coupling series needs a rate of divergence")
    if perturbation is None:
        pert, pert_norm = _zero_perturbation, _zero_norm
        zero_r = True
    else:
        pert = perturbation
        pert_norm = lambda n: norm(pert(n))
        zero_r = False
    return Schedule(
        alpha=lambda n: 1.0 - beta_fn(n),
        beta=beta_fn,
        perturbation=pert,
        perturbation_norm=pert_norm,
        defect_cauchy=ZERO_CAUCHY,
        weight_divergence=weight_divergence,
        perturbation_cauchy=perturbation_cauchy,
        defect_sum_bound=0,
        perturbation_sum_bound=perturbation_sum_bound,
        family=family,
        defect_is_zero=True,
        perturbation_is_zero=zero_r,
    )


def make_classical_km(beta: float) -> Schedule:
    """Unperturbed averaged iteration with constant weight.

    For constant beta the coupling series has the closed-form divergence rate
    k -> k*ceil(1/(beta*(1-beta))): the first k*cap+1 summands already add up
    to at least k.
    """
    cap = coupling_cap(beta)
    return make_inexact_km(
        beta=beta,
        weight_divergence=RateFn.affine(cap, 0, RateKind.RATE_OF_DIVERGENCE,
                                        f"constant-weight coupling divergence (cap={cap})"),
        perturbation=None,
        perturbation_cauchy=ZERO_CAUCHY,
        perturbation_sum_bound=0,
        family=Family.CLASSICAL_KM,
    )


def make_anchor(base: Schedule, u, norm: Optional[Callable] = None) -> Schedule:
    """Replace the perturbation by r_n = (1 - alpha_n - beta_n)*u.

    The perturbation series inherits the defect modulus rescaled by ceil||u||:
    modulus k -> defect_cauchy(ceil||u||*(k+1) - 1), bound = defect bound *
    ceil||u||.  A zero anchor is rejected; use a zero perturbation instead.
    """
    if norm is None:
        norm = _norm2
    u = np.asarray(u, dtype=float)
    nu = norm(u)
    if nu == 0.0:
        raise ValueError("anchor direction must be nonzero; use a zero perturbation instead")
    cu = ceil_int(nu)
    defect = lambda n: 1.0 - base.alpha(n) - base.beta(n)
    tail = None
    if base.defect_tail is not None:
        base_tail = base.defect_tail
        tail = lambda m: nu * base_tail(m)
    elif base.defect_is_zero:
        tail = lambda m: 0.0
    return Schedule(
        alpha=base.alpha,
        beta=base.beta,
        perturbation=lambda n: defect(n) * u,
        perturbation_norm=lambda n: abs(defect(n)) * nu,
        defect_cauchy=base.defect_cauchy,
        weight_divergence=base.weight_divergence,
        perturbation_cauchy=RateFn(
            lambda k: base.defect_cauchy(cu * (k + 1) - 1),
            RateKind.CAUCHY_MODULUS,
            description="anchored perturbation modulus",
        ),
        defect_sum_bound=base.defect_sum_bound,
        perturbation_sum_bound=base.defect_sum_bound * cu,
        family=Family.ANCHOR,
        defect_is_zero=base.defect_is_zero,
        perturbation_is_zero=base.defect_is_zero,
        defect_tail=base.defect_tail,
        perturbation_tail=tail,
    )


def bound_constants_from_moduli(schedule: Schedule) -> tuple:
    """Minimal integer bounds for the two summable series.

    Identically-zero series get bound 0; otherwise the bound is
    ceil(partial sum up to modulus(0)) + 1, which dominates the whole series.
    """
    if schedule.defect_is_zero:
        defect_bound = 0
    else:
        upto = schedule.defect_cauchy(0)
        s = sum(schedule.defect(n) for n in range(upto + 1))
        defect_bound = ceil_int(max(s, 0.0)) + 1
    if schedule.perturbation_is_zero:
        pert_bound = 0
    else:
        upto = schedule.perturbation_cauchy(0)
        s = sum(schedule.perturbation_norm(n) for n in range(upto + 1))
        pert_bound = ceil_int(max(s, 0.0)) + 1
    return defect_bound, pert_bound


@dataclass(frozen=True)
class Finding:
    check: str
    index: Optional[int]
    message: str


@dataclass
class HypothesesReport:
    """Window-stated verdict on the schedule hypotheses.

    Everything is checked on [0, window] only; the report never claims more.
    """

    window: int
    findings: List[Finding]
    defect_report: Optional[CauchyReport]
    perturbation_report: Optional[CauchyReport]
    divergence_report: DivergenceReport
    defect_window_sum: float
    perturbation_window_sum: float

    @property
    def passed(self) -> bool:
        if self.findings:
            return False
        for rep in (self.defect_report, self.perturbation_report):
            if rep is not None and not rep.passed:
                return False
        return self.divergence_report.passed

    def to_dict(self) -> dict:
        return {
            "window": self.window,
            "passed": self.passed,
            "findings": [
                {"check": f.check, "index": f.index, "message": f.message}
                for f in self.findings[:50]
            ],
            "defect_series": None if self.defect_report is None else self.defect_report.to_dict(),
            "perturbation_series": None if self.perturbation_report is None
            else self.perturbation_report.to_dict(),
            "coupling_divergence": self.divergence_report.to_dict(),
            "defect_window_sum": self.defect_window_sum,
            "perturbation_window_sum": self.perturbation_window_sum,
        }


def verify_hypotheses(
    schedule: Schedule,
    n_max: int,
    k_max: int = 20,
    divergence_n_max: Optional[int] = None,
    tol: float = CHECK_TOL,
) -> HypothesesReport:
    """Check ranges, modulus contracts and sum bounds on [0, n_max].

    All findings land in the report; nothing raises.  Analytic tail bounds are
    used for the two Cauchy contracts when the family provides them, otherwise
    those contracts are checked on the window only.
    """
    findings: List[Finding] = []
    alpha = np.empty(n_max + 1)
    beta = np.empty(n_max + 1)
    pert = np.empty(n_max + 1)
    for n in range(n_max + 1):
        alpha[n] = schedule.alpha(n)
        beta[n] = schedule.beta(n)
        pert[n] = schedule.perturbation_norm(n)

    def flag(mask, check, message):
        for n in np.nonzero(mask)[0][:20]:
            findings.append(Finding(check, int(n), message.format(n=int(n))))

    flag((alpha < -RANGE_TOL) | (alpha > 1.0 + RANGE_TOL), "alpha_range",
         "alpha out of [0, 1] at n={n}")
    flag((beta < -RANGE_TOL) | (beta > 1.0 + RANGE_TOL), "beta_range",
         "beta out of [0, 1] at n={n}")
    flag(alpha + beta > 1.0 + RANGE_TOL, "sum_range", "alpha+beta exceeds 1 at n={n}")
    flag(alpha + beta <= 0.0, "sum_positive", "alpha+beta not positive at n={n}")
    flag(pert < -RANGE_TOL, "perturbation_norm", "negative perturbation norm at n={n}")

    defect = 1.0 - alpha - beta
    defect_sum = float(np.sum(defect))
    pert_sum = float(np.sum(pert))

    defect_report = None
    if schedule.defect_is_zero:
        if float(np.max(np.abs(defect))) > tol:
            n_bad = int(np.argmax(np.abs(defect)))
            findings.append(Finding("defect_zero", n_bad,
                                    f"defect declared zero but nonzero at n={n_bad}"))
    else:
        defect_report = check_series_cauchy_modulus(
            schedule.defect, schedule.defect_cauchy, k_max, n_max,
            tail_bound=schedule.defect_tail, tol=tol)
        if defect_sum > schedule.defect_sum_bound + tol:
            findings.append(Finding("defect_sum_bound", None,
                                    f"window defect sum {defect_sum} exceeds bound "
                                    f"{schedule.defect_sum_bound}"))

    perturbation_report = None
    if schedule.perturbation_is_zero:
        if float(np.max(pert)) > tol:
            n_bad = int(np.argmax(pert))
            findings.append(Finding("perturbation_zero", n_bad,
                                    f"perturbation declared zero but nonzero at n={n_bad}"))
    else:
        perturbation_report = check_series_cauchy_modulus(
            schedule.perturbation_norm, schedule.perturbation_cauchy, k_max, n_max,
            tail_bound=schedule.perturbation_tail, tol=tol)
        if pert_sum > schedule.perturbation_sum_bound + tol:
            findings.append(Finding("perturbation_sum_bound", None,
                                    f"window perturbation sum {pert_sum} exceeds bound "
                                    f"{schedule.perturbation_sum_bound}"))

    n_div = min(n_max, 2000) if divergence_n_max is None else divergence_n_max
    try:
        divergence_report = check_divergence_rate(
            schedule.coupling_weight, schedule.weight_divergence, n_div, tol=tol)
    except ZeroDivisionError:
        findings.append(Finding("sum_positive", None,
                                "alpha+beta vanishes somewhere below the divergence horizon"))
        divergence_report = DivergenceReport(n_max=n_div, rows=[], summands_in_unit=False)

    return HypothesesReport(
        window=n_max,
        findings=findings,
        defect_report=defect_report,
        perturbation_report=perturbation_report,
        divergence_report=divergence_report,
        defect_window_sum=defect_sum,
        perturbation_window_sum=pert_sum,
    )
