"""Explicit rate certificates for the generalized averaged iteration.

Given the instance constants and the schedule moduli, the certificate
machinery produces three naturals-to-naturals functions:

* ``threshold``       how much coupling-series mass forces a residual dip,
* ``residual_rate``   a rate of convergence of ||x_n - T(x_n)|| to 0,
* ``step_rate``       a rate of convergence of ||x_{n+1} - x_n|| to 0,

plus a liminf modulus locating a residual dip inside any window.  All values
are integers.  Double precision enters through the instance bounds and the
convexity modulus in the threshold quotient of the "general" and "factored"
routes; their ceilings are snap-guarded (see :func:`km_rates.moduli.ceil_int`).
Larger pointwise values stay valid rates, so rounding up is sound, but the
snap can round down: for p != 2 a threshold can be one below its exact ceiling.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Callable, List, Optional

import numpy as np

from .moduli import (
    RateFn,
    RateKind,
    UcModulus,
    ceil_int,
    combine_cauchy_moduli,
    hilbert_modulus,
    rate_from_liminf,
)
from .schedules import Schedule


class CertificateOverflow(RuntimeError):
    """Certificate arithmetic left the finite range (for example the convexity
    modulus underflowed to zero)."""


@dataclass(frozen=True)
class InstanceConstants:
    """Integer instance bounds.

    ``start_bound`` dominates ||x-z|| and ||z||, and the two sum bounds
    dominate the defect and perturbation series; the derived ``dist_bound``
    dominates ||x_n - z|| along the whole run and ``norm_bound`` dominates
    ||x_n||.
    """

    start_bound: int
    defect_sum_bound: int
    perturbation_sum_bound: int

    def __post_init__(self):
        if self.start_bound < 1:
            raise ValueError(f"start bound must be a positive integer, got {self.start_bound}")
        if self.defect_sum_bound < 0 or self.perturbation_sum_bound < 0:
            raise ValueError("series bounds must be nonnegative integers")

    @property
    def dist_bound(self) -> int:
        """start_bound*(1 + defect_sum_bound) + perturbation_sum_bound."""
        return self.start_bound * (1 + self.defect_sum_bound) + self.perturbation_sum_bound

    @property
    def norm_bound(self) -> int:
        """dist_bound + start_bound."""
        return self.dist_bound + self.start_bound

    @property
    def threshold_numerator(self) -> int:
        """dist_bound + defect_sum_bound*start_bound + perturbation_sum_bound + 1."""
        return (self.dist_bound + self.defect_sum_bound * self.start_bound
                + self.perturbation_sum_bound + 1)

    def to_dict(self) -> dict:
        return {
            "start_bound": self.start_bound,
            "defect_sum_bound": self.defect_sum_bound,
            "perturbation_sum_bound": self.perturbation_sum_bound,
            "dist_bound": self.dist_bound,
            "norm_bound": self.norm_bound,
        }


def instance_constants(x, z, schedule: Schedule, norm: Callable) -> InstanceConstants:
    """Round max(||x-z||, ||z||) in ``norm`` up to a positive integer and
    derive the rest."""
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    b = max(1, ceil_int(max(norm(x - z), norm(z))))
    return InstanceConstants(b, schedule.defect_series.bound,
                             schedule.perturbation_series.bound)


def _guarded_quotient(num: int, m0: int, k: int, eta: Callable[[float], float]) -> int:
    """ceil( num*(k+1) / eta(1/(m0*(k+1))) ).  A value past the double range
    on the way, or a modulus that is not positive, is a CertificateOverflow."""
    try:
        denominator = eta(1.0 / (m0 * (k + 1)))
        if not denominator > 0.0:
            raise CertificateOverflow(f"convexity modulus evaluated to {denominator}; "
                                      "threshold undefined")
        return ceil_int(num * (k + 1) / denominator)
    except OverflowError as exc:
        raise CertificateOverflow(str(exc)) from None


def weight_threshold(constants: InstanceConstants, uc: UcModulus) -> RateFn:
    """k -> ceil( numerator*(k+1) / eta(1/(dist_bound*(k+1))) )."""
    num, m0 = constants.threshold_numerator, constants.dist_bound
    return RateFn(lambda k: _guarded_quotient(num, m0, k, uc.eval), RateKind.THRESHOLD,
                  description="coupling-mass threshold (direct modulus)")


def weight_threshold_factored(constants: InstanceConstants, uc: UcModulus) -> RateFn:
    """k -> ceil( numerator*(k+1) / (2*eta_tilde(1/(dist_bound*(k+1)))) ).

    Needs the factorization eta(eps) = eps*eta_tilde(eps) with eta_tilde
    nondecreasing; a modulus without one is rejected.
    """
    if not uc.factored:
        raise ValueError(f"modulus {uc.name!r} carries no increasing factorization")
    num, m0 = constants.threshold_numerator, constants.dist_bound
    return RateFn(lambda k: _guarded_quotient(num, m0, k, lambda e: 2.0 * uc.eval_tilde(e)),
                  RateKind.THRESHOLD, description="coupling-mass threshold (factored modulus)")


def hilbert_threshold(constants: InstanceConstants) -> RateFn:
    """Exact-integer Euclidean closed form 4*dist_bound*numerator*(k+1)^2."""
    num = constants.threshold_numerator
    m0 = constants.dist_bound
    return RateFn(
        lambda k: 4 * m0 * num * (k + 1) ** 2,
        RateKind.THRESHOLD,
        description="coupling-mass threshold (Euclidean closed form)",
    )


#: route name -> threshold lemma (constants, modulus); a certificate carries
#: the name of its route
THRESHOLD_ROUTES = {
    "general": weight_threshold,
    "factored": weight_threshold_factored,
    "hilbert": lambda constants, uc: hilbert_threshold(constants),
}


def select_threshold(constants: InstanceConstants, uc: UcModulus, route: str = "auto"):
    """(threshold, route name) along ``route``, a key of
    :data:`THRESHOLD_ROUTES`; "auto" picks the sharpest valid form for the
    modulus at hand.  Only :func:`hilbert_modulus` itself, tested by
    identity, takes the "hilbert" route."""
    euclidean = uc is hilbert_modulus()
    if route == "auto":
        route = "hilbert" if euclidean else "factored" if uc.factored else "general"
    if route not in THRESHOLD_ROUTES:
        raise ValueError(f"unknown threshold route {route!r}")
    if route == "hilbert" and not euclidean:
        raise ValueError("the Euclidean closed form needs the Euclidean modulus")
    return THRESHOLD_ROUTES[route](constants, uc), route


def make_step_rate(residual_rate: RateFn) -> RateFn:
    """Rate of convergence of successive displacements: k -> residual_rate(2k+1)."""
    return RateFn(
        lambda k: residual_rate(2 * k + 1),
        RateKind.RATE_OF_CONVERGENCE,
        description="step-displacement rate",
    )


#: threshold values a dip-window modulus keeps: the liminf grid reads 9 k,
#: and the rates of a table to k_max read k_max + 1 more
THRESHOLDS_KEPT = 256


def make_liminf_modulus(threshold: RateFn, weight_divergence: RateFn) -> RateFn:
    """(k, L) -> weight_divergence(threshold(k) + L).

    threshold(k) is evaluated once per k and kept, for the last
    ``THRESHOLDS_KEPT`` k, so the cells (k, 0) .. (k, L) of a grid share it;
    a k whose threshold raises raises again on every call."""
    kept = functools.lru_cache(maxsize=THRESHOLDS_KEPT)(threshold)
    return RateFn(lambda k, L: weight_divergence(kept(k) + L), RateKind.LIMINF_MODULUS,
                  description="residual dip-window modulus")


@dataclass(frozen=True)
class Certificate:
    formula: str  # a key of THRESHOLD_ROUTES
    constants: InstanceConstants
    threshold: RateFn
    residual_rate: RateFn
    step_rate: RateFn
    liminf_modulus: RateFn

    def table(self, k_max: int) -> List[dict]:
        return [
            {
                "k": k,
                "threshold": self.threshold(k),
                "residual_rate": self.residual_rate(k),
                "step_rate": self.step_rate(k),
            }
            for k in range(k_max + 1)
        ]

    def to_dict(self, k_max: int, table: Optional[List[dict]] = None) -> dict:
        """The certificate with its table up to ``k_max``, or with ``table``,
        one already evaluated to ``k_max``."""
        return {
            "formula": self.formula,
            "constants": self.constants.to_dict(),
            "table": self.table(k_max) if table is None else table,
        }


def make_certificate(constants: InstanceConstants, schedule: Schedule,
                     uc: UcModulus, route: str = "auto") -> Certificate:
    """Compose the certificate from the moduli lemmas.

    The threshold along ``route`` (see :func:`select_threshold`) and the
    coupling divergence give the dip-window modulus; the residual increments
    are dominated by the series 2*norm_bound*defect_n + 2*||r_n||, whose
    Cauchy modulus combines the two schedule moduli; :func:`rate_from_liminf`
    turns both into the residual rate, and the step rate is the residual rate
    at 2k+1.
    """
    threshold, formula = select_threshold(constants, uc, route)
    dip = make_liminf_modulus(threshold, schedule.weight_divergence)
    increments = combine_cauchy_moduli(schedule.defect_series.modulus,
                                       schedule.perturbation_series.modulus,
                                       2 * constants.norm_bound, 2)
    residual = replace(rate_from_liminf(dip, increments),
                       description="operator-residual rate")
    return Certificate(
        formula=formula,
        constants=constants,
        threshold=threshold,
        residual_rate=residual,
        step_rate=make_step_rate(residual),
        liminf_modulus=dip,
    )
