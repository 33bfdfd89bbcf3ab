from dataclasses import replace

import numpy as np
import pytest

import km_rates as km
from km_rates.moduli import RateFn, RateKind
from km_rates.schedules import Family


def test_coupling_cap_values():
    assert km.coupling_cap(0.5) == 4
    assert km.coupling_cap(0.25) == 6  # 1/(0.25*0.75) = 5.33..
    for lam in (0.1, 0.3, 0.5, 0.7, 0.9):
        assert km.coupling_cap(lam) >= 4


def test_example_params_validation():
    km.make_example2(0.5, J=2)  # 0.5 < 3/4
    with pytest.raises(ValueError):
        km.make_example2(0.76, J=2)
    with pytest.raises(ValueError):
        km.make_example1(1.0)
    with pytest.raises(ValueError):
        km.make_example1(0.5, offset=0)
    with pytest.raises(ValueError):
        km.make_example2(0.5, J=1)


def test_example1_unperturbed():
    s = km.make_example1(0.5)
    assert s.family is Family.EXAMPLE1
    assert s.defect_is_zero and s.perturbation_is_zero
    assert s.defect_sum_bound == 0 and s.perturbation_sum_bound == 0
    assert [s.weight_divergence(k) for k in range(3)] == [0, 4, 8]
    assert s.alpha(17) == 0.5 and s.beta(17) == 0.5


def test_example1_with_unit_perturbation():
    s = km.make_example1(0.5, 1, r_star=[1.0, 0.0])
    assert s.perturbation_sum_bound == 2
    assert [s.perturbation_cauchy(k) for k in range(3)] == [1, 2, 3]
    assert not s.perturbation_is_zero


def test_example1_pointwise_evaluation():
    s = km.make_example1(0.25, 2, r_star=[1.0, 0.0])
    assert s.alpha(3) == 0.75
    assert s.beta(3) == 0.25
    np.testing.assert_allclose(s.perturbation(3), [1.0 / 25.0, 0.0])


def test_example2_values():
    s = km.make_example2(0.5, J=2, offset=1)
    assert s.beta(0) == pytest.approx(0.25)
    assert s.alpha(0) + s.beta(0) == pytest.approx(0.75)
    assert s.weight_divergence(0) == 7  # cap*(0+2)-1 with cap=4
    assert s.defect_sum_bound == 2
    assert [s.defect_cauchy(k) for k in range(3)] == [1, 2, 3]


def test_example2_pointwise_bounds():
    s = km.make_example2(0.5, J=2)
    floor = (4 - 1) / 4 - 0.5
    for n in range(0, 500, 7):
        total = s.alpha(n) + s.beta(n)
        assert total < 1.0
        assert s.beta(n) >= floor - 1e-15


def test_example2_admissibility():
    with pytest.raises(ValueError):
        km.make_example2(0.8, J=2)  # needs lam < 3/4
    km.make_example2(0.8, J=3)  # 0.8 < 8/9 is fine


def test_inexact_km_coupling_identity():
    s = km.make_inexact_km(
        beta=lambda n: 0.3 + 0.4 * ((n % 7) / 7.0),
        weight_divergence=RateFn.affine(10, 0, RateKind.RATE_OF_DIVERGENCE),
        perturbation=None,
        perturbation_cauchy=RateFn.constant(0, RateKind.CAUCHY_MODULUS),
        perturbation_sum_bound=0,
    )
    for n in range(0, 200, 11):
        b = s.beta(n)
        assert abs(s.coupling_weight(n) - b * (1 - b)) <= 1e-15
        assert s.alpha(n) + s.beta(n) == pytest.approx(1.0, abs=1e-15)


def test_classical_km_is_inexact_with_zero_perturbation():
    s = km.make_classical_km(0.5)
    assert s.family is Family.CLASSICAL_KM
    assert s.defect_is_zero and s.perturbation_is_zero
    assert s.perturbation_sum_bound == 0
    assert [s.weight_divergence(k) for k in range(3)] == [0, 4, 8]
    # the synthesized divergence rate really works: sum_{i<=4k} 1/4 >= k
    report = km.check_divergence_rate(s.coupling_weight, s.weight_divergence, 500)
    assert report.passed


def test_make_anchor_from_example2_core():
    base = km.make_example2(0.5, J=2)
    s = km.make_anchor(base, [1.0, 0.0, 0.0])
    assert s.family is Family.ANCHOR
    assert s.perturbation_sum_bound == 2  # base bound 2 * ceil(1)
    for k in range(10):
        assert s.perturbation_cauchy(k) == base.defect_cauchy(k)
    np.testing.assert_allclose(s.perturbation(0), [0.25, 0.0, 0.0])  # defect(0)*u


def test_make_anchor_scaling():
    base = km.make_example2(0.5, J=2)
    u = [0.0, 2.5, 0.0]
    s = km.make_anchor(base, u)
    assert s.perturbation_sum_bound == 6  # 2 * ceil(2.5)
    for k in range(10):
        assert s.perturbation_cauchy(k) == base.defect_cauchy(3 * k + 2)


def test_make_anchor_vanishing_defect():
    base = km.make_classical_km(0.5)
    s = km.make_anchor(base, [1.0, 1.0])
    assert s.perturbation_sum_bound == 0
    assert s.perturbation_is_zero
    assert s.perturbation_norm(5) == 0.0


def test_make_anchor_rejects_zero_direction():
    with pytest.raises(ValueError):
        km.make_anchor(km.make_classical_km(0.5), [0.0, 0.0])


def test_bound_constants_from_moduli():
    core = km.make_example2(0.5, J=2)
    assert km.bound_constants_from_moduli(core) == (2, 0)
    assert km.bound_constants_from_moduli(km.make_classical_km(0.5)) == (0, 0)
    pert = km.make_example1(0.5, 1, r_star=[1.0, 0.0])
    # sum over n <= modulus(0)=1 of 1/(n+1)^2 is 1.25, so the bound is 3
    assert km.bound_constants_from_moduli(pert) == (0, 3)


def test_verify_hypotheses_example1():
    report = km.verify_hypotheses(km.make_example1(0.5), 1000)
    assert report.passed
    assert report.window == 1000
    assert report.defect_report is None  # identically zero defect


def test_verify_hypotheses_example2_with_perturbation():
    s = km.make_example2(0.5, J=2, offset=1, r_star=[1.0, 0.0, 0.0])
    report = km.verify_hypotheses(s, 2000)
    assert report.passed
    assert report.defect_report is not None and report.defect_report.passed
    assert report.perturbation_report is not None and report.perturbation_report.passed
    assert report.defect_window_sum <= 2 + 1e-9
    assert report.perturbation_window_sum <= 2 + 1e-9


def test_verify_hypotheses_flags_range_violation():
    s = km.make_inexact_km(
        beta=lambda n: np.where(np.asarray(n) == 5, 1.2, 0.5),
        weight_divergence=RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE),
        perturbation=None,
        perturbation_cauchy=RateFn.constant(0, RateKind.CAUCHY_MODULUS),
        perturbation_sum_bound=0,
    )
    report = km.verify_hypotheses(s, 100)
    assert not report.passed
    assert any(f.check == "beta_range" and f.index == 5 for f in report.findings)
    # alpha+beta above 1 makes a defect summand negative, and alpha+beta = 0
    # makes the coupling weight 0/0: findings, not exceptions
    base = km.make_example2(0.5, J=2)
    at7 = lambda value, stream: (lambda n: np.where(np.asarray(n) == 7, value, stream(n)))
    over = replace(base, alpha=at7(0.9, base.alpha))
    vanish = replace(base, alpha=at7(0.0, base.alpha), beta=at7(0.0, base.beta))
    for bad, check in ((over, "sum_range"), (vanish, "sum_positive")):
        report = km.verify_hypotheses(bad, 100)
        assert not report.passed
        assert any(f.check == check and f.index == 7 for f in report.findings)


def test_verify_hypotheses_flags_wrong_sum_bound():
    s = km.make_example2(0.5, J=2)
    bad = km.Schedule(
        alpha=s.alpha, beta=s.beta, perturbation=s.perturbation,
        perturbation_norm=s.perturbation_norm, defect_cauchy=s.defect_cauchy,
        weight_divergence=s.weight_divergence,
        perturbation_cauchy=s.perturbation_cauchy,
        defect_sum_bound=0, perturbation_sum_bound=0, family=Family.CUSTOM,
        defect_is_zero=False, perturbation_is_zero=True,
        defect_tail=s.defect_tail)
    report = km.verify_hypotheses(bad, 200)
    assert any(f.check == "defect_sum_bound" for f in report.findings)


def test_schedule_report_serializes():
    report = km.verify_hypotheses(km.make_example2(0.5, J=2), 300)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["coupling_divergence"]["passed"] is True
