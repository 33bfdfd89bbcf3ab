import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.moduli import (
    PreconditionViolation,
    RateFn,
    RateKind,
    ceil_int,
    check_series_cauchy_modulus,
)
from km_rates.schedules import constant_stream


# ---------------------------------------------------------------- ceil_int

def test_ceil_int_plain_values():
    assert ceil_int(2.25) == 3
    assert ceil_int(0.0) == 0
    assert ceil_int(5.0) == 5
    assert ceil_int(-0.5) == 0


def test_ceil_int_snaps_near_integers():
    # a few ulps of noise on either side of 16 must land on 16, not 17
    assert ceil_int(16.000000000000004) == 16
    assert ceil_int(15.999999999999996) == 16


def test_ceil_int_rejects_non_finite():
    with pytest.raises(OverflowError):
        ceil_int(float("inf"))
    with pytest.raises(OverflowError):
        ceil_int(float("nan"))


# ------------------------------------------------------------- rate types

def test_ratefn_rejects_floats_and_negatives():
    bad = RateFn(lambda k: 1.5, RateKind.CAUCHY_MODULUS)
    with pytest.raises(TypeError):
        bad(0)
    neg = RateFn(lambda k: -1, RateKind.CAUCHY_MODULUS)
    with pytest.raises(ValueError):
        neg(0)
    ok = RateFn.affine(2, 1, RateKind.CAUCHY_MODULUS)
    with pytest.raises(ValueError):
        ok(-1)
    assert ok(3) == 7


def test_liminf_modulus_contract_on_concrete_sequence():
    # a_N = 1/(N+1); the window [L, k+L+1] always contains N = max(L, k+1)
    delta = km.LiminfModulus(lambda k, L: k + L + 1)
    a = lambda n: 1.0 / (n + 1)
    for k in range(12):
        for L in range(12):
            window = range(L, delta(k, L) + 1)
            assert any(a(n) < 1.0 / (k + 1) for n in window)


# ------------------------------------------------------ convexity moduli

def test_lp_convexity_modulus_reference_values():
    assert km.lp_convexity_modulus(2, 2) == 0.5
    assert km.lp_convexity_modulus(4, 1) == pytest.approx(1 / 64, abs=0)
    assert km.lp_convexity_modulus(1.5, 1) == pytest.approx(0.0625, abs=0)


def test_lp_convexity_modulus_domain_errors():
    with pytest.raises(ValueError):
        km.lp_convexity_modulus(1.0, 1.0)
    with pytest.raises(ValueError):
        km.lp_convexity_modulus(0.5, 1.0)
    with pytest.raises(ValueError):
        km.lp_convexity_modulus(2.0, 0.0)
    with pytest.raises(ValueError):
        km.lp_convexity_modulus(2.0, 2.5)


def test_lp_modulus_branches_agree_at_p2():
    for i in range(1, 101):
        eps = 2.0 * i / 100
        low = (2.0 - 1.0) * eps * eps / 8.0
        high = eps**2.0 / (2.0 * 2.0**2.0)
        assert abs(low - high) <= 1e-15
        assert km.lp_convexity_modulus(2.0, eps) == high


@pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.7])
def test_lp_modulus_range_and_factorization(p):
    uc = km.lp_modulus(p)
    assert uc.self_check() == []
    for i in range(1, 41):
        eps = 2.0 * i / 40
        assert 0.0 < uc.eval(eps) <= 1.0


def test_hilbert_modulus_flags():
    uc = km.hilbert_modulus()
    assert uc.hilbert and uc.factored
    assert uc.eval(2.0) == 0.5
    assert uc.eval_tilde(2.0) == 0.25


# --------------------------------------------------------- uc transfer

def test_uc_transfer_antipodal_midpoint():
    uc = km.hilbert_modulus()
    assert km.check_uc_transfer(uc, [0, 0], [1, 0], [-1, 0], r=1.0, eps=2.0, lam=0.5)


def test_uc_transfer_lambda_zero_degenerates():
    uc = km.hilbert_modulus()
    assert km.check_uc_transfer(uc, [0.1, 0.2], [0.5, 0.1], [-0.3, 0.4],
                                r=1.0, eps=0.5, lam=0.0)


def test_uc_transfer_precondition_violations_raise():
    uc = km.hilbert_modulus()
    with pytest.raises(PreconditionViolation):
        km.check_uc_transfer(uc, [0, 0], [5, 0], [-1, 0], r=1.0, eps=2.0, lam=0.5)
    with pytest.raises(PreconditionViolation):
        km.check_uc_transfer(uc, [0, 0], [1, 0], [0.9, 0], r=1.0, eps=2.0, lam=0.5)
    with pytest.raises(PreconditionViolation):
        km.check_uc_transfer(uc, [0, 0], [1, 0], [-1, 0], r=-1.0, eps=2.0, lam=0.5)


from conftest import sample_admissible_triples


def test_uc_transfer_monte_carlo_small():
    uc = km.hilbert_modulus()
    for a, x, y, r, eps, lam in sample_admissible_triples(1000, seed=20240501):
        assert km.check_uc_transfer(uc, a, x, y, r, eps, lam)


# --------------------------------------------------- lemma combinators

def test_cauchy_to_rate_values():
    phi = RateFn.affine(1, 0, RateKind.CAUCHY_MODULUS)
    psi = km.cauchy_to_rate(phi)
    assert psi(5) == 6
    assert km.cauchy_to_rate(RateFn.constant(0, RateKind.CAUCHY_MODULUS))(7) == 1
    scaled = RateFn.affine(3, 3, RateKind.CAUCHY_MODULUS)  # ceil(2.5)*(k+1)
    assert km.cauchy_to_rate(scaled)(3) == 13
    with pytest.raises(ValueError):
        km.cauchy_to_rate(RateFn.affine(1, 0, RateKind.RATE_OF_DIVERGENCE))


def test_series_upper_bound_values():
    partial = lambda n: sum(1.0 / (i + 1) ** 2 for i in range(n + 1))
    phi = RateFn.affine(1, 1, RateKind.CAUCHY_MODULUS)
    assert km.series_upper_bound(partial, phi) == 3
    zero = RateFn.constant(0, RateKind.CAUCHY_MODULUS)
    assert km.series_upper_bound(lambda n: 0.0, zero) == 1
    with pytest.raises(ValueError):
        km.series_upper_bound(lambda n: -1.0, zero)
    # the bound really dominates the full series (high-precision tail)
    total = float(np.sum(1.0 / (np.arange(1, 10**6) ** 2)))
    assert total <= 3


def test_combine_cauchy_moduli_values():
    phi1 = RateFn.affine(1, 0, RateKind.CAUCHY_MODULUS)
    phi2 = RateFn.affine(2, 0, RateKind.CAUCHY_MODULUS)
    combined = km.combine_cauchy_moduli(phi1, phi2, 2, 3)
    assert combined(0) == 10  # max(phi1(3), phi2(5))
    sym = km.combine_cauchy_moduli(phi1, phi1, 1, 1)
    for k in range(20):
        assert sym(k) == phi1(2 * k + 1)
    with pytest.raises(ValueError):
        km.combine_cauchy_moduli(phi1, phi2, 0, 1)


def test_combine_cauchy_moduli_contract_brute_force():
    # a_n = b_n = 1/(n+1)^2 with s = t = 1: combined modulus of 2/(n+1)^2
    bundle = km.inverse_square_modulus(1.0, 1)
    combined = km.combine_cauchy_moduli(bundle.modulus, bundle.modulus, 1, 1)
    report = check_series_cauchy_modulus(
        lambda n: 2.0 / (n + 1) ** 2, combined, k_max=50, window=10**4,
        tail_bound=lambda m: 2.0 / (m + 1))
    assert report.passed and report.checked == 51


def test_rate_from_liminf_values():
    delta = km.LiminfModulus(lambda k, L: k + L)
    psi = RateFn.affine(1, 0, RateKind.CAUCHY_MODULUS)
    assert km.rate_from_liminf(delta, psi)(0) == 3
    trivial = km.rate_from_liminf(km.LiminfModulus(lambda k, L: L),
                                  RateFn.constant(0, RateKind.CAUCHY_MODULUS))
    for k in range(10):
        assert trivial(k) == 1


def test_inverse_square_modulus_values():
    b = km.inverse_square_modulus(1.0, 1)
    assert [b.modulus(k) for k in range(3)] == [1, 2, 3]
    assert [b.shifted_modulus(k) for k in range(3)] == [0, 1, 2]
    assert b.sum_bound == 2

    z = km.inverse_square_modulus(0.0, 3)
    assert z.modulus(5) == 0 and z.shifted_modulus(5) == 0 and z.sum_bound == 0

    b2 = km.inverse_square_modulus(2.5, 2)
    assert b2.modulus(0) == 3 and b2.modulus(4) == 15
    assert b2.sum_bound == 2


@pytest.mark.parametrize("scale,offset", [(1.0, 1), (2.5, 2)])
def test_inverse_square_modulus_contract(scale, offset):
    bundle = km.inverse_square_modulus(scale, offset)
    summand = lambda n: scale / (n + offset) ** 2
    tail = lambda m: scale / (m + offset)
    for modulus in (bundle.modulus, bundle.shifted_modulus):
        report = check_series_cauchy_modulus(summand, modulus, k_max=100,
                                             window=2000, tail_bound=tail)
        assert report.passed
    total = sum(summand(n) for n in range(10**5)) + tail(10**5 - 1)
    assert total <= bundle.sum_bound + 1e-9


# ------------------------------------------------------ divergence rates

def test_check_divergence_rate_constant_summand():
    theta = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(constant_stream(0.25), theta, 1000)
    assert report.passed and report.summands_in_unit


def test_check_divergence_rate_growth_contradiction():
    theta = RateFn(lambda n: max(n - 1, 0), RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(constant_stream(0.5), theta, 10)
    assert not report.passed
    assert report.rows[1].growth_ok is False


def test_check_divergence_rate_out_of_unit_disables_growth():
    theta = RateFn(lambda n: max(n - 1, 0), RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(constant_stream(1.5), theta, 5)
    assert not report.summands_in_unit
    assert all(r.growth_ok is None for r in report.rows)
    assert report.rows[0].sum_ok  # 1.5 >= 0


def test_check_divergence_rate_stays_in_window():
    theta = RateFn.affine(4, 1, RateKind.RATE_OF_DIVERGENCE)
    seen = []

    def summand(ns):
        seen.append(int(ns.max(initial=-1)))
        return np.full(ns.shape, 0.25)

    report = km.check_divergence_rate(summand, theta, 1000, window=100)
    assert seen == [97] and report.n_max == 24 and report.passed
    assert [r.n for r in report.rows] == list(range(25))
    # rate(0) = 1 already passes a window of 0: nothing is checked
    empty = km.check_divergence_rate(summand, theta, 10, window=0)
    assert empty.rows == [] and empty.n_max == -1 and seen[-1] == -1


def test_check_divergence_rate_shrinking_weights():
    schedule = km.make_example2(0.5, J=2)
    report = km.check_divergence_rate(schedule.coupling_weight,
                                      schedule.weight_divergence, 100)
    assert report.passed and report.summands_in_unit


# ---------------------------------------------------------- properties

@given(st.integers(0, 200), st.integers(1, 5), st.integers(1, 5),
       st.integers(0, 10), st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_combine_formula_property(k, s, t, a1, a2):
    phi1 = RateFn.affine(a1, 0, RateKind.CAUCHY_MODULUS)
    phi2 = RateFn.affine(a2, 1, RateKind.CAUCHY_MODULUS)
    combined = km.combine_cauchy_moduli(phi1, phi2, s, t)
    assert combined(k) == max(a1 * (2 * s * (k + 1) - 1),
                              a2 * (2 * t * (k + 1) - 1) + 1)


@given(st.floats(1.01, 8.0), st.floats(0.01, 2.0))
@settings(max_examples=200, deadline=None)
def test_lp_modulus_in_unit_interval(p, eps):
    value = km.lp_convexity_modulus(p, eps)
    assert 0.0 < value <= 1.0
