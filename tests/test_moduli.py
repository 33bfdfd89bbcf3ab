import itertools
import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.moduli import (
    CHECK_TOL,
    PreconditionViolation,
    RateFn,
    RateKind,
    ceil_int,
    check_series_cauchy_modulus,
)

import lemmas


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


def test_liminf_modulus_checks_L_as_it_checks_k():
    delta = RateFn(lambda k, L: k + L, RateKind.LIMINF_MODULUS)
    for k, L in ((1.0, 2), (1, 2.0)):
        with pytest.raises(TypeError, match="exact integer"):
            delta(k, L)
    for k, L in ((-1, 2), (1, -2)):
        with pytest.raises(ValueError, match="natural number"):
            delta(k, L)
    with pytest.raises(ValueError, match="natural number"):
        RateFn(lambda k, L: -1, RateKind.LIMINF_MODULUS)(0, 0)
    assert delta(3, 4) == 7


def test_liminf_modulus_contract_on_concrete_sequence():
    # a_N = 1/(N+1); the window [L, k+L+1] always contains N = max(L, k+1)
    delta = RateFn(lambda k, L: k + L + 1, RateKind.LIMINF_MODULUS)
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
    assert lemmas.uc_self_check(uc) == []
    for i in range(1, 41):
        eps = 2.0 * i / 40
        assert 0.0 < uc.eval(eps) <= 1.0


def test_hilbert_modulus_flags():
    uc = km.hilbert_modulus()
    assert uc is km.hilbert_modulus() and uc.factored
    assert km.lp_modulus(2.0) is uc
    assert uc.eval(2.0) == 0.5
    assert uc.eval_tilde(2.0) == 0.25


# --------------------------------------------------------- uc transfer

PLANE = km.Space(dim=2)


def test_uc_transfer_antipodal_midpoint():
    uc = km.hilbert_modulus()
    assert lemmas.check_uc_transfer(uc, [0, 0], [1, 0], [-1, 0], r=1.0, eps=2.0, lam=0.5,
                                    norm=PLANE.norm)


def test_uc_transfer_lambda_zero_degenerates():
    uc = km.hilbert_modulus()
    assert lemmas.check_uc_transfer(uc, [0.1, 0.2], [0.5, 0.1], [-0.3, 0.4],
                                    r=1.0, eps=0.5, lam=0.0, norm=PLANE.norm)


def test_uc_transfer_precondition_violations_raise():
    uc = km.hilbert_modulus()
    with pytest.raises(PreconditionViolation):
        lemmas.check_uc_transfer(uc, [0, 0], [5, 0], [-1, 0], r=1.0, eps=2.0, lam=0.5,
                                 norm=PLANE.norm)
    with pytest.raises(PreconditionViolation):
        lemmas.check_uc_transfer(uc, [0, 0], [1, 0], [0.9, 0], r=1.0, eps=2.0, lam=0.5,
                                 norm=PLANE.norm)
    with pytest.raises(PreconditionViolation):
        lemmas.check_uc_transfer(uc, [0, 0], [1, 0], [-1, 0], r=-1.0, eps=2.0, lam=0.5,
                                 norm=PLANE.norm)


from conftest import sample_admissible_triples


def test_uc_transfer_monte_carlo_small():
    uc = km.hilbert_modulus()
    norm = km.Space(dim=3).norm
    for a, x, y, r, eps, lam in sample_admissible_triples(1000, seed=20240501):
        assert lemmas.check_uc_transfer(uc, a, x, y, r, eps, lam, norm)


# --------------------------------------------------- lemma combinators

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
    modulus = km.inverse_square_modulus(1.0, 1)
    combined = km.combine_cauchy_moduli(modulus, modulus, 1, 1)
    report = check_series_cauchy_modulus(
        2.0 / (np.arange(10**4 + 1) + 1) ** 2, combined, k_max=50,
        tail_bound=lambda m: 2.0 / (m + 1))
    assert report.passed and report.checked == 51


def test_series_check_holds_one_prefix_sum_array():
    """The prefix sums are one window-sized array, with the bits of 0.0
    followed by ``np.cumsum(terms)``."""
    terms = 1.0 / (np.arange(100_101) + 1.0) ** 2
    modulus = km.inverse_square_modulus(1.0, 1)
    tracemalloc.start()
    try:
        report = check_series_cauchy_modulus(terms, modulus, k_max=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * terms.nbytes, (peak, terms.nbytes)
    sums = np.concatenate([[0.0], np.cumsum(terms)])
    assert [row.tail_gap for row in report.rows] == [
        float(sums[-1]) - float(sums[modulus(k) + 1]) + 0.0 for k in range(21)]


def test_rate_from_liminf_values():
    delta = RateFn(lambda k, L: k + L, RateKind.LIMINF_MODULUS)
    psi = RateFn.affine(1, 0, RateKind.CAUCHY_MODULUS)
    assert km.rate_from_liminf(delta, psi)(0) == 3
    trivial = km.rate_from_liminf(RateFn(lambda k, L: L, RateKind.LIMINF_MODULUS),
                                  RateFn.constant(0, RateKind.CAUCHY_MODULUS))
    for k in range(10):
        assert trivial(k) == 1


def test_inverse_square_modulus_values():
    b = km.inverse_square_modulus(1.0, 1)
    assert [b(k) for k in range(3)] == [1, 2, 3]
    assert [lemmas.shifted_inverse_square_modulus(1.0, 1)(k) for k in range(3)] == [0, 1, 2]
    assert lemmas.inverse_square_sum_bound(1.0, 1) == 2

    z = km.inverse_square_modulus(0.0, 3)
    assert (z(5) == 0 and lemmas.shifted_inverse_square_modulus(0.0, 3)(5) == 0
            and lemmas.inverse_square_sum_bound(0.0, 3) == 0)

    b2 = km.inverse_square_modulus(2.5, 2)
    assert b2(0) == 3 and b2(4) == 15
    assert lemmas.inverse_square_sum_bound(2.5, 2) == 2


@pytest.mark.parametrize("scale,offset", [(1.0, 1), (2.5, 2)])
def test_inverse_square_modulus_contract(scale, offset):
    summand = lambda n: scale / (n + offset) ** 2
    tail = lambda m: scale / (m + offset)
    for modulus in (km.inverse_square_modulus(scale, offset),
                    lemmas.shifted_inverse_square_modulus(scale, offset)):
        report = check_series_cauchy_modulus(summand(np.arange(2001)), modulus, k_max=100,
                                             tail_bound=tail)
        assert report.passed
    total = sum(summand(n) for n in range(10**5)) + tail(10**5 - 1)
    assert total <= lemmas.inverse_square_sum_bound(scale, offset) + 1e-9


# ------------------------------------------------------ divergence rates

def test_check_divergence_rate_constant_summand():
    theta = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(np.full(max(map(theta, range(1001))) + 1, 0.25),
                                      theta, 1000)
    assert report.passed and report.summands_in_unit


def test_check_divergence_rate_growth_contradiction():
    theta = RateFn(lambda n: max(n - 1, 0), RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(np.full(max(map(theta, range(11))) + 1, 0.5),
                                      theta, 10)
    assert not report.passed
    first = report.to_dict()["failures"][0]
    assert first["n"] == 1 and first["rate_value"] == 0 and first["growth_ok"] is False


def test_check_divergence_rate_out_of_unit_disables_growth():
    theta = RateFn(lambda n: max(n - 1, 0), RateKind.RATE_OF_DIVERGENCE)
    report = km.check_divergence_rate(np.full(max(map(theta, range(6))) + 1, 1.5),
                                      theta, 5)
    assert not report.summands_in_unit
    # rate(n) < n from n = 1 on, yet every sum check passes and so does the report
    assert (report.rate_values < np.arange(6))[1:].all() and report.sum_ok.all()
    assert report.passed and report.to_dict()["failures"] == []
    assert report.partials[0] == 1.5  # 1.5 >= 0


def test_check_divergence_rate_stays_in_window():
    theta = RateFn.affine(4, 1, RateKind.RATE_OF_DIVERGENCE)
    terms = np.full(101, 0.25)  # the window [0, 100]

    report = km.check_divergence_rate(terms, theta, 1000)
    assert report.n_max == 24 and report.passed
    assert report.rate_values.tolist() == [4 * n + 1 for n in range(25)]
    # rate(0) = 1 already passes a window of 0: nothing is checked
    empty = km.check_divergence_rate(terms[:1], theta, 10)
    assert empty.rate_values.size == 0 and empty.n_max == -1


def _divergence_rows(terms, rate, n_max):
    """The report's rows by their definition, one dict per target, and
    whether the summands checked lie in [0, 1)."""
    sums = np.cumsum(np.asarray(terms, dtype=float))
    values = list(itertools.takewhile(lambda rv: rv < len(terms), map(rate, range(n_max + 1))))
    window = np.asarray(terms[:max(values, default=-1) + 1], dtype=float)
    in_unit = bool(np.all((window >= 0.0) & (window < 1.0)))
    return [{"n": n, "rate_value": rv, "partial_sum": float(sums[rv]),
             "sum_ok": bool(sums[rv] >= n - CHECK_TOL),
             "growth_ok": (rv >= n) if in_unit else None}
            for n, rv in enumerate(values)], in_unit


_SHIFTED = RateFn(lambda n: max(n - 1, 0), RateKind.RATE_OF_DIVERGENCE)  # rate(n) < n
_DIVERGENCE_CASES = {
    # the sum fails from n = 1 on: 100 failures, 20 listed
    "sum-fails": (np.full(200, 0.25), RateFn.affine(1, 0, RateKind.RATE_OF_DIVERGENCE), 100),
    # the growth check alone fails, each sum short of n by less than the tolerance
    "growth-fails": (np.full(60, 1.0 - 1e-12), _SHIFTED, 50),
    "both-fail": (np.full(12, 0.5), _SHIFTED, 10),
    # summands outside [0, 1): no growth check, so rate(n) < n passes
    "outside-unit": (np.full(30, 1.5), _SHIFTED, 25),
    "negative-summands": (np.linspace(-0.5, 0.9, 40),
                          RateFn.affine(2, 0, RateKind.RATE_OF_DIVERGENCE), 30),
    # a passing rate cut by the window, and an empty window
    "window-cut": (np.full(101, 0.25), RateFn.affine(4, 1, RateKind.RATE_OF_DIVERGENCE), 1000),
    "empty": (np.full(1, 0.25), RateFn.affine(4, 1, RateKind.RATE_OF_DIVERGENCE), 10),
}


@pytest.mark.parametrize("case", list(_DIVERGENCE_CASES))
def test_divergence_report_matches_its_rows(case):
    """The array-backed report holds the rows of the definition and gives
    their verdict and first 20 failures."""
    terms, rate, n_max = _DIVERGENCE_CASES[case]
    rows, in_unit = _divergence_rows(terms, rate, n_max)
    failures = [r for r in rows if not (r["sum_ok"] and r["growth_ok"] is not False)]
    report = km.check_divergence_rate(terms, rate, n_max)
    assert report.n_max == len(rows) - 1 and report.summands_in_unit is in_unit
    assert report.rate_values.tolist() == [r["rate_value"] for r in rows]
    assert report.partials.tolist() == [r["partial_sum"] for r in rows]
    assert report.sum_ok.tolist() == [r["sum_ok"] for r in rows]
    assert report.passed is (not failures)
    expected = {"n_max": len(rows) - 1, "passed": not failures, "summands_in_unit": in_unit,
                "failures": failures[:20]}
    assert json.dumps(report.to_dict()) == json.dumps(expected)
    # what each case is there for
    if case == "sum-fails":
        assert len(failures) > 20 and all(r["growth_ok"] for r in rows)
    elif case == "growth-fails":
        assert failures and all(r["sum_ok"] for r in rows)
    elif case in ("outside-unit", "negative-summands"):
        assert not in_unit and all(r["growth_ok"] is None for r in rows)
    elif case == "empty":
        assert rows == [] and report.passed


def _called_targets(rate, n_max, length):
    """The targets by calling the rate once per n until a value leaves the
    window."""
    return list(itertools.takewhile(lambda rv: rv < length, map(rate, range(n_max + 1))))


#: coefficients around the window, the index range and 2^64
_COEFFICIENTS = st.sampled_from([0, 1, 2, 3, 7, 63, 64, 99, 100, 101, 2**62, 2**63 - 1, 2**63,
                                 2**64 + 1, 10**30]) | st.integers(0, 200)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(slope=_COEFFICIENTS, intercept=_COEFFICIENTS, n_max=st.integers(0, 300),
       length=st.integers(0, 400))
def test_affine_divergence_targets_match_the_calls(slope, intercept, n_max, length):
    """An affine or constant rate's targets are one array expression: the
    values and the count of the per-call loop, as an index array, for
    coefficients past 2^63 too.  A quadratic rate takes the loop itself."""
    for rate in (RateFn.affine(slope, intercept, RateKind.RATE_OF_DIVERGENCE),
                 RateFn.constant(intercept, RateKind.RATE_OF_DIVERGENCE)):
        assert rate.coefficients is not None
        targets = km.moduli.divergence_targets(rate, n_max, length)
        assert targets.dtype == np.intp
        assert targets.tolist() == _called_targets(rate, n_max, length)
    # a rate with no coefficients takes the per-call loop
    calls = []
    quadratic = RateFn(lambda n: calls.append(n) or slope * n * n + intercept,
                       RateKind.RATE_OF_DIVERGENCE)
    targets = km.moduli.divergence_targets(quadratic, n_max, length).tolist()
    assert calls == list(range(min(len(targets) + 1, n_max + 1)))
    assert targets == _called_targets(quadratic, n_max, length)


def test_divergence_targets_edges_and_the_fallback():
    affine = RateFn.affine(3, 5, RateKind.RATE_OF_DIVERGENCE)
    targets = km.moduli.divergence_targets
    assert targets(affine, 0, 6).tolist() == [5]
    assert targets(affine, 10, 5).tolist() == []            # intercept >= length
    assert targets(affine, 10, 9).tolist() == [5, 8]
    constant = RateFn.constant(4, RateKind.RATE_OF_DIVERGENCE)
    assert targets(constant, 3, 5).tolist() == [4] * 4      # slope 0
    assert targets(RateFn.affine(2**70, 1, RateKind.RATE_OF_DIVERGENCE), 9, 2).tolist() == [1]
    assert targets(RateFn.affine(1, 2**70, RateKind.RATE_OF_DIVERGENCE), 9, 2).tolist() == []
    # a rate with no coefficients is called once per target until one leaves
    # the window; replace keeps the coefficients, composition drops them
    calls = []
    opaque = RateFn(lambda n: calls.append(n) or 3 * n + 5, RateKind.RATE_OF_DIVERGENCE)
    assert opaque.coefficients is None
    assert targets(opaque, 10, 15).tolist() == [5, 8, 11, 14] and calls == [0, 1, 2, 3, 4]
    assert replace(affine, description="kept").coefficients == (3, 5)
    with pytest.raises(ValueError, match="rate of divergence"):
        targets(RateFn.affine(1, 0, RateKind.CAUCHY_MODULUS), 3, 5)


def test_check_divergence_rate_shrinking_weights():
    schedule = km.make_example2(0.5, J=2)
    window = max(map(schedule.weight_divergence, range(101)))
    report = km.check_divergence_rate(lemmas.coupling_values(schedule, window),
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
