from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.certificates import (
    CertificateOverflow,
    InstanceConstants,
    make_liminf_modulus,
    make_step_rate,
    select_threshold,
)
from km_rates.moduli import ZERO_CAUCHY as ZERO
from km_rates.moduli import RateFn, RateKind, UcModulus

from conftest import example1_certificate, example1_oracle, example2_oracle

HILBERT = km.hilbert_modulus()
CLASSICAL = km.make_certificate(InstanceConstants(1, 0, 0),
                                km.make_classical_km(0.5), HILBERT)


def inexact_certificate(b, r, weight_divergence, perturbation_cauchy):
    """Certificate of an alpha = 1 - beta schedule with start bound b and
    perturbation sum bound r."""
    schedule = km.make_inexact_km(0.5, weight_divergence, None,
                                  km.Series(perturbation_cauchy, r))
    return km.make_certificate(InstanceConstants(b, 0, r), schedule, HILBERT)


def example2_certificate(b, c):
    schedule = km.make_example2(0.5, 2, 1, r_star=[float(c), 0.0] if c else None,
                                norm=km.Space(dim=2).norm)
    return km.make_certificate(InstanceConstants(b, 2, 2 * c), schedule, HILBERT)


def test_instance_constants_basic():
    s = km.make_classical_km(0.5)
    c = km.instance_constants([1.0, 0.0], [0.0, 0.0], s, norm=km.Space(dim=2).norm)
    assert (c.start_bound, c.dist_bound, c.norm_bound) == (1, 1, 2)


def test_instance_constants_degenerate_start():
    s = km.make_classical_km(0.5)
    c = km.instance_constants([0.0, 0.0], [0.0, 0.0], s, norm=km.Space(dim=2).norm)
    assert c.start_bound == 1  # stays positive even at the fixed point
    assert c.dist_bound == 1 and c.norm_bound == 2


def test_instance_constants_with_series_bounds():
    c = InstanceConstants(1, 2, 2)
    assert c.dist_bound == 5 and c.norm_bound == 6


def test_instance_constants_validation():
    with pytest.raises(ValueError):
        InstanceConstants(0, 0, 0)
    with pytest.raises(ValueError):
        InstanceConstants(1, -1, 0)  # series bounds must be nonnegative


def test_weight_threshold_hilbert_cubic():
    c = InstanceConstants(1, 0, 0)
    thr = km.weight_threshold(c, HILBERT)
    for k in range(25):
        assert thr(k) == 16 * (k + 1) ** 3
    assert thr(1) == 128


def test_weight_threshold_degenerate_modulus():
    c = InstanceConstants(2, 1, 1)
    flat = UcModulus(eta=lambda e: 1.0, name="flat")
    thr = km.weight_threshold(c, flat)
    num = c.threshold_numerator
    for k in range(10):
        assert thr(k) == num * (k + 1)


def test_weight_threshold_factored_quadratic():
    c = InstanceConstants(1, 0, 0)
    thr = km.weight_threshold_factored(c, HILBERT)
    for k in range(25):
        assert thr(k) == 8 * (k + 1) ** 2
    half = UcModulus(eta=lambda e: e / 2.0, name="half",
                     eta_tilde=lambda e: 0.5)
    thr2 = km.weight_threshold_factored(c, half)
    for k in range(10):
        assert thr2(k) == c.threshold_numerator * (k + 1)


def test_weight_threshold_factored_needs_factorization():
    c = InstanceConstants(1, 0, 0)
    bare = UcModulus(eta=lambda e: e * e / 8.0, name="bare")
    with pytest.raises(ValueError):
        km.weight_threshold_factored(c, bare)


def test_hilbert_agreement_small_grid():
    # double-precision factored path equals the integer closed form
    for b in (1, 2, 3):
        for d in (0, 1, 2, 3):
            for r in (0, 1, 2, 3):
                c = InstanceConstants(b, d, r)
                float_path = km.weight_threshold_factored(c, HILBERT)
                closed = km.hilbert_threshold(c)
                for k in range(0, 101, 7):
                    assert float_path(k) == closed(k)


def test_threshold_overflow_on_vanishing_modulus():
    c = InstanceConstants(1, 0, 0)
    thr = km.weight_threshold(c, km.lp_modulus(400.0))
    with pytest.raises(CertificateOverflow):
        thr(1000)


def test_residual_rate_classical_km_values():
    cert = CLASSICAL
    assert [cert.residual_rate(k) for k in range(4)] == [132, 516, 1156, 2052]
    for k in range(40):
        assert cert.residual_rate(k) == 128 * (k + 1) ** 2 + 4


def test_residual_rate_degenerate_moduli():
    c = InstanceConstants(1, 0, 0)
    identity_rate = RateFn.affine(1, 0, RateKind.RATE_OF_DIVERGENCE)
    zero_thr = RateFn.constant(0, RateKind.THRESHOLD)
    rate = km.rate_from_liminf(make_liminf_modulus(zero_thr, identity_rate),
                               km.combine_cauchy_moduli(ZERO, ZERO, 2 * c.norm_bound, 2))
    for k in range(10):
        assert rate(k) == 1


def test_step_rate_is_residual_at_doubled_index():
    cert = CLASSICAL
    assert cert.step_rate(0) == 516
    for k in range(60):
        assert cert.step_rate(k) == cert.residual_rate(2 * k + 1)
    const = RateFn.constant(9, RateKind.RATE_OF_CONVERGENCE)
    stepped = make_step_rate(const)
    assert stepped(5) == 9


def test_liminf_modulus_values():
    c = InstanceConstants(1, 0, 0)
    sigma2 = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    delta = make_liminf_modulus(km.weight_threshold(c, HILBERT), sigma2)
    assert delta(0, 0) == 64  # 4 * 16
    trivial = make_liminf_modulus(RateFn.constant(0, RateKind.THRESHOLD),
                                  RateFn.affine(1, 0, RateKind.RATE_OF_DIVERGENCE))
    for k in range(5):
        for L in range(5):
            assert trivial(k, L) == L


def test_liminf_modulus_evaluates_each_threshold_once():
    """The 9 x 9 grid of the liminf check reads threshold(k) once per k, with
    the values of the uncached composition; a threshold that raises raises
    on every call."""
    calls = []
    threshold = km.weight_threshold(InstanceConstants(2, 0, 0), HILBERT)
    counted = RateFn(lambda k: calls.append(k) or threshold(k), RateKind.THRESHOLD)
    sigma2 = RateFn.affine(4, 1, RateKind.RATE_OF_DIVERGENCE)
    delta = make_liminf_modulus(counted, sigma2)
    for _ in range(2):
        assert [[delta(k, L) for L in range(9)] for k in range(9)] == [
            [sigma2(threshold(k) + L) for L in range(9)] for k in range(9)]
    assert calls == list(range(9))

    def overflow(k):
        calls.append(k)
        raise CertificateOverflow("no threshold")

    failing = make_liminf_modulus(RateFn(overflow, RateKind.THRESHOLD), sigma2)
    calls.clear()
    for L in range(3):
        with pytest.raises(CertificateOverflow):
            failing(1, L)
    assert calls == [1, 1, 1]


def test_inexact_km_certificate_thresholds():
    sigma2 = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    cert0 = inexact_certificate(1, 0, sigma2, ZERO)
    assert cert0.threshold(1) == 32  # 8*(k+1)^2 at k=1
    cert2 = inexact_certificate(1, 2, sigma2, RateFn.affine(1, 1, RateKind.CAUCHY_MODULUS))
    assert cert2.threshold(0) == 72  # 4*(b+M_r)*(b+2M_r+1) = 4*3*6


def test_classical_reduction_matches_inexact_with_zero_perturbation():
    classical = CLASSICAL
    assert classical.formula == "hilbert"
    sigma2 = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    inexact = inexact_certificate(1, 0, sigma2, ZERO)
    for k in range(50):
        assert classical.residual_rate(k) == 4 * (classical.threshold(2 * k + 1) + 1)
        assert classical.residual_rate(k) == inexact.residual_rate(k)


def test_example1_certificate_hilbert_closed_forms():
    cert = example1_certificate(1, 0)
    for k in range(60):
        assert cert.residual_rate(k) == 128 * (k + 1) ** 2 + 4
        assert cert.step_rate(k) == 512 * (k + 1) ** 2 + 4
    assert cert.residual_rate(0) == 132 and cert.step_rate(0) == 516

    perturbed = example1_certificate(1, 1)
    assert perturbed.residual_rate(0) == 1188  # 16*4*3*6 + 8*4 + 4


def test_example1_general_path_agrees_exactly():
    # the moduli composition reproduces the paper's constant-weight closed form
    for b in (1, 2, 3):
        for c in (0, 1, 2):
            cert = example1_certificate(b, c)
            residual, step = example1_oracle(cert.threshold, 4, c)
            for k in range(101):
                assert cert.residual_rate(k) == residual(k)
                assert cert.step_rate(k) == step(k)


def test_example2_certificate_values():
    cert = example2_certificate(1, 0)
    assert cert.residual_rate(0) == 1291
    assert cert.step_rate(0) == 4875
    # closed form 16*cap*M1*(k+1)^2 + 16*cap*M2*(k+1) + 3*cap - 1
    for k in range(40):
        assert cert.residual_rate(k) == 1152 * (k + 1) ** 2 + 128 * (k + 1) + 11
        assert cert.step_rate(k) == 4608 * (k + 1) ** 2 + 256 * (k + 1) + 11


def test_example2_parts_agree_with_general_path():
    # the moduli composition reproduces the paper's shrinking-weight closed form
    for b in (1, 2):
        for c in (0, 1):
            cert = example2_certificate(b, c)
            residual, step = example2_oracle(cert.threshold, 4, b, c)
            for k in range(51):
                assert cert.residual_rate(k) == residual(k)
                assert cert.step_rate(k) == step(k)


def test_example2_validation():
    doc = {"space": {"dim": 2}, "operator": {"name": "identity"}, "start": [1.0, 0.0],
           "schedule": {"family": "example2", "params": {"lam": 0.8, "J": 2}}}
    with pytest.raises(km.ConfigError):
        km.assemble(km.RunConfig.from_dict(doc))
    doc["schedule"]["params"] = {"lam": 0.5, "J": 1}
    with pytest.raises(km.ConfigError):
        km.assemble(km.RunConfig.from_dict(doc))


def test_general_certificate_routes():
    s = km.make_classical_km(0.5)
    c = InstanceConstants(1, 0, 0)
    auto = km.make_certificate(c, s, HILBERT)
    assert auto.formula == "hilbert"
    # cross-check: the double-precision factored route gives the same rates
    factored = km.make_certificate(c, s, HILBERT, route="factored")
    assert factored.formula == "factored"
    for k in range(30):
        assert auto.residual_rate(k) == factored.residual_rate(k)
        assert auto.step_rate(k) == factored.step_rate(k)
    direct = km.make_certificate(c, s, HILBERT, route="general")
    assert direct.formula == "general"
    # the direct route uses the unfactored modulus and is coarser
    assert direct.residual_rate(0) == 516
    with pytest.raises(ValueError):
        km.make_certificate(c, s, UcModulus(eta=lambda e: e * e / 8.0), route="hilbert")
    with pytest.raises(ValueError):
        km.make_certificate(c, s, HILBERT, route="example1")


def test_select_threshold_prefers_closed_form():
    c = InstanceConstants(1, 0, 0)
    thr, tag = select_threshold(c, HILBERT)
    assert tag == "hilbert"
    thr_lp, tag_lp = select_threshold(c, km.lp_modulus(3.0))
    assert tag_lp == "factored"
    bare = UcModulus(eta=lambda e: e * e / 8.0)
    _, tag_bare = select_threshold(c, bare)
    assert tag_bare == "general"


def test_hilbert_route_needs_the_euclidean_modulus_itself():
    # an equal copy of the Euclidean modulus is an ordinary factored modulus
    c = InstanceConstants(1, 0, 0)
    copy = replace(HILBERT, name="copy")
    _, formula = select_threshold(c, copy)
    assert formula == "factored"
    with pytest.raises(ValueError, match="needs the Euclidean modulus"):
        select_threshold(c, copy, route="hilbert")
    with pytest.raises(ValueError, match="needs the Euclidean modulus"):
        km.make_certificate(c, km.make_classical_km(0.5), copy, route="hilbert")


def test_divergence_rate_growth_for_constructed_schedules():
    # needed by the step-rate argument: the divergence rate dominates the identity
    for schedule in (km.make_classical_km(0.5), km.make_example1(0.3),
                     km.make_example2(0.5, J=2)):
        sigma2 = schedule.weight_divergence
        for k in range(0, 1001, 13):
            assert sigma2(k) >= k


def test_certificate_monotone_in_instance_bounds():
    sigma2 = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    sigma3 = RateFn.affine(1, 1, RateKind.CAUCHY_MODULUS)
    for k in (0, 1, 5):
        prev = None
        for b in (1, 2, 3, 4):
            cert = inexact_certificate(b, 1, sigma2, sigma3)
            value = cert.residual_rate(k)
            if prev is not None:
                assert value >= prev
            prev = value
        prev = None
        for r in (0, 1, 2, 3):
            cert = inexact_certificate(2, r, sigma2, sigma3)
            value = cert.residual_rate(k)
            if prev is not None:
                assert value >= prev
            prev = value
        prev = None
        for d in (0, 1, 2, 3):
            c = InstanceConstants(2, d, 1)
            s = km.make_example2(0.5, J=2)
            cert = km.make_certificate(c, s, HILBERT)
            value = cert.residual_rate(k)
            if prev is not None:
                assert value >= prev
            prev = value


def test_step_series_modulus_diagnostic():
    def step_series_modulus(cert, schedule):
        """The Cauchy modulus of the residual increments
        2*norm_bound*defect_n + 2*||r_n||."""
        return km.combine_cauchy_moduli(schedule.defect_series.modulus,
                                        schedule.perturbation_series.modulus,
                                        2 * cert.constants.norm_bound, 2)

    classical = step_series_modulus(CLASSICAL, km.make_classical_km(0.5))
    assert all(classical(k) == 0 for k in range(10))

    ex2 = example2_certificate(1, 0)
    s2 = km.make_example2(0.5, J=2)
    increments = step_series_modulus(ex2, s2)
    # norm bound 4, unperturbed: max(defect modulus at 16(k+1)-1, 0) = 16(k+1)
    for k in range(10):
        assert increments(k) == 16 * (k + 1)
    # the residual rate is exactly the divergence rate of the composed argument
    for k in range(20):
        arg = ex2.threshold(2 * k + 1) + increments(2 * k + 1) + 1
        assert ex2.residual_rate(k) == s2.weight_divergence(arg)


def test_certificate_table_serialization():
    doc = CLASSICAL.to_dict(3)
    assert set(doc) == {"formula", "constants", "table"}
    assert doc["formula"] == "hilbert"
    assert [row["residual_rate"] for row in doc["table"]] == [132, 516, 1156, 2052]
    assert doc["constants"]["dist_bound"] == 1


@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 4), st.integers(0, 300))
@settings(max_examples=150, deadline=None)
def test_hilbert_closed_form_property(b, d, r, k):
    c = InstanceConstants(b, d, r)
    assert km.weight_threshold_factored(c, HILBERT)(k) == km.hilbert_threshold(c)(k)


@given(st.integers(0, 100))
@settings(max_examples=80, deadline=None)
def test_step_rate_composition_property(k):
    s = km.make_example2(0.5, J=2)
    c = InstanceConstants(2, 2, 0)
    cert = km.make_certificate(c, s, HILBERT)
    assert cert.step_rate(k) == cert.residual_rate(2 * k + 1)


@given(family=st.sampled_from(["example1", "example2"]), b=st.integers(1, 5),
       c=st.integers(0, 3), lam=st.floats(0.05, 0.95), J=st.integers(2, 6),
       p=st.sampled_from([None, 3.0, 1.5]), k=st.integers(0, 200))
@settings(max_examples=150, deadline=None)
def test_family_certificates_match_paper_closed_forms(family, b, c, lam, J, p, k):
    if family == "example2":
        assume(lam < (J * J - 1.0) / (J * J))
    # start and r_star lie on the first axis, so their norms are the same in
    # every p-norm and round up to b and c
    params = {"lam": lam, "offset": 1, "r_star": [c - 0.25, 0.0] if c else None}
    if family == "example2":
        params["J"] = J
    doc = {
        "space": {"dim": 2, "norm": "euclidean"} if p is None
        else {"dim": 2, "norm": "lp", "p": p},
        "operator": {"name": "identity"},
        "start": [b - 0.5, 0.0],
        "schedule": {"family": family, "params": params},
    }
    cert = km.assemble(km.RunConfig.from_dict(doc)).certificate
    cap = km.coupling_cap(lam)
    if family == "example1":
        constants = InstanceConstants(b, 0, 2 * c)
        residual, step = example1_oracle(cert.threshold, cap, c)
    else:
        constants = InstanceConstants(b, 2, 2 * c)
        residual, step = example2_oracle(cert.threshold, cap, b, c)
    assert cert.constants == constants
    if p is None:
        m0, num = constants.dist_bound, constants.threshold_numerator
        assert cert.threshold(k) == 4 * m0 * num * (k + 1) ** 2
    else:
        assert cert.threshold(k) == km.weight_threshold_factored(constants, km.lp_modulus(p))(k)
    assert cert.residual_rate(k) == residual(k)
    assert cert.step_rate(k) == step(k)
