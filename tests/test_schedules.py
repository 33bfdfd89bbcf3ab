import math
from dataclasses import replace

import numpy as np
import pytest

import km_rates as km
from km_rates.moduli import RateFn, RateKind
from km_rates.engine import BLOCK
from km_rates.schedules import (CSV_CHUNK, DIVERGENCE_N_MAX, HYPOTHESES_K_MAX, Window,
                                 constant_stream, held_from, settled_from)

import lemmas

PLANE = km.Space(dim=2)
SPACE3 = km.Space(dim=3)


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
    assert s.defect_series.zero and s.perturbation_series.zero
    assert s.defect_series.bound == 0 and s.perturbation_series.bound == 0
    assert [s.weight_divergence(k) for k in range(3)] == [0, 4, 8]
    assert s.alpha(17) == 0.5 and s.beta(17) == 0.5


def test_example1_with_unit_perturbation():
    s = km.make_example1(0.5, 1, r_star=[1.0, 0.0], norm=PLANE.norm)
    assert s.perturbation_series.bound == 2
    assert [s.perturbation_series.modulus(k) for k in range(3)] == [1, 2, 3]
    assert not s.perturbation_series.zero


def test_subnormal_perturbation_has_a_nonzero_norm():
    """r_star = [1e-316, 1e-316]: its squares underflow, but ||r_n|| is
    nonzero wherever r_n is, in the schedule and in the run's window."""
    s = km.make_example1(0.5, 1, r_star=[1e-316, 1e-316], norm=PLANE.norm)
    n = np.arange(200)
    rows = s.perturbation(n)
    assert rows.any(axis=1).all()
    assert (s.perturbation_norm(n) > 0.0).all()
    assert s.perturbation_norm(0) == pytest.approx(math.sqrt(2) * 1e-316, rel=1e-7)
    traj = km.iterate(PLANE, km.make_operator("rotation", PLANE, {"angle_deg": 90.0}),
                      [1.0, 0.0], s, 50)
    assert (traj.r_norm > 0.0).all()


def test_example1_pointwise_evaluation():
    s = km.make_example1(0.25, 2, r_star=[1.0, 0.0], norm=PLANE.norm)
    assert s.alpha(3) == 0.75
    assert s.beta(3) == 0.25
    np.testing.assert_allclose(s.perturbation(3), [1.0 / 25.0, 0.0])


def test_example2_values():
    s = km.make_example2(0.5, J=2, offset=1)
    assert s.beta(0) == pytest.approx(0.25)
    assert s.alpha(0) + s.beta(0) == pytest.approx(0.75)
    assert s.weight_divergence(0) == 7  # cap*(0+2)-1 with cap=4
    assert s.defect_series.bound == 2
    assert [s.defect_series.modulus(k) for k in range(3)] == [1, 2, 3]


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
        perturbation_series=km.Series(RateFn.constant(0, RateKind.CAUCHY_MODULUS), 0),
    )
    coupling = lemmas.coupling_values(s, 199)
    for n in range(0, 200, 11):
        b = s.beta(n)
        assert abs(coupling[n] - b * (1 - b)) <= 1e-15
        assert s.alpha(n) + s.beta(n) == pytest.approx(1.0, abs=1e-15)


@pytest.mark.parametrize("beta", [0.25, 0.5, 0.7])
def test_classical_km_is_example1_without_perturbation(beta):
    classical, example1 = km.make_classical_km(beta), km.make_example1(beta)
    ns = np.arange(1000, 1300)
    for name in ("alpha", "beta", "perturbation_norm"):
        assert np.array_equal(getattr(classical, name)(ns), getattr(example1, name)(ns)), name
    ks = range(50)
    assert ([classical.weight_divergence(k) for k in ks]
            == [example1.weight_divergence(k) for k in ks])
    for name in ("defect_series", "perturbation_series"):
        a, b = getattr(classical, name), getattr(example1, name)
        assert [a.modulus(k) for k in ks] == [b.modulus(k) for k in ks], name
        assert (a.bound, a.zero) == (b.bound, b.zero), name


@pytest.mark.parametrize("J", [2, 3, 4, 5])
def test_example2_defect_is_inverse_square_series(J):
    defect = km.make_example2(0.5, J=J).defect_series
    series = km.inverse_square_series(1.0, J)
    ks = range(50)
    assert [defect.modulus(k) for k in ks] == [series.modulus(k) for k in ks] == [
        k + 1 for k in ks]
    assert defect.bound == series.bound == 2
    assert [defect.tail(m) for m in ks] == [series.tail(m) for m in ks]
    assert not defect.zero


def test_classical_km_is_inexact_with_zero_perturbation():
    s = km.make_classical_km(0.5)
    assert s.defect_series.zero and s.perturbation_series.zero
    assert s.perturbation_series.bound == 0
    assert [s.weight_divergence(k) for k in range(3)] == [0, 4, 8]
    # the synthesized divergence rate really works: sum_{i<=4k} 1/4 >= k
    window = max(map(s.weight_divergence, range(501)))
    report = km.check_divergence_rate(lemmas.coupling_values(s, window), s.weight_divergence,
                                      500)
    assert report.passed


def test_make_anchor_from_example2_core():
    base = km.make_example2(0.5, J=2)
    s = km.make_anchor(base, [1.0, 0.0, 0.0], norm=SPACE3.norm)
    assert s.perturbation_series.bound == 2  # base bound 2 * ceil(1)
    for k in range(10):
        assert s.perturbation_series.modulus(k) == base.defect_series.modulus(k)
    np.testing.assert_allclose(s.perturbation(0), [0.25, 0.0, 0.0])  # defect(0)*u


def test_make_anchor_scaling():
    base = km.make_example2(0.5, J=2)
    u = [0.0, 2.5, 0.0]
    s = km.make_anchor(base, u, norm=SPACE3.norm)
    assert s.perturbation_series.bound == 6  # 2 * ceil(2.5)
    for k in range(10):
        assert s.perturbation_series.modulus(k) == base.defect_series.modulus(3 * k + 2)


def test_make_anchor_vanishing_defect():
    base = km.make_classical_km(0.5)
    s = km.make_anchor(base, [1.0, 1.0], norm=PLANE.norm)
    assert s.perturbation_series.bound == 0
    assert s.perturbation_series.zero
    assert s.perturbation_norm(5) == 0.0


def test_make_anchor_rejects_zero_direction():
    with pytest.raises(ValueError):
        km.make_anchor(km.make_classical_km(0.5), [0.0, 0.0], norm=PLANE.norm)


@pytest.mark.parametrize("r_star", [[1.0, 0.0], [0.3, -2.5, 1e-3],
                                    np.linspace(-1.0, 1.0, 8).tolist()])
def test_example_perturbation_norm_is_the_space_norm(r_star):
    # the Euclidean default lives in Space; it is the old fallback bit for bit
    from km_rates.operators import _norm2

    ns = np.arange(500)
    for make in (km.make_example1, km.make_example2):
        ours = make(0.5, offset=2, r_star=r_star, norm=km.Space(dim=len(r_star)).norm)
        old = make(0.5, offset=2, r_star=r_star, norm=_norm2)
        assert ours.perturbation_norm(ns).tobytes() == old.perturbation_norm(ns).tobytes()
        with pytest.raises(TypeError, match="norm"):
            make(0.5, offset=2, r_star=r_star)


def test_perturbation_needs_its_norm():
    divergence = RateFn.affine(4, 0, RateKind.RATE_OF_DIVERGENCE)
    with pytest.raises(TypeError, match="perturbation_norm"):
        km.make_inexact_km(0.5, divergence, lambda n: np.zeros(np.shape(n) + (2,)))
    # no perturbation is the zero stream, which needs no norm
    assert km.make_example1(0.5).perturbation_norm(3) == 0.0


@pytest.mark.parametrize("value", [0.0, -0.0, 0.5, 5e-324, math.nan])
@pytest.mark.parametrize("n", [7, np.arange(5)], ids=["scalar", "array"])
def test_constant_stream_keeps_the_bits_of_zeros_plus_value(value, n):
    """One array per call, with the shape and bits that np.zeros(shape) +
    value gave: a -0.0 constant reads +0.0."""
    old = np.zeros(np.shape(n)) + value
    new = constant_stream(value)(n)
    assert np.shape(new) == np.shape(old)
    assert np.asarray(new).tobytes() == np.asarray(old).tobytes()


def test_verify_hypotheses_example1():
    report = km.verify_hypotheses(km.make_example1(0.5), 1000)
    assert report.passed
    assert report.window == 1000
    assert report.defect_report is None  # identically zero defect


def test_verify_hypotheses_example2_with_perturbation():
    s = km.make_example2(0.5, J=2, offset=1, r_star=[1.0, 0.0, 0.0], norm=SPACE3.norm)
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
        perturbation_series=km.Series(RateFn.constant(0, RateKind.CAUCHY_MODULUS), 0),
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
        perturbation_norm=s.perturbation_norm,
        weight_divergence=s.weight_divergence,
        defect_series=km.Series(s.defect_series.modulus, 0, s.defect_series.tail),
        perturbation_series=km.Series(s.perturbation_series.modulus, 0, zero=True))
    report = km.verify_hypotheses(bad, 200)
    assert any(f.check == "defect_sum_bound" for f in report.findings)


def test_verify_hypotheses_flags_declared_zero_and_sum_bounds():
    at = lambda i, value, rest: (lambda n: np.where(np.asarray(n) == i, value, rest(n)))
    zero = lambda n: np.zeros(np.shape(n))
    # both series declared zero; the defect peaks at 7, the norms at 11
    base = km.make_classical_km(0.5)
    declared_zero = replace(base, beta=at(7, 0.4, at(3, 0.45, constant_stream(0.5))),
                            perturbation_norm=at(11, 0.3, at(2, 0.1, zero)))
    report = km.verify_hypotheses(declared_zero, 100)
    assert [(f.check, f.index, f.message) for f in report.findings] == [
        ("defect_zero", 7, "defect declared zero but nonzero at n=7"),
        ("perturbation_zero", 11, "perturbation declared zero but nonzero at n=11")]
    # both series summable but with understated bounds 0
    doc = {"space": {"dim": 2, "norm": "euclidean"},
           "operator": {"name": "identity", "params": {}},
           "start": [1.0, 0.0],
           "schedule": {"family": "custom", "params": {
               "alpha": 0.5, "beta": {"values": [0.3, 0.3, 0.3], "then": 0.5},
               "perturbation": {"inverse_square": {"r_star": [1.0, 0.0], "offset": 1}},
               "defect_cauchy": {"const": 3},
               "weight_divergence": {"affine": {"slope": 8, "intercept": 0}},
               "perturbation_cauchy": {"affine": {"slope": 1, "intercept": 1}},
               "defect_sum_bound": 0, "perturbation_sum_bound": 0}},
           "run": {"horizon": 10, "k_max": 2}}
    understated = km.assemble(km.RunConfig.from_dict(doc)).schedule
    report = km.verify_hypotheses(understated, 100)
    assert [(f.check, f.index, f.message) for f in report.findings] == [
        ("defect_sum_bound", None,
         f"window defect sum {report.defect_window_sum} exceeds bound 0"),
        ("perturbation_sum_bound", None,
         f"window perturbation sum {report.perturbation_window_sum} exceeds bound 0")]
    assert report.defect_window_sum > 0.5 and report.perturbation_window_sum > 1.5


@pytest.mark.parametrize("schedule", [km.make_classical_km(0.5), km.make_example2(0.5, J=2)],
                         ids=["classical_km", "example2"])
def test_verify_hypotheses_reads_each_stream_once(schedule):
    """One call per stream, on exactly [0, n_max]: the premise check reads
    nothing past its window and derives the defect and coupling summands from
    the weights it read."""
    calls = {}

    def counted(name):
        stream = getattr(schedule, name)

        def wrapper(ns):
            calls.setdefault(name, []).append(np.array(ns))
            return stream(ns)

        return wrapper

    n_max = 300
    counted_schedule = replace(schedule, **{name: counted(name) for name in (
        "alpha", "beta", "perturbation", "perturbation_norm")})
    assert km.verify_hypotheses(counted_schedule, n_max).passed
    assert sorted(calls) == ["alpha", "beta", "perturbation_norm"]
    for name, seen in calls.items():
        assert len(seen) == 1, name
        assert seen[0].dtype == np.arange(1).dtype, name
        assert np.array_equal(seen[0], np.arange(n_max + 1)), name


def test_schedule_report_serializes():
    report = km.verify_hypotheses(km.make_example2(0.5, J=2), 300)
    doc = report.to_dict()
    assert doc["passed"] is True
    assert doc["coupling_divergence"]["passed"] is True


def test_verify_hypotheses_caps():
    # a long window: the divergence targets stop at DIVERGENCE_N_MAX and the
    # Cauchy contracts at HYPOTHESES_K_MAX
    report = km.verify_hypotheses(km.make_example2(0.5), 10_000)
    assert report.passed and report.window == 10_000
    assert report.divergence_report.n_max == DIVERGENCE_N_MAX == 2000
    assert len(report.defect_report.rows) == HYPOTHESES_K_MAX + 1 == 21


@pytest.mark.parametrize("schedule", [
    km.make_example2(0.5, J=2, r_star=[0.5, 0.0], norm=np.linalg.norm),
    km.make_anchor(km.make_example2(0.3, J=3), [1.0, -0.5], np.linalg.norm),
    replace(km.make_classical_km(0.5), beta=lambda n: 0.5 + 0.6 * (np.asarray(n) == 7)),
], ids=["example2", "anchor", "out-of-range"])
def test_verify_hypotheses_on_a_given_window_matches_its_own_read(schedule):
    n_max = 2500
    read = km.verify_hypotheses(schedule, n_max).to_dict()
    given = km.verify_hypotheses(schedule, n_max, Window.read(schedule, n_max)).to_dict()
    assert repr(read) == repr(given)


#: r_star vectors whose coordinates are normal, subnormal (some underflow to
#: zero within the horizons below, plateaus first), zero and -0.0
R_STARS = [[0.25, -1e-300], [1.5, 0.0], [1e-317, -0.0], [-3e-318, 2e-320], [5e-324, 1e-316],
           [0.0, -0.0], [-1e-317, 0.75]]


@pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, BLOCK + 1,
                                     CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1])
@pytest.mark.parametrize("offset", [1, 2, 3, 4])
def test_inverse_square_settled_index_is_that_of_a_scan(offset, horizon):
    """The settled index an inverse-square perturbation and its norms
    declare, by one bisection, against :func:`held_from` over their whole
    rows and norms on [0, horizon]."""
    ns = np.arange(horizon + 1)
    for r_star in R_STARS:
        for stream in km.schedules.inverse_square_perturbation(r_star, offset, PLANE.norm)[:2]:
            assert settled_from(stream, horizon) == held_from(stream(ns)), (r_star, stream)


def test_subnormal_perturbation_settles_mid_window():
    """r_star = [1e-316, 0] at H = 30 000 declares 6362; the verify config of
    it ends its walk at 6399, the end of the first block of 256 points from
    there whose last point repeats, where it settles."""
    doc = {"space": {"dim": 2, "norm": "euclidean"},
           "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
           "start": [1.0, 0.0],
           "schedule": {"family": "example1", "params": {"lam": 0.5, "r_star": [1e-316, 0.0]}},
           "run": {"horizon": 30_000, "k_max": 15}}
    inst = km.assemble(km.RunConfig.from_dict(doc))
    schedule = inst.schedule
    assert [settled_from(s, 30_000) for s in (schedule.perturbation,
                                              schedule.perturbation_norm)] == [6362, 6362]
    traj = km.iterate(inst.space, inst.operator, inst.start, schedule, 30_000)
    assert traj.res_T.size == 6400 and traj.settled == 6399
