import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates import verify
from km_rates.moduli import CauchyReport, CauchyRow, RateFn, RateKind
from km_rates.verify import LiminfCell, LiminfReport, SoundnessReport, SoundnessRow

from conftest import rotation_instance
import lemmas


@pytest.fixture(scope="module")
def rotation_run():
    space, op, start, schedule, constants, cert = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 5000)
    return traj, constants, cert


def test_soundness_rotation_passes(rotation_run):
    traj, _, cert = rotation_run
    report = km.check_rate_soundness(traj, lemmas.rate_values(cert.residual_rate, 5), "res_T")
    assert report.passed
    assert report.checked == 6
    row = report.rows[0]
    assert row.bound == 132
    assert row.window == (132, 5000)
    assert row.max_excess <= 1e-9


def test_soundness_truncation_carries_no_verdict(rotation_run):
    traj, _, cert = rotation_run
    report = km.check_rate_soundness(traj, lemmas.rate_values(cert.step_rate, 5), "res_step")
    for row in report.rows:
        if row.truncated:
            assert row.passed is None and row.window is None
        else:
            assert row.passed
    # step stream has horizon entries, so its last index is horizon-1
    assert all(row.bound > 4999 for row in report.rows if row.truncated)


def test_soundness_negative_control_zero_rate(rotation_run):
    traj, _, _ = rotation_run
    zero = RateFn.constant(0, RateKind.RATE_OF_CONVERGENCE)
    report = km.check_rate_soundness(traj, lemmas.rate_values(zero, 3), "res_T")
    assert report.rows[1].passed is False  # res_T[0] = sqrt(2) > 1/2
    assert not report.passed


def test_empirical_first_index_rotation(rotation_run):
    traj, _, _ = rotation_run
    assert km.empirical_first_index(traj, "res_T", 0) == 1
    # res_T[n] = 2^((1-n)/2): 0.354 at n=4 still exceeds 1/3, 0.25 at n=5 is below
    assert km.empirical_first_index(traj, "res_T", 2) == 5


def test_empirical_first_index_edge_cases():
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    schedule = km.make_classical_km(0.5)
    at_fix = km.iterate(space, op, [0.0, 0.0], schedule, 10)
    assert km.empirical_first_index(at_fix, "res_T", 0) == 0

    rot = km.make_operator("rotation", space, {"angle_deg": 90.0})
    short = km.iterate(space, rot, [1.0, 0.0], schedule, 3)
    assert km.empirical_first_index(short, "res_T", 100) is None


def _scan_first_quiet(values, threshold):
    """The definition: the least n with values[m] <= threshold for every
    m >= n, None when the last value is above it; a scan from the end."""
    first = None
    for n in range(len(values) - 1, -1, -1):
        if not values[n] <= threshold:
            break
        first = n
    return first


def _searched_first_quiet(values, threshold):
    """The first quiet index at ``threshold`` as one search over several
    thresholds finds it, as ``check_rate_soundness`` searches its rows."""
    thresholds = np.array([0.25, threshold, 1.0 / 3.0, 1.0])
    first = int(verify._first_quiet_indices(verify._suffix_max(np.asarray(values, float)),
                                            thresholds)[1])
    return first if first >= 0 else None


# values around the thresholds below, so that ties at a threshold are common
_NEAR = [0.0, -0.0, 0.25, 0.5, 0.5 + 1e-9, 1.0 / 3.0, 1.0, math.inf, math.nan]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.lists(st.sampled_from(_NEAR) | st.floats(-1.0, 2.0), min_size=1, max_size=40),
       threshold=st.sampled_from([0.25, 0.5, 0.5 + 1e-9, 1.0 / 3.0 + verify.SOUNDNESS_TOL]))
def test_first_quiet_index_matches_the_scan(values, threshold):
    assert _searched_first_quiet(values, threshold) == _scan_first_quiet(values, threshold)


@pytest.mark.parametrize("values, threshold, first", [
    ([0.5], 0.5, 0),                  # length 1, a tie
    ([0.75], 0.5, None),              # length 1, above
    ([0.5] * 7, 0.5, 0),              # constant at the threshold: all quiet
    ([0.25] * 7, 0.5, 0),             # all quiet
    ([0.75] * 7, 0.5, None),          # never quiet
    ([0.1, 0.9, 0.5, 0.5, 0.2], 0.5, 2),
    ([0.1, 0.2, 0.3, 0.9], 0.5, None),
    ([math.nan, 0.1], 0.5, 1),
    ([0.1, math.nan], 0.5, None),
])
def test_first_quiet_index_edge_cases(values, threshold, first):
    assert _scan_first_quiet(values, threshold) == first
    assert _searched_first_quiet(values, threshold) == first


def test_empirical_first_index_matches_the_scan(rotation_run):
    traj, _, _ = rotation_run
    for quantity in ("res_T", "res_step"):
        values = getattr(traj, quantity).tolist()
        for k in (0, 1, 2, 7, 40, 300, 10**6):
            expected = _scan_first_quiet(values, 1.0 / (k + 1) + verify.SOUNDNESS_TOL)
            assert km.empirical_first_index(traj, quantity, k) == expected


def _settled_runs():
    """The README rotation settled at 2303 of 2400 steps, and hand-built
    residual heads on [0, k] on a 60-step run, which stay at their value at
    k from k on: (k, tail) = (0, 0.0), (17, 0.01), (40, 0.5), above every
    threshold 1/(k+1) with k >= 1, and (59, 0.02), at the last step."""
    space, op, start, schedule, _, _ = rotation_instance()
    rotation = km.iterate(space, op, start, schedule, 2400)
    assert rotation.settled == 2303
    yield rotation
    short = km.iterate(space, op, start, schedule, 60)
    rng = np.random.default_rng(21)
    for k, tail in ((0, 0.0), (17, 0.01), (40, 0.5), (59, 0.02)):
        res_T, res_step = rng.uniform(0.0, 1.0, 61), rng.uniform(0.0, 0.6, 60)
        res_T[k:] = res_step[k:] = tail
        yield replace(short, res_T=res_T[:k + 1], res_step=res_step[:k + 1])


@pytest.mark.parametrize("traj", list(_settled_runs()),
                         ids=["rotation", "k0", "k17", "k40-above", "k59"])
def test_settled_soundness_matches_the_whole_stream(traj):
    """Each soundness row and first quiet index up to k = 40 is the one of
    the same streams whole, for bounds below, at and past the last index k
    of the residual heads, at the last index of each stream and past both."""
    whole = lemmas.whole_trajectory(traj)
    h, k = traj.horizon, traj.res_T.size - 1
    bounds = sorted({0, max(k - 1, 0), k, k + 1, h - 1, h, h + 5})
    rates = [RateFn.constant(b, RateKind.RATE_OF_CONVERGENCE) for b in bounds]
    rates.append(RateFn.affine(3, 0, RateKind.RATE_OF_CONVERGENCE))
    firsts = set()
    for quantity in ("res_T", "res_step"):
        for rate in rates:
            bounds = lemmas.rate_values(rate, 40)
            folded = km.check_rate_soundness(traj, bounds, quantity)
            assert folded.rows == km.check_rate_soundness(whole, bounds, quantity).rows
        for j in range(41):
            first = km.empirical_first_index(traj, quantity, j)
            assert first == km.empirical_first_index(whole, quantity, j)
            firsts.add(first)
    assert (None in firsts) == (k == 40)


def test_soundness_slack_reported(rotation_run):
    traj, _, cert = rotation_run
    report = km.check_rate_soundness(traj, lemmas.rate_values(cert.residual_rate, 5), "res_T")
    for row in report.rows:
        if not row.truncated:
            assert row.slack_factor is not None and row.slack_factor >= 10.0


def test_empirical_first_index_never_exceeds_passing_bound(rotation_run):
    # certified bounds are upper envelopes of the first sufficient index
    traj, _, cert = rotation_run
    report = km.check_rate_soundness(traj, lemmas.rate_values(cert.residual_rate, 5), "res_T")
    for row in report.rows:
        if not row.truncated and row.passed:
            assert row.empirical_first_index is not None
            assert row.empirical_first_index <= row.bound


def test_monotone_soundness_inflated_rate_stays_valid(rotation_run):
    traj, _, cert = rotation_run
    inflated = RateFn(lambda k: 2 * cert.residual_rate(k) + 17,
                      RateKind.RATE_OF_CONVERGENCE)
    base = km.check_rate_soundness(traj, lemmas.rate_values(cert.residual_rate, 4), "res_T")
    bigger = km.check_rate_soundness(traj, lemmas.rate_values(inflated, 4), "res_T")
    assert base.passed and bigger.passed


def test_liminf_contract_rotation(rotation_run):
    traj, _, cert = rotation_run
    report = km.check_liminf_contract(traj, lemmas.modulus_grid(cert.liminf_modulus, 5, 5))
    assert report.passed
    assert report.checked == 36


def test_liminf_witness_at_window_start_for_zero_residuals():
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    traj = km.iterate(space, op, [0.0, 0.0], km.make_classical_km(0.5), 30)
    delta = RateFn(lambda k, L: L + 3, RateKind.LIMINF_MODULUS)
    report = km.check_liminf_contract(traj, lemmas.modulus_grid(delta, 4, 4))
    assert report.passed
    for cell in report.cells:
        assert cell.witness == cell.L


def test_liminf_negative_control(rotation_run):
    traj, _, _ = rotation_run
    lazy = RateFn(lambda k, L: L, RateKind.LIMINF_MODULUS)
    report = km.check_liminf_contract(traj, lemmas.modulus_grid(lazy, 4, 4))
    cell = next(c for c in report.cells if (c.k, c.L) == (2, 0))
    assert cell.passed is False  # res_T[0] = sqrt(2) >= 1/3
    assert not report.passed


def test_liminf_truncation():
    space, op, start, schedule, _, cert = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 20)
    big = RateFn(lambda k, L: 10**6, RateKind.LIMINF_MODULUS)
    report = km.check_liminf_contract(traj, lemmas.modulus_grid(big, 2, 2))
    assert report.checked == 0
    assert report.passed  # truncation is not failure


def test_auto_horizon_rule():
    assert km.auto_horizon([50]) == 150
    assert km.auto_horizon([200000, 10]) == 100100
    assert km.auto_horizon([99950]) == 100050
    with pytest.raises(ValueError):
        km.auto_horizon([])


def test_soundness_report_serializes(rotation_run):
    traj, _, cert = rotation_run
    bounds = lemmas.rate_values(cert.residual_rate, 3)
    doc = km.check_rate_soundness(traj, bounds, "res_T").to_dict()
    assert doc["all_passed"] is True
    assert doc["rows"][0]["bound"] == 132
    assert doc["rows"][0]["empirical_first_index"] == 1


@pytest.mark.parametrize("report", [
    SoundnessReport("res_T", "rate", 10, [
        SoundnessRow(0, 2, (2, 10), -0.5, True, 1, 2.0),
        SoundnessRow(1, 3, (3, 10), 0.25, False, None, None),
        SoundnessRow(2, 20, None, None, None, 4, None)]),
    LiminfReport(10, [LiminfCell(0, 0, 3, 1, True), LiminfCell(1, 0, 5, None, False),
                      LiminfCell(2, 0, 30, None, None)]),
    CauchyReport(10, False, [CauchyRow(0, 1, 0.5, True), CauchyRow(1, 2, 0.75, False),
                             CauchyRow(2, 20, None, None)]),
], ids=["soundness", "liminf", "cauchy"])
def test_row_reports_share_one_verdict(report):
    """A passing, a failing and a truncated row: the report fails, has
    checked two rows and lists the failing one."""
    assert [r.truncated for r in report.rows] == [False, False, True]
    assert report.passed is False and report.checked == 2
    assert report.failures == [report.rows[1]]
    doc = report.to_dict()
    assert doc["all_passed" if "all_passed" in doc else "passed"] is False
    assert doc["checked"] == 2
