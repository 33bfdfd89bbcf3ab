import csv
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import km_rates as km
from km_rates import engine
from km_rates.engine import BLOCK, NumericAbort
from km_rates.operators import Operator
from km_rates.schedules import HeadStream, InverseSquareStream, Window, settled_from

from conftest import rotation_instance
from reference_engine import reference_iterate
import lemmas


def test_identity_schedule_keeps_start_fixed():
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    traj, points = lemmas.iterate_with_points(km.iterate, space, op, [0.3, -0.7],
                                              km.make_classical_km(0.5), 50)
    np.testing.assert_allclose(points[-1], [0.3, -0.7], atol=1e-15)
    assert np.all(traj.res_T == 0.0)
    assert np.all(traj.res_step <= 1e-16)


def test_identity_at_fixed_point_all_zero():
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    start, schedule = [0.0, 0.0], km.make_classical_km(0.5)
    traj = km.iterate(space, op, start, schedule, 20)
    constants = km.instance_constants(start, op.fixed_point, schedule, norm=space.norm)
    audit = km.audit_inequalities(traj, constants)
    assert audit.passed
    assert np.all(traj.res_T == 0.0) and np.all(traj.dist_z == 0.0)


def test_rotation_residual_matches_closed_form():
    space, op, start, schedule, constants, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 100)
    half_sqrt2 = math.sqrt(2) / 2
    for n in range(101):
        assert traj.res_T[n] == pytest.approx(math.sqrt(2) * half_sqrt2**n, abs=1e-9)
    for n in range(100):
        assert traj.res_step[n] == pytest.approx(half_sqrt2 ** (n + 1), abs=1e-9)
    assert traj.res_T[0] == pytest.approx(1.41421, abs=1e-5)


def test_ball_projection_km_hand_values():
    space = km.Space(dim=2)
    op = km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 1.0})
    traj, points = lemmas.iterate_with_points(km.iterate, space, op, [2.0, 0.0],
                                              km.make_classical_km(0.5), 10)
    np.testing.assert_allclose(points[1], [1.5, 0.0])
    assert traj.res_T[1] == pytest.approx(0.5)


def test_anchor_recursion_is_constant_for_classical_km():
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 50)
    # no defect, no perturbation and an exact fixed point: K_z stays at ||x0 - z||
    np.testing.assert_allclose(traj.K_z, np.ones(51))


def test_audit_rotation_clean():
    space, op, start, schedule, constants, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 10**4)
    audit = km.audit_inequalities(traj, constants)
    assert audit.passed, audit.to_dict()
    assert audit.checks["anchor_bound"].checked == 10**4 + 1


def test_audit_flags_corrupted_point():
    space, op, start, schedule, constants, _ = rotation_instance()
    traj, points = lemmas.iterate_with_points(km.iterate, space, op, start, schedule, 200)
    bad = lemmas.corrupt_point(space, op, traj, points, 50, magnitude=1.0)
    audit = km.audit_inequalities(bad, constants)
    anchor = audit.checks["anchor_bound"]
    assert anchor.count == 1
    assert anchor.first_violations[0].index == 50
    assert not audit.passed


def test_failing_audit_keeps_counts_and_first_rows():
    """The identity pushed out by r_n = [3, 0]/(n+1)^2 under a declared
    perturbation sum bound of 0 breaks dist_bound, norm_bound and
    dist_by_sums at every index but 0.  Each check keeps its count and its
    first ten rows, and the failing audit peaks at no more than twice the
    memory of the same run audited under a true bound of 20."""
    horizon = 20_000
    doc = {"space": {"dim": 2, "norm": "euclidean"}, "operator": {"name": "identity"},
           "start": [0.5, 0.0], "run": {"horizon": horizon, "k_max": 3},
           "schedule": {"family": "custom", "params": {
               "alpha": 0.5, "beta": 0.5, "defect_is_zero": True,
               "perturbation": {"inverse_square": {"r_star": [3.0, 0.0], "offset": 1}},
               "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
               "perturbation_cauchy": {"affine": {"slope": 3, "intercept": 3}}}}}
    audits, peaks = [], []
    for bound in (0, 20):
        doc["schedule"]["params"]["perturbation_sum_bound"] = bound
        instance = km.assemble(km.RunConfig.from_dict(doc))
        traj = km.iterate(instance.space, instance.operator, instance.start,
                          instance.schedule, horizon)
        tracemalloc.start()
        try:
            audits.append(km.audit_inequalities(traj, instance.constants))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    failing, clean = audits
    assert clean.passed, clean.to_dict()
    assert failing.total_violations == 3 * horizon
    for name in ("dist_bound", "norm_bound", "dist_by_sums"):
        check = failing.checks[name]
        assert (check.checked, check.count) == (horizon + 1, horizon)
        assert [v.index for v in check.first_violations] == list(range(1, 11))
    assert peaks[0] <= 2 * peaks[1], peaks


def test_residual_bounded_by_twice_dist_bound():
    space, op, start, schedule, constants, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 1000)
    assert float(np.max(traj.res_T)) <= 2.0 * constants.dist_bound + 1e-9


def test_classical_km_residual_nonincreasing():
    for name, params, start in (
        ("rotation", {"angle_deg": 90.0}, [1.0, 0.0]),
        ("ball_projection", {"center": [0.0, 0.0], "radius": 1.0}, [2.0, 0.0]),
        ("identity", {}, [0.5, 0.5]),
    ):
        space = km.Space(dim=2)
        op = km.make_operator(name, space, params)
        traj = km.iterate(space, op, start, km.make_classical_km(0.5), 500)
        assert np.all(np.diff(traj.res_T) <= 1e-12)


def test_iterate_deterministic():
    space, op, start, schedule, _, _ = rotation_instance()
    t1, p1 = lemmas.iterate_with_points(km.iterate, space, op, start, schedule, 300)
    t2, p2 = lemmas.iterate_with_points(km.iterate, space, op, start, schedule, 300)
    assert np.array_equal(t1.res_T, t2.res_T)
    assert np.array_equal(p1.view(np.uint64), p2.view(np.uint64))
    assert np.array_equal(t1.K_z, t2.K_z)


def test_trajectory_lengths():
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 77)
    assert len(traj.res_T) == 78 and len(traj.K_z) == 78
    assert len(traj.res_step) == 77
    # alpha and beta are constant and ||r_n|| is 0: one entry each
    assert len(traj.alpha) == len(traj.beta) == len(traj.r_norm) == 1


def test_trajectory_keeps_no_points():
    """Every array of a trajectory is a scalar stream: the memory of a run
    grows with its horizon, never with horizon * dim."""
    space = km.Space(dim=8)
    op = km.make_operator("coordinate_shrink", space, {"factors": [0.5] * 8})
    traj = km.iterate(space, op, np.ones(8), km.make_classical_km(0.5), BLOCK + 1)
    arrays = [f.name for f in fields(traj) if isinstance(getattr(traj, f.name), np.ndarray)]
    assert arrays and all(getattr(traj, name).ndim == 1 for name in arrays), arrays


def test_iterate_validation():
    space, op, start, schedule, _, _ = rotation_instance()
    with pytest.raises(ValueError):
        km.iterate(space, op, start, schedule, 0)
    with pytest.raises(ValueError):
        km.iterate(space, op, [1.0, 0.0, 0.0], schedule, 5)


@pytest.mark.parametrize("p,name,params", [
    (2.0, "rotation", {"angle_deg": 30.0, "axes": [1, 2]}),
    (3.0, "coordinate_shrink", {"factors": [0.5, -0.9, 1.0]}),
])
@pytest.mark.parametrize("z", [[0.0, 0.0, 0.0], [-0.0, 0.0, -0.0]])
def test_zero_fixed_point_dist_is_norm(p, name, params, z):
    # x - z is x bit for bit when z is all zeros, signed or not
    space = km.Space(dim=3, p=p)
    op = replace(km.make_operator(name, space, params), fixed_point=np.array(z))
    schedule = km.make_example1(0.5, 1, r_star=[0.0, -0.0, 0.25], norm=space.norm)
    start = [-0.0, 1.0, -0.5]
    new, new_points = lemmas.iterate_with_points(km.iterate, space, op, start, schedule,
                                                 BLOCK + 3)
    ref, ref_points = lemmas.iterate_with_points(reference_iterate, space, op, start, schedule,
                                                 BLOCK + 3)
    assert np.array_equal(new.dist_z, new.norm_x)
    assert np.array_equal(new_points.view(np.uint64), ref_points.view(np.uint64))
    for stream in ("res_T", "res_step", "dist_z", "norm_x"):
        np.testing.assert_allclose(getattr(new, stream), getattr(ref, stream),
                                   rtol=1e-12, atol=0.0, err_msg=stream)


@pytest.mark.parametrize("p", [1.5, 3.0, 7.0])
def test_start_distance_is_one_norm(p):
    """K_z[0] and dist_z[0] are one value of ||x_0 - z||: the norm of the
    vector alone is that of its row in a stack."""
    space = km.Space(dim=2, p=p)
    op = km.make_operator("coordinate_shrink", space, {"factors": [0.5, 0.5]})
    start = np.array([0.125, 1.5])
    traj = km.iterate(space, op, start, km.make_classical_km(0.5), 10)
    bits = np.array([traj.K_z[0], traj.dist_z[0], space.norm(start - op.fixed_point)])
    assert len(set(bits.view(np.uint64).tolist())) == 1


def test_numeric_abort_reports_index():
    space = km.Space(dim=2)
    blower = Operator(apply=lambda x: 1e200 * x, fixed_point=np.zeros(2))
    with pytest.raises(NumericAbort) as exc:
        km.iterate(space, blower, [1.0, 0.0], km.make_classical_km(0.5), 50)
    assert 0 < exc.value.index <= 50


def test_numeric_abort_at_an_unrepresentable_start():
    """A finite start whose norm passes the double range aborts at index 0,
    before any step."""
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    with pytest.raises(NumericAbort) as exc:
        km.iterate(space, op, [1.7e308, 1.7e308], km.make_classical_km(0.5), 10)
    assert exc.value.index == 0 and str(exc.value) == "non-finite iterate at index 0"


def test_trajectory_csv_round_trip(tmp_path):
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 25)
    path = tmp_path / "trajectory.csv"
    km.write_trajectory_csv(traj, path)
    with open(path, newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 26
    assert rows[0]["res_T"] == format(traj.res_T[0], ".17g")
    assert float(rows[3]["res_T"]) == traj.res_T[3]  # 17 digits round-trip doubles
    assert rows[25]["res_step"] == ""
    assert list(rows[0].keys()) == ["n", "res_T", "res_step", "K_zn", "norm_xn", "dist_xz"]


def test_audit_report_serializes():
    space, op, start, schedule, constants, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 60)
    doc = km.audit_inequalities(traj, constants).to_dict()
    assert doc["passed"] is True
    assert set(doc["checks"]) == {
        "step_to_anchor", "anchor_bound", "step_by_anchor", "residual_by_dist",
        "residual_chain", "step_decomposition", "residual_increment",
        "dist_bound", "norm_bound", "dist_by_sums",
    }


#: the tail-failing document of ``tools/compare_outputs.py``: the identity
#: from its fixed point [1, 0] shrinks by 3/4 for three steps and then stays,
#: while a defect sum bound of 0 claims that x_n never leaves z
TAIL_FAILING = {
    "space": {"dim": 2, "norm": "euclidean"},
    "operator": {"name": "identity", "fixed_point": [1.0, 0.0]}, "start": [1.0, 0.0],
    "schedule": {"family": "custom", "params": {
        "alpha": {"values": [0.25, 0.25, 0.25], "then": 0.5}, "beta": 0.5,
        "defect_cauchy": {"const": 3}, "defect_sum_bound": 0,
        "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}}},
    "run": {"horizon": 10, "k_max": 3}}


def _settling_run(case, horizon):
    """One of three runs whose walk ends early once the horizon reaches
    their settled point, with its instance constants."""
    if case == "tail-failing":
        instance = km.assemble(km.RunConfig.from_dict(TAIL_FAILING))
        space, op, start, schedule = (instance.space, instance.operator, instance.start,
                                      instance.schedule)
        constants = instance.constants
    elif case == "identity":
        space = km.Space(dim=2)
        op, start, schedule = (km.make_operator("identity", space), [0.3, -0.7],
                               km.make_classical_km(0.5))
        constants = km.instance_constants(start, op.fixed_point, schedule, norm=space.norm)
    else:
        space, op, start, schedule, constants, _ = rotation_instance()
    return km.iterate(space, op, start, schedule, horizon), constants


@pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5, 100_100])
@pytest.mark.parametrize("case", ["identity", "rotation-90", "tail-failing"])
def test_folded_audit_matches_whole_array_audit_on_settled_runs(case, horizon):
    """The identity and the tail-failing document settle at the first block
    (k = BLOCK - 1, so not below BLOCK), the rotation near step 2150, and
    each folded audit is the audit of every row.  The tail-failing audit
    breaks dist_by_sums on every row but 0."""
    traj, constants = _settling_run(case, horizon)
    if case == "rotation-90":
        expected = 2303 if horizon > 2303 else None
    else:
        expected = BLOCK - 1 if horizon >= BLOCK else None
    assert traj.settled == expected
    audit = lemmas.assert_audit_matches_whole_array(traj, constants)
    sums = audit.checks["dist_by_sums"]
    assert audit.passed == (case != "tail-failing")
    if case == "tail-failing":
        assert (sums.checked, sums.count) == (horizon + 1, horizon)
        assert [v.index for v in sums.first_violations] == list(range(1, 11))


def test_folded_audit_runs_its_first_violations_into_the_tail():
    """A hand-built trajectory settled at k = 40 of 100 whose distance is 5
    at index 3 and from k on, against a distance bound of 2: the audit
    reads rows 0 .. k + 1, and the failing rows past them are counted and
    listed with the values of its last row."""
    h, k = 100, 40
    dist = np.ones(k + 1)
    dist[3] = dist[k] = 5.0
    traj = engine.Trajectory(
        horizon=h, res_T=np.zeros(1), res_step=np.zeros(1), K_z=np.full(1, 10.0),
        dist_z=dist, norm_x=dist, alpha=np.full(1, 0.5), beta=np.full(1, 0.5),
        r_norm=np.zeros(1), norm_z=0.0, fix_residual=0.0)
    assert traj.settled == k
    constants = km.InstanceConstants(2, 0, 0)  # dist_bound 2, norm_bound 4
    audit = lemmas.assert_audit_matches_whole_array(traj, constants)
    check = audit.checks["dist_bound"]
    head_failures = 3  # rows 3, k and k + 1
    assert (check.checked, check.count) == (h + 1, head_failures + h + 1 - (k + 2))
    assert [v.index for v in check.first_violations] == [3] + list(range(k, k + 9))
    assert {(v.lhs, v.rhs) for v in check.first_violations} == {(5.0, 2.0)}
    # the recursion breaks where the distance jumps, at rows 2 and k - 1 of the head only
    assert [v.index for v in audit.checks["step_to_anchor"].first_violations] == [2, k - 1]


@pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5])
@pytest.mark.parametrize("dim", [2, 64])
@pytest.mark.parametrize("family", ["classical_km", "example2"])
def test_no_point_is_written_after_apply_sees_it(family, dim, horizon):
    """The arguments of ``op.apply``, held by reference and not copied, are
    still x_0 .. x_horizon of the reference loop, bit for bit, after the run."""
    space = km.Space(dim=dim)
    op = km.make_operator("rotation", space, {"angle_deg": 37.0, "axes": [0, dim - 1]})
    schedule = (km.make_classical_km(0.5) if family == "classical_km" else
                km.make_example2(0.5, r_star=[0.25] * dim, norm=space.norm))
    start = np.linspace(-1.0, 1.0, dim)
    held = []

    def apply(x):
        held.append(x)
        return op.apply(x)

    km.iterate(space, replace(op, apply=apply), start, schedule, horizon)
    _, ref_points = lemmas.iterate_with_points(reference_iterate, space, op, start, schedule,
                                               horizon)
    assert len(held) == horizon + 2
    assert np.array_equal(np.array(held[1:]).view(np.uint64), ref_points.view(np.uint64))


def _alternating_zeros(n, first):
    """``first`` at even indices and ``-first`` at odd ones."""
    return np.where(np.asarray(n) % 2 == 0, first, -first)


@pytest.mark.parametrize("stream", ["alpha", "perturbation"])
def test_repeated_coefficient_row_tells_signed_zeros_apart(stream):
    """+0.0 == -0.0, but a block whose alpha or r rows differ only in the
    sign of a zero may not take one repeated row: from a -0.0 coordinate
    the points differ in the sign of that zero."""
    space = km.Space(dim=2)
    op = km.make_operator("coordinate_shrink", space, {"factors": [0.5, 0.5]})
    classical = km.make_classical_km(0.5)
    if stream == "alpha":
        # -0.0 * -0.0 is +0.0; a -0.0 perturbation keeps the sign of the sum
        schedule = replace(classical, alpha=lambda n: _alternating_zeros(n, 0.0),
                           perturbation=lambda n: np.full(np.shape(n) + (1,), -0.0))
    else:
        schedule = replace(classical,
                           perturbation=lambda n: _alternating_zeros(n, -0.0)[..., None])
    args = (space, op, [-0.0, 1.0], schedule, BLOCK + 1)
    _, ref_points = lemmas.iterate_with_points(reference_iterate, *args)
    _, new_points = lemmas.iterate_with_points(km.iterate, *args)
    signs = np.signbit(ref_points[:, 0])
    assert signs.any() and not signs.all()
    assert np.array_equal(new_points.view(np.uint64), ref_points.view(np.uint64))


def _counting(op):
    """``op`` and a list whose length is the number of ``apply`` calls."""
    calls = []

    def apply(x):
        calls.append(None)
        return op.apply(x)

    return replace(op, apply=apply), calls


def test_identity_ends_the_walk_at_the_first_block():
    """Positive control: under beta 1/2 the identity repeats x_0 from the
    first step, so the first block ends the walk."""
    space = km.Space(dim=2)
    op, calls = _counting(km.make_operator("identity", space))
    traj = km.iterate(space, op, [0.3, -0.7], km.make_classical_km(0.5), 10 * BLOCK)
    assert len(calls) <= BLOCK + 2
    whole = lemmas.whole_trajectory(traj)
    assert np.all(whole.res_T == 0.0) and np.all(whole.res_step == 0.0)
    assert np.all(whole.norm_x == whole.norm_x[0]) and len(whole.norm_x) == 10 * BLOCK + 1


def test_readme_rotation_reaches_its_fixed_point_early():
    """Positive control: the README rotation at its auto horizon reaches
    (0, 0) bit for bit near step 2150, so most of its 100 100 steps are
    never taken."""
    space, op, start, schedule, _, _ = rotation_instance()
    op, calls = _counting(op)
    traj = km.iterate(space, op, start, schedule, 100_100)
    assert len(calls) < 5000
    assert traj.res_T[-1] == 0.0 and traj.norm_x[-1] == 0.0 and traj.dist_z[-1] == 0.0


def test_perturbation_shape_is_checked_past_the_settled_search():
    """A perturbation that breaks the shape contract only from index 1000 on
    raises, though the identity repeats its start from the first block."""
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)

    def late_bad_shape(n):
        n = np.asarray(n)
        return np.zeros(n.shape + ((1,) if n.max() < 1000 else (3,)))

    schedule = replace(km.make_classical_km(0.5), perturbation=late_bad_shape)
    with pytest.raises(ValueError, match="perturbation returned shape"):
        km.iterate(space, op, [0.3, -0.7], schedule, 2000)


#: two chunks of a window read
_CHUNK2 = 2 * engine.CSV_CHUNK


def _step_map_settled(schedule, h: int) -> int:
    """The index from which ``iterate``'s step map is one map: the larger of
    the window's settled index and the perturbation's declared one."""
    return max(Window.read(schedule, h).settled, settled_from(schedule.perturbation, h))


@pytest.mark.parametrize("horizon", [1, 5, BLOCK + 3, 3 * BLOCK, _CHUNK2 - 1, _CHUNK2,
                                     _CHUNK2 + 1, 2 * _CHUNK2 + 3])
def test_settled_index(horizon):
    """The smallest s from which alpha_n, beta_n and the row r_n have the
    bits of their value at the horizon, each stream a table that declares
    its head; a differing row anywhere is found."""
    dim = 3
    h = horizon
    ones = np.ones(h + 1)

    def settled(alpha=ones, beta=ones, rows=np.zeros((h + 1, 1))):
        return _step_map_settled(replace(
            km.make_classical_km(0.5), alpha=HeadStream(alpha), beta=HeadStream(beta),
            perturbation=HeadStream(rows)), h)

    assert settled() == 0
    changed = ones.copy()
    changed[h - 1] = 0.5
    assert settled(alpha=changed) == h and settled(beta=changed) == h
    signed = np.zeros(h + 1)
    signed[0] = -0.0  # == 0.0, but not the same bits
    assert settled(alpha=signed) == 1
    rows = np.zeros((h + 1, dim))
    assert settled(rows=rows) == 0
    rows[h // 2, 1] = -0.0
    assert settled(rows=rows) == h // 2 + 1
    # alpha already rules out the indices of the differing row
    assert settled(alpha=changed, rows=rows) == max(h, h // 2 + 1)
    for boundary in range(h - _CHUNK2, 0, -_CHUNK2):
        for index in (boundary - 1, boundary):
            rows = np.zeros((h + 1, 1))
            rows[index] = 1e-300
            assert settled(rows=rows) == index + 1


def test_settled_index_reads_the_perturbation_in_few_calls(monkeypatch):
    """An inverse-square perturbation at the auto horizon of the README
    rotation declares its settled index by one bisection, each call on one
    index; the README's zero perturbation declares it from its table, with
    no call."""
    reads = []
    for cls in (HeadStream, InverseSquareStream):
        monkeypatch.setattr(cls, "__call__", lambda self, n, call=cls.__call__:
                            reads.append(np.shape(n)) or call(self, n))
    space, _, _, schedule, _, _ = rotation_instance()
    h = 100_100
    assert settled_from(schedule.perturbation, h) == 0 and reads == []
    perturbation = km.make_example1(0.5, r_star=[0.25, 1e-300], norm=space.norm).perturbation
    assert settled_from(perturbation, h) == h
    assert set(reads) == {(1,)} and len(reads) <= math.ceil(math.log2(h)) + 1


def test_settled_index_is_found_once_per_call(monkeypatch):
    """alpha switches from 1/2 to 1/4 at index 600: the first two blocks end
    on a repeated point but before the settled index; x_n then shrinks to a
    subnormal fixed point, which ends the walk.  The perturbation's settled
    index is read once."""
    found = []
    declared = engine.settled_from
    monkeypatch.setattr(engine, "settled_from",
                        lambda *args: found.append(declared(*args)) or found[-1])
    space = km.Space(dim=2)
    op = km.make_operator("identity", space)
    schedule = replace(km.make_classical_km(0.5), alpha=HeadStream([0.5] * 600 + [0.25]))
    assert Window.read(schedule, 16 * BLOCK).settled == 600
    args = (space, op, [0.3, -0.7], schedule, 16 * BLOCK)
    _, ref_points = lemmas.iterate_with_points(reference_iterate, *args)
    counted, applied = _counting(op)
    _, points = lemmas.iterate_with_points(km.iterate, space, counted, *args[2:])
    assert found == [0]
    assert 600 < len(applied) < 16 * BLOCK + 2
    assert np.array_equal(points.view(np.uint64), ref_points.view(np.uint64))


def _window_cases():
    """(space, operator, start, schedule) whose beta and ||r_n|| vary per
    index and whose alpha is constant: an anchor over example2 on a
    rotation, over a few blocks."""
    space = km.Space(dim=3)
    op = km.make_operator("rotation", space, {"angle_deg": 40.0})
    base = km.make_example2(0.4, J=3, r_star=[0.2, -0.1, 0.3], norm=space.norm)
    return space, op, [1.0, -2.0, 0.5], km.make_anchor(base, [0.5, 0.25, -1.0], space.norm)


@pytest.mark.parametrize("horizon", [1, BLOCK + 3, 3 * BLOCK])
def test_iterate_on_a_given_window_matches_its_own_read(horizon):
    space, op, start, schedule = _window_cases()
    read = km.iterate(space, op, start, schedule, horizon)
    given = km.iterate(space, op, start, schedule, horizon,
                       window=Window.read(schedule, horizon))
    for f in fields(read):
        a, b = getattr(read, f.name), getattr(given, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name


def test_window_is_read_only_and_must_cover_the_horizon():
    space, op, start, schedule = _window_cases()
    window = Window.read(schedule, 100)
    # each stream's own head: one entry of the constant alpha, and beta and
    # ||r_n|| whole
    assert [(v.flags.writeable, v.shape) for v in (window.alpha, window.beta, window.r_norm)] \
        == [(False, (1,)), (False, (101,)), (False, (101,))]
    traj = km.iterate(space, op, start, schedule, 100, window=window)
    with pytest.raises(ValueError, match="read-only"):
        traj.beta[0] = 0.0
    for wrong in (Window.read(schedule, 99), Window.read(schedule, 101),
                  replace(window, r_norm=window.r_norm[:0]),
                  replace(window, alpha=np.full(102, 0.4))):
        with pytest.raises(ValueError, match=r"does not cover exactly \[0, 100\]"):
            km.iterate(space, op, start, schedule, 100, window=wrong)
        with pytest.raises(ValueError, match=r"does not cover exactly \[0, 100\]"):
            km.verify_hypotheses(schedule, 100, wrong)
