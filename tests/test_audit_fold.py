"""The audit folded over chunks of ``CSV_CHUNK`` rows against the audit of
every row over whole arrays (``lemmas.whole_array_audit``): runs and
hand-built trajectories whose rows, settled index, violations and NaN
excess fall on, beside and across the chunk boundaries."""

import math

import numpy as np
import pytest

import km_rates as km
from km_rates import engine
from km_rates.engine import CSV_CHUNK

import lemmas

C = CSV_CHUNK
#: dist_bound 2 and norm_bound 4
CONSTANTS = km.InstanceConstants(2, 0, 0)


def _hand_built(horizon: int, head: int, seed: int = 0, **streams) -> engine.Trajectory:
    """A trajectory whose norm streams hold heads of ``head`` entries, drawn
    so that every check breaks on some rows and holds on others; alpha,
    beta and ||r_n|| hold one entry.  ``streams`` replace any of them."""
    rng = np.random.default_rng(seed)
    fields = {name: rng.uniform(0.0, 5.0, head)
              for name in ("res_T", "dist_z", "norm_x", "K_z")}
    fields["res_step"] = rng.uniform(0.0, 5.0, min(head, horizon))
    fields.update(alpha=np.full(1, 0.5), beta=np.full(1, 0.25), r_norm=np.full(1, 0.125))
    fields.update(streams)
    return engine.Trajectory(horizon=horizon, norm_z=0.5, fix_residual=0.25, **fields)


@pytest.mark.parametrize("horizon", [C - 1, C, C + 1, 2 * C + 1])
@pytest.mark.parametrize("case", ["rotation-example2", "shrink-example1"])
def test_runs_that_never_settle_fold_to_the_whole_audit(case, horizon):
    """A rotation or a shrink under a perturbation that changes at every
    step never settles: the audit reads every row, in one, two or three
    chunks."""
    space = km.Space(dim=2)
    if case == "rotation-example2":
        op = km.make_operator("rotation", space, {"angle_deg": 90.0})
        schedule = km.make_example2(0.5, r_star=[0.25, 0.0], norm=space.norm)
    else:
        op = km.make_operator("coordinate_shrink", space, {"factors": [0.5, -0.5]})
        schedule = km.make_example1(0.5, r_star=[0.25, -0.125], norm=space.norm)
    start = [1.0, -0.5]
    traj = km.iterate(space, op, start, schedule, horizon)
    assert traj.settled is None
    constants = km.instance_constants(start, op.fixed_point, schedule, norm=space.norm)
    audit = lemmas.assert_audit_matches_whole_array(traj, constants)
    assert audit.passed
    assert all(c.checked in (horizon, horizon + 1) for c in audit.checks.values())


@pytest.mark.parametrize("horizon", [C - 1, C, C + 1, 2 * C + 1])
def test_violations_of_every_check_fold_to_the_whole_audit(horizon):
    """Random whole streams break every check on some rows of every chunk."""
    traj = _hand_built(horizon, horizon + 1)
    audit = lemmas.assert_audit_matches_whole_array(traj, CONSTANTS)
    assert all(c.count > 10 for c in audit.checks.values())


@pytest.mark.parametrize("k", [C - 2, C - 1, C, C + 1, 2 * C - 1])
def test_settled_runs_fold_to_the_whole_audit_at_a_chunk_boundary(k):
    """Trajectories settled at k, so read up to index k + 1, with k + 1 on,
    beside or past a chunk boundary; the random heads break every check
    near their end too, and the rows past them repeat row k."""
    horizon = 3 * C
    traj = _hand_built(horizon, k + 1, seed=k)
    assert traj.settled == k
    lemmas.assert_audit_matches_whole_array(traj, CONSTANTS)


@pytest.mark.parametrize("k", [C - 2, C - 1, C, 2 * C])
def test_a_settled_tail_that_fails_is_counted_past_the_head(k):
    """The distance is 5 at index k and 1 before it, against a bound of 2:
    dist_bound breaks on row k and on every row after it, listed from k."""
    horizon = 3 * C
    dist = np.ones(k + 1)
    dist[k] = 5.0
    traj = _hand_built(horizon, k + 1, dist_z=dist)
    audit = lemmas.assert_audit_matches_whole_array(traj, CONSTANTS)
    check = audit.checks["dist_bound"]
    assert (check.checked, check.count) == (horizon + 1, horizon + 1 - k)
    assert [v.index for v in check.first_violations] == list(range(k, k + 10))
    assert {(v.lhs, v.rhs) for v in check.first_violations} == {(5.0, 2.0)}


@pytest.mark.parametrize("first", [C - 6, C - 1, C, 2 * C - 3])
def test_violations_across_a_chunk_boundary_keep_their_indices(first):
    """Thirteen rows from ``first`` break dist_bound, across a chunk
    boundary: all are counted, and the first ten are listed with their
    indices in the whole run."""
    horizon = 3 * C
    dist = np.ones(horizon + 1)
    dist[first:first + 13] = 3.0
    traj = _hand_built(horizon, horizon + 1, dist_z=dist)
    audit = lemmas.assert_audit_matches_whole_array(traj, CONSTANTS)
    check = audit.checks["dist_bound"]
    assert check.count == 13
    assert [v.index for v in check.first_violations] == list(range(first, first + 10))
    assert check.max_excess == 1.0


@pytest.mark.parametrize("index", [C + 7, 2 * C])
def test_a_nan_excess_in_a_later_chunk_is_the_largest_excess(index):
    """inf - inf at one row past the first chunk makes the largest excess
    NaN, as np.max over every row gives, though every excess of the first
    chunk is finite; the row counts as a violation."""
    horizon = 2 * C + 1
    dist, K = np.full(horizon + 1, 0.5), np.full(horizon + 1, 1.0)
    dist[index] = K[index] = math.inf
    traj = _hand_built(horizon, horizon + 1, dist_z=dist, K_z=K)
    audit = lemmas.assert_audit_matches_whole_array(traj, CONSTANTS)
    check = audit.checks["anchor_bound"]
    assert math.isnan(check.max_excess)
    assert check.count == 1 and check.first_violations[0].index == index
