"""The chunked trajectory CSV writer against the per-row writer it replaced."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.engine import CSV_CHUNK

from conftest import rotation_instance
from lemmas import whole_trajectory
from reference_engine import reference_write_trajectory_csv

SPECIAL = (0.0, -0.0, 5e-324, 1e-310, 0.1, 3.0, 1e300, float("inf"), float("nan"))


def _assert_same_bytes(traj, tmp_path):
    km.write_trajectory_csv(traj, tmp_path / "new.csv")
    reference_write_trajectory_csv(whole_trajectory(traj), tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def _with_columns(traj, horizon, values):
    """``traj`` with its five CSV columns replaced by ``values``, cycled."""
    def column(length, shift):
        return np.resize(np.roll(np.asarray(values, dtype=float), shift), length)

    return replace(traj, horizon=horizon, res_T=column(horizon + 1, 0),
                   res_step=column(horizon, 1), K_z=column(horizon + 1, 2),
                   norm_x=column(horizon + 1, 3), dist_z=column(horizon + 1, 4))


@pytest.mark.parametrize("horizon", [1, CSV_CHUNK - 1, CSV_CHUNK, CSV_CHUNK + 1,
                                     3 * CSV_CHUNK + 17])
def test_writer_matches_per_row_writer(tmp_path, horizon):
    space, op, start, schedule, _, _ = rotation_instance()
    _assert_same_bytes(km.iterate(space, op, start, schedule, horizon), tmp_path)


def test_writer_matches_on_special_values(tmp_path):
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 4)
    for horizon in (1, len(SPECIAL), CSV_CHUNK + 3):
        _assert_same_bytes(_with_columns(traj, horizon, SPECIAL), tmp_path)
    text = (tmp_path / "new.csv").read_text()
    assert "-0," in text and "inf" in text and "nan" in text and "4.9406564584124654e-324" in text


def test_writer_matches_past_1e5_rows(tmp_path):
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 4)
    horizon = 100_000 + CSV_CHUNK // 2
    rng = np.random.default_rng(4)
    values = rng.standard_normal(997) * 10.0 ** rng.integers(-320, 300, 997)
    _assert_same_bytes(_with_columns(traj, horizon, values), tmp_path)
    last = (tmp_path / "new.csv").read_text().splitlines()[-1]
    assert last.startswith(f"{horizon},") and ",," in last


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=40),
       st.integers(1, 60))
def test_writer_matches_on_any_doubles(tmp_path_factory, values, horizon):
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 1)
    _assert_same_bytes(_with_columns(traj, horizon, values), tmp_path_factory.mktemp("csv"))


@pytest.mark.parametrize("settled, horizon", [
    (0, 1), (0, 5), (3, CSV_CHUNK - 1), (CSV_CHUNK - 2, CSV_CHUNK), (CSV_CHUNK - 1, CSV_CHUNK + 1),
    (CSV_CHUNK, 2 * CSV_CHUNK), (CSV_CHUNK, 2 * CSV_CHUNK + 1), (17, 3 * CSV_CHUNK + 17)])
def test_settled_writer_matches_per_row_writer(tmp_path, settled, horizon):
    """A trajectory that holds its streams on [0, k] only, each row before k
    different from row k: the rows past k repeat row k, as in the whole
    streams."""
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 4)
    rng = np.random.default_rng(settled)
    held = replace(_with_columns(traj, settled, rng.standard_normal(5 * (settled + 1))),
                   res_step=rng.standard_normal(settled + 1))
    _assert_same_bytes(replace(held, horizon=horizon, settled=settled), tmp_path)
