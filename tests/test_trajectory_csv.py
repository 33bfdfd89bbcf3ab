"""The chunked trajectory CSV writer against the per-row writer it replaced."""

import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates import g17
from km_rates.engine import CSV_BATCH, CSV_CHUNK

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
    """A trajectory whose five CSV columns are heads on [0, k], each row
    before k different from row k: the rows past k repeat row k, as in the
    whole streams."""
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 4)
    rng = np.random.default_rng(settled)
    held = replace(_with_columns(traj, settled, rng.standard_normal(5 * (settled + 1))),
                   res_step=rng.standard_normal(settled + 1))
    held = replace(held, horizon=horizon)
    assert held.settled == settled
    _assert_same_bytes(held, tmp_path)


SEPARATORS = (",", ",", ",", ",", "\n")


def _assert_kernel_matches_percent(values) -> np.ndarray:
    """The fields of the %.17g kernel for ``values``, 5 * CSV_BATCH at a
    time, against ``"%.17g" % v`` and each value's separator; returns the
    count of the kernel's refusals by reason (entry 0 counts the others,
    and the zeros that pad the values to whole rows)."""
    values = np.asarray(values, dtype=float)
    values = np.concatenate([values, np.zeros(-values.size % 5)])
    counts = np.zeros(5, dtype=int)
    for s in range(0, values.size, 5 * CSV_BATCH):
        part = values[s:s + 5 * CSV_BATCH]
        fields = g17.fields(part)
        got = fields.ravel()[fields.ravel() != 0].tobytes().decode()
        want = "".join("%.17g%s" % (v, SEPARATORS[i % 5]) for i, v in enumerate(part.tolist()))
        if got != want:
            for i, v in enumerate(part.tolist()):
                text = fields[i][fields[i] != 0].tobytes().decode()
                assert text == "%.17g%s" % (v, SEPARATORS[i % 5]), (v.hex(), text)
        counts += np.bincount(g17.significand(part)[2], minlength=5)
    return counts


def _decades(rng, exponents, per_decade=40):
    """Random mantissas in [1, 10) of both signs times 10^k for each k."""
    k = np.repeat(np.asarray(exponents), per_decade)
    mantissa = rng.uniform(1.0, 10.0, k.size) * rng.choice([-1.0, 1.0], k.size)
    return mantissa * np.array([float(f"1e{e}") for e in k])


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):  # the largest double's upper neighbour is inf
        return np.concatenate([np.nextafter(values, -np.inf), values,
                               np.nextafter(values, np.inf)])


def test_kernel_matches_percent_on_its_corpus():
    rng = np.random.default_rng(24)
    powers = np.array([float(f"1e{k}") for k in range(-30, 31)])
    corpus = [
        rng.integers(0, 2 ** 64, 200_000, dtype=np.uint64).view(np.float64),
        _with_neighbours(np.concatenate([powers, -powers])),
        _with_neighbours([1e-5, 1e-4, 9.9999999999999995e-5, 1e16, 1e17, 9.9999999999999998e16]),
        _decades(rng, [-6, -5, -4, -3, 15, 16, 17, 18]),
        _decades(rng, list(range(-280, -99, 7)) + list(range(100, 281, 7))),
        _with_neighbours([1e-280, 1e280, 1e-100, 1e100, 2.2250738585072014e-308,
                          1.7976931348623157e308]),
        [0.0, -0.0],
        np.arange(-100_000, 100_001) * 0.5,
        rng.integers(0, 2 ** 53, 50_000).astype(float),
        [2.0 ** 53 - 1, 2.0 ** 53, 2.0 ** 53 + 2, 1.0, 9.0, 10.0, 99.0, 100.0],
    ]
    values = np.concatenate([np.asarray(c, dtype=float) for c in corpus])
    counts = _assert_kernel_matches_percent(values)
    a = np.abs(values)
    outside = ~((a >= g17.LOW) & (a <= g17.HIGH)) & (values != 0.0)
    assert counts[g17.REFUSED_RANGE] == np.count_nonzero(outside) > 10_000
    # in the range, the vector path writes all but a few values
    assert counts[g17.REFUSED_TIE:].sum() < 0.001 * values.size


def test_kernel_refuses_what_it_cannot_certify():
    """Each refusal is taken, counted, and formatted by ``%``."""
    inf, nan = float("inf"), float("nan")
    outside = [inf, -inf, nan, -nan, 5e-324, -1e-310, 9.99e-281, 1.01e280, 1e300, -1.7e308]
    # 1 + (2j + 1) * 2^-17 scales to an exact half-integer: a tie
    ties = [1.0 + (2 * j + 1) * 2.0 ** -17 for j in range(200)]
    ties += [-(5.0 + (2 * j + 1) * 2.0 ** -17) for j in range(200)]
    # a power of ten that is a double scales to exactly 10^16
    below = [float(f"1e{k}") for k in range(17)] + [-1e-0, -1e16]
    for values, reason in ((outside, g17.REFUSED_RANGE), (ties, g17.REFUSED_TIE),
                           (below, g17.REFUSED_BELOW)):
        counts = _assert_kernel_matches_percent(values)
        assert counts[reason] == len(values) == counts[1:].sum(), (reason, counts)


@pytest.mark.parametrize("shift, reason", [(-1, "REFUSED_CARRY"), (1, "REFUSED_BELOW")])
def test_kernel_refuses_an_exponent_that_is_off(monkeypatch, shift, reason):
    """An exponent one below floor(log10|x|) scales every value to 10^17 or
    more, one above to below 10^16: each value is refused, and still
    written as ``%`` writes it.  With the exponent one below, the doubles
    nearest below 10^-14, 10^98 and 10^-243 get their true exponent and
    round up to 10^17."""
    exponent = g17.decimal_exponent
    monkeypatch.setattr(g17, "decimal_exponent", lambda a: exponent(a) + shift)
    rng = np.random.default_rng(7)
    values = np.concatenate([_decades(rng, range(-30, 31, 3), 10),
                             [1e-14, 1e98, 1e-243, 123.0, -0.5]])
    counts = _assert_kernel_matches_percent(values)
    assert counts[getattr(g17, reason)] == len(values) == counts[1:].sum()


def test_kernel_tables_are_built_at_first_use():
    code = ("import km_rates.g17 as g; print(g.tables.cache_info().currsize);"
            "import km_rates.cli; print(g.tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["0", "0"]


def test_writer_matches_at_a_horizon_off_the_batch_size(tmp_path):
    """Rows past a whole number of kernel batches, over many decades."""
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 4)
    horizon = 5 * CSV_BATCH + 3
    rng = np.random.default_rng(5)
    values = rng.standard_normal(1009) * 10.0 ** rng.integers(-300, 300, 1009)
    _assert_same_bytes(_with_columns(traj, horizon, values), tmp_path)
