"""A settled window and a settled trajectory hold their heads only.  Each
reader of them against the whole-window code it replaced (``lemmas``): the
window, the range check, the premise check, the trajectory, the audit, the
soundness and liminf reports and the CSV bytes; and the memory of a run
against its horizon."""

import json
from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

import km_rates as km
from km_rates import cli
from km_rates.config import ConfigError
from km_rates.engine import BLOCK, CSV_CHUNK
from km_rates.moduli import RateFn, RateKind
from km_rates.schedules import HeadStream, Series, Window, held_from

import lemmas
from conftest import rotation_instance
from reference_engine import reference_write_trajectory_csv

H = 2 * CSV_CHUNK + 1


def _switch(t, before, after):
    """The table stream that is ``before`` below index t and ``after`` from t
    on, which declares its head."""
    return HeadStream([before] * t + [after])


def _case(name, t=None, horizon=H):
    """(space, operator, start, schedule, horizon) of a named case; t is the
    index a ``then`` tail starts at."""
    space, op, start, schedule, _, _ = rotation_instance()
    if name == "classical_km":  # the README rotation: the window settles at 0
        return space, op, start, schedule, horizon
    identity = km.make_operator("identity", space)
    if name == "then-identity":
        # alpha + beta = 1 on both sides, and the start keeps its bits under
        # either map, so the walk ends at the first block end from t on
        tail = replace(schedule, alpha=_switch(t, 0.25, 0.5), beta=_switch(t, 0.75, 0.5))
        return space, identity, [1.0, 0.5], tail, horizon
    if name == "then-rotation":  # a defect of 1/4 declared zero up to t
        return space, op, start, replace(schedule, alpha=_switch(t, 0.25, 0.5)), horizon
    if name == "no-tail":  # ||r_n|| = 0.25/(n+1)^2 changes at every index
        return space, op, start, km.make_example1(0.5, r_star=[0.25, 0.0], norm=space.norm), \
            horizon
    if name == "r-norm-at-n_max":  # ||r_n|| is 0 below t and 1/4 from t = n_max on
        return space, op, start, replace(schedule, perturbation_norm=_switch(t, 0.0, 0.25)), \
            horizon
    if name == "signed-zero-tail":
        return space, op, start, replace(schedule, perturbation_norm=_switch(0, 0.0, -0.0)), \
            horizon
    if name == "inexact-0.1":  # the defect is (1 - 0.9) - 0.1 at every index
        divergence = RateFn.affine(12, 0, RateKind.RATE_OF_DIVERGENCE)
        return space, op, start, km.make_inexact_km(0.1, divergence), horizon
    if name == "nonzero-series-zero-tail":  # a defect of 1/4 up to t, then 0
        series = Series(RateFn.affine(1, t, RateKind.CAUCHY_MODULUS), t)
        return space, op, start, replace(schedule, alpha=_switch(t, 0.25, 0.5),
                                          defect_series=series), horizon
    raise ValueError(name)


TAILS = [BLOCK - 1, BLOCK + 1, CSV_CHUNK - 1, CSV_CHUNK + 1, "H-1"]
CASES = [("classical_km", None, H), ("classical_km", None, 3 * CSV_CHUNK),
         ("then-rotation", 300, H), ("no-tail", None, 3000), ("signed-zero-tail", None, H),
         ("inexact-0.1", None, 5000), ("nonzero-series-zero-tail", 700, 4000),
         ("r-norm-at-n_max", H, H)]
CASES += [("then-identity", horizon - 1 if t == "H-1" else t, horizon)
          for t in TAILS for horizon in (2 * CSV_CHUNK - 1, 2 * CSV_CHUNK + 1)]
IDS = [f"{name}-{t}-{horizon}" for name, t, horizon in CASES]


def _settled_index(window: Window) -> int:
    """The smallest s from which the three whole streams keep the bits of
    their last entry, by a scan."""
    streams = [v.view(np.uint64) for v in (window.alpha, window.beta, window.r_norm)]
    s = window.n_max
    while s > 0 and all(v[s - 1] == v[-1] for v in streams):
        s -= 1
    return s


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


@pytest.mark.parametrize("name, t, horizon", CASES, ids=IDS)
def test_window_and_premises_match_the_whole_window(name, t, horizon):
    *_, schedule, horizon = _case(name, t, horizon)
    window = Window.read(schedule, horizon)
    whole = lemmas.whole_window(schedule, horizon)
    assert window.settled == _settled_index(whole)
    # each stream's own shortest head, the longest of them ending at s
    sizes = [v.size for v in (window.alpha, window.beta, window.r_norm)]
    assert sizes == [held_from(v) + 1 for v in (whole.alpha, whole.beta, whole.r_norm)]
    assert max(sizes) == window.settled + 1
    for got, expected in zip(window.values(0, horizon + 1), (whole.alpha, whole.beta,
                                                             whole.r_norm)):
        assert _bits(got) == _bits(expected)
    reference = lemmas.whole_verify_hypotheses(schedule, horizon).to_dict()
    for given in (None, window):
        assert repr(km.verify_hypotheses(schedule, horizon, given).to_dict()) == repr(reference)


@pytest.mark.parametrize("name, t, horizon", CASES, ids=IDS)
def test_run_and_its_checks_match_the_whole_window(tmp_path, name, t, horizon):
    space, op, start, schedule, horizon = _case(name, t, horizon)
    traj = km.iterate(space, op, start, schedule, horizon)
    # the same streams, bit for bit, as the run of the same streams behind
    # plain callables, which declare nothing and so hold every stream whole
    on_whole = km.iterate(space, op, start, lemmas.opaque(schedule), horizon)
    assert on_whole.settled is None
    arrays = [f.name for f in fields(traj) if isinstance(getattr(traj, f.name), np.ndarray)]
    for name in arrays:
        assert _bits(getattr(lemmas.whole_trajectory(traj), name)) == \
            _bits(getattr(lemmas.whole_trajectory(on_whole), name)), name
    window = Window.read(schedule, horizon)
    assert [traj.alpha.size, traj.beta.size, traj.r_norm.size] == \
        [window.alpha.size, window.beta.size, window.r_norm.size]
    # res_T, res_step, K_z, dist_z, norm_x: cut at the walk's end m, K_z at
    # the horizon unless the trajectory is settled at m
    k, h = traj.settled, horizon
    m = traj.res_T.size - 1
    assert [getattr(traj, name).size for name in arrays[:5]] == \
        [m + 1, min(m + 1, h), m + 1 if k is not None else h + 1, m + 1, m + 1]
    assert k is None or k == m

    constants = km.instance_constants(start, op.fixed_point, schedule, norm=space.norm)
    lemmas.assert_audit_matches_whole_array(traj, constants)
    k = horizon if k is None else k
    bounds = sorted({0, max(k - 1, 0), k, k + 1, horizon - 1, horizon, horizon + 5})
    rates = [RateFn.constant(b, RateKind.RATE_OF_CONVERGENCE) for b in bounds]
    rates.append(RateFn.affine(3, 1, RateKind.RATE_OF_CONVERGENCE))
    for quantity in ("res_T", "res_step"):
        for rate in rates:
            assert km.check_rate_soundness(traj, rate, quantity, 40).rows == \
                lemmas.whole_soundness(traj, rate, quantity, 40).rows
    for width in bounds:
        modulus = RateFn(lambda j, L, width=width: L + width, RateKind.LIMINF_MODULUS)
        assert km.check_liminf_contract(traj, modulus, 8, 8).cells == \
            lemmas.whole_liminf(traj, modulus, 8, 8).cells

    km.write_trajectory_csv(traj, tmp_path / "new.csv")
    reference_write_trajectory_csv(lemmas.whole_trajectory(traj), tmp_path / "old.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("k", [0, 3, 8, 9])
def test_liminf_and_soundness_past_a_small_settled_index(k):
    """Hand-built streams held on [0, k], below the grid's L = 8 or just
    above it, each entry before k different from entry k: windows that start
    past k read entry k."""
    space, op, start, schedule, _, _ = rotation_instance()
    short = km.iterate(space, op, start, schedule, 60)
    rng = np.random.default_rng(k)
    for tail in (0.01, 0.3, 0.9):
        res_T = rng.uniform(0.0, 1.0, k + 1)
        res_T[k] = tail
        traj = replace(short, res_T=res_T, res_step=rng.uniform(0.0, 1.0, k + 1))
        for width in (0, 1, 5, 60):
            modulus = RateFn(lambda j, L, width=width: L + width, RateKind.LIMINF_MODULUS)
            assert km.check_liminf_contract(traj, modulus, 8, 8).cells == \
                lemmas.whole_liminf(traj, modulus, 8, 8).cells
        for bound in (0, k, k + 1, 59, 60):
            rate = RateFn.constant(bound, RateKind.RATE_OF_CONVERGENCE)
            for quantity in ("res_T", "res_step"):
                assert km.check_rate_soundness(traj, rate, quantity, 10).rows == \
                    lemmas.whole_soundness(traj, rate, quantity, 10).rows


@pytest.mark.parametrize("t", [0, BLOCK - 1, CSV_CHUNK + 1, H - 1])
@pytest.mark.parametrize("value", [1.2, -0.5, float("nan")])
def test_weights_that_break_their_range_from_the_settled_index(t, value):
    """beta leaves [0, 1] or turns NaN from t on, the window's settled index:
    the range check's message and the premise check's findings are those of
    the whole window."""
    schedule = replace(km.make_classical_km(0.5), beta=_switch(t, 0.5, value))
    assert Window.read(schedule, H).settled == t
    expected = lemmas.whole_range_message(schedule, H)
    with pytest.raises(ConfigError) as exc:
        cli._validate_schedule_window(SimpleNamespace(schedule=schedule), H)
    assert str(exc.value) == expected
    report = km.verify_hypotheses(schedule, H)
    assert repr(report.to_dict()) == repr(lemmas.whole_verify_hypotheses(schedule, H).to_dict())
    assert len([f for f in report.findings if f.check == "beta_range"]) == min(20, H + 1 - t)


@pytest.mark.parametrize("t", [BLOCK + 1, CSV_CHUNK - 1])
def test_command_exits_2_on_a_then_weight_out_of_range(tmp_path, capsys, t):
    doc = {"space": {"dim": 2, "norm": "euclidean"},
           "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
           "start": [1.0, 0.0],
           "schedule": {"family": "custom", "params": {
               "alpha": 0.5, "beta": {"values": [0.5] * t, "then": 1.2},
               "perturbation": {"zero": True}, "defect_is_zero": True,
               "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}}},
           "certificate": {"formula": "general"},
           "run": {"horizon": H, "k_max": 3},
           "output": {"directory": str(tmp_path / "out"), "formats": ["csv", "json"]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    schedule = km.assemble(km.RunConfig.from_dict(doc)).schedule
    assert cli.main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {lemmas.whole_range_message(schedule, H)}\n"


def _nbytes(*objects) -> int:
    return sum(v.nbytes for obj in objects for v in vars(obj).values() if hasattr(v, "nbytes"))


def test_settled_run_holds_the_same_bytes_at_any_horizon():
    """The README rotation settles at 2303 whatever the horizon: its window
    and its trajectory hold the same bytes at H = 10^4 and at H = 10^6, the
    five norm streams on [0, 2303] and the three schedule heads of one
    entry each, in the window and in the trajectory."""
    space, op, start, schedule, _, _ = rotation_instance()
    held = []
    for horizon in (10**4, 10**6):
        window = Window.read(schedule, horizon)
        traj = km.iterate(space, op, start, schedule, horizon, window=window)
        assert traj.settled == 2303 and window.settled == 0
        held.append(_nbytes(window, traj))
    assert held[0] == held[1] == 2304 * 5 * 8 + 2 * 3 * 8


@pytest.mark.parametrize("case", ["no-tail", "moved-z"])
def test_unsettled_run_holds_its_changing_streams_whole(case):
    """A run that never settles holds its norm streams and ||r_n|| whole,
    and one whose walk ends at some m but whose K_z keeps growing holds K_z
    whole and its other norm streams on [0, m]; alpha and beta, constant,
    are held as one entry each."""
    space, op, start, schedule, _, _ = rotation_instance()
    horizon = 3000
    if case == "no-tail":
        schedule = km.make_example1(0.5, r_star=[0.25, 0.0], norm=space.norm)
    else:  # beta_k*||T(z) - z|| > 0 at the walk's end
        op = replace(op, fixed_point=np.array([0.25, 0.25]))
    traj = km.iterate(space, op, start, schedule, horizon)
    assert traj.settled is None
    m = traj.res_T.size - 1
    assert (m == horizon) == (case == "no-tail")
    r_norm = horizon + 1 if case == "no-tail" else 1
    assert _nbytes(traj) == 8 * (horizon + 1 + 3 * (m + 1) + min(m + 1, horizon) + 2 + r_norm)


def test_a_window_cut_by_hand_is_refused():
    """A read window whose ||r_n|| is cut to 100 of its 1001 entries would
    read as settled at 99 and sum the perturbation to 0.43127 instead of
    0.41098: only a window that ``Window.read`` built is taken."""
    space, op, start, _, _, _ = rotation_instance()
    schedule = km.make_example1(0.5, r_star=[0.25, 0.0], norm=space.norm)
    window = Window.read(schedule, 1000)
    assert window.settled == 1000
    cut = replace(window, r_norm=window.r_norm[:100])
    for wrong in (cut, Window(window.alpha, window.beta, window.r_norm, 1000)):
        with pytest.raises(ValueError, match="only Window.read builds one"):
            km.verify_hypotheses(schedule, 1000, wrong)
        with pytest.raises(ValueError, match="only Window.read builds one"):
            km.iterate(space, op, start, schedule, 1000, window=wrong)
    report = km.verify_hypotheses(schedule, 1000, window)
    assert report.perturbation_window_sum == pytest.approx(0.41098, abs=1e-5)
