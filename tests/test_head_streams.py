"""Head streams (``schedules.HeadStream``) against the plain callables they
replace: the window, the trajectory and the command outputs keep their bits,
and no reader calls a head stream over a horizon."""

import contextlib
import io
import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest

import km_rates as km
from km_rates import cli
from km_rates.config import _sequence_spec
from km_rates.schedules import (CSV_CHUNK, HeadStream, Window, constant_stream, held,
                                held_from, settled_from)

import lemmas

H = 2 * CSV_CHUNK + 1
STREAMS = ("alpha", "beta", "perturbation", "perturbation_norm")


def _constant(value):
    """A constant stream as it was read before it became a head."""
    return lambda n: np.zeros(np.shape(n)) + value


def _plain(stream):
    """The plain callable of a head stream: the gather the config's tables
    were read by before they became heads."""
    head = np.array(stream.head)
    return lambda n: head[np.minimum(n, len(head) - 1)]


def _doc(schedule, horizon=H, **changes):
    doc = {
        "space": {"dim": 2, "norm": "euclidean"},
        "operator": {"name": "rotation", "params": {"angle_deg": 90.0}},
        "start": [1.0, 0.0],
        "schedule": schedule,
        "certificate": {"formula": "auto"},
        "run": {"horizon": horizon, "k_max": 3},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }
    doc.update(changes)
    return doc


def _custom(alpha, beta, **params):
    return {"family": "custom", "params": dict(
        alpha=alpha, beta=beta, defect_is_zero=True,
        weight_divergence={"affine": {"slope": 16, "intercept": 0}}, **params)}


README = _doc({"family": "classical_km", "params": {"beta": 0.5}})
ALTERNATING = [0.5, 0.25] * 300
# r_n = (1e-3/(n+1)^2, 0) up to index 299, then 0: rows the step loop adds
# and the settled index walks, as a head and as their gather
ROWS = np.zeros((301, 2))
ROWS[:300, 0] = 1e-3 / np.arange(1, 301) ** 2
# name: (config document, {stream: (head stream, plain callable)} put on the
# config's schedule); every other head stream of it is read by :func:`_plain`
CASES = {
    "constant-0.5": (README, {}),
    "constant-minus-zero": (README, {"perturbation_norm": (constant_stream(-0.0),
                                                           _constant(-0.0))}),
    "constant-nan": (README, {"perturbation_norm": (constant_stream(math.nan),
                                                    _constant(math.nan))}),
    "zero-perturbation-dim3": (_doc(
        {"family": "example2", "params": {"lam": 0.5}}, space={"dim": 3, "norm": "euclidean"},
        operator={"name": "ball_projection", "fixed_point": "nearest",
                  "params": {"center": [0.0, 0.0, 0.0], "radius": 1.0}}, start=[2.0, 0.0, 0.0]),
        {"perturbation": (HeadStream(np.zeros((1, 1))),
                          lambda n: np.zeros(np.shape(n) + (1,)))}),
    "perturbation-table": (README, {
        "perturbation": (HeadStream(ROWS), lambda n: ROWS[np.minimum(n, 300)]),
        "perturbation_norm": (HeadStream(ROWS[:, 0]), lambda n: ROWS[np.minimum(n, 300), 0])}),
    "then-omitted": (_doc(_custom({"values": [0.25] * 300 + [0.5]},
                                  {"values": [0.75] * 300 + [0.5]})), {}),
    "empty-values": (_doc(_custom({"values": [], "then": 0.5},
                                  {"values": [], "then": 0.5})), {}),
    "values-past-the-horizon": (_doc(_custom({"values": ALTERNATING, "then": 0.5},
                                             {"values": [1.0 - a for a in ALTERNATING],
                                              "then": 0.5}), 500), {}),
    "then-equals-last": (_doc(_custom({"values": [0.25, 0.5], "then": 0.5},
                                      {"values": [0.75, 0.5], "then": 0.5})), {}),
    "inexact-alpha-of-a-head-beta": (_doc({"family": "inexact_km", "params": {
        "beta": {"values": [0.25] * 100 + [0.75] * 100, "then": 0.5},
        "weight_divergence": {"affine": {"slope": 16, "intercept": 0}}}}), {}),
}


def _schedules(name):
    """(head schedule, plain schedule) of a case."""
    doc, overrides = CASES[name]
    schedule = km.assemble(km.RunConfig.from_dict(doc)).schedule
    schedule = replace(schedule, **{key: head for key, (head, _) in overrides.items()})
    plain = {key: _plain(getattr(schedule, key)) for key in STREAMS
             if isinstance(getattr(schedule, key), HeadStream)}
    plain.update({key: stream for key, (_, stream) in overrides.items()})
    return schedule, replace(schedule, **plain)


def _bits(values) -> bytes:
    return np.ascontiguousarray(values, dtype=float).tobytes()


def _outputs(tmp_path, monkeypatch, name, side, command):
    """Exit code, stdout and the bytes of every output file of ``command``
    on the case's config, its schedule streams those of the case's ``side``,
    0 for the head streams and 1 for the plain callables."""
    doc, _ = CASES[name]
    streams = _schedules(name)[side]
    directory = tmp_path / command / str(side)
    directory.mkdir(parents=True)
    (directory / "config.json").write_text(json.dumps(doc))

    def assemble_with(cfg):
        instance = km.assemble(cfg)
        instance.schedule = replace(instance.schedule, **{
            key: getattr(streams, key) for key in STREAMS})
        return instance

    monkeypatch.setattr(cli, "assemble", assemble_with)
    monkeypatch.chdir(directory)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main([command, "--config", "config.json"])
    files = {path.name: path.read_bytes() for path in sorted((directory / "out").iterdir())}
    return code, stdout.getvalue(), files


@pytest.mark.parametrize("name", CASES)
def test_head_streams_read_as_their_plain_callables(name):
    """The plain callables declare no head, so a window holds them whole;
    the head streams' window holds each stream's shortest head, which a scan
    of the whole one finds, and both runs have the same streams bit for
    bit."""
    heads, plain = _schedules(name)
    assert any(isinstance(getattr(heads, key), HeadStream) for key in STREAMS)
    assert not any(isinstance(getattr(plain, key), HeadStream) for key in STREAMS)
    horizon = CASES[name][0]["run"]["horizon"]
    window, on_plain = Window.read(heads, horizon), Window.read(plain, horizon)
    assert on_plain.settled == horizon
    for key in ("alpha", "beta", "r_norm"):
        whole = getattr(on_plain, key)
        assert getattr(window, key).size == held_from(whole) + 1, key
        assert _bits(held(getattr(window, key), 0, horizon + 1)) == _bits(whole), key
        assert not getattr(window, key).flags.writeable
    doc = CASES[name][0]
    instance = km.assemble(km.RunConfig.from_dict(doc))
    trajectories = [km.iterate(instance.space, instance.operator, instance.start, schedule,
                               horizon) for schedule in (heads, plain)]
    assert trajectories[1].settled is None
    for field in fields(trajectories[0]):
        got, expected = (getattr(lemmas.whole_trajectory(t), field.name) for t in trajectories)
        if isinstance(got, np.ndarray):
            assert _bits(got) == _bits(expected), field.name
        else:
            assert repr(got) == repr(expected), field.name


@pytest.mark.parametrize("command", ["run", "verify"])
@pytest.mark.parametrize("name", CASES)
def test_commands_write_the_bytes_of_the_plain_callables(tmp_path, monkeypatch, name, command):
    heads, plain = (_outputs(tmp_path, monkeypatch, name, side, command) for side in (0, 1))
    assert heads[:2] == plain[:2]
    assert heads[2].keys() == plain[2].keys() and heads[2]
    for file in heads[2]:
        assert heads[2][file] == plain[2][file], file


@pytest.mark.parametrize("spec", [
    {"values": [0.25, -0.0, 0.5]}, {"values": [], "then": 0.5}, {"values": []},
    {"values": [0.25, 0.5], "then": 0.5}, {"values": [0.25] * 7, "then": -0.0}])
def test_a_values_spec_is_the_head_of_its_old_gather(spec):
    """The table of ``{"values": [...], "then": v}``, then omitted read as
    the last value (0.0 for no values), against the lambda it replaced: the
    same bits and shapes at every index, an index array or one index."""
    values = np.asarray(spec["values"], dtype=float)
    table = np.append(values, spec.get("then", values[-1] if len(values) else 0.0))
    old = lambda n: table[np.minimum(n, len(values))]
    stream = _sequence_spec(spec, "beta")
    assert isinstance(stream, HeadStream)
    for n in (np.arange(12), np.arange(5, 12), np.arange(0), 0, 3, 11):
        got, expected = stream(n), old(n)
        assert np.shape(got) == np.shape(expected)
        assert _bits(got) == _bits(expected)


def test_head_stream_calls_past_the_head_are_zero_stride_views():
    stream = HeadStream([1.0, 2.0, 3.0])
    tail = stream(np.arange(2, 10))
    assert tail.strides == (0,) and not tail.flags.writeable and tail.tolist() == [3.0] * 8
    assert stream(np.arange(1, 4)).tolist() == [2.0, 3.0, 3.0]
    zero = km.make_classical_km(0.5).perturbation
    assert zero(np.arange(5)).shape == (5, 1) and zero(7).shape == (1,)
    with pytest.raises(ValueError, match="at least one entry"):
        HeadStream([])


@pytest.mark.parametrize("index, settled", [(0, 1), (299, 300), (H - 1, H), (H, H),
                                             (H + 1, 0), (None, 0)])
def test_settled_index_of_head_rows_is_that_of_their_gather(index, settled):
    """Rows of a head perturbation that differ in the sign of a zero at
    ``index`` only (None: at no index), the head one row longer than that:
    the settled index the head declares is the one a scan of the gather of
    its rows on [0, H] finds."""
    rows = np.zeros((2 if index is None else index + 2, 3))
    if index is not None:
        rows[index, 1] = -0.0
    gather = rows[np.minimum(np.arange(H + 1), len(rows) - 1)]
    assert settled_from(HeadStream(rows), H) == held_from(gather) == settled


def _count_calls(monkeypatch):
    calls = []
    call = HeadStream.__call__
    monkeypatch.setattr(HeadStream, "__call__",
                        lambda self, n: calls.append(np.shape(n)) or call(self, n))
    return calls


def test_readme_verify_calls_no_head_stream(tmp_path, monkeypatch):
    """The README config at its auto horizon, whose four streams are head
    streams: the window takes the heads of alpha, beta and ||r_n||, and the
    step loop the zero perturbation's."""
    calls = _count_calls(monkeypatch)
    doc = _doc(README["schedule"], "auto", output={"directory": str(tmp_path / "out"),
                                                   "formats": ["csv", "json"]})
    schedule = km.assemble(km.RunConfig.from_dict(doc)).schedule
    assert all(isinstance(getattr(schedule, key), HeadStream) for key in STREAMS)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", str(tmp_path / "config.json")]) == 0
    assert calls == []


def test_settled_index_reads_no_row_of_the_zero_perturbation(monkeypatch):
    """The zero perturbation declares its settled index 0 from its head of
    one row, with no call, at any horizon."""
    calls = _count_calls(monkeypatch)
    schedule = km.make_classical_km(0.5)
    assert [settled_from(schedule.perturbation, h) for h in (1, H, 10 ** 6)] == [0, 0, 0]
    assert calls == []


def test_window_read_of_classical_km_calls_no_stream(monkeypatch):
    calls = _count_calls(monkeypatch)
    window = Window.read(km.make_classical_km(0.5), 10 ** 6)
    assert calls == [] and window.settled == 0


def test_an_opaque_stream_that_turns_constant_is_held_whole(tmp_path, monkeypatch):
    """Weights that turn constant at 300 behind plain callables declare no
    head: the window holds them whole, the run never settles, and ``run``
    writes the bytes of the head streams of the same values, whose window
    and run settle."""
    heads, plain = _schedules("then-omitted")
    window = Window.read(plain, H)
    assert [window.alpha.size, window.beta.size, window.settled] == [H + 1, H + 1, H]
    assert Window.read(heads, H).settled == 300
    instance = km.assemble(km.RunConfig.from_dict(CASES["then-omitted"][0]))
    on_heads, on_plain = (km.iterate(instance.space, instance.operator, instance.start,
                                     schedule, H) for schedule in (heads, plain))
    assert on_plain.settled is None and on_plain.res_T.size == H + 1
    assert on_heads.settled is not None
    assert _outputs(tmp_path, monkeypatch, "then-omitted", 0, "run") == \
        _outputs(tmp_path, monkeypatch, "then-omitted", 1, "run")


ANCHOR = {"family": "anchor", "params": {"base": README["schedule"], "u": [1.0, 0.0]}}


@pytest.mark.parametrize("base", [
    README["schedule"],
    {"family": "inexact_km", "params": {
        "beta": {"values": [0.1, 0.3], "then": 0.5},
        "weight_divergence": {"affine": {"slope": 16, "intercept": 0}}}},
    {"family": "custom", "params": {
        "alpha": {"values": [0.25, 0.5, 0.125]}, "beta": {"values": [0.75, 0.25, 0.5, 0.0625]},
        "defect_cauchy": {"affine": {"slope": 1, "intercept": 0}}, "defect_sum_bound": 1,
        "weight_divergence": {"affine": {"slope": 16, "intercept": 0}}}}])
def test_an_anchor_over_head_weights_is_the_head_of_its_old_streams(base):
    """Over head weights, tables of different lengths too, the anchor's
    perturbation and norms are head streams with the bits and shapes of the
    defect streams they replace, at every index."""
    schedule = km.assemble(km.RunConfig.from_dict(_doc(dict(ANCHOR, params={
        "base": base, "u": [0.75, -0.5]})))).schedule
    assert isinstance(schedule.perturbation, HeadStream)
    assert isinstance(schedule.perturbation_norm, HeadStream)
    u = np.array([0.75, -0.5])
    nu = km.Space(dim=2).norm(u)
    for n in (np.arange(12), np.arange(5, 9), 0, 2, 11):
        defect = 1.0 - schedule.alpha(n) - schedule.beta(n)
        for got, expected in ((schedule.perturbation(n), np.asarray(defect)[..., None] * u),
                              (schedule.perturbation_norm(n), np.abs(defect) * nu)):
            assert np.shape(got) == np.shape(expected) and _bits(got) == _bits(expected)


def test_anchor_verify_calls_no_stream(tmp_path, monkeypatch):
    """The README rotation with ``anchor`` u = [1, 0] over ``classical_km``
    0.5 at its auto horizon: the anchor's perturbation and its norms are
    head streams, so the verify calls none of its four streams (the defect
    lambdas they replace were called 19 and 25 times)."""
    calls = _count_calls(monkeypatch)
    doc = _doc(ANCHOR, "auto", output={"directory": str(tmp_path / "out"),
                                       "formats": ["csv", "json"]})
    schedule = km.assemble(km.RunConfig.from_dict(doc)).schedule
    assert all(isinstance(getattr(schedule, key), HeadStream) for key in STREAMS)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--config", str(tmp_path / "config.json")]) == 0
    assert calls == []
