"""Memory guards: a run holds its streams and no array of the horizon
besides them.  Each guard reads ``tracemalloc``, which counts numpy's
buffers, and takes well under 2 s."""

import contextlib
import io
import json
import tracemalloc
from pathlib import Path

import numpy as np

import km_rates as km
from km_rates import cli
from km_rates.schedules import Window, held

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _peak(fn) -> int:
    """The ``tracemalloc`` peak of ``fn()`` above what was allocated before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_window_read_of_a_constant_schedule_allocates_no_horizon():
    """The constant streams of ``classical_km`` are zero-stride views, and
    the window reads them a chunk of indices at a time: under 1 MB at a
    horizon of 10^6, where one array of it takes 8 MB."""
    windows = []
    peak = _peak(lambda: windows.append(Window.read(km.make_classical_km(0.5), 10 ** 6)))
    assert peak < 1_000_000, peak
    assert [v.tolist() for v in (windows[0].alpha, windows[0].beta, windows[0].r_norm)] == [
        [0.5], [0.5], [0.0]]


def test_window_read_of_a_stream_that_never_settles_holds_it_once(monkeypatch):
    """||r_n|| of the benchmark's dim-64 p = 3 run changes at every index,
    as its stream declares: its head of 0.40 MB is read a chunk at a time
    into one array of n_max + 1 entries, so the read peaks at that array,
    one chunk of indices and the stream's own temporaries for a chunk
    (holding the chunks and their concatenation took 0.81 MB)."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    doc = workloads.lp_run_export(1)[0].config
    doc = dict(doc, run=dict(doc["run"], horizon=50_000))
    schedule = km.assemble(km.RunConfig.from_dict(doc)).schedule
    windows = []
    peak = _peak(lambda: windows.append(Window.read(schedule, 50_000)))
    assert windows[0].r_norm.size == 50_001
    assert peak <= 500_000, peak


def test_held_past_a_head_is_a_read_only_zero_stride_view():
    head = np.array([3.0, 2.0, 1.0])
    for n0 in (2, 7):
        tail = held(head, n0, 10 ** 6)
        assert tail.strides == (0,) and not tail.flags.writeable
        assert tail.shape == (10 ** 6 - n0,) and tail[0] == tail[-1] == 1.0
    straddle = held(head, 1, 6)
    assert straddle.tolist() == [2.0, 1.0, 1.0, 1.0, 1.0] and not straddle.flags.writeable
    assert np.shares_memory(held(head, 0, 3), head)


def _growth_per_step(tmp_path, monkeypatch, command: str) -> float:
    """The peak's growth per added step of ``command`` on the benchmark's
    dim-64 p = 3 config, writing its JSON only, from H = 24 000 to 48 000."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import workloads

    doc = workloads.lp_run_export(1)[0].config
    peaks = []
    for horizon in (24_000, 48_000):
        path = tmp_path / f"{command}-{horizon}.json"
        path.write_text(json.dumps(dict(doc, run=dict(doc["run"], horizon=horizon), output={
            "directory": str(tmp_path / f"out-{command}-{horizon}"), "formats": ["json"]})))
        with contextlib.redirect_stdout(io.StringIO()):
            peaks.append(_peak(lambda: cli.main([command, "--config", str(path)])))
    return (peaks[1] - peaks[0]) / 24_000


def test_a_run_that_never_settles_grows_by_48_bytes_per_step(tmp_path, monkeypatch):
    """The benchmark's dim-64 p = 3 run, whose perturbation changes at every
    step: its streams res_T, res_step, K_z, norm_x (which dist_z shares, as
    z = 0) and ||r_n|| take 40 bytes per step, and the peak grows by no
    more than 48 bytes per added step.  The horizons are large enough that
    the streams, not the scratch of the step loop's blocks, set most of the
    peak."""
    growth = _growth_per_step(tmp_path, monkeypatch, "run")
    assert growth <= 48, growth


def test_a_verify_that_never_settles_grows_by_56_bytes_per_step(tmp_path, monkeypatch):
    """The same config under verify, which checks the schedule premises
    before the run: their arrays of the window (||r_n|| and its partial
    sums) are gone before the run's streams are held, so the peak grows by
    no more than 56 bytes per added step (64 when the premises ran after
    the run)."""
    growth = _growth_per_step(tmp_path, monkeypatch, "verify")
    assert growth <= 56, growth
