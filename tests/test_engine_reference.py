"""The block engine against the per-step reference loop it replaced, and the
scalar and array forms of every schedule family's streams."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.engine import BLOCK, NumericAbort
from km_rates.operators import Operator

from lemmas import iterate_with_points
from reference_engine import reference_iterate

LP_SAFE = ("identity", "coordinate_shrink")
FAMILIES = ("example1", "example2", "classical_km", "inexact_km", "anchor", "custom")
HORIZONS = (1, BLOCK - 1, BLOCK, BLOCK + 1)


def _vector(rng, dim, length):
    v = rng.standard_normal(dim)
    return (length * v / np.linalg.norm(v)).tolist()


def _operator(name, rng, dim):
    if name == "rotation":
        return {"angle_deg": float(rng.uniform(10.0, 170.0)), "axes": [0, dim - 1]}
    if name == "ball_projection":
        return {"center": _vector(rng, dim, 0.2), "radius": 0.5}
    if name == "halfspace_projection":
        return {"normal": _vector(rng, dim, 1.0), "offset": 0.3}
    if name == "box_projection":
        return {"lo": [-0.2] * dim, "hi": [0.3] * dim}
    if name == "affine_avg":
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return {"matrix": (0.9 * q).tolist(), "shift": _vector(rng, dim, 0.1)}
    if name == "coordinate_shrink":
        return {"factors": rng.uniform(-1.0, 1.0, dim).tolist()}
    return {}


def _schedule(family, rng, dim):
    lam = float(rng.uniform(0.1, 0.7))
    r_star = _vector(rng, dim, float(rng.uniform(0.1, 2.0)))
    offset = int(rng.integers(1, 4))
    inverse_square = {"inverse_square": {"r_star": r_star, "offset": offset}}
    if family == "example1":
        return {"lam": lam, "offset": offset, "r_star": r_star}
    if family == "example2":
        return {"lam": lam, "J": int(rng.integers(2, 5)), "offset": offset, "r_star": r_star}
    if family == "classical_km":
        return {"beta": lam}
    if family == "inexact_km":
        return {"beta": {"values": rng.uniform(0.2, 0.8, 5).tolist(), "then": lam},
                "weight_divergence": {"affine": {"slope": 8, "intercept": 0}},
                "perturbation": inverse_square,
                "perturbation_cauchy": {"affine": {"slope": 2, "intercept": 2}},
                "perturbation_sum_bound": 4}
    if family == "anchor":
        return {"base": {"family": "example2", "params": {"lam": lam}}, "u": r_star}
    # custom: a table of alphas (possibly empty) continued by a constant
    values = rng.uniform(0.1, 0.5, int(rng.integers(0, 5))).tolist()
    return {"alpha": {"values": values, "then": 0.5}, "beta": {"const": 0.5},
            "perturbation": inverse_square, "defect_is_zero": False,
            "defect_cauchy": {"const": 4},
            "weight_divergence": {"affine": {"slope": 8, "intercept": 0}},
            "perturbation_cauchy": {"affine": {"slope": 2, "intercept": 2}},
            "defect_sum_bound": 2, "perturbation_sum_bound": 4}


def assembled(op_name, family, dim, p, seed):
    rng = np.random.default_rng(seed)
    space = {"dim": dim, "norm": "euclidean"} if p == 2.0 else {"dim": dim, "norm": "lp", "p": p}
    doc = {"space": space,
           "operator": {"name": op_name, "params": _operator(op_name, rng, dim)},
           "start": _vector(rng, dim, 0.75),
           "schedule": {"family": family, "params": _schedule(family, rng, dim)},
           "run": {"horizon": 10, "k_max": 2}}
    return km.assemble(km.RunConfig.from_dict(doc))


@given(op_name=st.sampled_from(km.catalog_names()), family=st.sampled_from(FAMILIES),
       dim=st.sampled_from([2, 3, 8]), p=st.sampled_from([2.0, 1.5, 3.0, 7.0]),
       horizon=st.sampled_from(HORIZONS), moved_z=st.booleans(), seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_block_engine_matches_reference_loop(op_name, family, dim, p, horizon, moved_z, seed):
    if op_name not in LP_SAFE:
        p = 2.0
    _assert_matches_reference(op_name, family, dim, p, horizon, moved_z, seed)


@pytest.mark.parametrize("horizon", [BLOCK - 1, BLOCK, BLOCK + 1])
@pytest.mark.parametrize("family", ["example2", "anchor"])
def test_block_engine_matches_reference_loop_dim64(family, horizon):
    """beta_n and r_n vary per index and r_n fills whole rows, across the
    block boundary."""
    _assert_matches_reference("coordinate_shrink", family, 64, 3.0, horizon, moved_z=False,
                              seed=5)


def test_block_engine_keeps_the_sign_of_zero():
    """-0.0 entries of the start under a positive shrink: adding the zero
    perturbation makes them +0.0 from x_1 on, in both loops."""
    space = km.Space(dim=8)
    op = km.make_operator("coordinate_shrink", space, {"factors": [0.5] * 8})
    args = (space, op, np.array([-0.0, 0.0] * 4), km.make_classical_km(0.5), BLOCK + 1)
    _, ref_points = iterate_with_points(reference_iterate, *args)
    _, new_points = iterate_with_points(km.iterate, *args)
    assert np.signbit(new_points[0]).any()
    assert np.array_equal(new_points.view(np.uint64), ref_points.view(np.uint64))


def _assert_matches_reference(op_name, family, dim, p, horizon, moved_z, seed):
    inst = assembled(op_name, family, dim, p, seed)
    op = inst.operator
    if moved_z:  # a reference point that is not fixed: ||T(z) - z|| > 0 enters K_z
        op = replace(op, fixed_point=op.fixed_point + 0.25)
    assert_run_matches_reference(inst.space, op, inst.start, inst.schedule, horizon)


def assert_run_matches_reference(*args):
    """``km.iterate`` and the reference loop on ``args``: equal schedule
    streams, norm streams to 1e-12 and the points bit for bit."""
    ref, ref_points = iterate_with_points(reference_iterate, *args)
    new, new_points = iterate_with_points(km.iterate, *args)
    for name in ("alpha", "beta", "r_norm", "K_z"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("res_T", "res_step", "dist_z", "norm_x"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-12, atol=0.0, err_msg=name)
    # bit for bit: array_equal would count -0.0 == 0.0
    assert np.array_equal(new_points.view(np.uint64), ref_points.view(np.uint64))


@pytest.mark.parametrize("horizon", [3 * BLOCK + 7, 10 * BLOCK + 7])
@pytest.mark.parametrize("case", ["identity", "inside-ball", "rotation-90", "moved-z",
                                  "shrink-example1", "ball-example2"])
def test_block_engine_matches_reference_loop_over_many_blocks(case, horizon):
    """Runs over several blocks, some of which reach a settled fixed point
    and end the walk early: the identity and a start inside the ball at the
    first block, the 90 degree rotation (which reaches (0, 0) near step
    2150) in the longer horizon, and none under a decaying perturbation."""
    space = km.Space(dim=2)
    schedule = km.make_classical_km(0.5)
    start = [0.3, -0.2]
    if case in ("identity", "moved-z"):
        op = km.make_operator("identity", space)
        if case == "moved-z":
            op = replace(op, fixed_point=np.array([0.25, 0.25]))
    elif case == "inside-ball":
        op = km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 1.0})
    elif case == "rotation-90":
        op, start = km.make_operator("rotation", space, {"angle_deg": 90.0}), [1.0, 0.0]
    elif case == "shrink-example1":
        op = km.make_operator("coordinate_shrink", space, {"factors": [0.5, -0.5]})
        schedule = km.make_example1(0.5, r_star=[0.25, 0.0], norm=space.norm)
    else:
        op = km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 0.1})
        schedule = km.make_example2(0.5, r_star=[0.25, 0.0], norm=space.norm)
    assert_run_matches_reference(space, op, start, schedule, horizon)


def _switch_at_600(before, after):
    """A stream that is ``before`` on indices below 600 and ``after`` from 600 on."""
    return lambda n: np.where(np.asarray(n) < 600, before, after)


@pytest.mark.parametrize("stream", ["alpha", "perturbation"])
@pytest.mark.parametrize("op_name", ["identity", "inside-ball"])
def test_coefficient_switch_after_a_repeated_point_is_not_skipped(op_name, stream):
    """Negative controls: every point up to index 600 repeats x_0 under beta
    1/2, but the step map changes at 600 (alpha to 1/4, or r_n to 1e-3*e_1),
    so the walk may not end at the first blocks."""
    space = km.Space(dim=2)
    op = (km.make_operator("identity", space) if op_name == "identity" else
          km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 1.0}))
    classical = km.make_classical_km(0.5)
    if stream == "alpha":
        schedule = replace(classical, alpha=_switch_at_600(0.5, 0.25))
    else:
        r = _switch_at_600(0.0, 1e-3)
        schedule = replace(classical, perturbation=lambda n: r(n)[..., None] * [1.0, 0.0],
                           perturbation_norm=r)
    start = [0.3, -0.2]
    _, points = iterate_with_points(reference_iterate, space, op, start, schedule, 3 * BLOCK + 7)
    assert np.array_equal(points[600], points[0]) and not np.array_equal(points[601], points[0])
    assert_run_matches_reference(space, op, start, schedule, 3 * BLOCK + 7)


def _spike(n):
    """A perturbation of size 1e300 at index 700 and 0 elsewhere."""
    return np.where(np.asarray(n) == 700, 1e300, 0.0)


@pytest.mark.parametrize("factor, spike", [(1e200, False), (2.0, False), (1.5, False),
                                           (1.0, True)])
def test_blower_aborts_at_reference_index(factor, spike):
    """The operator x -> factor*x overflows the norms; the spike makes only
    a step non-finite, since the identity keeps the residual at 0."""
    space = km.Space(dim=2)
    blower = Operator(apply=lambda x: factor * x, fixed_point=np.zeros(2))
    schedule = km.make_classical_km(0.5)
    if spike:
        schedule = km.make_inexact_km(
            0.5, schedule.weight_divergence, lambda n: _spike(n)[..., None] * [1.0, 0.0],
            km.Series(schedule.perturbation_series.modulus, 0), perturbation_norm=_spike)

    def abort_index(run, horizon):
        try:
            run(space, blower, [1.0, 0.0], schedule, horizon)
        except NumericAbort as exc:
            return exc.index
        return None

    def reference_index(horizon):
        with np.errstate(over="ignore", invalid="ignore"):  # the loop overflows openly
            return abort_index(reference_iterate, horizon)

    first = reference_index(2000)
    assert first is not None
    # at horizon first - 1 the final point is the first non-finite one
    for horizon in sorted({h for h in HORIZONS + (first - 1, first, 2000) if h >= 1}):
        assert abort_index(km.iterate, horizon) == reference_index(horizon), horizon


@pytest.mark.parametrize("family", FAMILIES)
def test_streams_scalar_and_array_forms_agree(family):
    dim = 3
    schedule = assembled("identity", family, dim, 2.0, seed=11).schedule
    ns = np.arange(40)
    for name in ("alpha", "beta", "perturbation_norm", "defect"):
        stream = getattr(schedule, name)
        values = stream(ns)
        assert np.shape(values) == ns.shape, name
        assert np.array_equal(values, [stream(int(n)) for n in ns]), name
    vectors = np.broadcast_to(schedule.perturbation(ns), (ns.size, dim))
    assert np.array_equal(vectors, [np.broadcast_to(schedule.perturbation(int(n)), (dim,))
                                    for n in ns])


def test_off_contract_stream_shapes_raise():
    """Streams that ignore the array contract fail loudly, also when their
    wrong result happens to broadcast against the window."""
    space, op = km.Space(dim=4), km.make_operator("identity", km.Space(dim=4), {})
    classical = km.make_classical_km(0.5)
    scalar_only = replace(classical, beta=lambda n: 0.5)
    with pytest.raises(ValueError, match="shape"):
        km.verify_hypotheses(scalar_only, 100)
    with pytest.raises(ValueError, match="shape"):
        km.iterate(space, op, np.ones(4), scalar_only, 10)
    # a per-index vector lambda: on a window of dim indices it gives one
    # vector, not one per index, and its norm collapses to a scalar
    r = np.arange(1.0, 5.0)
    per_index = km.make_inexact_km(0.5, classical.weight_divergence,
                                   lambda n: r / (n + 1) ** 2,
                                   km.Series(classical.perturbation_series.modulus, 30),
                                   perturbation_norm=lambda n: space.norm(r / (n + 1) ** 2))
    with pytest.raises(ValueError, match="shape"):
        km.iterate(space, op, np.ones(4), per_index, 4)
    # with a norm stream that keeps the contract, the engine's own check of
    # the vectors catches it in the first block of dim points
    with_norm = replace(per_index, perturbation_norm=lambda n: 1.0 / (n + 1.0) ** 2)
    with pytest.raises(ValueError, match="perturbation returned shape"):
        km.iterate(space, op, np.ones(4), with_norm, 3)
