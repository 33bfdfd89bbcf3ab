"""The block engine against the per-step reference loop it replaced, and the
scalar and array forms of every schedule family's streams."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import km_rates as km
from km_rates.engine import BLOCK, DEFAULT_STORE_LIMIT, NumericAbort
from km_rates.operators import Operator

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
       horizon=st.sampled_from(HORIZONS), streamed=st.booleans(), moved_z=st.booleans(),
       seed=st.integers(0, 2**16))
@settings(max_examples=50, deadline=None)
def test_block_engine_matches_reference_loop(op_name, family, dim, p, horizon, streamed,
                                             moved_z, seed):
    if op_name not in LP_SAFE:
        p = 2.0
    inst = assembled(op_name, family, dim, p, seed)
    op = inst.operator
    if moved_z:  # a reference point that is not fixed: ||T(z) - z|| > 0 enters K_z
        op = replace(op, fixed_point=op.fixed_point + 0.25)
    store_limit = 10 if streamed else DEFAULT_STORE_LIMIT
    args = (inst.space, op, inst.start, inst.schedule, horizon)
    ref = reference_iterate(*args, store_limit=store_limit)
    new = km.iterate(*args, store_limit=store_limit)
    for name in ("alpha", "beta", "r_norm", "K_z"):
        assert np.array_equal(getattr(new, name), getattr(ref, name)), name
    for name in ("res_T", "res_step", "dist_z", "norm_x"):
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-12, atol=0.0, err_msg=name)
    assert new.streamed == ref.streamed == (horizon > store_limit)
    if not ref.streamed:
        assert np.array_equal(new.points, ref.points)


def _spike(n):
    """A perturbation of size 1e300 at index 700 and 0 elsewhere."""
    return np.where(np.asarray(n) == 700, 1e300, 0.0)


@pytest.mark.parametrize("factor, spike", [(1e200, False), (2.0, False), (1.5, False),
                                           (1.0, True)])
@pytest.mark.parametrize("store_limit", [10, DEFAULT_STORE_LIMIT])
def test_blower_aborts_at_reference_index(factor, spike, store_limit):
    """The operator x -> factor*x overflows the norms; the spike makes only
    a step non-finite, since the identity keeps the residual at 0."""
    space = km.Space(dim=2)
    blower = Operator(apply=lambda x: factor * np.asarray(x, dtype=float),
                      fixed_point=np.zeros(2), tag="blower")
    schedule = km.make_classical_km(0.5)
    if spike:
        schedule = km.make_inexact_km(
            0.5, schedule.weight_divergence, lambda n: _spike(n)[..., None] * [1.0, 0.0],
            schedule.perturbation_cauchy, 0, perturbation_norm=_spike)

    def abort_index(run, horizon):
        try:
            run(space, blower, [1.0, 0.0], schedule, horizon, store_limit=store_limit)
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
    for name in ("alpha", "beta", "perturbation_norm", "defect", "coupling_weight"):
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
    # vector, not one per index, and its default norm collapses to a scalar
    r = np.arange(1.0, 5.0)
    per_index = km.make_inexact_km(0.5, classical.weight_divergence,
                                   lambda n: r / (n + 1) ** 2,
                                   classical.perturbation_cauchy, 30)
    with pytest.raises(ValueError, match="shape"):
        km.iterate(space, op, np.ones(4), per_index, 4)
    # with a norm stream that keeps the contract, the engine's own check of
    # the vectors catches it in the first block of dim points
    with_norm = replace(per_index, perturbation_norm=lambda n: 1.0 / (n + 1.0) ** 2)
    with pytest.raises(ValueError, match="perturbation returned shape"):
        km.iterate(space, op, np.ones(4), with_norm, 3)
