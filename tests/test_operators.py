import json
import math

import numpy as np
import pytest

import km_rates as km
from km_rates import cli
from km_rates.engine import BLOCK
from km_rates.operators import FIXED_POINT_TOL, Operator

import lemmas


EUCLIDEAN_CASES = [
    ("identity", {}),
    ("rotation", {"angle_deg": 90.0}),
    ("ball_projection", {"center": [0.0, 0.0], "radius": 1.0}),
    ("halfspace_projection", {"normal": [1.0, 0.0], "offset": 0.0}),
    ("box_projection", {"lo": [0.0, 0.0], "hi": [1.0, 2.0]}),
    ("affine_avg", {"matrix": [[0.5, 0.0], [0.0, 0.25]], "shift": [1.0, 0.0]}),
    ("coordinate_shrink", {"factors": [0.5, -1.0]}),
]


@pytest.mark.parametrize("name,params", EUCLIDEAN_CASES)
def test_catalog_fixed_points_certified(name, params):
    space = km.Space(dim=2)
    op = km.make_operator(name, space, params)
    assert space.norm(op(op.fixed_point) - op.fixed_point) <= FIXED_POINT_TOL


@pytest.mark.parametrize("name,params", EUCLIDEAN_CASES)
def test_call_casts_any_vector_as_apply_expects(name, params):
    """``Operator.__call__`` is the one cast: a list, of ints or floats, is
    mapped to the same bits as the float array the engine hands ``apply``."""
    assert {case for case, _ in EUCLIDEAN_CASES} == set(km.catalog_names())
    op = km.make_operator(name, km.Space(dim=2), params)
    for x in ([3, -2], [-0.0, 0.5], [0.25, 5.0]):
        assert np.array_equal(op(x).view(np.uint64),
                              op(np.array(x, dtype=float)).view(np.uint64)), x


@pytest.mark.parametrize("name,params", EUCLIDEAN_CASES)
def test_catalog_nonexpansive_sampled(name, params):
    space = km.Space(dim=2)
    op = km.make_operator(name, space, params)
    report = lemmas.check_nonexpansive(op, space, samples=10**4, seed=42)
    assert report.passed, f"{name}: max excess {report.max_excess}"


def test_identity_values():
    space = km.Space(dim=3)
    op = km.make_operator("identity", space)
    x = np.array([1.0, -2.0, 3.0])
    np.testing.assert_array_equal(op(x), x)
    np.testing.assert_array_equal(op.fixed_point, np.zeros(3))


def test_rotation_quarter_turn():
    space = km.Space(dim=2)
    op = km.make_operator("rotation", space, {"angle_deg": 90.0})
    np.testing.assert_allclose(op(np.array([1.0, 0.0])), [0.0, 1.0], atol=1e-15)
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, y = rng.normal(size=2), rng.normal(size=2)
        assert abs(space.norm(op(x) - op(y)) - space.norm(x - y)) <= 1e-12


@pytest.mark.parametrize("dim", [2, 3, 8, 64])
def test_matrix_operators_bit_equal_to_matmul(dim):
    # the operators apply their matrix through ndarray.dot; pinned here against
    # the matmul form, since the reference engine calls the same operator
    rng = np.random.default_rng(dim)
    space = km.Space(dim=dim)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    cases = []
    for _ in range(3):
        i, j = rng.choice(dim, size=2, replace=False)
        angle = float(rng.uniform(-math.pi, math.pi))
        c, s = math.cos(angle), math.sin(angle)
        R = np.eye(dim)
        R[i, i], R[i, j], R[j, i], R[j, j] = c, -s, s, c
        op = km.make_operator("rotation", space, {"angle": angle, "axes": [int(i), int(j)]})
        cases.append((op, R, np.zeros(dim)))
    for Q, shift in ((q, np.zeros(dim)), (0.9 * q, rng.uniform(-1.0, 1.0, dim))):
        op = km.make_operator("affine_avg", space, {"matrix": Q.tolist(), "shift": shift.tolist()})
        cases.append((op, Q, shift))
    for op, M, shift in cases:
        for x in rng.uniform(-5.0, 5.0, (500, dim)):
            assert op(x).tobytes() == (M @ np.asarray(x, dtype=float) + shift).tobytes()


@pytest.mark.parametrize("name,params", EUCLIDEAN_CASES)
def test_catalog_operators_accept_lists(name, params):
    op = km.make_operator(name, km.Space(dim=2), params)
    rng = np.random.default_rng(7)
    for x in [[1, -2], [-0.0, 0.5]] + rng.uniform(-3.0, 3.0, (20, 2)).tolist():
        out = op(x)
        assert isinstance(out, np.ndarray) and out.dtype == float
        assert out.tobytes() == op(np.array(x)).tobytes()


def test_ball_projection_values():
    space = km.Space(dim=2)
    op = km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 1.0})
    np.testing.assert_allclose(op(np.array([2.0, 0.0])), [1.0, 0.0], atol=1e-15)
    np.testing.assert_allclose(op(np.array([0.3, 0.1])), [0.3, 0.1])
    anchored = km.make_operator("ball_projection", space,
                                {"center": [0.0, 0.0], "radius": 1.0,
                                 "anchor": [2.0, 0.0]})
    np.testing.assert_allclose(anchored.fixed_point, [1.0, 0.0])


def test_halfspace_projection_values():
    space = km.Space(dim=2)
    op = km.make_operator("halfspace_projection", space,
                          {"normal": [1.0, 0.0], "offset": 0.0})
    np.testing.assert_allclose(op(np.array([2.0, 3.0])), [0.0, 3.0])
    np.testing.assert_allclose(op(np.array([-1.0, 3.0])), [-1.0, 3.0])


def test_affine_avg_fixed_point_solved():
    space = km.Space(dim=2)
    op = km.make_operator("affine_avg", space,
                          {"matrix": [[0.5, 0.0], [0.0, 0.5]], "shift": [1.0, 0.0]})
    np.testing.assert_allclose(op.fixed_point, [2.0, 0.0])


def test_affine_avg_rejections():
    space = km.Space(dim=2)
    with pytest.raises(ValueError):
        km.make_operator("affine_avg", space,
                         {"matrix": [[1.5, 0.0], [0.0, 0.5]], "shift": [0.0, 0.0]})
    # operator norm exactly 1 with a nonzero shift has no computable fixed point
    with pytest.raises(ValueError):
        km.make_operator("affine_avg", space,
                         {"matrix": [[0.0, -1.0], [1.0, 0.0]], "shift": [1.0, 0.0]})
    # ... but a zero shift is fine (plane rotation)
    op = km.make_operator("affine_avg", space,
                          {"matrix": [[0.0, -1.0], [1.0, 0.0]], "shift": [0.0, 0.0]})
    np.testing.assert_array_equal(op.fixed_point, np.zeros(2))


@pytest.mark.parametrize("name,params,key", [
    ("halfspace_projection", {"normal": [1e308, 0.0]}, "normal"),
    ("affine_avg", {"matrix": [[0.5, 0.0], [0.0, 0.5]], "shift": [1e308, 0.0]}, "shift"),
    ("ball_projection", {"radius": 1.0, "anchor": [1e200, 0.0]}, "anchor"),
    ("ball_projection", {"center": [-1e154, 0.0], "anchor": [1e154, 0.0]}, "anchor"),
    ("halfspace_projection", {"normal": [1e150, 0.0], "anchor": [1e200, 0.0]}, "anchor"),
], ids=["normal", "shift", "anchor", "anchor-minus-center", "anchor-dot-normal"])
def test_vectors_whose_squared_norm_overflows_are_refused(name, params, key):
    """Finite entries whose squared norm leaves the double range: a halfspace
    with nn = inf would return x unprojected, and a ball would store its center
    as the anchor's nearest point.  A halfspace anchor whose product with the
    normal overflows has no finite projection."""
    with pytest.raises(ValueError, match=f"{key!r} is too large"):
        km.make_operator(name, km.Space(dim=2), params)


def test_lp_space_catalog_restrictions():
    space = km.Space(dim=2, p=3.0)
    with pytest.raises(ValueError):
        km.make_operator("rotation", space, {"angle_deg": 90.0})
    with pytest.raises(ValueError):
        km.make_operator("ball_projection", space, {"center": [0.0, 0.0], "radius": 1.0})
    op = km.make_operator("coordinate_shrink", space, {"factors": [0.5, 0.9]})
    report = lemmas.check_nonexpansive(op, space, samples=2000, seed=11)
    assert report.passed


def test_coordinate_shrink_rejects_expansive_factor():
    with pytest.raises(ValueError):
        km.make_operator("coordinate_shrink", km.Space(dim=2), {"factors": [1.5, 0.5]})


def test_unknown_and_invalid_params():
    space = km.Space(dim=2)
    with pytest.raises(ValueError):
        km.make_operator("does_not_exist", space)
    with pytest.raises(ValueError):
        km.make_operator("rotation", km.Space(dim=1))
    with pytest.raises(ValueError):
        km.make_operator("ball_projection", space, {"radius": -1.0})
    with pytest.raises(ValueError):
        km.make_operator("box_projection", space, {"lo": [1.0, 0.0], "hi": [0.0, 1.0]})


def test_check_nonexpansive_flags_doubling_map():
    space = km.Space(dim=2)
    doubler = Operator(apply=lambda x: 2.0 * np.asarray(x, dtype=float),
                       fixed_point=np.zeros(2))
    report = lemmas.check_nonexpansive(doubler, space, samples=50, seed=0)
    assert not report.passed
    assert report.violations[0]["sample"] == 0


def test_norm_axioms_sampled():
    rng = np.random.default_rng(5)
    for p in (2.0, 1.5, 3.0):
        space = km.Space(dim=4, p=p)
        for _ in range(500):
            u, v = rng.normal(size=4), rng.normal(size=4)
            assert space.norm(u + v) <= space.norm(u) + space.norm(v) + 1e-12
            assert space.norm(2.5 * u) == pytest.approx(2.5 * space.norm(u), rel=1e-12)
        assert space.norm(np.zeros(4)) == 0.0


@pytest.mark.parametrize("p, v, expected", [
    (2.0, [1e-300, 1e-300], math.hypot(1e-300, 1e-300)),
    (2.0, [3e-200, 4e-200], 5e-200),
    (3.0, [1e-110, 0.0], 1e-110),
    (2.0, [5e-324, 0.0], 5e-324),
    (3.0, [-2e-300, 2e-300], 2.0 ** (1 / 3) * 2e-300),
])
def test_norm_of_a_tiny_vector_does_not_underflow(p, v, expected):
    """|v_i|^p would be subnormal or 0; the norm is still the vector's."""
    space = km.Space(dim=2, p=p)
    assert space.norm(v) == pytest.approx(expected, rel=1e-15)
    rows = np.array([v, [3.0, 4.0], [0.0, -0.0], v, [np.nan, 1.0]])
    norms = space.norm(rows)
    assert norms[0] == norms[3] == space.norm(v)
    assert norms[2] == 0.0 and np.isnan(norms[4])


@pytest.mark.parametrize("p, v, expected", [
    (1100.0, [3.0, 0.0], 3.0),
    (2.0, [1e200, 0.0], 1e200),
    (3.0, [1e120, 1.0], 1e120),
])
def test_norm_of_a_large_vector_does_not_overflow(p, v, expected):
    """|v_i|^p passes the double range; the norm is still the vector's, alone
    and in a stack with ordinary, tiny, zero and non-finite rows, each of
    which has the norm it has alone, an ordinary row that of the formula."""
    space = km.Space(dim=2, p=p)
    assert space.norm(v) == pytest.approx(expected, rel=1e-15)
    rows = np.array([v, [1.0, 0.5], [1e-300, 1e-300], [0.0, -0.0], v, [1.7e308, 1.7e308],
                     [np.inf, 1.0], [np.nan, 1.0]])
    norms = space.norm(rows)
    assert norms[0] == norms[4] == space.norm(v)
    plain = km.operators._norm2(rows[1]) if p == 2.0 else (1.0 + 0.5 ** p) ** (1.0 / p)
    assert norms[1] == plain
    assert norms[2] == space.norm(rows[2]) > 0.0 and norms[3] == 0.0
    assert norms[5] == space.norm(rows[5]) and norms[6] == math.inf and np.isnan(norms[7])


def test_norm_past_the_double_range_is_inf():
    """A norm past the largest double is inf, at p = 1100 too, where the
    factor 2^(1/1100) of two equal entries takes 1.797e308 past it."""
    assert km.Space(2).norm([1.7e308, 1.7e308]) == math.inf
    assert km.Space(2, 3.0).norm([1.7e308, 1.7e308]) == math.inf
    assert km.Space(2, 1100.0).norm([1.797e308, 1.797e308]) == math.inf
    assert km.Space(2, 1100.0).norm([1.7e308, 1.7e308]) == pytest.approx(1.7e308, rel=1e-3)


@pytest.mark.parametrize("v, expected", [
    ([2.0, 0.0], 2.0),             # 2^1100 overflows, and 0.5^1100 underflows
    ([3.0, 0.0], 3.0),
    ([2.0 ** -40, 0.0], 2.0 ** -40),  # 2^-44000 underflows
    ([-0.25, 0.25], 0.25 * 2.0 ** (1 / 1100)),
    ([5e-324, 0.0], 5e-324),
    ([1e300, -1e300], 1e300 * 2.0 ** (1 / 1100)),
])
def test_norm_past_p_968_keeps_tiny_and_large_rows(v, expected):
    """Past p = 968 the p-th power of an entry in [0.5, 1) underflows, so a
    scaled row is divided by its largest entry instead: the norm is the
    vector's, alone and in a stack with zero, ordinary and inf rows."""
    space = km.Space(2, 1100.0)
    assert space.norm(v) == pytest.approx(expected, rel=1e-15)
    rows = np.array([v, [0.0, -0.0], [1.0, 0.5], [np.inf, 1.0], v])
    norms = space.norm(rows)
    assert norms[0] == norms[4] == space.norm(v)
    assert norms[1] == 0.0 and norms[2] == 1.0 and norms[3] == math.inf


@pytest.mark.parametrize("start", [[2.0, 0.0], [3.0, 0.0]])
def test_start_past_p_968_runs(tmp_path, start):
    """Starts [2, 0] and [3, 0] at p = 1100 end alike: the run passes its
    audit, and the certificate overflows.  The norm of [2, 0] was inf (a
    config error), and iterates below 0.54 had norm 0 (a failed audit)."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "space": {"dim": 2, "norm": "lp", "p": 1100.0},
        "operator": {"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}},
        "start": start, "schedule": {"family": "classical_km", "params": {"beta": 0.5}},
        "run": {"horizon": 50, "k_max": 2},
        "output": {"directory": str(tmp_path / "out"), "formats": ["json"]}}))
    assert cli.main(["run", "--config", str(config)]) == cli.EXIT_OK
    assert cli.main(["certify", "--config", str(config)]) == cli.EXIT_OVERFLOW


def _blocks(rng, dim):
    """Stacks of BLOCK rows: ordinary, tiny at several depths, zero, mixed
    over the whole double range with zero, -0.0, inf and NaN rows, and
    overflowing."""
    base = rng.standard_normal((BLOCK, dim))
    mixed = base * np.ldexp(1.0, rng.integers(-1100, 1020, BLOCK))[:, None]
    mixed[::3] = 0.0
    mixed[::5, 0] = -0.0
    mixed[::7, 0] = np.inf
    mixed[::11, -1] = np.nan
    yield from (base, base * 2.0 ** -484, base * 2.0 ** -500, base * 2.0 ** -1060,
                base * 1e-320, np.zeros((BLOCK, dim)), -np.zeros((BLOCK, dim)), mixed,
                base * 1e200, base * 1e300, np.exp2(rng.uniform(-1074, 1023, (BLOCK, dim))))


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
def test_norm_of_tiny_stacks_matches_the_two_pass_norm(monkeypatch, p):
    """Every stack, and each of its first rows alone, has the bits of the
    two-pass norm; a stack of nonzero tiny rows takes the formula once, on
    its scaled copy (at p = 2 the scaled copy has its own formula)."""
    rng = np.random.default_rng(int(p * 10))
    for dim in (1, 2, 3, 8, 64):
        space = km.Space(dim, p)
        for block in _blocks(rng, dim):
            with np.errstate(invalid="ignore"):
                expected = lemmas.two_pass_norm(space, block)
            assert space.norm(block).view(np.uint64).tolist() == \
                expected.view(np.uint64).tolist()
            for row in block[:9]:
                with np.errstate(invalid="ignore"):
                    norm = np.float64(lemmas.two_pass_norm(space, row))
                assert np.float64(space.norm(row)).view(np.uint64) == norm.view(np.uint64)
    calls = []
    plain = km.Space._norms
    monkeypatch.setattr(km.Space, "_norms", lambda s, v: calls.append(v.shape) or plain(s, v))
    assert km.Space(2, p).norm(np.full((BLOCK, 2), 1e-300)).shape == (BLOCK,)
    assert calls == ([] if p == 2.0 else [(BLOCK, 2)])


def test_norm_keeps_the_bits_of_the_formula_above_its_cutoff():
    """Rows whose power sum is at least TINY_POWER_SUM take the plain formula,
    bit for bit, however small their other entries."""
    rng = np.random.default_rng(11)
    for p in (2.0, 1.5, 3.0):
        space = km.Space(dim=3, p=p)
        scale = km.operators.TINY_POWER_SUM ** (1.0 / p)
        rows = rng.normal(size=(400, 3)) * 10.0 ** rng.integers(0, 60, (400, 1)) * scale * 4
        rows[::7, 1] = 1e-320
        plain = np.sum(np.abs(rows) ** p, axis=-1) ** (1.0 / p)
        if p == 2.0:
            plain = km.operators._norm2(rows)
        kept = plain >= scale
        assert kept.sum() > 350
        assert np.array_equal(space.norm(rows)[kept].view(np.uint64), plain[kept].view(np.uint64))


def test_space_validation():
    with pytest.raises(ValueError):
        km.Space(dim=0)
    with pytest.raises(ValueError):
        km.Space(dim=2, p=1.0)
    assert km.Space(dim=2).is_euclidean
