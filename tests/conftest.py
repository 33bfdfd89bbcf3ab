import numpy as np
import pytest

import km_rates as km

import lemmas


def rotation_instance():
    """90-degree plane rotation averaged with constant weight 1/2."""
    space = km.Space(dim=2)
    op = km.make_operator("rotation", space, {"angle_deg": 90.0})
    schedule = km.make_classical_km(0.5)
    start = np.array([1.0, 0.0])
    constants = km.instance_constants(start, op.fixed_point, schedule, norm=space.norm)
    cert = km.make_certificate(constants, schedule, km.hilbert_modulus())
    return space, op, start, schedule, constants, cert


def example1_certificate(b, c):
    """Euclidean certificate of the constant-weight family with lam = 1/2,
    start bound b and ||r_star|| = c."""
    schedule = km.make_example1(0.5, 1, r_star=[float(c), 0.0] if c else None,
                                norm=km.Space(dim=2).norm)
    constants = km.InstanceConstants(b, 0, 2 * c)
    return km.make_certificate(constants, schedule, km.hilbert_modulus())


def example1_oracle(threshold, cap, c):
    """The paper's closed forms for the constant-weight family (Example 1):
    (residual_rate, step_rate) from the threshold, cap = ceil(1/(lam(1-lam)))
    and c = ceil||r_star||."""
    return (lambda k: cap * (threshold(2 * k + 1) + 8 * c * (k + 1) + 1),
            lambda k: cap * (threshold(4 * k + 3) + 16 * c * (k + 1) + 1))


def example2_oracle(threshold, cap, b, c):
    """The paper's closed forms for the shrinking-weight family (Example 2),
    with b the start bound."""
    return (lambda k: cap * threshold(2 * k + 1) + 16 * cap * (2 * b + c) * (k + 1) + 3 * cap - 1,
            lambda k: cap * threshold(4 * k + 3) + 32 * cap * (2 * b + c) * (k + 1) + 3 * cap - 1)


def example2_ball_config(out_dir="out"):
    return {
        "space": {"dim": 3, "norm": "euclidean"},
        "operator": {
            "name": "ball_projection",
            "params": {"center": [0.0, 0.0, 0.0], "radius": 1.0},
            "fixed_point": "nearest",
        },
        "start": [2.0, 0.0, 0.0],
        "schedule": {"family": "example2",
                     "params": {"lam": 0.5, "J": 2, "offset": 1, "r_star": None}},
        "certificate": {"formula": "auto"},
        "run": {"horizon": "auto", "k_max": 5, "seed": 7},
        "output": {"directory": out_dir, "formats": ["csv", "json"]},
    }


def sample_admissible_triples(count, seed, dim=3):
    """Seeded random (a, x, y, r, eps, lam) tuples satisfying the
    convexity-transfer preconditions by construction."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        a = rng.uniform(-1.0, 1.0, dim)
        x = a + rng.uniform(-1.0, 1.0, dim)
        y = a + rng.uniform(-1.0, 1.0, dim)
        dxy = float(np.linalg.norm(x - y))
        if dxy < 1e-8:
            continue
        r = max(float(np.linalg.norm(x - a)), float(np.linalg.norm(y - a)))
        if r < 1e-8:
            continue
        eps = min(2.0, dxy / r) * (1.0 - 1e-12)
        lam = float(rng.uniform(0.0, 1.0))
        out.append((a, x, y, r, eps, lam))
    return out


@pytest.fixture(scope="session")
def rotation_traj_35k():
    """The rotation run of 35 000 steps, its points and its constants."""
    space, op, start, schedule, constants, _ = rotation_instance()
    traj, points = lemmas.iterate_with_points(km.iterate, space, op, start, schedule, 35000)
    return traj, points, constants


@pytest.fixture(scope="session")
def example2_ball_run():
    cfg = km.RunConfig.from_dict(example2_ball_config())
    instance = km.assemble(cfg)
    cert = instance.certificate
    requested = [cert.residual_rate(k) for k in range(cfg.k_max + 1)]
    requested += [cert.step_rate(k) for k in range(cfg.k_max + 1)]
    horizon = km.auto_horizon(requested)
    traj = km.iterate(instance.space, instance.operator, instance.start,
                      instance.schedule, horizon)
    return instance, traj
