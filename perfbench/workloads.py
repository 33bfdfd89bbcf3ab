"""Seeded km-rates run configs for the three benchmark workloads.

The benchmark seed only moves vectors: start points, operator data and
perturbation directions.  Every scalar that enters a certificate integer
(norms of starts and perturbations, weights, horizons, k_max) is fixed, and
each seeded vector is scaled to a fixed non-integer norm, so the integer
certificate, the horizon and the split of checked and truncated rows are the
same for every seed.  ``run.seed`` is a fixed 1: the program does not read it
today, and it must not carry the benchmark seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

import numpy as np

#: radius of every generated start around the operator's fixed point; its
#: ceiling, the certificate's start bound, is 1 whatever the rounding
START_RADIUS = 0.75
#: norm of every seeded perturbation and anchor direction; ceiling 1
VECTOR_NORM = 0.5

OPERATORS = ("identity", "rotation", "ball_projection", "halfspace_projection",
             "box_projection", "affine_avg", "coordinate_shrink")
FAMILIES = ("example1", "example2", "classical_km", "inexact_km", "anchor", "custom")
GRID_DIMS = (2, 3, 8, 64)
#: norms taken in turn by the operators that are nonexpansive in every p-norm
GRID_NORMS = (None, 1.5, 3.0, 7.0)
GRID_COMMANDS = 128
GRID_HORIZON = 250
GRID_K_MAX = 31
#: one command in CONTROL_EVERY is a negative control
CONTROL_EVERY = 8
#: every point is stored up to the engine's store limit of 100 000; half of
#: it keeps a run at ten or more passes
LP_HORIZON = 50_000

EXIT_OK = 0
EXIT_VERIFY = 5


@dataclass(frozen=True)
class Command:
    """One CLI command of a workload and the exit code it must return."""

    name: str
    subcommand: str
    config: dict
    expected_exit: int

    @property
    def negative_control(self) -> bool:
        return self.expected_exit == EXIT_VERIFY


def _norm(v: np.ndarray, p) -> float:
    if p is None:
        return float(np.linalg.norm(v))
    return float(np.sum(np.abs(v) ** p) ** (1.0 / p))


def _scaled(rng: np.random.Generator, dim: int, p, length: float) -> list:
    """A seeded direction scaled to ``length`` in the space's norm."""
    g = rng.standard_normal(dim)
    return [float(v) for v in g * (length / _norm(g, p))]


def _space(dim: int, p) -> dict:
    return {"dim": dim, "norm": "euclidean"} if p is None else {"dim": dim, "norm": "lp",
                                                               "p": p}


def _inverse_square(r_star: list) -> dict:
    return {"inverse_square": {"r_star": r_star, "offset": 1}}


def _document(space, operator, start, schedule, horizon, k_max, overrides=None) -> dict:
    certificate = {"formula": "auto"}
    if overrides:
        certificate["overrides"] = overrides
    return {
        "space": space,
        "operator": operator,
        "start": start,
        "schedule": schedule,
        "certificate": certificate,
        "run": {"horizon": horizon, "k_max": k_max, "seed": 1},
        "output": {"directory": "out", "formats": ["csv", "json"]},
    }


def rotation_long(seed: int) -> List[Command]:
    """The README config with a seeded start on the unit circle.

    The start is pulled inward by a relative 2**-40 so that the start bound
    is 1 under any ceiling, exact or snapped.
    """
    rng = np.random.default_rng(seed)
    theta = float(rng.uniform(0.0, 2.0 * math.pi))
    r = 1.0 - 2.0 ** -40
    doc = _document(
        space={"dim": 2, "norm": "euclidean"},
        operator={"name": "rotation", "params": {"angle_deg": 90.0}},
        start=[r * math.cos(theta), r * math.sin(theta)],
        schedule={"family": "classical_km", "params": {"beta": 0.5}},
        horizon="auto", k_max=15)
    return [Command("rotation", "verify", doc, EXIT_OK)]


def lp_run_export(seed: int) -> List[Command]:
    """Dim-64 p=3 coordinate shrink under an inexact schedule, run and exported."""
    rng = np.random.default_rng(seed)
    dim, p = 64, 3.0
    factors = [float(v) for v in rng.uniform(-1.0, 1.0, dim)]
    doc = _document(
        space=_space(dim, p),
        operator={"name": "coordinate_shrink", "params": {"factors": factors}},
        start=_scaled(rng, dim, p, START_RADIUS),
        schedule={"family": "inexact_km", "params": {
            "beta": 0.5,
            "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
            "perturbation": _inverse_square(_scaled(rng, dim, p, VECTOR_NORM)),
            "perturbation_cauchy": {"affine": {"slope": 1, "intercept": 1}},
            "perturbation_sum_bound": 2,
        }},
        horizon=LP_HORIZON, k_max=15)
    return [Command("lp_shrink", "run", doc, EXIT_OK)]


def _operator(name: str, rng: np.random.Generator, dim: int, p):
    """Returns (operator section, centre of the start ball)."""
    zero = [0.0] * dim
    if name == "identity":
        return {"name": name, "params": {}}, zero
    if name == "rotation":
        i, j = (int(a) for a in rng.choice(dim, size=2, replace=False))
        return {"name": name, "params": {"angle_deg": float(rng.uniform(30.0, 150.0)),
                                         "axes": [i, j]}}, zero
    if name == "ball_projection":
        # the start lies START_RADIUS - 0.5 outside the ball, so the residual
        # at index 0 is 0.25 and a zero residual rate must fail
        center = _scaled(rng, dim, p, 0.125)
        return {"name": name, "params": {"center": center, "radius": 0.5}}, center
    if name == "halfspace_projection":
        normal = _scaled(rng, dim, p, 1.0)
        return {"name": name, "params": {"normal": normal, "offset": 0.5}}, zero
    if name == "box_projection":
        lo = [-float(v) for v in rng.uniform(0.05, 0.25, dim)]
        hi = [float(v) for v in rng.uniform(0.05, 0.25, dim)]
        return {"name": name, "params": {"lo": lo, "hi": hi}}, zero
    if name == "affine_avg":
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        return {"name": name, "params": {"matrix": (0.95 * q).tolist()}}, zero
    if name == "coordinate_shrink":
        # |1 - factor| >= 0.5, so the residual is at least half the norm
        factors = [float(v) for v in rng.uniform(-1.0, 0.5, dim)]
        return {"name": name, "params": {"factors": factors}}, zero
    raise ValueError(f"no generator for operator {name!r}")


def _schedule(family: str, rng: np.random.Generator, dim: int, p) -> dict:
    """Schedules whose declared moduli and sum bounds hold exactly."""
    if family == "example1":
        params = {"lam": 0.5, "offset": 1, "r_star": _scaled(rng, dim, p, VECTOR_NORM)}
    elif family == "example2":
        params = {"lam": 0.5, "J": 2, "offset": 1,
                  "r_star": _scaled(rng, dim, p, VECTOR_NORM)}
    elif family == "classical_km":
        params = {"beta": 0.5}
    elif family == "inexact_km":
        params = {
            "beta": 0.5,
            "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
            "perturbation": _inverse_square(_scaled(rng, dim, p, VECTOR_NORM)),
            "perturbation_cauchy": {"affine": {"slope": 1, "intercept": 1}},
            "perturbation_sum_bound": 2,
        }
    elif family == "anchor":
        params = {"base": {"family": "example2", "params": {"lam": 0.5, "J": 2}},
                  "u": _scaled(rng, dim, p, VECTOR_NORM)}
    elif family == "custom":
        # defects 0.25, 0.125, then 0 (sum 0.375, tail zero past index 1);
        # coupling weights are at least 1/6, so k -> 6k is a divergence rate
        params = {
            "alpha": {"values": [0.25, 0.375], "then": 0.5},
            "beta": {"const": 0.5},
            "perturbation": _inverse_square(_scaled(rng, dim, p, VECTOR_NORM)),
            "defect_is_zero": False,
            "defect_cauchy": {"const": 1},
            "weight_divergence": {"affine": {"slope": 6, "intercept": 0}},
            "perturbation_cauchy": {"affine": {"slope": 1, "intercept": 1}},
            "defect_sum_bound": 1,
            "perturbation_sum_bound": 2,
        }
    else:
        raise ValueError(f"no generator for schedule family {family!r}")
    return {"family": family, "params": params}


def grid_short(seed: int) -> List[Command]:
    """128 short verifies over every operator, family, dim and lp exponent.

    Command i is a negative control when i % 8 == 7: its residual rate is
    overridden to the constant 0, and it must exit 5.  Controls alternate
    between a ball projection and a coordinate shrink, whose residual at
    index 0 is provably above 1/32; the identity could never fail one.
    """
    rng = np.random.default_rng(seed)
    commands = []
    positive = control = lp_safe = 0
    for i in range(GRID_COMMANDS):
        is_control = i % CONTROL_EVERY == CONTROL_EVERY - 1
        if is_control:
            op = ("ball_projection", "coordinate_shrink")[control % 2]
            family = FAMILIES[(control // 2) % len(FAMILIES)]
            dim = GRID_DIMS[control % len(GRID_DIMS)]
            control += 1
        else:
            op = OPERATORS[positive % len(OPERATORS)]
            family = FAMILIES[positive % len(FAMILIES)]
            dim = GRID_DIMS[positive % len(GRID_DIMS)]
            positive += 1
        p = None
        if op in ("identity", "coordinate_shrink"):
            p = GRID_NORMS[lp_safe % len(GRID_NORMS)]
            lp_safe += 1
        operator, center = _operator(op, rng, dim, p)
        offset = _scaled(rng, dim, p, START_RADIUS)
        start = [c + o for c, o in zip(center, offset)]
        doc = _document(
            space=_space(dim, p), operator=operator, start=start,
            schedule=_schedule(family, rng, dim, p),
            horizon=GRID_HORIZON, k_max=GRID_K_MAX,
            overrides={"residual_rate": {"const": 0}} if is_control else None)
        norm = "l2" if p is None else f"l{p:g}"
        commands.append(Command(
            f"{i:03d}-{op}-{family}-d{dim}-{norm}", "verify", doc,
            EXIT_VERIFY if is_control else EXIT_OK))
    return commands


WORKLOADS = {
    "rotation_long": rotation_long,
    "lp_run_export": lp_run_export,
    "grid_short": grid_short,
}
