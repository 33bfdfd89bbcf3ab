"""Finite-dimensional normed spaces and a catalog of nonexpansive operators
with certified fixed points.

Catalog instances are chosen so that ground truth is analytically available:
every entry ships a fixed point verified to 1e-12 at construction time, and
entries that are only nonexpansive for the Euclidean norm are rejected on
p-norm spaces (which get the projection-free entries: identity and coordinate
shrink maps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from .moduli import UcModulus, _norm2, hilbert_modulus, lp_modulus

FIXED_POINT_TOL = 1e-12
NONEXPANSIVE_TOL = 1e-12

#: catalog entries that are safe for every p-norm
_LP_SAFE = {"identity", "coordinate_shrink"}


@dataclass(frozen=True)
class Space:
    """R^dim under the p-norm (p=2 is the Euclidean/Hilbert case)."""

    dim: int
    p: float = 2.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if not self.p > 1.0:
            raise ValueError(f"norm exponent must exceed 1, got {self.p}")

    @property
    def is_euclidean(self) -> bool:
        return self.p == 2.0

    @property
    def norm_kind(self) -> str:
        return "euclidean" if self.is_euclidean else f"lp({self.p})"

    def uc_modulus(self) -> UcModulus:
        return hilbert_modulus() if self.is_euclidean else lp_modulus(self.p)

    def norm(self, v):
        """The p-norm along the last axis: a float for one vector, an array of
        row norms for a stack of vectors.  A norm past the double range is
        inf, with no warning; callers reject it or abort on it."""
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            if self.p == 2.0:
                out = _norm2(v)
            else:
                out = np.sum(np.abs(v) ** self.p, axis=-1) ** (1.0 / self.p)
        return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Operator:
    """A map on the space with a known fixed point and a catalog tag."""

    apply: Callable[[np.ndarray], np.ndarray]
    fixed_point: np.ndarray
    tag: str

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.apply(x)


def catalog_names() -> List[str]:
    return [
        "identity",
        "rotation",
        "ball_projection",
        "halfspace_projection",
        "box_projection",
        "affine_avg",
        "coordinate_shrink",
    ]


def _vec(space: Space, value, name: str, default: Optional[float] = None) -> np.ndarray:
    if value is None:
        if default is None:
            raise ValueError(f"operator parameter {name!r} is required")
        return np.full(space.dim, float(default))
    out = np.asarray(value, dtype=float)
    if out.shape != (space.dim,):
        raise ValueError(f"operator parameter {name!r} must have shape ({space.dim},)")
    return out


def make_operator(name: str, space: Space, params: Optional[dict] = None) -> Operator:
    """Build a catalog operator; see :func:`catalog_names` for entries.

    Projection entries accept an optional ``anchor`` whose projection becomes
    the stored fixed point (any point of the target set is one); the default
    representative is the center / the projection of the origin.
    """
    params = dict(params or {})
    if name not in catalog_names():
        raise ValueError(f"unknown operator {name!r}; known: {catalog_names()}")
    if not space.is_euclidean and name not in _LP_SAFE:
        raise ValueError(
            f"operator {name!r} is only certified nonexpansive for the Euclidean norm"
        )

    if name == "identity":
        apply = lambda x: np.asarray(x, dtype=float)
        z = _vec(space, params.get("fixed_point"), "fixed_point", default=0.0)
    elif name == "rotation":
        if space.dim < 2:
            raise ValueError("rotation needs dimension at least 2")
        if "angle_deg" in params:
            angle = math.radians(float(params["angle_deg"]))
        else:
            angle = float(params.get("angle", math.pi / 2.0))
        i, j = params.get("axes", (0, 1))
        i, j = int(i), int(j)
        if not (0 <= i < space.dim and 0 <= j < space.dim and i != j):
            raise ValueError(f"invalid rotation plane axes ({i}, {j})")
        R = np.eye(space.dim)
        c, s = math.cos(angle), math.sin(angle)
        R[i, i] = c
        R[i, j] = -s
        R[j, i] = s
        R[j, j] = c
        apply = lambda x, R=R: R @ np.asarray(x, dtype=float)
        z = np.zeros(space.dim)
    elif name == "ball_projection":
        center = _vec(space, params.get("center"), "center", default=0.0)
        radius = float(params.get("radius", 1.0))
        if radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {radius}")

        def apply(x, center=center, radius=radius):
            x = np.asarray(x, dtype=float)
            d = x - center
            nd = math.sqrt(float(np.dot(d, d)))
            if nd <= radius:
                return x
            return center + (radius / nd) * d

        anchor = params.get("anchor")
        z = apply(_vec(space, anchor, "anchor")) if anchor is not None else center.copy()
    elif name == "halfspace_projection":
        normal = _vec(space, params.get("normal"), "normal")
        offset = float(params.get("offset", 0.0))
        nn = float(np.dot(normal, normal))
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")

        def apply(x, normal=normal, offset=offset, nn=nn):
            x = np.asarray(x, dtype=float)
            excess = float(np.dot(normal, x)) - offset
            if excess <= 0.0:
                return x
            return x - (excess / nn) * normal

        anchor = params.get("anchor")
        z = apply(_vec(space, anchor, "anchor") if anchor is not None else np.zeros(space.dim))
    elif name == "box_projection":
        lo = _vec(space, params.get("lo"), "lo")
        hi = _vec(space, params.get("hi"), "hi")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        apply = lambda x, lo=lo, hi=hi: np.clip(np.asarray(x, dtype=float), lo, hi)
        anchor = params.get("anchor")
        z = apply(_vec(space, anchor, "anchor") if anchor is not None else np.zeros(space.dim))
    elif name == "affine_avg":
        Q = np.asarray(params.get("matrix"), dtype=float)
        if Q.shape != (space.dim, space.dim):
            raise ValueError(f"matrix must have shape ({space.dim}, {space.dim})")
        shift = _vec(space, params.get("shift"), "shift", default=0.0)
        op_norm = float(np.linalg.norm(Q, 2))
        if op_norm > 1.0 + NONEXPANSIVE_TOL:
            raise ValueError(f"affine map with operator norm {op_norm} > 1 is expansive")
        apply = lambda x, Q=Q, shift=shift: Q @ np.asarray(x, dtype=float) + shift
        if float(np.dot(shift, shift)) == 0.0:
            z = np.zeros(space.dim)
        elif op_norm < 1.0 - 1e-9:
            z = np.linalg.solve(np.eye(space.dim) - Q, shift)
        else:
            raise ValueError(
                "affine map on the unit sphere of operator norms needs a zero shift "
                "for a computable fixed point"
            )
    elif name == "coordinate_shrink":
        factors = _vec(space, params.get("factors"), "factors")
        if np.any(np.abs(factors) > 1.0 + NONEXPANSIVE_TOL):
            raise ValueError("shrink factors must have magnitude at most 1")
        apply = lambda x, factors=factors: factors * np.asarray(x, dtype=float)
        z = np.zeros(space.dim)

    z = np.asarray(z, dtype=float)
    residual = space.norm(apply(z) - z)
    if residual > FIXED_POINT_TOL:
        raise ValueError(f"stored point is not fixed for {name!r}: residual {residual:.3e}")
    return Operator(apply=apply, fixed_point=z, tag=name)


@dataclass
class NonexpansiveReport:
    samples: int
    max_excess: float
    violations: List[dict] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "samples": self.samples,
            "max_excess": self.max_excess,
            "passed": self.passed,
            "violations": self.violations[:10],
        }


def check_nonexpansive(
    op: Operator,
    space: Space,
    samples: int,
    seed: int,
    box: tuple = (-5.0, 5.0),
    tol: float = NONEXPANSIVE_TOL,
) -> NonexpansiveReport:
    """Sampled nonexpansiveness check: max of ||Tx-Ty|| - ||x-y|| over seeded
    random pairs drawn from a box."""
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    lo, hi = box
    max_excess = 0.0
    violations = []
    for i in range(samples):
        x = rng.uniform(lo, hi, space.dim)
        y = rng.uniform(lo, hi, space.dim)
        excess = space.norm(op(x) - op(y)) - space.norm(x - y)
        if excess > max_excess:
            max_excess = excess
        if excess > tol and len(violations) < 10:
            violations.append({"sample": i, "excess": float(excess)})
    return NonexpansiveReport(samples=samples, max_excess=float(max_excess),
                              violations=violations)
