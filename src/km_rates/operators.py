"""Finite-dimensional normed spaces and a catalog of nonexpansive operators
with certified fixed points.

Catalog instances are chosen so that ground truth is analytically available:
every entry ships a fixed point verified to 1e-12 at construction time, and
entries that are only nonexpansive for the Euclidean norm are rejected on
p-norm spaces (which get the projection-free entries: identity and coordinate
shrink maps).  :data:`CATALOG` is the one description of each entry.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

FIXED_POINT_TOL = 1e-12
NONEXPANSIVE_TOL = 1e-12
#: a sum of |v_i|^p below this may have lost bits to terms that went
#: subnormal (below 2^-1022) or to 0: each such term is off by up to
#: 2^-1075, and 54 bits of margin keep their sum under the sum's rounding
TINY_POWER_SUM = 2.0 ** -968


def _norm2(v):
    """Euclidean norm along the last axis, one value per row: sqrt(v . v)
    with the dot product np.dot takes.  It keeps the bits of the plain p = 2
    formula sqrt(np.dot(v, v)), which the power sum sum(|v_i|^2) ** (1/2)
    need not."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(np.matmul(v[..., None, :], v[..., :, None])[..., 0, 0])


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

    def _norms(self, v: np.ndarray):
        if self.p == 2.0:
            return _norm2(v)
        return np.sum(np.abs(v) ** self.p, axis=-1) ** (1.0 / self.p)

    def _rescaled_norms(self, rows: np.ndarray):
        """The norms of ``rows``, each taken on the row times the power of two
        that brings its largest entry in magnitude into [0.5, 1), and scaled
        back: the first scaling is exact, and the second rounds only a
        subnormal norm.  A row's scale depends on the row alone, so its norm
        is the same in any stack.  A zero row keeps its norm 0, and a row
        with an inf entry its norm inf.

        Past p = 968 the p-th power of an entry in [0.5, 1) can underflow,
        so there a nonzero finite row is divided by its largest entry in
        magnitude instead, and its norm, at least 1, multiplied back by it.
        """
        top = np.abs(rows.T, order="C").max(axis=0).T
        if 0.5 ** self.p < TINY_POWER_SUM:
            scale = np.where((top > 0.0) & (top < np.inf), top, 1.0)
            return self._norms(rows / scale[..., None]) * scale
        exponent = np.frexp(top)[1]
        return np.ldexp(self._norms(np.ldexp(rows, -exponent[..., None])), exponent)

    def norm(self, v):
        """The p-norm along the last axis: an array of row norms for a stack
        of vectors, and for one vector the float norm of its one-row stack,
        so a vector and its row in any stack have one norm, bit for bit.  A
        norm past the double range is inf, with no warning; callers reject
        it or abort on it.

        A nonzero row whose norm comes out below ``TINY_POWER_SUM ** (1/p)``,
        where a term |v_i|^p may have gone subnormal or to 0, or comes out
        inf, where a term may have overflowed, is taken again, in one pass
        with every other such row, on the row scaled by a power of two (see
        :meth:`_rescaled_norms`), so a nonzero row has a nonzero norm down
        to the least subnormal, and a finite row a finite norm up to the
        largest double.  Every other row's norm keeps the bits of the plain
        formula.  A stack whose entries all lie below the cutoff over twice
        the dimension, where every plain norm would come out below the
        cutoff, goes to the scaled rows at once.
        """
        v = np.asarray(v, dtype=float)
        if v.ndim == 1:
            return float(self.norm(v[None])[0])
        cutoff = TINY_POWER_SUM ** (1.0 / self.p)
        below = cutoff / (2 * v.shape[-1])
        with np.errstate(over="ignore"):
            # a first entry at or above the bound rules the stack out in one read
            if v.size and abs(v.flat[0]) < below and v.max() < below and -v.min() < below:
                # zero rows have their norm 0 either way
                return self._rescaled_norms(v) if v.any() else np.zeros(v.shape[:-1])
            out = self._norms(v)
            redo = (out < cutoff) | (out == np.inf)
            if redo.any():
                rows = v[redo]
                if rows.any():  # zero rows have their norm 0 already
                    out[redo] = self._rescaled_norms(rows)
        return out


@dataclass(frozen=True)
class Operator:
    """A map on the space with a known fixed point.  ``apply`` takes a float
    array of shape (dim,), which the engine holds at every step; calling the
    operator casts any vector to one first.  ``apply`` must be a function of
    the bits of its argument: the engine stops at a point that the step map
    sends to itself, bit for bit, and takes every later point to be it."""

    apply: Callable[[np.ndarray], np.ndarray]
    fixed_point: np.ndarray

    def __call__(self, x) -> np.ndarray:
        return self.apply(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class CatalogEntry:
    """One catalog row.  ``params`` lists the accepted parameters as the
    catalog prints them (``?`` optional, ``|`` alternatives).  ``nearest``
    names the parameter p of a projection entry T whose image T(p), the
    point of the fixed set nearest p, is the stored fixed point."""

    params: str
    nearest: Optional[str] = None
    any_p_norm: bool = False
    note: str = ""

    def describe(self) -> str:
        norm = "any p-norm" if self.any_p_norm else "Euclidean only"
        return "; ".join(filter(None, (f"params: {{{self.params}}}", self.note, norm)))


CATALOG: Dict[str, CatalogEntry] = {
    "identity": CatalogEntry("fixed_point?", nearest="fixed_point", any_p_norm=True),
    "rotation": CatalogEntry("angle|angle_deg, axes?"),
    "ball_projection": CatalogEntry("center?, radius?, anchor?", nearest="anchor"),
    "halfspace_projection": CatalogEntry("normal, offset?, anchor?", nearest="anchor"),
    "box_projection": CatalogEntry("lo, hi, anchor?", nearest="anchor"),
    "affine_avg": CatalogEntry("matrix, shift?", note="operator norm at most 1"),
    "coordinate_shrink": CatalogEntry("factors", any_p_norm=True),
}


def catalog_names() -> List[str]:
    return list(CATALOG)


def read_object(value, what: str, accepted: str) -> dict:
    """``value``, a JSON object whose keys are among ``accepted`` (written as
    the catalog prints them), as a new dict; null reads as the empty object.
    Anything else is refused with a ValueError that names ``what`` and any
    unknown key, as is an object with two keys of one ``a|b`` alternative."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    unknown = sorted(set(value) - set(re.findall(r"\w+", accepted)))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in {what}; accepted: {{{accepted}}}")
    for alternatives in re.findall(r"\w+(?:\|\w+)+", accepted):
        given = [key for key in alternatives.split("|") if key in value]
        if len(given) > 1:
            raise ValueError(f"keys {given} in {what} exclude each other; accepted: "
                             f"{{{accepted}}}")
    return dict(value)


def read_numbers(value, what: str, shape: tuple = ()):
    """``value``, a number or nested lists of numbers, as a float array of
    ``shape`` (a float for shape ()).  Booleans, strings, null and non-finite
    numbers are refused with a ValueError that names ``what``."""
    arr = np.asarray(value, dtype=object)
    if arr.shape != shape:
        raise ValueError(f"{what} must have shape {shape}" if shape else f"{what} must be a number")
    if not all(issubclass(t, numbers.Real) and not issubclass(t, bool)
               for t in set(map(type, arr.flat))):
        raise ValueError(f"{what} entries must be numbers" if shape else f"{what} must be a number")
    try:
        out = arr.astype(float)
    except OverflowError:  # an integer past the double range
        out = np.array(math.inf)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} entries must be finite" if shape else f"{what} must be finite")
    return out if shape else out.item()


def read_int(value, what: str, minimum: int) -> int:
    """``value``, a JSON integer (not a boolean) at least ``minimum``; anything
    else is refused with a ValueError that names ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{what} must be an integer >= {minimum}")
    return value


def make_operator(name: str, space: Space, params: Optional[dict] = None,
                  near=None, fixed_point=None) -> Operator:
    """Build a catalog operator; see :data:`CATALOG` for entries.

    A projection entry stores T(p), with p ``near`` if given, else its
    ``nearest`` parameter, else the center / the origin; a declared
    ``fixed_point`` replaces it.  The stored point's norm must be finite and
    its residual at most ``FIXED_POINT_TOL``."""
    entry = CATALOG.get(name)
    if entry is None:
        raise ValueError(f"unknown operator {name!r}; known: {catalog_names()}")
    if not (space.is_euclidean or entry.any_p_norm):
        raise ValueError(f"operator {name!r} is only certified nonexpansive for the Euclidean norm")
    params = read_object(params, f"operator.params of {name!r}", entry.params)
    if near is not None and entry.nearest:
        params[entry.nearest] = near

    def read(key, default=None, shape=(space.dim,)):
        if key not in params:
            if default is None:
                raise ValueError(f"operator parameter {key!r} is required")
            return default
        return read_numbers(params[key], f"operator parameter {key!r}", shape)

    def squared_norm(key, v):
        with np.errstate(over="ignore"):
            out = float(np.dot(v, v))
        if not math.isfinite(out):
            raise ValueError(f"operator parameter {key!r} is too large: its squared norm "
                             f"overflows")
        return out

    z = np.zeros(space.dim)
    if name == "identity":
        apply = lambda x: x
    elif name == "rotation":
        if "angle_deg" in params:
            angle = math.radians(read("angle_deg", shape=()))
        else:
            angle = read("angle", math.pi / 2.0, ())
        i, j = read("axes", (0, 1), (2,))
        if not (i % 1 == j % 1 == 0 and 0 <= i < space.dim and 0 <= j < space.dim and i != j):
            raise ValueError(f"operator parameter 'axes' must be two distinct axes below "
                             f"{space.dim}, got ({i:g}, {j:g})")
        i, j = int(i), int(j)
        R = np.eye(space.dim)
        c, s = math.cos(angle), math.sin(angle)
        R[i, i] = c
        R[i, j] = -s
        R[j, i] = s
        R[j, j] = c
        apply = R.dot
    elif name == "ball_projection":
        center = z = read("center", z)
        squared_norm("center", center)
        radius = read("radius", 1.0, ())
        if radius <= 0.0:
            raise ValueError(f"ball radius must be positive, got {radius}")
        squared_norm("anchor", read("anchor", center) - center)  # apply(anchor) squares it

        def apply(x, center=center, radius=radius):
            d = x - center
            nd = math.sqrt(float(np.dot(d, d)))
            if nd <= radius:
                return x
            return center + (radius / nd) * d
    elif name == "halfspace_projection":
        normal = read("normal")
        offset = read("offset", 0.0, ())
        nn = squared_norm("normal", normal)
        if nn == 0.0:
            raise ValueError("halfspace normal must be nonzero")

        def apply(x, normal=normal, offset=offset, nn=nn):
            excess = float(np.dot(normal, x)) - offset
            if excess <= 0.0:
                return x
            return x - (excess / nn) * normal
    elif name == "box_projection":
        lo = read("lo")
        hi = read("hi")
        if np.any(lo > hi):
            raise ValueError("box bounds must satisfy lo <= hi componentwise")
        apply = lambda x, lo=lo, hi=hi: np.clip(x, lo, hi)
    elif name == "affine_avg":
        Q = read("matrix", shape=(space.dim, space.dim))
        shift = read("shift", z)
        op_norm = float(np.linalg.norm(Q, 2))
        if op_norm > 1.0 + NONEXPANSIVE_TOL:
            raise ValueError(f"affine map with operator norm {op_norm} > 1 is expansive")
        apply = lambda x, Q=Q, shift=shift: Q.dot(x) + shift
        if squared_norm("shift", shift) != 0.0:
            if op_norm >= 1.0 - 1e-9:
                raise ValueError("affine map on the unit sphere of operator norms needs a zero "
                                 "shift for a computable fixed point")
            z = np.linalg.solve(np.eye(space.dim) - Q, shift)
    elif name == "coordinate_shrink":
        factors = read("factors")
        if np.any(np.abs(factors) > 1.0 + NONEXPANSIVE_TOL):
            raise ValueError("shrink factors must have magnitude at most 1")
        apply = lambda x, factors=factors: factors * x

    source = (f"operator parameter {entry.nearest!r}" if entry.nearest in params
              else f"operator {name!r}")
    if entry.nearest:
        with np.errstate(all="ignore"):
            z = apply(read(entry.nearest, z))
        if not np.isfinite(z).all():  # a halfspace's normal . anchor can overflow
            if entry.nearest in params:
                raise ValueError(f"{source} is too large: its projection overflows")
            # the origin, projected onto a halfspace as (offset / ||normal||^2) * normal
            raise ValueError("operator parameters 'offset' and 'normal' are too large: the "
                             "projection of the origin overflows")
    if fixed_point is not None:
        z = read_numbers(fixed_point, "declared fixed point", (space.dim,))
        source = "operator.fixed_point"
    z = np.array(z, dtype=float)
    if not math.isfinite(space.norm(z)):
        raise ValueError(f"the stored fixed point is too large: its norm overflows "
                         f"(from {source})")
    with np.errstate(all="ignore"):
        residual = space.norm(apply(z) - z)
    if not residual <= FIXED_POINT_TOL:  # nan when apply(z) overflows
        raise ValueError(f"stored point is not fixed for {name!r}: residual {residual:.3e}")
    return Operator(apply=apply, fixed_point=z)
