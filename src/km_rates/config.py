"""Run configuration: one JSON document fully determines a run.

The document has six sections (space, operator, start, schedule, certificate,
run, output); :func:`RunConfig.from_dict` normalizes it into an immutable
value whose serialization round-trips exactly.  :func:`assemble` turns a
config into live objects.

Schedule parameter streams in custom configs use sequence specs
(``0.5`` | ``{"const": v}`` | ``{"values": [...], "then": v}``) and moduli use
rate specs (``{"const": n}`` | ``{"affine": {"slope": a, "intercept": b}}``);
custom schedules must supply all three moduli explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .certificates import (
    Certificate,
    FormulaTag,
    InstanceConstants,
    instance_constants,
    make_certificate,
)
from .moduli import ZERO_CAUCHY, RateFn, RateKind
from .operators import Operator, Space, catalog_names, make_operator
from .schedules import (
    Family,
    Schedule,
    Stream,
    constant_stream,
    inverse_square_perturbation,
    make_anchor,
    make_classical_km,
    make_example1,
    make_example2,
    make_inexact_km,
)

_PROJECTION_OPS = {"ball_projection", "halfspace_projection", "box_projection"}
_FORMULAS = {"auto"} | {tag.value for tag in FormulaTag}
_FORMATS = ("csv", "json")


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _canonical(params) -> str:
    try:
        return json.dumps(params if params is not None else {}, sort_keys=True)
    except TypeError as exc:
        raise ConfigError(f"parameters are not JSON-serializable: {exc}") from None


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


@dataclass(frozen=True)
class RunConfig:
    space_dim: int
    space_norm: str
    space_p: Optional[float]
    operator_name: str
    operator_params: str
    operator_fixed_point: Union[str, tuple]
    start: tuple
    schedule_family: str
    schedule_params: str
    certificate_formula: str
    certificate_overrides: str
    horizon: Optional[int]
    k_max: int
    out_dir: str
    formats: tuple

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        _require(isinstance(doc, dict), "config must be a JSON object")
        space = doc.get("space") or {}
        dim = space.get("dim")
        _require(isinstance(dim, int) and dim >= 1, "space.dim must be a positive integer")
        norm = space.get("norm", "euclidean")
        _require(norm in ("euclidean", "lp"), "space.norm must be 'euclidean' or 'lp'")
        p = space.get("p")
        if norm == "lp":
            _require(isinstance(p, (int, float)) and p > 1, "space.p must exceed 1")
            p = float(p)
        else:
            _require(p is None or p == 2, "space.p is only meaningful for the lp norm")
            p = None

        op = doc.get("operator") or {}
        name = op.get("name")
        _require(name in catalog_names(), f"operator.name must be one of {catalog_names()}")
        fixed = op.get("fixed_point", "default")
        if isinstance(fixed, (list, tuple)):
            _require(len(fixed) == dim, "operator.fixed_point vector must match space.dim")
            fixed = tuple(float(v) for v in fixed)
        else:
            _require(fixed in ("default", "nearest"),
                     "operator.fixed_point must be 'default', 'nearest' or a vector")

        start = doc.get("start")
        _require(isinstance(start, (list, tuple)) and len(start) == dim,
                 "start must be a vector matching space.dim")
        start = tuple(float(v) for v in start)

        sched = doc.get("schedule") or {}
        family = sched.get("family")
        families = {f.value for f in Family}
        _require(family in families, f"schedule.family must be one of {sorted(families)}")

        cert = doc.get("certificate") or {}
        formula = cert.get("formula", "auto")
        _require(formula in _FORMULAS, f"certificate.formula must be one of {sorted(_FORMULAS)}")

        run = doc.get("run") or {}
        horizon = run.get("horizon", None)
        if horizon in ("auto", None):
            horizon = None
        else:
            _require(isinstance(horizon, int) and horizon >= 1,
                     "run.horizon must be a positive integer or 'auto'")
        k_max = run.get("k_max", 10)
        _require(isinstance(k_max, int) and k_max >= 0, "run.k_max must be a natural number")

        output = doc.get("output") or {}
        out_dir = output.get("directory", "out")
        _require(isinstance(out_dir, str) and out_dir, "output.directory must be a string")
        formats = tuple(output.get("formats", list(_FORMATS)))
        _require(formats and all(f in _FORMATS for f in formats),
                 f"output.formats entries must be among {_FORMATS}")

        return cls(
            space_dim=dim,
            space_norm=norm,
            space_p=p,
            operator_name=name,
            operator_params=_canonical(op.get("params")),
            operator_fixed_point=fixed,
            start=start,
            schedule_family=family,
            schedule_params=_canonical(sched.get("params")),
            certificate_formula=formula,
            certificate_overrides=_canonical(cert.get("overrides")),
            horizon=horizon,
            k_max=k_max,
            out_dir=out_dir,
            formats=formats,
        )

    def to_dict(self) -> dict:
        space = {"dim": self.space_dim, "norm": self.space_norm}
        if self.space_p is not None:
            space["p"] = self.space_p
        fixed = (list(self.operator_fixed_point)
                 if isinstance(self.operator_fixed_point, tuple)
                 else self.operator_fixed_point)
        return {
            "space": space,
            "operator": {
                "name": self.operator_name,
                "params": json.loads(self.operator_params),
                "fixed_point": fixed,
            },
            "start": list(self.start),
            "schedule": {
                "family": self.schedule_family,
                "params": json.loads(self.schedule_params),
            },
            "certificate": {
                "formula": self.certificate_formula,
                "overrides": json.loads(self.certificate_overrides),
            },
            "run": {
                "horizon": "auto" if self.horizon is None else self.horizon,
                "k_max": self.k_max,
            },
            "output": {"directory": self.out_dir, "formats": list(self.formats)},
        }


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return RunConfig.from_dict(doc)


def build_space(cfg: RunConfig) -> Space:
    return Space(dim=cfg.space_dim, p=cfg.space_p if cfg.space_norm == "lp" else 2.0)


def build_operator(cfg: RunConfig, space: Space) -> Operator:
    params = json.loads(cfg.operator_params)
    fixed = cfg.operator_fixed_point
    if fixed == "nearest":
        if cfg.operator_name in _PROJECTION_OPS:
            params["anchor"] = list(cfg.start)
        elif cfg.operator_name == "identity":
            params["fixed_point"] = list(cfg.start)
        # remaining entries have a canonical fixed point already
    try:
        op = make_operator(cfg.operator_name, space, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if isinstance(fixed, tuple):
        z = np.asarray(fixed, dtype=float)
        residual = space.norm(op(z) - z)
        if residual > 1e-12:
            raise ConfigError(
                f"declared fixed point is not fixed (residual {residual:.3e})")
        op = replace(op, fixed_point=z)
    return op


def _sequence_spec(spec, what: str) -> Stream:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return constant_stream(spec)
    if isinstance(spec, dict) and "const" in spec:
        return constant_stream(spec["const"])
    if isinstance(spec, dict) and "values" in spec:
        values = [float(v) for v in spec["values"]]
        table = np.array(values + [float(spec.get("then", values[-1] if values else 0.0))])
        return lambda n: table[np.minimum(n, len(values))]
    raise ConfigError(f"{what}: expected a number, {{'const': v}} or "
                      f"{{'values': [...], 'then': v}}")


def _rate_spec(spec, kind: RateKind, what: str) -> RateFn:
    if isinstance(spec, dict) and "const" in spec and isinstance(spec["const"], int):
        return RateFn.constant(spec["const"], kind, what)
    if isinstance(spec, dict) and "affine" in spec:
        aff = spec["affine"]
        slope, intercept = aff.get("slope"), aff.get("intercept")
        if isinstance(slope, int) and isinstance(intercept, int):
            return RateFn.affine(slope, intercept, kind, what)
    raise ConfigError(f"{what}: expected {{'const': n}} or "
                      f"{{'affine': {{'slope': a, 'intercept': b}}}} with integers")


def _perturbation_spec(spec, space: Space, what: str):
    """Returns (perturbation, perturbation_norm, tail, ||r_star||), as
    :func:`inverse_square_perturbation` does; the zero stream has norm 0."""
    if spec is None or (isinstance(spec, dict) and spec.get("zero")):
        return inverse_square_perturbation(None)
    if isinstance(spec, dict) and "inverse_square" in spec:
        inner = spec["inverse_square"]
        r_star = np.asarray(inner.get("r_star"), dtype=float)
        if r_star.shape != (space.dim,):
            raise ConfigError(f"{what}.inverse_square.r_star must match space.dim")
        offset = inner.get("offset", 1)
        if not isinstance(offset, int) or offset < 1:
            raise ConfigError(f"{what}.inverse_square.offset must be a positive integer")
        return inverse_square_perturbation(r_star, offset, space.norm)
    raise ConfigError(f"{what}: expected {{'zero': true}} or "
                      f"{{'inverse_square': {{'r_star': [...], 'offset': n}}}}")


def build_schedule(cfg: RunConfig, space: Space) -> Schedule:
    params = json.loads(cfg.schedule_params)
    family = cfg.schedule_family
    try:
        if family == Family.EXAMPLE1.value:
            schedule = make_example1(float(params["lam"]), int(params.get("offset", 1)),
                                     params.get("r_star"), norm=space.norm)
        elif family == Family.EXAMPLE2.value:
            schedule = make_example2(float(params["lam"]), int(params.get("J", 2)),
                                     int(params.get("offset", 1)), params.get("r_star"),
                                     norm=space.norm)
        elif family == Family.CLASSICAL_KM.value:
            schedule = make_classical_km(float(params["beta"]))
        elif family == Family.INEXACT_KM.value:
            beta = _sequence_spec(params.get("beta"), "schedule.params.beta")
            divergence = _rate_spec(params.get("weight_divergence"),
                                    RateKind.RATE_OF_DIVERGENCE,
                                    "schedule.params.weight_divergence")
            pert, pert_norm, tail, r_norm = _perturbation_spec(
                params.get("perturbation"), space, "schedule.params.perturbation")
            zero = r_norm == 0.0
            if zero:
                cauchy, bound = ZERO_CAUCHY, 0
            else:
                cauchy = _rate_spec(params.get("perturbation_cauchy"),
                                    RateKind.CAUCHY_MODULUS,
                                    "schedule.params.perturbation_cauchy")
                bound = params.get("perturbation_sum_bound")
                if not isinstance(bound, int) or bound < 0:
                    raise ConfigError("schedule.params.perturbation_sum_bound must be a "
                                      "natural number")
            schedule = make_inexact_km(beta, divergence, None if zero else pert, cauchy,
                                       bound, perturbation_norm=pert_norm,
                                       perturbation_tail=tail)
        elif family == Family.ANCHOR.value:
            base_doc = params.get("base")
            if not isinstance(base_doc, dict):
                raise ConfigError("schedule.params.base must be a nested schedule section")
            base_cfg = replace(cfg,
                               schedule_family=base_doc.get("family", ""),
                               schedule_params=_canonical(base_doc.get("params")))
            families = {f.value for f in Family}
            _require(base_cfg.schedule_family in families,
                     "schedule.params.base.family is unknown")
            base = build_schedule(base_cfg, space)
            schedule = make_anchor(base, params.get("u"), norm=space.norm)
        elif family == Family.CUSTOM.value:
            alpha = _sequence_spec(params.get("alpha"), "schedule.params.alpha")
            beta = _sequence_spec(params.get("beta"), "schedule.params.beta")
            pert, pert_norm, tail, r_norm = _perturbation_spec(
                params.get("perturbation"), space, "schedule.params.perturbation")
            zero = r_norm == 0.0
            defect_zero = bool(params.get("defect_is_zero", False))
            sched_kw = {
                "alpha": alpha,
                "beta": beta,
                "perturbation": pert,
                "perturbation_norm": pert_norm,
                "defect_cauchy": _rate_spec(params.get("defect_cauchy"),
                                            RateKind.CAUCHY_MODULUS,
                                            "schedule.params.defect_cauchy")
                if not defect_zero else ZERO_CAUCHY,
                "weight_divergence": _rate_spec(params.get("weight_divergence"),
                                                RateKind.RATE_OF_DIVERGENCE,
                                                "schedule.params.weight_divergence"),
                "perturbation_cauchy": _rate_spec(params.get("perturbation_cauchy"),
                                                  RateKind.CAUCHY_MODULUS,
                                                  "schedule.params.perturbation_cauchy")
                if not zero else ZERO_CAUCHY,
                "defect_sum_bound": params.get("defect_sum_bound", 0),
                "perturbation_sum_bound": params.get("perturbation_sum_bound", 0),
                "family": Family.CUSTOM,
                "defect_is_zero": defect_zero,
                "perturbation_is_zero": zero,
                "perturbation_tail": tail,
            }
            for key in ("defect_sum_bound", "perturbation_sum_bound"):
                if not isinstance(sched_kw[key], int) or sched_kw[key] < 0:
                    raise ConfigError(f"schedule.params.{key} must be a natural number")
            schedule = Schedule(**sched_kw)
        else:
            raise ConfigError(f"unsupported schedule family {family!r}")
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"schedule.params incomplete for family {family!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return schedule


def build_certificate(cfg: RunConfig, schedule: Schedule, space: Space,
                      constants: InstanceConstants) -> Certificate:
    try:
        cert = make_certificate(constants, schedule, space.uc_modulus(),
                                cfg.certificate_formula)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    overrides = json.loads(cfg.certificate_overrides)
    if overrides:
        fields = {}
        if "residual_rate" in overrides:
            fields["residual_rate"] = _rate_spec(overrides["residual_rate"],
                                                 RateKind.RATE_OF_CONVERGENCE,
                                                 "certificate.overrides.residual_rate")
        if "step_rate" in overrides:
            fields["step_rate"] = _rate_spec(overrides["step_rate"],
                                             RateKind.RATE_OF_CONVERGENCE,
                                             "certificate.overrides.step_rate")
        unknown = set(overrides) - {"residual_rate", "step_rate"}
        if unknown:
            raise ConfigError(f"unknown certificate overrides: {sorted(unknown)}")
        cert = replace(cert, **fields)
    return cert


@dataclass
class Instance:
    config: RunConfig
    space: Space
    operator: Operator
    start: np.ndarray
    schedule: Schedule
    constants: InstanceConstants
    certificate: Certificate


def assemble(cfg: RunConfig) -> Instance:
    space = build_space(cfg)
    operator = build_operator(cfg, space)
    start = np.asarray(cfg.start, dtype=float)
    schedule = build_schedule(cfg, space)
    try:
        constants = instance_constants(start, operator.fixed_point, schedule,
                                       norm=space.norm)
    except OverflowError as exc:
        raise ConfigError(f"instance bounds are not representable: {exc}") from None
    certificate = build_certificate(cfg, schedule, space, constants)
    return Instance(config=cfg, space=space, operator=operator, start=start,
                    schedule=schedule, constants=constants, certificate=certificate)
