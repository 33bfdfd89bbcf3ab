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
from .operators import Operator, Space, catalog_names, make_operator, read_numbers
from .schedules import (
    Family,
    Schedule,
    Series,
    Stream,
    constant_stream,
    inverse_square_perturbation,
    make_anchor,
    make_classical_km,
    make_example1,
    make_example2,
    make_inexact_km,
)

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


def _is_int(value) -> bool:
    """A JSON integer: Python's bool is an int, JSON's true is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _vector(values, what: str) -> tuple:
    try:
        return tuple(read_numbers(values, what, (len(values),)).tolist())
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


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
        _require(_is_int(dim) and dim >= 1, "space.dim must be a positive integer")
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
            fixed = _vector(fixed, "operator.fixed_point")
        else:
            _require(fixed in ("default", "nearest"),
                     "operator.fixed_point must be 'default', 'nearest' or a vector")

        start = doc.get("start")
        _require(isinstance(start, (list, tuple)) and len(start) == dim,
                 "start must be a vector matching space.dim")
        start = _vector(start, "start")

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
            _require(_is_int(horizon) and horizon >= 1,
                     "run.horizon must be a positive integer or 'auto'")
        k_max = run.get("k_max", 10)
        _require(_is_int(k_max) and k_max >= 0, "run.k_max must be a natural number")

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
    fixed = cfg.operator_fixed_point
    try:
        return make_operator(cfg.operator_name, space, json.loads(cfg.operator_params),
                             near=cfg.start if fixed == "nearest" else None,
                             fixed_point=fixed if isinstance(fixed, tuple) else None)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _sequence_spec(spec, what: str) -> Stream:
    if isinstance(spec, (int, float)) and not isinstance(spec, bool):
        return constant_stream(spec)
    if isinstance(spec, dict) and "const" in spec:
        return constant_stream(read_numbers(spec["const"], f"{what}.const"))
    if isinstance(spec, dict) and "values" in spec:
        values = [read_numbers(v, f"{what}.values") for v in spec["values"]]
        then = spec.get("then", values[-1] if values else 0.0)
        table = np.array(values + [read_numbers(then, f"{what}.then")])
        return lambda n: table[np.minimum(n, len(values))]
    raise ConfigError(f"{what}: expected a number, {{'const': v}} or "
                      f"{{'values': [...], 'then': v}}")


def _rate_spec(spec, kind: RateKind, what: str) -> RateFn:
    if isinstance(spec, dict) and "const" in spec and _is_int(spec["const"]):
        return RateFn.constant(spec["const"], kind, what)
    if isinstance(spec, dict) and "affine" in spec:
        aff = spec["affine"]
        slope, intercept = aff.get("slope"), aff.get("intercept")
        if _is_int(slope) and _is_int(intercept):
            return RateFn.affine(slope, intercept, kind, what)
    raise ConfigError(f"{what}: expected {{'const': n}} or "
                      f"{{'affine': {{'slope': a, 'intercept': b}}}} with integers")


def _perturbation_spec(spec, space: Space, what: str):
    """Returns (perturbation, perturbation_norm, series), as
    :func:`inverse_square_perturbation` does; the zero stream's series is
    declared zero."""
    if spec is None or (isinstance(spec, dict) and spec.get("zero")):
        return inverse_square_perturbation(None)
    if isinstance(spec, dict) and "inverse_square" in spec:
        inner = spec["inverse_square"]
        r_star = read_numbers(inner.get("r_star"), f"{what}.inverse_square.r_star",
                              (space.dim,))
        offset = inner.get("offset", 1)
        if not _is_int(offset) or offset < 1:
            raise ConfigError(f"{what}.inverse_square.offset must be a positive integer")
        return inverse_square_perturbation(r_star, offset, space.norm)
    raise ConfigError(f"{what}: expected {{'zero': true}} or "
                      f"{{'inverse_square': {{'r_star': [...], 'offset': n}}}}")


def _param_rate(params: dict, key: str, kind: RateKind = RateKind.CAUCHY_MODULUS) -> RateFn:
    """The rate spec ``schedule.params.<key>``, a Cauchy modulus by default."""
    return _rate_spec(params.get(key), kind, f"schedule.params.{key}")


def _param_bound(params: dict, key: str, default: Optional[int]) -> int:
    """The natural number ``schedule.params.<key>``; ``default`` when absent."""
    bound = params.get(key, default)
    if not _is_int(bound) or bound < 0:
        raise ConfigError(f"schedule.params.{key} must be a natural number")
    return bound


def _param_vector(params: dict, key: str, space: Space, required: bool = False):
    """The vector ``schedule.params.<key>``; None if absent or null and not ``required``."""
    value = params.get(key)
    if value is None and not required:
        return None
    return read_numbers(value, f"schedule.params.{key}", (space.dim,))


def _param_int(params: dict, key: str, default: int) -> int:
    """The integer ``schedule.params.<key>``, truncated; a boolean is refused."""
    value = params.get(key, default)
    if isinstance(value, bool):
        raise ConfigError(f"schedule.params.{key} must be an integer")
    return int(value)


def build_schedule(cfg: RunConfig, space: Space) -> Schedule:
    params = json.loads(cfg.schedule_params)
    family = cfg.schedule_family
    try:
        if family == Family.EXAMPLE1.value:
            schedule = make_example1(read_numbers(params["lam"], "schedule.params.lam"),
                                     _param_int(params, "offset", 1),
                                     _param_vector(params, "r_star", space), norm=space.norm)
        elif family == Family.EXAMPLE2.value:
            schedule = make_example2(read_numbers(params["lam"], "schedule.params.lam"),
                                     _param_int(params, "J", 2), _param_int(params, "offset", 1),
                                     _param_vector(params, "r_star", space), norm=space.norm)
        elif family == Family.CLASSICAL_KM.value:
            schedule = make_classical_km(read_numbers(params["beta"], "schedule.params.beta"))
        elif family == Family.INEXACT_KM.value:
            beta = _sequence_spec(params.get("beta"), "schedule.params.beta")
            divergence = _param_rate(params, "weight_divergence", RateKind.RATE_OF_DIVERGENCE)
            pert, pert_norm, series = _perturbation_spec(
                params.get("perturbation"), space, "schedule.params.perturbation")
            if not series.zero:
                series = replace(series, modulus=_param_rate(params, "perturbation_cauchy"),
                                 bound=_param_bound(params, "perturbation_sum_bound", None))
            schedule = make_inexact_km(beta, divergence, None if series.zero else pert, series,
                                       perturbation_norm=pert_norm)
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
            schedule = make_anchor(base, _param_vector(params, "u", space, required=True),
                                   norm=space.norm)
        elif family == Family.CUSTOM.value:
            alpha = _sequence_spec(params.get("alpha"), "schedule.params.alpha")
            beta = _sequence_spec(params.get("beta"), "schedule.params.beta")
            pert, pert_norm, series = _perturbation_spec(
                params.get("perturbation"), space, "schedule.params.perturbation")
            defect_zero = bool(params.get("defect_is_zero", False))
            # the moduli parse before the bounds: this order picks which of
            # several bad params the error names
            defect_modulus = ZERO_CAUCHY if defect_zero else _param_rate(params, "defect_cauchy")
            divergence = _param_rate(params, "weight_divergence", RateKind.RATE_OF_DIVERGENCE)
            pert_modulus = (ZERO_CAUCHY if series.zero
                            else _param_rate(params, "perturbation_cauchy"))
            defect = Series(defect_modulus, _param_bound(params, "defect_sum_bound", 0),
                            zero=defect_zero)
            series = replace(series, modulus=pert_modulus,
                             bound=_param_bound(params, "perturbation_sum_bound", 0))
            schedule = Schedule(
                alpha=alpha,
                beta=beta,
                perturbation=pert,
                perturbation_norm=pert_norm,
                weight_divergence=divergence,
                defect_series=defect,
                perturbation_series=series,
                family=Family.CUSTOM,
            )
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
    try:
        schedule = build_schedule(cfg, space)
    except OverflowError as exc:
        raise ConfigError(f"schedule constants are not representable: {exc}") from None
    try:
        constants = instance_constants(start, operator.fixed_point, schedule,
                                       norm=space.norm)
    except OverflowError as exc:
        raise ConfigError(f"instance bounds are not representable: {exc}") from None
    certificate = build_certificate(cfg, schedule, space, constants)
    return Instance(config=cfg, space=space, operator=operator, start=start,
                    schedule=schedule, constants=constants, certificate=certificate)
