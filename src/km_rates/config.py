"""Run configuration: one JSON document fully determines a run.

The document has seven sections (space, operator, start, schedule,
certificate, run, output); :func:`RunConfig.from_dict` checks it and keeps
the one normalized document, whose serialization round-trips exactly.
:func:`assemble` reads its sections into live objects.  Every value is read
by the typed readers of :mod:`.operators`, so an object with a key it does
not accept, a non-integer where an integer belongs and a non-finite number
are all config errors.

Schedule parameter streams in custom configs use sequence specs
(``0.5`` | ``{"const": v}`` | ``{"values": [...], "then": v}``) and moduli use
rate specs (``{"const": n}`` | ``{"affine": {"slope": a, "intercept": b}}``);
custom schedules must supply all three moduli explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from .certificates import (
    THRESHOLD_ROUTES,
    Certificate,
    InstanceConstants,
    instance_constants,
    make_certificate,
)
from .moduli import ZERO_CAUCHY, RateFn, RateKind, lp_modulus
from .operators import (
    Operator,
    Space,
    catalog_names,
    make_operator,
    read_int,
    read_numbers,
    read_object,
)
from .schedules import (
    HeadStream,
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

_FORMULAS = sorted({"auto", *THRESHOLD_ROUTES})
_FORMATS = ("csv", "json")

#: the ``schedule.params`` each family accepts, as ``km-rates catalog`` prints
#: them and in the order they are parsed: of several bad params, the error
#: names the first
FAMILY_PARAMS = {
    "inexact_km": "beta, weight_divergence, perturbation?, perturbation_cauchy?, "
                  "perturbation_sum_bound?",
    "classical_km": "beta",
    "anchor": "base, u",
    "example1": "lam, offset?, r_star?",
    "example2": "lam, J?, offset?, r_star?",
    "custom": "alpha, beta, perturbation?, defect_is_zero?, defect_cauchy?, weight_divergence, "
              "perturbation_cauchy?, defect_sum_bound?, perturbation_sum_bound?",
}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _object(value):
    """A section's ``params`` or ``overrides`` as the document keeps them:
    null reads as ``{}``; anything else is checked where it is used."""
    return {} if value is None else value


@dataclass(frozen=True)
class RunConfig:
    """The normalized run document, stored once as canonical JSON: every
    section present with its defaults filled in.  Built by :meth:`from_dict`
    only; :meth:`to_dict` returns the document."""

    document: str

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            doc = read_object(doc, "config", "space, operator, start, schedule, certificate?, "
                                             "run?, output?")
            space = read_object(doc.get("space"), "space", "dim, norm?, p?")
            dim = read_int(space.get("dim"), "space.dim", 1)
            norm = space.get("norm", "euclidean")
            _require(norm in ("euclidean", "lp"), "space.norm must be 'euclidean' or 'lp'")
            p = space.get("p")
            space = {"dim": dim, "norm": norm}
            if norm == "lp":
                space["p"] = read_numbers(p, "space.p")
                _require(space["p"] > 1, "space.p must exceed 1")
            else:
                _require(p is None or p == 2, "space.p is only meaningful for the lp norm")

            op = read_object(doc.get("operator"), "operator", "name, params?, fixed_point?")
            name = op.get("name")
            _require(name in catalog_names(), f"operator.name must be one of {catalog_names()}")
            fixed = op.get("fixed_point", "default")
            if isinstance(fixed, (list, tuple)):
                fixed = read_numbers(fixed, "operator.fixed_point", (dim,)).tolist()
            else:
                _require(fixed in ("default", "nearest"),
                         "operator.fixed_point must be 'default', 'nearest' or a vector")

            start = read_numbers(doc.get("start"), "start", (dim,)).tolist()
            sched = read_object(doc.get("schedule"), "schedule", "family, params?")

            cert = read_object(doc.get("certificate"), "certificate", "formula?, overrides?")
            formula = cert.get("formula", "auto")
            _require(formula in _FORMULAS, f"certificate.formula must be one of {_FORMULAS}")

            # run.seed, which older documents carry, is accepted and ignored
            run = read_object(doc.get("run"), "run", "horizon?, k_max?, seed?")
            horizon = run.get("horizon")
            horizon = "auto" if horizon in ("auto", None) else read_int(horizon, "run.horizon", 1)
            k_max = read_int(run.get("k_max", 10), "run.k_max", 0)

            output = read_object(doc.get("output"), "output", "directory?, formats?")
            out_dir = output.get("directory", "out")
            _require(isinstance(out_dir, str) and out_dir, "output.directory must be a string")
            formats = output.get("formats", list(_FORMATS))
            _require(isinstance(formats, (list, tuple)) and formats
                     and all(f in _FORMATS for f in formats),
                     f"output.formats entries must be among {_FORMATS}")
        except ValueError as exc:
            raise ConfigError(str(exc)) from None

        normalized = {
            "space": space,
            "operator": {"name": name, "params": _object(op.get("params")), "fixed_point": fixed},
            "start": start,
            "schedule": {"family": sched.get("family"), "params": _object(sched.get("params"))},
            "certificate": {"formula": formula, "overrides": _object(cert.get("overrides"))},
            "run": {"horizon": horizon, "k_max": k_max},
            "output": {"directory": out_dir, "formats": list(formats)},
        }
        try:
            return cls(json.dumps(normalized, sort_keys=True))
        except TypeError as exc:
            raise ConfigError(f"parameters are not JSON-serializable: {exc}") from None

    def to_dict(self) -> dict:
        return json.loads(self.document)

    @property
    def k_max(self) -> int:
        """``run.k_max``.  Each read parses the document: a command reads the
        sections it needs from one :meth:`to_dict` instead."""
        return self.to_dict()["run"]["k_max"]


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return RunConfig.from_dict(doc)


def _sequence_spec(spec, what: str) -> Union[float, Stream]:
    """A number or ``{"const": v}`` as the float v, which a family turns
    into its constant stream; ``{"values": [...], "then": v}`` as the
    :class:`~km_rates.schedules.HeadStream` of the values and then v."""
    if not isinstance(spec, dict):
        return read_numbers(spec, what)
    spec = read_object(spec, what, "const|values, then?")
    if "const" in spec:
        _require("then" not in spec, f"{what}.then is read only beside {what}.values")
        return read_numbers(spec["const"], f"{what}.const")
    if "values" in spec:
        values = spec["values"]
        _require(isinstance(values, list), f"{what}.values must be a list")
        values = read_numbers(values, f"{what}.values", (len(values),))
        then = read_numbers(spec.get("then", values[-1] if len(values) else 0.0),
                            f"{what}.then")
        return HeadStream(np.append(values, then))
    raise ConfigError(f"{what}: expected a number, {{'const': v}} or "
                      f"{{'values': [...], 'then': v}}")


def _rate_spec(spec, what: str, kind: RateKind = RateKind.CAUCHY_MODULUS) -> RateFn:
    """The rate spec at ``what``, a Cauchy modulus by default."""
    spec = read_object(spec, what, "const|affine")
    if "const" in spec:
        return RateFn.constant(read_int(spec["const"], f"{what}.const", 0), kind, what)
    if "affine" in spec:
        aff = read_object(spec["affine"], f"{what}.affine", "slope, intercept")
        return RateFn.affine(read_int(aff.get("slope"), f"{what}.affine.slope", 0),
                             read_int(aff.get("intercept"), f"{what}.affine.intercept", 0),
                             kind, what)
    raise ConfigError(f"{what}: expected {{'const': n}} or "
                      f"{{'affine': {{'slope': a, 'intercept': b}}}} with integers")


def _perturbation_spec(spec, what: str, space: Space):
    """Returns (perturbation, perturbation_norm, series), as
    :func:`inverse_square_perturbation` does; the zero stream's series is
    declared zero."""
    if spec is None:
        return inverse_square_perturbation(None)
    spec = read_object(spec, what, "zero|inverse_square")
    if spec.get("zero") is True:
        return inverse_square_perturbation(None)
    if "inverse_square" in spec:
        inner = read_object(spec["inverse_square"], f"{what}.inverse_square", "r_star, offset?")
        return inverse_square_perturbation(
            read_numbers(inner.get("r_star"), f"{what}.inverse_square.r_star", (space.dim,)),
            read_int(inner.get("offset", 1), f"{what}.inverse_square.offset", 1), space.norm)
    raise ConfigError(f"{what}: expected {{'zero': true}} or "
                      f"{{'inverse_square': {{'r_star': [...], 'offset': n}}}}")


def build_schedule(family, params, space: Space, what: str) -> Schedule:
    """The schedule of the section at ``what``: its ``family`` and its
    ``params``, read in the order :data:`FAMILY_PARAMS` lists them."""
    if not isinstance(family, str) or family not in FAMILY_PARAMS:
        raise ConfigError(f"{what}.family must be one of {sorted(FAMILY_PARAMS)}")

    def param(key, default=None):
        """(value, key path) of a param, as the readers take them."""
        return params.get(key, default), f"{what}.params.{key}"

    def r_star():
        value, key = param("r_star")
        return None if value is None else read_numbers(value, key, (space.dim,))

    try:
        params = read_object(params, f"{what}.params", FAMILY_PARAMS[family])
        if family == "example1":
            schedule = make_example1(read_numbers(*param("lam")), read_int(*param("offset", 1), 1),
                                     r_star(), norm=space.norm)
        elif family == "example2":
            schedule = make_example2(read_numbers(*param("lam")), read_int(*param("J", 2), 2),
                                     read_int(*param("offset", 1), 1), r_star(), norm=space.norm)
        elif family == "classical_km":
            schedule = make_classical_km(read_numbers(*param("beta")))
        elif family == "inexact_km":
            beta = _sequence_spec(*param("beta"))
            divergence = _rate_spec(*param("weight_divergence"), RateKind.RATE_OF_DIVERGENCE)
            pert, pert_norm, series = _perturbation_spec(*param("perturbation"), space)
            if not series.zero:
                series = replace(series, modulus=_rate_spec(*param("perturbation_cauchy")),
                                 bound=read_int(*param("perturbation_sum_bound"), 0))
            schedule = make_inexact_km(beta, divergence, pert, series, perturbation_norm=pert_norm)
        elif family == "anchor":
            base = read_object(params.get("base"), f"{what}.params.base", "family, params?")
            base = build_schedule(base.get("family"), base.get("params"), space,
                                  f"{what}.params.base")
            schedule = make_anchor(base, read_numbers(*param("u"), (space.dim,)),
                                   norm=space.norm)
        else:  # custom
            alpha, beta = (spec if callable(spec) else constant_stream(spec)
                           for spec in (_sequence_spec(*param("alpha")),
                                        _sequence_spec(*param("beta"))))
            pert, pert_norm, series = _perturbation_spec(*param("perturbation"), space)
            defect_zero = params.get("defect_is_zero", False)
            _require(isinstance(defect_zero, bool),
                     f"{what}.params.defect_is_zero must be true or false")
            defect_modulus = ZERO_CAUCHY if defect_zero else _rate_spec(*param("defect_cauchy"))
            divergence = _rate_spec(*param("weight_divergence"), RateKind.RATE_OF_DIVERGENCE)
            pert_modulus = ZERO_CAUCHY if series.zero else _rate_spec(*param("perturbation_cauchy"))
            defect = Series(defect_modulus, read_int(*param("defect_sum_bound", 0), 0),
                            zero=defect_zero)
            series = replace(series, modulus=pert_modulus,
                             bound=read_int(*param("perturbation_sum_bound", 0), 0))
            schedule = Schedule(
                alpha=alpha,
                beta=beta,
                perturbation=pert,
                perturbation_norm=pert_norm,
                weight_divergence=divergence,
                defect_series=defect,
                perturbation_series=series,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return schedule


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
    """The live objects of the config's run, read from its document."""
    doc = cfg.to_dict()
    space = Space(dim=doc["space"]["dim"], p=doc["space"].get("p", 2.0))
    start = np.asarray(doc["start"], dtype=float)
    op, fixed = doc["operator"], doc["operator"]["fixed_point"]
    try:
        operator = make_operator(op["name"], space, op["params"],
                                 near=doc["start"] if fixed == "nearest" else None,
                                 fixed_point=fixed if isinstance(fixed, list) else None)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    try:
        schedule = build_schedule(doc["schedule"]["family"], doc["schedule"]["params"], space,
                                  "schedule")
    except OverflowError as exc:
        raise ConfigError(f"schedule constants are not representable: {exc}") from None
    try:
        constants = instance_constants(start, operator.fixed_point, schedule,
                                       norm=space.norm)
    except OverflowError as exc:
        raise ConfigError(f"instance bounds are not representable: {exc}") from None
    try:
        certificate = make_certificate(constants, schedule, lp_modulus(space.p),
                                       doc["certificate"]["formula"])
        overrides = read_object(doc["certificate"]["overrides"], "certificate.overrides",
                                "residual_rate?, step_rate?")
        fields = {key: _rate_spec(spec, f"certificate.overrides.{key}",
                                  RateKind.RATE_OF_CONVERGENCE)
                  for key, spec in overrides.items()}
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if fields:
        certificate = replace(certificate, **fields)
    return Instance(config=cfg, space=space, operator=operator, start=start,
                    schedule=schedule, constants=constants, certificate=certificate)
