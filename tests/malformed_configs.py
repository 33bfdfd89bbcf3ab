"""Malformed run configs and command-line flags that must exit 2 with a config
error naming the bad value, and configs whose certificate arithmetic reaches
the edges of the double range: the tables that ``tests/test_cli.py`` checks and
that ``tools/compare_outputs.py`` runs on two checkouts.  Pure data, so both can
import it; each case changes sections of the README rotation config.
"""

#: custom and inexact_km schedule params that some cases below start from
CUSTOM = {"alpha": 0.5, "beta": 0.5, "perturbation": {"zero": True}, "defect_is_zero": True,
          "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}}
INVERSE_SQUARE = {"inverse_square": {"r_star": [0.5, 0.0], "offset": 2}}
INEXACT = {"beta": 0.5, "weight_divergence": {"affine": {"slope": 4, "intercept": 0}},
           "perturbation": INVERSE_SQUARE,
           "perturbation_cauchy": {"affine": {"slope": 1, "intercept": 1}}}

#: id -> (changed config sections, text the error message contains)
CONFIG_VALUES = {
    "start-string": ({"start": ["x", 0.0]}, "start"),
    "fixed-point-string": ({"operator": {"name": "rotation", "params": {"angle_deg": 90.0},
                                         "fixed_point": [0, "y"]}}, "operator.fixed_point"),
    "dim-true": ({"space": {"dim": True, "norm": "euclidean"},
                  "operator": {"name": "identity"}, "start": [1.0]}, "space.dim"),
    "horizon-true": ({"run": {"horizon": True, "k_max": 3}}, "run.horizon"),
    "k_max-true": ({"run": {"horizon": 20, "k_max": True}}, "run.k_max"),
    "axes-int": ({"operator": {"name": "rotation", "params": {"axes": 5}}}, "'axes'"),
    "angle-null": ({"operator": {"name": "rotation", "params": {"angle": None}}}, "'angle'"),
    "start-numeric-string": ({"start": ["1", 0.0]}, "start"),
    "fixed-point-numeric-string": ({"operator": {"name": "rotation", "params": {},
                                                 "fixed_point": ["0", 0]}},
                                   "operator.fixed_point"),
    "beta-string": ({"schedule": {"family": "classical_km", "params": {"beta": "0.5"}}},
                    "schedule.params.beta"),
    "lam-string": ({"schedule": {"family": "example1", "params": {"lam": "0.5"}}},
                   "schedule.params.lam"),
    "r_star-string": ({"schedule": {"family": "example1",
                                    "params": {"lam": 0.5, "r_star": ["1", 0.0]}}},
                      "schedule.params.r_star"),
    "r_star-short": ({"schedule": {"family": "example2",
                                   "params": {"lam": 0.5, "r_star": [1.0]}}},
                     "schedule.params.r_star"),
    "u-true": ({"schedule": {"family": "anchor", "params": {
        "base": {"family": "example2", "params": {"lam": 0.5}}, "u": [True, 0.0]}}},
        "schedule.params.u"),
    "u-missing": ({"schedule": {"family": "anchor", "params": {
        "base": {"family": "example2", "params": {"lam": 0.5}}}}}, "schedule.params.u"),
    "const-string": ({"schedule": {"family": "inexact_km", "params": {
        "beta": {"const": "0.5"},
        "weight_divergence": {"affine": {"slope": 4, "intercept": 0}}}}},
        "schedule.params.beta.const"),
    "values-string": ({"schedule": {"family": "custom", "params": dict(
        CUSTOM, alpha={"values": [0.5, "0.5"]})}}, "schedule.params.alpha.values"),
    "J-fractional": ({"schedule": {"family": "example2", "params": {"lam": 0.5, "J": 2.7}}},
                     "schedule.params.J"),
    "schedule-offset-true": ({"schedule": {"family": "example1",
                                           "params": {"lam": 0.5, "offset": True}}},
                             "schedule.params.offset"),
    "offset-string": ({"schedule": {"family": "example1",
                                    "params": {"lam": 0.5, "offset": "2"}}},
                      "schedule.params.offset"),
    "offset-fractional": ({"schedule": {"family": "example1",
                                        "params": {"lam": 0.5, "offset": 1.5}}},
                          "schedule.params.offset"),
    "defect_is_zero-string": ({"schedule": {"family": "custom", "params": dict(
        CUSTOM, defect_is_zero="no")}}, "schedule.params.defect_is_zero"),
    "space-list": ({"space": [2]}, "space"),
    "schedule-list": ({"schedule": ["example1"]}, "schedule"),
    "schedule-params-list": ({"schedule": {"family": "inexact_km", "params": [0.5]}},
                             "schedule.params"),
    "base-params-list": ({"schedule": {"family": "anchor", "params": {
        "base": {"family": "inexact_km", "params": [0.5]}, "u": [1.0, 0.0]}}},
        "schedule.params.base.params"),
    "overrides-int": ({"certificate": {"formula": "auto", "overrides": 5}},
                      "certificate.overrides"),
    "affine-list": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, weight_divergence={"affine": [4, 0]})}},
        "schedule.params.weight_divergence.affine"),
    "operator-params-list": ({"operator": {"name": "rotation", "params": [90.0]}},
                             "operator.params"),
    "p-infinity": ({"space": {"dim": 2, "norm": "lp", "p": float("inf")},
                    "operator": {"name": "coordinate_shrink",
                                 "params": {"factors": [0.5, 0.5]}}}, "space.p"),
    # a start whose norm passes the double range
    "start-huge": ({"start": [1.7e308, 1.7e308]}, "instance bounds are not representable"),
    "start-huge-int": ({"start": [10 ** 400, 0.0]}, "start"),
    "formats-int": ({"output": {"directory": "out", "formats": 5}}, "output.formats"),
    "formula-list": ({"certificate": {"formula": ["auto"]}}, "certificate.formula"),
    "family-list": ({"schedule": {"family": ["example1"], "params": {}}}, "schedule.family"),
    "fixed-point-overflow": ({"operator": {"name": "identity",
                                           "fixed_point": [1.7e308, 1.7e308]}},
                             "operator.fixed_point"),
    # the start becomes the ball's anchor, whose squared distance to the center overflows
    "nearest-start-overflow": ({"operator": {"name": "ball_projection", "params": {},
                                             "fixed_point": "nearest"}, "start": [1e200, 0.0]},
                               "'anchor'"),
    # the halfspace image of this declared point has inf * 0 = nan in one entry
    "fixed-point-nan-residual": ({"operator": {"name": "halfspace_projection",
                                               "params": {"normal": [1e-160, 0.0]},
                                               "fixed_point": [1e150, 0.0]}}, "residual nan"),
    # the two keys of an a|b alternative
    "angle-and-angle_deg": ({"operator": {"name": "rotation",
                                          "params": {"angle": 1.0, "angle_deg": 90.0}}},
                            "['angle', 'angle_deg']"),
    "const-and-values": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, beta={"const": 0.5, "values": [0.25]})}}, "['const', 'values']"),
    "const-and-affine": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, weight_divergence={"const": 4, "affine": {"slope": 4, "intercept": 0}})}},
        "['const', 'affine']"),
    "zero-and-inverse_square": ({"schedule": {"family": "custom", "params": dict(
        CUSTOM, perturbation=dict(INVERSE_SQUARE, zero=True))}},
        "['zero', 'inverse_square']"),
    # weights whose sum passes the double range
    "weights-sum-overflow": ({"schedule": {"family": "custom", "params": dict(
        CUSTOM, alpha=1.7e308, beta=1.7e308)}}, "alpha out of [0, 1]"),
    # a sequence, a rate and a perturbation spec that hold none of their keys
    "then-only": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, beta={"then": 0.5})}}, "schedule.params.beta"),
    "rate-empty": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, weight_divergence={})}}, "schedule.params.weight_divergence"),
    "zero-false": ({"schedule": {"family": "custom", "params": dict(
        CUSTOM, perturbation={"zero": False})}}, "schedule.params.perturbation"),
    # then continues a values table; beside const it would be ignored, and
    # the schedule is valid without it
    "then-beside-const": ({"schedule": {"family": "inexact_km", "params": dict(
        INEXACT, beta={"const": 0.5, "then": 0.9}, perturbation_sum_bound=4)}},
        "schedule.params.beta.then"),
}

#: id -> (operator name, its params, the parameter the error message names)
OPERATOR_PARAMS = {
    "axes-true": ("rotation", {"axes": [True, 0]}, "axes"),
    "axes-fractional": ("rotation", {"axes": [0.7, 1.2]}, "axes"),
    "axes-int": ("rotation", {"axes": 5}, "axes"),
    "angle_deg-true": ("rotation", {"angle_deg": True}, "angle_deg"),
    "angle-null": ("rotation", {"angle": None}, "angle"),
    "misspelt-key": ("rotation", {"angel_deg": 30.0}, "angel_deg"),
    "normal-missing": ("halfspace_projection", {}, "normal"),
    "radius-true": ("ball_projection", {"radius": True}, "radius"),
    "radius-string": ("ball_projection", {"radius": "2"}, "radius"),
    "center-true": ("ball_projection", {"center": [True, False]}, "center"),
    "offset-true": ("halfspace_projection", {"normal": [1.0, 0.0], "offset": True}, "offset"),
    "radius-nan": ("ball_projection", {"radius": float("nan")}, "radius"),
    "center-infinity": ("ball_projection", {"center": [float("inf"), 0.0]}, "center"),
    # finite vectors whose squared norm overflows
    "normal-overflow": ("halfspace_projection", {"normal": [1e308, 0.0]}, "normal"),
    "shift-overflow": ("affine_avg", {"matrix": [[0.5, 0.0], [0.0, 0.5]],
                                      "shift": [1e308, 0.0]}, "shift"),
    "center-overflow": ("ball_projection", {"center": [1e308, 0.0]}, "center"),
    "center-square-overflow": ("ball_projection", {"center": [1e200, 0.0]}, "center"),
    # vectors whose norm passes the double range
    "anchor-overflow": ("box_projection", {"lo": [-1.7e308, -1.7e308],
                                           "hi": [1.7e308, 1.7e308],
                                           "anchor": [1.7e308, 1.7e308]}, "anchor"),
    "fixed_point-param-overflow": ("identity", {"fixed_point": [1.7e308, 1.7e308]},
                                   "fixed_point"),
    "anchor-square-overflow": ("ball_projection", {"radius": 1.0, "anchor": [1e200, 0.0]},
                               "anchor"),
    # each squared norm is finite, that of anchor - center is not
    "anchor-center-overflow": ("ball_projection", {"center": [-1e154, 0.0],
                                                   "anchor": [1e154, 0.0]}, "anchor"),
    # each squared norm is finite, normal . anchor is not
    "anchor-normal-overflow": ("halfspace_projection", {"normal": [1e150, 0.0],
                                                        "anchor": [1e200, 0.0]}, "anchor"),
    # no anchor: the origin's projection, offset / ||normal||^2 * normal, overflows
    "offset-normal-overflow": ("halfspace_projection", {"normal": [1e-100, 0.0],
                                                        "offset": -1e300}, "offset"),
}

#: id -> (changed config sections, the command and its flags, text the error
#: message contains): a flag is read as the key it sets
FLAGS = {
    "horizon-0": ({}, ["run", "--horizon", "0"], "run.horizon"),
    "horizon-negative": ({}, ["run", "--horizon", "-5"], "run.horizon"),
    "verify-k_max-negative": ({}, ["verify", "--k-max", "-1"], "run.k_max"),
    "verify-k_max-negative-auto-horizon": ({"run": {"horizon": "auto", "k_max": 3}},
                                           ["verify", "--k-max", "-1"], "run.k_max"),
    "certify-k_max-negative": ({}, ["certify", "--k-max", "-2"], "run.k_max"),
    "out-empty": ({}, ["run", "--out", ""], "output.directory"),
}

#: schedule family -> (its params with one misspelt key, that key); the
#: anchor's key is misspelt in its base schedule
MISSPELT_PARAMS = {
    "example1": ({"lam": 0.5, "ofset": 1}, "ofset"),
    "example2": ({"lam": 0.5, "r_str": None}, "r_str"),
    "classical_km": ({"beta": 0.5, "bta": 0.5}, "bta"),
    "inexact_km": ({"beta": 0.5, "weight_divergence": INEXACT["weight_divergence"],
                    "perturbaton": INVERSE_SQUARE}, "perturbaton"),
    "anchor": ({"base": {"family": "example2", "params": {"lam": 0.5, "j": 3}},
                "u": [1.0, 0.0]}, "j"),
    "custom": (dict(CUSTOM, perturbaton=INVERSE_SQUARE), "perturbaton"),
}

#: the operator of the lp cases below
SHRINK = {"name": "coordinate_shrink", "params": {"factors": [0.5, 0.5]}}

#: id -> (changed config sections, command -> the exit codes it may give):
#: certificate arithmetic at the edges of the double range ends in a verdict
#: or a certificate overflow (exit 3), never in a traceback
CERTIFICATE_EDGES = {
    # ||u|| = 1e-17 is positive, so its integer bound is 1, not 0
    "anchor-tiny-u": ({"schedule": {"family": "anchor", "params": {
        "base": {"family": "example2", "params": {"lam": 0.5}}, "u": [1e-17, 0.0]}}},
        {"certify": (0,), "verify": (0, 5)}),
    # dist_bound*(k+1) passes the double range in the threshold's argument;
    # the auto horizon reaches it before the run
    "threshold-argument-overflow": ({
        "space": {"dim": 2, "norm": "lp", "p": 1.0000001}, "operator": SHRINK,
        "schedule": {"family": "anchor", "params": {
            "base": {"family": "example2", "params": {"lam": 0.5}}, "u": [0.5, 1.7e308]}},
        "certificate": {"formula": "general"}, "run": {"horizon": "auto", "k_max": 3}},
        {"certify": (3,), "verify": (3,)}),
    # the same instance at a fixed horizon: the audit and the premise check
    # meet its integer bounds past the double range before any certificate
    # value is computed, and the soundness check overflows
    "threshold-argument-overflow-fixed-horizon": ({
        "space": {"dim": 2, "norm": "lp", "p": 1.0000001}, "operator": SHRINK,
        "schedule": {"family": "anchor", "params": {
            "base": {"family": "example2", "params": {"lam": 0.5}}, "u": [0.5, 1.7e308]}},
        "certificate": {"formula": "general"}, "run": {"horizon": 2000, "k_max": 3}},
        {"run": (0,), "audit": (0,), "verify": (3,)}),
    # 2^p in the lp modulus passes the double range
    "lp-modulus-overflow": ({"space": {"dim": 2, "norm": "lp", "p": 1100.0},
                             "operator": SHRINK}, {"certify": (3,), "verify": (3,)}),
}
