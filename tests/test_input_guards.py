"""Input guards of the library: each call below is refused, with its
exception type and a fragment of its message."""

import pytest

import km_rates as km
from km_rates.config import ConfigError
from km_rates.moduli import PreconditionViolation, RateFn, RateKind, UcModulus

from conftest import rotation_instance

DIVERGENCE = RateFn.affine(1, 0, RateKind.RATE_OF_DIVERGENCE)
CAUCHY = RateFn.constant(0, RateKind.CAUCHY_MODULUS)
UNFACTORED = UcModulus(eta=lambda e: e * e / 8.0)


def _unknown_quantity():
    space, op, start, schedule, _, _ = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 5)
    return km.check_rate_soundness(traj, [0], "res_x")


def _unencodable_params():
    doc = {"space": {"dim": 2, "norm": "euclidean"},
           "operator": {"name": "rotation", "params": {"angle_deg": {1, 2}}},
           "start": [1.0, 0.0],
           "schedule": {"family": "classical_km", "params": {"beta": 0.5}}}
    return km.RunConfig.from_dict(doc)


@pytest.mark.parametrize("call, error, fragment", [
    (lambda: km.hilbert_modulus().eval(0.0), PreconditionViolation, "must lie in (0, 2]"),
    (lambda: km.hilbert_modulus().eval(2.5), PreconditionViolation, "must lie in (0, 2]"),
    (lambda: km.hilbert_modulus().eval_tilde(0.0), PreconditionViolation, "must lie in (0, 2]"),
    (lambda: km.hilbert_modulus().eval_tilde(2.5), PreconditionViolation, "must lie in (0, 2]"),
    (lambda: UNFACTORED.eval_tilde(1.0), ValueError, "carries no factorization"),
    (lambda: km.lp_modulus(1.0), ValueError, "needs p > 1"),
    (lambda: km.combine_cauchy_moduli(DIVERGENCE, CAUCHY, 1, 1), ValueError,
     "expected Cauchy moduli"),
    (lambda: km.rate_from_liminf(CAUCHY, DIVERGENCE), ValueError, "expected a Cauchy modulus"),
    (lambda: km.check_series_cauchy_modulus([0.0, 0.0], DIVERGENCE, 1), ValueError,
     "expected a Cauchy modulus"),
    (lambda: km.inverse_square_modulus(-1.0, 1), ValueError, "must be nonnegative"),
    (lambda: km.inverse_square_modulus(1.0, 0), ValueError, "must be a positive integer"),
    (lambda: km.check_series_cauchy_modulus([0.5, -0.1], CAUCHY, 1), ValueError,
     "summands must be nonnegative"),
    (lambda: km.make_inexact_km(0.5, CAUCHY), ValueError, "needs a rate of divergence"),
    (_unknown_quantity, ValueError, "unknown quantity 'res_x'"),
    (_unencodable_params, ConfigError, "parameters are not JSON-serializable"),
], ids=["eval-0", "eval-2.5", "eval_tilde-0", "eval_tilde-2.5", "eval_tilde-unfactored",
        "lp_modulus-1", "combine-divergence", "rate_from_liminf-divergence",
        "series-check-divergence", "inverse-square-scale", "inverse-square-offset",
        "series-check-negative-summand", "inexact-km-cauchy", "soundness-unknown-quantity",
        "config-unencodable-params"])
def test_input_guard_raises(call, error, fragment):
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)
