"""The command line's exit-code contract under generated documents: every
document that the grammar below makes, in dimensions 1 to 8, through every
command, ends in an exit code of the contract with no exception and no
warning, and a run that reaches a verdict writes JSON that a strict parser
reads.

The numbers are the edges of the double range and of the unit interval, so
a document may be valid, refused as a config error, or overflow in its
certificate arithmetic or in its iteration; each is an exit code."""

import contextlib
import functools
import io
import json
import shutil
import time
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from km_rates import cli

EXITS = {cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_OVERFLOW, cli.EXIT_NUMERIC, cli.EXIT_VERIFY}
NUMBERS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, 1.0 - 1e-12, 1.0 + 1e-10, 1e-300, 5e-324,
           1e-160, 1e154, 1e155, 1e200, 1e300, -1e300, 1.7e308]
#: the CPU-time budget of the examples below, with the interpreter's start left out
BUDGET_S = 5.0
EXAMPLES = 300
DIMS = [1, 2, 3, 5, 8]

number = st.sampled_from(NUMBERS)
#: weights and shrink factors in the unit interval
in_unit = st.sampled_from([0.5, 1.0 - 1e-12, 1e-160, 1e-300, 5e-324])
#: a weight or a shrink factor: one in the unit interval as often as any
#: number, so that about half of them are valid
unit = st.one_of(in_unit, number)
natural = st.sampled_from([0, 1, 4, 12])
rate = st.one_of(st.builds(lambda n: {"const": n}, natural),
                 st.builds(lambda a, b: {"affine": {"slope": a, "intercept": b}}, natural,
                           natural))


def _vectors(dim: int):
    """A vector of the numbers, or of small ones as often, so that a
    document in dimension 8 is not refused for one of its entries alone."""
    return st.one_of(st.lists(st.sampled_from([0.0, 0.5, -0.25, 1.0]), min_size=dim,
                              max_size=dim),
                     st.lists(number, min_size=dim, max_size=dim))


def _matrices(dim: int):
    """A weight times a signed permutation, whose operator norm is the
    weight, in the unit interval half the time, or any matrix of the
    numbers."""
    def scaled_permutation(weight, order, signs):
        rows = [[0.0] * dim for _ in range(dim)]
        for i, (j, sign) in enumerate(zip(order, signs)):
            rows[i][j] = sign * weight
        return rows
    signs = st.lists(st.sampled_from([1.0, -1.0]), min_size=dim, max_size=dim)
    return st.one_of(
        *(st.builds(scaled_permutation, weight, st.permutations(range(dim)), signs)
          for weight in (in_unit, number)),
        st.lists(_vectors(dim), min_size=dim, max_size=dim))


@functools.cache
def grammar(dim: int):
    """(catalog entry -> its params, family -> its params) in ``dim``; the
    first two entries are valid on every p-norm."""
    vector = _vectors(dim)
    inverse_square = st.builds(lambda r, o: {"inverse_square": {"r_star": r, "offset": o}},
                               vector, st.sampled_from([1, 2]))
    operators = {
        "identity": st.one_of(st.just({}), st.builds(lambda v: {"fixed_point": v}, vector)),
        "coordinate_shrink": st.builds(lambda v: {"factors": v}, st.one_of(
            st.lists(in_unit, min_size=dim, max_size=dim),
            st.lists(unit, min_size=dim, max_size=dim))),
        "rotation": st.one_of(st.builds(lambda a: {"angle_deg": a}, number),
                              st.builds(lambda a: {"angle": a}, number)),
        "ball_projection": st.builds(lambda c, r: {"center": c, "radius": r}, vector, number),
        "halfspace_projection": st.builds(lambda v, o: {"normal": v, "offset": o}, vector,
                                          number),
        "box_projection": st.builds(lambda lo, hi: {"lo": lo, "hi": hi}, vector, vector),
        "affine_avg": st.builds(lambda m, s: {"matrix": m, "shift": s}, _matrices(dim),
                                st.one_of(st.just([0.0] * dim), vector)),
    }
    bases = {
        "example1": st.builds(lambda lam, r: {"lam": lam, "r_star": r}, unit,
                              st.one_of(st.none(), vector)),
        "example2": st.builds(lambda lam, r: {"lam": lam, "r_star": r}, unit,
                              st.one_of(st.none(), vector)),
        "classical_km": st.builds(lambda beta: {"beta": beta}, unit),
    }
    families = dict(bases, **{
        "inexact_km": st.builds(
            lambda beta, divergence, pert, modulus, bound: dict(
                {"beta": beta, "weight_divergence": divergence},
                **({} if pert is None else {"perturbation": pert, "perturbation_cauchy": modulus,
                                            "perturbation_sum_bound": bound})),
            unit, rate, st.one_of(st.none(), inverse_square), rate, natural),
        "anchor": st.sampled_from(sorted(bases)).flatmap(
            lambda base: st.builds(lambda params, u: {"base": {"family": base, "params": params},
                                                      "u": u}, bases[base], vector)),
        "custom": st.builds(
            lambda alpha, beta, pert, zero, defect, divergence, modulus, bounds: {
                "alpha": alpha, "beta": beta, "perturbation": pert, "defect_is_zero": zero,
                "defect_cauchy": defect, "weight_divergence": divergence,
                "perturbation_cauchy": modulus, "defect_sum_bound": bounds[0],
                "perturbation_sum_bound": bounds[1]},
            unit, unit, st.one_of(st.just({"zero": True}), inverse_square), st.booleans(),
            rate, rate, rate, st.tuples(natural, natural)),
    })
    return operators, families


@st.composite
def documents(draw, out: str) -> dict:
    """A run document over the grammar above, writing to ``out``."""
    dim = draw(st.sampled_from(DIMS))
    operators, families = grammar(dim)
    p = draw(st.sampled_from([2.0, 1.5, 3.0, 7.0, 1.0000001]))
    space = {"dim": dim, "norm": "euclidean"} if p == 2.0 else {"dim": dim, "norm": "lp", "p": p}
    name = draw(st.sampled_from(list(operators) if p == 2.0 else list(operators)[:2]))
    family = draw(st.sampled_from(sorted(families)))
    return {
        "space": space,
        "operator": {"name": name, "params": draw(operators[name]),
                     "fixed_point": draw(st.sampled_from(["default", "nearest"]))},
        "start": draw(_vectors(dim)),
        "schedule": {"family": family, "params": draw(families[family])},
        "certificate": {"formula": draw(st.sampled_from(["auto", "factored", "general"]))},
        "run": {"horizon": draw(st.sampled_from([1, 3, 300])),
                "k_max": draw(st.sampled_from([0, 3]))},
        "output": {"directory": out, "formats": ["csv", "json"]},
    }


def _refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_generated_documents_keep_the_exit_contract(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    started = time.process_time()

    @settings(max_examples=EXAMPLES, derandomize=True, deadline=None, database=None)
    @given(doc=documents(str(out)), command=st.sampled_from(["certify", "verify", "run",
                                                             "audit"]))
    def check(doc, command):
        shutil.rmtree(out, ignore_errors=True)
        config.write_text(json.dumps(doc))
        with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            warnings.simplefilter("error")
            code = cli.main([command, "--config", str(config)])
        assert code in EXITS
        if code in (cli.EXIT_OK, cli.EXIT_VERIFY):
            written = sorted(out.glob("*.json"))
            assert written, command
            for path in written:
                json.loads(path.read_text(), parse_constant=_refuse)

    check()
    # CPU time of this process, which a busy host does not lengthen
    assert time.process_time() - started < BUDGET_S
