"""Acceptance suite: one test per release criterion.

Each test prints a pass/fail line with its measured runtime; run with
``pytest -s tests/test_acceptance.py`` to see them.  The runtime budgets are
part of the criteria and are asserted.
"""

import math
import time

import numpy as np

import km_rates as km
from km_rates.certificates import InstanceConstants
from km_rates.moduli import UcModulus, check_series_cauchy_modulus

from conftest import (
    example1_certificate,
    example1_oracle,
    example2_oracle,
    example2_ball_config,
    rotation_instance,
    sample_admissible_triples,
)
import lemmas

HILBERT = km.hilbert_modulus()


def _stamp(criterion, ok, elapsed, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion} "
          f"({elapsed:.2f}s): {detail}")
    assert ok, detail


def test_criterion_1_hilbert_closed_form_exact():
    """Double-precision factored thresholds equal the integer closed form."""
    t0 = time.perf_counter()
    mismatches = 0
    for b in (1, 2, 3):
        for d in range(4):
            for r in range(4):
                c = InstanceConstants(b, d, r)
                float_path = km.weight_threshold_factored(c, HILBERT)
                num = c.threshold_numerator
                m0 = c.dist_bound
                for k in range(1001):
                    if float_path(k) != 4 * m0 * num * (k + 1) ** 2:
                        mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 1.0
    _stamp(1, ok, elapsed,
           f"48 constant combinations x 1001 values, {mismatches} mismatches")


def test_criterion_2_constant_weight_pipeline_consistency():
    """Generic composition reproduces the paper's constant-weight closed form
    exactly."""
    t0 = time.perf_counter()
    mismatches = 0
    for b in (1, 2, 3):
        for c in (0, 1, 2):
            cert = example1_certificate(b, c)
            residual, step = example1_oracle(cert.threshold, 4, c)
            for k in range(101):
                if cert.residual_rate(k) != residual(k):
                    mismatches += 1
                if cert.step_rate(k) != step(k):
                    mismatches += 1
    base = example1_certificate(1, 0)
    pinned = (base.residual_rate(0) == 132 and base.step_rate(0) == 516
              and all(base.residual_rate(k) == 128 * (k + 1) ** 2 + 4
                      for k in range(101)))
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and pinned and elapsed < 1.0
    _stamp(2, ok, elapsed,
           f"9 instances x 101 values, {mismatches} mismatches, pinned values ok={pinned}")


def test_criterion_3_rotation_rate_soundness():
    """Quarter-turn rotation under constant averaging: certified rates hold."""
    t0 = time.perf_counter()
    space, op, start, schedule, constants, cert = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 35000)
    residual = km.check_rate_soundness(traj, cert.residual_rate, "res_T", 15)
    step = km.check_rate_soundness(traj, cert.step_rate, "res_step", 15)
    efi = km.empirical_first_index(traj, "res_T", 0)
    half_sqrt2 = math.sqrt(2) / 2
    decay_ok = all(
        abs(traj.res_T[n] - math.sqrt(2) * half_sqrt2**n) <= 1e-9
        for n in range(0, 60)
    )
    elapsed = time.perf_counter() - t0
    ok = (residual.passed and step.passed and residual.checked == 16
          and step.checked >= 8 and efi == 1 and decay_ok and elapsed < 5.0)
    _stamp(3, ok, elapsed,
           f"res_T checked={residual.checked} res_step checked={step.checked} "
           f"first_index(0)={efi}")


def test_criterion_4_shrinking_weight_ball_soundness():
    """Ball projection in R^3 under the shrinking-weight family, auto horizon;
    the certificate is the paper's closed form."""
    t0 = time.perf_counter()
    cfg = km.RunConfig.from_dict(example2_ball_config())
    instance = km.assemble(cfg)
    cert = instance.certificate
    assert cert.residual_rate(0) == 1291  # pins b = 1 via the nearest fixed point
    requested = [cert.residual_rate(k) for k in range(6)]
    requested += [cert.step_rate(k) for k in range(6)]
    horizon = km.auto_horizon(requested)
    traj = km.iterate(instance.space, instance.operator, instance.start,
                      instance.schedule, horizon)
    audit = km.audit_inequalities(traj, instance.constants)
    residual = km.check_rate_soundness(traj, cert.residual_rate, "res_T", 5)
    step = km.check_rate_soundness(traj, cert.step_rate, "res_step", 5)
    closed_residual, closed_step = example2_oracle(cert.threshold, 4, 1, 0)
    closed_form = all(cert.residual_rate(k) == closed_residual(k)
                      and cert.step_rate(k) == closed_step(k) for k in range(6))
    liminf = km.check_liminf_contract(traj, cert.liminf_modulus, 5, 8)
    elapsed = time.perf_counter() - t0
    ok = (audit.passed and residual.passed and step.passed
          and closed_form and liminf.passed
          and residual.checked == 6 and elapsed < 10.0)
    _stamp(4, ok, elapsed,
           f"horizon={horizon} res_T checked={residual.checked} "
           f"res_step checked={step.checked} liminf checked={liminf.checked} "
           f"closed form ok={closed_form}")


def test_criterion_5_inequality_audit(rotation_traj_35k, example2_ball_run):
    """Zero audit violations on every instance; the corrupted trajectory
    reports exactly one anchor-bound violation at the corrupted index."""
    t0 = time.perf_counter()
    rot_traj, rot_points, rot_constants = rotation_traj_35k
    ex2_instance, ex2_traj = example2_ball_run

    clean = []
    clean.append(km.audit_inequalities(rot_traj, rot_constants).passed)
    clean.append(km.audit_inequalities(ex2_traj, ex2_instance.constants).passed)

    space = km.Space(dim=2)
    identity = km.make_operator("identity", space)
    schedule = km.make_classical_km(0.5)
    id_traj = km.iterate(space, identity, [0.0, 0.0], schedule, 2000)
    clean.append(km.audit_inequalities(
        id_traj, km.instance_constants([0.0, 0.0], identity.fixed_point, schedule,
                                       norm=space.norm)).passed)

    ball = km.make_operator("ball_projection", space,
                            {"center": [0.0, 0.0], "radius": 1.0})
    ball_traj = km.iterate(space, ball, [2.0, 0.0], schedule, 2000)
    clean.append(km.audit_inequalities(
        ball_traj, km.instance_constants([2.0, 0.0], ball.fixed_point, schedule,
                                         norm=space.norm)).passed)

    rot_space, rot_op = rotation_instance()[:2]
    corrupted = lemmas.corrupt_point(rot_space, rot_op, rot_traj, rot_points, 50,
                                     magnitude=1.0)
    bad_audit = km.audit_inequalities(corrupted, rot_constants)
    anchor = bad_audit.checks["anchor_bound"]
    control_ok = anchor.count == 1 and anchor.first_violations[0].index == 50

    elapsed = time.perf_counter() - t0
    ok = all(clean) and control_ok
    _stamp(5, ok, elapsed,
           f"clean audits={sum(clean)}/4, corrupted control: "
           f"{anchor.count} anchor violation(s) at "
           f"{[v.index for v in anchor.first_violations]}")


def test_criterion_6_moduli_contracts():
    """Series moduli verified with analytic tails and brute force."""
    t0 = time.perf_counter()
    problems = []

    # inverse-square series moduli, both the plain and the shifted one
    for scale, offset in ((1.0, 1), (2.5, 2)):
        summand = lambda n, s=scale, o=offset: s / (n + o) ** 2
        tail = lambda m, s=scale, o=offset: s / (m + o)
        for modulus in (km.inverse_square_modulus(scale, offset),
                        lemmas.shifted_inverse_square_modulus(scale, offset)):
            report = check_series_cauchy_modulus(summand(np.arange(4001)), modulus, k_max=100,
                                                 tail_bound=tail)
            if not report.passed:
                problems.append(f"inverse-square ({scale},{offset})")

    # combined moduli, brute force over p <= 1e4 on two synthetic series
    p_max = 10**4
    for s, t, o2 in ((1, 1, 1), (2, 3, 2)):
        b1 = km.inverse_square_modulus(1.0, 1)
        b2 = km.inverse_square_modulus(1.0, o2)
        combined = km.combine_cauchy_moduli(b1, b2, s, t)
        n_top = combined(50) + 200
        idx = np.arange(n_top + p_max + 1, dtype=float)
        terms = s / (idx + 1) ** 2 + t / (idx + o2) ** 2
        sums = np.concatenate([[0.0], np.cumsum(terms)])
        gaps = sums[p_max:] - sums[:-p_max]  # S_{n+p_max} - S_n
        for k in range(51):
            n0 = combined(k)
            if float(np.max(gaps[n0:n_top + 1])) > 1.0 / (k + 1) + 1e-10:
                problems.append(f"combined modulus fails at k={k} (s={s}, t={t})")
                break

    # shrinking-weight divergence rate over the full stated window
    ex2 = km.make_example2(0.5, J=2)
    window = max(map(ex2.weight_divergence, range(2001)))
    div = km.check_divergence_rate(lemmas.coupling_values(ex2, window), ex2.weight_divergence,
                                   2000)
    if not div.passed:
        problems.append("shrinking-weight divergence rate")

    # every constructed divergence rate dominates the identity
    for schedule in (km.make_example1(0.5), km.make_example1(0.3),
                     km.make_example2(0.5, J=2), km.make_classical_km(0.5),
                     km.make_classical_km(0.25)):
        sigma = schedule.weight_divergence
        if any(sigma(n) < n for n in range(1001)):
            problems.append(f"divergence growth for {sigma.description}")

    elapsed = time.perf_counter() - t0
    ok = not problems and elapsed < 5.0
    _stamp(6, ok, elapsed, f"problems={problems or 'none'}")


def test_criterion_7_uc_transfer_property():
    """The Euclidean modulus passes 1e4 seeded admissible triples; an inflated
    modulus fails on the same samples (the check has power)."""
    t0 = time.perf_counter()
    triples = sample_admissible_triples(10**4, seed=20240501)
    norm = km.Space(dim=3).norm
    failures_good = sum(
        not lemmas.check_uc_transfer(HILBERT, a, x, y, r, eps, lam, norm)
        for a, x, y, r, eps, lam in triples
    )
    inflated = UcModulus(eta=lambda e: e * e / 2.0, name="inflated")
    failures_bad = sum(
        not lemmas.check_uc_transfer(inflated, a, x, y, r, eps, lam, norm)
        for a, x, y, r, eps, lam in triples
    )
    elapsed = time.perf_counter() - t0
    ok = failures_good == 0 and failures_bad >= 1
    _stamp(7, ok, elapsed,
           f"sound modulus failures={failures_good}, "
           f"inflated modulus failures={failures_bad}")


def test_criterion_8_liminf_contract_long_horizon():
    """Dip-window modulus holds on the rotation trajectory over 1e5 steps."""
    t0 = time.perf_counter()
    space, op, start, schedule, constants, cert = rotation_instance()
    traj = km.iterate(space, op, start, schedule, 10**5)
    report = km.check_liminf_contract(traj, cert.liminf_modulus, 8, 8)
    elapsed = time.perf_counter() - t0
    ok = report.passed and report.checked == 81
    _stamp(8, ok, elapsed, f"cells checked={report.checked}")
