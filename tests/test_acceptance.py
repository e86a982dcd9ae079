"""Acceptance suite: each criterion runs at its stated tolerance and
prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Criteria 5 and 6 are asserted exactly as stated even though parts of
them are not attainable by this algorithm family; their failure output
carries the measured numbers (see tests and README for the analysis:
the stopping residual grows like eps over the saddle/invariant energy
ratio, and near-pure saddles oscillate for ~1/ratio iterations, so
worst-case angle agreement and the iteration average at loose eps are
dominated by near-degenerate random draws).
"""

import math

import numpy as np

from rotalign import (
    Decomposition,
    DetectionStatus,
    DetectorConfig,
    LinearField,
    Multivector2,
    TrialSpec,
    UNIT_DISK,
    correlate_linear,
    correlate_sampled,
    decompose,
    detect,
    double_winding,
    field_norms,
    gp,
    oracle_detect,
    outer_rotate,
    phi_of_alpha,
    product_at,
    recompose,
    reverse,
    rotor,
    run_campaign,
    saddle,
    sample,
    total_rotate,
)


def _report(number: int, name: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status}")
    for line in failures[:10]:
        print(f"    {line}")
    assert not failures, f"criterion {number} ({name}): " + "; ".join(failures[:10])


def test_criterion_1_rotated_copy_correlation_identity():
    rng = np.random.default_rng(1001)
    failures = []
    for i in range(10000):
        v = LinearField(*rng.uniform(-1, 1, 4))
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        n1, n2 = field_norms(v)
        want_s = math.cos(2 * alpha) * n1 + n2
        want_b = -math.sin(2 * alpha) * n1
        got = correlate_linear(total_rotate(v, alpha), v).value
        scale = max(abs(want_s), abs(want_b), 1e-300)
        if abs(got.s - want_s) > 1e-10 * scale or abs(got.b - want_b) > 1e-10 * scale:
            failures.append(f"case {i}: got ({got.s}, {got.b}) "
                            f"want ({want_s}, {want_b})")
    _report(1, "closed-form correlation identity, 1e4 cases at rel 1e-10", failures)


def test_criterion_2_backend_equivalence():
    rng = np.random.default_rng(1002)
    failures = []
    for i in range(100):
        u = LinearField(*rng.uniform(-1, 1, 4))
        v = LinearField(*rng.uniform(-1, 1, 4))
        exact = correlate_linear(u, v)
        got = correlate_sampled(sample(u, 512), sample(v, 512)).value
        delta = math.hypot(got.s - exact.value.s, got.b - exact.value.b)
        if delta > 5e-5 * exact.magnitude:
            failures.append(f"pair {i}: |delta|={delta:.3e} vs "
                            f"5e-5*magnitude={5e-5 * exact.magnitude:.3e}")
    for i in range(10):
        u = LinearField(*rng.uniform(-1, 1, 4))
        v = LinearField(*rng.uniform(-1, 1, 4))
        exact = correlate_linear(u, v).value

        def err(n):
            got = correlate_sampled(sample(u, n), sample(v, n)).value
            return math.hypot(got.s - exact.s, got.b - exact.b)

        e128, e256 = err(128), err(256)
        if e128 > 1e-10 and not 3.0 <= e128 / e256 <= 5.0:
            failures.append(f"refinement pair {i}: ratio {e128 / e256:.2f} not ~4")
    _report(2, "midpoint quadrature matches closed form, O(1/n^2)", failures)


def test_criterion_3_point_values():
    failures = []

    mix = LinearField(3.0, 0.0, 0.0, 1.0)
    got = product_at(total_rotate(mix, math.pi / 4), mix, (-1.0, 1.0))
    if got != Multivector2(4.0, 0.0, 0.0, 2.0):
        failures.append(f"pointwise product: got {got}, want 4 + 2 e12 exactly")

    base = sample(double_winding(0.0), 1024, UNIT_DISK)
    for alpha in (0.3, -0.9):
        copy = sample(double_winding(alpha), 1024, UNIT_DISK)
        cor = correlate_sampled(copy, base).value
        if (abs(cor.s - math.pi * math.cos(alpha)) > 2e-2
                or abs(cor.b - math.pi * math.sin(alpha)) > 2e-2):
            failures.append(f"double winding alpha={alpha}: got ({cor.s}, {cor.b})")

    rng = np.random.default_rng(1003)
    for i in range(1000):
        v = LinearField(*rng.uniform(-1, 1, 4))
        alpha = rng.uniform(-math.pi, math.pi)
        norm = sum(field_norms(v))
        got = correlate_linear(outer_rotate(v, alpha), v).value
        scale = max(norm, 1e-300)
        if (abs(got.s - norm * math.cos(alpha)) > 1e-10 * scale
                or abs(got.b + norm * math.sin(alpha)) > 1e-10 * scale):
            failures.append(f"outer identity case {i}")
    _report(3, "pointwise product, double-winding flow, outer identity", failures)


def test_criterion_4_argument_band():
    rng = np.random.default_rng(1004)
    failures = []
    fields = []
    while len(fields) < 100:
        f = LinearField(*rng.uniform(-1, 1, 4))
        n1, n2 = field_norms(f)
        if n1 > 0 and n2 > 0:
            fields.append(f)
    alphas = np.linspace(-math.pi / 2 + 1e-4, math.pi / 2 - 1e-4, 100)
    for fi, v in enumerate(fields):
        for alpha in alphas:
            phi = phi_of_alpha(v, float(alpha))
            sign_ok = phi == 0.0 or (phi < 0) == (alpha > 0)
            band_ok = abs(phi) <= 2.0 * abs(alpha)
            if not (sign_ok and band_ok):
                failures.append(f"field {fi} alpha={alpha}: phi={phi}")
    _report(4, "argument opposes the offset and stays within twice it", failures)


def test_criterion_5_convergence_and_correctness():
    rng = np.random.default_rng(1005)
    eps = 1e-5
    cfg = DetectorConfig(eps=eps, max_iter=10000)
    failures = []
    stuck = []
    worst = (0.0, None)
    violations = 0
    excluded = 0
    for i in range(10000):
        v = LinearField(*rng.uniform(-1, 1, 4))
        n1, n2 = field_norms(v)
        ratio = min(n1, n2) / max(n1, n2) if max(n1, n2) > 0 else 0.0
        theta = math.pi - 2 * math.pi * rng.random()
        u = total_rotate(v, theta)
        result = detect(v, u, cfg)
        if ratio < 1e-6:
            excluded += 1
            continue
        if result.status is not DetectionStatus.CONVERGED:
            stuck.append(ratio)
            continue
        d = abs(result.alpha - oracle_detect(v, u)) % math.pi
        d = min(d, math.pi - d)
        if d > 1e-4:
            violations += 1
            if d > worst[0]:
                worst = (d, ratio)
    if stuck:
        failures.append(
            f"{len(stuck)} of 10000 runs hit the cap with energy ratio >= 1e-6 "
            f"(ratios {['%.1e' % r for r in sorted(stuck)[:5]]}); the stated "
            f"exclusion threshold keeps them in scope")
    if violations:
        failures.append(
            f"{violations} converged runs disagree with the oracle beyond 1e-4 "
            f"(worst {worst[0]:.2e} at energy ratio {worst[1]:.2e}); the final "
            f"residual scales like eps/(2*ratio), so the bound needs "
            f"ratio >= ~5e-2, not the stated 1e-6")
    print(f"\n    [criterion 5 detail] excluded(ratio<1e-6)={excluded}, "
          f"capped={len(stuck)}, agreement violations={violations}/10000")
    _report(5, "1e4 detections converge and agree with the oracle", failures)


def test_criterion_6_campaign_statistics():
    bands = {
        0.1: ((0.03, 0.3), (2.0, 10.0)),
        0.001: ((5e-4, 1e-2), (20.0, 90.0)),
        0.00001: ((5e-6, 1e-4), (60.0, 250.0)),
    }
    failures = []
    reports = {}
    for eps, ((err_lo, err_hi), (it_lo, it_hi)) in bands.items():
        report = run_campaign(TrialSpec(trials=100000, eps=eps, seed=42))
        reports[eps] = report
        print(f"\n    [criterion 6 detail] eps={eps:g}: avg_error={report.avg_error:.5g} "
              f"avg_iterations={report.avg_iterations:.2f} "
              f"converged={report.converged_fraction:.5f} "
              f"capped={report.non_converged_trials}")
        if not err_lo <= report.avg_error <= err_hi:
            failures.append(f"eps={eps:g}: avg_error {report.avg_error:.4g} "
                            f"outside [{err_lo:g}, {err_hi:g}]")
        if not it_lo <= report.avg_iterations <= it_hi:
            failures.append(
                f"eps={eps:g}: avg_iterations {report.avg_iterations:.2f} outside "
                f"[{it_lo:g}, {it_hi:g}] (near-pure saddles oscillate for ~1/ratio "
                f"iterations and the loop's equality tolerance 1e-9 cannot cut them)")
    if not (reports[0.1].avg_error > reports[0.001].avg_error > reports[0.00001].avg_error):
        failures.append("avg_error not monotone in eps")
    if not (reports[0.1].avg_iterations < reports[0.001].avg_iterations
            < reports[0.00001].avg_iterations):
        failures.append("avg_iterations not monotone in eps")
    _report(6, "campaign error/iteration bands at 1e5 trials", failures)


def test_criterion_7_exception_branch_coverage():
    eps = 1e-6
    failures = []

    aligned = recompose(Decomposition(0.8, -0.3, 0.5, 0.9))
    result = detect(aligned, aligned, DetectorConfig(eps=eps))
    branches = [t.branch for t in result.trace if t.branch]
    if branches != ["perturb"]:
        failures.append(f"aligned input: branches {branches}, want exactly one kick")

    result = detect(saddle(), total_rotate(saddle(), 0.4), DetectorConfig(eps=eps))
    branches = [t.branch for t in result.trace if t.branch]
    if branches != ["halve"]:
        failures.append(f"pure saddle 0.4: branches {branches}")
    if abs(result.alpha - 0.4) > 10 * eps:
        failures.append(f"pure saddle 0.4: alpha {result.alpha} not within 10*eps")

    expected = {0.0: ["perturb", "lock"],
                math.pi / 2: ["halve"], -math.pi / 2: ["halve"]}
    for theta, want in expected.items():
        result = detect(saddle(), total_rotate(saddle(), theta),
                        DetectorConfig(eps=eps, max_iter=500))
        branches = [t.branch for t in result.trace if t.branch]
        if branches != want:
            failures.append(f"pure saddle theta={theta}: branches {branches}, want {want}")
    _report(7, "each special-case branch fires exactly once per scenario", failures)


def test_criterion_8_algebra_law_suite():
    rng = np.random.default_rng(1008)
    failures = []

    for i in range(1000):
        m1 = Multivector2(*rng.uniform(-1, 1, 4))
        m2 = Multivector2(*rng.uniform(-1, 1, 4))
        m3 = Multivector2(*rng.uniform(-1, 1, 4))
        if not gp(gp(m1, m2), m3).isclose(gp(m1, gp(m2, m3)), rel=1e-12, abs_=1e-13):
            failures.append(f"associativity case {i}")
        if not reverse(gp(m1, m2)).isclose(gp(reverse(m2), reverse(m1)), rel=1e-12):
            failures.append(f"reversion anti-automorphism case {i}")

    for i in range(1000):
        a, b = rng.uniform(-math.pi, math.pi, 2)
        lhs = gp(rotor(a).as_multivector(), rotor(b).as_multivector())
        rhs = rotor(a + b).as_multivector()
        if not lhs.isclose(rhs, rel=1e-12, abs_=1e-12):
            failures.append(f"rotor additivity case {i}")

    for i in range(1000):
        f = LinearField(*rng.uniform(-1, 1, 4))
        g = recompose(decompose(f), f.domain)
        if any(abs(x - y) > 1e-12 for x, y in zip(g.coefficients(), f.coefficients())):
            failures.append(f"field round trip case {i}")
        d = Decomposition(*rng.uniform(-1, 1, 4))
        d2 = decompose(recompose(d))
        if max(abs(d2.a - d.a), abs(d2.b - d.b), abs(d2.c - d.c), abs(d2.d - d.d)) > 1e-12:
            failures.append(f"coordinate round trip case {i}")
    _report(8, "algebra laws at 1e-12 over 1000 cases each", failures)
