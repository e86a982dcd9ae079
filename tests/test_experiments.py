import json
import math

import numpy as np
import pytest

from rotalign import (
    Decomposition,
    DetectionStatus,
    DetectorConfig,
    TrialSpec,
    detect,
    field_norms,
    oracle_detect,
    recompose,
    run_campaign,
    run_trial,
    total_rotate,
)
from rotalign.experiments import report_csv_header


def test_campaign_is_deterministic():
    spec = TrialSpec(trials=50, eps=0.01, seed=7)
    assert run_campaign(spec) == run_campaign(spec)


def test_single_trial_campaign_repeats():
    spec = TrialSpec(trials=1, eps=0.05, seed=123)
    r1 = run_campaign(spec)
    r2 = run_campaign(spec)
    assert r1.to_json() == r2.to_json()


# Reports of the seeded campaigns, byte for byte: any change to the draw,
# the detector's arithmetic or the report format shows up here.
GOLDEN_REPORTS = {
    0.1: """{
  "eps": 0.1,
  "trials": 2000,
  "avg_error": 0.1161638632939933,
  "max_error": 1.8069112857731828,
  "avg_iterations": 23.7735,
  "converged_fraction": 0.9995,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 1,
  "avg_error_all": 0.11638888219749671,
  "max_error_all": 1.8069112857731828
}
""",
    0.001: """{
  "eps": 0.001,
  "trials": 2000,
  "avg_error": 0.002830944279747879,
  "max_error": 1.3875240314252504,
  "avg_iterations": 61.391,
  "converged_fraction": 0.999,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 2,
  "avg_error_all": 0.003112472318989269,
  "max_error_all": 1.3875240314252504
}
""",
}


@pytest.mark.parametrize("eps", sorted(GOLDEN_REPORTS))
def test_campaign_report_is_pinned(eps):
    report = run_campaign(TrialSpec(trials=2000, eps=eps, seed=42))
    assert report.to_json() == GOLDEN_REPORTS[eps]


def test_run_trial_reports_outcome_shape():
    rng = np.random.default_rng(9)
    outcome = run_trial(rng, eps=0.01)
    assert outcome.iterations >= 1
    assert outcome.status in (DetectionStatus.CONVERGED, DetectionStatus.MAX_ITER_EXCEEDED)
    assert outcome.error >= 0.0


def test_forced_pure_saddle_trial():
    # the halving branch recovers the offset to well under the error budget
    eps = 1e-4
    v = recompose(Decomposition(0.9, -0.3, 0.0, 0.0))
    theta = 0.4
    u = total_rotate(v, theta)
    result = detect(v, u, DetectorConfig(eps=eps))
    assert result.converged()
    recovered = total_rotate(u, -result.alpha)
    error = math.sqrt(sum((a - b) ** 2 for a, b in
                          zip(recovered.coefficients(), v.coefficients())))
    assert error <= 1e-3
    assert abs(oracle_detect(v, u) - result.alpha) % math.pi <= 1e-6


def test_forced_aligned_trial():
    # already aligned: the kick is applied and then fully unwound
    eps = 1e-4
    v = recompose(Decomposition(0.8, 0.1, -0.6, 0.5))
    result = detect(v, v, DetectorConfig(eps=eps))
    assert result.converged()
    recovered = total_rotate(v, -result.alpha)
    error = math.sqrt(sum((a - b) ** 2 for a, b in
                          zip(recovered.coefficients(), v.coefficients())))
    assert error <= 1e-2


def test_error_decreases_and_iterations_increase_with_accuracy():
    reports = {eps: run_campaign(TrialSpec(trials=4000, eps=eps, seed=42))
               for eps in (0.1, 0.001, 0.00001)}
    assert reports[0.1].avg_error > reports[0.001].avg_error > reports[0.00001].avg_error
    assert (reports[0.1].avg_iterations < reports[0.001].avg_iterations
            < reports[0.00001].avg_iterations)
    # iteration growth is far below the 1e4x growth of 1/eps across these
    # campaigns, i.e. sublinear in the required accuracy
    growth = reports[0.00001].avg_iterations / reports[0.1].avg_iterations
    assert growth < 100.0


def test_capped_trials_have_extreme_energy_ratio():
    # runs that hit the iteration cap come from near-degenerate draws
    from rotalign.experiments import _draw_field

    spec = TrialSpec(trials=4000, eps=0.001, seed=42)
    capped = 0
    for index in range(spec.trials):
        outcome = run_trial(np.random.default_rng([spec.seed, index]), eps=spec.eps)
        if outcome.status is DetectionStatus.MAX_ITER_EXCEEDED:
            capped += 1
            _, field = _draw_field(np.random.default_rng([spec.seed, index]), 1.0, False)
            n1, n2 = field_norms(field)
            assert min(n1, n2) < 1e-2 * max(n1, n2)
    assert capped < spec.trials // 100


def test_coefficient_space_draws_supported():
    report = run_campaign(TrialSpec(trials=500, eps=0.01, seed=3,
                                    coefficient_space=True))
    assert report.converged_fraction > 0.9
    assert report.avg_error < 0.1


def test_report_serialization():
    report = run_campaign(TrialSpec(trials=20, eps=0.05, seed=11))
    payload = json.loads(report.to_json())
    for key in ("eps", "trials", "avg_error", "max_error", "avg_iterations",
                "converged_fraction", "seed"):
        assert key in payload
    row = report.csv_row()
    assert len(row) == len(report_csv_header())
    assert float(row[0]) == 0.05


def test_report_invariants():
    report = run_campaign(TrialSpec(trials=300, eps=0.01, seed=19))
    assert report.max_error >= report.avg_error >= 0.0
    assert 0.0 <= report.converged_fraction <= 1.0
    assert report.degenerate_trials == 0


def test_spec_validation():
    with pytest.raises(ValueError):
        TrialSpec(trials=0, eps=0.01, seed=1)
    with pytest.raises(ValueError):
        TrialSpec(trials=10, eps=-1.0, seed=1)
