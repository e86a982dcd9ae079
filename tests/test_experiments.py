import json
import math
import sys

import numpy as np
import pytest

from rotalign import (
    Decomposition,
    DegenerateZeroFieldError,
    DetectionStatus,
    DetectorConfig,
    LinearField,
    TrialSpec,
    detect,
    field_norms,
    oracle_detect,
    recompose,
    run_campaign,
    run_trial,
    total_rotate,
    wrap_angle,
)
from rotalign import registration
from rotalign.experiments import (
    _draw_field,
    _outcomes,
    _trial_draws,
    report_csv_header,
)
from rotalign.fields import UNIT_SQUARE, _entries, second_moment


def test_campaign_is_deterministic():
    spec = TrialSpec(trials=50, eps=0.01, seed=7)
    assert run_campaign(spec) == run_campaign(spec)


def test_single_trial_campaign_repeats():
    spec = TrialSpec(trials=1, eps=0.05, seed=123)
    r1 = run_campaign(spec)
    r2 = run_campaign(spec)
    assert r1.to_json() == r2.to_json()


# Reports of seeded campaigns, byte for byte: any change to the draw, the
# detector's arithmetic or the report format shows up here.  The max_iter=5
# pair caps trials in both parts of run_campaign: 564 of 2000 are still
# active at the cap (the array loop), 105 of 300 (the scalar tail).
GOLDEN_REPORTS = [
    (dict(trials=2000, eps=0.1, seed=42), """{
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
"""),
    (dict(trials=2000, eps=0.001, seed=42), """{
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
"""),
    (dict(trials=2000, eps=1e-05, seed=42), """{
  "eps": 1e-05,
  "trials": 2000,
  "avg_error": 1.5536415612239667e-05,
  "max_error": 0.00048333147772384555,
  "avg_iterations": 106.0265,
  "converged_fraction": 0.9985,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 3,
  "avg_error_all": 0.00030003509409541146,
  "max_error_all": 0.5662016703008499
}
"""),
    (dict(trials=2000, eps=0.001, seed=42, coefficient_space=True), """{
  "eps": 0.001,
  "trials": 2000,
  "avg_error": 0.002159639901256261,
  "max_error": 1.9503383500178266,
  "avg_iterations": 21.385,
  "converged_fraction": 1.0,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 0,
  "avg_error_all": 0.002159639901256261,
  "max_error_all": 1.9503383500178266
}
"""),
    (dict(trials=2000, eps=0.1, seed=42, max_iter=5), """{
  "eps": 0.1,
  "trials": 2000,
  "avg_error": 0.12801125336316804,
  "max_error": 1.8069112857731828,
  "avg_iterations": 3.2435,
  "converged_fraction": 0.718,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 564,
  "avg_error_all": 0.32662167137923387,
  "max_error_all": 3.631677983370642
}
"""),
    (dict(trials=300, eps=0.1, seed=42, max_iter=5), """{
  "eps": 0.1,
  "trials": 300,
  "avg_error": 0.1230143639902201,
  "max_error": 1.183492966776901,
  "avg_iterations": 3.243333333333333,
  "converged_fraction": 0.74,
  "seed": 42,
  "degenerate_trials": 0,
  "non_converged_trials": 78,
  "avg_error_all": 0.32693198274141366,
  "max_error_all": 2.9422706426846483
}
"""),
]


def _golden_id(spec: dict) -> str:
    """eps, then whatever differs from 2000 trials at seed 42."""
    extra = {k: v for k, v in spec.items() if k != "eps" and (k, v) not in
             (("trials", 2000), ("seed", 42))}
    return "-".join([repr(spec["eps"])] + [f"{k}={v}" for k, v in extra.items()])


@pytest.mark.parametrize("spec, expected", GOLDEN_REPORTS,
                         ids=[_golden_id(spec) for spec, _ in GOLDEN_REPORTS])
def test_campaign_report_is_pinned(spec, expected):
    assert run_campaign(TrialSpec(**spec)).to_json() == expected


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
    for changes in (dict(trials=0), dict(trials=2.5), dict(trials=2 ** 32 + 1),
                    dict(eps=-1.0), dict(eps=1e-10), dict(max_iter=0), dict(max_iter=2.5),
                    dict(seed=-1), dict(seed=1.5),
                    dict(coeff_bound=math.inf), dict(coeff_bound=math.nan),
                    dict(coeff_bound=-1.0), dict(coeff_bound=0.0), dict(coeff_bound=1e308),
                    dict(coeff_bound=8e307)):
        with pytest.raises(ValueError):
            TrialSpec(**{"trials": 10, "eps": 0.01, "seed": 1, **changes})


def test_spec_accepts_range_ends():
    TrialSpec(trials=1, eps=2e-9, seed=2 ** 70, coeff_bound=sys.float_info.max / 4,
              max_iter=np.int64(3))
    TrialSpec(trials=2 ** 32, eps=0.1, seed=np.uint64(7), coeff_bound=5e-324)


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 5])
@pytest.mark.parametrize("bound", [1.0, 1e-300, 1e300])
def test_trial_draws_match_default_rng(seed, bound):
    angle, coeffs = _trial_draws(seed, 300, bound)
    for i in (0, 1, 2, 77, 255, 256, 299):
        rng = np.random.default_rng([seed, i])
        assert angle[i] == math.pi - 2.0 * math.pi * rng.random()
        assert np.array_equal(coeffs[:, i], rng.uniform(-bound, bound, 4))


BULK_SPECS = [
    dict(trials=300, eps=0.1, seed=5),
    dict(trials=300, eps=1e-3, seed=6),
    dict(trials=300, eps=1e-5, seed=7),
    dict(trials=300, eps=1e-3, seed=8, coefficient_space=True),
    dict(trials=200, eps=1e-3, seed=9, coeff_bound=1e-300),
    dict(trials=200, eps=1e-3, seed=10, coeff_bound=1e300),
    dict(trials=300, eps=1e-3, seed=11, coeff_bound=5e-324),   # degenerate trials
    dict(trials=300, eps=1e-3, seed=12, max_iter=3),
    dict(trials=300, eps=4.0, seed=13),                         # no iteration at all
    # The largest bound TrialSpec accepts keeps every coordinate finite.
    dict(trials=200, eps=1e-3, seed=17, coeff_bound=sys.float_info.max / 4),
    dict(trials=200, eps=1e-3, seed=18, coeff_bound=sys.float_info.max / 4,
         coefficient_space=True),
]


def _assert_matches_run_trial(spec: TrialSpec):
    live, errors, iterations, capped = _outcomes(spec)
    live_index = np.flatnonzero(live).tolist()
    for i in range(spec.trials):
        ref = run_trial(np.random.default_rng([spec.seed, i]), spec.eps, spec.coeff_bound,
                        spec.max_iter, spec.coefficient_space)
        if ref.status is DetectionStatus.DEGENERATE_ZERO_FIELD:
            assert not live[i]
            continue
        k = live_index.index(i)
        assert repr(float(errors[k])) == repr(ref.error)
        assert iterations[k] == ref.iterations
        assert capped[k] == (ref.status is DetectionStatus.MAX_ITER_EXCEEDED)


@pytest.mark.parametrize("spec", BULK_SPECS,
                         ids=["-".join(f"{k}={v}" for k, v in spec.items() if k != "trials")
                              for spec in BULK_SPECS])
def test_bulk_trials_match_run_trial(spec):
    _assert_matches_run_trial(TrialSpec(**spec))


@pytest.mark.parametrize("handover", [0, 1, 50, 10 ** 9])
def test_bulk_trials_match_run_trial_at_any_handover(monkeypatch, handover):
    # 0 keeps every trial in the array loop, 10**9 runs each in detect's loop.
    monkeypatch.setattr(registration, "_HANDOVER", handover)
    _assert_matches_run_trial(TrialSpec(trials=200, eps=1e-4, seed=14))
    _assert_matches_run_trial(TrialSpec(trials=100, eps=1e-3, seed=15, max_iter=4))


@pytest.mark.parametrize("extra", [0, 1])
def test_bulk_trials_match_run_trial_at_the_handover(extra):
    # Exactly _HANDOVER trials hand over before the first pass; one more
    # runs the array loop first.
    trials = registration._HANDOVER + extra
    _assert_matches_run_trial(TrialSpec(trials=trials, eps=1e-3, seed=16))


def _branch_pairs() -> tuple:
    """(field, copy) entry arrays of crafted pairs, 40 of each kind.

    Random draws never reach the branch rule, so these pairs do:
    aligned pairs (perturb), pure saddles at 0.3 and at a quarter turn
    (halve), aligned pure saddles (perturb, then lock), pure invariant
    fields (perturb) and generic pairs (no branch).  Among them, every
    sixth place holds a pair that detect refuses: a zero field on either
    side, a pure saddle against a pure source, or a pure vortex against
    a pure saddle45, 10 of each.
    """
    rng = np.random.default_rng(2024)
    count = 40
    a, b = rng.uniform(-1.0, 1.0, (2, count))
    c, d = rng.uniform(-1.0, 1.0, (2, count))
    zero = np.zeros(count)
    kinds = [
        ((a, b, c, d), zero),                                            # aligned
        ((a, b, zero, zero), np.full(count, 0.3)),                       # halve
        ((a, b, zero, zero), np.where(a > 0, 1.0, -1.0) * math.pi / 2),  # halve
        ((a, b, zero, zero), zero),                                      # lock
        ((zero, zero, c, d), rng.uniform(-math.pi, math.pi, count)),     # invariant
        (tuple(rng.uniform(-1.0, 1.0, (4, count))), rng.uniform(-math.pi, math.pi, count)),
    ]
    field = tuple(np.concatenate(x) for x in zip(*(_entries(*coords) for coords, _ in kinds)))
    angle = np.concatenate([t for _, t in kinds])
    copy = tuple(np.array(x) for x in zip(*(
        total_rotate(LinearField(*entries), t).coefficients()
        for entries, t in zip(zip(*(x.tolist() for x in field)), angle.tolist()))))
    a, b, c, d, zero = (x[:10] for x in (a, b, c, d, zero))
    refused = [
        ((zero, zero, zero, zero), (a, b, c, d)),         # zero field
        ((a, b, c, d), (zero, zero, zero, zero)),         # zero pattern
        ((a, b, zero, zero), (zero, zero, c, zero)),      # saddle against source
        ((zero, zero, zero, d), (zero, b, zero, zero)),   # vortex against saddle45
    ]
    refused_field = [np.concatenate(x) for x in zip(*(_entries(*v) for v, _ in refused))]
    refused_copy = [np.concatenate(x) for x in zip(*(_entries(*u) for _, u in refused))]
    at = np.arange(0, len(angle), 6)
    return (tuple(np.insert(x, at, r) for x, r in zip(field, refused_field)),
            tuple(np.insert(x, at, r) for x, r in zip(copy, refused_copy)))


@pytest.mark.parametrize("handover", [0, 100, None])
@pytest.mark.parametrize("max_iter", [1, 2, 3, 4, 10000])
def test_detect_all_applies_the_branch_rule(monkeypatch, handover, max_iter):
    # The 120 perturb, lock and invariant pairs leave the array loop at
    # reading 1 and the 80 halve pairs at reading 2, to rerun from their
    # start.  0 keeps every other trial in the array loop; the default
    # hands the rest over after reading 1, where _iterate halves, and
    # 100 after reading 2.
    if handover is not None:
        monkeypatch.setattr(registration, "_HANDOVER", handover)
    field, copy = _branch_pairs()
    assert len(field[0]) > registration._HANDOVER
    eps = 1e-6
    live, applied, iterations, capped = registration._detect_all(
        field, copy, second_moment(UNIT_SQUARE), eps, max_iter)
    cfg = DetectorConfig(eps=eps, max_iter=max_iter)
    branches = set()
    k = 0
    for i, (v, u) in enumerate(zip(zip(*(x.tolist() for x in field)),
                                   zip(*(x.tolist() for x in copy)))):
        try:
            ref = detect(LinearField(*v), LinearField(*u), cfg)
        except DegenerateZeroFieldError:
            assert not live[i], i
            continue
        assert live[i], i
        branches.update(t.branch for t in ref.trace)
        assert repr(wrap_angle(-float(applied[k]))) == repr(ref.alpha), i
        assert iterations[k] == ref.iterations, i
        assert capped[k] == (ref.status is DetectionStatus.MAX_ITER_EXCEEDED), i
        k += 1
    assert k == len(applied) == np.count_nonzero(live) == len(live) - 40
    expected = {None, "perturb", "halve", "lock"} if max_iter >= 2 else {None, "perturb"}
    assert branches == expected


def test_numpy_cos_sin_match_math_bit_for_bit():
    # The campaign arrays turn by np.cos/np.sin where run_trial and detect
    # use math.cos/math.sin; the golden reports rest on the two agreeing.
    tiny = np.finfo(float).smallest_subnormal
    special = [0.0, -0.0, tiny, -tiny, 1e-310, -1e-310, math.pi / 2, -math.pi / 2,
               math.pi, -math.pi, 2 * math.pi, -np.nextafter(2 * math.pi, 0)]
    angles = np.concatenate([special, np.random.default_rng(7).uniform(
        -2 * math.pi, 2 * math.pi, 1_000_000)])
    listed = angles.tolist()
    for array_fn, float_fn in ((np.cos, math.cos), (np.sin, math.sin)):
        want = np.fromiter(map(float_fn, listed), dtype=float, count=len(listed))
        got = array_fn(angles)
        differ = np.flatnonzero(got.view(np.int64) != want.view(np.int64))
        assert not len(differ), (f"numpy's {array_fn.__name__} differs from math's on "
                                 f"{len(differ)} angles, first {angles[differ[0]]!r}")
