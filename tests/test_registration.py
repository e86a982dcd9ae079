import gc
import hashlib
import math
import pickle
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rotalign import (
    Decomposition,
    DegenerateZeroFieldError,
    DetectionStatus,
    DetectorConfig,
    DomainMismatchError,
    LinearField,
    SampledField,
    SymmetricDomain,
    UNIT_DISK,
    correlate_linear,
    detect,
    detect_known_pattern,
    detect_sampled,
    double_winding,
    field_norms,
    oracle_detect,
    phi_of_alpha,
    recompose,
    saddle,
    sample,
    source,
    spinor_arg,
    total_rotate,
    vortex,
    wrap_angle,
)
from rotalign import TraceEntry, registration
from rotalign.correlation import correlate_sampled, second_moment
from rotalign.fields import _centers, _coordinates, _grid_values
from rotalign.registration import (
    _detect_by_resampling,
    _linear_fitter,
    _peak,
    _resampler,
    _special_case,
    _unit_scaled,
)


def angle_distance_mod_pi(a: float, b: float) -> float:
    d = abs(a - b) % math.pi
    return min(d, math.pi - d)


def random_field_with_ratio_floor(rng, floor: float) -> LinearField:
    while True:
        f = LinearField(*rng.uniform(-1, 1, 4))
        n1, n2 = field_norms(f)
        if max(n1, n2) > 0 and min(n1, n2) >= floor * max(n1, n2):
            return f


def scaled(f: LinearField, k: float) -> LinearField:
    return LinearField(*(k * c for c in f.coefficients()), f.domain)


# Fields with saddle/invariant energy ratio in [0.1, 10], drawn from a seed.
balanced_fields = st.integers(0, 2**32 - 1).map(
    lambda seed: random_field_with_ratio_floor(np.random.default_rng(seed), 0.1))
offsets = st.floats(min_value=-math.pi, max_value=math.pi)


# ---------------------------------------------------------------- phi map

def test_phi_point_values():
    assert math.isclose(phi_of_alpha(saddle(), math.pi / 6), -math.pi / 3, rel_tol=1e-14)
    assert phi_of_alpha(vortex(), 1.234) == -0.0
    balanced = recompose(Decomposition(1.0, 0.0, 1.0, 0.0))
    assert math.isclose(phi_of_alpha(balanced, math.pi / 4), -math.pi / 4, rel_tol=1e-14)


def test_phi_matches_correlation_argument():
    rng = np.random.default_rng(41)
    for _ in range(500):
        v = LinearField(*rng.uniform(-1, 1, 4))
        if v.is_zero():
            continue
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        via_corr = spinor_arg(correlate_linear(total_rotate(v, alpha), v).value)
        assert abs(phi_of_alpha(v, alpha) - via_corr) <= 1e-12


def test_phi_zero_field_raises():
    with pytest.raises(DegenerateZeroFieldError):
        phi_of_alpha(LinearField(0.0, 0.0, 0.0, 0.0), 0.3)


def test_phi_at_any_scale():
    # Unscaled, the norms overflowed (-pi/4) or underflowed (a zero-field error).
    unit = phi_of_alpha(LinearField(1.0, 0.0, 0.0, -1.0), 0.3)
    assert math.isclose(unit, -0.6, rel_tol=1e-15)
    assert phi_of_alpha(LinearField(1e200, 0.0, 0.0, -1e200), 0.3) == unit
    assert phi_of_alpha(LinearField(1e-200, 0.0, 0.0, -1e-200), 0.3) == unit


def test_phi_band_and_sign_on_grid():
    # sign(phi) opposite to sign(alpha) (or zero), and |phi| <= 2|alpha|
    rng = np.random.default_rng(42)
    fields = [random_field_with_ratio_floor(rng, 1e-6) for _ in range(100)]
    alphas = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 100)
    for v in fields:
        for alpha in alphas:
            phi = phi_of_alpha(v, float(alpha))
            assert phi == 0.0 or (phi < 0) == (alpha > 0)
            assert abs(phi) <= 2.0 * abs(alpha) + 1e-12


def test_update_contracts_magnitude():
    rng = np.random.default_rng(43)
    for _ in range(2000):
        v = random_field_with_ratio_floor(rng, 1e-9)
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        phi = phi_of_alpha(v, alpha)
        assert abs(alpha + phi) <= abs(alpha) * (1 + 1e-12) + 1e-15


# ---------------------------------------------------------------- detect

def test_detect_balanced_field():
    v = recompose(Decomposition(1.0, 0.0, 1.0, 0.0))
    u = total_rotate(v, 0.7)
    result = detect(v, u, DetectorConfig(eps=1e-5))
    assert result.converged()
    assert angle_distance_mod_pi(result.alpha, oracle_detect(v, u)) <= 1e-4
    assert math.isclose(result.alpha, 0.7, rel_tol=0, abs_tol=1e-4)


def test_detect_pure_saddle_halving_branch():
    eps = 1e-6
    result = detect(saddle(), total_rotate(saddle(), 0.4), DetectorConfig(eps=eps))
    assert result.converged()
    assert result.iterations <= 3
    assert abs(result.alpha - 0.4) <= 10 * eps
    assert [t.branch for t in result.trace].count("halve") == 1


def test_detect_vortex_any_offset():
    # rotation-invariant input: the kick branch fires once and any answer
    # is correct; the corrected copy must equal the field itself
    result = detect(vortex(), total_rotate(vortex(), 1.1), DetectorConfig(eps=1e-6))
    assert result.converged()
    branches = [t.branch for t in result.trace]
    assert branches.count("perturb") == 1
    assert result.iterations == 2
    assert np.allclose(result.corrected.coefficients(), vortex().coefficients(), atol=1e-12)


def test_detect_aligned_generic_field():
    v = recompose(Decomposition(0.8, -0.3, 0.5, 0.9))
    result = detect(v, v, DetectorConfig(eps=1e-6))
    assert result.converged()
    assert [t.branch for t in result.trace].count("perturb") == 1
    assert angle_distance_mod_pi(result.alpha, 0.0) <= 1e-5


def test_detect_aligned_pure_saddle_locks_quarter_family():
    # offset 0 on a pure saddle: kick, then the -pi/2 reading pins pi/2.
    # The corrected copy is the half-turn image (-v), so the loop keeps
    # reading a flat half-turn and runs into the cap; the lock value is
    # only correct modulo a quarter turn, which the trace documents.
    result = detect(saddle(), saddle(), DetectorConfig(eps=1e-6, max_iter=200))
    branches = [t.branch for t in result.trace]
    assert branches.count("perturb") == 1
    assert branches.count("lock") == 1
    assert result.trace[1].alpha_after == math.pi / 2
    assert result.status is DetectionStatus.MAX_ITER_EXCEEDED
    assert angle_distance_mod_pi(abs(result.alpha), math.pi / 2) <= 1e-9


@pytest.mark.parametrize("theta", [math.pi / 2, -math.pi / 2])
def test_detect_pure_saddle_quarter_turn(theta):
    # a quarter-turn saddle offset is recovered (modulo the half-turn
    # symmetry) through the halving branch
    result = detect(saddle(), total_rotate(saddle(), theta), DetectorConfig(eps=1e-6))
    assert result.converged()
    assert [t.branch for t in result.trace].count("halve") == 1
    assert angle_distance_mod_pi(result.alpha, theta) <= 1e-9


def test_detect_trace_and_status_contract():
    v = recompose(Decomposition(0.6, 0.2, -0.5, 0.3))
    u = total_rotate(v, -0.9)
    cfg = DetectorConfig(eps=1e-7)
    result = detect(v, u, cfg)
    assert len(result.trace) == result.iterations
    assert result.converged()
    assert abs(result.trace[-1].phi) <= cfg.eps
    assert np.allclose(result.corrected.coefficients(), v.coefficients(), atol=1e-5)
    assert -math.pi < result.alpha <= math.pi


def test_detect_is_deterministic():
    v = LinearField(0.3, -0.6, 0.8, 0.2)
    u = total_rotate(v, 1.2)
    r1 = detect(v, u, DetectorConfig(eps=1e-6))
    r2 = detect(v, u, DetectorConfig(eps=1e-6))
    assert r1.trace == r2.trace
    assert r1.alpha == r2.alpha


def test_detect_scale_invariance():
    v = LinearField(0.3, -0.6, 0.8, 0.2)
    u = total_rotate(v, 0.35)
    r1 = detect(v, u, DetectorConfig(eps=1e-6))
    scale = 1024.0  # power of two keeps the scaling float-exact
    v2 = LinearField(*(c * scale for c in v.coefficients()))
    u2 = LinearField(*(c * scale for c in u.coefficients()))
    r2 = detect(v2, u2, DetectorConfig(eps=1e-6))
    assert r1.alpha == r2.alpha
    assert r1.iterations == r2.iterations


def test_detect_refuses_a_pattern_too_large_to_turn():
    # Some turn of this pattern has a12 + a21 past the largest double: it is
    # refused up front, by name, not after the loop about its corrected copy.
    with pytest.raises(ValueError, match=r"pattern \(8e\+307, 8e\+307, 8e\+307, -8e\+307\)"):
        detect(LinearField(0.0, 1.0, 1.0, 0.0), LinearField(8e307, 8e307, 8e307, -8e307))
    # Saddle radius h and source c: refused when h + max(h, c) overflows.
    big = sys.float_info.max
    for radius, refused in ((0.51, True), (0.49, False)):
        v = recompose(Decomposition(radius * big * math.cos(0.2), radius * big * math.sin(0.2),
                                    0.47 * big, 0.0))
        u = recompose(Decomposition(radius * big * math.cos(0.8), radius * big * math.sin(0.8),
                                    0.47 * big, 0.0))   # v totally rotated by 0.3
        if refused:
            with pytest.raises(ValueError, match="too large"):
                detect(v, u)
        else:
            result = detect(v, u)
            assert result.converged()
            assert angle_distance_mod_pi(result.alpha, 0.3) <= 1e-6


def test_detect_input_validation():
    with pytest.raises(DegenerateZeroFieldError):
        detect(LinearField(0.0, 0.0, 0.0, 0.0), saddle(), DetectorConfig(eps=1e-6))
    with pytest.raises(DegenerateZeroFieldError):
        detect(saddle(), LinearField(0.0, 0.0, 0.0, 0.0), DetectorConfig(eps=1e-6))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            detect(LinearField(bad, 0.0, 0.0, 1.0), saddle())
        with pytest.raises(ValueError):
            detect(saddle(), LinearField(0.3, bad, 0.0, 1.0))
    with pytest.raises(DomainMismatchError):
        detect(saddle(), saddle(UNIT_DISK), DetectorConfig(eps=1e-6))
    with pytest.raises(ValueError):
        DetectorConfig(eps=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(eps=1e-10)  # at or below the 1e-9 branch tolerance
    with pytest.raises(ValueError):
        DetectorConfig(eps=1e-6, max_iter=0)
    with pytest.raises(ValueError):
        DetectorConfig(eps=1e-6, max_iter=2.5)
    assert DetectorConfig(max_iter=np.int64(5)).max_iter == 5


@pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
def test_detect_refuses_pairs_no_turn_correlates(scale):
    # A pure saddle against a pure source/vortex correlates to zero at
    # every turn, so no offset is defined: refused, in either order and
    # through the projection too.
    saddles = [saddle(), recompose(Decomposition(0.3, -0.4, 0.0, 0.0))]
    invariants = [source(), vortex(), recompose(Decomposition(0.0, 0.0, 0.7, 0.2))]
    for a, b in ((scaled(a, scale), scaled(b, scale)) for a in saddles for b in invariants):
        for v, u in ((a, b), (b, a), (a, total_rotate(b, 0.3))):
            with pytest.raises(DegenerateZeroFieldError, match="no turn correlates"):
                detect(v, u)
            # Projections carry rounding noise: (0.3, -0.4) on 33 cells
            # fits with an invariant part near 1e-17.
            for n in (16, 33):
                with pytest.raises(DegenerateZeroFieldError, match="no turn correlates"):
                    detect_sampled(sample(v, n), sample(u, n))
    # Any invariant part in the saddle field, however small, correlates.
    v = recompose(Decomposition(1.0, 0.0, 1e-10, 0.0))
    assert detect(v, total_rotate(source(), 0.3)).converged()


def test_quarter_turn_trap_pair_is_a_quarter_turn_offset():
    # The pair of the trap below: the oracle's answer is a quarter turn.
    v = recompose(Decomposition(0.5, 0.0, 1.0, 0.0))
    u = total_rotate(v, math.pi / 2 + 1e-7)
    assert angle_distance_mod_pi(oracle_detect(v, u), math.pi / 2 + 1e-7) <= 1e-6


@pytest.mark.xfail(strict=True, reason="ROADMAP, the quarter-turn trap: with n2 > n1, an "
                   "offset within about eps (n2 - n1) / (2 n1) of a quarter turn starts detect "
                   "at the unstable fixed point phi = 0, and it returns converged at alpha near 0")
def test_detect_escapes_the_quarter_turn_trap():
    v = recompose(Decomposition(0.5, 0.0, 1.0, 0.0))
    u = total_rotate(v, math.pi / 2 + 1e-7)
    result = detect(v, u, DetectorConfig(eps=1e-6))
    assert angle_distance_mod_pi(result.alpha, oracle_detect(v, u)) <= 1e-4


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets, st.integers(-1000, 1000))
def test_detect_power_of_two_scale_invariance(v, theta, j):
    u = total_rotate(v, theta)
    cfg = DetectorConfig(eps=1e-8)
    r1 = detect(v, u, cfg)
    r2 = detect(scaled(v, 2.0 ** j), scaled(u, 2.0 ** j), cfg)
    assert r2.converged()
    assert r2.alpha == r1.alpha
    assert r2.iterations == r1.iterations


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets, st.integers(-300, 300), st.floats(1.0, 9.999))
def test_detect_decimal_scale_invariance(v, theta, exponent, mantissa):
    k = float(f"{mantissa!r}e{exponent}")
    eps = 1e-8
    u = total_rotate(v, theta)
    r1 = detect(v, u, DetectorConfig(eps=eps))
    r2 = detect(scaled(v, k), scaled(u, k), DetectorConfig(eps=eps))
    assert r2.converged()
    assert angle_distance_mod_pi(r2.alpha, r1.alpha) <= 10 * eps


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets)
def test_detect_swapping_fields_negates_offset(v, theta):
    # Off the kick branch (which always turns the same way) the swapped
    # run mirrors every step of the original one.
    assume(angle_distance_mod_pi(theta, 0.0) > 1e-6)
    u = total_rotate(v, theta)
    cfg = DetectorConfig(eps=1e-8)
    forward = detect(v, u, cfg)
    backward = detect(u, v, cfg)
    assert angle_distance_mod_pi(backward.alpha, -forward.alpha) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets, offsets)
def test_detect_is_rotation_equivariant(v, theta, s):
    # Each run stops within eps*|1 - g|/g <= 4.5*eps of its offset, where
    # g = 2*n1/(n1 + n2) >= 0.18 is the loop's gain, so two runs differ
    # by at most 9*eps.
    eps = 1e-8
    cfg = DetectorConfig(eps=eps)
    u = total_rotate(v, theta)
    base = detect(v, u, cfg)
    turned = detect(v, total_rotate(u, s), cfg)
    assert turned.converged()
    assert angle_distance_mod_pi(turned.alpha, base.alpha + s) <= 10 * eps


def test_detect_converges_for_bounded_ratio_instances():
    # energy ratio at least 1e-3 and eps down to 1e-8 stay under the cap
    rng = np.random.default_rng(44)
    cfg = DetectorConfig(eps=1e-8, max_iter=10000)
    for _ in range(150):
        v = random_field_with_ratio_floor(rng, 1e-3)
        theta = math.pi - 2 * math.pi * rng.random()
        result = detect(v, total_rotate(v, theta), cfg)
        assert result.converged()


def test_detect_agrees_with_oracle_for_balanced_fields():
    # stopping residual scales like eps over the energy ratio, so the
    # 10*eps agreement band applies to fields without extreme imbalance
    rng = np.random.default_rng(45)
    eps = 1e-6
    cfg = DetectorConfig(eps=eps)
    for _ in range(200):
        v = random_field_with_ratio_floor(rng, 0.2)
        theta = math.pi - 2 * math.pi * rng.random()
        u = total_rotate(v, theta)
        result = detect(v, u, cfg)
        assert result.converged()
        assert angle_distance_mod_pi(result.alpha, oracle_detect(v, u)) <= 10 * eps


# ---------------------------------------------------------------- oracle

def test_oracle_point_values():
    v = LinearField(0.4, -0.2, 0.9, 0.3)
    assert abs(oracle_detect(v, total_rotate(v, 0.3)) - 0.3) <= 1e-9
    assert abs(oracle_detect(v, v)) <= 1e-9
    assert abs(oracle_detect(v, total_rotate(v, math.pi))) <= 1e-9


def test_oracle_recovers_wrapped_angles():
    rng = np.random.default_rng(46)
    for _ in range(50):
        v = random_field_with_ratio_floor(rng, 1e-3)
        theta = math.pi - 2 * math.pi * rng.random()
        got = oracle_detect(v, total_rotate(v, theta))
        assert angle_distance_mod_pi(got, theta) <= 1e-8


@pytest.mark.parametrize("k", [1e200, 1e-160, 1e-200, 1e300])
def test_oracle_at_any_scale(k):
    # Unscaled, the squared distances overflowed or underflowed: -pi/2 at
    # 1e-200 and 0.6776 at 1e-160, where the offset is 0.7.
    v = scaled(LinearField(0.4, -0.2, 0.9, 0.3), k)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert abs(oracle_detect(v, total_rotate(v, 0.7)) - 0.7) <= 1e-9


def test_oracle_refuses_what_detect_refuses():
    v = LinearField(0.4, -0.2, 0.9, 0.3)
    zero = LinearField(0.0, 0.0, 0.0, 0.0)
    for a, b in ((zero, v), (v, zero)):
        with pytest.raises(DegenerateZeroFieldError):
            oracle_detect(a, b)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            oracle_detect(v, LinearField(bad, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            oracle_detect(LinearField(0.3, bad, 0.0, 1.0), v)
    with pytest.raises(DomainMismatchError):
        oracle_detect(v, LinearField(*v.coefficients(), UNIT_DISK))


def _frobenius_scan(v: LinearField, u: LinearField, thetas) -> np.ndarray:
    """|total_rotate(u, -theta) - v|^2 per theta, both scaled by one power of two."""
    _, e = math.frexp(max(map(abs, v.coefficients() + u.coefficients())))
    v, u = (LinearField(*(math.ldexp(x, -e) for x in f.coefficients()), f.domain)
            for f in (v, u))
    turned = np.array([total_rotate(u, -theta).matrix() for theta in thetas])
    return ((turned - v.matrix()) ** 2).sum(axis=(1, 2))


def _oracle_pairs():
    """(v, u): rotated copies and unrelated pairs over scales, domains and energy ratios."""
    rng = np.random.default_rng(1802)

    def ratio_field(ratio, scale, domain):
        # Saddle/invariant energy ratio 1e-9: the saddle pair rides on the
        # invariant one.  1e-300 needs disjoint entries: a with d, or b with c.
        c, d = scale * rng.uniform(-1.0, 1.0, 2)
        if ratio == 1e-9:
            turn = rng.uniform(-math.pi, math.pi)
            size = math.sqrt(ratio) * math.hypot(c, d)
            return recompose(Decomposition(size * math.cos(turn), size * math.sin(turn), c, d),
                             domain)
        if rng.random() < 0.5:
            return recompose(Decomposition(1e-150 * d, 0.0, 0.0, d), domain)
        return recompose(Decomposition(0.0, 1e-150 * c, c, 0.0), domain)

    for domain in (SymmetricDomain.square(0.75), SymmetricDomain.disk(2.5)):
        for scale in (1.0, 1e300, 1e-300):
            for _ in range(3):
                v, w = (LinearField(*(scale * rng.uniform(-1.0, 1.0, 4)), domain)
                        for _ in range(2))
                yield v, total_rotate(v, rng.uniform(-math.pi, math.pi))
                yield v, w
                v, w = (ratio_field(1e-9, scale, domain) for _ in range(2))
                yield v, total_rotate(v, rng.uniform(-math.pi, math.pi))
                yield v, w
                if scale != 1e-300:  # a 1e-150 part of it would underflow
                    v, w = (ratio_field(1e-300, scale, domain) for _ in range(2))
                    a, b, c, d = _coordinates(*v.coefficients())
                    yield v, recompose(Decomposition(-a, -b, c, d), domain)  # a quarter turn
                    yield v, w


def test_oracle_scores_no_worse_than_a_dense_scan():
    # The scan is built here from total_rotate and matrices, not from the oracle's kernel.
    thetas = np.linspace(-0.5 * math.pi, 0.5 * math.pi, 1001)
    pairs = 0
    for v, u in _oracle_pairs():
        answer = oracle_detect(v, u)
        assert -0.5 * math.pi < answer <= 0.5 * math.pi
        scores = _frobenius_scan(v, u, [answer, *thetas])
        assert scores[0] <= scores[1:].min() + 1e-12
        pairs += 1
    assert pairs == 96


def test_oracle_reads_a_saddle_pair_1e150_below_the_invariant_pair():
    # Energy ratio 1e-300: turning the field by a quarter turn negates the saddle pair.
    for scale in (1.0, 1e300):
        v = recompose(Decomposition(1e-150 * scale, 0.0, 0.0, 0.7 * scale))
        u = recompose(Decomposition(-1e-150 * scale, 0.0, 0.0, 0.7 * scale))
        assert oracle_detect(v, u) == 0.5 * math.pi
        assert oracle_detect(v, v) == 0.0


@pytest.mark.parametrize("flat", [source(), vortex(), recompose(Decomposition(0.0, 0.0, 0.6, -0.8)),
                                  LinearField(0.0, 0.0, 0.0, 0.0)],
                         ids=["source", "vortex", "source-vortex", "zero"])
def test_closed_forms_refuse_a_field_without_a_saddle_part(flat):
    # Every turn of such a field, or of another towards it, is as near.
    v = LinearField(0.4, -0.2, 0.9, 0.3)
    for pair in ((flat, v), (v, flat)):
        for closed_form in (oracle_detect, detect_known_pattern):
            with pytest.raises(DegenerateZeroFieldError):
                closed_form(*pair)


# ------------------------------------------------- known-pattern shortcut

def test_known_pattern_one_shot():
    v = recompose(Decomposition(1.0, 0.0, 1.0, 0.0))
    for theta in (0.5, -0.3, 0.0):
        u = total_rotate(v, theta)
        assert abs(detect_known_pattern(saddle(), u) - theta) <= 1e-12


def test_known_pattern_projects_out_invariant_part():
    # handing over the full pattern instead of just its saddle part is fine
    v = recompose(Decomposition(0.7, -0.4, 0.3, 0.8))
    u = total_rotate(v, 0.41)
    assert abs(detect_known_pattern(v, u) - 0.41) <= 1e-12


def test_known_pattern_needs_saddle_energy():
    with pytest.raises(DegenerateZeroFieldError):
        detect_known_pattern(vortex(), saddle())


@pytest.mark.parametrize("field", [LinearField(0.0, 0.0, 0.0, 0.0), total_rotate(source(), 0.4)],
                         ids=["zero", "no-saddle-part"])
def test_known_pattern_refuses_a_zero_correlation(field):
    # Such a field's correlation with the saddle part is zero, and has no argument.
    with pytest.raises(DegenerateZeroFieldError):
        detect_known_pattern(saddle(), field)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_known_pattern_refuses_non_finite_coefficients(bad):
    with pytest.raises(ValueError):
        detect_known_pattern(saddle(), LinearField(bad, 0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        detect_known_pattern(LinearField(0.3, bad, 0.0, 1.0), saddle())


def test_known_pattern_answers_at_any_scale():
    # The products of a correlation overflow or underflow here; the angles do not.
    for k in (1e200, 1e-200, 1e300):
        pattern = recompose(Decomposition(k, 0.0, 0.0, 0.0))
        assert abs(detect_known_pattern(pattern, total_rotate(pattern, 0.3)) - 0.3) <= 1e-12


def test_known_pattern_needs_a_shared_domain():
    with pytest.raises(DomainMismatchError):
        detect_known_pattern(saddle(), saddle(UNIT_DISK))


# ---------------------------------------------------------------- sampled

def test_detect_sampled_linear_pair(monkeypatch):
    # Both routes: a 1e-6 quadratic bend in the pattern sends it through the loop.
    loops = _count_loop_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.35)
    for bend, route in ((0.0, 0), (1e-6, 1)):
        loops.clear()
        result = detect_sampled(sample(v, 256), _bent(sample(u, 256), bend),
                                DetectorConfig(eps=1e-4))
        assert len(loops) == route
        assert result.converged()
        assert abs(result.alpha - 0.35) <= 1e-3


def test_detect_sampled_aligned_fires_kick(monkeypatch):
    # Both routes: a bent sample against itself reads an exactly zero
    # bivector in the loop, as a linear one does in ``detect``.
    loops = _count_loop_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    for bend, route in ((0.0, 0), (1e-6, 1)):
        loops.clear()
        s = _bent(sample(v, 64), bend)
        result = detect_sampled(s, s, DetectorConfig(eps=1e-4))
        assert len(loops) == route
        assert result.converged()
        assert result.trace[0].branch == "perturb"
        assert [t.branch for t in result.trace].count("perturb") == 1
        assert angle_distance_mod_pi(result.alpha, 0.0) <= 1e-3


def test_detect_sampled_refuses_a_pattern_whose_copy_overflows():
    # The turned copy of a saddle on the square peaks up to sqrt(2) above
    # its samples: at c = 1.55e308 (peak 1.45e308) the projected copy
    # overflows, and with a 1e-6 bend so does the loop's at 1.7e308.
    def big_saddle(c, bend=0.0):
        return sample(lambda x1, x2: (c * x1 + bend * c * x1 * x2, -c * x2), 16,
                      SymmetricDomain.square(1.0))

    v = sample(LinearField(1.0, 1.0, 1.0, -1.0), 16)
    cfg = DetectorConfig(max_iter=4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for u in (big_saddle(1.55e308), big_saddle(1.7e308, 1e-6)):
            with pytest.raises(ValueError, match="pattern samples .* too large"):
                detect_sampled(v, u, cfg)
        # Just inside the limit: the copy peaks at 1.59e308 and is returned.
        result = detect_sampled(v, big_saddle(1.2e308), cfg)
    assert result.converged()
    assert [t.branch for t in result.trace] == [None, "halve", None]
    assert np.isfinite(result.corrected.values).all()
    assert np.abs(result.corrected.values).max() > np.abs(big_saddle(1.2e308).values).max()


def test_detect_sampled_validation():
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    with pytest.raises(DomainMismatchError):
        detect_sampled(sample(v, 64), sample(v, 32), DetectorConfig(eps=1e-4))
    zero = LinearField(0.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateZeroFieldError):
        detect_sampled(sample(zero, 32), sample(zero, 32), DetectorConfig(eps=1e-4))
    with pytest.raises(DegenerateZeroFieldError):
        detect_sampled(sample(v, 32), sample(zero, 32), DetectorConfig(eps=1e-4))
    s = sample(v, 32)
    values = s.values.copy()
    values[16, 16, 0] = math.nan
    with pytest.raises(ValueError):
        detect_sampled(s, SampledField(s.n, s.domain, values, s.mask))



def test_detect_sampled_is_sign_symmetric():
    # Negating both samples leaves every correlation, and so the answer,
    # unchanged.  These samples are negative inside the disk and zero
    # outside it, so their largest value is 0 and their peak is -min.
    s = sample(lambda x1, x2: (x1 - 3.0, 0.5 * x2 - 3.0), 16, UNIT_DISK)
    cfg = DetectorConfig(eps=1e-4, max_iter=20)
    got = detect_sampled(s, s, cfg)
    flipped = detect_sampled(*(SampledField(s.n, s.domain, -s.values, s.mask),) * 2, cfg)
    assert got.trace == flipped.trace
    assert got.status is flipped.status
    assert np.array_equal(got.corrected.values, -flipped.corrected.values)

def _resample_rotated(original: SampledField, theta: float) -> SampledField:
    """Total-rotate a sampled field by theta via bilinear resampling.

    Values are looked up at the back-rotated positions and then rotated
    forward; positions falling outside the sample grid contribute zero.
    Approximate by nature, unlike the linear-field path.
    """
    n = original.n
    length = original.domain.bounding_half_side
    h = 2.0 * length / n
    centers = original.centers()
    x1, x2 = np.meshgrid(centers, centers, indexing="xy")

    c = math.cos(theta)
    s = math.sin(theta)
    p1 = c * x1 + s * x2   # R(-theta) x
    p2 = -s * x1 + c * x2

    fx = (p1 + length) / h - 0.5
    fy = (p2 + length) / h - 0.5
    ix0 = np.floor(fx).astype(int)
    iy0 = np.floor(fy).astype(int)
    tx = fx - ix0
    ty = fy - iy0

    def gather(iy, ix):
        valid = (ix >= 0) & (ix < n) & (iy >= 0) & (iy < n)
        iyc = np.clip(iy, 0, n - 1)
        ixc = np.clip(ix, 0, n - 1)
        vals = original.values[iyc, ixc, :]
        return np.where(valid[..., None], vals, 0.0)

    interp = ((1 - tx)[..., None] * (1 - ty)[..., None] * gather(iy0, ix0)
              + tx[..., None] * (1 - ty)[..., None] * gather(iy0, ix0 + 1)
              + (1 - tx)[..., None] * ty[..., None] * gather(iy0 + 1, ix0)
              + tx[..., None] * ty[..., None] * gather(iy0 + 1, ix0 + 1))

    rotated = np.empty_like(interp)
    rotated[:, :, 0] = c * interp[:, :, 0] - s * interp[:, :, 1]
    rotated[:, :, 1] = s * interp[:, :, 0] + c * interp[:, :, 1]
    rotated[~original.mask] = 0.0
    return SampledField(n, original.domain, rotated, original.mask)


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), SymmetricDomain.disk(2.5)])
@pytest.mark.parametrize("n", [8, 33, 64])
def test_resampler_matches_reference_bit_for_bit(domain, n):
    # Random values in every cell, masked or not, so each corner lookup
    # counts; n = 33 leaves a partial row block.  At 0.3 and pi/4 the
    # grid's corner cells look up 0.25 and 0.41 half sides outside it,
    # 4 to 13 cells for n >= 33: beyond the two-cell margin.
    rng = np.random.default_rng(n)
    f = SampledField(n, domain, rng.uniform(-1, 1, (n, n, 2)),
                     sample(LinearField(1.0, 0.0, 0.0, 1.0, domain), n).mask)
    rotate = _resampler(f)
    for theta in (0.0, 0.3, -0.3, math.pi / 4, math.pi / 2, -math.pi / 2, 2.5, math.pi):
        assert np.array_equal(rotate(theta).values, _resample_rotated(f, theta).values)


@pytest.mark.parametrize("domain, theta, alpha, digest", [
    (SymmetricDomain.square(1.0), 0.7, 0.7000016576005531,
     "234ebf461bd707795f617a74799bc80a2d2e56d3cbe97c137d8982700ded26e6"),
    (UNIT_DISK, -0.7, -0.7000012883964846,
     "2dcfc0ac2f380f920e2c1ccc0c871e25a91317a038d56fe5824ea38f355c9a83"),
])
def test_detect_sampled_is_pinned(domain, theta, alpha, digest):
    # The answers the reference resampler produced, bit for bit.  Linear
    # samples now go through the projection, so the loop is called directly.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
    result = _detect_by_resampling(sample(v, 64), sample(total_rotate(v, theta), 64),
                                   DetectorConfig(eps=1e-6))
    assert repr(result.alpha) == repr(alpha)
    assert result.iterations == 8
    assert hashlib.sha256(result.corrected.values.tobytes()).hexdigest() == digest


def test_detect_sampled_scale_invariance(monkeypatch):
    # Both routes: linear samples go through the projection; a 1e-6
    # quadratic bend in the pattern sends the pair through the loop.
    loops = _count_loop_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.3)
    cfg = DetectorConfig(eps=1e-6)
    for bend, route in ((0.0, 0), (1e-6, 1)):
        def pair(k):
            return sample(scaled(v, k), 32), _bent(sample(scaled(u, k), 32), k * bend)

        loops.clear()
        base = detect_sampled(*pair(1.0), cfg)
        assert base.converged()
        assert len(loops) == route
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (1e200, 1e-200):
                r = detect_sampled(*pair(k), cfg)
                assert r.converged()
                assert abs(r.alpha - base.alpha) <= 1e-9
            for j in (-1000, -3, 5, 1000):
                k = 2.0 ** j
                r = detect_sampled(*pair(k), cfg)
                assert r.alpha == base.alpha
                assert r.iterations == base.iterations
                assert r.trace == base.trace
                assert np.array_equal(r.corrected.values, base.corrected.values * k)
        assert len(loops) == 7 * route


def _count_loop_calls(monkeypatch) -> list:
    """Spy on the resample loop: the returned list gains one entry per call."""
    calls = []
    loop = registration._detect_by_resampling

    def spy(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(registration, "_detect_by_resampling", spy)
    return calls


def _bent(s: SampledField, size: float) -> SampledField:
    """s plus size * x1 * x2 in its first component, inside the mask."""
    x = s.centers()
    values = s.values.copy()
    values[:, :, 0] += size * np.where(s.mask, np.multiply.outer(x, x), 0.0)
    return SampledField(s.n, s.domain, values, s.mask)


def _offset_fields(domains, count: int):
    """(v, offset): fields with energy ratio in [0.5, 2], cycling through domains.

    Offsets lie 0.1 to 1.4 from zero, clear of the kick (which always
    turns the same way) and of the quarter turn.
    """
    rng = np.random.default_rng(2121)
    for i in range(count):
        v = LinearField(*random_field_with_ratio_floor(rng, 0.5).coefficients(),
                        domains[i % len(domains)])
        yield v, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 1.4))


@pytest.mark.parametrize("domains, n, bend, pairs, looped", [
    ((SymmetricDomain.square(1.0), UNIT_DISK, SymmetricDomain.square(2.5),
      SymmetricDomain.disk(0.6)), 32, 0.0, 12, False),
    ((UNIT_DISK,), 64, 1e-3, 6, True),
], ids=["projection", "loop"])
def test_detect_sampled_swapping_samples_negates_offset(monkeypatch, domains, n, bend, pairs,
                                                        looped):
    # Off the kick, the swapped run mirrors every step of the forward one
    # on both routes: gaps measured up to 4.4e-16 on the projection and 0
    # on the loop.
    loops = _count_loop_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8)
    for v, offset in _offset_fields(domains, pairs):
        sv, su = _bent(sample(v, n), bend), _bent(sample(total_rotate(v, offset), n), bend)
        forward = detect_sampled(sv, su, cfg)
        backward = detect_sampled(su, sv, cfg)
        assert forward.converged() and backward.converged()
        assert angle_distance_mod_pi(backward.alpha, -forward.alpha) <= 1e-12
    assert len(loops) == (2 * pairs if looped else 0)


def test_detect_sampled_is_rotation_equivariant(monkeypatch):
    # With energy ratios in [0.5, 2] the loop's gain g = 2*n1/(n1 + n2)
    # is at least 2/3, so each run stops within eps*|1 - g|/g <= eps/2 of
    # its offset and two runs differ by at most eps (0.77 eps measured).
    loops = _count_loop_calls(monkeypatch)
    eps = 1e-8
    cfg = DetectorConfig(eps=eps)
    rng = np.random.default_rng(2122)
    domains = (SymmetricDomain.square(1.0), UNIT_DISK)
    for v, offset in _offset_fields(domains, 12):
        s = float(rng.uniform(-math.pi, math.pi))
        base = detect_sampled(sample(v, 32), sample(total_rotate(v, offset), 32), cfg)
        moved = detect_sampled(sample(v, 32), sample(total_rotate(v, offset + s), 32), cfg)
        assert moved.converged()
        assert angle_distance_mod_pi(moved.alpha, base.alpha + s) <= 2 * eps
    assert loops == []


def test_detect_sampled_answers_a_flow_without_linear_part_by_the_loop(monkeypatch):
    # A constant flow (angular class 1) on the disk projects to the zero
    # linear field, so only the resample loop can answer it.  A turn
    # multiplies it by exp(i t): the first reading is -t and the second
    # is zero to rounding.
    loops = _count_loop_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8)

    def flow(a1, a2):
        return lambda x1, x2: (np.full_like(x1, a1), np.full_like(x2, a2))

    for n in (32, 64):
        for offset in (0.4, -1.1):
            c, s = math.cos(offset), math.sin(offset)
            v = sample(flow(0.6, -0.3), n, UNIT_DISK)
            u = sample(flow(0.6 * c + 0.3 * s, 0.6 * s - 0.3 * c), n, UNIT_DISK)
            loops.clear()
            result = detect_sampled(v, u, cfg)
            assert len(loops) == 1
            assert result.converged()
            assert result.iterations == 2
            assert abs(result.alpha - offset) <= 1e-12


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), SymmetricDomain.disk(2.5)])
@pytest.mark.parametrize("n", [8, 33, 512])
def test_linear_fit_recovers_sampled_coefficients(domain, n):
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-3, 7.5):
        f = LinearField(*(scale * rng.uniform(-1, 1, 4)), domain)
        s = sample(f, n)
        # The fit is of the samples times 2**-e, e of their peak.
        fit, peak, e = _linear_fitter(s)(s.values)
        assert (peak, e) == _peak(s.values)
        assert fit.domain == domain
        worst = max(abs(math.ldexp(a, e) - b)
                    for a, b in zip(fit.coefficients(), f.coefficients()))
        assert worst <= 1e-14 * max(map(abs, f.coefficients()))



def _linear_by_whole_grid_residual(s: SampledField) -> bool:
    """Whether the whole-grid least-squares fit reproduces s to ``_LINEAR_TOL``.

    The reference for the projection route, written out over full
    arrays: scale by the peak's power of two, a_ij = sum v_i x_j / sum
    x1^2 (sum x1^2 over the masked cells), the fit's values zero outside
    the mask, and the residual over every cell.
    """
    w = np.ldexp(s.values, -math.frexp(np.abs(s.values).max())[1])
    x1, x2 = np.meshgrid(s.centers(), s.centers())
    weight = np.sum(np.where(s.mask, x1 * x1, 0.0))
    along_x1 = np.einsum("ijk,ij->k", w, x1) / weight   # (a11, a21)
    along_x2 = np.einsum("ijk,ij->k", w, x2) / weight   # (a12, a22)
    fit = np.where(s.mask[..., None], x1[..., None] * along_x1 + x2[..., None] * along_x2, 0.0)
    tol = registration._LINEAR_TOL
    return np.sum((w - fit) ** 2) <= tol * tol * np.sum(w * w)


def _routing_pairs():
    """(v, u) sample pairs around the linear bound and on unusual masks."""
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
        field = LinearField(*v.coefficients(), domain)
        for n in (8, 33, 512):
            sv, su = sample(field, n), sample(total_rotate(field, 0.4), n)
            for bend in (0.0, 1e-13, 5e-13, 2e-12, 1e-11):
                yield sv, _bent(su, bend)
                yield _bent(sv, bend), su
    # Masks other than a domain's: a disk of radius 0.3 on the unit
    # square's 96-cell grid leaves the first row block wholly outside;
    # dropping the left 20 columns of a disk makes it asymmetric.
    square = SymmetricDomain.square(1.0)
    x = sample(v, 96).centers()
    small = np.add.outer(x * x, x * x) <= 0.09
    lopsided = sample(LinearField(1.0, 0.0, 0.0, 1.0, UNIT_DISK), 64).mask.copy()
    lopsided[:, :20] = False
    for domain, mask in ((square, small), (UNIT_DISK, lopsided), (UNIT_DISK, lopsided.T)):
        n = len(mask)
        values = [sample(LinearField(*g.coefficients(), domain), n).values
                  for g in (v, total_rotate(v, 0.4))]
        sv, su = (SampledField(n, domain, np.where(mask[..., None], a, 0.0), mask)
                  for a in values)
        for bend in (0.0, 1e-9):
            yield sv, _bent(su, bend)
    # Values outside the mask move the fit from the moments off the
    # least-squares fit.  Along x, in the lower half only, with energy
    # 0.85 tol^2 of the sample's, they leave the misfit of the trial (fit
    # to the upper rows) within the bound and the fit's own residual past
    # it; at 0.3 tol^2 both are within.
    field = LinearField(*v.coefficients(), UNIT_DISK)
    sv, su = sample(field, 64), sample(total_rotate(field, 0.4), 64)
    x = sv.centers()
    outside = ~sv.mask
    outside[:32] = False
    along_x = np.stack(np.meshgrid(x, x), axis=-1)[outside]
    for share in (0.3, 0.85):
        size = math.sqrt(share * registration._LINEAR_TOL ** 2 * np.sum(su.values ** 2)
                         / np.sum(along_x ** 2))
        values = su.values.copy()
        values[outside] = size * along_x
        yield sv, SampledField(su.n, su.domain, values, su.mask)


def test_detect_sampled_routes_by_the_whole_grid_residual(monkeypatch):
    # The trial fit of the single traversal may only accept what the
    # whole-grid residual accepts, and a misfit past its bound must fall
    # back to that residual: every pair routes as the reference says.
    loops = _count_loop_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-6, max_iter=1)
    routes = []
    for sv, su in _routing_pairs():
        loops.clear()
        detect_sampled(sv, su, cfg)
        want = 0 if _linear_by_whole_grid_residual(sv) and _linear_by_whole_grid_residual(su) else 1
        assert len(loops) == want
        routes.append(want)
    assert set(routes) == {0, 1}


@pytest.mark.parametrize("peak", [1.5 * 2.0 ** 1023, 1.2 * 2.0 ** 1022, 1.5 * 2.0 ** 1021,
                                  0.75 * 2.0 ** -1022, 3e-310, 2e-320])
def test_linear_fit_scaling_matches_ldexp_at_exponent_edges(peak):
    # 2**-exp is not a normal double for peaks from 2**1022 on and for
    # subnormal peaks, where the fit scales with np.ldexp instead of a
    # multiply; either way its bits equal a fit of the np.ldexp-scaled
    # samples.  96 rows make three blocks.
    field = recompose(Decomposition(0.3, -0.2, 0.5, 0.4))
    s = sample(field, 96)
    values = s.values * (peak / np.abs(s.values).max())
    s = SampledField(s.n, s.domain, values, s.mask)
    fit, got_peak, e = _linear_fitter(s)(s.values)
    assert (got_peak, e) == _peak(s.values)
    scaled_s = SampledField(s.n, s.domain, np.ldexp(s.values, -e), s.mask)
    want, _, zero = _linear_fitter(scaled_s)(scaled_s.values)
    assert zero == 0
    assert (fit is None) == (want is None)
    if fit is not None:
        assert [x.hex() for x in fit.coefficients()] == [x.hex() for x in want.coefficients()]


def test_linear_fit_rescales_its_sums_exactly(monkeypatch):
    # On the disk the first block's rows are the narrowest, so its peak
    # has a smaller exponent than the sample's and the sums taken so far
    # are rescaled.  Dyadic centers and values make every sum exact, so
    # the fit must equal a one-block fit, scaled once, bit for bit.
    s = sample(LinearField(2.25, 0.25, -0.5, 0.25, UNIT_DISK), 256)
    assert _peak(s.values[:32])[1] < _peak(s.values)[1]
    fit, peak, e = _linear_fitter(s)(s.values)
    monkeypatch.setattr(registration, "_BLOCK_ROWS", s.n)
    want, want_peak, want_e = _linear_fitter(s)(s.values)
    assert (peak, e) == (want_peak, want_e)
    assert fit.coefficients() == want.coefficients()
    assert [math.ldexp(a, e) for a in fit.coefficients()] == [2.25, 0.25, -0.5, 0.25]


def test_scaled_equals_ldexp():
    rng = np.random.default_rng(5)
    values = np.concatenate([rng.uniform(-1, 1, 64), [5e-324, -2.2e-308, 1.7e308, 0.0]])
    with np.errstate(over="ignore", under="ignore"):
        values = np.concatenate([values, values * 2.0 ** -1000, values * 2.0 ** 1000])
        for exp in (-1075, -1074, -1023, -1022, -1021, -3, 0, 5, 1022, 1023, 1024, 1025):
            got = registration._scaled(values, exp, np.empty_like(values))
            assert got.tobytes() == np.ldexp(values, exp).tobytes()


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), UNIT_DISK])
def test_detect_sampled_projection_makes_no_full_size_temporaries(domain, monkeypatch):
    # The projection scales, fits and tests the samples in row blocks, so
    # one call's traced peak, the corrected copy it returns included, stays
    # within 1.5 values-sized arrays.  The copy is laid out when first
    # read, so it is read inside the window.
    loops = _count_loop_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
    sv, su = sample(v, 256), sample(total_rotate(v, 0.7), 256)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = detect_sampled(sv, su, DetectorConfig(eps=1e-6))
        result.corrected
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert loops == []
    assert result.converged()
    assert peak <= 1.5 * sv.values.nbytes


def _traced_peak(call) -> tuple:
    """(call(), the bytes its traced peak lies above what was traced before it)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = call()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_detect_sampled_lays_out_the_copy_when_it_is_read():
    # The call's traced peak (the fit's blocks and mask sums) stays well
    # below a values-sized array; the first read lays the copy out, as
    # many bytes as the samples, and keeps it.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    sv, su = sample(v, 256), sample(total_rotate(v, 0.7), 256)
    result, call_peak = _traced_peak(lambda: detect_sampled(sv, su, DetectorConfig(eps=1e-6)))
    assert type(vars(result)["_corrected"]) is registration._Deferred
    copy, read_peak = _traced_peak(lambda: result.corrected)
    assert call_peak <= 0.75 * sv.values.nbytes
    assert sv.values.nbytes <= read_peak <= 1.5 * sv.values.nbytes
    assert result.corrected is copy
    assert type(vars(result)["_corrected"]) is SampledField


def _eager_copies(monkeypatch):
    """Make every corrected copy be built during the call."""
    monkeypatch.setattr(registration, "_when_read", lambda eager, build, *args: build(*args))


# Pattern scales: 2**+-1000, and entries peaking at the top exponents,
# where the copy is built during the call.
COPY_SCALES = [2.0 ** -1000, 2.0 ** 1000] + [math.ldexp(0.75, e) for e in (1020, 1021, 1022, 1023)]


def test_deferred_copies_equal_the_eager_build(monkeypatch):
    # detect and both detect_sampled routes: read later, the copy has the
    # bytes it has when built during the call.  detect and the projection
    # defer it exactly when the pattern's exponent is below the top four,
    # where a copy cannot overflow; the resample route never does.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.7)
    cfg = DetectorConfig(eps=1e-6)
    size = max(map(abs, u.coefficients()))
    kinds = set()
    for k in COPY_SCALES:
        pattern = scaled(u, k / size)
        exp = math.frexp(max(map(abs, _coordinates(*pattern.coefficients()))))[1]
        cases = [(lambda p=pattern: detect(v, p, cfg), exp < sys.float_info.max_exp - 3)]
        for bend in (0.0, 1e-6):
            su = _bent(sample(pattern, 32), bend * k / size)
            exp = math.frexp(np.abs(su.values).max())[1]
            cases.append((lambda su=su: detect_sampled(sample(v, 32), su, cfg),
                          not bend and exp < sys.float_info.max_exp - 3))
        for call, defers in cases:
            r = call()
            assert (type(vars(r)["_corrected"]) is registration._Deferred) == defers
            kinds.add((type(r.corrected), defers))
            with monkeypatch.context() as m:
                _eager_copies(m)
                now = call().corrected
            if isinstance(now, LinearField):
                assert repr(r.corrected) == repr(now)
            else:
                assert r.corrected.values.tobytes() == now.values.tobytes()
                assert r.corrected.mask is now.mask
    assert kinds == {(LinearField, True), (LinearField, False),
                     (SampledField, True), (SampledField, False)}


def test_detect_sampled_copy_matches_its_grid_reference(monkeypatch):
    # The projection's copy is detect's corrected field on the grid, scaled
    # back by np.ldexp to the pattern's peak exponent.
    inner = []

    def spy(*args, inner_detect=registration.detect):
        inner.append(inner_detect(*args))
        return inner[-1]

    monkeypatch.setattr(registration, "detect", spy)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), UNIT_DISK)
    for k in COPY_SCALES:
        su = sample(total_rotate(scaled(v, k), 0.7), 64)
        r = detect_sampled(sample(v, 64), su, DetectorConfig(eps=1e-6))
        x = _centers(UNIT_DISK, 64)
        want = np.ldexp(_grid_values(inner[-1].corrected, x, x, su.mask),
                        math.frexp(np.abs(su.values).max())[1])
        assert r.corrected.values.tobytes() == want.tobytes()


def _column(component: int, peak: float, n: int = 64) -> SampledField:
    """peak in one component on the one-column mask at x1 = h/2, zero elsewhere."""
    mask = np.zeros((n, n), bool)
    mask[:, n // 2] = True
    values = np.zeros((n, n, 2))
    values[:, n // 2, component] = peak
    return SampledField(n, SymmetricDomain.square(1.0), values, mask)


def test_detect_sampled_refuses_during_the_call_a_copy_that_outgrows_its_samples():
    # On a one-column mask the projection's copy peaks 63 times above its
    # samples.  At a peak of 1.5 * 2**1018, below the top exponents, it
    # overflows, and is refused during the call, not when it is read.
    cfg = DetectorConfig(eps=1e-6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="pattern samples .* too large"):
            detect_sampled(_column(0, 1.0), _column(1, 1.5 * 2.0 ** 1018), cfg)
        at_edge = detect_sampled(_column(0, 1.0), _column(1, 2.0 ** 1018), cfg)
        assert np.abs(at_edge.corrected.values).max() == 63.0 * 2.0 ** 1018
        below = detect_sampled(_column(0, 1.0), _column(1, 2.0 ** 1016), cfg)
    assert type(vars(below)["_corrected"]) is registration._Deferred
    assert np.abs(below.corrected.values).max() == 63.0 * 2.0 ** 1016


def test_detect_sampled_results_hold_no_sample_values():
    # Both routes: once the samples are dropped, their values are freed,
    # and the copy is still there to read.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    for bend in (0.0, 1e-6):
        sv, su = sample(v, 32), _bent(sample(total_rotate(v, 0.4), 32), bend)
        refs = [weakref.ref(sv.values), weakref.ref(su.values)]
        result = detect_sampled(sv, su, DetectorConfig(eps=1e-6, max_iter=6))
        want = detect_sampled(sv, su, DetectorConfig(eps=1e-6, max_iter=6)).corrected.values
        del sv, su
        gc.collect()
        assert [ref() for ref in refs] == [None, None]
        assert result.corrected.values.tobytes() == want.tobytes()


def test_detect_sampled_results_pickle_and_replace_before_the_copy_is_read():
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    sv, su = sample(v, 32), sample(total_rotate(v, 0.4), 32)
    cfg = DetectorConfig(eps=1e-6)
    result = detect_sampled(sv, su, cfg)
    back = pickle.loads(pickle.dumps(result))
    assert type(vars(back)["_corrected"]) is registration._Deferred
    want = detect_sampled(sv, su, cfg).corrected
    assert back.corrected.values.tobytes() == want.values.tobytes()
    assert (back.alpha, back.iterations, back.status, back.trace) == (
        result.alpha, result.iterations, result.status, result.trace)
    moved = replace(result, corrected=sv)
    assert moved.corrected is sv and moved.trace == result.trace
    assert type(vars(result)["_corrected"]) is registration._Deferred


def test_library_built_samples_skip_the_finite_check(monkeypatch):
    # Both routes: the copies the detector builds from finite samples are
    # not checked again; samples handed in still are.
    checks = []
    check = SampledField.__post_init__
    monkeypatch.setattr(SampledField, "__post_init__",
                        lambda self: checks.append(self) or check(self))
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    sv, su = sample(v, 32), _bent(sample(total_rotate(v, 0.4), 32), 1e-6)
    for pattern in (sample(total_rotate(v, 0.4), 32), su):
        checks.clear()
        result = detect_sampled(sv, pattern, DetectorConfig(eps=1e-6, max_iter=6))
        result.corrected
        assert checks == []
    SampledField(sv.n, sv.domain, sv.values, sv.mask)
    assert len(checks) == 1


LINEAR_ROUTE_CASES = [
    # (v, offset, cfg): generic, aligned (perturb), pure saddle (halve),
    # aligned pure saddle (perturb, lock), pure invariant, capped.
    (recompose(Decomposition(0.7, -0.2, 0.5, 0.4)), 0.7, DetectorConfig(eps=1e-8)),
    (recompose(Decomposition(0.7, -0.2, 0.5, 0.4)), 0.0, DetectorConfig(eps=1e-8)),
    (recompose(Decomposition(0.6, 0.3, 0.0, 0.0)), 0.3, DetectorConfig(eps=1e-8)),
    (recompose(Decomposition(0.6, 0.3, 0.0, 0.0)), 0.0, DetectorConfig(eps=1e-8)),
    (vortex(), 0.5, DetectorConfig(eps=1e-8)),
    (recompose(Decomposition(0.1, 0.05, 1.0, -0.4)), -1.2, DetectorConfig(eps=1e-8, max_iter=3)),
]


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), SymmetricDomain.disk(2.5)])
def test_detect_sampled_projects_linear_samples(domain, monkeypatch):
    loops = _count_loop_calls(monkeypatch)
    seen = set()
    for v, offset, cfg in LINEAR_ROUTE_CASES:
        v = LinearField(*v.coefficients(), domain)
        u = total_rotate(v, offset)
        want = detect(v, u, cfg)
        got = detect_sampled(sample(v, 32), sample(u, 32), cfg)
        assert angle_distance_mod_pi(got.alpha, want.alpha) <= 1e-12
        assert got.iterations == want.iterations
        assert got.status is want.status
        branches = [t.branch for t in got.trace]
        assert branches == [t.branch for t in want.trace]
        seen.update(branches)
        expected = sample(want.corrected, 32).values
        assert np.allclose(got.corrected.values, expected, rtol=0.0,
                           atol=1e-13 * np.abs(expected).max())
    assert seen == {None, "perturb", "halve", "lock"}
    assert loops == []


def _with_outside_value(s: SampledField) -> SampledField:
    values = s.values.copy()
    values[0, 0] = (0.25, -0.5)   # a corner cell, outside the disk
    return SampledField(s.n, s.domain, values, s.mask)


@pytest.mark.parametrize("kind", ["double-winding", "quadratic-bend", "outside-value"])
def test_detect_sampled_loops_over_nonlinear_samples(kind, monkeypatch):
    loops = _count_loop_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-6, max_iter=6)
    if kind == "double-winding":
        sv = sample(double_winding(), 32, UNIT_DISK)
        su = sample(double_winding(0.4), 32, UNIT_DISK)
    else:
        domain = UNIT_DISK if kind == "outside-value" else SymmetricDomain.square(1.0)
        v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
        sv, su = sample(v, 32), sample(total_rotate(v, 0.4), 32)
        su = _bent(su, 1e-6) if kind == "quadratic-bend" else _with_outside_value(su)
    want = _detect_by_resampling(sv, su, cfg)
    got = detect_sampled(sv, su, cfg)
    assert len(loops) == 1
    assert got.alpha == want.alpha
    assert got.iterations == want.iterations
    assert got.status is want.status
    assert got.trace == want.trace
    assert got.corrected.values.tobytes() == want.corrected.values.tobytes()


def _projection_sweep():
    """(v, u, cfg) linear sample pairs: four domains, four n, scales 2**+-40, three eps.

    The pair kinds cycle through a rotated copy, an aligned copy
    (perturb), a pure saddle (halve), an aligned pure saddle (perturb,
    lock), a pure invariant field (perturb) and a copy capped at three
    readings.
    """
    rng = np.random.default_rng(1414)
    domains = (SymmetricDomain.square(0.75), SymmetricDomain.square(1.0),
               SymmetricDomain.square(2.5), UNIT_DISK)
    kind = 0
    for domain in domains:
        for n in (8, 17, 64, 200):
            for scale in (2.0 ** 40, 2.0 ** -40):
                for eps in (1e-3, 1e-6, 1e-8):
                    a, b, c, d = rng.uniform(-1.0, 1.0, 4)
                    offset = float(rng.uniform(-math.pi, math.pi))
                    if kind in (2, 3):
                        c = d = 0.0
                    if kind == 4:
                        a = b = 0.0
                    if kind in (1, 3):
                        offset = 0.0
                    v = recompose(Decomposition(scale * a, scale * b, scale * c, scale * d),
                                  domain)
                    cfg = DetectorConfig(eps=eps, max_iter=3 if kind == 5 else 10000)
                    yield sample(v, n), sample(total_rotate(v, offset), n), cfg
                    kind = (kind + 1) % 6


C, X = "converged", "max_iter_exceeded"
P, H, L = "perturb", "halve", "lock"
# (alpha, iterations, status, branches at readings 1 and 2) of each pair of
# _projection_sweep, as the full-array projection answered them.
PROJECTION_PINS = [
    (1.1770956661429903, 7, C, (None, None)), (1.581888697722286e-07, 14, C, (P, None)),
    (-0.7810519893718731, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-1.0819325814992684, 3, X, (None, None)),
    (0.36933594678402726, 7, C, (None, None)), (-7.841459655275755e-07, 26, C, (P, None)),
    (1.3252159693196868, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974485, 2, C, (P, None)), (0.11155390177513305, 3, X, (None, None)),
    (0.11892398326011157, 4, C, (None, None)), (-3.0973511058437466e-06, 48, C, (P, None)),
    (1.5275693490077904, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974482, 2, C, (P, None)), (1.400861302042898, 3, X, (None, None)),
    (-1.2741663623070973, 12, C, (None, None)), (-3.1406870022645474e-07, 43, C, (P, None)),
    (-1.4051647040677664, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-1.888263541073585, 3, X, (None, None)),
    (0.7291021133245518, 15, C, (None, None)), (-8.541451936697585e-07, 26, C, (P, None)),
    (-1.115315139740467, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (0.6328943179378282, 3, X, (None, None)),
    (1.5613371487208367, 4, C, (None, None)), (-7.831232218349868e-07, 21, C, (P, None)),
    (-1.0741278176108482, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974482, 2, C, (P, None)), (2.367585767562922, 3, X, (None, None)),
    (0.6666353771653557, 26, C, (None, None)), (1.3501195276155475e-07, 14, C, (P, None)),
    (0.56544005158921, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (0.4563439842984454, 3, X, (None, None)),
    (1.1266785509693367, 38, C, (None, None)), (-5.787026685274016e-07, 19, C, (P, None)),
    (-1.3205205984490522, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (3.080511584524961, 3, X, (None, None)),
    (1.12082079113357, 12, C, (None, None)), (-8.166220323935891e-07, 21, C, (P, None)),
    (0.9118994381882323, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-0.3989347672251623, 3, X, (None, None)),
    (-0.5884873880337339, 4, C, (None, None)), (4.737598331146511e-08, 10, C, (P, None)),
    (1.4218641184540652, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-0.7274431321425159, 3, X, (None, None)),
    (0.39220223875610705, 11, C, (None, None)), (-1.2704319878038004e-09, 6, C, (P, None)),
    (1.061070973211077, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-0.21934548000371215, 3, X, (None, None)),
    (-0.17554526725109929, 1061, C, (None, None)), (-1.4010024529373952e-08, 8, C, (P, None)),
    (1.3107007380864266, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (-0.8801531319844775, 3, X, (None, None)),
    (-1.3458255230262406, 62, C, (None, None)), (-5.578666073345926e-07, 22, C, (P, None)),
    (-0.2577993529458685, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974482, 2, C, (P, None)), (2.0627973716704364, 3, X, (None, None)),
    (-1.5340753192453045, 12, C, (None, None)), (-3.8466157555147494e-08, 7, C, (P, None)),
    (-1.518915084028945, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (0.9874903982427428, 3, X, (None, None)),
    (0.30276923158083713, 13, C, (None, None)), (-1.2344025779069703e-08, 9, C, (P, None)),
    (-1.5285373641669306, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974482, 2, C, (P, None)), (1.3154183923927274, 3, X, (None, None)),
    (0.26433414134417993, 10, C, (None, None)), (-2.9111137145040915e-08, 10, C, (P, None)),
    (0.32502943815359825, 3, C, (None, H)), (-1.5707963267948966, 10000, X, (P, L)),
    (-0.7853981633974483, 2, C, (P, None)), (0.32503988573734804, 3, X, (None, None)),
]


def test_detect_sampled_projection_route_is_pinned(monkeypatch):
    # Iterations, status and branches exactly; alpha to 1e-14 mod pi, since
    # moments summed in another order may move the fit by a few ulps.
    loops = _count_loop_calls(monkeypatch)
    got = []
    for sv, su, cfg in _projection_sweep():
        r = detect_sampled(sv, su, cfg)
        assert [t.branch for t in r.trace[2:]] == [None] * (r.iterations - 2)
        got.append((r.alpha, r.iterations, r.status.value,
                    tuple(t.branch for t in r.trace[:2])))
    assert loops == []
    assert len(got) == len(PROJECTION_PINS)
    for (alpha, *rest), (want_alpha, *want_rest) in zip(got, PROJECTION_PINS):
        assert rest == want_rest
        assert angle_distance_mod_pi(alpha, want_alpha) <= 1e-14


def test_wrap_angle_used_for_result():
    v = recompose(Decomposition(1.0, 0.0, 1.0, 0.0))
    theta = 2.9  # wraps modulo pi to a small negative angle
    result = detect(v, total_rotate(v, theta), DetectorConfig(eps=1e-8))
    assert result.converged()
    assert angle_distance_mod_pi(result.alpha, wrap_angle(theta)) <= 1e-6


def test_detect_is_pinned():
    # alpha, iterations, status, trace and corrected of 1,235 detections,
    # byte for byte as detect gave them with its loop written inline:
    # random and unrelated pairs on four domains at scales 1e-3..1e3, some
    # capped at 30 iterations, and pure-saddle, pure-invariant, near-pure
    # and kicked inputs at quarter turns.
    rng = np.random.default_rng(2024)
    domains = (SymmetricDomain.square(1.0), SymmetricDomain.disk(1.0),
               SymmetricDomain.square(2.5), SymmetricDomain.disk(0.3))
    pairs = []
    for i in range(1200):
        domain = domains[i % 4]
        scale = 10.0 ** rng.uniform(-3, 3)
        v = LinearField(*(scale * rng.uniform(-1, 1, 4)), domain)
        if i % 5 == 4:
            u = LinearField(*(scale * rng.uniform(-1, 1, 4)), domain)
        else:
            u = total_rotate(v, math.pi - 2 * math.pi * rng.random())
        pairs.append((v, u, DetectorConfig(eps=(1e-2, 1e-4, 1e-6)[i % 3],
                                           max_iter=1000 if i % 7 else 30)))
    for dec in ((0.9, -0.3, 0.0, 0.0), (0.0, 0.0, 0.4, -0.7), (0.5, 0.0, 1.0, 0.0),
                (1e-5, 0.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)):
        v = recompose(Decomposition(*dec))
        for t in (0.0, 0.3, -1.2, math.pi / 2, math.pi / 4, -math.pi / 4, math.pi):
            pairs.append((v, total_rotate(v, t), DetectorConfig(eps=1e-6)))
    digest = hashlib.sha256()
    for v, u, cfg in pairs:
        r = detect(v, u, cfg)
        digest.update(repr((r.alpha, r.iterations, r.status.value, r.trace,
                            r.corrected.coefficients())).encode())
    assert digest.hexdigest() == (
        "e76fe3f12c1da103daf52de4e9789bc8ce1631e62eeec9fe3d5618a2a8b0f8dd")


def _seam_digest() -> str:
    # Caps 1 to 4 stop detect inside or just past the readings where the
    # branch rule can act.
    digest = hashlib.sha256()
    for dec in ((1.0, 0.0, 0.0, 0.0), (0.9, -0.3, 0.0, 0.0),   # pure saddle
                (0.0, 0.0, 0.4, -0.7),                          # pure invariant
                (1e-5, 0.0, 1.0, 0.0), (1.0, 0.0, 1e-5, 0.0),   # near pure
                (0.8, -0.3, 0.5, 0.9)):                         # generic
        v = recompose(Decomposition(*dec))
        for t in (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, 0.3):
            u = total_rotate(v, t)
            for eps in (1e-6, 0.1):
                for max_iter in (1, 2, 3, 4):
                    r = detect(v, u, DetectorConfig(eps=eps, max_iter=max_iter))
                    digest.update(repr((
                        r.alpha, r.iterations, r.status.value, type(r.trace).__name__,
                        r.trace, [type(e).__name__ for e in r.trace],
                        r.corrected.coefficients())).encode())
    return digest.hexdigest()


def test_detect_branch_seam_is_pinned():
    # A pure saddle at a quarter turn halves at reading 2 and then reads
    # exactly +0.0: the sign of that zero is part of the answer.
    r = detect(saddle(), total_rotate(saddle(), math.pi / 2), DetectorConfig(eps=1e-6))
    assert [e.branch for e in r.trace] == [None, "halve", None]
    assert repr(r.trace[2].phi) == "0.0"
    assert _seam_digest() == (
        "9d53e1dbe68982bf9b08c37ffb628b6715f0507a5471cbb793682daf003ad789")


def test_pinned_sweeps_keep_one_reading_per_iteration(monkeypatch):
    # Reruns the two pinned sweeps with every result kept: each of the
    # 1,235 detect and 96 projection results holds one trace entry per
    # reading.
    results = []

    def keeping(detector):
        def spy(*args):
            results.append(detector(*args))
            return results[-1]
        return spy

    module = sys.modules[__name__]
    monkeypatch.setattr(module, "detect", keeping(detect))
    monkeypatch.setattr(module, "detect_sampled", keeping(detect_sampled))
    test_detect_is_pinned()
    test_detect_sampled_projection_route_is_pinned(monkeypatch)
    assert len(results) == 1235 + 96
    assert all(len(r.trace) == r.iterations for r in results)


def test_detect_builds_no_trace_entry_until_the_trace_is_read():
    # With the collector off, every TraceEntry made stays listed by
    # gc.get_objects(): detect makes none of its 84 until .trace is read.
    v = LinearField(0.3, -0.8, 0.5, 0.1)
    u = total_rotate(v, 0.7)

    def entries() -> int:
        return sum(type(o) is TraceEntry for o in gc.get_objects())

    was_enabled = gc.isenabled()
    gc.disable()
    try:
        before = entries()
        r = detect(v, u, DetectorConfig(eps=1e-6))
        assert r.iterations == 84
        assert entries() == before
        assert len(r.trace) == 84
        assert entries() == before + 84
    finally:
        if was_enabled:
            gc.enable()


def _eager_trace(read, turn, cfg: DetectorConfig) -> tuple:
    """A loop's trace built reading by reading: read() the copy, turn(phi) it."""
    phi, alpha_acc, kicked, trace = math.pi, 0.0, False, []
    while abs(phi) > cfg.eps and len(trace) < cfg.max_iter:
        iteration = len(trace) + 1
        phi = read()
        alpha_acc += phi
        phi, alpha_acc, kicked, branch = _special_case(iteration, phi, alpha_acc, kicked)
        turn(phi)
        trace.append(TraceEntry(iteration, phi, alpha_acc, branch))
    return tuple(trace)


def _eager_linear_trace(v: LinearField, u: LinearField, cfg: DetectorConfig) -> tuple:
    """``detect``'s trace, read and turned on the scaled coordinates as it reads them."""
    moment = second_moment(v.domain)
    av, bv, cv, dv, _ = _unit_scaled(*_coordinates(v.a11, v.a12, v.a21, v.a22))
    au, bu, cu, du, _ = _unit_scaled(*_coordinates(u.a11, u.a12, u.a21, u.a22))

    def read() -> float:
        return math.atan2(moment * ((au * bv - bu * av) - (cu * dv - du * cv)),
                          moment * (au * av + bu * bv + cu * cv + du * dv))

    def turn(phi: float) -> None:
        nonlocal au, bu
        c2, s2 = math.cos(2.0 * phi), math.sin(2.0 * phi)
        au, bu = au * c2 - bu * s2, au * s2 + bu * c2

    return _eager_trace(read, turn, cfg)


def _eager_resampled_trace(v: SampledField, u: SampledField, cfg: DetectorConfig) -> tuple:
    """``_detect_by_resampling``'s trace, resampling the copy at the applied angle."""
    rotate = _resampler(u)
    current, applied = u, 0.0

    def turn(phi: float) -> None:
        nonlocal current, applied
        applied += phi
        current = rotate(applied)

    return _eager_trace(lambda: correlate_sampled(current, v).argument, turn, cfg)


def _trace_families():
    """(v, u) linear pairs: random, pure saddle, pure invariant, quarter turn, near pure."""
    rng = np.random.default_rng(1616)
    for _ in range(4):
        v = LinearField(*rng.uniform(-1, 1, 4))
        yield v, total_rotate(v, float(rng.uniform(-math.pi, math.pi)))
        yield v, LinearField(*rng.uniform(-1, 1, 4))
    for dec in ((0.9, -0.3, 0.0, 0.0), (0.0, 0.0, 0.4, -0.7),
                (1e-5, 0.0, 1.0, 0.0), (1.0, 0.0, 1e-5, 0.0)):
        v = recompose(Decomposition(*dec))
        for t in (0.0, 0.3, math.pi / 4, math.pi / 2, -math.pi / 2):
            yield v, total_rotate(v, t)


TRACE_CONFIGS = [DetectorConfig(eps=eps, max_iter=cap)
                 for eps in (0.1, 1e-2, 1e-4, 1e-6) for cap in (1, 2, 3, 4, 10000)]


def test_detect_trace_matches_an_eager_reference():
    for v, u in _trace_families():
        for cfg in TRACE_CONFIGS:
            r = detect(v, u, cfg)
            want = _eager_linear_trace(v, u, cfg)
            assert r.trace is r.trace
            assert type(r.trace) is tuple
            assert all(type(e) is TraceEntry for e in r.trace)
            assert repr(r.trace) == repr(want)
            assert len(r.trace) == r.iterations


def test_detection_results_compare_hash_replace_and_pickle_by_their_trace():
    v = LinearField(0.3, -0.8, 0.5, 0.1)
    u = total_rotate(v, 0.7)
    cfg = DetectorConfig(eps=1e-6)
    r, again = detect(v, u, cfg), detect(v, u, cfg)
    assert r == again and hash(r) == hash(again)
    assert r.trace == again.trace   # reading one side's trace changes neither
    assert r == again and hash(r) == hash(again)
    assert detect(v, total_rotate(u, 1e-3), cfg) != r
    moved = replace(r, corrected=v)
    assert moved.trace == r.trace and moved.corrected is v and moved != r
    assert replace(moved, corrected=r.corrected) == r
    for result in (detect(v, u, cfg), r):
        back = pickle.loads(pickle.dumps(result))
        assert back == result and hash(back) == hash(result)
        assert repr(back.trace) == repr(result.trace)


def test_detect_sampled_results_compare_by_value_and_do_not_hash():
    # Both routes: linear samples (projection) and bent ones (resample loop).
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    sv, su = sample(v, 16), sample(total_rotate(v, 0.4), 16)
    cfg = DetectorConfig(eps=1e-6)
    other = detect_sampled(sv, sample(total_rotate(v, 0.5), 16), cfg)
    for pattern in (su, _bent(su, 1e-3)):
        result = detect_sampled(sv, pattern, cfg)
        assert result == detect_sampled(sv, pattern, cfg)
        assert result != other
        with pytest.raises(TypeError):
            hash(result)
    assert hash(detect(v, total_rotate(v, 0.4), cfg)) == hash(detect(v, total_rotate(v, 0.4), cfg))


def test_detect_sampled_trace_matches_an_eager_reference(monkeypatch):
    # Both routes: the reference runs on the inputs detect_sampled hands
    # to detect (linear samples) or to the resample loop (bent samples).
    handed = []
    for name, reference in (("detect", _eager_linear_trace),
                            ("_detect_by_resampling", _eager_resampled_trace)):
        def spy(*args, inner=getattr(registration, name), reference=reference):
            handed.append((reference, args))
            return inner(*args)

        monkeypatch.setattr(registration, name, spy)
    pairs = [(sample(v, 16), sample(u, 16)) for v, u in list(_trace_families())[::3]]
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    bent = _bent(sample(v, 16), 1e-3)
    pairs += [(sample(v, 16), _bent(sample(total_rotate(v, 0.4), 16), 1e-3)), (bent, bent)]
    routes = set()
    for sv, su in pairs:
        for cfg in TRACE_CONFIGS[::2] + [TRACE_CONFIGS[-1]]:
            handed.clear()
            r = detect_sampled(sv, su, cfg)
            (reference, args), = handed
            routes.add(reference)
            assert r.trace is r.trace
            assert all(type(e) is TraceEntry for e in r.trace)
            assert repr(r.trace) == repr(reference(*args))
    assert routes == {_eager_linear_trace, _eager_resampled_trace}
