import gc
import hashlib
import math
import pickle
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from itertools import chain

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
from rotalign.correlation import second_moment
from rotalign.fields import _centers, _conjugate, _coordinates, _grid_values
from rotalign.registration import (
    _linear_fitter,
    _oracle_scores,
    _peak,
    _resampled_copy,
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
    for eps in (math.pi, 3.2):  # readings lie in (-pi, pi], so none would stop the loop
        with pytest.raises(ValueError, match="below pi"):
            DetectorConfig(eps=eps)
    assert DetectorConfig(eps=np.nextafter(math.pi, 0.0)).eps < math.pi
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


def _full_width_scores(v: LinearField, u: LinearField, answer: float) -> tuple:
    """The certificate's scores as one pass over the grid with the answer appended."""
    _, e = math.frexp(max(map(abs, v.coefficients() + u.coefficients())))
    v_mat = np.ldexp(v.matrix(), -e)
    a11, a12, a21, a22 = (math.ldexp(x, -e) for x in u.coefficients())
    step = math.pi / registration._ORACLE_GRID
    thetas = np.append(-0.5 * math.pi + step * np.arange(1, registration._ORACLE_GRID + 1), answer)
    b11, b12, b21, b22 = _conjugate(np.cos(thetas), -np.sin(thetas), a11, a12, a21, a22)
    dist_sq = ((b11 - v_mat[0, 0]) ** 2 + (b12 - v_mat[0, 1]) ** 2
               + (b21 - v_mat[1, 0]) ** 2 + (b22 - v_mat[1, 1]) ** 2)
    return dist_sq[-1], dist_sq[:-1].min()


def test_oracle_scan_has_the_bits_of_one_full_width_pass():
    def criterion_5_draws():
        rng = np.random.default_rng(1005)
        for _ in range(2000):
            v = LinearField(*rng.uniform(-1, 1, 4))
            yield v, total_rotate(v, math.pi - 2 * math.pi * rng.random())

    grid = [a for block in registration._ORACLE_BLOCKS for a in block]
    assert not any(a.flags.writeable for a in grid)
    assert sum(map(len, grid)) == 2 * registration._ORACLE_GRID
    for v, u in chain(_oracle_pairs(), criterion_5_draws()):
        answer = registration._half_saddle_angle(v, u)
        _, e = math.frexp(max(map(abs, v.coefficients() + u.coefficients())))
        scaled_v, scaled_u = (tuple(math.ldexp(x, -e) for x in f.coefficients()) for f in (v, u))
        got = _oracle_scores(answer, scaled_v, scaled_u)
        want = _full_width_scores(v, u, answer)
        assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("domain", [SymmetricDomain.square(0.75), UNIT_DISK], ids=["square", "disk"])
def test_oracle_refuses_an_answer_its_scan_beats(monkeypatch, domain):
    rng = np.random.default_rng(2404)
    for _ in range(5):
        v = LinearField(*rng.uniform(-1, 1, 4), domain)
        u = total_rotate(v, rng.uniform(-math.pi, math.pi))
        true = oracle_detect(v, u)
        # 1e-9 scores within the slack; 1e-3 is over six steps of the scan's pi/20001.
        monkeypatch.setattr(registration, "_half_saddle_angle", lambda v, u: true + 1e-9)
        assert oracle_detect(v, u) == true + 1e-9
        monkeypatch.setattr(registration, "_half_saddle_angle", lambda v, u: true + 1e-3)
        with pytest.raises(RuntimeError, match="scores worse than the oracle's scan"):
            oracle_detect(v, u)
        monkeypatch.undo()


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
    # detect_sampled projects the pattern, linear or bent by 1e-6.
    by_moments = _count_moment_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.35)
    cfg = DetectorConfig(eps=1e-4)
    sv, su, bent = sample(v, 256), sample(u, 256), _bent(sample(u, 256), 1e-6)
    results = [detect_sampled(sv, su, cfg), detect_sampled(sv, bent, cfg)]
    assert by_moments == []
    for result in results:
        assert result.converged()
        assert abs(result.alpha - 0.35) <= 1e-3


def test_detect_sampled_aligned_fires_kick(monkeypatch):
    # A sample against itself, linear or bent, projects to one field
    # twice, and detect reads an exactly zero bivector.
    by_moments = _count_moment_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    cfg = DetectorConfig(eps=1e-4)
    for bend in (0.0, 1e-6):
        s = _bent(sample(v, 64), bend)
        result = detect_sampled(s, s, cfg)
        assert result.converged()
        assert result.trace[0].branch == "perturb"
        assert [t.branch for t in result.trace].count("perturb") == 1
        assert angle_distance_mod_pi(result.alpha, 0.0) <= 1e-3
    assert by_moments == []


def test_detect_sampled_refuses_a_pattern_whose_copy_overflows():
    # The turned copy of a saddle on the square peaks up to sqrt(2) above
    # its samples: at c = 1.55e308 (peak 1.45e308) the laid-out copy
    # overflows, and bent by 1e-6 (still within _LINEAR_TOL of linear)
    # so does it at 1.7e308.
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
    for theta in (0.0, 0.3, -0.3, math.pi / 4, math.pi / 2, -math.pi / 2, 2.5, math.pi):
        assert np.array_equal(_resampled_copy(f, 0, theta).values,
                              _resample_rotated(f, theta).values)


def test_detect_sampled_scale_invariance(monkeypatch):
    # Every route: a linear pattern and one bent by 1e-3 go through the
    # projection, the bent one's copy resampled; a constant flow, whose
    # projection is zero, is answered by its moments.
    by_moments = _count_moment_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.3)
    cfg = DetectorConfig(eps=1e-6)
    for bend, route in ((0.0, 0), (1e-3, 0), (None, 1)):
        def pair(k):
            if bend is None:
                return _flow(32, 0.0, k), _flow(32, 0.3, k)
            return sample(scaled(v, k), 32), _bent(sample(scaled(u, k), 32), k * bend)

        by_moments.clear()
        base = detect_sampled(*pair(1.0), cfg)
        assert base.converged()
        assert len(by_moments) == route
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
        assert len(by_moments) == 7 * route


def _count_moment_calls(monkeypatch) -> list:
    """Spy on the moment route: the returned list gains one entry per call."""
    calls = []
    route = registration._detect_by_moments

    def spy(*args):
        calls.append(args)
        return route(*args)

    monkeypatch.setattr(registration, "_detect_by_moments", spy)
    return calls


def _flow(n: int, offset: float = 0.0, k: float = 1.0) -> SampledField:
    """k * (0.6, -0.3) turned by offset, constant on the unit disk: its projection is zero."""
    c, s = math.cos(offset), math.sin(offset)
    a1, a2 = k * (0.6 * c + 0.3 * s), k * (0.6 * s - 0.3 * c)
    return sample(lambda x1, x2: (np.full_like(x1, a1), np.full_like(x2, a2)), n, UNIT_DISK)


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


def _degenerate_pairs(offsets, n: int = 40, k: float = 1.0):
    """(kind, v, u, offset): a constant flow and the double winding on the unit square
    and on disks of radius 1 and 2.5, each against its copy turned by every offset,
    all times k.  Neither has a linear part."""
    kinds = (("flow", lambda x1, x2: (np.full_like(x1, 0.6 * k), np.full_like(x2, -0.3 * k))),
             ("winding", lambda x1, x2: tuple(k * w for w in double_winding()(x1, x2))))
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK, SymmetricDomain.disk(2.5)):
        for kind, field in kinds:
            v = sample(field, n, domain)
            for offset in offsets:
                yield kind, v, sample(_turned(field, offset), n, domain), offset


@pytest.mark.parametrize("route", ["projection", "moments"])
def test_detect_sampled_swapping_samples_negates_offset(monkeypatch, route):
    # Off the kick, the swapped projection mirrors every step of the
    # forward one (gaps measured up to 4.4e-16).  The moment route reads
    # the conjugate sum, so its answer is negated bit for bit.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8)
    if route == "projection":
        domains = (SymmetricDomain.square(1.0), UNIT_DISK, SymmetricDomain.square(2.5),
                   SymmetricDomain.disk(0.6))
        pairs = [(sample(v, 32), sample(total_rotate(v, offset), 32))
                 for v, offset in _offset_fields(domains, 12)]
    else:
        pairs = [(v, u) for _, v, u, _ in _degenerate_pairs((0.4, -1.3, 2.9), n=32)]
    for sv, su in pairs:
        forward = detect_sampled(sv, su, cfg)
        backward = detect_sampled(su, sv, cfg)
        assert forward.converged() and backward.converged()
        if route == "projection":
            assert angle_distance_mod_pi(backward.alpha, -forward.alpha) <= 1e-12
        else:
            assert backward.alpha == -forward.alpha
    assert len(by_moments) == (0 if route == "projection" else 2 * len(pairs))


def test_detect_sampled_is_rotation_equivariant(monkeypatch):
    # With energy ratios in [0.5, 2] the loop's gain g = 2*n1/(n1 + n2)
    # is at least 2/3, so each run stops within eps*|1 - g|/g <= eps/2 of
    # its offset and two runs differ by at most eps (0.77 eps measured).
    by_moments = _count_moment_calls(monkeypatch)
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
    assert by_moments == []


# 24 offsets spaced evenly on (-pi, pi], pi included.
WHOLE_TURN = [-math.pi + 2.0 * math.pi * (i + 1) / 24 for i in range(24)]


def test_detect_sampled_answers_flows_and_windings_by_moments_over_the_whole_turn(monkeypatch):
    # A constant flow (class 1) and the double winding (class -1, the
    # paper's counterexample) project to the zero linear field; their
    # moments answer the whole turn, not a turn modulo pi, in 0 iterations,
    # with the same bits at every power-of-two scale.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8)
    for n in (16, 40, 64):
        base = [detect_sampled(v, u, cfg) for _, v, u, _ in _degenerate_pairs(WHOLE_TURN, n)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for k in (2.0 ** -300, 2.0 ** 300):
                for want, (kind, v, u, offset) in zip(base, _degenerate_pairs(WHOLE_TURN, n, k)):
                    got = detect_sampled(v, u, cfg)
                    assert abs(wrap_angle(got.alpha - offset)) <= 1e-12, (kind, v.domain, offset)
                    assert got.alpha == want.alpha
                    assert (got.iterations, got.trace, got.status) == (
                        0, (), DetectionStatus.CONVERGED)
                    assert type(vars(got)["_corrected"]) is registration._Deferred
                    assert np.array_equal(got.corrected.values, want.corrected.values * k)
    assert len(by_moments) == 3 * 3 * 6 * 24


def test_detect_sampled_answers_a_flow_beside_a_class_3_term_on_the_square():
    # conj(z)^2 is class 3, which the square's four-fold grid mixes with
    # class -1 (its M_02 is 0.43 of its M_20 there), but not with the
    # flow's class 1: the flow's moments answer, however large the term.
    cfg = DetectorConfig(eps=1e-8)
    square = SymmetricDomain.square(1.0)
    for w in (0.5, 2.0, 10.0):
        def field(x1, x2, w=w):
            return 0.6 + w * (x1 * x1 - x2 * x2), -0.3 - 2.0 * w * x1 * x2

        v = sample(field, 40, square)
        for offset in (0.4, 2.9, -2.2):
            got = detect_sampled(v, sample(_turned(field, offset), 40, square), cfg)
            assert got.iterations == 0
            assert abs(wrap_angle(got.alpha - offset)) <= 1e-12


def _with_term(field, term):
    """field plus the complex function term of z = x1 + i x2, as a vector field."""
    def summed(x1, x2):
        f1, f2 = field(x1, x2)
        extra = term(x1 + 1j * x2)
        return f1 + extra.real, f2 + extra.imag

    return summed


def test_detect_sampled_answers_a_winding_beside_a_class_3_term():
    # conj(z)^2 leaks into M_02 through a four-fold grid (0.43 of it on the
    # square, 2e-3 on the disk at n = 40), which M_02 alone read as up to
    # 0.13 rad of error at w = 0.3.  The z^2 coefficient of the fit by z^2
    # and conj(z)^2 holds none of it, so the winding answers to rounding.
    cfg = DetectorConfig(eps=1e-8)
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
        for w in (0.3, 1.0, 4.0):
            field = _with_term(double_winding(), lambda z, w=w: w * np.conj(z) ** 2)
            v = sample(field, 40, domain)
            for offset in (0.4, 1.1, 2.9, -2.2):
                got = detect_sampled(v, sample(_turned(field, offset), 40, domain), cfg)
                assert (got.iterations, got.status) == (0, DetectionStatus.CONVERGED)
                assert abs(wrap_angle(got.alpha - offset)) <= 1e-12, (domain, w, offset)


def test_detect_sampled_flags_moments_that_no_turn_matches():
    # A grid mixes class 3 into class -1 and class -3 into class 1 from
    # degree 4 on, which no moment up to degree 2 can take out: the answer
    # is returned, but not as converged.  So is a pattern of another size.
    cfg = DetectorConfig(eps=1e-8)
    leaks = [(double_winding(), lambda z: 0.01 * z * np.conj(z) ** 3),
             (lambda x1, x2: (np.full_like(x1, 0.6), np.full_like(x2, -0.3)),
              lambda z: 0.01 * z ** 4)]
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
        for base, term in leaks:
            field = _with_term(base, term)
            v = sample(field, 40, domain)
            for offset in (0.4, 2.9):
                got = detect_sampled(v, sample(_turned(field, offset), 40, domain), cfg)
                assert (got.iterations, got.status) == (0, DetectionStatus.MAX_ITER_EXCEEDED)
                assert abs(wrap_angle(got.alpha - offset)) <= 1e-2
    for kind, v, u, offset in _degenerate_pairs((0.4, -2.9), n=32):
        larger = SampledField(u.n, u.domain, 1.5 * u.values, u.mask)
        got = detect_sampled(v, larger, cfg)
        assert got.status is DetectionStatus.MAX_ITER_EXCEEDED
        assert abs(wrap_angle(got.alpha - offset)) <= 1e-12


def test_detect_sampled_refuses_pairs_no_moment_answers():
    # A flow against a linear field: the linear field has no class 1 or
    # class -1 moment.  A pure conj(z)^2 pair: its class -1 moment is
    # only class 3 leaking through the grid, which the fit by z^2 and
    # conj(z)^2 takes out.  The double winding on the square's 2-grid,
    # whose four cells do not tell z^2 from conj(z)^2.  A zero sample on
    # either side.
    cfg = DetectorConfig(eps=1e-8)
    flow = lambda x1, x2: (np.full_like(x1, 0.6), np.full_like(x2, -0.3))
    conj_z2 = lambda x1, x2: (x1 * x1 - x2 * x2, -2.0 * x1 * x2)
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
        linear = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
        zero = sample(LinearField(0.0, 0.0, 0.0, 0.0, domain), 40)
        pairs = [(sample(flow, 40, domain), sample(linear, 40)),
                 (sample(linear, 40), sample(_turned(flow, 0.4), 40, domain)),
                 (sample(conj_z2, 40, domain), sample(_turned(conj_z2, 0.4), 40, domain))]
        if domain.kind == "square":
            pairs.append((sample(double_winding(), 2, domain),
                          sample(_turned(double_winding(), 0.4), 2, domain)))
        for sv, su in pairs:
            with pytest.raises(DegenerateZeroFieldError, match="no grid moment"):
                detect_sampled(sv, su, cfg)
        with pytest.raises(DegenerateZeroFieldError, match="against the zero field"):
            detect_sampled(zero, sample(flow, 40, domain), cfg)
        with pytest.raises(DegenerateZeroFieldError, match="a zero pattern"):
            detect_sampled(sample(flow, 40, domain), zero, cfg)


def _cut_pairs(offsets, field=None):
    """(v, u, offset): a field (by default a linear one) and its turned copy on the
    32-grid of the unit square without its [:8, :8] corner (rows not mirrored) or
    its [:, :8] columns (rows mirrored, unequal x1 and x2 weights)."""
    if field is None:
        linear = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
        field, turn = linear, lambda t: total_rotate(linear, t)
    else:
        turn = lambda t: _turned(field, t)
    square = SymmetricDomain.square(1.0)
    for cut in (np.s_[:8, :8], np.s_[:, :8]):
        mask = np.ones((32, 32), bool)
        mask[cut] = False
        for offset in offsets:
            yield (*(SampledField(32, square, np.where(mask[..., None], s.values, 0.0), mask)
                     for s in (sample(f, 32, square) for f in (field, turn(offset)))), offset)


def _affine_fit(s: SampledField) -> np.ndarray:
    """[[c1, c2], [a11, a21], [a12, a22]]: the least-squares fit of s by 1, x1 and x2."""
    x1, x2 = np.meshgrid(s.centers(), s.centers())
    design = np.stack([np.ones(np.count_nonzero(s.mask)), x1[s.mask], x2[s.mask]], axis=1)
    return np.linalg.lstsq(design, s.values[s.mask], rcond=None)[0]


def test_detect_sampled_fits_cut_masks_by_least_squares(monkeypatch):
    # Any mask with three cells off one line is fitted by least squares
    # with a constant, so a linear pair on a cut mask is fitted exactly and
    # answered by detect on its projections: 2.3e-8 to 3.0e-8 off, where
    # the resample loop that took these masks before was up to 5.7e-5 off.
    # The mask's centroid is off the origin, so a linear fit alone gives a
    # constant flow the rank-one field c g^T, which a turn does not carry
    # into the turned flow's (turned by 2.8, detect on those capped after
    # 10,000 readings at 2.8 - pi).  The constant takes the flow whole,
    # leaving no linear part, and the moments answer the whole turn.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-6)
    for sv, su, offset in _cut_pairs((0.4, 1.2, 2.8)):
        fit, share, e = _linear_fitter(sv)(sv.values)
        want = _affine_fit(sv)
        assert np.allclose(want[0], 0.0, rtol=0.0, atol=1e-14)
        assert np.allclose(np.ldexp(fit.matrix(), e), want[1:].T, rtol=0.0, atol=1e-14)
        assert abs(1.0 - share) <= 1e-14
        got = detect_sampled(sv, su, cfg)
        assert got.converged()
        assert angle_distance_mod_pi(got.alpha, offset) <= 1e-5
        assert vars(got)["_corrected"].func is registration._sampled_copy
    assert by_moments == []
    flow = lambda x1, x2: (np.full_like(x1, 0.6), np.full_like(x2, -0.3))
    for sv, su, offset in _cut_pairs((0.4, 1.2, 2.8), flow):
        assert _linear_fitter(sv)(sv.values) == (None, 0.0, 0)
        got = detect_sampled(sv, su, DetectorConfig(eps=1e-8))
        assert (got.iterations, got.status) == (0, DetectionStatus.CONVERGED)
        assert abs(wrap_angle(got.alpha - offset)) <= 1e-12
    assert len(by_moments) == 6


def test_detect_sampled_projects_affine_fields_on_cut_masks(monkeypatch):
    # A constant beside a linear part: the fit takes the constant out and
    # detect answers on the linear parts, which turn as a linear field
    # does.  The pattern is not its linear part, so its copy is resampled.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8)
    a11, a12, a21, a22 = recompose(Decomposition(0.7, -0.2, 0.5, 0.4)).coefficients()

    def affine(x1, x2):
        return a11 * x1 + a12 * x2 + 0.8, a21 * x1 + a22 * x2 - 0.5

    for sv, su, offset in _cut_pairs((0.4, 1.2, 2.8), affine):
        fit, share, e = _linear_fitter(sv)(sv.values)
        want = _affine_fit(sv)
        assert np.allclose(np.ldexp(fit.matrix(), e), want[1:].T, rtol=0.0, atol=1e-13)
        residual = sv.values - np.where(sv.mask[..., None], _grid_values(
            fit, sv.centers(), sv.centers(), sv.mask), 0.0)
        assert math.isclose(1.0 - share, np.sum(residual ** 2) / np.sum(sv.values ** 2),
                            rel_tol=1e-9)
        got = detect_sampled(sv, su, cfg)
        assert got.converged()
        assert angle_distance_mod_pi(got.alpha, offset) <= 1e-7
        assert vars(got)["_corrected"].func is registration._resampled_copy
    assert by_moments == []


@pytest.mark.xfail(strict=True, reason="ROADMAP item 9, a double winding on a cut mask: off "
                   "the origin's symmetry the winding has a linear part, so it takes the "
                   "projection route, where nothing asks whether the pattern is a turned copy")
def test_detect_sampled_does_not_misanswer_a_winding_on_a_cut_mask():
    square = SymmetricDomain.square(1.0)
    mask = np.ones((32, 32), bool)
    mask[:8, :8] = False
    v, u = (SampledField(32, square, np.where(mask[..., None], sample(
        double_winding(t), 32, square).values, 0.0), mask) for t in (0.0, 0.4))
    got = detect_sampled(v, u, DetectorConfig(eps=1e-6))
    assert not got.converged() or abs(wrap_angle(got.alpha - 0.4)) <= 1e-6


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), SymmetricDomain.disk(2.5)])
@pytest.mark.parametrize("n", [8, 33, 512])
def test_linear_fit_recovers_sampled_coefficients(domain, n):
    rng = np.random.default_rng(n)
    for scale in (1.0, 1e-3, 7.5):
        f = LinearField(*(scale * rng.uniform(-1, 1, 4)), domain)
        s = sample(f, n)
        # The fit is of the samples times 2**-e.
        fit, share, e = _linear_fitter(s)(s.values)
        assert 1.0 - share <= registration._LINEAR_TOL ** 2
        assert fit.domain == domain
        worst = max(abs(math.ldexp(a, e) - b)
                    for a, b in zip(fit.coefficients(), f.coefficients()))
        assert worst <= 1e-14 * max(map(abs, f.coefficients()))



def _linear_by_whole_grid_residual(s: SampledField) -> bool:
    """Whether the whole-grid least-squares fit reproduces s to ``_LINEAR_TOL``.

    The reference for the laid-out copy, written out over full arrays:
    scale by the peak's power of two, fit [x1, x2] over the masked cells
    by ``np.linalg.lstsq``, the fit's values zero outside the mask, and
    the residual over every cell.
    """
    w = np.ldexp(s.values, -math.frexp(np.abs(s.values).max())[1])
    x1, x2 = np.meshgrid(s.centers(), s.centers())
    design = np.stack([x1[s.mask], x2[s.mask]], axis=1)
    along_x1, along_x2 = np.linalg.lstsq(design, w[s.mask], rcond=None)[0]
    fit = np.where(s.mask[..., None], x1[..., None] * along_x1 + x2[..., None] * along_x2, 0.0)
    tol = registration._LINEAR_TOL
    return np.sum((w - fit) ** 2) <= tol * tol * np.sum(w * w)


def _routing_pairs():
    """(v, u) sample pairs around the linear bound and on unusual masks.

    A bend of b leaves a relative residual of about 0.42 b on the square
    and 0.30 b on the disk, so the bends fall on both sides of
    ``_LINEAR_TOL`` = 1e-6, at least 16% from it.
    """
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
        field = LinearField(*v.coefficients(), domain)
        for n in (8, 33, 512):
            sv, su = sample(field, n), sample(total_rotate(field, 0.4), n)
            for bend in (0.0, 1e-6, 2e-6, 4e-6, 1e-5):
                yield sv, _bent(su, bend)
                yield _bent(sv, bend), su
    # Masks other than a domain's: a disk of radius 0.3 on the unit
    # square's 96-cell grid leaves the first row block wholly outside;
    # dropping the left 20 columns of a disk leaves its rows mirrored in
    # x2 but its x1 and x2 weights unequal, and its transpose is not
    # mirrored.
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
        for bend in (0.0, 1e-5):
            yield sv, _bent(su, bend)


def test_detect_sampled_routes_by_the_whole_grid_residual(monkeypatch):
    # Every mask takes the projection.  The pattern's copy is laid out
    # from its projection exactly when the whole-grid residual is within
    # _LINEAR_TOL, as the Pythagorean residual says, and resampled
    # otherwise; the field's residual does not route.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-6, max_iter=1)
    routes = []
    for sv, su in _routing_pairs():
        result = detect_sampled(sv, su, cfg)
        want = "laid out" if _linear_by_whole_grid_residual(su) else "resampled"
        build = vars(result)["_corrected"].func
        assert build is {"laid out": registration._sampled_copy,
                         "resampled": registration._resampled_copy}[want]
        routes.append((want, _linear_by_whole_grid_residual(sv)))
    assert by_moments == []
    assert {route for route, _ in routes} == {"laid out", "resampled"}
    assert {linear for _, linear in routes} == {True, False}


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
    fit, share, e = _linear_fitter(s)(s.values)
    assert e == _peak(s.values)[1]
    scaled_s = SampledField(s.n, s.domain, np.ldexp(s.values, -e), s.mask)
    want, want_share, zero = _linear_fitter(scaled_s)(scaled_s.values)
    assert zero == 0
    assert share.hex() == want_share.hex()
    assert [x.hex() for x in fit.coefficients()] == [x.hex() for x in want.coefficients()]


def test_linear_fit_rescales_its_sums_exactly(monkeypatch):
    # A sample at 2**600 lies outside the window for unscaled sums, so
    # every block is scaled by the sample's exponent, although on the disk
    # the first block's rows are the narrowest and its peak is smaller.
    # Dyadic centers and values make every sum exact, so the fit must
    # equal a one-block fit, scaled once, bit for bit.
    s = sample(LinearField(*(2.0 ** 600 * a for a in (2.25, 0.25, -0.5, 0.25)), UNIT_DISK), 256)
    assert _peak(s.values[:32])[1] < _peak(s.values)[1]
    fit, share, e = _linear_fitter(s)(s.values)
    monkeypatch.setattr(registration, "_BLOCK_ROWS", s.n)
    want, want_share, want_e = _linear_fitter(s)(s.values)
    assert e == want_e == _peak(s.values)[1]
    assert fit.coefficients() == want.coefficients()
    assert share == want_share
    assert [math.ldexp(a, e - 600) for a in fit.coefficients()] == [2.25, 0.25, -0.5, 0.25]


def _fit_bits(s: SampledField) -> tuple:
    """The fit of s as hex strings: its coefficients times 2**exp and its share, and exp."""
    fit, share, e = _linear_fitter(s)(s.values)
    return [math.ldexp(a, e).hex() for a in fit.coefficients()], share.hex(), e


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), SymmetricDomain.disk(2.0 ** -20)])
def test_linear_fit_matches_the_scaled_fit_at_the_window_edges(domain):
    # The samples are summed unscaled while their energy E and E / W lie
    # in (2**-900, 2**900).  W is above 1 on the unit square and below 1 on
    # the small disk, so the two domains meet both bounds of both ends.
    # Just inside an end the fit keeps exp 0, just outside it reads the
    # peak; either way its bits are those of a fit of the samples scaled
    # by the peak's power of two.
    field = recompose(Decomposition(0.3, -0.2, 0.5, 0.4), domain)
    base = sample(field, 64)
    weight = float(np.sum(np.where(base.mask, base.centers()[None, :] ** 2, 0.0)))
    energy = float(np.vdot(base.values, base.values))
    assert (weight > 1.0) is (domain.kind == "square")
    window = 2.0 ** 900
    for edge in (max(1.0, weight) / window, min(1.0, weight) * window):
        for factor in (0.99, 1.01):
            values = base.values * math.sqrt(edge * factor / energy)
            assert (float(np.vdot(values, values)) > edge) == (factor > 1.0)
            inside = (factor > 1.0) == (edge < 1.0)
            s = SampledField(base.n, domain, values, base.mask)
            coeffs, share, e = _fit_bits(s)
            peak_exp = _peak(values)[1]
            assert e == (0 if inside else peak_exp)
            scaled_s = SampledField(s.n, domain, np.ldexp(values, -peak_exp), s.mask)
            want_coeffs, want_share, zero = _fit_bits(scaled_s)
            assert zero == 0
            assert share == want_share
            assert coeffs == [math.ldexp(float.fromhex(a), peak_exp).hex() for a in want_coeffs]


def test_detect_sampled_answers_a_mixed_scale_sample_without_a_warning():
    # The first components peak at 2**400 and the second lie near 1e-305,
    # so the samples are summed unscaled and the small components'
    # products underflow, where scaling by the peak's power of two would
    # flush them to zero.  The answer is the one without the small
    # components, bit for bit, and no warning is raised.
    rng = np.random.default_rng(2323)
    big, small = 2.0 ** 400, 1e-305
    cfg = DetectorConfig(eps=1e-8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for domain in (SymmetricDomain.square(1.0), UNIT_DISK):
            a11, a12, a21, a22, b11, b12, b21, b22 = rng.uniform(-1.0, 1.0, 8)
            sv, su, sv_big, su_big = (
                sample(LinearField(big * p11, big * p12, q * p21, q * p22, domain), 256)
                for q in (small, 0.0)
                for p11, p12, p21, p22 in ((a11, a12, a21, a22), (b11, b12, b21, b22)))
            assert _linear_fitter(sv)(sv.values)[2] == 0
            got = detect_sampled(sv, su, cfg)
            want = detect_sampled(sv_big, su_big, cfg)
            assert got.alpha.hex() == want.alpha.hex()
            assert (got.iterations, got.status) == (want.iterations, want.status)
            assert np.isfinite(got.corrected.values).all()


def _count_peak_calls(monkeypatch) -> list:
    """Spy on ``registration._peak``: the returned list gains one entry per call."""
    calls = []
    peak = registration._peak

    def spy(values):
        calls.append(values.shape)
        return peak(values)

    monkeypatch.setattr(registration, "_peak", spy)
    return calls


def test_detect_sampled_reads_the_peak_only_where_the_window_cannot_answer(monkeypatch):
    # A linear pair in the window is fitted unscaled, so no peak is read;
    # the moment route reads both peaks to scale its samples, and a sample
    # outside the window has its peak read for the scaled traversal.
    peaks = _count_peak_calls(monkeypatch)
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    cfg = DetectorConfig(eps=1e-6)
    result = detect_sampled(sample(v, 256), sample(total_rotate(v, 0.7), 256), cfg)
    result.corrected
    assert peaks == []
    detect_sampled(_flow(32), _flow(32, 0.4), cfg)
    assert len(peaks) == 2
    peaks.clear()
    tiny = scaled(v, 2.0 ** -600)
    detect_sampled(sample(tiny, 64), sample(total_rotate(tiny, 0.7), 64), cfg)
    assert len(peaks) == 2


def test_the_shared_mask_keeps_its_constants():
    # The mask sample shares on a (domain, n) grid gets its terms once, as
    # read-only arrays equal to _grid_terms of it.  A writable copy of the
    # mask and a cut read-only mask bypass the cache, and both are fitted.
    domain = SymmetricDomain.disk(0.91)
    field = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
    cached = registration._shared_grid_terms
    before = cached.cache_info()
    sv, su = sample(field, 48), sample(total_rotate(field, 0.3), 48)
    _linear_fitter(sv)
    _linear_fitter(su)
    after = cached.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
    x, ones_x2, count, s1, s2, w1, w2, w12 = kept = cached(domain, 48)
    want = registration._grid_terms(domain, 48, sv.mask)
    assert [a.tobytes() for a in kept[:2]] == [a.tobytes() for a in want[:2]]
    assert [w.hex() for w in kept[2:]] == [w.hex() for w in want[2:]]
    assert count == np.count_nonzero(sv.mask)
    assert (s1, s2, w1, w12) == (0.0, 0.0, w2, 0.0)
    assert not (x.flags.writeable or ones_x2.flags.writeable)
    writable = sv.mask.copy()
    cut = sv.mask.copy()
    cut[:, :8] = False
    cut.flags.writeable = False
    for mask in (writable, cut):
        other = SampledField(sv.n, domain, np.where(mask[..., None], sv.values, 0.0), mask)
        before = cached.cache_info()
        fit = _linear_fitter(other)(other.values)
        assert cached.cache_info() == before
        assert fit[0] is not None
        _, _, count, s1, s2, w1, w2, w12 = registration._grid_terms(domain, 48, mask)
        assert count == np.count_nonzero(mask)
        assert math.isclose(w1, np.sum(np.where(mask, x * x, 0.0)), rel_tol=1e-12)
        assert math.isclose(w2, np.sum(np.where(mask.T, x * x, 0.0)), rel_tol=1e-12)
        # Sums odd in x1 are 0 while the columns mirror, and in x2 while the rows do.
        want_s1 = 0.0 if mask is writable else float(np.sum(np.where(mask, x, 0.0)))
        assert math.isclose(s1, want_s1, rel_tol=1e-12) and s1 == 0.0 or mask is cut
        assert s2 == w12 == 0.0


def test_the_kept_constants_let_their_mask_go():
    # The cache keys on the grid, not on the mask: the shared mask is still
    # collected, and the kept terms serve the next mask sample builds there.
    domain = SymmetricDomain.disk(0.91)
    field = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
    cached = registration._shared_grid_terms
    sv = sample(field, 48)
    _linear_fitter(sv)
    kept = cached(domain, 48)
    mask = weakref.ref(sv.mask)
    del sv
    gc.collect()
    assert mask() is None
    again = sample(field, 48)
    before = cached.cache_info()
    _linear_fitter(again)
    assert cached.cache_info().hits == before.hits + 1
    want = registration._grid_terms(domain, 48, again.mask)
    assert [a.tobytes() for a in kept[:2]] == [a.tobytes() for a in want[:2]]
    assert kept[2:] == want[2:]


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
    by_moments = _count_moment_calls(monkeypatch)
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
    assert by_moments == []
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
    # detect and every detect_sampled route: read later, the copy has the
    # bytes it has when built during the call.  detect and the laid-out
    # copy defer it exactly when the pattern's exponent is below the top
    # four, and the resampled copy (a 1e-3 bend, or a constant flow
    # answered by its moments) below the top one, where no copy can overflow.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.7)
    cfg = DetectorConfig(eps=1e-6)
    size = max(map(abs, u.coefficients()))
    top = sys.float_info.max_exp
    kinds = set()
    for k in COPY_SCALES:
        pattern = scaled(u, k / size)
        exp = math.frexp(max(map(abs, _coordinates(*pattern.coefficients()))))[1]
        cases = [("detect", lambda p=pattern: detect(v, p, cfg), exp < top - 3)]
        for kind, bend, below in (("laid out", 0.0, top - 3), ("resampled", 1e-3, top)):
            su = _bent(sample(pattern, 32), bend * k / size)
            exp = math.frexp(np.abs(su.values).max())[1]
            cases.append((kind, lambda su=su: detect_sampled(sample(v, 32), su, cfg), exp < below))
        flow = _flow(32, 0.7, 2.5 * k)
        exp = math.frexp(np.abs(flow.values).max())[1]
        cases.append(("moments", lambda flow=flow: detect_sampled(_flow(32), flow, cfg), exp < top))
        for kind, call, defers in cases:
            r = call()
            assert (type(vars(r)["_corrected"]) is registration._Deferred) == defers
            kinds.add((kind, defers))
            with monkeypatch.context() as m:
                _eager_copies(m)
                now = call().corrected
            if isinstance(now, LinearField):
                assert repr(r.corrected) == repr(now)
            else:
                assert r.corrected.values.tobytes() == now.values.tobytes()
                assert r.corrected.mask is now.mask
    assert kinds == {(kind, defers) for kind in ("detect", "laid out", "resampled", "moments")
                     for defers in (True, False)}


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


def _turned_flow(k: float, t: float):
    """k times a small linear field plus the flow (0, 1), totally turned by t."""
    c, s = math.cos(t), math.sin(t)

    def field(x1, x2):
        y1, y2 = c * x1 + s * x2, -s * x1 + c * x2
        w1 = 0.05 * y1 - 0.02 * y2
        w2 = 0.03 * y1 + 0.04 * y2 + 1.0
        return k * c * w1 - k * s * w2, k * s * w1 + k * c * w2

    return field


def test_detect_sampled_refuses_during_the_call_a_copy_that_outgrows_its_samples():
    # Both routes.  The moments: a constant flow (k, k) turned onto (0, 1)
    # peaks sqrt(2) times above its samples.  The projection: a flow
    # plus a small linear part, an eighth of a turn away, is not linear,
    # so its copy is resampled; it peaks 1.37 times above its samples.
    # Each overflows at a peak in the top exponent and is refused during
    # the call; below that, each copy is returned, above its samples, and
    # the projection's waits until it is read.
    cfg = DetectorConfig(eps=1e-6)

    def up(k):
        return sample(lambda x1, x2: (np.zeros_like(x1), np.full_like(x2, k)), 16, UNIT_DISK)

    field = sample(_turned_flow(1.0, 0.0), 32, UNIT_DISK)

    def flow(k):
        return sample(lambda x1, x2: (np.full_like(x1, k), np.full_like(x2, k)), 16, UNIT_DISK)

    def flow_sum(k):
        return sample(_turned_flow(k, -math.pi / 4), 32, UNIT_DISK)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for v, u in ((up(1.0), flow(1.3e308)), (field, flow_sum(1.75e308))):
            with pytest.raises(ValueError, match="pattern samples .* too large"):
                detect_sampled(v, u, cfg)
        # The moment route converges on a pattern of the field's size.
        returned = [(detect_sampled(v, u, cfg), u, ratio, defers) for v, u, ratio, defers in (
            (up(math.sqrt(2.0) * 1.2e308), flow(1.2e308), 1.414, False),
            (field, flow_sum(1.2e308), 1.368, False),
            (field, flow_sum(2.0 ** 1016), 1.368, True))]
    for r, u, ratio, defers in returned:
        assert (type(vars(r)["_corrected"]) is registration._Deferred) == defers
        assert r.converged()
        assert np.isfinite(r.corrected.values).all()
        assert np.abs(r.corrected.values).max() >= ratio * np.abs(u.values).max()


def _route_pairs():
    """(v, u, resampled) on each route: projection with a laid-out or a resampled copy, moments.

    The moment route's copy is resampled from the pattern too.
    """
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    yield sample(v, 32), sample(total_rotate(v, 0.4), 32), False
    yield sample(v, 32), _bent(sample(total_rotate(v, 0.4), 32), 1e-3), True
    yield _flow(32), _flow(32, 0.4), True


def test_detect_sampled_results_hold_no_sample_values():
    # Every route: once the samples are dropped, their values are freed,
    # and the copy is still there to read.  A pattern whose copy is
    # resampled (a bent one, or any answered by moments) is the exception: it is
    # held until the copy is read.
    cfg = DetectorConfig(eps=1e-6, max_iter=6)
    for sv, su, resampled in _route_pairs():
        refs = [weakref.ref(sv.values), weakref.ref(su.values)]
        result = detect_sampled(sv, su, cfg)
        want = detect_sampled(sv, su, cfg).corrected.values
        del sv, su
        gc.collect()
        assert [ref() is None for ref in refs] == [True, not resampled]
        assert result.corrected.values.tobytes() == want.tobytes()
        gc.collect()
        assert [ref() for ref in refs] == [None, None]


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
    # Every route: the copies the detector builds from finite samples are
    # not checked again; samples handed in still are.
    checks = []
    check = SampledField.__post_init__
    pairs = list(_route_pairs())
    monkeypatch.setattr(SampledField, "__post_init__",
                        lambda self: checks.append(self) or check(self))
    for sv, su, _ in pairs:
        result = detect_sampled(sv, su, DetectorConfig(eps=1e-6, max_iter=6))
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
    by_moments = _count_moment_calls(monkeypatch)
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
    assert by_moments == []


def _turned(field, t: float):
    """The closure field totally rotated by t: R(t) f(R(-t) x)."""
    c, s = math.cos(t), math.sin(t)

    def turned(x1, x2):
        w1, w2 = field(c * x1 + s * x2, -s * x1 + c * x2)
        return c * w1 - s * w2, s * w1 + c * w2

    return turned


# Terms added to a linear field: class k = -1, 0 and 1 of the power
# series, and none where the samples get noise instead.
NONLINEAR_TERMS = {
    "z^2": lambda x1, x2: (0.3 * (x1 * x1 - x2 * x2), 0.6 * x1 * x2),
    "|x|^2 x": lambda x1, x2: (0.5 * (x1 * x1 + x2 * x2) * x1, 0.5 * (x1 * x1 + x2 * x2) * x2),
    "|x|^2 e1": lambda x1, x2: (0.3 * (x1 * x1 + x2 * x2), 0.0 * x2),
    "noise 1e-6": lambda x1, x2: (0.0 * x1, 0.0 * x2),
}


def _nonlinear_pairs(domain, n: int, draws: int):
    """(name, v, u, offset): a random linear field plus each term, and its copy turned by offset.

    The noise is Gaussian, 1e-6 of each sample's peak, inside the mask.
    """
    rng = np.random.default_rng(2222)
    for name, term in NONLINEAR_TERMS.items():
        for _ in range(draws):
            a11, a12, a21, a22 = rng.uniform(-1.0, 1.0, 4)
            offset = float(rng.uniform(-1.5, 1.5))

            def field(x1, x2, a11=a11, a12=a12, a21=a21, a22=a22, term=term):
                t1, t2 = term(x1, x2)
                return a11 * x1 + a12 * x2 + t1, a21 * x1 + a22 * x2 + t2

            v, u = sample(field, n, domain), sample(_turned(field, offset), n, domain)
            if name.startswith("noise"):
                v, u = (SampledField(n, domain, x.values + np.where(
                    x.mask[..., None], rng.normal(0.0, 1e-6 * np.abs(x.values).max(), x.values.shape),
                    0.0), x.mask) for x in (v, u))
            yield name, v, u, offset


@pytest.mark.parametrize("domain", [SymmetricDomain.square(1.0), UNIT_DISK])
def test_detect_sampled_projects_nonlinear_samples(domain, monkeypatch):
    # Non-linear samples are answered by detect on their two projections,
    # never by their moments.  On the disk the projection commutes with
    # total rotation; on the square it does not, yet every converged draw
    # lands within 1e-5 of its offset (mod pi).  A draw may cap, but none
    # converges further off.  The copy is the pattern resampled once at
    # the answer.
    by_moments = _count_moment_calls(monkeypatch)
    cfg = DetectorConfig(eps=1e-8, max_iter=2000)
    statuses = []
    for name, sv, su, offset in _nonlinear_pairs(domain, 64, 3):
        fit = _linear_fitter(sv)
        (v_fit, v_share, _), (u_fit, u_share, _) = fit(sv.values), fit(su.values)
        assert 1.0 - u_share > registration._LINEAR_TOL ** 2
        want = detect(v_fit, u_fit, cfg)
        got = detect_sampled(sv, su, cfg)
        assert got.alpha.hex() == want.alpha.hex()
        assert (got.iterations, got.status) == (want.iterations, want.status)
        assert got.corrected.values.tobytes() == _resampled_copy(su, 0, -got.alpha).values.tobytes()
        statuses.append(got.status)
        if got.converged():
            assert angle_distance_mod_pi(got.alpha, offset) <= 1e-5, name
        else:
            assert got.status is DetectionStatus.MAX_ITER_EXCEEDED
    assert by_moments == []
    assert len(statuses) == 12 and DetectionStatus.CONVERGED in statuses


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
    by_moments = _count_moment_calls(monkeypatch)
    got = []
    for sv, su, cfg in _projection_sweep():
        r = detect_sampled(sv, su, cfg)
        assert [t.branch for t in r.trace[2:]] == [None] * (r.iterations - 2)
        got.append((r.alpha, r.iterations, r.status.value,
                    tuple(t.branch for t in r.trace[:2])))
    assert by_moments == []
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
    # Every route: linear and bent samples (projection) and flows (moments).
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    cfg = DetectorConfig(eps=1e-6)
    other = detect_sampled(sample(v, 32), sample(total_rotate(v, 0.5), 32), cfg)
    for sv, pattern, _ in _route_pairs():
        result = detect_sampled(sv, pattern, cfg)
        assert result == detect_sampled(sv, pattern, cfg)
        assert result != other
        with pytest.raises(TypeError):
            hash(result)
    assert hash(detect(v, total_rotate(v, 0.4), cfg)) == hash(detect(v, total_rotate(v, 0.4), cfg))


def _no_trace(v: SampledField, u: SampledField, cfg: DetectorConfig) -> tuple:
    """The moment route's trace: it reads nothing, so it records nothing."""
    return ()


def test_detect_sampled_trace_matches_an_eager_reference(monkeypatch):
    # Both routes: the reference runs on the inputs detect_sampled hands
    # to detect (linear and bent samples) or to the moment route (flows).
    handed = []
    for name, reference in (("detect", _eager_linear_trace), ("_detect_by_moments", _no_trace)):
        def spy(*args, inner=getattr(registration, name), reference=reference):
            handed.append((reference, args))
            return inner(*args)

        monkeypatch.setattr(registration, name, spy)
    pairs = [(sample(v, 16), sample(u, 16)) for v, u in list(_trace_families())[::3]]
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    bent = _bent(sample(v, 16), 1e-3)
    pairs += [(sample(v, 16), _bent(sample(total_rotate(v, 0.4), 16), 1e-3)), (bent, bent),
              (_flow(16), _flow(16, 0.4)), (_flow(16), _bent(_flow(16, 0.4), 1e-3))]
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
    assert routes == {_eager_linear_trace, _no_trace}
