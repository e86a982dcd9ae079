import hashlib
import math
import warnings

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
    field_norms,
    oracle_detect,
    phi_of_alpha,
    recompose,
    saddle,
    sample,
    spinor_arg,
    total_rotate,
    vortex,
    wrap_angle,
)
from rotalign.registration import _resampler


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


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets, st.integers(-1000, 1000))
def test_detect_power_of_two_scale_invariance(v, theta, j):
    u = total_rotate(v, theta)
    cfg = DetectorConfig(eps=1e-8)
    r1 = detect(v, u, cfg, record_trace=False)
    r2 = detect(scaled(v, 2.0 ** j), scaled(u, 2.0 ** j), cfg, record_trace=False)
    assert r2.converged()
    assert r2.alpha == r1.alpha
    assert r2.iterations == r1.iterations


@settings(max_examples=200, deadline=None)
@given(balanced_fields, offsets, st.integers(-300, 300), st.floats(1.0, 9.999))
def test_detect_decimal_scale_invariance(v, theta, exponent, mantissa):
    k = float(f"{mantissa!r}e{exponent}")
    eps = 1e-8
    u = total_rotate(v, theta)
    r1 = detect(v, u, DetectorConfig(eps=eps), record_trace=False)
    r2 = detect(scaled(v, k), scaled(u, k), DetectorConfig(eps=eps), record_trace=False)
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
    forward = detect(v, u, cfg, record_trace=False)
    backward = detect(u, v, cfg, record_trace=False)
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
    base = detect(v, u, cfg, record_trace=False)
    turned = detect(v, total_rotate(u, s), cfg, record_trace=False)
    assert turned.converged()
    assert angle_distance_mod_pi(turned.alpha, base.alpha + s) <= 10 * eps


def test_detect_converges_for_bounded_ratio_instances():
    # energy ratio at least 1e-3 and eps down to 1e-8 stay under the cap
    rng = np.random.default_rng(44)
    cfg = DetectorConfig(eps=1e-8, max_iter=10000)
    for _ in range(150):
        v = random_field_with_ratio_floor(rng, 1e-3)
        theta = math.pi - 2 * math.pi * rng.random()
        result = detect(v, total_rotate(v, theta), cfg, record_trace=False)
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
        result = detect(v, u, cfg, record_trace=False)
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


# ---------------------------------------------------------------- sampled

def test_detect_sampled_linear_pair():
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.35)
    result = detect_sampled(sample(v, 256), sample(u, 256), DetectorConfig(eps=1e-4))
    assert result.converged()
    assert abs(result.alpha - 0.35) <= 1e-3


def test_detect_sampled_aligned_fires_kick():
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    s = sample(v, 64)
    result = detect_sampled(s, s, DetectorConfig(eps=1e-4))
    assert result.converged()
    assert [t.branch for t in result.trace].count("perturb") == 1
    assert angle_distance_mod_pi(result.alpha, 0.0) <= 1e-3


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
    # The answers the reference resampler produced, bit for bit.
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4), domain)
    result = detect_sampled(sample(v, 64), sample(total_rotate(v, theta), 64),
                            DetectorConfig(eps=1e-6))
    assert repr(result.alpha) == repr(alpha)
    assert result.iterations == 8
    assert hashlib.sha256(result.corrected.values.tobytes()).hexdigest() == digest


def test_detect_sampled_scale_invariance():
    v = recompose(Decomposition(0.7, -0.2, 0.5, 0.4))
    u = total_rotate(v, 0.3)
    cfg = DetectorConfig(eps=1e-6)
    base = detect_sampled(sample(v, 32), sample(u, 32), cfg)
    assert base.converged()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in (1e200, 1e-200):
            r = detect_sampled(sample(scaled(v, k), 32), sample(scaled(u, k), 32), cfg)
            assert r.converged()
            assert abs(r.alpha - base.alpha) <= 1e-9
        for j in (-1000, -3, 5, 1000):
            k = 2.0 ** j
            r = detect_sampled(sample(scaled(v, k), 32), sample(scaled(u, k), 32), cfg)
            assert r.alpha == base.alpha
            assert r.iterations == base.iterations
            assert r.trace == base.trace
            assert np.array_equal(r.corrected.values, base.corrected.values * k)


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
    # branch rule can act, with and without a trace.
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
                    for record_trace in (True, False):
                        r = detect(v, u, DetectorConfig(eps=eps, max_iter=max_iter),
                                   record_trace=record_trace)
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
        "c10aa7013cd38d28d8629568debd8e717ea123eb0b62faa292586c33b879cf41")
