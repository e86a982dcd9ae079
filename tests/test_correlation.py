import math
import sys

import numpy as np
import pytest

from rotalign import (
    Decomposition,
    DomainMismatchError,
    LinearField,
    Multivector2,
    SymmetricDomain,
    UNIT_DISK,
    correlate_linear,
    correlate_sampled,
    double_winding,
    eval_field,
    field_norms,
    gp,
    outer_rotate,
    product_at,
    recompose,
    reverse,
    saddle,
    sample,
    second_moment,
    source,
    total_rotate,
    vortex,
)
from rotalign.fields import _coordinates


def quadrature_second_moment(domain: SymmetricDomain, n: int) -> float:
    """Independent midpoint-quadrature oracle for the domain moment."""
    length = domain.bounding_half_side
    h = 2.0 * length / n
    centers = -length + (np.arange(n) + 0.5) * h
    x1, x2 = np.meshgrid(centers, centers, indexing="xy")
    inside = domain.contains_grid(x1, x2)
    return float(np.sum((x1 ** 2 + x2 ** 2)[inside]) * h * h)


def test_second_moment_square_against_quadrature():
    domain = SymmetricDomain.square(1.0)
    assert math.isclose(second_moment(domain), 8.0 / 3.0, rel_tol=1e-15)
    assert abs(second_moment(domain) - quadrature_second_moment(domain, 2048)) <= 1e-6


def test_second_moment_disk_against_quadrature():
    domain = SymmetricDomain.disk(1.0)
    assert math.isclose(second_moment(domain), math.pi / 2.0, rel_tol=1e-15)
    assert abs(second_moment(domain) - quadrature_second_moment(domain, 2048)) <= 1e-3


def test_second_moment_quartic_scaling():
    ratio = second_moment(SymmetricDomain.square(2.0)) / second_moment(SymmetricDomain.square(1.0))
    assert math.isclose(ratio, 16.0, rel_tol=1e-14)
    ratio = second_moment(SymmetricDomain.disk(2.0)) / second_moment(SymmetricDomain.disk(1.0))
    assert math.isclose(ratio, 16.0, rel_tol=1e-14)


def test_totally_rotated_copy_correlation_identity():
    rng = np.random.default_rng(31)
    for _ in range(1000):
        v = LinearField(*rng.uniform(-1, 1, 4))
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        cor = correlate_linear(total_rotate(v, alpha), v)
        n1, n2 = field_norms(v)
        want_s = math.cos(2 * alpha) * n1 + n2
        want_b = -math.sin(2 * alpha) * n1
        scale = max(abs(want_s), abs(want_b), 1e-30)
        assert abs(cor.value.s - want_s) <= 1e-12 * scale
        assert abs(cor.value.b - want_b) <= 1e-12 * scale


def test_outer_rotated_copy_correlation_identity():
    rng = np.random.default_rng(32)
    for _ in range(300):
        v = LinearField(*rng.uniform(-1, 1, 4))
        alpha = rng.uniform(-math.pi, math.pi)
        cor = correlate_linear(outer_rotate(v, alpha), v)
        norm = sum(field_norms(v))
        assert abs(cor.value.s - norm * math.cos(alpha)) <= 1e-10 * max(norm, 1e-30)
        assert abs(cor.value.b + norm * math.sin(alpha)) <= 1e-10 * max(norm, 1e-30)


def test_self_correlation_is_squared_norm():
    v = LinearField(0.3, -0.8, 0.5, 0.1)
    cor = correlate_linear(v, v)
    assert cor.value.b == 0.0
    assert math.isclose(cor.value.s, sum(field_norms(v)), rel_tol=1e-14)
    assert cor.argument == 0.0


def test_field_norms_keep_their_bits_at_any_scale():
    # Wherever the plain sums of squares are normal floats, the scaled
    # reading gives them bit for bit, including a saddle part 1e-200 times
    # the invariant part, which one scale shared by both parts would lose.
    rng = np.random.default_rng(34)
    fields = [LinearField(1e100, 1e-100, 1e-100, 1e100)]
    for scale in (1.0, 1e-100, 1e100, 1e150, 1e-150):
        for domain in (SymmetricDomain.square(1.0), UNIT_DISK, SymmetricDomain.square(0.01)):
            fields += [LinearField(*(scale * rng.uniform(-1, 1, 4)), domain) for _ in range(50)]
    for f in fields:
        a, b, c, d = _coordinates(f.a11, f.a12, f.a21, f.a22)
        moment = second_moment(f.domain)
        plain = (a * a + b * b) * moment, (c * c + d * d) * moment
        if all(sys.float_info.min <= x < math.inf for x in plain):
            assert field_norms(f) == plain, f


@pytest.mark.parametrize("scale", [1e200, 1e-200, 1e300, 1e-300])
def test_field_norms_refuse_norms_beyond_the_normal_range(scale):
    for f in (saddle(), source(), vortex(), LinearField(0.3, -0.8, 0.5, 0.1)):
        with pytest.raises(ValueError, match="normal float"):
            field_norms(LinearField(*(scale * x for x in f.coefficients())))
    # The part in range does not save the part beyond it.
    with pytest.raises(ValueError, match="normal float"):
        field_norms(LinearField(1.0, scale, scale, 1.0))


def test_field_norms_of_a_pure_part_are_exactly_zero():
    for scale in (1.0, 1e150, 1e-150):
        n1, n2 = field_norms(LinearField(*(scale * x for x in saddle().coefficients())))
        assert n1 > 0.0 and n2 == 0.0
        n1, n2 = field_norms(LinearField(*(scale * x for x in vortex().coefficients())))
        assert n1 == 0.0 and n2 > 0.0
    assert field_norms(LinearField(0.0, 0.0, 0.0, 0.0)) == (0.0, 0.0)


def test_mixed_parts_integrate_to_zero():
    rng = np.random.default_rng(33)
    for _ in range(200):
        a, b = rng.uniform(-1, 1, 2)
        c, d = rng.uniform(-1, 1, 2)
        saddle_part = recompose(Decomposition(a, b, 0.0, 0.0))
        invariant_part = recompose(Decomposition(0.0, 0.0, c, d))
        cor = correlate_linear(saddle_part, invariant_part)
        assert abs(cor.value.s) <= 1e-12
        assert abs(cor.value.b) <= 1e-12


def test_conjugate_symmetry():
    rng = np.random.default_rng(34)
    for _ in range(200):
        u = LinearField(*rng.uniform(-1, 1, 4))
        v = LinearField(*rng.uniform(-1, 1, 4))
        forward = correlate_linear(u, v).value
        backward = correlate_linear(v, u).value
        assert backward.isclose(reverse(forward), rel=1e-14)


def test_domain_mismatch_rejected():
    with pytest.raises(DomainMismatchError):
        correlate_linear(vortex(UNIT_DISK), vortex())


def test_product_at_saddle_source_mix():
    v = LinearField(3.0, 0.0, 0.0, 1.0)
    u = total_rotate(v, math.pi / 4)
    assert product_at(u, v, (-1.0, 1.0)) == Multivector2(4.0, 0.0, 0.0, 2.0)


def test_product_at_saddle_vortex_mix():
    # closed form (2 cos(a) (x1+x2)^2 - 2 sin(a) (x1^2-x2^2)) exp(-a e12);
    # at x = (1, 1) the sign-sensitive term drops out, giving 8 cos(a) exp(-a e12)
    v = recompose(Decomposition(1.0, 0.0, 0.0, 1.0))
    alpha = math.pi / 6
    u = total_rotate(v, alpha)
    got = product_at(u, v, (1.0, 1.0))
    assert math.isclose(got.s, 6.0, rel_tol=1e-14)
    assert math.isclose(got.b, -2.0 * math.sqrt(3.0), rel_tol=1e-14)

    rng = np.random.default_rng(35)
    for _ in range(200):
        alpha = rng.uniform(-math.pi / 2, math.pi / 2)
        x = tuple(rng.uniform(-1, 1, 2))
        u = total_rotate(v, alpha)
        got = product_at(u, v, x)
        # independent oracle: geometric product of the point evaluations
        want = gp(reverse(eval_field(u, x)), eval_field(v, x))
        assert got.isclose(want, rel=1e-14, abs_=1e-14)
        scalar = (2 * math.cos(alpha) * (x[0] + x[1]) ** 2
                  - 2 * math.sin(alpha) * (x[0] ** 2 - x[1] ** 2))
        assert math.isclose(got.s, scalar * math.cos(alpha), rel_tol=1e-11, abs_tol=1e-12)
        assert math.isclose(got.b, -scalar * math.sin(alpha), rel_tol=1e-11, abs_tol=1e-12)


def test_product_at_self_is_nonnegative_scalar():
    rng = np.random.default_rng(36)
    for _ in range(100):
        v = LinearField(*rng.uniform(-1, 1, 4))
        x = tuple(rng.uniform(-1, 1, 2))
        p = product_at(v, v, x)
        assert p.b == 0.0 and p.x == 0.0 and p.y == 0.0
        assert p.s >= 0.0


def test_double_winding_sampled_correlation():
    for alpha in (0.3, -0.9):
        base = sample(double_winding(0.0), 1024, UNIT_DISK)
        copy = sample(double_winding(alpha), 1024, UNIT_DISK)
        cor = correlate_sampled(copy, base)
        assert abs(cor.value.s - math.pi * math.cos(alpha)) <= 2e-2
        assert abs(cor.value.b - math.pi * math.sin(alpha)) <= 2e-2


def test_sampled_matches_closed_form_with_quadratic_refinement():
    rng = np.random.default_rng(37)
    for _ in range(10):
        u = LinearField(*rng.uniform(-1, 1, 4))
        v = LinearField(*rng.uniform(-1, 1, 4))
        exact = correlate_linear(u, v).value

        def quadrature_error(n):
            got = correlate_sampled(sample(u, n), sample(v, n)).value
            return math.hypot(got.s - exact.s, got.b - exact.b)

        e128 = quadrature_error(128)
        e256 = quadrature_error(256)
        if e128 > 1e-10:
            assert 3.0 <= e128 / e256 <= 5.0
        # error constant fitted at n=64 bounds the n=256 error
        c_fit = quadrature_error(64) * 64 ** 2
        assert e256 <= 1.5 * c_fit / 256 ** 2 + 1e-12


def test_correlate_sampled_zero_field():
    zero = sample(LinearField(0.0, 0.0, 0.0, 0.0), 32)
    anything = sample(vortex(), 32)
    cor = correlate_sampled(zero, anything)
    assert cor.value == Multivector2()
    assert cor.magnitude == 0.0 and cor.argument == 0.0


def test_correlate_sampled_purity_and_mismatch():
    u = sample(vortex(), 64)
    v = sample(LinearField(0.2, 0.4, -0.3, 0.9), 64)
    cor = correlate_sampled(u, v)
    assert cor.value.x == 0.0 and cor.value.y == 0.0
    with pytest.raises(DomainMismatchError):
        correlate_sampled(u, sample(LinearField(0.2, 0.4, -0.3, 0.9), 32))
    with pytest.raises(DomainMismatchError):
        correlate_sampled(u, sample(vortex(UNIT_DISK), 64))


def test_sampled_agrees_with_closed_form_on_rotated_copy():
    v = LinearField(0.7, -0.1, 0.4, 0.6)
    u = total_rotate(v, 0.47)
    exact = correlate_linear(u, v)
    got = correlate_sampled(sample(u, 256), sample(v, 256))
    assert abs(got.argument - exact.argument) <= 1e-4
    assert abs(got.magnitude - exact.magnitude) <= 1e-4 * exact.magnitude


def test_overflowing_correlation_is_refused():
    # Unrefused, the linear backend returned scalar inf and argument -pi/4, not -0.6.
    v = LinearField(1e200, 0.0, 0.0, -1e200)
    u = total_rotate(v, 0.3)
    with pytest.raises(ValueError, match="finite"):
        correlate_linear(u, v)
    with pytest.raises(ValueError, match="finite"), np.errstate(over="ignore", invalid="ignore"):
        correlate_sampled(sample(u, 16), sample(v, 16))


def test_linear_argument_is_read_at_any_scale():
    # The argument comes from power-of-two scaled entries: the same bits
    # at 2**+-500 as at scale 1.  At 1e-200 the value underflows to zero
    # (the argument is -0.6, not 0.0), so it is refused; zero and
    # orthogonal fields keep their 0.0.
    v = recompose(Decomposition(0.6, -0.3, 0.0, 0.0))
    base = correlate_linear(total_rotate(v, 0.3), v)
    assert abs(base.argument + 0.6) <= 1e-12
    for k in (2.0 ** 500, 2.0 ** -500):
        w = LinearField(*(k * c for c in v.coefficients()))
        got = correlate_linear(total_rotate(w, 0.3), w)
        assert repr(got.argument) == repr(base.argument)
        assert got.magnitude > 0.0
    tiny = LinearField(*(1e-200 * c for c in v.coefficients()))
    with pytest.raises(ValueError, match="underflows"):
        correlate_linear(total_rotate(tiny, 0.3), tiny)
    zero = LinearField(0.0, 0.0, 0.0, 0.0)
    for u, w in ((zero, v), (v, zero), (zero, zero), (saddle(), source())):
        cor = correlate_linear(u, w)
        assert (cor.argument, cor.magnitude) == (0.0, 0.0)
