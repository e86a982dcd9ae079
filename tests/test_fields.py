import copy
import gc
import math
import pickle
import weakref
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rotalign import (
    Decomposition,
    DomainMismatchError,
    LinearField,
    Multivector2,
    SampledField,
    SymmetricDomain,
    UNIT_DISK,
    UNIT_SQUARE,
    decompose,
    double_winding,
    eval_field,
    inner_rotate,
    outer_rotate,
    recompose,
    saddle,
    saddle45,
    sample,
    source,
    total_rotate,
    vortex,
    write_samples_csv,
)

coeff = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


def basis_coordinates_by_solve(field: LinearField) -> np.ndarray:
    """Independent expansion oracle: solve for the basis coordinates from
    point evaluations instead of using the closed-form decomposition."""
    points = [(1.0, 0.0), (0.0, 1.0)]
    basis = [saddle(field.domain), saddle45(field.domain),
             source(field.domain), vortex(field.domain)]
    rows = []
    rhs = []
    for p in points:
        for comp in (0, 1):
            rows.append([(eval_field(b, p).x, eval_field(b, p).y)[comp] for b in basis])
            rhs.append((eval_field(field, p).x, eval_field(field, p).y)[comp])
    return np.linalg.solve(np.array(rows), np.array(rhs))


def test_eval_examples():
    assert eval_field(source(), (0.3, -0.2)) == Multivector2.vector(0.3, -0.2)
    assert eval_field(saddle(), (1.0, 1.0)) == Multivector2.vector(1.0, -1.0)
    assert eval_field(saddle(), (5.0, 0.0)) == Multivector2.vector(0.0, 0.0)


def test_decompose_canonical_fields():
    assert decompose(saddle()) == Decomposition(1.0, 0.0, 0.0, 0.0)
    assert decompose(saddle45()) == Decomposition(0.0, 1.0, 0.0, 0.0)
    assert decompose(source()) == Decomposition(0.0, 0.0, 1.0, 0.0)
    assert decompose(LinearField(3.0, 0.0, 0.0, 1.0)) == Decomposition(1.0, 0.0, 2.0, 0.0)


def test_vortex_coefficient_sign_pinned_by_expansion():
    # x2 e1 - x1 e2 must carry coordinate +1 on the vortex basis field;
    # the expansion oracle decides the sign, not the transcription.
    v = vortex()
    assert v.coefficients() == (0.0, 1.0, -1.0, 0.0)
    coords = basis_coordinates_by_solve(v)
    assert np.allclose(coords, [0.0, 0.0, 0.0, 1.0], atol=1e-14)
    assert decompose(v) == Decomposition(0.0, 0.0, 0.0, 1.0)
    # and the combination route agrees pointwise
    rebuilt = recompose(Decomposition(0.0, 0.0, 0.0, 1.0))
    for p in [(0.3, -0.2), (1.0, 1.0), (-0.7, 0.4)]:
        assert eval_field(rebuilt, p) == eval_field(v, p)


def test_recompose_examples():
    assert recompose(Decomposition(1.0, 0.0, 0.0, 0.0)).coefficients() == (1.0, 0.0, 0.0, -1.0)
    assert recompose(Decomposition(0.0, 0.0, 1.0, 0.0)).coefficients() == (1.0, 0.0, 0.0, 1.0)


def test_decompose_matches_expansion_oracle_random():
    rng = np.random.default_rng(21)
    for _ in range(200):
        f = LinearField(*rng.uniform(-1, 1, 4))
        dec = decompose(f)
        coords = basis_coordinates_by_solve(f)
        assert np.allclose([dec.a, dec.b, dec.c, dec.d], coords, atol=1e-13)


@settings(max_examples=250)
@given(coeff, coeff, coeff, coeff)
def test_round_trip_field_to_coordinates(a11, a12, a21, a22):
    f = LinearField(a11, a12, a21, a22)
    g = recompose(decompose(f), f.domain)
    scale = max(1.0, abs(a11), abs(a12), abs(a21), abs(a22))
    for got, want in zip(g.coefficients(), f.coefficients()):
        assert abs(got - want) <= 1e-12 * scale


def test_round_trip_coordinates_to_field_seeded():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        d = Decomposition(*rng.uniform(-1, 1, 4))
        d2 = decompose(recompose(d))
        assert max(abs(d2.a - d.a), abs(d2.b - d.b),
                   abs(d2.c - d.c), abs(d2.d - d.d)) <= 1e-12


def test_basis_orthogonality_and_equal_magnitudes():
    rng = np.random.default_rng(23)
    fields = [saddle(), saddle45(), source(), vortex()]
    for _ in range(1000):
        p = tuple(rng.uniform(-1, 1, 2))
        va, vb, vc, vd = (eval_field(f, p) for f in fields)
        assert abs(va.x * vb.x + va.y * vb.y) <= 1e-14
        assert abs(vc.x * vd.x + vc.y * vd.y) <= 1e-14
        r2 = p[0] * p[0] + p[1] * p[1]
        for v in (va, vb, vc, vd):
            assert math.isclose(v.x * v.x + v.y * v.y, r2, rel_tol=1e-13, abs_tol=1e-15)


def test_total_rotate_fixes_vortex_and_source():
    for alpha in (0.1, 0.7, -1.3, 2.9):
        for f in (vortex(), source()):
            g = total_rotate(f, alpha)
            assert np.allclose(g.coefficients(), f.coefficients(), atol=1e-15)


def test_total_rotate_turns_saddle_pair_by_double_angle():
    # expansion oracle on the rotated saddle: coordinates (cos 2a, sin 2a, 0, 0)
    for alpha in (math.pi / 6, math.pi / 4):
        g = total_rotate(saddle(), alpha)
        coords = basis_coordinates_by_solve(g)
        assert np.allclose(coords, [math.cos(2 * alpha), math.sin(2 * alpha), 0.0, 0.0],
                           atol=1e-14)
    # quarter turn maps the axis saddle onto the diagonal one exactly
    g = total_rotate(saddle(), math.pi / 4)
    assert np.allclose(g.coefficients(), saddle45().coefficients(), atol=1e-15)


def test_total_rotate_half_turn_is_identity():
    rng = np.random.default_rng(24)
    for _ in range(100):
        f = LinearField(*rng.uniform(-1, 1, 4))
        g = total_rotate(f, math.pi)
        assert np.allclose(g.coefficients(), f.coefficients(), atol=1e-14)


def test_total_rotate_composes_additively():
    rng = np.random.default_rng(25)
    for _ in range(200):
        f = LinearField(*rng.uniform(-1, 1, 4))
        a, b = rng.uniform(-2, 2, 2)
        lhs = total_rotate(total_rotate(f, a), b)
        rhs = total_rotate(f, a + b)
        assert np.allclose(lhs.coefficients(), rhs.coefficients(), atol=1e-12)


def test_total_rotate_in_coordinates():
    # saddle pair turns by 2*alpha, invariant pair stays put
    rng = np.random.default_rng(26)
    for _ in range(300):
        f = LinearField(*rng.uniform(-1, 1, 4))
        alpha = rng.uniform(-2, 2)
        d0 = decompose(f)
        d1 = decompose(total_rotate(f, alpha))
        c2, s2 = math.cos(2 * alpha), math.sin(2 * alpha)
        assert math.isclose(d1.a, d0.a * c2 - d0.b * s2, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(d1.b, d0.a * s2 + d0.b * c2, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(d1.c, d0.c, rel_tol=0, abs_tol=1e-14)
        assert math.isclose(d1.d, d0.d, rel_tol=0, abs_tol=1e-14)


def test_outer_and_inner_rotations():
    f = LinearField(0.4, -0.7, 0.2, 0.9)
    assert outer_rotate(f, 0.0).coefficients() == f.coefficients()
    for alpha in (0.3, -1.1):
        composed = outer_rotate(inner_rotate(f, alpha), alpha)
        direct = total_rotate(f, alpha)
        assert np.allclose(composed.coefficients(), direct.coefficients(), atol=1e-14)
    quarter = outer_rotate(source(), math.pi / 2)
    assert np.allclose(quarter.coefficients(), (0.0, -1.0, 1.0, 0.0), atol=1e-15)


def test_sample_zero_and_linear():
    zero = LinearField(0.0, 0.0, 0.0, 0.0)
    assert not np.any(sample(zero, 16).values)
    # Cell by cell as eval_field gives it, bit for bit, zero outside the disk.
    for f, n in ((saddle(), 4), (LinearField(0.3, -1.7, 2.9, 0.05, UNIT_DISK), 7),
                 (LinearField(-1e-3, 4.1, 0.6, -2.2, SymmetricDomain.square(2.5)), 9)):
        s = sample(f, n)
        centers = s.centers()
        for iy in range(n):
            for ix in range(n):
                v = eval_field(f, (centers[ix], centers[iy]))
                assert s.mask[iy, ix] == f.domain.contains(centers[ix], centers[iy])
                assert s.values[iy, ix, 0] == v.x
                assert s.values[iy, ix, 1] == v.y


def test_sample_double_winding_cell_value():
    s = sample(double_winding(0.0), 512, UNIT_DISK)
    target = (0.5 * math.cos(math.pi / 4), 0.5 * math.sin(math.pi / 4))
    centers = s.centers()
    ix = int(np.argmin(np.abs(centers - target[0])))
    iy = int(np.argmin(np.abs(centers - target[1])))
    assert s.mask[iy, ix]
    # the value depends only on the polar angle, so allow for the center offset
    assert abs(s.values[iy, ix, 0] - 0.0) <= 0.02
    assert abs(s.values[iy, ix, 1] - 1.0) <= 0.02


def test_sample_scalar_closure_fallback():
    def f(x1, x2):
        if isinstance(x1, np.ndarray):
            raise TypeError("scalar-only closure")
        return x1 + x2, x1 - x2

    s = sample(f, 8, UNIT_SQUARE)
    centers = s.centers()
    assert s.values[2, 5, 0] == centers[5] + centers[2]
    assert s.values[2, 5, 1] == centers[5] - centers[2]


def test_sample_input_validation():
    with pytest.raises(ValueError):
        sample(saddle(), 1)
    with pytest.raises(ValueError):
        sample(double_winding(), 8)  # closure without a domain
    with pytest.raises(DomainMismatchError):
        sample(saddle(), 8, UNIT_DISK)


@pytest.mark.parametrize("field, n", [
    (lambda x1, x2: (x1, x2), 2.0),
    (LinearField(1.0, 0.0, 0.0, 1.0), 3.5),
    (LinearField(1.0, 0.0, 0.0, 1.0), "8"),
], ids=["closure-2.0", "linear-3.5", "linear-str"])
def test_sample_refuses_a_non_integer_n_before_laying_out_values(field, n, monkeypatch):
    # A float n used to reach numpy (a TypeError from np.zeros) or have
    # its values laid out before SampledField refused it.
    laid_out = []
    monkeypatch.setattr("rotalign.fields._grid_values", lambda *args: laid_out.append(args))
    with pytest.raises(ValueError, match="grid resolution must be an integer"):
        sample(field, n, UNIT_SQUARE)
    assert laid_out == []


def test_disk_mask_zeroes_outside_cells():
    s = sample(source(UNIT_DISK), 32)
    assert not s.mask[0, 0]
    assert np.all(s.values[~s.mask] == 0.0)
    assert s.mask[16, 16]


def test_samples_share_one_read_only_mask_per_grid():
    # One mask per (domain, n) while a sample holds it, so comparing two
    # samples on one grid reads no cells; equal masks that are distinct
    # arrays compare as before, and the map keeps no mask alive.
    disk = SymmetricDomain.disk(2.0)
    a, b = sample(saddle(disk), 32), sample(double_winding(), 32, disk)
    assert a.mask is b.mask
    assert not a.mask.flags.writeable
    with pytest.raises(ValueError):
        a.mask[0, 0] = True
    assert sample(saddle(disk), 16).mask is not a.mask
    assert sample(saddle(SymmetricDomain.square(2.0)), 32).mask is not a.mask
    assert a.compatible_with(b)
    assert a.compatible_with(SampledField(32, disk, b.values, b.mask.copy()))
    other = a.mask.copy()
    other[16, 16] = False
    assert not a.compatible_with(SampledField(32, disk, b.values, other))
    ref = weakref.ref(a.mask)
    del a, b
    gc.collect()
    assert ref() is None
    assert not sample(saddle(disk), 32).mask.flags.writeable


def test_samples_compare_by_value_and_do_not_hash():
    disk = SymmetricDomain.disk(2.0)
    a = sample(saddle(disk), 16)
    assert a == sample(saddle(disk), 16)
    assert a == SampledField(16, disk, a.values.copy(), a.mask.copy())
    assert a != sample(saddle(disk), 8)
    assert a != sample(source(disk), 16)
    assert a != sample(saddle(SymmetricDomain.square(2.0)), 16)
    with pytest.raises(TypeError):
        hash(a)


def test_samples_csv_layout(tmp_path):
    path = tmp_path / "saddle.csv"
    s = sample(saddle(), 4)
    write_samples_csv(s, str(path))
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,v1,v2,inside"
    assert len(lines) == 17
    first = lines[1].split(",")
    second = lines[2].split(",")
    assert first[1] == second[1]          # x2 constant while
    assert first[0] != second[0]          # x1 runs fastest
    assert first[4] == "1"


def test_domain_validation():
    with pytest.raises(ValueError):
        SymmetricDomain("triangle", 1.0)
    with pytest.raises(ValueError):
        SymmetricDomain.square(-2.0)
    for size in (1e80, 1e77, 1e-80, 1e-78):
        with pytest.raises(ValueError, match="second moment"):
            SymmetricDomain.square(size)
        with pytest.raises(ValueError, match="second moment"):
            SymmetricDomain.disk(size)
    with pytest.raises(ValueError, match="second moment"):
        SymmetricDomain.square(6.6e76)  # finite moment, but four times it overflows
    for size in (6e76, 1e-76):
        SymmetricDomain.square(size)
        SymmetricDomain.disk(size)
    d = SymmetricDomain.disk(0.5)
    assert d.contains(0.3, 0.3)
    assert not d.contains(0.4, 0.4)


def test_field_json_round_trip():
    f = LinearField(1.5, -0.25, 0.0, 2.0, SymmetricDomain.disk(0.75))
    assert LinearField.from_json_dict(f.to_json_dict()) == f


def test_field_has_slots_and_stays_a_frozen_value():
    f = LinearField(1.5, -0.25, 0.0, 2.0, SymmetricDomain.disk(0.75))
    assert not hasattr(f, "__dict__")
    for back in (pickle.loads(pickle.dumps(f)), copy.deepcopy(f), copy.copy(f)):
        assert back == f and hash(back) == hash(f)
        assert back.coefficients() == f.coefficients() and back.domain == f.domain
    turned = replace(f, a12=0.5)
    assert turned.coefficients() == (1.5, 0.5, 0.0, 2.0) and turned.domain == f.domain
    assert turned != f and f == LinearField(1.5, -0.25, 0.0, 2.0, SymmetricDomain.disk(0.75))
    assert f != LinearField(*f.coefficients())  # another domain
    assert len({f, copy.deepcopy(f), turned}) == 2
    with pytest.raises(FrozenInstanceError):
        f.a11 = 0.0
    with pytest.raises(AttributeError):
        object.__setattr__(f, "note", "no slot for it")
    with pytest.raises(ValueError, match="finite"):
        replace(f, a22=math.inf)


@pytest.mark.parametrize("slot", range(4))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_field_refuses_non_finite_coefficients(bad, slot):
    coeffs = [0.4, -0.2, 0.9, 0.3]
    coeffs[slot] = bad
    with pytest.raises(ValueError, match="finite"):
        LinearField(*coeffs)


def test_field_refuses_overflowing_coordinates():
    # Every entry is finite, but a11 - a22 overflows, and detection reads
    # that coordinate: unrefused, detect capped at 0.3927 instead of raising.
    with pytest.raises(ValueError, match="finite"):
        LinearField(1.7e308, 0.3, 0.2, -1.7e308)
    with pytest.raises(ValueError, match="finite"):
        LinearField.from_json_dict({"a11": math.nan, "a12": 0.0, "a21": 0.0, "a22": 1.0})
    # The saddle pair turns by pi/4 onto b, which then overflows.
    big = LinearField(8e307, 8e307, 8e307, -8e307)
    total_rotate(big, 0.0)
    with pytest.raises(ValueError, match="finite"):
        total_rotate(big, math.pi / 8)


def test_sample_refuses_non_finite_values_inside_the_domain():
    def nan_off_disk(x1, x2):
        outside = x1 * x1 + x2 * x2 > 1.0
        return np.where(outside, np.nan, x1), np.where(outside, np.nan, x2)

    # Cells outside the domain are zeroed before the check.
    assert np.isfinite(sample(nan_off_disk, 16, UNIT_DISK).values).all()
    with pytest.raises(ValueError, match="finite"):
        sample(nan_off_disk, 16, UNIT_SQUARE)


_EIGHT = sample(LinearField(0.7, -0.2, 0.5, 0.4), 8)
_TWO = sample(LinearField(0.7, -0.2, 0.5, 0.4), 2)


@pytest.mark.parametrize("n, values, mask, what", [
    (8, _EIGHT.values[:, :, :1].copy(), _EIGHT.mask, "values"),
    (8, _EIGHT.values, _EIGHT.mask.astype(float), "mask"),
    (9, _EIGHT.values, _EIGHT.mask, "values"),
    (8, _EIGHT.values, _EIGHT.mask[:, :4], "mask"),
    (0, np.zeros((0, 0, 2)), np.zeros((0, 0), bool), "n"),
    (1, _EIGHT.values[:1, :1], _EIGHT.mask[:1, :1], "n"),
    (True, _EIGHT.values[:1, :1], _EIGHT.mask[:1, :1], "n"),
    (2.0, _TWO.values, _TWO.mask, "n"),
], ids=["values-8x8x1", "float-mask", "n-9-on-8x8", "mask-8x4", "n-0", "n-1", "n-true",
        "n-2.0"])
def test_sampled_field_refuses_malformed_arrays(n, values, mask, what):
    # Accepted, these failed later inside numpy (an IndexError, a TypeError
    # from inverting the mask, a matmul error), and a wrong n would make a
    # fit by rows of n misread the samples.  sample refuses n < 2; accepted,
    # n = 0 made detect_sampled divide by zero and n = 1 answer CONVERGED.
    with pytest.raises(ValueError, match=f"sampled field {what} must be an"):
        SampledField(n, UNIT_SQUARE, values, mask)
