"""Iterative detection of the total-rotation offset between two linear fields.

The correlation of a field's totally rotated copy (by angle t) against
the original is

    exp(-2*t*e12) * n1 + n2

where n1 and n2 are the squared L2 norms of the saddle part and the
invariant (source/vortex) part.  Its argument phi always lies between
-2*t and 0, with the opposite sign of t, so rotating the copy by phi
shrinks the offset and the fixed-point iteration

    phi <- arg(correlate(u, v));  u <- total_rotate(u, phi)

drives the offset to zero whenever both n1 and n2 are nonzero.  Two
degenerate families need special handling inside the loop:

* n1 = 0 (pure source/vortex): phi is identically zero.  The field is
  rotation invariant, so any answer is correct; a quarter-turn kick is
  applied once so the loop can prove that to itself.
* n2 = 0 (pure saddle pair): phi = -2t exactly, so the iteration
  reflects the offset instead of shrinking it.  The accumulator
  returning to zero after two steps reveals this case; the true offset
  is then half the last reading.  If the kicked start lands exactly on
  phi = -pi/2 the offset was a multiple of a quarter turn and is pinned
  to pi/2.

The branch rule acts at readings 1 and 2 only: the kick at reading 1,
the halve or the lock at reading 2.  ``detect`` runs those two readings
with the accumulator and the rule, and every later reading in a tight
loop that only reads, turns and adds.  The trace entries of the later
readings are built after the loop, from the accumulator's same
left-to-right sums, so they equal entries recorded reading by reading.

Loop equality tests ("accumulator is zero", "phi is -pi/2") are taken
up to ``_ZERO_TOL`` = 1e-9 because correlation arguments are floating
point; it is fixed, and every stopping accuracy eps must exceed it.
The loop runs on ``abs(phi) > eps``; a plain ``phi > eps`` would stop
on the first negative reading, which is the common case.

Linear fields are closed under total rotation, so the loop updates the
copy exactly (the saddle coefficient pair rotates by 2*phi) instead of
resampling.  ``detect_sampled`` is the grid-backed variant; it
re-interpolates the copy each step and is therefore approximate.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .correlation import correlate_linear, correlate_sampled, field_norms, second_moment
from .fields import (
    Decomposition,
    DomainMismatchError,
    LinearField,
    SampledField,
    _coordinates,
    _entries,
    decompose,
    recompose,
    total_rotate,
)
from .multivector import wrap_angle

__all__ = [
    "DetectionStatus",
    "DetectorConfig",
    "DetectionResult",
    "TraceEntry",
    "DegenerateZeroFieldError",
    "phi_of_alpha",
    "detect",
    "detect_sampled",
    "oracle_detect",
    "detect_known_pattern",
]

_QUARTER_PI = 0.25 * math.pi
_HALF_PI = 0.5 * math.pi
_ZERO_TOL = 1e-9


class DegenerateZeroFieldError(ValueError):
    """Raised when detection is asked to align an identically zero field."""


class DetectionStatus(Enum):
    CONVERGED = "converged"
    MAX_ITER_EXCEEDED = "max_iter_exceeded"
    DEGENERATE_ZERO_FIELD = "degenerate_zero_field"


class TraceEntry(NamedTuple):
    """One loop iteration: reading, raw accumulator after it, branch taken."""

    iteration: int
    phi: float
    alpha_after: float
    branch: Optional[str]


@dataclass(frozen=True)
class DetectorConfig:
    """Stopping accuracy eps (above the 1e-9 branch tolerance) and iteration cap."""

    eps: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not self.eps > _ZERO_TOL:
            raise ValueError(f"eps must exceed the branch tolerance {_ZERO_TOL!r}, "
                             f"got {self.eps!r}")
        try:
            max_iter = operator.index(self.max_iter)
        except TypeError:
            raise ValueError(f"max_iter must be an integer, got {self.max_iter!r}") from None
        if max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a detection run.

    ``alpha`` is the misalignment estimate: the angle by which the
    pattern was totally rotated away from the field, wrapped to
    (-pi, pi] and meaningful modulo pi.  It is the negated sum of all
    rotations the loop applied to the pattern.  The trace keeps the raw
    per-iteration readings and the loop's own accumulator (which the
    special-case branches overwrite), unwrapped for debuggability.
    """

    alpha: float
    iterations: int
    trace: tuple
    status: DetectionStatus
    corrected: object  # LinearField or SampledField

    def converged(self) -> bool:
        return self.status is DetectionStatus.CONVERGED


def phi_of_alpha(v: LinearField, alpha: float) -> float:
    """Closed-form correlation argument for the copy rotated by alpha.

    Equals atan2(-sin(2*alpha)*n1, cos(2*alpha)*n1 + n2) with (n1, n2)
    the saddle/invariant squared norms of v.
    """
    n1, n2 = field_norms(v)
    if n1 + n2 == 0.0:
        raise DegenerateZeroFieldError("phi is undefined for the zero field")
    return math.atan2(-math.sin(2.0 * alpha) * n1,
                      math.cos(2.0 * alpha) * n1 + n2)


def _special_case(iteration: int, phi: float, alpha_acc: float, kicked: bool) -> tuple:
    """Branch rule for the first two readings: (phi, alpha_acc, kicked, branch).

    Returns its arguments unchanged with branch None when no degenerate
    case applies; otherwise the rotation to apply, the overwritten
    accumulator and whether the kick has happened.
    """
    if iteration == 1 and abs(alpha_acc) <= _ZERO_TOL:
        # Zero first reading: aligned, rotation invariant, or a pure
        # saddle at a quarter turn.  Kick by pi/4 to disambiguate.
        return _QUARTER_PI, _QUARTER_PI, True, "perturb"
    if iteration == 2 and not kicked and abs(alpha_acc) <= _ZERO_TOL:
        # Two readings cancelled: pure saddle, offset is half the last one.
        return 0.5 * phi, 0.5 * phi, False, "halve"
    if iteration == 2 and kicked and abs(phi + _HALF_PI) <= _ZERO_TOL:
        # Kicked pure saddle answered with exactly -pi/2: quarter-turn family.
        return _QUARTER_PI, _HALF_PI, True, "lock"
    return phi, alpha_acc, kicked, None


def _unit_scaled(a: float, b: float, c: float, d: float) -> tuple:
    """(a, b, c, d, e): the coordinates times 2**-e, the largest in [0.5, 1).

    A power-of-two scale is exact, so the loop reads the same angles as
    on the raw coordinates, while its products stay in range however
    large or small the field is as a whole.
    """
    _, e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))
    ldexp = math.ldexp
    return ldexp(a, -e), ldexp(b, -e), ldexp(c, -e), ldexp(d, -e), e


def _iterate(moment: float, av: float, bv: float, au: float, bu: float,
             cc: float, dd: float, cross: float, eps: float, max_iter: int,
             phi: float = math.pi, alpha_acc: float = 0.0, applied: float = 0.0,
             iteration: int = 0, kicked: bool = False, trace: Optional[list] = None) -> tuple:
    """``detect``'s loop, run from the given state to its stop.

    (av, bv) and (au, bu) are the scaled saddle coordinates of the field
    and of the pattern; cc = cu*cv, dd = du*dv and cross = cu*dv - du*cv
    are the loop-invariant terms of the source/vortex pair, taken out of
    the loop without changing a bit.  ``alpha_acc`` is the loop's own
    accumulator, which the branches overwrite; ``applied`` is the sum of
    the rotations actually applied to the pattern.  Entries are appended
    to ``trace`` when one is given.  Returns (au, bu, applied, iteration,
    capped).
    """
    atan2 = math.atan2
    cos = math.cos
    sin = math.sin

    while iteration < 2 and abs(phi) > eps:
        if iteration == max_iter:
            return au, bu, applied, iteration, True
        iteration += 1

        cor_s = moment * (au * av + bu * bv + cc + dd)
        cor_b = moment * ((au * bv - bu * av) - cross)
        # atan2(0, 0) == 0: a vanishing correlation reads as angle zero,
        # which hands the degenerate-start cases to the first branch.
        phi = atan2(cor_b, cor_s)
        alpha_acc += phi
        phi, alpha_acc, kicked, branch = _special_case(iteration, phi, alpha_acc, kicked)

        c2 = cos(2.0 * phi)
        s2 = sin(2.0 * phi)
        au, bu = au * c2 - bu * s2, au * s2 + bu * c2
        applied += phi

        if trace is not None:
            trace.append(TraceEntry(iteration, phi, alpha_acc, branch))

    if abs(phi) <= eps:
        return au, bu, applied, iteration, False

    # Readings 3 on: the branch rule cannot fire, so only read, turn and
    # add.  Their trace entries are built after the loop, from the
    # accumulator's same left-to-right sums.
    first = iteration + 1
    record = trace is not None
    phis = []
    capped = False
    for iteration in range(first, max_iter + 1):
        phi = atan2(moment * ((au * bv - bu * av) - cross), moment * (au * av + bu * bv + cc + dd))
        twice = 2.0 * phi
        c2 = cos(twice)
        s2 = sin(twice)
        au, bu = au * c2 - bu * s2, au * s2 + bu * c2
        applied += phi
        if record:
            phis.append(phi)
        if abs(phi) <= eps:
            break
    else:
        capped = True

    if record and phis:
        after = accumulate(phis, initial=alpha_acc)
        next(after)
        trace.extend(map(tuple.__new__, repeat(TraceEntry),
                         zip(range(first, iteration + 1), phis, after, repeat(None))))
    return au, bu, applied, iteration, capped


def detect(v: LinearField, u: LinearField, cfg: DetectorConfig = DetectorConfig(),
           record_trace: bool = True) -> DetectionResult:
    """Recover the total-rotation offset of pattern u against field v.

    The loop runs in decomposition coordinates: the correlation of two
    linear fields over a shared domain has scalar part
    I_A * (au*av + bu*bv + cu*cv + du*dv) and bivector part
    I_A * ((au*bv - bu*av) - (cu*dv - du*cv)), and a total rotation by
    phi turns the (au, bu) pair by 2*phi while fixing (cu, du).  This is
    exactly equivalent to conjugating the coefficient matrix but much
    cheaper per step.  Each field's coordinates are scaled by a power of
    two first, so the answer is the same at any scale.
    """
    if v.is_zero():
        raise DegenerateZeroFieldError("cannot align against the zero field")
    if u.is_zero():
        raise DegenerateZeroFieldError("cannot align a zero pattern")
    if u.domain != v.domain:
        raise DomainMismatchError("detect needs both fields on the same domain")

    moment = second_moment(v.domain)
    av, bv, cv, d_v, _ = _unit_scaled(*_coordinates(v.a11, v.a12, v.a21, v.a22))
    _, _, u_c, u_d = coords = _coordinates(u.a11, u.a12, u.a21, u.a22)
    au, bu, cu, d_u, u_exp = _unit_scaled(*coords)
    # Finite scaled coordinates lie in (-1, 1), so their sum is finite
    # exactly when every coordinate is.
    if not math.isfinite(av + bv + cv + d_v + au + bu + cu + d_u):
        raise ValueError("detect needs finite field coefficients")

    trace = [] if record_trace else None
    au, bu, applied, iteration, capped = _iterate(
        moment, av, bv, au, bu, cu * cv, d_u * d_v, cu * d_v - d_u * cv,
        cfg.eps, cfg.max_iter, trace=trace)
    status = (DetectionStatus.MAX_ITER_EXCEEDED if capped
              else DetectionStatus.CONVERGED)

    corrected = LinearField(*_entries(math.ldexp(au, u_exp), math.ldexp(bu, u_exp), u_c, u_d),
                            v.domain)
    return DetectionResult(
        alpha=wrap_angle(-applied),
        iterations=iteration,
        trace=tuple(trace) if record_trace else (),
        status=status,
        corrected=corrected,
    )


_BLOCK_ROWS = 32  # rows resampled per pass, so the temporaries stay in cache


def _resampler(original: SampledField) -> Callable[[float], SampledField]:
    """Prepare ``rotate(theta)``: total-rotate a sampled field by bilinear resampling.

    Values are looked up at the back-rotated positions and then rotated
    forward; positions falling outside the sample grid contribute zero.
    The components are copied once into zero planes with a two-cell
    margin, and floored cell indices are clipped to [-2, n]: a clipped
    corner then lands in the margin, so every lookup is a plain gather.
    Approximate by nature, unlike the linear-field path.
    """
    n = original.n
    length = original.domain.bounding_half_side
    h = 2.0 * length / n
    centers = original.centers()
    width = n + 4
    planes = np.zeros((2, width, width))
    planes[:, 2:n + 2, 2:n + 2] = np.moveaxis(original.values, 2, 0)
    plane1 = planes[0].ravel()
    plane2 = planes[1].ravel()
    outside = ~original.mask

    def rotate(theta: float) -> SampledField:
        c = math.cos(theta)
        s = math.sin(theta)
        cx1 = c * centers[None, :]   # R(-theta) x, the x1 terms
        sx1 = -s * centers[None, :]
        rotated = np.empty((n, n, 2))
        for r in range(0, n, _BLOCK_ROWS):
            x2 = centers[r:r + _BLOCK_ROWS, None]
            fx = (cx1 + s * x2 + length) / h - 0.5
            fy = (sx1 + c * x2 + length) / h - 0.5
            ix0 = np.floor(fx)
            iy0 = np.floor(fy)
            tx = fx - ix0
            ty = fy - iy0
            i00 = ((np.clip(iy0, -2, n) + 2) * width
                   + np.clip(ix0, -2, n) + 2).astype(np.intp)
            w00 = (1 - tx) * (1 - ty)
            w01 = tx * (1 - ty)
            w10 = (1 - tx) * ty
            w11 = tx * ty
            interp = [w00 * plane.take(i00) + w01 * plane.take(i00 + 1)
                      + w10 * plane.take(i00 + width) + w11 * plane.take(i00 + width + 1)
                      for plane in (plane1, plane2)]
            block = rotated[r:r + _BLOCK_ROWS]
            block[:, :, 0] = c * interp[0] - s * interp[1]
            block[:, :, 1] = s * interp[0] + c * interp[1]
        rotated[outside] = 0.0
        return SampledField(n, original.domain, rotated, original.mask)

    return rotate


def detect_sampled(v: SampledField, u: SampledField,
                   cfg: DetectorConfig = DetectorConfig()) -> DetectionResult:
    """Grid-backed detection: same loop, quadrature correlation, resampled copy.

    The copy is always re-interpolated from the original samples at the
    accumulated angle, so interpolation error does not compound.  Like
    ``detect``, it scales each field by a power of two first, so the
    answer is the same at any scale; ``corrected`` is scaled back.
    """
    if not v.compatible_with(u):
        raise DomainMismatchError("detect_sampled needs matching sampled fields")
    v_peak = float(np.abs(v.values).max())
    u_peak = float(np.abs(u.values).max())
    if not (math.isfinite(v_peak) and math.isfinite(u_peak)):
        raise ValueError("detect_sampled needs finite samples")
    if v_peak == 0.0:
        raise DegenerateZeroFieldError("cannot align against the zero field")
    if u_peak == 0.0:
        raise DegenerateZeroFieldError("cannot align a zero pattern")
    _, v_exp = math.frexp(v_peak)
    _, u_exp = math.frexp(u_peak)
    v = SampledField(v.n, v.domain, np.ldexp(v.values, -v_exp), v.mask)
    current = SampledField(u.n, u.domain, np.ldexp(u.values, -u_exp), u.mask)
    rotate = _resampler(current)

    phi = math.pi
    alpha_acc = 0.0
    applied = 0.0
    iteration = 0
    kicked = False
    trace = []
    status = None

    while abs(phi) > cfg.eps:
        if iteration == cfg.max_iter:
            status = DetectionStatus.MAX_ITER_EXCEEDED
            break
        iteration += 1

        cor = correlate_sampled(current, v)
        phi = math.atan2(cor.value.b, cor.value.s)
        alpha_acc += phi

        branch = None
        if iteration <= 2:
            phi, alpha_acc, kicked, branch = _special_case(iteration, phi, alpha_acc, kicked)

        applied += phi
        current = rotate(applied)
        trace.append(TraceEntry(iteration, phi, alpha_acc, branch))

    if status is None:
        status = DetectionStatus.CONVERGED

    return DetectionResult(
        alpha=wrap_angle(-applied),
        iterations=iteration,
        trace=tuple(trace),
        status=status,
        corrected=SampledField(u.n, u.domain, np.ldexp(current.values, u_exp), u.mask),
    )


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def oracle_detect(v: LinearField, u: LinearField, grid: int = 20001) -> float:
    """Brute-force ground truth for the offset, independent of correlation.

    Scans a uniform grid of candidate angles on (-pi/2, pi/2], scoring
    each by the Frobenius distance between v and the candidate's
    back-rotated copy of u (built by matrix conjugation), then refines
    the best cell with golden-section search down to 1e-10.
    """
    v_mat = v.matrix()
    a11, a12, a21, a22 = u.coefficients()

    step = math.pi / grid
    thetas = -0.5 * math.pi + step * np.arange(1, grid + 1)
    c = np.cos(thetas)
    s = np.sin(thetas)
    # A' = R(-theta) A R(-theta)^T
    r11 = c * a11 + s * a21
    r12 = c * a12 + s * a22
    r21 = -s * a11 + c * a21
    r22 = -s * a12 + c * a22
    b11 = r11 * c + r12 * s
    b12 = -r11 * s + r12 * c
    b21 = r21 * c + r22 * s
    b22 = -r21 * s + r22 * c
    dist_sq = ((b11 - v_mat[0, 0]) ** 2 + (b12 - v_mat[0, 1]) ** 2
               + (b21 - v_mat[1, 0]) ** 2 + (b22 - v_mat[1, 1]) ** 2)
    best = int(np.argmin(dist_sq))

    def dist(theta: float) -> float:
        m = total_rotate(u, -theta).matrix() - v_mat
        return float(np.sum(m * m))

    lo = thetas[best] - step
    hi = thetas[best] + step
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1 = dist(x1)
    f2 = dist(x2)
    while hi - lo > 1e-10:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = dist(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = dist(x2)
    return 0.5 * (lo + hi)


def detect_known_pattern(pattern_saddle: LinearField, field: LinearField) -> float:
    """One-shot offset recovery when the pattern's saddle part is known.

    Correlating the rotated field against the pattern's saddle part
    alone yields exp(-2*alpha*e12) times a positive norm (the invariant
    part of the field drops out over the symmetric domain), so the
    offset is minus half the correlation argument.
    """
    dec = decompose(pattern_saddle)
    if dec.saddle_energy() == 0.0:
        raise DegenerateZeroFieldError(
            "known-pattern detection needs a nonzero saddle part")
    if field.domain != pattern_saddle.domain:
        raise DomainMismatchError("pattern and field must share a domain")
    saddle_only = recompose(Decomposition(dec.a, dec.b, 0.0, 0.0),
                            pattern_saddle.domain)
    cor = correlate_linear(field, saddle_only)
    return -0.5 * math.atan2(cor.value.b, cor.value.s)
