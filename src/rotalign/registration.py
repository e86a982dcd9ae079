"""Iterative detection of the total-rotation offset between two linear fields.

The correlation of a field's totally rotated copy (by angle t) against
the original is

    exp(-2*t*e12) * n1 + n2

where n1 and n2 are the squared L2 norms of the saddle part and the
invariant (source/vortex) part.  Its argument phi always lies between
-2*t and 0, with the opposite sign of t, so rotating the copy by phi
shrinks the offset and the fixed-point iteration

    phi <- arg(correlate(u, v));  u <- total_rotate(u, phi)

drives the offset to zero whenever both n1 and n2 are nonzero.  A pair
where one field is a pure saddle and the other pure source/vortex
correlates to zero at every turn and defines no offset, so it is
refused.  Two degenerate families need special handling inside the loop:

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
loop that only reads, turns and adds.  Both detectors record plain
values: readings 1 and 2 as (phi, accumulator, branch), every later
one as its phi.  ``DetectionResult.trace`` builds the entries from them
when it is first read, summing the accumulator of the later readings
left to right, so they equal entries recorded reading by reading.  A
campaign's trials run the loop as arrays in ``_detect_all``, which
records no readings and hands each trial that the rule can act on to
``_iterate``.

Loop equality tests ("accumulator is zero", "phi is -pi/2") are taken
up to ``_ZERO_TOL`` = 1e-9 because correlation arguments are floating
point; it is fixed, and every stopping accuracy eps must exceed it.
The loop runs on ``abs(phi) > eps``; a plain ``phi > eps`` would stop
on the first negative reading, which is the common case.

Linear fields are closed under total rotation, so the loop updates the
copy exactly (the saddle coefficient pair rotates by 2*phi) instead of
resampling.  ``detect_sampled`` is the grid-backed entry point.  It
projects both samples onto linear fields by four grid moments, reading
each sample once for its peak, its fit and a bound on the fit's
residual, and when both reproduce their samples to ``_LINEAR_TOL`` =
1e-12 (relative residual over all cells) it answers with ``detect`` on
the projections.  Any other pair runs the same loop on the samples,
with quadrature correlation and a copy re-interpolated each step, and
is therefore approximate.

A result's ``corrected`` copy is a by-product of the answer, so
``detect`` and the projection keep only what it is built from (the
turned saddle pair, the pattern's exponent, its invariant pair, the
grid) and build it when it is first read.  Whether it overflows is
settled during the call: where a bound on its entries cannot rule
that out, the same builder runs at once.

``oracle_detect`` and ``detect_known_pattern`` need no loop: the turn
of one linear field nearest another is half the angle between their
saddle pairs.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property, partial
from itertools import accumulate, chain, compress, count, repeat
from typing import Callable, NamedTuple, Optional

import numpy as np

from .correlation import correlate_sampled, second_moment
from .fields import (
    DomainMismatchError,
    LinearField,
    SampledField,
    SymmetricDomain,
    _centers,
    _conjugate,
    _coordinates,
    _entries,
    _grid_values,
    _unit_scaled,
)
from .multivector import wrap_angle

# Unused here, but bound because benchmarks/tracing.py patches them in this module.
from .correlation import correlate_linear
from .fields import decompose, recompose, total_rotate

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
_LINEAR_TOL = 1e-12  # relative residual under which a sample counts as linear
_MAX_EXP = sys.float_info.max_exp
_MIN_EXP = sys.float_info.min_exp


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


def _integer(name: str, value) -> int:
    """``value`` as an int, or ``ValueError`` naming ``name``."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class DetectorConfig:
    """Stopping accuracy eps (above the 1e-9 branch tolerance) and iteration cap."""

    eps: float = 1e-6
    max_iter: int = 10000

    def __post_init__(self):
        if not self.eps > _ZERO_TOL:
            raise ValueError(f"eps must exceed the branch tolerance {_ZERO_TOL!r}, "
                             f"got {self.eps!r}")
        if _integer("max_iter", self.max_iter) < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter!r}")


class _Deferred(partial):
    """A corrected copy not built yet: calling it builds the copy."""

    __slots__ = ()


def _when_read(eager: bool, build: Callable, *args):
    """``build(*args)`` now when eager, else a ``_Deferred`` that builds it when first read."""
    return build(*args) if eager else _Deferred(build, *args)


class _BuiltOnRead:
    """``DetectionResult.corrected``: a field whose value may be a ``_Deferred``.

    The value is kept under ``_corrected``; a deferred one is built on the
    first read and replaces its recipe, so later reads return the same
    object.  A class-level read raises ``AttributeError``, so that the
    dataclass sees no default.
    """

    def __get__(self, result, owner=None):
        if result is None:
            raise AttributeError("corrected")
        value = result.__dict__["_corrected"]
        if type(value) is _Deferred:
            value = result.__dict__["_corrected"] = value()
        return value

    def __set__(self, result, value):
        result.__dict__["_corrected"] = value


@dataclass(frozen=True)
class DetectionResult:
    """Outcome of a detection run.

    ``alpha`` is the misalignment estimate: the angle by which the
    pattern was totally rotated away from the field, wrapped to
    (-pi, pi] and meaningful modulo pi.  It is the negated sum of all
    rotations the loop applied to the pattern.  The trace keeps the raw
    per-iteration readings and the loop's own accumulator (which the
    special-case branches overwrite), unwrapped for debuggability.

    The loop records only ``_readings``: readings 1 and 2 as (phi,
    accumulator, branch) and every later one as its phi.  ``trace`` is
    built from them when it is first read, and kept.  Results compare,
    hash, pickle and ``replace`` by their readings, which determine the
    trace.

    ``corrected`` is the pattern turned by the answer.  The detectors
    hand it over as a recipe, the few values it is built from, and it
    is built on its first read and kept; where it could overflow it is
    built during the call instead, by the same builder.  Comparing,
    hashing, ``repr`` and ``replace`` without ``corrected=`` read it, as
    they read every field; pickling keeps the recipe.  A ``SampledField``
    compares by value and does not hash, so ``detect_sampled``'s results
    compare but raise ``TypeError`` when hashed.
    """

    alpha: float
    iterations: int
    _readings: tuple = field(repr=False)
    status: DetectionStatus
    corrected: object = _BuiltOnRead()  # LinearField or SampledField

    def converged(self) -> bool:
        return self.status is DetectionStatus.CONVERGED

    @cached_property
    def trace(self) -> tuple:
        """One ``TraceEntry`` per reading, so ``iterations`` of them."""
        head = self._readings[:2]
        phis = self._readings[2:]
        entries = [TraceEntry(i, *reading) for i, reading in enumerate(head, 1)]
        if phis:
            after = accumulate(phis, initial=head[1][1])
            next(after)
            entries.extend(map(tuple.__new__, repeat(TraceEntry),
                               zip(count(3), phis, after, repeat(None))))
        return tuple(entries)


def phi_of_alpha(v: LinearField, alpha: float) -> float:
    """Closed-form correlation argument for the copy rotated by alpha.

    Equals atan2(-sin(2*alpha)*n1, cos(2*alpha)*n1 + n2) with (n1, n2)
    the saddle/invariant squared norms of v, read like ``detect`` from
    coordinates scaled by a power of two, so at any scale.
    """
    a, b, c, d, _ = _unit_scaled(*_coordinates(v.a11, v.a12, v.a21, v.a22))
    moment = second_moment(v.domain)
    n1 = (a * a + b * b) * moment
    n2 = (c * c + d * d) * moment
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


def _uncorrelated(v: tuple, u: tuple):
    """Whether no turn correlates fields with coordinates v and u: (a, b, c, d) each.

    True when one field's saddle pair (a, b) and the other's invariant
    pair (c, d) are zero, which includes a zero field: the correlation
    is then zero at every turn and defines no offset.  Takes floats or
    arrays of them, elementwise.
    """
    v_saddle = (v[0] == 0.0) & (v[1] == 0.0)
    u_saddle = (u[0] == 0.0) & (u[1] == 0.0)
    v_invariant = (v[2] == 0.0) & (v[3] == 0.0)
    u_invariant = (u[2] == 0.0) & (u[3] == 0.0)
    return (v_saddle | u_saddle) & (v_invariant | u_invariant)


def _pair_norms(field: LinearField) -> tuple:
    """(|(a, b)|, |(c, d)|): the lengths of the field's saddle and invariant pairs."""
    a, b, c, d = _coordinates(field.a11, field.a12, field.a21, field.a22)
    return math.hypot(a, b), math.hypot(c, d)


def _iterate(moment: float, av: float, bv: float, au: float, bu: float,
             cc: float, dd: float, cross: float, eps: float, max_iter: int,
             applied: float = 0.0, iteration: int = 0, readings: Optional[list] = None) -> tuple:
    """``detect``'s loop, resumed after ``iteration`` readings to its stop.

    (av, bv) and (au, bu) are the scaled saddle coordinates of the field
    and of the pattern; cc = cu*cv, dd = du*dv and cross = cu*dv - du*cv
    are the loop-invariant terms of the source/vortex pair, taken out of
    the loop without changing a bit.  The trial must still be running,
    and no branch may have acted on it, so the loop's own accumulator
    (which the branches overwrite) starts at ``applied``, the rotation
    applied so far.  When ``readings`` is given, each reading is
    appended to it as ``DetectionResult`` keeps them.  Returns (au, bu,
    applied, iteration, capped).
    """
    atan2 = math.atan2
    cos = math.cos
    sin = math.sin
    phi = math.pi
    alpha_acc = applied
    kicked = False

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

        if readings is not None:
            readings.append((phi, alpha_acc, branch))

    if abs(phi) <= eps:
        return au, bu, applied, iteration, False

    # Readings 3 on: the branch rule cannot fire, so only read, turn and
    # add, and record the reading alone.
    record = readings is not None
    capped = False
    for iteration in range(iteration + 1, max_iter + 1):
        phi = atan2(moment * ((au * bv - bu * av) - cross), moment * (au * av + bu * bv + cc + dd))
        twice = 2.0 * phi
        c2 = cos(twice)
        s2 = sin(twice)
        au, bu = au * c2 - bu * s2, au * s2 + bu * c2
        applied += phi
        if record:
            readings.append(phi)
        if abs(phi) <= eps:
            break
    else:
        capped = True
    return au, bu, applied, iteration, capped


# Running trials at which the array loop hands the rest to detect's loop.
# 64 and 128 measured alike and 256 about 5% slower; at 128 every float
# array of a pass holds over 1 KiB, which numpy frees rather than caches.
_HANDOVER = 128


def _mapped(fn, *arrays) -> np.ndarray:
    """fn applied elementwise through Python floats.

    It serves ``math.atan2`` and ``wrap_angle`` only.  numpy's own
    ``arctan2`` differs from ``math.atan2`` in the last bit on about 3%
    of inputs, and ``wrap_angle`` is Python code, so both go through
    Python floats as in ``detect``.  numpy's float64 ``cos`` and ``sin``
    call the C library's functions, as ``math`` does, so the array paths
    call them directly (``test_numpy_cos_sin_match_math_bit_for_bit``).
    """
    return np.fromiter(map(fn, *(a.tolist() for a in arrays)), dtype=float,
                       count=len(arrays[0]))


def _unit_scaled_arrays(coords) -> tuple:
    """``fields._unit_scaled`` on coordinate arrays (without the exponent)."""
    peak = np.maximum(np.maximum(np.abs(coords[0]), np.abs(coords[1])),
                      np.maximum(np.abs(coords[2]), np.abs(coords[3])))
    shift = -np.frexp(peak)[1]
    return tuple(np.ldexp(x, shift) for x in coords)


def _detect_all(field, copy, moment: float, eps: float, max_iter: int) -> tuple:
    """``detect(field_i, copy_i)`` for every trial i: (live, applied, iterations, capped).

    ``field`` and ``copy`` hold the entries (a11, a12, a21, a22), one
    array each, on a domain of second moment ``moment``.  ``live`` marks
    the trials ``detect`` does not refuse; the other arrays hold those,
    in order, and ``applied`` is the loop's summed rotation, so alpha is
    wrap_angle(-applied).  Every live trial runs detect's loop bit for
    bit.  The running trials share one iteration count, and their
    loop-invariant terms, pattern coordinates and summed rotation sit in
    one stacked array ``[av, bv, au, bu, cc, dd, cross, applied]``, so a
    stop drops them with a single column selection.  Each pass reads
    every correlation argument with ``math.atan2``, adds it and turns the
    pattern in place.

    Until a branch acts, detect's accumulator equals the summed rotation
    bit for bit, so the branch rule can act only where that sum is within
    ``_ZERO_TOL`` of zero at reading 1 or 2.  Those trials rerun from
    their start in ``_iterate``, which holds the rule.  The counts are
    heavy-tailed (at eps 0.1 the median trial stops after 3 iterations
    and the p99 after 263), so the last ``_HANDOVER`` trials finish
    there too, where a step costs less than a pass over a few array
    elements.
    """
    v = _unit_scaled_arrays(_coordinates(*field))
    u = _unit_scaled_arrays(_coordinates(*copy))
    live = ~_uncorrelated(v, u)
    av, bv, cv, dv = (x[live] for x in v)
    au, bu, cu, du = (x[live] for x in u)
    n = len(av)
    applied_out = np.zeros(n)
    iterations = np.zeros(n, dtype=np.int64)
    capped = np.zeros(n, dtype=bool)

    # The running trials' indices, stacked state and last reading.  The
    # state is turned in place, so the reruns read their start from a copy.
    trial = np.arange(n)
    start = np.stack([av, bv, au, bu, cu * cv, du * dv, cu * dv - du * cv])
    state = np.concatenate([start, np.zeros((1, n))])
    phi = np.full(n, math.pi)
    rerun = []
    handed = ()
    # numpy keeps freed blocks under 1 KiB for reuse, per byte size, so a
    # mask of every shrinking size would pile up; it gets one buffer.
    mask = np.empty(n, dtype=bool)
    iteration = 0
    while True:
        running = np.greater(np.abs(phi), eps, out=mask[:len(phi)])
        kept = np.count_nonzero(running)
        if kept < len(phi) or iteration == max_iter:
            # Stopped trials keep what this writes; running ones are written again when they stop.
            applied_out[trial] = state[7]
            iterations[trial] = iteration
        if not kept:
            break
        if iteration == max_iter:
            capped[trial] = running
            break
        if kept <= _HANDOVER:
            handed = compress(zip(trial.tolist(), zip(*state[:7].tolist()), state[7].tolist(),
                                  repeat(iteration)), running.tolist())
            break
        if kept < len(phi):
            trial = trial[running]
            state = state[:, running]
            phi = phi[running]

        av, bv, au, bu, cc, dd, cross, applied = state
        iteration += 1
        cor_s = moment * (au * av + bu * bv + cc + dd)
        cor_b = moment * ((au * bv - bu * av) - cross)
        phi = _mapped(math.atan2, cor_b, cor_s)
        applied += phi
        if iteration <= 2:
            near = np.flatnonzero(np.abs(applied) <= _ZERO_TOL)
            if len(near):
                rerun += trial[near].tolist()
                phi[near] = 0.0
        twice = 2.0 * phi
        c2 = np.cos(twice)
        s2 = np.sin(twice)
        au_s2 = au * s2
        bu_s2 = bu * s2
        au *= c2
        au -= bu_s2
        bu *= c2
        bu += au_s2

    reruns = zip(rerun, zip(*start[:, rerun].tolist()), repeat(0.0), repeat(0))
    for i, coords, applied, iteration in chain(handed, reruns):
        _, _, applied_out[i], iterations[i], capped[i] = _iterate(
            moment, *coords, eps, max_iter, applied, iteration)
    return live, applied_out, iterations, capped


def detect(v: LinearField, u: LinearField, cfg: DetectorConfig = DetectorConfig()) -> DetectionResult:
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
    if _uncorrelated((av, bv, cv, d_v), (au, bu, cu, d_u)):
        raise DegenerateZeroFieldError("no turn correlates the two fields: one is a pure saddle "
                                       "field and the other pure source/vortex")
    # A turn moves the saddle pair anywhere on its circle of radius
    # h = hypot(a, b), so some turn overflows an entry of the corrected
    # pattern (a' + c, ...) or a sum of entries (2 a', ...) when
    # h + max(h, |c|, |d|) overflows.  Scaled, that is below 4, so only
    # the top two exponents need the test, and below the top four the
    # corrected pattern can wait until it is read.
    if u_exp >= _MAX_EXP - 1:
        h = math.hypot(au, bu)
        if math.frexp(h + max(h, abs(cu), abs(d_u)))[1] + u_exp > _MAX_EXP:
            raise ValueError(f"pattern {u.coefficients()!r} is too large: some turn of it "
                             f"overflows its entries")

    readings = []
    au, bu, applied, iteration, capped = _iterate(
        moment, av, bv, au, bu, cu * cv, d_u * d_v, cu * d_v - d_u * cv,
        cfg.eps, cfg.max_iter, readings=readings)
    corrected = _when_read(u_exp >= _MAX_EXP - 3, _linear_copy, au, bu, u_c, u_d, u_exp, v.domain)
    return _result(applied, iteration, readings, capped, corrected)


def _linear_copy(au: float, bu: float, c: float, d: float, exp: int,
                 domain: SymmetricDomain) -> LinearField:
    """The field with saddle pair (au, bu) * 2**exp and invariant pair (c, d)."""
    return LinearField(*_entries(math.ldexp(au, exp), math.ldexp(bu, exp), c, d), domain)


def _result(applied: float, iteration: int, readings, capped: bool,
            corrected) -> DetectionResult:
    """The result of a loop that applied ``applied`` in ``iteration`` readings."""
    status = DetectionStatus.MAX_ITER_EXCEEDED if capped else DetectionStatus.CONVERGED
    return DetectionResult(alpha=wrap_angle(-applied), iterations=iteration,
                           _readings=tuple(readings), status=status, corrected=corrected)


_BLOCK_ROWS = 32  # rows per pass of the resampler and the fit, so the temporaries stay in cache


def _resampler(original: SampledField) -> Callable[[float], SampledField]:
    """Prepare ``rotate(theta)``: total-rotate a sampled field by bilinear resampling.

    Values are looked up at the back-rotated positions and then rotated
    forward; positions falling outside the sample grid contribute zero.
    The components are copied once into zero planes with a two-cell
    margin, and floored cell indices are clipped to [-2, n]: a clipped
    corner then lands in the margin, so every lookup is a plain gather.
    Approximate by nature, unlike the linear-field path.  The copies are
    not checked for finite values: the detector's samples peak below 1,
    and an interpolated, rotated value stays below 1.5.
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
        return SampledField._unchecked(n, original.domain, rotated, original.mask)

    return rotate


def _scaled(values: np.ndarray, exp: int, out: Optional[np.ndarray]) -> np.ndarray:
    """values * 2**exp into out, bit for bit as ``np.ldexp`` gives it.

    Where 2**exp is a normal double this is one multiply, whose single
    rounding is the one ``np.ldexp`` makes; beyond that (subnormal peaks,
    or peaks above 2**1022 scaled down) it is ``np.ldexp``.
    """
    if _MIN_EXP - 1 <= exp < _MAX_EXP:
        return np.multiply(values, 2.0 ** exp, out=out)
    return np.ldexp(values, exp, out=out)


def _peak(values: np.ndarray) -> tuple:
    """(peak, exp): max |value|, read without an abs temporary, and its frexp exponent."""
    peak = max(float(values.max()), -float(values.min()))
    return peak, math.frexp(peak)[1]


def _linear_fitter(grid: SampledField) -> Callable[[np.ndarray], tuple]:
    """Prepare ``fit(values)`` for samples on ``grid``'s cells and mask.

    ``fit`` returns (field, peak, exp): peak and exp as ``_peak`` gives
    them, and the linear field whose masked samples match values *
    2**-exp to ``_LINEAR_TOL`` (relative residual over all cells), or
    None.  The cell centers and the domain's mask are symmetric in both
    axes and under a quarter turn, so on the masked grid sum x1*x2 = 0
    and sum x1^2 = sum x2^2, and least squares gives a_ij = sum v_i x_j
    / sum x_j^2.  The moments run over every cell, which is the masked
    grid when the cells outside the domain hold zero, as ``sample``
    leaves them.  The residual is taken over every cell too, so a sample
    with anything else outside the domain is not linear.

    One traversal reads each value once, in blocks of ``_BLOCK_ROWS``
    rows.  A block raises the running peak and is scaled by 2**-exp of
    it into one cache-sized buffer; what was summed at a smaller
    exponent is rescaled by a power of two, which is exact.  The block
    then adds its column sums and x2-weighted rows (one ``[1; x2] @
    block`` product), its energy, and its squared misfit against a trial
    fit: the first block's own least-squares fit, subtracted under the
    mask.  Each block's trial values are the previous block's plus one
    constant, so no block pays a broadcast.

    Where sum x1*x2 = 0 and sum x2^2 = W, the x1 weight (a mask whose
    rows mirror in x2, with equal weights), the fit from the moments is
    the least-squares fit over the masked cells up to the values outside
    them.  Its residual is then at most the trial's times 1 + X/W, with X
    the sum of |x|^2 over the cells outside the mask, and within the
    bound it is accepted.  Otherwise a second traversal sums the fit's
    own misfit and stops once it exceeds the bound.
    """
    n = grid.n
    x = grid.centers()
    squares = x * x
    mask = grid.mask
    cells_in = mask.view(np.uint8)
    columns_in = cells_in.sum(axis=0, dtype=np.uint32)
    rows_in = cells_in.sum(axis=1, dtype=np.uint32)
    weight = float(columns_in @ squares)
    top = slice(0, _BLOCK_ROWS)
    top_x1 = float(cells_in[top].sum(axis=0, dtype=np.uint32) @ squares)
    top_x2 = float(rows_in[top] @ squares[top])
    trial_bound = bool(top_x1 and top_x2 and float(rows_in @ squares) == weight
                       and np.array_equal(mask, mask[::-1]))
    if trial_bound:
        stretch = 1.0 + float((2 * n - columns_in - rows_in) @ squares) / weight
        # where=True, for blocks wholly inside the mask, runs numpy's unmasked loop.
        inside = [True if m.all() else m for m in map(mask.__getitem__, _blocks(n))]
    ones_x2 = np.stack([np.ones(n), x])
    buffer = np.empty((min(n, _BLOCK_ROWS), 2 * n))

    def fit(values: np.ndarray) -> tuple:
        if not weight:
            return (None, *_peak(values))
        rows = values.reshape(n, 2 * n)
        moments = np.zeros((2, 2 * n))
        energy = misfit = peak = 0.0
        exp = 0
        trial = None
        for k, block_rows in enumerate(_blocks(n)):
            source = rows[block_rows]
            block_peak, shift = _peak(source)
            if block_peak > peak:
                if peak and shift != exp:
                    # Rescale what was summed at 2**-exp.
                    _scaled(moments, exp - shift, moments)
                    energy = math.ldexp(energy, 2 * (exp - shift))
                    misfit = math.ldexp(misfit, 2 * (exp - shift))
                    if trial is not None:
                        _scaled(trial.view(float), exp - shift, trial.view(float))
                        row_term = complex(math.ldexp(row_term.real, exp - shift),
                                           math.ldexp(row_term.imag, exp - shift))
                peak, exp = block_peak, shift
            block = _scaled(source, -exp, buffer[:len(source)])
            moments += ones_x2[:, block_rows] @ block
            energy += np.vdot(block, block)
            if not trial_bound:
                continue
            if trial is None:
                t11, t21 = x @ moments[0].reshape(n, 2) / top_x1
                t12, t22 = moments[1].reshape(n, 2).sum(axis=0) / top_x2
                row_term = complex(t12, t22)
                trial = np.add.outer(x[top] * row_term, x * complex(t11, t21))
            else:
                trial += (x[block_rows.start] - x[block_rows.start - _BLOCK_ROWS]) * row_term
            cells = block.view(complex)
            np.subtract(cells, trial[:len(source)], out=cells, where=inside[k])
            misfit += np.vdot(block, block)
        # (a11, a21): weight the column sums by x1.  (a12, a22): sum the
        # x2-weighted rows over the cells.
        along_x1 = x @ moments[0].reshape(n, 2) / weight
        along_x2 = moments[1].reshape(n, 2).sum(axis=0) / weight
        linear = LinearField(float(along_x1[0]), float(along_x2[0]),
                             float(along_x1[1]), float(along_x2[1]), grid.domain)
        bound = _LINEAR_TOL * _LINEAR_TOL * energy
        if trial_bound and misfit * stretch <= bound:
            return linear, peak, exp
        misfit = 0.0
        for block_rows in _blocks(n):
            source = rows[block_rows]
            block = _scaled(source, -exp, buffer[:len(source)])
            block -= _grid_values(linear, x, x[block_rows], mask[block_rows]).reshape(block.shape)
            misfit += np.vdot(block, block)
            if misfit > bound:
                return None, peak, exp
        return linear, peak, exp

    return fit


def _blocks(n: int) -> list:
    """The row slices of ``_BLOCK_ROWS`` rows that cover n rows."""
    return [slice(r, r + _BLOCK_ROWS) for r in range(0, n, _BLOCK_ROWS)]


def detect_sampled(v: SampledField, u: SampledField,
                   cfg: DetectorConfig = DetectorConfig()) -> DetectionResult:
    """Grid-backed detection: ``detect`` on linear samples, the resample loop on others.

    Each field is scaled by a power of two, so the answer is the same at
    any scale.  When both scaled samples are linear to ``_LINEAR_TOL`` =
    1e-12 (relative residual over all cells; see ``_linear_fitter``,
    which scales them block by block), the answer is ``detect`` on the
    two projected linear fields, and ``corrected`` holds the masked
    samples of its corrected field, laid out on the grid when first
    read; no scaled copy of either sample is made.  Otherwise both
    scaled copies are made and ``_detect_by_resampling`` runs the loop
    on them, and ``corrected`` is its last resampled copy.  Either way
    ``corrected`` is scaled back to the pattern's scale.  A turned copy
    can peak above the samples, and a pattern whose copy would then
    overflow is refused with ``ValueError`` during the call.  The result
    holds the mask but neither sample's values.
    """
    if not v.compatible_with(u):
        raise DomainMismatchError("detect_sampled needs matching sampled fields")
    fit = _linear_fitter(v)
    v_fit, v_peak, v_exp = fit(v.values)
    if v_peak == 0.0:
        raise DegenerateZeroFieldError("cannot align against the zero field")
    if v_fit is None:
        u_fit = None
        u_peak, u_exp = _peak(u.values)
    else:
        u_fit, u_peak, u_exp = fit(u.values)
    del fit  # and its block buffer, before any full-size copy is made
    if u_peak == 0.0:
        raise DegenerateZeroFieldError("cannot align a zero pattern")

    if u_fit is None:
        result = _detect_by_resampling(
            SampledField._unchecked(v.n, v.domain, _scaled(v.values, -v_exp, None), v.mask),
            SampledField._unchecked(u.n, u.domain, _scaled(u.values, -u_exp, None), u.mask),
            cfg)
    else:
        # The projections carry rounding noise, so detect's test for a
        # pair that no turn correlates is taken relative to their norms.
        (v_saddle, v_invariant), (u_saddle, u_invariant) = map(_pair_norms, (v_fit, u_fit))
        if (v_saddle * u_saddle + v_invariant * u_invariant
                <= _LINEAR_TOL * math.hypot(v_saddle, v_invariant)
                * math.hypot(u_saddle, u_invariant)):
            raise DegenerateZeroFieldError("no turn correlates the two samples beyond "
                                           f"{_LINEAR_TOL!r} of their norms")
        result = detect(v_fit, u_fit, cfg)
    # A turned copy can peak above its pattern (by up to sqrt(2) for a
    # saddle on the square), so it may overflow where the samples did not.
    try:
        if u_fit is None:
            values = result.corrected.values
            with np.errstate(over="raise"):
                _scaled(values, u_exp, values)
            return result
        linear = result.corrected
        # Every value a11*x1 + a12*x2 or a21*x1 + a22*x2 of the scaled
        # copy is at most reach, as |x1|, |x2| < L.  Where reach * 2**u_exp
        # stays below 2**(_MAX_EXP - 1), a binade short of overflow, and
        # u_exp below the top four exponents, the copy waits to be read.
        reach = (max(abs(linear.a11) + abs(linear.a12), abs(linear.a21) + abs(linear.a22))
                 * u.domain.bounding_half_side)
        eager = u_exp >= _MAX_EXP - 3 or math.frexp(reach)[1] + u_exp >= _MAX_EXP
        corrected = _when_read(eager, _sampled_copy, linear, u_exp, u.n, u.domain, u.mask)
    except FloatingPointError:
        raise ValueError(f"pattern samples (peak {u_peak!r}) are too large: their "
                         f"corrected copy overflows") from None
    return replace(result, corrected=corrected)


def _sampled_copy(linear: LinearField, exp: int, n: int, domain: SymmetricDomain,
                  mask: np.ndarray) -> SampledField:
    """The masked samples of ``linear`` on the n-grid, times 2**exp.

    Raises ``FloatingPointError`` if a value overflows.
    """
    x = _centers(domain, n)
    values = _grid_values(linear, x, x, mask)
    with np.errstate(over="raise"):
        _scaled(values, exp, values)
    return SampledField._unchecked(n, domain, values, mask)


def _detect_by_resampling(v: SampledField, u: SampledField,
                          cfg: DetectorConfig) -> DetectionResult:
    """``detect``'s loop on samples: quadrature correlation, resampled copy.

    The copy is always re-interpolated from the original samples at the
    accumulated angle, so interpolation error does not compound.
    ``corrected`` is the last copy, at the scale of u.
    """
    current = u
    rotate = _resampler(u)

    phi = math.pi
    alpha_acc = 0.0
    applied = 0.0
    iteration = 0
    kicked = False
    capped = False
    readings = []

    while abs(phi) > cfg.eps:
        if iteration == cfg.max_iter:
            capped = True
            break
        iteration += 1

        phi = correlate_sampled(current, v).argument
        alpha_acc += phi
        phi, alpha_acc, kicked, branch = _special_case(iteration, phi, alpha_acc, kicked)

        applied += phi
        current = rotate(applied)
        readings.append((phi, alpha_acc, branch) if iteration <= 2 else phi)

    return _result(applied, iteration, readings, capped, current)


_ORACLE_GRID = 20001
# Scaled, entries are below 1, so a conjugated one is below 2 and off by
# under 2**-48, and a squared distance is below 36 and off by under 2**-43.
_ORACLE_SLACK = 2.0 ** -42  # for the two distances compared


def _half_saddle_angle(v: LinearField, u: LinearField) -> float:
    """The turn of v nearest to u in Frobenius norm, in (-pi/2, pi/2].

    A total rotation by t turns the saddle pair (a, b) by 2*t and fixes
    (c, d), so the nearest turn is half the angle from v's saddle pair
    to u's (the 2D Procrustes solution), read by ``atan2`` without
    products or scaling, so at any scale.  When either pair is zero
    every turn is as near: ``DegenerateZeroFieldError``.
    """
    av, bv, _, _ = _coordinates(v.a11, v.a12, v.a21, v.a22)
    au, bu, _, _ = _coordinates(u.a11, u.a12, u.a21, u.a22)
    if (av == 0.0 and bv == 0.0) or (au == 0.0 and bu == 0.0):
        raise DegenerateZeroFieldError("a field without a saddle part is as near at every turn")
    return 0.5 * wrap_angle(math.atan2(bu, au) - math.atan2(bv, av))


def oracle_detect(v: LinearField, u: LinearField) -> float:
    """Ground truth for the offset, independent of correlation.

    The answer is the turn t in (-pi/2, pi/2] that brings the copy
    R(-t) U R(-t)^T of u nearest to v, in closed form.  A uniform scan
    of candidate angles on (-pi/2, pi/2] certifies it: the candidates
    and the answer are scored by the Frobenius distance, built by matrix
    conjugation on both fields scaled by one power of two (exact, and it
    keeps the squares in range), and an answer worse than the best
    candidate beyond rounding raises ``RuntimeError``.  It refuses
    mismatched domains as ``detect`` does, and any field without a
    saddle part, the zero field included (``DegenerateZeroFieldError``).
    """
    if u.domain != v.domain:
        raise DomainMismatchError("oracle_detect needs both fields on the same domain")
    answer = _half_saddle_angle(v, u)
    _, e = math.frexp(max(map(abs, v.coefficients() + u.coefficients())))
    v_mat = np.ldexp(v.matrix(), -e)
    a11, a12, a21, a22 = (math.ldexp(x, -e) for x in u.coefficients())

    step = math.pi / _ORACLE_GRID
    thetas = np.append(-0.5 * math.pi + step * np.arange(1, _ORACLE_GRID + 1), answer)
    # A' = R(-theta) A R(-theta)^T
    b11, b12, b21, b22 = _conjugate(np.cos(thetas), -np.sin(thetas), a11, a12, a21, a22)
    dist_sq = ((b11 - v_mat[0, 0]) ** 2 + (b12 - v_mat[0, 1]) ** 2
               + (b21 - v_mat[1, 0]) ** 2 + (b22 - v_mat[1, 1]) ** 2)
    if dist_sq[-1] > dist_sq[:-1].min() + _ORACLE_SLACK:
        raise RuntimeError(f"the offset {answer!r} scores worse than the oracle's scan")
    return answer


def detect_known_pattern(pattern_saddle: LinearField, field: LinearField) -> float:
    """One-shot offset recovery when the pattern's saddle part is known.

    Half the angle from the pattern's saddle pair to the field's, as
    ``oracle_detect`` answers; invariant parts do not enter.
    """
    if field.domain != pattern_saddle.domain:
        raise DomainMismatchError("detect_known_pattern needs both fields on the same domain")
    return _half_saddle_angle(pattern_saddle, field)
