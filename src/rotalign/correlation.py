"""Geometric cross-correlation of vector fields, evaluated at zero shift.

The correlation of two vector fields u, v over a domain A is

    integral over A of reverse(u(x)) * v(x) dx

with the geometric product of Cl(2,0).  For grade-1 fields the
integrand is a spinor (scalar + bivector), so the correlation lives in
the even subalgebra and carries an angle.

Two backends:

* ``correlate_linear`` integrates in closed form.  Over a domain that
  is symmetric in both coordinate axes, all moments reduce to
  integral(x1*x2) = 0 and integral(x1^2) = integral(x2^2) = I_A / 2,
  where I_A = integral(x1^2 + x2^2).  That single identity covers
  totally rotated copies, outer rotated copies, and arbitrary pairs.
* ``correlate_sampled`` runs midpoint quadrature on cell-center grids,
  for fields that are only available as samples.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .fields import (
    DomainMismatchError,
    LinearField,
    SampledField,
    _unit_scaled,
    decompose,
    eval_field,
    second_moment,
)
from .multivector import Multivector2, gp, reverse

__all__ = [
    "CorrelationValue",
    "second_moment",
    "correlate_linear",
    "correlate_sampled",
    "product_at",
    "field_norms",
]


@dataclass(frozen=True)
class CorrelationValue:
    """A correlation result: the even-graded value with its polar data.

    ``argument`` is atan2(bivector, scalar) in (-pi, pi] and 0.0 for the
    all-zero value, which zero fields give, but so do orthogonal fields
    (a saddle against a source) and, for samples, products that
    underflow.  A value that is not finite has no argument, so
    ``from_multivector`` refuses it.
    """

    value: Multivector2
    argument: float
    magnitude: float

    @staticmethod
    def from_multivector(value: Multivector2) -> "CorrelationValue":
        magnitude = math.hypot(value.s, value.b)
        if not math.isfinite(magnitude):  # finite exactly when both parts are
            raise ValueError("the correlation value is not finite; its products overflow")
        return CorrelationValue(value, math.atan2(value.b, value.s), magnitude)


def field_norms(field: LinearField) -> tuple:
    """Squared L2 norms (saddle part, invariant part) of the field over its domain."""
    dec = decompose(field)
    moment = second_moment(field.domain)
    return dec.saddle_energy() * moment, dec.invariant_energy() * moment


def correlate_linear(u: LinearField, v: LinearField) -> CorrelationValue:
    """Closed-form correlation of two linear fields over their shared domain.

    With U, V the coefficient matrices and I_A the domain's second
    moment, the mixed x1*x2 moments vanish and

        scalar   = (I_A/2) * sum_ij U_ij V_ij
        bivector = (I_A/2) * (U11 V21 - U21 V11 + U12 V22 - U22 V12)

    Reversion of a grade-1 field is the field itself, so no sign enters.

    The argument is read, as ``detect`` reads it, from the same sums
    over each field's entries scaled by a power of two, so it is the same
    at any scale.  A value that overflows is refused, and so is one
    that underflows to zero or to a subnormal although the scaled sums
    are not zero: its argument would be lost.  Zero and orthogonal
    fields keep the argument 0.0.
    """
    if u.domain != v.domain:
        raise DomainMismatchError(
            f"correlate_linear needs a shared domain, got {u.domain} and {v.domain}")
    half_moment = 0.5 * second_moment(u.domain)
    cor = CorrelationValue.from_multivector(
        Multivector2.spinor(*_sums(half_moment, u.coefficients(), v.coefficients())))
    scalar, bivector = _sums(half_moment, _unit_scaled(*u.coefficients())[:4],
                             _unit_scaled(*v.coefficients())[:4])
    if cor.magnitude < sys.float_info.min and (scalar or bivector):
        raise ValueError("the correlation of these fields underflows to "
                         f"{cor.magnitude!r}, so its argument is lost")
    return CorrelationValue(cor.value, math.atan2(bivector, scalar), cor.magnitude)


def _sums(half_moment: float, u: tuple, v: tuple) -> tuple:
    """(scalar, bivector) of ``correlate_linear`` on entries u and v, (a11, a12, a21, a22) each."""
    u11, u12, u21, u22 = u
    v11, v12, v21, v22 = v
    return (half_moment * (u11 * v11 + u12 * v12 + u21 * v21 + u22 * v22),
            half_moment * (u11 * v21 - u21 * v11 + u12 * v22 - u22 * v12))


def correlate_sampled(u: SampledField, v: SampledField) -> CorrelationValue:
    """Midpoint-quadrature correlation of two sampled fields.

    Sums reverse(u_cell) * v_cell * cell_area over cells inside the
    domain.  For grade-1 samples each term is a spinor exactly, so the
    result has no vector part to within rounding.
    """
    if not u.compatible_with(v):
        raise DomainMismatchError(
            "correlate_sampled needs matching resolution, domain, and mask")
    u1 = u.values[:, :, 0]
    u2 = u.values[:, :, 1]
    v1 = v.values[:, :, 0]
    v2 = v.values[:, :, 1]
    scalar = float(np.sum(u1 * v1 + u2 * v2)) * u.cell_area
    bivector = float(np.sum(u1 * v2 - u2 * v1)) * u.cell_area
    return CorrelationValue.from_multivector(Multivector2.spinor(scalar, bivector))


def product_at(u: LinearField, v: LinearField, x: tuple) -> Multivector2:
    """Pointwise integrand reverse(u(x)) * v(x), before any integration.

    Useful for probing where the pointwise angle leaves the band that
    the integrated correlation is confined to.
    """
    return gp(reverse(eval_field(u, x)), eval_field(v, x))
