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
from dataclasses import dataclass

import numpy as np

from .fields import (
    DomainMismatchError,
    LinearField,
    SampledField,
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
    (a saddle against a source) and products that underflow.
    """

    value: Multivector2
    argument: float
    magnitude: float

    @staticmethod
    def from_multivector(value: Multivector2) -> "CorrelationValue":
        return CorrelationValue(
            value=value,
            argument=math.atan2(value.b, value.s),
            magnitude=math.hypot(value.s, value.b),
        )


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
    """
    if u.domain != v.domain:
        raise DomainMismatchError(
            f"correlate_linear needs a shared domain, got {u.domain} and {v.domain}")
    half_moment = 0.5 * second_moment(u.domain)
    scalar = half_moment * (u.a11 * v.a11 + u.a12 * v.a12
                            + u.a21 * v.a21 + u.a22 * v.a22)
    bivector = half_moment * (u.a11 * v.a21 - u.a21 * v.a11
                              + u.a12 * v.a22 - u.a22 * v.a12)
    return CorrelationValue.from_multivector(Multivector2.spinor(scalar, bivector))


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
