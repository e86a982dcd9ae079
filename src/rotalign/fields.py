"""Linear 2D vector fields on axis-symmetric domains.

A field is v(x) = A*x for a real 2x2 coefficient matrix A, supported on
a domain that is symmetric under reflection in both coordinate axes
(a centered square or disk) and zero outside it.

Every such field splits uniquely over the four canonical flows

    saddle    a(x) = x1*e1 - x2*e2
    saddle45  b(x) = x2*e1 + x1*e2
    source    c(x) = x1*e1 + x2*e2
    vortex    d(x) = x2*e1 - x1*e2

Under a total rotation (positions and vectors rotated together) the
saddle pair (a, b) rotates by twice the angle while the source/vortex
pair (c, d) is invariant.  That split is what makes rotation detection
by correlation work, so it gets its own value type.
"""

from __future__ import annotations

import csv
import math
import sys
import weakref
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .multivector import Multivector2

__all__ = [
    "SymmetricDomain",
    "second_moment",
    "LinearField",
    "Decomposition",
    "SampledField",
    "DomainMismatchError",
    "eval_field",
    "decompose",
    "recompose",
    "total_rotate",
    "outer_rotate",
    "inner_rotate",
    "sample",
    "saddle",
    "saddle45",
    "source",
    "vortex",
    "double_winding",
    "write_samples_csv",
]


class DomainMismatchError(ValueError):
    """Raised when an operation mixes fields over different domains."""


@dataclass(frozen=True)
class SymmetricDomain:
    """A centered square (kind='square', size=half side) or disk (kind='disk', size=radius)."""

    kind: str
    size: float

    def __post_init__(self):
        if self.kind not in ("square", "disk"):
            raise ValueError(f"unknown domain kind {self.kind!r}")
        if not (math.isfinite(self.size) and self.size > 0.0):
            raise ValueError(f"domain size must be finite and positive, got {self.size!r}")
        # Detection multiplies the moment by sums below 4 in magnitude, and
        # a subnormal moment would cost its readings their precision.
        try:
            moment = second_moment(self)
        except OverflowError:
            moment = math.inf
        if not (moment >= sys.float_info.min and math.isfinite(4.0 * moment)):
            raise ValueError(f"domain size {self.size!r} gives second moment {moment!r}, "
                             f"outside the range detection can represent")

    @staticmethod
    def square(half_side: float) -> "SymmetricDomain":
        return SymmetricDomain("square", float(half_side))

    @staticmethod
    def disk(radius: float) -> "SymmetricDomain":
        return SymmetricDomain("disk", float(radius))

    @property
    def bounding_half_side(self) -> float:
        return self.size

    def contains(self, x1: float, x2: float) -> bool:
        return bool(self.contains_grid(x1, x2))

    def contains_grid(self, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
        if self.kind == "square":
            return (np.abs(x1) <= self.size) & (np.abs(x2) <= self.size)
        return x1 * x1 + x2 * x2 <= self.size * self.size

    def to_json_dict(self) -> dict:
        key = "l" if self.kind == "square" else "r"
        return {"kind": self.kind, key: self.size}

    @staticmethod
    def from_json_dict(d: dict) -> "SymmetricDomain":
        _require_object(d, "domain")
        if "kind" not in d:
            raise ValueError("domain is missing key 'kind'")
        kind = d["kind"]
        key = "l" if kind == "square" else "r"
        if d.get(key) is None and d.get("size") is not None:
            key = "size"
        return SymmetricDomain(kind, _json_number(d, key, "domain"))


def second_moment(domain: SymmetricDomain) -> float:
    """I_A = integral over the domain of x1^2 + x2^2.

    Square of half side l: 8*l^4/3.  Disk of radius r: pi*r^4/2.
    """
    if domain.kind == "square":
        length = domain.size
        return 8.0 * length ** 4 / 3.0
    r = domain.size
    return math.pi * r ** 4 / 2.0


def _require_object(d, what: str) -> None:
    if not isinstance(d, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(d).__name__}")


def _json_number(d: dict, key: str, what: str) -> float:
    """d[key] as a float; a missing or non-numeric value is a ValueError naming key."""
    if d.get(key) is None:
        raise ValueError(f"{what} is missing key {key!r}")
    try:
        return float(d[key])
    except (TypeError, ValueError):
        raise ValueError(f"{what} key {key!r} is not a number: {d[key]!r}") from None


UNIT_SQUARE = SymmetricDomain.square(1.0)
UNIT_DISK = SymmetricDomain.disk(1.0)


@dataclass(frozen=True)
class LinearField:
    """v(x) = (a11*x1 + a12*x2)*e1 + (a21*x1 + a22*x2)*e2, zero outside domain."""

    a11: float
    a12: float
    a21: float
    a22: float
    domain: SymmetricDomain = UNIT_SQUARE

    def __post_init__(self):
        # Detection reads the basis coordinates; when they are finite, so are the entries.
        a11, a12, a21, a22 = self.a11, self.a12, self.a21, self.a22
        if not (math.isfinite(a11 - a22) and math.isfinite(a11 + a22)
                and math.isfinite(a12 + a21) and math.isfinite(a12 - a21)):
            raise ValueError(f"field coefficients and their sums must be finite, "
                             f"got {self.coefficients()!r}")

    def coefficients(self) -> tuple:
        return (self.a11, self.a12, self.a21, self.a22)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a11, self.a12], [self.a21, self.a22]], dtype=float)

    def is_zero(self) -> bool:
        return self.a11 == 0.0 and self.a12 == 0.0 and self.a21 == 0.0 and self.a22 == 0.0

    def to_json_dict(self) -> dict:
        return {"a11": self.a11, "a12": self.a12, "a21": self.a21, "a22": self.a22,
                "domain": self.domain.to_json_dict()}

    @staticmethod
    def from_json_dict(d: dict) -> "LinearField":
        _require_object(d, "field")
        dom = SymmetricDomain.from_json_dict(d["domain"]) if "domain" in d else UNIT_SQUARE
        coeffs = [_json_number(d, key, "field") for key in ("a11", "a12", "a21", "a22")]
        return LinearField(*coeffs, dom)


@dataclass(frozen=True)
class Decomposition:
    """Coordinates of a linear field in the (saddle, saddle45, source, vortex) basis."""

    a: float
    b: float
    c: float
    d: float


def saddle(domain: SymmetricDomain = UNIT_SQUARE) -> LinearField:
    return LinearField(1.0, 0.0, 0.0, -1.0, domain)


def saddle45(domain: SymmetricDomain = UNIT_SQUARE) -> LinearField:
    return LinearField(0.0, 1.0, 1.0, 0.0, domain)


def source(domain: SymmetricDomain = UNIT_SQUARE) -> LinearField:
    return LinearField(1.0, 0.0, 0.0, 1.0, domain)


def vortex(domain: SymmetricDomain = UNIT_SQUARE) -> LinearField:
    return LinearField(0.0, 1.0, -1.0, 0.0, domain)


def eval_field(field: LinearField, x: tuple) -> Multivector2:
    """Evaluate the field at x = (x1, x2); zero vector outside the domain."""
    x1, x2 = x
    if not field.domain.contains(x1, x2):
        return Multivector2.vector(0.0, 0.0)
    return Multivector2.vector(field.a11 * x1 + field.a12 * x2,
                               field.a21 * x1 + field.a22 * x2)


def decompose(field: LinearField) -> Decomposition:
    """Coordinates in the canonical basis.

    Matching coefficients of a*saddle + b*saddle45 + c*source + d*vortex
    against the matrix entries gives a11 = a+c, a12 = b+d, a21 = b-d,
    a22 = -a+c, and this is the inverse of that linear map.
    """
    return Decomposition(*_coordinates(field.a11, field.a12, field.a21, field.a22))


def recompose(dec: Decomposition, domain: SymmetricDomain = UNIT_SQUARE) -> LinearField:
    """Inverse of decompose: build the field a*saddle + b*saddle45 + c*source + d*vortex."""
    return LinearField(*_entries(dec.a, dec.b, dec.c, dec.d), domain)


def _coordinates(a11, a12, a21, a22) -> tuple:
    """``decompose``'s (a, b, c, d) of the matrix entries, for floats or arrays alike."""
    return 0.5 * (a11 - a22), 0.5 * (a12 + a21), 0.5 * (a11 + a22), 0.5 * (a12 - a21)


def _entries(a, b, c, d) -> tuple:
    """``recompose``'s (a11, a12, a21, a22) of the coordinates, for floats or arrays alike."""
    return a + c, b + d, b - d, -a + c


def _unit_scaled(a: float, b: float, c: float, d: float) -> tuple:
    """(a, b, c, d, e): the four numbers times 2**-e, the largest in [0.5, 1).

    A power-of-two scale is exact, so angles read from the scaled
    coordinates or entries of a field are those of the raw ones, while
    their products stay in range however large or small the field is as
    a whole.
    """
    _, e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))
    ldexp = math.ldexp
    return ldexp(a, -e), ldexp(b, -e), ldexp(c, -e), ldexp(d, -e), e


def total_rotate(field: LinearField, alpha: float) -> LinearField:
    """Rotate positions and vectors together: u(x) = R(alpha) v(R(-alpha) x).

    In matrix form A' = R(alpha) A R(alpha)^T.  The domain is unchanged
    (it is rotation-symmetric only for disks, but reflection symmetry in
    both axes is all the correlation identities need, and the square is
    re-used as the support of the rotated field by convention).
    """
    return LinearField(*_conjugate(math.cos(alpha), math.sin(alpha), *field.coefficients()),
                       field.domain)


def _conjugate(c, s, a11, a12, a21, a22) -> tuple:
    """The entries of R A R^T with R = [[c, -s], [s, c]], for floats or arrays alike."""
    return _times_transpose(c, s, *_rotated(c, s, a11, a12, a21, a22))


def _rotated(c, s, a11, a12, a21, a22) -> tuple:
    """The entries of R A."""
    return c * a11 - s * a21, c * a12 - s * a22, s * a11 + c * a21, s * a12 + c * a22


def _times_transpose(c, s, a11, a12, a21, a22) -> tuple:
    """The entries of A R^T."""
    return a11 * c - a12 * s, a11 * s + a12 * c, a21 * c - a22 * s, a21 * s + a22 * c


def outer_rotate(field: LinearField, alpha: float) -> LinearField:
    """Rotate vectors only: u(x) = R(alpha) v(x), i.e. A' = R(alpha) A."""
    return LinearField(*_rotated(math.cos(alpha), math.sin(alpha), *field.coefficients()),
                       field.domain)


def inner_rotate(field: LinearField, alpha: float) -> LinearField:
    """Rotate positions only: u(x) = v(R(-alpha) x), i.e. A' = A R(alpha)^T."""
    return LinearField(*_times_transpose(math.cos(alpha), math.sin(alpha),
                                         *field.coefficients()), field.domain)


@dataclass(frozen=True, eq=False)
class SampledField:
    """Cell-center samples of a field over its domain's bounding square.

    values[iy, ix] holds (v1, v2) at (centers[ix], centers[iy]); the
    row-major flattening therefore walks x1 fastest.  Cells whose center
    falls outside the domain are masked out and hold the zero vector.
    values must be an (n, n, 2) array of finite values and mask an
    (n, n) bool array.  Two samples are equal when they share n, domain
    and mask and hold equal values; they hold arrays, so do not hash.
    """

    n: int
    domain: SymmetricDomain
    values: np.ndarray  # shape (n, n, 2)
    mask: np.ndarray    # shape (n, n), bool

    def __post_init__(self):
        n = self.n
        values, mask = self.values, self.mask
        if not (isinstance(values, np.ndarray) and values.shape == (n, n, 2)):
            raise ValueError(f"sampled field values must be an ({n}, {n}, 2) array, "
                             f"got shape {np.shape(values)!r}")
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool and mask.shape == (n, n)):
            raise ValueError(f"sampled field mask must be an ({n}, {n}) bool array, "
                             f"got {getattr(mask, 'dtype', type(mask).__name__)} "
                             f"of shape {np.shape(mask)!r}")
        if not np.isfinite(values).all():
            raise ValueError("sampled field values must be finite")

    @classmethod
    def _unchecked(cls, n: int, domain: SymmetricDomain, values: np.ndarray,
                   mask: np.ndarray) -> "SampledField":
        """A field on arrays known to pass ``__post_init__``, built without its checks."""
        self = object.__new__(cls)
        self.__dict__.update(n=n, domain=domain, values=values, mask=mask)
        return self

    @property
    def cell_area(self) -> float:
        h = 2.0 * self.domain.bounding_half_side / self.n
        return h * h

    def centers(self) -> np.ndarray:
        return _centers(self.domain, self.n)

    def compatible_with(self, other: "SampledField") -> bool:
        return (self.n == other.n and self.domain == other.domain
                and (self.mask is other.mask or bool(np.array_equal(self.mask, other.mask))))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SampledField):
            return NotImplemented
        return self.compatible_with(other) and bool(np.array_equal(self.values, other.values))

    __hash__ = None


FieldLike = Union[LinearField, Callable]

# (domain, n) -> the grid's mask, for as long as some sample holds it.
_MASKS = weakref.WeakValueDictionary()


def sample(field: FieldLike, n: int, domain: SymmetricDomain | None = None) -> SampledField:
    """Sample a LinearField or an analytic closure on an n x n cell-center grid.

    Closures are called as f(x1, x2) -> (v1, v2); array arguments are
    tried first so numpy-written closures evaluate in one call, with a
    per-cell fallback for plain scalar closures.  Samples on the same
    (domain, n) share one read-only mask while any of them holds it.
    """
    if n < 2:
        raise ValueError(f"grid resolution must be at least 2, got {n}")
    if isinstance(field, LinearField):
        if domain is not None and domain != field.domain:
            raise DomainMismatchError("explicit domain disagrees with the field's own")
        domain = field.domain
    elif domain is None:
        raise ValueError("sampling a closure needs an explicit domain")

    centers = _centers(domain, n)
    mask = _MASKS.get((domain, n))
    if mask is None:
        mask = domain.contains_grid(centers[None, :], centers[:, None])
        mask.flags.writeable = False
        _MASKS[domain, n] = mask
    if isinstance(field, LinearField):
        return SampledField(n, domain, _grid_values(field, centers, centers, mask), mask)

    x1, x2 = np.meshgrid(centers, centers, indexing="xy")
    values = np.zeros((n, n, 2), dtype=float)
    try:
        v1, v2 = field(x1, x2)
        values[:, :, 0] = np.broadcast_to(v1, (n, n))
        values[:, :, 1] = np.broadcast_to(v2, (n, n))
    except (TypeError, ValueError):
        for iy in range(n):
            for ix in range(n):
                v1, v2 = field(centers[ix], centers[iy])
                values[iy, ix, 0] = v1
                values[iy, ix, 1] = v2
    values[~mask] = 0.0
    return SampledField(n, domain, values, mask)


def _centers(domain: SymmetricDomain, n: int) -> np.ndarray:
    """The n cell centers along either axis of the domain's bounding square."""
    length = domain.bounding_half_side
    return -length + (np.arange(n) + 0.5) * (2.0 * length / n)


def _grid_values(field: LinearField, x1: np.ndarray, x2: np.ndarray,
                 mask: np.ndarray) -> np.ndarray:
    """The field's values at the cell centers of rows x2, zero outside the mask.

    x1 holds the n column centers and x2 the centers of the rows wanted,
    so a block of rows costs a block-sized array; mask holds those rows.
    Each cell is one complex addition of its row's x2 terms and its
    column's x1 terms, x2 term first, and cells are masked as complex
    pairs, so no pass runs over an axis of 2 and no coordinate grid is
    built.
    """
    rows = np.empty(len(x2), complex)
    rows.real = x2 * field.a12
    rows.imag = x2 * field.a22
    columns = np.empty(len(x1), complex)
    columns.real = x1 * field.a11
    columns.imag = x1 * field.a21
    values = np.add.outer(rows, columns)
    np.copyto(values, 0.0, where=~mask)
    return values.view(float).reshape(len(x2), len(x1), 2)


def double_winding(alpha: float = 0.0) -> Callable:
    """The unit-disk flow whose vectors wind twice per revolution.

    In polar coordinates the value at angle phi is the unit vector at
    angle 2*phi - alpha.  With alpha = 0 this is the classic pattern on
    which correlation-based alignment always reports the negated offset,
    so the naive rotate-back iteration diverges; its totally rotated
    copy by alpha is the same family with the alpha term above.
    """

    def f(x1, x2):
        theta = 2.0 * np.arctan2(x2, x1) - alpha
        return np.cos(theta), np.sin(theta)

    return f


def write_samples_csv(sampled: SampledField, path: str) -> None:
    """Write `x1,x2,v1,v2,inside` rows, row-major with x1 fastest."""
    centers = sampled.centers()
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x1", "x2", "v1", "v2", "inside"])
        for iy in range(sampled.n):
            for ix in range(sampled.n):
                writer.writerow([
                    repr(float(centers[ix])),
                    repr(float(centers[iy])),
                    repr(float(sampled.values[iy, ix, 0])),
                    repr(float(sampled.values[iy, ix, 1])),
                    int(sampled.mask[iy, ix]),
                ])
