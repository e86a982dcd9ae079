"""Dense arithmetic for the plane geometric algebra Cl(2,0).

A multivector here is the four-component element

    s + x*e1 + y*e2 + b*e12

with e1*e1 = e2*e2 = 1, e12*e12 = -1 and e1*e2 = e12.  The even part
(s, b) behaves exactly like a complex number and carries rotation
information; pure vectors are the grade-1 elements (x, y).

Rotations are one-sided in 2D: left-multiplying a vector by the even
unit element exp(-alpha*e12) = cos(alpha) - sin(alpha)*e12 rotates it
mathematically positively by alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "Multivector2",
    "Rotor",
    "E1",
    "E2",
    "E12",
    "gp",
    "reverse",
    "rotor",
    "apply_rotor",
    "spinor_arg",
    "wrap_angle",
    "DegenerateSpinorError",
    "ContractViolationError",
]

VECTOR_PURITY_RTOL = 1e-9  # grade leakage allowed by quadrature backends


class DegenerateSpinorError(ValueError):
    """Raised when an argument is requested of the zero spinor."""


class ContractViolationError(ValueError):
    """Raised when an operand violates a grade precondition."""


def wrap_angle(theta: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.fmod(theta, 2.0 * math.pi)
    if w > math.pi:
        w -= 2.0 * math.pi
    elif w <= -math.pi:
        w += 2.0 * math.pi
    return w


@dataclass(frozen=True)
class Multivector2:
    """An element of Cl(2,0) with components (s, x, y, b)."""

    s: float = 0.0
    x: float = 0.0
    y: float = 0.0
    b: float = 0.0

    def __add__(self, other: "Multivector2") -> "Multivector2":
        return Multivector2(self.s + other.s, self.x + other.x,
                            self.y + other.y, self.b + other.b)

    def __sub__(self, other: "Multivector2") -> "Multivector2":
        return Multivector2(self.s - other.s, self.x - other.x,
                            self.y - other.y, self.b - other.b)

    def __neg__(self) -> "Multivector2":
        return Multivector2(-self.s, -self.x, -self.y, -self.b)

    def __mul__(self, other):
        if isinstance(other, Multivector2):
            return gp(self, other)
        if isinstance(other, (int, float)):
            return Multivector2(self.s * other, self.x * other,
                                self.y * other, self.b * other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return Multivector2(self.s * other, self.x * other,
                                self.y * other, self.b * other)
        return NotImplemented

    def __invert__(self) -> "Multivector2":
        return reverse(self)

    def norm(self) -> float:
        """Euclidean component norm; agrees with sqrt(m * ~m) on vectors and spinors."""
        return math.sqrt(self.s * self.s + self.x * self.x
                         + self.y * self.y + self.b * self.b)

    def is_vector(self) -> bool:
        """True if the scalar and bivector parts are negligible."""
        return max(abs(self.s), abs(self.b)) <= VECTOR_PURITY_RTOL * max(self.norm(), 1.0e-300)

    def is_spinor(self) -> bool:
        """True if the vector part is negligible."""
        return max(abs(self.x), abs(self.y)) <= VECTOR_PURITY_RTOL * max(self.norm(), 1.0e-300)

    def isclose(self, other: "Multivector2", rel: float = 1e-12, abs_: float = 0.0) -> bool:
        scale = max(self.norm(), other.norm())
        tol = rel * scale + abs_
        return (abs(self.s - other.s) <= tol and abs(self.x - other.x) <= tol
                and abs(self.y - other.y) <= tol and abs(self.b - other.b) <= tol)

    def to_json_dict(self) -> dict:
        return {"s": self.s, "e1": self.x, "e2": self.y, "e12": self.b}

    @staticmethod
    def from_json_dict(d: dict) -> "Multivector2":
        return Multivector2(float(d["s"]), float(d["e1"]),
                            float(d["e2"]), float(d["e12"]))

    @staticmethod
    def vector(x: float, y: float) -> "Multivector2":
        return Multivector2(0.0, x, y, 0.0)

    @staticmethod
    def scalar(s: float) -> "Multivector2":
        return Multivector2(s, 0.0, 0.0, 0.0)

    @staticmethod
    def spinor(s: float, b: float) -> "Multivector2":
        return Multivector2(s, 0.0, 0.0, b)


E1 = Multivector2(x=1.0)
E2 = Multivector2(y=1.0)
E12 = Multivector2(b=1.0)


def gp(m1: Multivector2, m2: Multivector2) -> Multivector2:
    """Geometric product, expanded over the Cl(2,0) multiplication table."""
    s1, x1, y1, b1 = m1.s, m1.x, m1.y, m1.b
    s2, x2, y2, b2 = m2.s, m2.x, m2.y, m2.b
    return Multivector2(
        s1 * s2 + x1 * x2 + y1 * y2 - b1 * b2,
        s1 * x2 + x1 * s2 - y1 * b2 + b1 * y2,
        s1 * y2 + y1 * s2 + x1 * b2 - b1 * x2,
        s1 * b2 + b1 * s2 + x1 * y2 - y1 * x2,
    )


def reverse(m: Multivector2) -> Multivector2:
    """Reversion: grade k picks up (-1)^(k(k-1)/2), so only e12 flips sign."""
    return Multivector2(m.s, m.x, m.y, -m.b)


def spinor_arg(m: Multivector2) -> float:
    """Argument of the even element s + b*e12, in (-pi, pi].

    atan2 convention: arg(positive real) = 0, arg(negative real) = pi.
    Raises if the element has a significant vector part or is the zero
    spinor.
    """
    if not m.is_spinor():
        raise ContractViolationError(
            f"spinor_arg needs a scalar+bivector element, got vector part "
            f"({m.x!r}, {m.y!r})")
    if m.s == 0.0 and m.b == 0.0:
        raise DegenerateSpinorError("argument of the zero spinor is undefined")
    return math.atan2(m.b, m.s)


@dataclass(frozen=True)
class Rotor:
    """The even unit element exp(-angle*e12); angle wrapped to (-pi, pi]."""

    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", wrap_angle(float(self.angle)))

    def as_multivector(self) -> Multivector2:
        return Multivector2.spinor(math.cos(self.angle), -math.sin(self.angle))

    def compose(self, other: "Rotor") -> "Rotor":
        return Rotor(self.angle + other.angle)

    def inverse(self) -> "Rotor":
        return Rotor(-self.angle)


def rotor(alpha: float) -> Rotor:
    return Rotor(alpha)


def apply_rotor(r: Rotor, v: Multivector2) -> Multivector2:
    """Rotate the pure vector v mathematically positively by r.angle."""
    if not v.is_vector():
        raise ContractViolationError(
            f"apply_rotor needs a pure vector, got s={v.s!r}, b={v.b!r}")
    c = math.cos(r.angle)
    s = math.sin(r.angle)
    return Multivector2.vector(c * v.x - s * v.y, s * v.x + c * v.y)
