"""Exact 2x2 integer matrices and symmetric-matrix 3-vectors.

Conventions used throughout the package:

* a symmetric 2x2 integer matrix [[x0, x1], [x1, x2]] is identified with the
  vector (x0, x1, x2);
* ``J`` is the symplectic matrix [[0, -1], [1, 0]] (the sign making
  det3(x, y, z) = Tr(J x J y J z) hold on the matrix alias);
* the "sup" norm of a vector/matrix is the max of the absolute values of the
  coefficients; the Euclidean norm of a vector (x0, x1, x2) is
  sqrt(x0^2 + x1^2 + x2^2).  Each consumer states which norm it uses.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import mpmath

DEFAULT_PRECISION = 256


class ZeroObject(ValueError):
    """Raised when an operation (content, normalization) hits a zero object."""


def to_real(x, prec: int = DEFAULT_PRECISION):
    """Convert an int / Fraction / mpf to an mpf computed at `prec` bits."""
    with mpmath.workprec(prec):
        if isinstance(x, Fraction):
            return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.mpf(x)


def log_real(x, prec: int = DEFAULT_PRECISION):
    """log of a positive int / mpf at `prec` bits."""
    with mpmath.workprec(prec):
        return mpmath.log(mpmath.mpf(x))


@dataclass(frozen=True)
class IntMat2:
    """2x2 matrix with (arbitrary precision) integer entries."""

    a: int
    b: int
    c: int
    d: int

    @staticmethod
    def identity() -> "IntMat2":
        return IntMat2(1, 0, 0, 1)

    def __matmul__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __mul__(self, k: int) -> "IntMat2":
        return IntMat2(self.a * k, self.b * k, self.c * k, self.d * k)

    __rmul__ = __mul__

    def __mod__(self, m: int) -> "IntMat2":
        return IntMat2(self.a % m, self.b % m, self.c % m, self.d % m)

    def __add__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "IntMat2") -> "IntMat2":
        return IntMat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "IntMat2":
        return IntMat2(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n: int) -> "IntMat2":
        if n < 0:
            raise ValueError("negative matrix powers are not integral in general")
        out = IntMat2.identity()
        base = self
        while n:
            if n & 1:
                out = out @ base
            base = base @ base
            n >>= 1
        return out

    def transpose(self) -> "IntMat2":
        return IntMat2(self.a, self.c, self.b, self.d)

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def trace(self) -> int:
        return self.a + self.d

    def content(self) -> int:
        g = gcd(self.a, self.b, self.c, self.d)
        if g == 0:
            raise ZeroObject("content of the zero matrix")
        return g

    def is_symmetric(self) -> bool:
        return self.b == self.c

    def sup_norm(self) -> int:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def sym_vec(self) -> "SymVec":
        if not self.is_symmetric():
            raise ValueError(f"matrix {self} is not symmetric")
        return SymVec(self.a, self.b, self.d)

    def tr_J(self) -> int:
        """Trace of J @ self (antisymmetric part detector)."""
        # J @ M = [[-c, -d], [a, b]] so the trace is b - c.
        return self.b - self.c


J = IntMat2(0, -1, 1, 0)


@dataclass(frozen=True)
class SymVec:
    """Integer vector (x0, x1, x2), alias of the symmetric matrix [[x0,x1],[x1,x2]]."""

    x0: int
    x1: int
    x2: int

    def as_tuple(self):
        return (self.x0, self.x1, self.x2)

    def __add__(self, other: "SymVec") -> "SymVec":
        return SymVec(self.x0 + other.x0, self.x1 + other.x1, self.x2 + other.x2)

    def __sub__(self, other: "SymVec") -> "SymVec":
        return SymVec(self.x0 - other.x0, self.x1 - other.x1, self.x2 - other.x2)

    def __neg__(self) -> "SymVec":
        return SymVec(-self.x0, -self.x1, -self.x2)

    def __mul__(self, k: int) -> "SymVec":
        return SymVec(self.x0 * k, self.x1 * k, self.x2 * k)

    __rmul__ = __mul__

    def det(self) -> int:
        return self.x0 * self.x2 - self.x1 * self.x1

    def trace(self) -> int:
        return self.x0 + self.x2

    def dot(self, other: "SymVec") -> int:
        return self.x0 * other.x0 + self.x1 * other.x1 + self.x2 * other.x2

    def wedge(self, other: "SymVec") -> "SymVec":
        """Cross product (x wedge y) in coordinates (x0, x1, x2)."""
        return SymVec(
            self.x1 * other.x2 - self.x2 * other.x1,
            self.x2 * other.x0 - self.x0 * other.x2,
            self.x0 * other.x1 - self.x1 * other.x0,
        )

    def content(self) -> int:
        g = gcd(self.x0, self.x1, self.x2)
        if g == 0:
            raise ZeroObject("content of the zero vector")
        return g

    def primitive(self) -> "SymVec":
        g = self.content()
        return SymVec(self.x0 // g, self.x1 // g, self.x2 // g)

    def is_zero(self) -> bool:
        return self.x0 == 0 and self.x1 == 0 and self.x2 == 0

    def sup_norm(self) -> int:
        return max(abs(self.x0), abs(self.x1), abs(self.x2))


def det3(x: SymVec, y: SymVec, z: SymVec) -> int:
    """Determinant of the 3x3 matrix with rows x, y, z."""
    return x.dot(y.wedge(z))
