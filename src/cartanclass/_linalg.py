"""Exact linear algebra over the rationals, and the field Q(sqrt 2).

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Nothing
here is meant to be fast on large inputs; ambient dimensions are at most 9.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vdot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), ZERO)


def mat_vec(m: Matrix, v: Vector) -> Vector:
    return tuple(vdot(row, v) for row in m)


def _rref(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form in place; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def solve(columns: Sequence[Vector], target: Vector) -> Vector | None:
    """One exact solution x of sum_j x_j * columns[j] = target, or None."""
    n = len(target)
    k = len(columns)
    rows = [[columns[j][i] for j in range(k)] + [Fraction(target[i])] for i in range(n)]
    rows, pivots = _rref(rows)
    sol = [ZERO] * k
    for r, c in enumerate(pivots):
        if c == k:  # pivot in the augmented column: inconsistent
            return None
        sol[c] = rows[r][k]
    return tuple(sol)


def nullspace(rows_in: Sequence[Vector]) -> list[Vector]:
    """Basis of {x : M x = 0} for the matrix with the given rows."""
    if not rows_in:
        return []
    ncols = len(rows_in[0])
    rows = [list(r) for r in rows_in]
    rows, pivots = _rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [ZERO] * ncols
        v[f] = ONE
        for r, c in enumerate(pivots):
            v[c] = -rows[r][f]
        basis.append(tuple(v))
    return basis


def _char_poly(m) -> tuple:
    """Characteristic polynomial det(xI - M), coefficients by increasing
    degree, via sums of principal minors (dims <= 4)."""
    n = len(m)
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        s = Fraction(0)
        for rows in itertools.combinations(range(n), k):
            s += _det([[m[i][j] for j in rows] for i in rows])
        coeffs[n - k] = s * (-1) ** k
    # det(xI - M) expansion: coefficient of x^(n-k) is (-1)^k e_k(minors)
    return tuple(int(c) if c.denominator == 1 else c for c in coeffs)


def _det(m) -> Fraction:
    n = len(m)
    if n == 1:
        return Fraction(m[0][0])
    if n == 2:
        return Fraction(m[0][0] * m[1][1] - m[0][1] * m[1][0])
    out = Fraction(0)
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [[m[i][jj] for jj in range(n) if jj != j] for i in range(1, n)]
        out += (-1) ** j * m[0][j] * _det(minor)
    return out


# -- the field Q(sqrt 2) -------------------------------------------------------


class Qrt2:
    """Exact numbers a + b*sqrt(2) with rational a, b."""

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    @staticmethod
    def of(x) -> "Qrt2":
        return x if isinstance(x, Qrt2) else Qrt2(x)

    def __add__(self, other):
        o = Qrt2.of(other)
        return Qrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self):
        return Qrt2(-self.a, -self.b)

    def __sub__(self, other):
        return self + (-Qrt2.of(other))

    def __rsub__(self, other):
        return Qrt2.of(other) + (-self)

    def __mul__(self, other):
        o = Qrt2.of(other)
        return Qrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def inverse(self) -> "Qrt2":
        d = self.a * self.a - 2 * self.b * self.b
        if d == 0:
            raise ZeroDivisionError("inverse of 0 in Q(sqrt2)")
        return Qrt2(self.a / d, -self.b / d)

    def __truediv__(self, other):
        return self * Qrt2.of(other).inverse()

    def __eq__(self, other):
        o = Qrt2.of(other)
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        # equal numbers hash alike: a rational one hashes as its value
        return hash(self.a) if self.b == 0 else hash((self.a, self.b))

    def __bool__(self):
        return self.a != 0 or self.b != 0

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return "(%s+%s*r2)" % (self.a, self.b)


SQRT2_HALF = Qrt2(0, Fraction(1, 2))  # sqrt(2)/2

# exp(pi/4 * M) v as sum_k c_k M^k v for a vector v with P(M) v = 0, keyed by
# P (coefficients by increasing degree: lambda, lambda^2 + 1, lambda^3 +
# 4 lambda and (lambda^2 + 1)(lambda^2 + 9)): cos and sin at pi/4 reduced
# modulo P.  The turn by -pi/4 negates the odd terms.
_TURN_ROWS = {
    (0, 1): (Qrt2(1),),
    (1, 0, 1): (SQRT2_HALF, SQRT2_HALF),
    (0, 4, 0, 1): (Qrt2(1), Qrt2(Fraction(1, 2)), Qrt2(Fraction(1, 4))),
    (9, 0, 10, 0, 1): tuple(SQRT2_HALF * Fraction(n, d)
                            for n, d in ((5, 4), (13, 12), (1, 4), (1, 12))),
}
