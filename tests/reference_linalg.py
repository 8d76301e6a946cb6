"""Rational linear algebra that only the tests use: references for the
integer kernel of the program.  The helpers the program itself needs are in
cartanclass._linalg."""

from fractions import Fraction

from cartanclass._linalg import _rref, vdot


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def vneg(u):
    return tuple(-a for a in u)


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def rank(rows_in) -> int:
    if not rows_in:
        return 0
    _, pivots = _rref([list(r) for r in rows_in])
    return len(pivots)
