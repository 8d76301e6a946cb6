"""Rational linear algebra that only the tests use: references for the
integer kernel of the program.  The helpers the program itself needs are in
cartanclass._linalg."""

from fractions import Fraction

from cartanclass._linalg import _rref, mat_vec, unit_vec, vdot, vscale


def vec(entries):
    return tuple(Fraction(x) for x in entries)


def vneg(u):
    return tuple(-a for a in u)


def vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def apply_vec(theta, v):
    """An involution's image of an ambient vector, through its matrix."""
    return mat_vec(theta.matrix, v)


def contains_vector(R, v) -> bool:
    """Whether the vector is a root of R."""
    return R._index_of(v) is not None


def is_regular(R, h) -> bool:
    """Whether h lies on no root wall."""
    return all(R._dots(h))


def mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(vdot(row, col) for col in bt) for row in a)


def rank(rows_in) -> int:
    if not rows_in:
        return 0
    _, pivots = _rref([list(r) for r in rows_in])
    return len(pivots)


def is_orthogonal(m) -> bool:
    """m^T m = 1: the columns are orthonormal and as many as the rows."""
    cols = tuple(zip(*m))
    return len(cols) == len(m) and all(
        vdot(u, v) == (i == j) for i, u in enumerate(cols) for j, v in enumerate(cols))


def reflection_matrix(n: int, v):
    """Matrix of the reflection across the hyperplane orthogonal to v."""
    d = vdot(v, v)
    if d == 0:
        raise ValueError("reflection across the zero vector")
    cols = []
    for i in range(n):
        e = unit_vec(n, i)
        cols.append(vsub(e, vscale(2 * vdot(e, v) / d, v)))
    return tuple(zip(*cols))
