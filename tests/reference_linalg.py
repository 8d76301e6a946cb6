"""Rational linear algebra that only the tests use: references for the
integer kernel of the program.  The helpers the program itself needs are in
cartanclass._linalg."""

from fractions import Fraction

from cartanclass._linalg import ONE, ZERO, _rref, mat_vec, nullspace, solve, vdot


def vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vscale(c, u):
    c = Fraction(c)
    return tuple(c * a for a in u)


def zero_vec(n: int):
    return (ZERO,) * n


def unit_vec(n: int, i: int):
    return tuple(ONE if j == i else ZERO for j in range(n))


def map_from_images(sources, images):
    """The linear map sending sources[j] to images[j], extended as the
    identity on the orthogonal complement of span(sources): the rational
    reference for RootSystem.matrix_of_perm.

    Raises ValueError when sources are dependent in a way inconsistent
    with the requested images.
    """
    n = len(sources[0])
    comp = nullspace(list(sources))  # orthogonal complement of the span
    full = list(sources) + comp  # spans, as the complement of a span does
    full_images = list(images) + comp
    a_cols = [tuple(v) for v in full]
    x_cols = []
    for i in range(n):
        coeffs = solve(a_cols, unit_vec(n, i))
        if coeffs is None:
            raise ValueError("inconsistent linear system")
        img = zero_vec(n)
        for c, w in zip(coeffs, full_images):
            if c:
                img = vadd(img, vscale(c, w))
        x_cols.append(img)
    return tuple(tuple(x_cols[j][i] for j in range(n)) for i in range(n))


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
