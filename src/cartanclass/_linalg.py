"""Exact linear algebra over the rationals used by the geometry layers.

Vectors are tuples of Fraction, matrices are tuples of row tuples.  Nothing
here is meant to be fast on large inputs; ambient dimensions are at most 9.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple[Fraction, ...], ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def vadd(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def vscale(c, u: Vector) -> Vector:
    c = Fraction(c)
    return tuple(c * a for a in u)


def vdot(u: Vector, v: Vector) -> Fraction:
    if len(u) != len(v):
        raise ValueError("dimension mismatch: %d vs %d" % (len(u), len(v)))
    return sum((a * b for a, b in zip(u, v)), ZERO)


def zero_vec(n: int) -> Vector:
    return (ZERO,) * n


def unit_vec(n: int, i: int) -> Vector:
    return tuple(ONE if j == i else ZERO for j in range(n))


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


def map_from_images(sources: Sequence[Vector], images: Sequence[Vector]) -> Matrix:
    """The linear map sending sources[j] to images[j], extended as the
    identity on the orthogonal complement of span(sources).

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


def solve_integer(rows: Sequence[Sequence[int]], target: Sequence[int]) -> list[int] | None:
    """An integer solution x of M x = target, or None when none exists.

    Uses unimodular column operations to bring M to a lower staircase form,
    then forward substitution with divisibility checks.
    """
    h = [list(map(int, r)) for r in rows]
    t = list(map(int, target))
    nr = len(h)
    nc = len(h[0]) if h else 0
    if nc == 0:
        return [] if all(x == 0 for x in t) else None
    # u[c] is column c of the accumulated unimodular matrix
    u = [[int(i == j) for i in range(nc)] for j in range(nc)]
    cpiv = 0
    pivot_of_row: list[int | None] = []
    for r in range(nr):
        if cpiv >= nc:
            pivot_of_row.append(None)
            continue
        while True:
            cols = [c for c in range(cpiv, nc) if h[r][c] != 0]
            if not cols:
                break
            c0 = min(cols, key=lambda c: abs(h[r][c]))
            if c0 != cpiv:
                for rr in range(nr):
                    h[rr][c0], h[rr][cpiv] = h[rr][cpiv], h[rr][c0]
                u[c0], u[cpiv] = u[cpiv], u[c0]
            clean = True
            for c in range(cpiv + 1, nc):
                if h[r][c] != 0:
                    q = h[r][c] // h[r][cpiv]
                    if q:
                        for rr in range(nr):
                            h[rr][c] -= q * h[rr][cpiv]
                        u[c] = [a - q * b for a, b in zip(u[c], u[cpiv])]
                    if h[r][c] != 0:
                        clean = False
            if clean:
                break
        if any(h[r][c] != 0 for c in range(cpiv, nc)):
            pivot_of_row.append(cpiv)
            cpiv += 1
        else:
            pivot_of_row.append(None)
    y = [0] * nc
    for r in range(nr):
        resid = t[r] - sum(h[r][c] * y[c] for c in range(nc) if h[r][c])
        p = pivot_of_row[r]
        if p is None:
            if resid != 0:
                return None
        else:
            resid_p = t[r] - sum(h[r][c] * y[c] for c in range(nc) if c != p and h[r][c])
            if resid_p % h[r][p] != 0:
                return None
            y[p] = resid_p // h[r][p]
    x = [sum(u[c][j] * y[c] for c in range(nc)) for j in range(nc)]
    for row, trg in zip(rows, target):
        if sum(a * b for a, b in zip(row, x)) != trg:
            return None
    return x
