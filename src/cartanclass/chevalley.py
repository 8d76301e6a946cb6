"""Integer structure constants and a dense exact Lie-algebra oracle.

The constant table is built positive-height-first: each extraspecial pair
gets the positive sign, every other pair follows from the two- and
four-term bracket identities.  The dense oracle realizes the split form on
the basis {H_1..H_l} + {X_alpha} and is used to verify involutions, lifts
and turns exactly: half turns over Q, quarter turns over Q(sqrt2).
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import _linalg as la
from .rootsys import CartanclassError, RootSystem

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


# -- structure constants -------------------------------------------------------


class ChevalleyError(CartanclassError):
    pass


class ChevalleySystem:
    """Structure constants N(alpha,beta) over a root system."""

    def __init__(self, system: RootSystem):
        self.system = system
        self._table: dict[tuple[int, int], int] = {}
        self._dense: DenseAlgebra | None = None
        self._build()

    def _build(self) -> None:
        R = self.system
        # positive roots in total order: height, then root vector
        ch = R.canonical_chamber()
        pos = ch.height_order
        rank_of = {idx: k for k, idx in enumerate(pos)}
        sums = R.sum_table
        neg = R.negation_map
        table = self._table
        norm = R._norms  # their ratios are the ratios of the norms

        def nfun(x: int, y: int) -> int:
            """N for arbitrary sign pattern, reduced to the positive table."""
            z = sums[x][y]
            if z < 0:
                return 0
            got = table.get((x, y))
            if got is not None:
                return got
            xp = x in rank_of
            yp = y in rank_of
            if xp and yp:
                raise AssertionError("positive pair missing from table")
            if not xp and not yp:
                val = nfun(neg[x], neg[y])
            elif xp and not yp:
                if z in rank_of:
                    # triple (x, y, -z): N(x,y)/|z|^2 = N(y,-z)/|x|^2
                    val, r = divmod(norm[z] * nfun(y, neg[z]), norm[x])
                    assert r == 0
                else:
                    val = nfun(neg[x], neg[y])
            else:
                val = -nfun(y, x)
            table[(x, y)] = val
            return val

        for gi in pos:
            if ch.q_degree(gi) < 2:
                continue
            specials = []
            for ai in pos:
                if rank_of[ai] >= rank_of[gi]:
                    continue
                bi = sums[gi][neg[ai]]
                if bi not in rank_of:
                    continue
                if rank_of[ai] < rank_of[bi]:
                    specials.append((ai, bi))
            specials.sort(key=lambda ab: rank_of[ab[0]])
            if not specials:
                raise ChevalleyError("no special pair for a composite root")
            a1, b1 = specials[0]
            _, q = R.root_string(b1, a1)
            n1 = q + 1
            table[(a1, b1)] = n1
            table[(b1, a1)] = -n1
            for (a, b) in specials[1:]:
                # four roots a1, b1, -a, -b summing to zero:
                # N(a, b) = -|gi|^2 (t1 / |k1|^2 + t2 / |k2|^2) / n1
                t1, nk1 = 0, 1
                k = sums[b1][neg[a]]
                if k >= 0:
                    t1, nk1 = nfun(b1, neg[a]) * nfun(a1, neg[b]), norm[k]
                t2, nk2 = 0, 1
                k = sums[neg[a]][a1]
                if k >= 0:
                    t2, nk2 = nfun(neg[a], a1) * nfun(b1, neg[b]), norm[k]
                val, r = divmod(-norm[gi] * (t1 * nk2 + t2 * nk1), n1 * nk1 * nk2)
                if r:
                    raise ChevalleyError("non-integral structure constant")
                _, qq = R.root_string(b, a)
                if abs(val) != qq + 1:
                    raise ChevalleyError("constant violates the string law")
                table[(a, b)] = val
                table[(b, a)] = -val
        # fill every remaining pair
        for i, row in enumerate(sums):
            for j, k in enumerate(row):
                if k >= 0:
                    nfun(i, j)

    def n(self, i: int, j: int) -> int:
        """N(alpha_i, alpha_j); zero when the sum is not a root."""
        R = self.system
        if j == R.negation_map[i] or j == i:
            raise ChevalleyError("N is undefined against +-alpha")
        return self._table.get((i, j), 0)

    def coroot_coords(self, i: int) -> tuple[int, ...]:
        """Integer coordinates of H_alpha over the simple coroots H_{alpha_k}:
        from alpha = sum m_k alpha_k, H_alpha = sum m_k |alpha_k|^2/|alpha|^2
        H_{alpha_k}, with the norms of the roots scaled to integers."""
        R = self.system
        ch = R.canonical_chamber()
        norm = [R._norms[j] for j in (i,) + ch.basis]
        out = [divmod(m * n, norm[0]) for m, n in zip(ch.coords(i), norm[1:])]
        if any(r for _, r in out):
            raise ChevalleyError("the coroot of %s has a non-integral coordinate"
                                 % R.root_name(i))
        return tuple(c for c, _ in out)

    def verify_identities(self) -> None:
        """Full scan of the defining constant identities."""
        R = self.system
        neg = R.negation_map
        for i, row in enumerate(R.sum_table):
            for j, k in enumerate(row):
                if j == i or j == neg[i]:
                    continue
                nij = self.n(i, j)
                if k < 0:
                    if nij != 0:
                        raise ChevalleyError("nonzero constant for a non-root sum")
                    continue
                p, q = R.root_string(j, i)
                if abs(nij) != q + 1:
                    raise ChevalleyError("|N| != q+1 at (%d,%d)" % (i, j))
                if nij != self.n(neg[i], neg[j]):
                    raise ChevalleyError("N(a,b) != N(-a,-b) at (%d,%d)" % (i, j))
                if nij != -self.n(j, i):
                    raise ChevalleyError("antisymmetry fails at (%d,%d)" % (i, j))
                if nij * self.n(neg[i], k) != -p * (q + 1):
                    raise ChevalleyError("product law fails at (%d,%d)" % (i, j))

    def csv_dump(self) -> str:
        lines = ["alpha_index,beta_index,N"]
        for (i, j) in sorted(self._table):
            v = self._table[(i, j)]
            if v != 0:
                lines.append("%d,%d,%d" % (i, j, v))
        return "\n".join(lines) + "\n"


def structure_constants(system: RootSystem) -> ChevalleySystem:
    got = system._constants
    if got is None:
        got = system._constants = ChevalleySystem(system)
    return got


# -- dense algebra -------------------------------------------------------------


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


# characteristic polynomials admitted for the quarter-turn blocks,
# coefficient tuples in increasing degree
POLY_LAMBDA = (0, 1)
POLY_L2P1 = (1, 0, 1)
POLY_L2P4 = (4, 0, 1)
POLY_L_L2P4 = (0, 4, 0, 1)
POLY_L2P1_L2P9 = _poly_mul((1, 0, 1), (9, 0, 1))
ADMITTED_POLYS = {POLY_LAMBDA, POLY_L2P1, POLY_L2P4, POLY_L_L2P4, POLY_L2P1_L2P9}


class MapReport(NamedTuple):
    is_automorphism: bool
    is_involution: bool
    violations: list


class DenseAlgebra:
    """The split form on the basis h_1..h_l, x_alpha with exact brackets.

    Elements are sparse dicts {basis index: coefficient}; indices < rank are
    the simple coroots, index rank+i is the root vector of root i.
    """

    def __init__(self, constants: ChevalleySystem):
        self.constants = constants
        R = constants.system
        self.system = R
        self.rank = len(R.canonical_basis)
        self.dim = self.rank + len(R)
        # integer pairing of every root against the simple coroots
        basis = R.canonical_basis
        self._cartan_act = [
            tuple(R.pairing(i, b) for b in basis) for i in range(len(R))
        ]
        self._coroot_coords = [constants.coroot_coords(i) for i in range(len(R))]
        self._neg = R.negation_map
        self._sums = R.sum_table
        self.verified = 0  # index in VERIFY_LEVELS of the checks already run

    def x(self, root_idx: int) -> dict:
        return {self.rank + root_idx: 1}

    def coroot_elem(self, root_idx: int) -> dict:
        return {k: c for k, c in enumerate(self._coroot_coords[root_idx]) if c}

    def k_elem(self, root_idx: int) -> dict:
        out = dict(self.x(root_idx))
        out.update(self.x(self._neg[root_idx]))
        return out

    def t_elem(self, root_idx: int) -> dict:
        out = dict(self.x(root_idx))
        out[self.rank + self._neg[root_idx]] = -1
        return out

    def bracket_basis(self, i: int, j: int) -> dict:
        """Bracket of two basis elements as a sparse dict."""
        rank = self.rank
        if i < rank and j < rank:
            return {}
        if i < rank:
            a = j - rank
            c = self._cartan_act[a][i]
            return {j: c} if c else {}
        if j < rank:
            a = i - rank
            c = self._cartan_act[a][j]
            return {i: -c} if c else {}
        a, b = i - rank, j - rank
        if b == a:
            return {}
        if b == self._neg[a]:
            return {k: -c for k, c in self.coroot_elem(a).items()}
        k = self._sums[a][b]
        if k < 0:
            return {}
        n = self.constants.n(a, b)
        return {rank + k: n}

    def bracket(self, u: dict, v: dict) -> dict:
        out: dict = {}
        for i, ci in u.items():
            if not ci:
                continue
            for j, cj in v.items():
                if not cj:
                    continue
                for k, ck in self.bracket_basis(i, j).items():
                    val = out.get(k, 0) + ci * cj * ck
                    if val:
                        out[k] = val
                    elif k in out:
                        del out[k]
        return out

    # -- verification ----------------------------------------------------------

    def verify_defining_items(self) -> None:
        R = self.system
        for b in R.canonical_basis:
            hh = self.coroot_elem(b)
            xb = self.x(b)
            got = self.bracket(hh, xb)
            want = {self.rank + b: 2}
            if got != want:
                raise ChevalleyError("[H_a, X_a] != 2 X_a")
            got = self.bracket(xb, self.x(self._neg[b]))
            want = {k: -c for k, c in hh.items()}
            if got != want:
                raise ChevalleyError("[X_a, X_-a] != -H_a")

    @cached_property
    def _bracket_table(self) -> tuple[tuple[tuple[tuple[int, int], ...], ...], ...]:
        """_bracket_table[i][j]: the nonzero (index, coefficient) pairs of
        the bracket of basis elements i and j, built on first use."""
        d = self.dim
        return tuple(tuple(tuple(self.bracket_basis(i, j).items()) for j in range(d))
                     for i in range(d))

    def _jacobi_triple(self, i: int, j: int, k: int) -> bool:
        """Whether [a, [b, c]] summed over the cyclic shifts of (i, j, k) is 0."""
        br = self._bracket_table
        t: dict = {}
        for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
            row = br[a]
            for m, cm in br[b][c]:
                for idx, coeff in row[m]:
                    t[idx] = t.get(idx, 0) + cm * coeff
        return not any(t.values())

    def verify_jacobi_full(self) -> None:
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    if not self._jacobi_triple(i, j, k):
                        raise ChevalleyError("Jacobi fails at (%d,%d,%d)" % (i, j, k))

    def verify_jacobi_sampled(self, samples: int, seed: int = 0) -> None:
        rng = random.Random(seed)
        d = self.dim
        for _ in range(samples):
            i = rng.randrange(d)
            j = rng.randrange(d)
            k = rng.randrange(d)
            if not self._jacobi_triple(i, j, k):
                raise ChevalleyError("Jacobi fails at (%d,%d,%d)" % (i, j, k))

    def verify_antisymmetry(self) -> None:
        for i in range(self.dim):
            for j in range(i, self.dim):
                lhs = self.bracket_basis(i, j)
                rhs = self.bracket_basis(j, i)
                if lhs != {k: -c for k, c in rhs.items()}:
                    raise ChevalleyError("antisymmetry fails at (%d,%d)" % (i, j))


FULL_JACOBI_DIM_LIMIT = 140

VERIFY_LEVELS = ("none", "basic", "full")


def dense_algebra(constants: ChevalleySystem, verify: str = "basic") -> DenseAlgebra:
    """Build (and cache on the constants) the dense oracle.

    verify: "none", "basic" (defining items), "full" (defining items plus
    full Jacobi for dims within reach, sampled beyond).  The cached oracle
    remembers the strongest level already checked; a later call runs only
    the checks its level adds.
    """
    level = VERIFY_LEVELS.index(verify)
    A = constants._dense
    if A is None:
        A = constants._dense = DenseAlgebra(constants)
    if A.verified < 1 <= level:
        A.verify_defining_items()
    if A.verified < 2 <= level:
        if A.dim <= FULL_JACOBI_DIM_LIMIT:
            A.verify_jacobi_full()
        else:
            A.verify_jacobi_sampled(100_000)
    A.verified = max(A.verified, level)
    return A


# -- linear maps ---------------------------------------------------------------


class LinearMap:
    """Sparse linear self-map of a dense algebra, entries int, Fraction or Qrt2."""

    def __init__(self, algebra: DenseAlgebra, cols: dict[int, dict]):
        self.algebra = algebra
        self.cols = cols

    @staticmethod
    def identity(algebra: DenseAlgebra) -> "LinearMap":
        return LinearMap(algebra, {i: {i: 1} for i in range(algebra.dim)})

    def col(self, i: int) -> dict:
        return self.cols.get(i, {})

    def apply(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            if not c:
                continue
            for j, m in self.col(i).items():
                val = out.get(j, 0) + c * m
                if val:
                    out[j] = val
                elif j in out:
                    del out[j]
        return out

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        cols = {}
        for i in range(self.algebra.dim):
            c = self.apply(other.col(i))
            if c:
                cols[i] = c
        return LinearMap(self.algebra, cols)

    def equals(self, other: "LinearMap") -> bool:
        for i in range(self.algebra.dim):
            a = {k: v for k, v in self.col(i).items() if v}
            b = {k: v for k, v in other.col(i).items() if v}
            if a != b:
                return False
        return True

    def is_identity(self) -> bool:
        return self.equals(LinearMap.identity(self.algebra))


def apply_map(algebra: DenseAlgebra, m: LinearMap, check_involution: bool = True) -> MapReport:
    """Check the automorphism law [Mx,My] = M[x,y] on basis pairs and,
    optionally, involutivity; returns a report listing violations."""
    violations = []
    d = algebra.dim
    for i, j in ((i, j) for i in range(d) for j in range(i + 1, d)):
        if m.apply(algebra.bracket_basis(i, j)) != algebra.bracket(m.col(i), m.col(j)):
            violations.append((i, j))
    is_inv = True
    if check_involution:
        is_inv = m.compose(m).is_identity()
    return MapReport(is_automorphism=not violations, is_involution=is_inv,
                     violations=violations)


def ad_k_char_polys(constants: ChevalleySystem, alpha_idx: int):
    """Characteristic polynomials of the invariant blocks of ad(K_alpha).

    Returns (label, coeff tuple) pairs with coefficients listed in
    increasing degree; the kernel block is reported by its minimal
    polynomial lambda.
    """
    A = dense_algebra(constants, verify="none")
    R = constants.system
    neg = R.negation_map
    sums = R.sum_table
    k_elem = A.k_elem(alpha_idx)
    out = []
    # kernel block: K_alpha and the alpha-orthogonal part of the Cartan
    if A.bracket(k_elem, k_elem):
        raise ChevalleyError("K does not commute with itself")
    pair_row = [Fraction(R.pairing(alpha_idx, b)) for b in R.canonical_basis]
    for h_coords in la.nullspace([tuple(pair_row)]):
        h_el = {k: c for k, c in enumerate(h_coords) if c}
        if A.bracket(k_elem, h_el):
            raise ChevalleyError("Cartan kernel piece is not killed by ad(K)")
    out.append(("kernel", POLY_LAMBDA))
    # H/T block
    h_el = A.coroot_elem(alpha_idx)
    t_el = A.t_elem(alpha_idx)
    m = _block_matrix(A, k_elem, [h_el, t_el])
    out.append(("cartan_pair", _char_poly(m)))
    # V_beta blocks: strings through beta with beta - alpha not a root
    seen = set()
    for b in range(len(R)):
        if b == alpha_idx or b == neg[alpha_idx] or b in seen:
            continue
        if sums[b][neg[alpha_idx]] >= 0:
            continue
        chain = [b]
        v = sums[b][alpha_idx]
        while v >= 0:
            chain.append(v)
            v = sums[v][alpha_idx]
        seen.update(chain)
        vecs = [A.x(c) for c in chain]
        m = _block_matrix(A, k_elem, vecs)
        out.append(("string_%d" % b, _char_poly(m)))
    for label, poly in out:
        if poly not in ADMITTED_POLYS:
            raise ChevalleyError("unexpected block polynomial %r at %s" % (poly, label))
    return out


def _block_matrix(A: DenseAlgebra, k_elem: dict, vecs: list[dict]):
    """Matrix of ad(k_elem) on the span of vecs, exact rational entries."""
    cols = []
    basis_cols = [tuple(v.get(i, Fraction(0)) for i in range(A.dim)) for v in vecs]
    for v in vecs:
        w = A.bracket(k_elem, v)
        wt = tuple(Fraction(w.get(i, 0)) for i in range(A.dim))
        sol = la.solve(basis_cols, wt)
        if sol is None:
            raise ChevalleyError("block is not invariant")
        cols.append(sol)
    n = len(vecs)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


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
    out = tuple(int(c) if c.denominator == 1 else c for c in coeffs)
    return out


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


# -- exact turns ---------------------------------------------------------------

# exp(pi/4 * M) v as sum_k c_k M^k v for a vector v with P(M) v = 0, keyed by
# P: cos and sin at pi/4 reduced modulo P.  The turn by -pi/4 negates the
# odd terms.
_TURN_ROWS = {
    POLY_LAMBDA: (Qrt2(1),),
    POLY_L2P1: (SQRT2_HALF, SQRT2_HALF),
    POLY_L_L2P4: (Qrt2(1), Qrt2(Fraction(1, 2)), Qrt2(Fraction(1, 4))),
    POLY_L2P1_L2P9: tuple(SQRT2_HALF * Fraction(n, d)
                          for n, d in ((5, 4), (13, 12), (1, 4), (1, 12))),
}
# the same at pi/2, where cos and sin are 0 and +-1: rational rows
_HALF_TURN_ROWS = {
    POLY_LAMBDA: (1,),
    POLY_L2P1: (0, 1),
    POLY_L_L2P4: (1, 0, Fraction(1, 2)),
    POLY_L2P1_L2P9: (0, Fraction(7, 6), 0, Fraction(1, 6)),
}
# block polynomial of X_gamma by the length of its beta-string
_STRING_POLY = {1: POLY_LAMBDA, 2: POLY_L2P1, 3: POLY_L_L2P4, 4: POLY_L2P1_L2P9}


class QuarterTurn:
    """exp(turn * pi/4 * ad(K_B)) for a strongly orthogonal set B and turn
    1, -1 or 2 (the half turn, rational), applied to vectors one root at a
    time (the single-root turns commute).

    A basis element e is turned in closed form: it is killed by the block
    polynomial P of its beta-string (Cartan elements and X_{+-beta}: the
    polynomial of the H/T block), so exp e is a combination of the powers
    (ad K)^k e below deg P.  P(ad K) e = 0 is checked on every element."""

    def __init__(self, algebra: DenseAlgebra, b_indices, turn: int):
        if turn not in (1, -1, 2):
            raise ChevalleyError("a turn is 1, -1 or 2 times pi/4, not %r" % (turn,))
        self.b_indices = list(b_indices)
        algebra.system.require_strongly_orthogonal(self.b_indices, ChevalleyError)
        self.algebra = algebra
        self._rows = _HALF_TURN_ROWS if turn == 2 else {
            poly: tuple(c * turn ** k for k, c in enumerate(row))
            for poly, row in _TURN_ROWS.items()}
        self._cols: dict[tuple[int, int], dict] = {}

    def _col(self, beta: int, i: int) -> dict:
        got = self._cols.get((beta, i))
        if got is not None:
            return got
        A = self.algebra
        R = A.system
        gamma = i - A.rank
        if gamma < 0 or gamma in (beta, R.negation_map[beta]):
            poly = POLY_L_L2P4
        else:
            p, q = R.root_string(gamma, beta)
            poly = _STRING_POLY[p + q + 1]
        k_elem = A.k_elem(beta)
        powers = [{i: 1}]
        for _ in range(len(poly) - 1):
            powers.append(A.bracket(k_elem, powers[-1]))
        if _combine(poly, powers):
            raise ChevalleyError("ad(K) spectrum escapes {0,+-i,+-2i,+-3i}")
        got = self._cols[(beta, i)] = _combine(self._rows[poly], powers)
        return got

    def apply(self, v: dict) -> dict:
        for beta in self.b_indices:
            v = _combine(v.values(), [self._col(beta, i) for i in v])
        return v


def _combine(coeffs, vecs) -> dict:
    """sum_k coeffs[k] * vecs[k], zero entries dropped."""
    out: dict = {}
    for a, w in zip(coeffs, vecs):
        for j, c in w.items():
            out[j] = out.get(j, 0) + a * c
    return {j: c for j, c in out.items() if c}


def exp_quarter_pi_adk(algebra: DenseAlgebra, b_indices, sign: int = 1) -> LinearMap:
    """Exact matrix of exp(sign * pi/4 * ad(K_B)) for a strongly orthogonal
    set B, one column per basis element."""
    turn = QuarterTurn(algebra, b_indices, sign)
    return LinearMap(algebra, {i: turn.apply({i: 1}) for i in range(algebra.dim)})
