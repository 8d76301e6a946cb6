"""Exact realizations of the finite crystallographic root systems.

The realizations live in a fixed ambient euclidean space with coordinates
in (1/2)Z, and the scalar product is the plain coordinate dot product.  A
root is stored as an integer vector: its realization times the system's
denominator den (2 for E6, E7, E8 and F4, 1 for the rest), so the stored
norms are den^2 times the true ones.  Roots are indexed deterministically
by sorting their vectors, so every permutation-level object downstream is
reproducible byte for byte.  The rational vectors (`roots`) are a view for
printing and for reading vectors given from outside.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache
from operator import add, itemgetter, mul, sub
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    from fractions import Fraction
    from ._linalg import Matrix, Vector

FAMILIES = ("A", "B", "C", "D", "E6", "E7", "E8", "F4", "G2")

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (3, None),
    "D": (4, None),
    "E6": (6, 6),
    "E7": (7, 7),
    "E8": (8, 8),
    "F4": (4, 4),
    "G2": (2, 2),
}


class CartanclassError(ValueError):
    """The input errors of the layers derive from this class, and nothing
    else does; the CLI exits 3 on them."""


class RootSystemError(CartanclassError):
    """Invalid family/rank/realization combination or malformed input."""


class _SpecFields(NamedTuple):
    family: str | None = None
    rank: int | None = None
    realization: str = "standard"
    factors: tuple["RootSystemSpec", ...] | None = None


class RootSystemSpec(_SpecFields):
    """A validated spec; a family of fixed rank gets its rank filled in."""

    __slots__ = ()

    def __new__(cls, family=None, rank=None, realization="standard", factors=None):
        if factors is not None:
            if family is not None:
                raise RootSystemError("a union spec carries no family of its own")
            for f in factors:
                if f.factors is not None:
                    raise RootSystemError("nested unions are not supported")
            return super().__new__(cls, family, rank, realization, factors)
        if family not in FAMILIES:
            raise RootSystemError("unknown family %r" % (family,))
        lo, hi = _RANK_RANGE[family]
        if hi is not None:
            if rank is not None and rank != hi:
                raise RootSystemError("family %s has rank %d, not %d" % (family, hi, rank))
            rank = hi
        elif rank is None or rank < lo:
            raise RootSystemError("family %s needs rank >= %d" % (family, lo))
        if realization not in ("standard", "prime"):
            raise RootSystemError("unknown realization %r" % (realization,))
        if realization == "prime" and family not in ("E6", "E7"):
            raise RootSystemError("prime realization exists only for E6/E7")
        return super().__new__(cls, family, rank, realization, factors)

    @property
    def label(self) -> str:
        if self.factors is not None:
            return "+".join(f.label for f in self.factors)
        base = self.family if self.family not in ("A", "B", "C", "D") else "%s%d" % (self.family, self.rank)
        return base + ("'" if self.realization == "prime" else "")


def _vec(n: int, *slots: tuple[int, int]) -> tuple[int, ...]:
    """The vector of Z^n with c at each 0-based position k of the slots (k, c), else 0."""
    v = [0] * n
    for k, c in slots:
        v[k] = c
    return tuple(v)


def _pm_pairs(n: int, c: int = 1) -> list[tuple[int, ...]]:
    """c (+-e_i +- e_j) for i < j."""
    return [_vec(n, (i, a), (j, b)) for i, j in itertools.combinations(range(n), 2)
            for a in (c, -c) for b in (c, -c)]


def _roots_for(spec: RootSystemSpec) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(den, roots, canonical basis) for an irreducible spec: the roots of
    the realization times den, which makes them integer vectors."""
    fam, rk = spec.family, spec.rank
    if fam in ("A", "G2"):
        # e_i - e_j; G2 adds +-(2 e_i - e_j - e_k) in R^3
        n = 3 if fam == "G2" else rk + 1
        roots = [_vec(n, (i, 1), (j, -1)) for i, j in itertools.permutations(range(n), 2)]
        if fam == "A":
            return 1, roots, [_vec(n, (i, 1), (i + 1, -1)) for i in range(rk)]
        roots += [_vec(3, (j, -s), (k, -s), (i, 2 * s))
                  for i, j, k in ((0, 1, 2), (1, 0, 2), (2, 0, 1)) for s in (1, -1)]
        return 1, roots, [(1, -1, 0), (-2, 1, 1)]
    if fam in ("B", "C", "D"):
        basis = [_vec(rk, (i, 1), (i + 1, -1)) for i in range(rk - 1)]
        if fam == "D":
            return 1, _pm_pairs(rk), basis + [_vec(rk, (rk - 2, 1), (rk - 1, 1))]
        c = 1 if fam == "B" else 2  # the roots on the axes are +-c e_i
        roots = _pm_pairs(rk) + [_vec(rk, (i, s)) for i in range(rk) for s in (c, -c)]
        return 1, roots, basis + [_vec(rk, (rk - 1, c))]
    if fam == "F4":
        roots = [_vec(4, (i, s)) for i in range(4) for s in (2, -2)] + _pm_pairs(4, 2)
        roots += itertools.product((1, -1), repeat=4)
        return 2, roots, [(2, -2, 0, 0), (0, 2, -2, 0), (0, 0, 2, 0), (-1, -1, -1, 1)]
    # E6, E7, E8 and the primed E6, E7: the roots of E8 orthogonal to the
    # walls.  Twice the E8 roots are 2 (+-e_i +- e_j) and the sign vectors
    # with an even number of +1.
    e8 = _pm_pairs(8, 2) + [s for s in itertools.product((1, -1), repeat=8)
                            if s.count(1) % 2 == 0]
    if spec.realization == "standard":
        walls = [_vec(8, (6, 1), (7, -1)), _vec(8, (5, 1), (6, -1))][:8 - rk]
        basis = [(-1,) * 8, _vec(8, (0, 2), (1, 2))] + \
            [_vec(8, (i - 3, -2), (i - 2, 2)) for i in range(3, rk + 1)]
    else:
        walls = [(1,) * 8, _vec(8, (6, 1), (7, 1))][:8 - rk]
        basis = [_vec(8, (i, 2), (i + 1, -2)) for i in range(rk - 1)] + \
            [(-1, -1, -1, 1, 1, 1, 1, -1)]
    roots = [r for r in e8 if not any(sum(map(mul, r, w)) for w in walls)]
    return 2, roots, basis


def _integral(v) -> tuple[list[int], int]:
    """(u, d) with v = u / d, u an integer vector and d the least common
    denominator of the coordinates, which are ints or Fractions.  No prime
    divides d and every entry of u, so c v is integral iff d divides c."""
    d = math.lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


Perm = tuple[int, ...]


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition applying q first: (p*q)(x) = p(q(x))."""
    if len(q) < 2:  # itemgetter returns a bare item for one index, fails for none
        return tuple(p[x] for x in q)
    return itemgetter(*q)(p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


def _coordinate_rows(system: "RootSystem", basis) -> tuple[tuple[int, ...], ...]:
    """The integer coordinates of every root in a simple basis, indexed by
    root.  The positive roots are reached by walking upward from the basis,
    each step adding a simple root and looking the sum up by its key; the
    negative roots are their negatives."""
    keys, look = system._keys, system._key_index.get
    rows: list = [None] * len(system)
    for p, b in enumerate(basis):
        rows[b] = tuple(int(q == p) for q in range(len(basis)))
    layer = list(basis)
    while layer:
        reached = []
        for i in layer:
            for p, b in enumerate(basis):
                j = look(keys[i] + keys[b])
                if j is not None and rows[j] is None:
                    rows[j] = rows[i][:p] + (rows[i][p] + 1,) + rows[i][p + 1:]
                    reached.append(j)
        layer = reached
    for i in [i for i, c in enumerate(rows) if c is not None]:
        rows[system.negation_map[i]] = tuple(-c for c in rows[i])
    return tuple(rows)


class _ChamberFields(NamedTuple):
    system: "RootSystem"
    basis: tuple[int, ...]


class Chamber(_ChamberFields):
    """A Weyl chamber, given by its simple basis.  The root coordinates in
    the basis, and with them the positive roots, are found on first use and
    kept on the chamber (in the instance dict this subclass adds)."""

    @cached_property
    def _coord_rows(self) -> tuple[tuple[int, ...], ...]:
        return _coordinate_rows(self.system, self.basis)

    @cached_property
    def positive_set(self) -> frozenset[int]:
        return frozenset(i for i, c in enumerate(self._coord_rows) if sum(c) > 0)

    @cached_property
    def height_order(self) -> tuple[int, ...]:
        """The positive roots by height, ties by root vector (which is index
        order, as roots are indexed by sorting their vectors)."""
        return tuple(sorted(self.positive_set, key=lambda i: (self.q_degree(i), i)))

    @cached_property
    def parity_masks(self) -> tuple[int, ...]:
        """Per root, the bitmask of its odd coordinates (bit k for basis[k])."""
        return tuple(sum((c & 1) << k for k, c in enumerate(row)) for row in self._coord_rows)

    @cached_property
    def parity_defect(self) -> tuple[int, int] | None:
        """The first pair of roots (i, j), in index order, whose sum is a
        root with a parity mask other than the xor of theirs; None when the
        masks are additive over sum_table.  Additive masks make every
        mask-defined sign character multiplicative: eta(i + j) = eta(i) eta(j)."""
        pm = self.parity_masks
        for i, row in enumerate(self.system.sum_table):
            a = pm[i]
            for j, k in enumerate(row):
                if k >= 0 and pm[k] != a ^ pm[j]:
                    return i, j
        return None

    def coords(self, idx: int) -> tuple[int, ...]:
        """Integer coordinates of a root in this chamber's simple basis."""
        return self._coord_rows[idx]

    def q_degree(self, idx: int) -> int:
        return sum(self._coord_rows[idx])


def _coroot_pairings(R: "RootSystem", i: int, js) -> tuple[int, ...]:
    """<alpha_i, alpha_j^vee> for each j of js, checked to be integers."""
    u, norms = R._int_roots[i], [R._norms[j] for j in js]
    dots = [2 * sum(map(mul, u, R._int_roots[j])) for j in js]
    if any(d % n for d, n in zip(dots, norms)):
        raise RootSystemError("non-integral pairing between roots")
    return tuple(d // n for d, n in zip(dots, norms))


class _PairingRows(dict):
    """The rows of RootSystem.pairing_matrix, each made on its first read."""

    __slots__ = ("system",)

    def __init__(self, system: "RootSystem"):
        self.system = system

    def __missing__(self, i: int) -> tuple[int, ...]:
        row = self[i] = _coroot_pairings(self.system, i, range(len(self.system)))
        return row


class RootSystem:
    """A root system realization with deterministic root indexing."""

    def __init__(self, spec: RootSystemSpec):
        self.spec = spec
        if spec.factors is not None:
            blocks = [RootSystem(f) for f in spec.factors]
            self.den = math.lcm(*(b.den for b in blocks))
            self.dim = sum(b.dim for b in blocks)
            roots: list[tuple[int, ...]] = []
            basis_vecs: list[tuple[int, ...]] = []
            self.block_slices = []
            offset = 0
            for b in blocks:
                c, tail = self.den // b.den, self.dim - offset - b.dim
                padded = [(0,) * offset + tuple(c * x for x in r) + (0,) * tail
                          for r in b._int_roots]
                roots += padded
                basis_vecs += [padded[i] for i in b.canonical_basis]
                self.block_slices.append((offset, offset + b.dim))
                offset += b.dim
            self.rank = sum(b.rank for b in blocks)
            self.factors = tuple(blocks)
        else:
            self.den, roots, basis_vecs = _roots_for(spec)
            self.dim = len(roots[0])
            self.rank = spec.rank
            self.factors = None
        # sorting the vectors indexes the roots; the scale den keeps the order
        ints = self._int_roots = tuple(sorted(set(roots)))
        if len(ints) != len(roots):
            raise RootSystemError("duplicate roots in realization")
        self._int_index = {r: i for i, r in enumerate(ints)}
        self.canonical_basis: tuple[int, ...] = tuple(self._int_index[b] for b in basis_vecs)
        # negation reverses the order of a set closed under it: root i + root
        # N-1-i is zero for every i, read in one pass over the coordinates
        if any(map(add, itertools.chain.from_iterable(ints),
                   itertools.chain.from_iterable(reversed(ints)))):
            raise AssertionError("%s: the realization is not closed under negation" % spec.label)
        self.negation_map: tuple[int, ...] = tuple(range(len(ints) - 1, -1, -1))
        # den^2 times the norm of each root
        self._norms = tuple([sum(map(mul, r, r)) for r in ints])
        self._reflection_perms: dict[int, tuple[int, ...]] = {}
        self._canonical_chamber: Chamber | None = None
        # Objects of the upper layers, built by their getters on first use
        # (weylgroup's two groups, chevalley.structure_constants,
        # diagram._opposition, involution.find_s_chamber's seed pairings,
        # involution.class_label's row keys) and kept.
        self._weyl_group = None
        self._full_aut_group = None
        self._constants = None
        self._oppositions: dict = {}
        self._seed_pairings: dict = {}
        self._row_labels: dict = {}

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        """The root vectors of the realization, for printing and parsing."""
        from fractions import Fraction
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self._int_roots)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._int_roots)

    def norm2(self, idx: int) -> Fraction:
        from fractions import Fraction
        return Fraction(self._norms[idx], self.den * self.den)

    @cached_property
    def _long(self) -> tuple[bool, ...]:
        """Per root, whether its norm is maximal within its irreducible factor."""
        out = [False] * len(self)
        for lo, hi in self.block_slices if self.factors is not None else [(0, self.dim)]:
            block = [i for i, r in enumerate(self._int_roots) if any(r[lo:hi])]
            top = max(self._norms[i] for i in block)
            for i in block:
                out[i] = self._norms[i] == top
        return tuple(out)

    def is_long(self, idx: int) -> bool:
        """Maximal length within the irreducible factor of the root."""
        return self._long[idx]

    def root_name(self, i: int) -> str:  # for error messages
        return "%s root %d (%s)" % (self.spec.label, i, ", ".join(str(c) for c in self.roots[i]))

    def _require_dim(self, v) -> None:
        if len(v) != self.dim:
            raise RootSystemError("%s: the vector has %d coordinates, the roots have %d"
                                  % (self.spec.label, len(v), self.dim))

    def _index_of(self, v) -> int | None:
        """The index of the root with the vector v, or None: v times den,
        when it is an integer vector, is the root's key in _int_index."""
        u, d = _integral(v)
        return None if self.den % d else self._int_index.get(tuple(x * (self.den // d) for x in u))

    def root_index(self, v: Vector) -> int:
        self._require_dim(v)
        i = self._index_of(v)
        if i is None:
            raise RootSystemError("(%s) is not a root of %s"
                                  % (", ".join(map(str, v)), self.spec.label))
        return i

    def pairing_with(self, idx: int, v: Vector) -> Fraction:
        """The scalar product of a root with an ambient vector."""
        from fractions import Fraction
        u, d = _integral(v)
        return Fraction(sum(map(mul, self._int_roots[idx], u)), d * self.den)

    # -- scalar products -------------------------------------------------

    def pairing(self, i: int, j: int) -> int:
        """<alpha_i, alpha_j^vee>, from row i when it is made, else one dot product."""
        row = self.pairing_matrix.get(i)
        return row[j] if row is not None else _coroot_pairings(self, i, (j,))[0]

    # -- integer kernel ----------------------------------------------------
    #
    # Index tables built on first use and kept on the instance.  Each is a
    # deterministic function of the roots, so threads racing on a first use
    # compute and store equal values.

    @cached_property
    def _keys(self) -> tuple[int, ...]:
        """Each scaled root read as the digits of one integer in a balanced
        base wide enough for the sum of two roots.  Keys are additive, and
        two vectors whose coordinates are at most twice the largest root
        coordinate have equal keys only when they are equal."""
        ints = self._int_roots
        base = 4 * max((abs(x) for r in ints for x in r), default=0) + 1
        return tuple(sum(x * base ** k for k, x in enumerate(r)) for r in ints)

    @cached_property
    def _key_index(self) -> dict[int, int]:
        return {k: i for i, k in enumerate(self._keys)}

    @cached_property
    def sum_table(self) -> tuple[tuple[int, ...], ...]:
        """sum_table[i][j]: the index of root i + root j, or -1 when the sum
        is not a root (in particular when j is i or its negative)."""
        keys = self._keys
        look = self._key_index.get
        return tuple(tuple(look(a + b, -1) for b in keys) for a in keys)

    @cached_property
    def pairing_matrix(self) -> "_PairingRows":
        """pairing_matrix[i][j] = <alpha_i, alpha_j^vee>, that is
        2 (alpha_i, alpha_j) / (alpha_j, alpha_j).  Row i is computed, and
        checked to be integral, on its first read."""
        return _PairingRows(self)

    def basis_isomorphisms(self, src, dst):
        """Every bijection from the roots src onto the positions of dst that
        keeps norms and the pairing matrix, as a tuple t with t[p] the root
        of src placed at dst[p].

        Positions are filled in dst order, each with the candidates in src
        order, and a candidate is tried only if it agrees with every root
        already placed; so the tuples come in lexicographic order of their
        positions in src.  The pairings among src and among dst are read
        once, as two small tables, and no pairing row is made."""
        src, dst = tuple(src), tuple(dst)
        if len(src) != len(dst):
            return
        norms = self._norms
        ps = {s: dict(zip(src, _coroot_pairings(self, s, src))) for s in src}
        pd = [_coroot_pairings(self, d, dst) for d in dst]
        placed: list[int] = []

        def rec(p):
            if p == len(dst):
                yield tuple(placed)
                return
            d = dst[p]
            for s in src:
                if s in placed or norms[s] != norms[d]:
                    continue
                if any(ps[s][t] != x for t, x in zip(placed, pd[p])):
                    continue
                placed.append(s)
                yield from rec(p + 1)
                placed.pop()

        yield from rec(0)

    @cached_property
    def diagram_symmetries(self) -> tuple[tuple[int, ...], ...]:
        """Automorphisms of the canonical diagram, identity first, as
        position tuples p: canonical_basis[i] goes to canonical_basis[p[i]]."""
        cb = self.canonical_basis
        pos = {b: i for i, b in enumerate(cb)}
        return tuple(tuple(pos[b] for b in t) for t in self.basis_isomorphisms(cb, cb))

    # -- reflections -----------------------------------------------------

    def reflection_perm(self, alpha_idx: int) -> tuple[int, ...]:
        got = self._reflection_perms.get(alpha_idx)
        if got is None:
            # root i goes to i - <alpha_i, alpha^vee> alpha: column alpha of
            # the pairing matrix, which is row alpha times norm(i) / norm(alpha)
            ka, na, look = self._keys[alpha_idx], self._norms[alpha_idx], self._key_index
            got = tuple(look[k - c * n // na * ka] for k, c, n in
                        zip(self._keys, self.pairing_matrix[alpha_idx], self._norms))
            self._reflection_perms[alpha_idx] = got
        return got

    def perm_from_simple_images(self, images) -> tuple[int, ...]:
        """The root permutation of the isometry sending the canonical simple
        roots, in order, to the roots with the given indices; an isometry
        that sends the simple roots to roots sends every root onto a root.
        A root's image key is its canonical coordinates times their keys."""
        ks = [self._keys[j] for j in images]
        look = self._key_index
        return tuple(look[sum(map(mul, c, ks))]
                     for c in self.canonical_chamber()._coord_rows)

    def perm_of_reflections(self, vectors) -> tuple[int, ...] | None:
        """The root permutation of the product of the reflections across the
        given vectors, the first applied first, or None when the product does
        not keep the root set: its simple images, extended to every root."""
        idx = self.roots_of_scaled(*self.reflect_simple_roots(vectors))
        return None if idx is None else self.perm_from_simple_images(idx)

    def reflect_simple_roots(self, vectors, start=None) -> tuple[list, int]:
        """(images, scale): the canonical simple roots, or the pair start of an
        earlier call, reflected across each vector in turn, the first first, as
        the scaled roots times scale; with u the vector scaled to integers, y
        goes to (u, u) y - 2 (y, u) u."""
        images, scale = start or ([self._int_roots[b] for b in self.canonical_basis], 1)
        for v in vectors:
            u = _integral(v)[0]
            d = sum(map(mul, u, u))
            if d == 0:
                raise ValueError("pairing against the zero vector")
            images = [[d * a - t * b for a, b in zip(y, u, strict=True)]
                      for y in images for t in (2 * sum(map(mul, y, u)),)]
            scale *= d
        return images, scale

    def roots_of_scaled(self, images, scale) -> list[int] | None:
        """The indices of the roots y / scale for the images y, or None when one is
        not a root; the simple images of an isometry decide if it keeps the roots."""
        idx = [None if any(a % scale for a in y) else
               self._int_index.get(tuple(a // scale for a in y)) for y in images]
        return None if None in idx else idx

    def perm_of_matrix(self, m: Matrix) -> tuple[int, ...] | None:
        """Permutation induced on roots by an ambient linear map, if any.
        The map sends a scaled root to the scaled image."""
        from ._linalg import mat_vec
        images, look = [], self._int_index
        for r in self._int_roots:
            u, d = _integral(mat_vec(m, r))
            if d != 1 or tuple(u) not in look:
                return None
            images.append(look[tuple(u)])
        return tuple(images) if len(set(images)) == len(images) else None

    def matrix_of_perm(self, perm) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(N, d): the ambient matrix N / d inducing the permutation, the identity
        off the root span.  With the simple roots as the columns of A, their
        images those of P and G = A^T A, it is I + (P - A) G^-1 A^T; fraction-free
        Gauss-Jordan elimination takes [G | A^T] to [d I | d G^-1 A^T], d = det G,
        its pivots leading minors of G and its divisions exact."""
        a = [self._int_roots[b] for b in self.canonical_basis]
        m, d = [[sum(map(mul, u, v)) for v in a] + list(u) for u in a], 1
        for k, p in enumerate(m):
            for i, r in enumerate(m):
                if i != k:
                    m[i] = [(p[k] * x - r[k] * y) // d for x, y in zip(r, p)]
            d = p[k]
        moved = [list(map(sub, self._int_roots[perm[b]], u))
                 for b, u in zip(self.canonical_basis, a)]
        return tuple(tuple(d * (i == j) + sum(v[i] * r[len(a) + j] for v, r in zip(moved, m))
                           for j in range(self.dim)) for i in range(self.dim)), d

    # -- strings and coordinates ------------------------------------------

    def root_string(self, beta_idx: int, alpha_idx: int) -> tuple[int, int]:
        """(p, q) with {j : beta + j*alpha a root} = [-q, p]."""
        if beta_idx == alpha_idx or beta_idx == self.negation_map[alpha_idx]:
            raise RootSystemError("root string undefined against +-alpha")
        s = self.sum_table
        out = []
        for a in (alpha_idx, self.negation_map[alpha_idx]):
            k, v = 0, s[beta_idx][a]
            while v >= 0:
                k += 1
                v = s[v][a]
            out.append(k)
        return out[0], out[1]

    def is_strongly_orthogonal(self, i: int, j: int) -> bool:
        """j is not +-i, and neither sum nor difference is a root (by key)."""
        if j == i or j == self.negation_map[i]:
            return False
        a, b, look = self._keys[i], self._keys[j], self._key_index
        return a + b not in look and a - b not in look

    def require_strongly_orthogonal(self, idxs, error) -> None:
        """Raise error unless the roots are pairwise strongly orthogonal,
        naming the first pair at fault, in order, or the root given twice."""
        idxs = list(idxs)
        for k, a in enumerate(idxs):
            for b in idxs[k + 1:]:
                if not self.is_strongly_orthogonal(a, b):
                    raise error("%s is repeated" % self.root_name(a) if a == b else
                                "set is not strongly orthogonal: %s and %s"
                                % (self.root_name(a), self.root_name(b)))

    # -- chambers ----------------------------------------------------------

    def _dots(self, h) -> list[int]:
        """Each root's scalar product with h, times a positive integer."""
        self._require_dim(h)
        u = _integral(h)[0]
        return [sum(map(mul, r, u)) for r in self._int_roots]

    def chamber_from_witness(self, h: Vector) -> Chamber:
        dots = self._dots(h)
        if not all(dots):
            raise RootSystemError("witness is not regular")
        pos = frozenset(i for i, x in enumerate(dots) if x > 0)
        return Chamber(self, self.simple_roots(pos))

    def simple_roots(self, pos) -> tuple[int, ...]:
        """The roots of a positive set that are not the sum of two of them,
        sorted: for the positive roots of a chamber, its simple basis."""
        keys, look = self._keys, self._key_index.get
        return tuple(sorted(i for i in pos
                            if not any(look(keys[i] - keys[j]) in pos for j in pos)))

    def chamber_from_simple_basis(self, vectors) -> Chamber:
        """Chamber whose simple basis is the given set of root vectors: rank
        many roots from which the coordinate walk reaches every root (they
        span, so they are independent, and every root is a combination of
        them with coefficients of one sign)."""
        idxs = {self.root_index(v) for v in vectors}
        ch = Chamber(self, tuple(sorted(idxs)))
        if len(idxs) != self.rank or None in ch._coord_rows:
            raise RootSystemError("vectors are not a simple basis of a chamber")
        return ch

    def canonical_chamber(self) -> Chamber:
        """The chamber of the canonical basis."""
        if self._canonical_chamber is None:
            self._canonical_chamber = Chamber(self, self.canonical_basis)
        return self._canonical_chamber

    def in_dual_lattice(self, omega: Vector) -> bool:
        """Whether omega pairs integrally with the roots; the simple roots decide."""
        self._require_dim(omega)
        u, d = _integral(omega)
        return not any(sum(map(mul, self._int_roots[b], u)) % (d * self.den)
                       for b in self.canonical_basis)

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "family": self.spec.label,
            "rank": self.rank,
            "realization": self.spec.realization if self.spec.factors is None else "union",
            "ambient_dim": self.dim,
            "roots": [[str(c) for c in r] for r in self.roots],
            "basis": list(self.canonical_basis),
        }

    def to_json_str(self) -> str:
        import json
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __repr__(self):
        return "RootSystem(%s, %d roots)" % (self.spec.label, len(self))


def in_weyl(system: RootSystem, perm) -> bool:
    """Whether a root automorphism g lies in W; its simple images decide.
    Keeping the Cartan matrix on the simple roots makes g an automorphism,
    and a permutation that does not keep it raises ValueError."""
    cb = system.canonical_basis
    images = [perm[b] for b in cb]
    if any(system.pairing(i, j) != system.pairing(b, c)
           for i, b in zip(images, cb) for j, c in zip(images, cb)):
        raise ValueError("%s: the permutation does not keep the Cartan matrix" % system.spec.label)
    return _simple_images_in_weyl(system, images)


def _simple_images_in_weyl(system: RootSystem, images) -> bool:
    """Whether the automorphism sending the canonical simple roots to the
    given roots lies in W, by descent: while it sends a canonical simple
    root b below zero, g becomes g s_b (one inversion fewer; c goes to
    g(c) - <c, b^vee> g(b)).  W acts simply transitively on chambers, so g
    is in W iff what is left, which keeps Phi+, fixes every simple root."""
    cb, pos = system.canonical_basis, system.canonical_chamber().positive_set
    keys, look, pm = system._keys, system._key_index, system.pairing_matrix
    while (k := next((k for k, i in enumerate(images) if i not in pos), None)) is not None:
        images = [look[keys[i] - pm[c][cb[k]] * keys[images[k]]] for i, c in zip(images, cb)]
    return images == list(cb)


def klein_completer(system: RootSystem, triple):
    """Whether the three double reflections of triple + (g,), four pairwise
    orthogonal roots, lie in W, as a function of g.  Each is across a
    difference of two triple roots, applied to the simple roots once, here,
    and across v_p - g for the third root p; the vectors are orthogonal, so
    the reflections commute, and each product's simple images decide."""
    v = [system._int_roots[i] for i in triple]
    halves = [(v[p], system.reflect_simple_roots([tuple(map(sub, v[a], v[b]))]))
              for a, b, p in ((0, 1, 2), (0, 2, 1), (1, 2, 0))]

    def completes(g: int) -> bool:
        w = system._int_roots[g]
        for vp, half in halves:
            images = system.roots_of_scaled(*system.reflect_simple_roots(
                [tuple(map(sub, vp, w))], half))
            if images is None or not _simple_images_in_weyl(system, images):
                return False
        return True

    return completes


_build_cached = lru_cache(maxsize=None)(RootSystem)


def build(spec: RootSystemSpec | str, rank: int | None = None,
          realization: str = "standard") -> RootSystem:
    """Construct the root system for a spec (or family shorthand), cached
    by the normalised spec unless it is a union: build("F4") is build("F4", 4)."""
    if not isinstance(spec, RootSystemSpec):
        spec = RootSystemSpec(spec, rank, realization)
    return RootSystem(spec) if spec.factors is not None else _build_cached(spec)
