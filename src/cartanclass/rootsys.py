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
import json
import math
import operator
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import _linalg as la
from ._linalg import Vector, vdot

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


def _e(i: int, n: int, c: int = 1) -> tuple[int, ...]:
    """c times the i-th (1-based) unit vector of Z^n."""
    return tuple(c * (k == i - 1) for k in range(n))


def _add(*vs) -> tuple[int, ...]:
    return tuple(map(sum, zip(*vs)))


def _pm_pairs(n: int, c: int = 1) -> list[tuple[int, ...]]:
    """c (+-e_i +- e_j) for i < j."""
    return [_add(_e(i, n, si * c), _e(j, n, sj * c))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for si in (1, -1) for sj in (1, -1)]


def _roots_for(spec: RootSystemSpec) -> tuple[int, list[tuple[int, ...]], list[tuple[int, ...]]]:
    """(den, roots, canonical basis) for an irreducible spec: the roots of
    the realization times den, which makes them integer vectors."""
    fam, rk = spec.family, spec.rank
    if fam in ("A", "G2"):
        # e_i - e_j; G2 adds +-(2 e_i - e_j - e_k) in R^3
        n = 3 if fam == "G2" else rk + 1
        roots = [_add(_e(i, n), _e(j, n, -1)) for i in range(1, n + 1)
                 for j in range(1, n + 1) if i != j]
        if fam == "A":
            return 1, roots, [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(1, n)]
        roots += [_add(_e(i, n, 2 * s), *(_e(j, n, -s) for j in range(1, 4) if j != i))
                  for i in range(1, 4) for s in (1, -1)]
        return 1, roots, [(1, -1, 0), (-2, 1, 1)]
    if fam in ("B", "C", "D"):
        n = rk
        basis = [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(1, n)]
        if fam == "D":
            return 1, _pm_pairs(n), basis + [_add(_e(n - 1, n), _e(n, n))]
        c = 1 if fam == "B" else 2  # the roots on the axes are +-c e_i
        roots = _pm_pairs(n) + [_e(i, n, s * c) for i in range(1, n + 1) for s in (1, -1)]
        return 1, roots, basis + [_e(n, n, c)]
    if fam == "F4":
        roots = [_e(i, 4, 2 * s) for i in range(1, 5) for s in (1, -1)] + _pm_pairs(4, 2)
        roots += list(itertools.product((1, -1), repeat=4))
        return 2, roots, [(2, -2, 0, 0), (0, 2, -2, 0), (0, 0, 2, 0), (-1, -1, -1, 1)]
    # E6, E7, E8 and the primed E6, E7: the roots of E8 orthogonal to the
    # walls.  Twice the E8 roots are 2 (+-e_i +- e_j) and the sign vectors
    # with an even number of +1.
    e8 = _pm_pairs(8, 2) + [s for s in itertools.product((1, -1), repeat=8)
                            if s.count(1) % 2 == 0]
    if spec.realization == "standard":
        walls = [_add(_e(7, 8), _e(8, 8, -1)), _add(_e(6, 8), _e(7, 8, -1))][:8 - rk]
        basis = [(-1,) * 8, _add(_e(1, 8, 2), _e(2, 8, 2))] + \
            [_add(_e(i - 1, 8, 2), _e(i - 2, 8, -2)) for i in range(3, rk + 1)]
    else:
        walls = [(1,) * 8, _add(_e(7, 8), _e(8, 8))][:8 - rk]
        basis = [_add(_e(i, 8, 2), _e(i + 1, 8, -2)) for i in range(1, rk)] + \
            [(-1, -1, -1, 1, 1, 1, 1, -1)]
    roots = [r for r in e8 if not any(sum(map(operator.mul, r, w)) for w in walls)]
    return 2, roots, basis


def _as_ints(v) -> tuple[int, ...] | None:
    """The vector with integer coordinates, or None when one is not an integer."""
    v = [Fraction(x) for x in v]
    return None if any(x.denominator != 1 for x in v) else tuple(map(int, v))


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

    def support(self, idx: int) -> frozenset[int]:
        cs = self.coords(idx)
        return frozenset(self.basis[i] for i in range(len(cs)) if cs[i] != 0)


def _coroot_pairings(R: "RootSystem", i: int, js) -> tuple[int, ...]:
    """<alpha_i, alpha_j^vee> for each j of js, checked to be integers."""
    u, norms = R._int_roots[i], [R._norms[j] for j in js]
    dots = [2 * sum(map(operator.mul, u, R._int_roots[j])) for j in js]
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
        self._int_roots: tuple[tuple[int, ...], ...] = tuple(sorted(set(roots)))
        if len(self._int_roots) != len(roots):
            raise RootSystemError("duplicate roots in realization")
        self._int_index = {r: i for i, r in enumerate(self._int_roots)}
        self.canonical_basis: tuple[int, ...] = tuple(self._int_index[b] for b in basis_vecs)
        self.negation_map: tuple[int, ...] = tuple(
            self._int_index[tuple(-x for x in r)] for r in self._int_roots)
        # den^2 times the norm of each root
        self._norms = tuple(sum(x * x for x in r) for r in self._int_roots)
        self._reflection_perms: dict[int, tuple[int, ...]] = {}
        self._canonical_chamber: Chamber | None = None
        # Objects of the upper layers, built by their getters on first use
        # (weylgroup.weyl_group, weylgroup.full_aut_group and
        # chevalley.structure_constants) and kept with the system.
        self._weyl_group = None
        self._full_aut_group = None
        self._constants = None

    @cached_property
    def roots(self) -> tuple[Vector, ...]:
        """The root vectors of the realization, for printing and parsing."""
        return tuple(tuple(Fraction(x, self.den) for x in r) for r in self._int_roots)

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._int_roots)

    def norm2(self, idx: int) -> Fraction:
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

    def _index_of(self, v) -> int | None:
        """The index of the root with the vector v, or None."""
        return self._int_index.get(_as_ints(Fraction(x) * self.den for x in v))

    def root_index(self, v: Vector) -> int:
        i = self._index_of(v)
        if i is None:
            raise RootSystemError("%r is not a root of %s" % (v, self.spec.label))
        return i

    def contains_vector(self, v: Vector) -> bool:
        return self._index_of(v) is not None

    def pairing_with(self, idx: int, v: Vector) -> Fraction:
        """The scalar product of a root with an ambient vector."""
        return vdot(self._int_roots[idx], v) / self.den

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
        positions in src."""
        src, dst = tuple(src), tuple(dst)
        if len(src) != len(dst):
            return
        pm, norms = self.pairing_matrix, self._norms
        placed: list[int] = []

        def rec(p):
            if p == len(dst):
                yield tuple(placed)
                return
            d = dst[p]
            for s in src:
                if s in placed or norms[s] != norms[d]:
                    continue
                if any(pm[s][t] != pm[d][e] for t, e in zip(placed, dst)):
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
        return tuple(look[sum(map(operator.mul, c, ks))]
                     for c in self.canonical_chamber()._coord_rows)

    def perm_of_reflections(self, vectors) -> tuple[int, ...] | None:
        """The root permutation of the product of the reflections across the
        given vectors, the first applied first, or None when the product does
        not keep the root set: its simple images, extended to every root."""
        idx = self.simple_images_of_reflections(vectors)
        return None if idx is None else self.perm_from_simple_images(idx)

    def simple_images_of_reflections(self, vectors) -> list[int] | None:
        """The images of the canonical simple roots under that product, or
        None when one is not a root; the product is an isometry, so they
        decide.  With u the vector scaled to integers, the scaled simple
        roots y go to (u, u) y - 2 (y, u) u."""
        images, scale = [self._int_roots[b] for b in self.canonical_basis], 1
        for v in vectors:
            den = math.lcm(*(x.denominator for x in v))
            u = [x.numerator * (den // x.denominator) for x in v]
            d = sum(x * x for x in u)
            if d == 0:
                raise ValueError("pairing against the zero vector")
            for k, y in enumerate(images):
                t = 2 * sum(map(operator.mul, y, u))
                images[k] = [d * a - t * b for a, b in zip(y, u, strict=True)]
            scale *= d
        idx = [None if any(a % scale for a in y) else
               self._int_index.get(tuple(a // scale for a in y)) for y in images]
        return None if None in idx else idx

    def perm_of_matrix(self, m: la.Matrix) -> tuple[int, ...] | None:
        """Permutation induced on roots by an ambient linear map, if any.
        The map sends a scaled root to the scaled image."""
        images = []
        for r in self._int_roots:
            j = self._int_index.get(_as_ints(la.mat_vec(m, r)))
            if j is None:
                return None
            images.append(j)
        if len(set(images)) != len(images):
            return None
        return tuple(images)

    def matrix_of_perm(self, perm) -> la.Matrix:
        """Ambient matrix inducing the permutation (identity off the span)."""
        src = [self.roots[i] for i in self.canonical_basis]
        img = [self.roots[perm[i]] for i in self.canonical_basis]
        return la.map_from_images(src, img)

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

    def is_regular(self, h: Vector) -> bool:
        return all(vdot(r, h) != 0 for r in self._int_roots)

    def chamber_from_witness(self, h: Vector) -> Chamber:
        h = tuple(Fraction(x) for x in h)
        if not self.is_regular(h):
            raise RootSystemError("witness is not regular")
        pos = frozenset(i for i, r in enumerate(self._int_roots) if vdot(r, h) > 0)
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
        omega = tuple(Fraction(x) for x in omega)
        if len(omega) != self.dim:
            raise RootSystemError("%s: the vector has %d coordinates, the roots have %d"
                                  % (self.spec.label, len(omega), self.dim))
        return all(self.pairing_with(b, omega).denominator == 1 for b in self.canonical_basis)

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
        return json.dumps(self.to_json(), indent=2, sort_keys=True)

    def __repr__(self):
        return "RootSystem(%s, %d roots)" % (self.spec.label, len(self))


_build_cached = lru_cache(maxsize=None)(RootSystem)


def build(spec: RootSystemSpec | str, rank: int | None = None,
          realization: str = "standard") -> RootSystem:
    """Construct the root system for a spec (or family shorthand), cached
    by the normalised spec unless it is a union: build("F4") is build("F4", 4)."""
    if not isinstance(spec, RootSystemSpec):
        spec = RootSystemSpec(spec, rank, realization)
    return RootSystem(spec) if spec.factors is not None else _build_cached(spec)
