"""Involutions of a root system: partition into fixed / negated / moved
roots, decomposition into a special part and strongly orthogonal
reflections, classification of strongly orthogonal sets, and the catalog
of involution class representatives per family.
"""

from __future__ import annotations

import operator
from functools import cached_property
from math import gcd
from typing import TYPE_CHECKING, NamedTuple

from .rootsys import (CartanclassError, Chamber, Perm, RootSystem, RootSystemError, _vec,
                      identity_perm, in_weyl, klein_completer, perm_mul)

if TYPE_CHECKING:
    from ._linalg import Matrix


class InvolutionError(CartanclassError):
    pass


class Involution:
    """An order-two orthogonal symmetry of a root system."""

    def __init__(self, system: RootSystem, perm: Perm):
        self.system = system
        self.perm = tuple(perm)
        if perm_mul(self.perm, self.perm) != identity_perm(len(system)):
            raise InvolutionError("permutation does not square to the identity")
        neg = system.negation_map
        real, imag, cplx = [], [], []
        for i, j in enumerate(self.perm):
            if j == i:
                real.append(i)
            elif j == neg[i]:
                imag.append(i)
            else:
                cplx.append(i)
        self.real_set = frozenset(real)
        self.imaginary_set = frozenset(imag)
        self.complex_set = frozenset(cplx)
        self._hom_theta_rows: dict = {}  # kept by realform.hom_theta_constraints

    def __call__(self, idx: int) -> int:
        return self.perm[idx]

    def __eq__(self, other):
        return isinstance(other, Involution) and self.system is other.system \
            and self.perm == other.perm

    def __hash__(self):
        return hash((id(self.system), self.perm))

    @cached_property
    def matrix(self) -> Matrix:
        from fractions import Fraction
        rows, d = self.system.matrix_of_perm(self.perm)
        return tuple(tuple(Fraction(x, d) for x in row) for row in rows)

    @cached_property
    def in_weyl(self) -> bool:
        return in_weyl(self.system, self.perm)

    @cached_property
    def orthogonal_set(self) -> tuple[int, ...]:
        """The first largest orthogonal set of positive negated roots, in pool
        order, by one search stopped at the size the negated subsystem allows."""
        R, neg = self.system, self.imaginary_set
        stop = sum(_max_orthogonal_size(*t) for t in subsystem_type(R, neg))
        return tuple(max_orthogonal_subset(R, positive_representatives(R, neg), stop))

    @property
    def length(self) -> int:
        return len(self.orthogonal_set)

    def is_special(self) -> bool:
        return not self.imaginary_set

    def to_json(self) -> dict:
        rows, d = self.system.matrix_of_perm(self.perm)
        return {  # each entry as str(Fraction(x, d)) prints it
            "matrix": [[str(x // g) if g == d else "%d/%d" % (x // g, d // g)
                        for x in row for g in (gcd(x, d),)] for row in rows],
            "partition": {
                "real": len(self.real_set),
                "imaginary": len(self.imaginary_set),
                "complex": len(self.complex_set),
            },
            "length": self.length,
            "in_weyl": self.in_weyl,
        }

    def __repr__(self):
        return "Involution(%s, r=%d/i=%d/c=%d)" % (
            self.system.spec.label, len(self.real_set),
            len(self.imaginary_set), len(self.complex_set))


# -- constructors --------------------------------------------------------------


def identity_involution(system: RootSystem) -> Involution:
    return Involution(system, identity_perm(len(system)))


def antipodal_involution(system: RootSystem) -> Involution:
    return Involution(system, tuple(system.negation_map))


def involution_from_images(system: RootSystem, images) -> Involution:
    """Involution from the images of the canonical simple roots.

    Images are coordinate vectors in the ambient space; the map sending the
    simple roots to them and fixing the orthogonal complement of their span
    must be an isometry of order at most two preserving the root set."""
    from fractions import Fraction
    basis = system.canonical_basis
    imgs = [tuple(Fraction(x) for x in v) for v in images]
    if len(imgs) != len(basis):
        raise InvolutionError("expected %d images" % len(basis))
    if any(len(v) != system.dim for v in imgs):
        raise InvolutionError("images need %d coordinates" % system.dim)
    # Roots with the Gram matrix of the simple roots: the map is an isometry
    # of the root span onto itself, fixing the complement, and it sends the
    # simple roots to roots, hence every root to a root.
    idx = [system._index_of(v) for v in imgs]
    if None not in idx and _gram(system, idx) == _gram(system, basis):
        return Involution(system, system.perm_from_simple_images(idx))
    # Otherwise the map is no automorphism.  Fixing the complement, it is an
    # isometry exactly when the images keep the scalar products of the simple
    # roots and lie in their span; an isometry that sends a simple root off
    # the roots does not preserve the root set.
    from . import _linalg as la
    srcs = [system.roots[b] for b in basis]
    if any(la.vdot(u, v) != la.vdot(x, y) for u, x in zip(imgs, srcs)
           for v, y in zip(imgs, srcs)) or any(la.solve(srcs, v) is None for v in imgs):
        raise InvolutionError("map is not an isometry")
    raise InvolutionError("map does not preserve the root set")


def _gram(system: RootSystem, idxs) -> list[list[int]]:
    """The scalar products of the given roots, in the integer scale."""
    ints = [system._int_roots[i] for i in idxs]
    return [[sum(map(operator.mul, u, v)) for v in ints] for u in ints]


def from_reflections(system: RootSystem, vectors) -> Involution:
    """Product of reflections across the given (not necessarily root)
    vectors; raises unless the result is an involution preserving roots."""
    perm = system.perm_of_reflections(vectors)
    if perm is None:
        raise InvolutionError("map does not preserve the root set")
    return Involution(system, perm)


def complex_type_involution(system: RootSystem) -> Involution:
    """The involution exchanging the two equal factors of a union."""
    if system.factors is None or len(system.factors) != 2:
        raise InvolutionError("complex type needs a two-factor union")
    f1, f2 = system.factors
    if f1.spec != f2.spec:
        raise InvolutionError("complex type needs two equal factors, not %s and %s"
                              % (f1.spec.label, f2.spec.label))
    from .weylgroup import factor_swap
    return Involution(system, factor_swap(system, 0, 1))


# -- S-chambers ------------------------------------------------------------------


def is_s_chamber(theta: Involution, chamber: Chamber) -> bool:
    """Every complex positive root has a positive image."""
    pos = chamber.positive_set
    return all(theta(i) in pos for i in pos if i in theta.complex_set)


def find_s_chamber(theta: Involution) -> Chamber:
    """Deterministic S-chamber of the split witness t*H+ + H-, t large.

    The seed h = sum_j scale^j omega_j is a positive combination of the
    coweights; geometric weights grow until H+ stays off every non-negated
    root wall.  H+ vanishes on the negated roots, where H- = h: the chamber
    is the roots with H+ > 0 and the negated roots with h > 0.  Pairings
    are integers read off the canonical coordinates, <alpha, h> =
    sum_j scale^j c_j(alpha), and <alpha, theta h> = <theta alpha, h>; the
    pairings of each scale's seed are kept on the system."""
    R = theta.system
    ch = R.canonical_chamber()
    movers = [i for i in range(len(R)) if i not in theta.imaginary_set]
    if not movers:
        return ch
    for scale in range(1, 65):
        h = R._seed_pairings.get(scale)
        if h is None:
            h = R._seed_pairings[scale] = [
                sum(c * scale ** j for j, c in enumerate(ch.coords(i))) for i in range(len(R))]
        if not all(h):
            continue
        # twice the pairings with H+ = (h + theta h)/2
        plus = [x + h[theta(i)] for i, x in enumerate(h)]
        if any(plus[i] == 0 for i in movers):
            continue
        pos = frozenset(i for i, x in enumerate(plus) if x > 0 or (x == 0 and h[i] > 0))
        chamber = Chamber(R, R.simple_roots(pos))
        if not is_s_chamber(theta, chamber):
            raise InvolutionError("constructed chamber fails the S condition")
        return chamber
    raise InvolutionError("witness construction degenerated")


# -- orthogonal set machinery ---------------------------------------------------


def positive_representatives(system: RootSystem, subset) -> list[int]:
    pos = system.canonical_chamber().positive_set
    out = [i for i in subset if i in pos]
    out.sort(key=lambda i: (system._norms[i], i))
    return out


def first_max_clique(pool: list[int], adjacent, stop: int | None = None) -> list[int]:
    """The first largest subset of the pool whose members are pairwise
    adjacent.  Depth-first, candidates in pool order; a branch is cut when
    it cannot beat the best set found so far, and the search ends once that
    set reaches the stop size."""
    best: list[int] = []

    def dfs(chosen: list[int], cands: list[int]) -> bool:
        nonlocal best
        if len(chosen) > len(best):
            best = list(chosen)
            if len(best) == stop:
                return True
        if len(chosen) + len(cands) <= len(best):
            return False
        for k, c in enumerate(cands):
            if dfs(chosen + [c], [d for d in cands[k + 1:] if adjacent(c, d)]):
                return True
        return False

    dfs([], pool)
    return best


def max_orthogonal_subset(system: RootSystem, pool: list[int], stop=None) -> list[int]:
    """Largest pairwise orthogonal subset of a set of positive roots, in the
    pool's order (shortest norm, then index).  An orthogonal set is
    independent, so by default the search stops at the pool's rank."""
    pm = system.pairing_matrix
    return first_max_clique(pool, lambda c, d: pm[c][d] == 0,
                            stop or len(system.simple_roots(set(pool))))


def _max_orthogonal_size(rank: int, size: int, longs: int, *_) -> int:
    """The size of the largest orthogonal set of an irreducible root system,
    typed as by subsystem_type: (n + 1) // 2 on A_n, 2 (n // 2) on D_n, 4 on
    E6, and the rank elsewhere (-1 is in W); Kostant's cascade reaches each."""
    if longs == size and size == rank * (rank + 1):
        return (rank + 1) // 2
    if longs == size and size == 2 * rank * (rank - 1):
        return rank - rank % 2
    return 4 if (rank, size, longs) == (6, 72, 72) else rank


def strongly_orthogonalize(system: RootSystem, idxs) -> tuple[int, ...]:
    """Replace a pairwise orthogonal set by a strongly orthogonal one with
    the same span (and cardinality)."""
    cur = list(idxs)
    pm = system.pairing_matrix
    if any(pm[a][b] for k, a in enumerate(cur) for b in cur[k + 1:]):
        raise InvolutionError("set is not pairwise orthogonal")
    add, neg = system.sum_table, system.negation_map
    changed = True
    while changed:
        changed = False
        for a in range(len(cur)):
            for b in range(a + 1, len(cur)):
                x, y = cur[a], cur[b]
                if not system.is_strongly_orthogonal(x, y):
                    cur[a], cur[b] = add[x][y], add[x][neg[y]]
                    changed = True
        # loop until stable; each swap strictly increases total norm
    pos = system.canonical_chamber().positive_set
    return tuple(sorted(i if i in pos else neg[i] for i in cur))


def decompose(theta: Involution) -> tuple[Involution, tuple[int, ...]]:
    """Split theta into a special involution and strongly orthogonal
    reflections: theta = eps o s_B with B inside the negated set."""
    R = theta.system
    b_orth = theta.orthogonal_set
    b_strong = strongly_orthogonalize(R, b_orth) if b_orth else ()
    s_b = identity_perm(len(R))
    for b in b_strong:
        s_b = perm_mul(R.reflection_perm(b), s_b)
    eps = Involution(R, perm_mul(theta.perm, s_b))
    if not eps.is_special():
        raise InvolutionError("decomposition failed to erase the negated set")
    if perm_mul(eps.perm, s_b) != theta.perm:
        raise InvolutionError("decomposition does not recompose")
    if len(b_strong) != len(b_orth):
        raise InvolutionError("strongly orthogonalizing changed the size of the set")
    return eps, b_strong


# -- subsystem typing ------------------------------------------------------------


def _orthogonal_components(system: RootSystem, idxs) -> list[list[int]]:
    """Classes of roots joined by chains of non-orthogonal pairs.  Each root
    in turn absorbs the classes it meets, in the order they were formed."""
    pm = system.pairing_matrix
    comps: list[list[int]] = []
    for i in idxs:
        hit = [c for c in comps if any(pm[i][j] for j in c)]
        merged = [i]
        for c in hit:
            merged.extend(c)
            comps.remove(c)
        comps.append(merged)
    return comps


def subsystem_components(system: RootSystem, roots) -> list[tuple[list[int], list[int]]]:
    """The irreducible components of a closed subsystem, given by its
    positive roots, as (simple roots, given roots) pairs: a root belongs to
    the component of the simple roots it pairs nonzero with.  Only the
    simple roots' pairing rows are read."""
    pm = system.pairing_matrix
    return [(c, [i for i in roots if any(pm[s][i] for s in c)])
            for c in _orthogonal_components(system, system.simple_roots(set(roots)))]


def subsystem_type(system: RootSystem, subset) -> tuple:
    """Multiset of irreducible types of a closed subsystem, the roots lying
    in a subspace (such as an eigenspace of an involution), each reported
    as (rank, size, long_count, top norm), the norm as stored (den^2 times
    the norm).  A component's rank is the size of its simple system, and its
    positive roots are half its roots."""
    pos = system.canonical_chamber().positive_set
    norm = system._norms
    out = []
    for c, mine in subsystem_components(system, [i for i in subset if i in pos]):
        top = max(norm[i] for i in mine)
        out.append((len(c), 2 * len(mine), 2 * sum(norm[i] == top for i in mine), top))
    return tuple(sorted(out))


# -- strongly orthogonal set classification --------------------------------------


class SosClass(NamedTuple):
    family: str
    label: tuple

    def __str__(self):
        fam = self.family
        if fam == "A" or fam == "E6":
            return "S_%d(%s)" % (self.label[0], fam)
        if fam in ("B", "C", "D"):
            return "S_%d,%d(%s)" % (self.label[0], self.label[1], fam)
        if fam in ("E7", "E8"):
            if len(self.label) == 2:
                return "S_%d^%s(%s)" % (self.label[0], "I" if self.label[1] else "II", fam)
            return "S_%d(%s)" % (self.label[0], fam)
        return "S_%d,%d(%s)" % (self.label[0], self.label[1], fam)


def _supports(system: RootSystem, idxs):
    return [frozenset(k for k, c in enumerate(system._int_roots[i]) if c != 0) for i in idxs]


def classify_sos(system: RootSystem, idxs) -> SosClass:
    """Equivalence-class label of a strongly orthogonal set."""
    S = sorted(idxs)
    system.require_strongly_orthogonal(S, InvolutionError)
    fam = system.spec.family
    if fam is None:
        raise InvolutionError("classification needs an irreducible system, not %s"
                              % system.spec.label)
    k = len(S)
    if fam == "A":
        return SosClass("A", (k,))
    if fam == "E6":
        return SosClass("E6", (k,))
    if fam in ("E7", "E8"):
        if k == 4:  # S is checked: four strongly orthogonal roots
            return SosClass(fam, (4, klein_completer(system, S[:3])(S[3])))
        if fam == "E7" and k == 3:
            flag = _completes_to_klein(system, S)
            return SosClass(fam, (3, flag))
        return SosClass(fam, (k,))
    if fam in ("F4", "G2"):
        longs = sum(1 for i in S if system.is_long(i))
        return SosClass(fam, (longs, k - longs))
    if fam == "C":
        longs = sum(1 for i in S if system.is_long(i))
        return SosClass("C", (k - longs, longs))
    if fam in ("B", "D"):
        sups = _supports(system, S)
        seen = {}
        for s in sups:
            seen[s] = seen.get(s, 0) + 1
        shorts = sum(1 for s in sups if len(s) == 1)
        paired = sum(c for c in seen.values() if c == 2)
        unpaired_longs = sum(1 for s in sups if len(s) == 2 and seen[s] == 1)
        if fam == "B":
            return SosClass("B", (unpaired_longs, paired + shorts))
        return SosClass("D", (unpaired_longs, paired // 2))
    raise InvolutionError("unhandled family %r" % fam)


def _completes_to_klein(system: RootSystem, triple) -> bool:
    rows = [system.pairing_matrix[s] for s in triple]
    fourths = [g for g in range(len(system)) if g not in triple and not any(r[g] for r in rows)]
    return any(map(klein_completer(system, triple), fourths))


def max_sos_class_count(family: str, rank: int) -> int:
    """Number of equivalence classes of maximal strongly orthogonal
    systems, with the convention used by the source classification
    (type C counts the classes containing a short root)."""
    if family == "A":
        return 1
    if family == "B":
        return 2 if rank % 2 == 0 else 1
    if family == "C":
        return rank // 2
    if family in ("D", "E6", "E7", "E8", "G2"):
        return 1
    if family == "F4":
        return 2
    raise RootSystemError("unknown family %r" % family)


def sos_classes_by_size(system: RootSystem):
    """Enumerate one representative per equivalence class, with maximality.

    Returns a dict {SosClass: (representative tuple, is_maximal)}.
    Representatives are grown size by size; the family label is a complete
    class invariant, so label dedup realizes the classification (every
    class of size s+1 is reached by extending some size-s representative).
    """
    # each set goes with its extensions, the roots strongly orthogonal to all of it in
    # ascending order; those of S + (g,) are the ones of S strongly orthogonal to g
    reps: dict[SosClass, tuple[tuple[int, ...], list[int]]] = {}
    frontier: list[tuple[tuple[int, ...], list[int]]] = [((), list(range(len(system))))]
    while frontier:
        new_frontier = []
        for S, exts in frontier:
            seen_here = set()
            for g in exts:
                S2 = tuple(sorted(S + (g,)))
                lab2 = classify_sos(system, S2)
                if lab2 in reps or lab2 in seen_here:
                    continue
                seen_here.add(lab2)
                reps[lab2] = S2, [h for h in exts if system.is_strongly_orthogonal(g, h)]
                new_frontier.append(reps[lab2])
        frontier = new_frontier
    return {lab: (S, not exts) for lab, (S, exts) in reps.items()}


def maximal_sos_classes(system: RootSystem) -> list[tuple[SosClass, tuple[int, ...]]]:
    reps = sos_classes_by_size(system)
    return sorted(((lab, S) for lab, (S, is_max) in reps.items() if is_max),
                  key=lambda t: (len(t[1]), str(t[0])))


# -- special involutions ----------------------------------------------------------


def special_involutions(system: RootSystem) -> list[Involution]:
    """Class representatives of involutions without negated roots: the
    identity and the first diagram automorphism of order two, if any.  A
    diagram automorphism keeps the positive roots, so it negates none."""
    if system.factors is not None:
        raise InvolutionError("special census handles irreducible systems")
    from .weylgroup import diagram_automorphisms
    ident = identity_perm(len(system))
    flips = [p for p in diagram_automorphisms(system) if p != ident and perm_mul(p, p) == ident]
    return [Involution(system, p) for p in [ident] + flips[:1]]


# -- the catalog of involution classes ---------------------------------------------


def _table2_rows(system: RootSystem):
    """(label, list of integer reflection vectors) rows for the family catalog."""
    fam, rank = system.spec.family, system.rank
    if fam == "E7" and system.spec.realization == "prime":
        raise InvolutionError("the catalog is stated on the standard "
                              "realization of E7")
    n = system.dim

    def es(*ks):  # the unit vectors e_k, numbered from 1 as the catalogs write them
        return [_vec(n, (k - 1, 1)) for k in ks]

    def d(i, j):  # e_i - e_j
        return _vec(n, (i - 1, 1), (j - 1, -1))

    def s(i, j):  # e_i + e_j
        return _vec(n, (i - 1, 1), (j - 1, 1))

    rows = []
    if fam == "A":
        half = (rank + 1) // 2
        for h in range(1, half + 1):
            rows.append(("w%d" % h, [d(2 * i - 1, 2 * i) for i in range(1, h + 1)]))
        for p in range(0, half + 1):
            vecs = [s(i, rank + 2 - i) for i in range(1, p + 1)]
            rows.append(("e%d" % p, vecs + es(*range(p + 1, rank + 2 - p))))
    elif fam in ("B", "C", "D"):
        for r1 in range(0, rank // 2 + 1):
            for r2 in range(0, rank - 2 * r1 + 1):
                if r1 == r2 == 0:
                    continue
                vecs = [d(2 * i - 1, 2 * i) for i in range(1, r1 + 1)]
                rows.append(("r%d,%d" % (r1, r2), vecs + es(*range(rank - r2 + 1, rank + 1))))
    elif fam == "E6" and system.spec.realization == "standard":
        rows = [("w1", [d(1, 2)]), ("w2", es(1, 2)), ("w3", es(1, 2) + [d(3, 4)]),
                ("w4", es(1, 2, 3, 4))]
    elif fam == "E6" and system.spec.realization == "prime":
        rows = [("e1", [s(1, 6), s(2, 5), s(3, 4)]), ("e2", [s(1, 6), s(2, 5)] + es(3, 4)),
                ("e3", [s(1, 6)] + es(2, 3, 4, 5)), ("e4", es(1, 2, 3, 4, 5, 6))]
    elif fam == "E7":
        rows = [("1", [d(1, 2)]), ("2", es(1, 2)), ("3", es(1, 2) + [d(3, 4)]),
                ("4", [d(1, 2), d(3, 4), d(5, 6)]), ("5", es(1, 2, 3, 4)),
                ("6", es(1, 2) + [d(3, 4), d(5, 6)]), ("7", es(1, 2, 3, 4) + [d(5, 6)]),
                ("8", es(1, 2, 3, 4, 5, 6)), ("9", es(1, 2, 3, 4, 5, 6) + [s(7, 8)])]
    elif fam == "E8":
        rows = [("1", [d(1, 2)]), ("2", es(1, 2)), ("3", es(1, 2) + [d(3, 4)]),
                ("4", es(1, 2, 3, 4)), ("5", es(1, 2) + [d(3, 4), d(5, 6)]),
                ("6", es(1, 2, 3, 4) + [d(5, 6)]), ("7", es(1, 2, 3, 4, 5, 6)),
                ("8", es(1, 2, 3, 4, 5, 6) + [d(7, 8)]), ("9", es(1, 2, 3, 4, 5, 6, 7, 8))]
    elif fam == "F4":
        rows = [("1", es(1)), ("2", [d(1, 2)]), ("3", es(1) + [d(2, 3)]), ("4", es(1, 2)),
                ("5", es(1, 2, 3)), ("6", es(2, 3) + [s(1, 4)]), ("7", es(1, 2, 3, 4))]
    elif fam == "G2":
        rows = [("1", [d(1, 2)]), ("2", [_vec(n, (0, 2), (1, -1), (2, -1))]),
                ("3", es(1, 2, 3))]
    else:
        raise InvolutionError("no catalog for %r" % (system.spec,))
    return rows


def table2_representatives(system: RootSystem) -> list[tuple[str, Involution]]:
    """The catalog involutions, instantiated and checked involutive.

    Rows whose maps coincide on the root set (degenerate low ranks) are
    listed once; rows acting as the identity are dropped."""
    out = []
    seen: set[Perm] = set()
    ident = identity_perm(len(system))
    for label, vecs in _table2_rows(system):
        theta = from_reflections(system, vecs)
        if theta.perm == ident or theta.perm in seen:
            continue
        seen.add(theta.perm)
        out.append((label, theta))
    return out


# -- equivalence ------------------------------------------------------------------


def equivalent_involutions(t1: Involution, t2: Involution, group: str = "W") -> bool:
    """Conjugacy inside the Weyl group ("W") or the full group ("A"): the
    class keys of diagram.class_key agree."""
    if t1.system is not t2.system:
        raise InvolutionError("involutions live on different systems")
    if t1.perm == t2.perm:
        return True
    from .diagram import class_key  # diagram imports this module
    return class_key(t1, group) == class_key(t2, group)


def class_label(theta: Involution, group: str = "W") -> str:
    """Catalog label of the involution class (identity labeled 'id').

    The class key of theta is looked up in a table, kept on the system, of
    the keys of the catalog rows of theta's realization; the first row with
    the key wins.  When no row has its W-key, the full automorphism group is
    tried (the D4 triality orbit folds several W-classes onto one row)."""
    from .diagram import class_key
    R = theta.system
    if theta.perm == identity_perm(len(R)):
        return "id"
    for g in dict.fromkeys((group, "A")):
        if g not in R._row_labels:
            R._row_labels[g] = {class_key(rep, g): lab
                                for lab, rep in reversed(table2_representatives(R))}
        if (lab := R._row_labels[g].get(class_key(theta, g))) is not None:
            return lab
    raise InvolutionError("involution matches no catalog row")
