"""Weyl and full automorphism groups as permutation groups on root indices.

The engine is a stabilizer chain of W read off the root system (Steinberg's
theorem gives every level's generators; no sifting builds it).  The three
searches (set transporters, pair transporters, conjugating elements) are one
backtrack walk over the chain, level by level; since group elements are
linear maps, committing images of a spanning set pins the whole permutation,
so search depth never exceeds the rank by much.  The full automorphism group
is the cosets c W of the diagram symmetries c, searched one coset at a time.
"""

from __future__ import annotations

import itertools
import math
import operator

from .rootsys import Perm, RootSystem, identity_perm, klein_completer, perm_inv, perm_mul


class _Level:
    __slots__ = ("point", "orbit")

    def __init__(self, point: int, gens: list[Perm], n: int):
        """The orbit of point under gens, each image with a transversal
        element that takes point there, by one breadth-first walk."""
        self.point = point
        self.orbit = {point: identity_perm(n)}
        queue = [point]
        while queue:
            new_queue = []
            for p in queue:
                t = self.orbit[p]
                for g in gens:
                    q = g[p]
                    if q not in self.orbit:
                        self.orbit[q] = perm_mul(g, t)
                        new_queue.append(q)
            queue = new_queue


class StabChain:
    """Stabilizer chain of the Weyl group, read off the root system.

    By Steinberg's theorem the pointwise stabilizer in W of roots x_1..x_k
    is generated by the reflections of the roots orthogonal to all of them.
    So level k acts by the reflections of the simple roots of the positive
    roots orthogonal to every earlier base point.  The base starts with
    base_prefix, whose points stay even where their orbits are trivial, so
    coset searches can walk them in order; each later point is the first
    canonical simple root that the level still moves."""

    def __init__(self, system: RootSystem, base_prefix: tuple[int, ...] = ()):
        self.n = n = len(system)
        self.levels: list[_Level] = []
        pm, cb = system.pairing_matrix, system.canonical_basis
        rest = set(system.canonical_chamber().positive_set)
        todo = list(dict.fromkeys(base_prefix))
        while todo or rest:
            p = todo.pop(0) if todo else next(b for b in cb if any(pm[b][r] for r in rest))
            gens = [system.reflection_perm(s) for s in system.simple_roots(rest)]
            self.levels.append(_Level(p, gens, n))
            rest = {r for r in rest if pm[p][r] == 0}

    def contains(self, g: Perm) -> bool:
        """Membership by sifting g through the levels."""
        for lev in self.levels:
            t = lev.orbit.get(g[lev.point])
            if t is None:
                return False
            g = perm_mul(perm_inv(t), g)
        return g == identity_perm(self.n)


class PermGroup:
    """The group W.Gamma of root automorphisms: the Weyl group W times a
    group Gamma of symmetries that keep the canonical positive roots.

    The generators are the reflections of the canonical simple roots and
    generators of Gamma; anything else raises ValueError.  W acts simply
    transitively on chambers, so Gamma meets W only in 1 and each element
    is c w for one c in Gamma and one w in W.  A search over the group is a
    search over W for each c, in the order Gamma is closed (1 first)."""

    def __init__(self, system: RootSystem, generators: list[Perm], name: str = ""):
        self.system = system
        self.n = n = len(system)
        self.generators = [tuple(g) for g in generators]
        self.name = name
        cb = system.canonical_basis
        refl = [system.reflection_perm(b) for b in cb]
        outer = [g for g in self.generators if g not in refl]
        pos = system.canonical_chamber().positive_set if outer else ()
        if any(r not in self.generators for r in refl) or \
                any(g[b] not in pos for g in outer for b in cb):
            raise ValueError("%s: a group is generated by the simple reflections and "
                             "symmetries that keep the positive roots" % system.spec.label)
        gamma = [identity_perm(n)]
        for c in gamma:  # grows while it is read: the closure of outer
            for g in outer:
                if (h := perm_mul(c, g)) not in gamma:
                    gamma.append(h)
        self._gamma = [(c, perm_inv(c)) for c in gamma]
        self._chains: dict[tuple[int, ...], StabChain] = {}

    def __repr__(self):
        return "%s<order %d>" % (self.name or "PermGroup", self.order)

    # -- chains ------------------------------------------------------------

    def chain(self, base_prefix: tuple[int, ...] = ()) -> StabChain:
        """The stabilizer chain of W whose base starts with base_prefix."""
        key = tuple(base_prefix)
        got = self._chains.get(key)
        if got is None:
            got = self._chains[key] = StabChain(self.system, key)
            if len(self._chains) > 24:  # keep the cache bounded
                del self._chains[next(k for k in self._chains if k not in ((), key))]
        return got

    @property
    def order(self) -> int:
        return len(self._gamma) * math.prod(len(lev.orbit) for lev in self.chain().levels)

    def contains(self, g) -> bool:
        images = tuple(g)
        if len(images) != self.n:
            raise ValueError("permutation acts on a different root set")
        chain = self.chain()
        return any(chain.contains(perm_mul(ci, images)) for _, ci in self._gamma)

    # -- searches ------------------------------------------------------------

    def _profile(self, xs):
        R = self.system
        pm = R.pairing_matrix
        norms = sorted(R._norms[x] for x in xs)
        pairings = sorted(sorted(pm[a][b] for b in xs) for a in xs)
        return norms, pairings

    def transporter_set(self, xs, ys) -> Perm | None:
        """Some g in G with g(X) = Y as sets, or None."""
        return self._transporter([(xs, ys)])

    def transporter_pair(self, xpair, ypair) -> Perm | None:
        """Some g with g(X1) = Y1 and g(X2) = Y2 as sets, or None."""
        (x1, x2), (y1, y2) = xpair, ypair
        return self._transporter([(x1, y1), (x2, y2)])

    def _transporter(self, blocks) -> Perm | None:
        """Search the blocks (X, Y) when each X and Y agree in size and in
        their norms and pairings; None otherwise."""
        blocks = [(tuple(sorted(set(X))), frozenset(Y)) for X, Y in blocks]
        if any(len(X) != len(Y) or self._profile(X) != self._profile(Y) for X, Y in blocks):
            return None
        return self._search([], blocks)

    def conjugator(self, theta, theta2, pairs=()) -> Perm | None:
        """Some g in G with g o theta o g^-1 = theta2 (and likewise for
        every extra (s, s2) pair), or None.

        Exhausts the stabilizer chain with partial-consistency pruning, so a
        None answer is a proof that no conjugating element exists in G.
        """
        conds = [(tuple(theta), tuple(theta2))]
        conds += [(tuple(a), tuple(b)) for a, b in pairs]
        neg, ident = self.system.negation_map, range(self.n)

        def kinds(t):  # the roots t fixes and negates, counted; conjugation keeps both
            return sum(map(operator.eq, t, ident)), sum(map(operator.eq, t, neg))

        if any(kinds(t1) != kinds(t2) for t1, t2 in conds):
            return None
        return self._search(conds, [])

    def _search(self, conds, blocks) -> Perm | None:
        """c w for the first c in Gamma for which some w in W conjugates each
        t1 to c^-1 t2 c and maps each block's X onto c^-1 Y."""
        for c, ci in self._gamma:
            w = self._search_w([(t1, perm_mul(ci, perm_mul(t2, c))) for t1, t2 in conds],
                               [(X, frozenset(ci[y] for y in Y)) for X, Y in blocks])
            if w is not None:
                return perm_mul(c, w)
        return None

    def _search_w(self, conds, blocks) -> Perm | None:
        """The first w in W, candidates tried in increasing index order at
        each level, with w t1 w^-1 = t2 for every (t1, t2) and w(X) = Y for
        every block, or None.

        The base starts with the block points, and a point's image must lie
        in the Y of the first block holding it, so the leaf checks the
        blocks again, which matters where two blocks share a point.  A
        product of transversal elements is in W: an isometry, so it never
        breaks a pairing or sends two points to one image.  Conjugacy prunes
        each image by its class (fixed, negated, moved), keeps <x, t1 b> =
        <w x, t2 w b> for each committed base point x, and w t1 b = t2 w b
        once t1 b is committed."""
        n, neg, pm = self.n, self.system.negation_map, self.system.pairing_matrix

        def classes(t):  # 0 fixed, 1 negated, 2 moved
            return [0 if t[i] == i else 1 if t[i] == neg[i] else 2 for i in range(n)]

        checks = [(t1, t2, classes(t1), classes(t2)) for t1, t2 in conds]
        targets: dict[int, frozenset] = {}
        for X, Y in blocks:
            for x in X:
                targets.setdefault(x, Y)
        levels = self.chain(tuple(targets)).levels
        depth = len(levels) if conds else len(targets)
        pos = {lev.point: j for j, lev in enumerate(levels)}
        base, img = [lev.point for lev in levels], []  # img[j] = w(base[j])

        def fits(li, b, y):
            for t1, t2, cls1, cls2 in checks:
                tb, ty = t1[b], t2[y]
                j = pos.get(tb, n)  # w t1 b = t2 w b once t1 b is committed
                if cls2[y] != cls1[b] or pm[y][ty] != pm[b][tb] or \
                        j < li and img[j] != ty or j == li and y != ty or \
                        any(pm[wx][ty] != pm[x][tb] for x, wx in zip(base, img)):
                    return False
            return True

        def rec(li: int, g: Perm) -> Perm | None:
            if li == depth:
                if all({g[x] for x in X} == Y for X, Y in blocks) and \
                        all(t2[g[i]] == g[t1[i]] for t1, t2 in conds for i in range(n)):
                    return g
                return None
            lev = levels[li]
            b, Y = lev.point, targets.get(lev.point)
            for c in sorted(lev.orbit):
                y = g[c]
                if (Y is None or y in Y) and fits(li, b, y):
                    img.append(y)
                    out = rec(li + 1, perm_mul(g, lev.orbit[c]))
                    img.pop()
                    if out is not None:
                        return out
            return None

        return rec(0, identity_perm(n))


# -- group constructors ------------------------------------------------------

def weyl_group(system: RootSystem) -> PermGroup:
    got = system._weyl_group
    if got is None:
        gens = [system.reflection_perm(b) for b in system.canonical_basis]
        got = system._weyl_group = PermGroup(system, gens, name="W(%s)" % system.spec.label)
    return got


def diagram_automorphisms(system: RootSystem) -> list[Perm]:
    """Root permutations induced by symmetries of the canonical diagram.

    A symmetry keeps norms and pairings of the simple roots, so its linear
    extension is an isometry of their span that maps roots to roots."""
    cb = system.canonical_basis
    return [system.perm_from_simple_images([cb[i] for i in p])
            for p in system.diagram_symmetries]


def factor_swap(system: RootSystem, bi: int, bj: int) -> Perm:
    """The root permutation exchanging the equal factors bi and bj of a
    union: each simple root of one goes to the simple root in the same
    position of the other."""
    cb = system.canonical_basis
    starts = [0, *itertools.accumulate(blk.rank for blk in system.factors)]
    images = list(cb)
    images[starts[bi]:starts[bi + 1]] = cb[starts[bj]:starts[bj + 1]]
    images[starts[bj]:starts[bj + 1]] = cb[starts[bi]:starts[bi + 1]]
    return system.perm_from_simple_images(images)


def full_aut_group(system: RootSystem) -> PermGroup:
    got = system._full_aut_group
    if got is not None:
        return got
    cb = system.canonical_basis
    gens = [system.reflection_perm(b) for b in cb]
    if system.factors is None:
        gens += diagram_automorphisms(system)
    else:
        # the simple roots of each factor fill consecutive canonical positions
        starts = [0, *itertools.accumulate(blk.rank for blk in system.factors)]
        for bi, blk in enumerate(system.factors):
            for p in blk.diagram_symmetries:
                images = list(cb)
                images[starts[bi]:starts[bi + 1]] = [cb[starts[bi] + i] for i in p]
                gens.append(system.perm_from_simple_images(images))
        for bi, bj in itertools.combinations(range(len(system.factors)), 2):
            if system.factors[bi].spec == system.factors[bj].spec:
                gens.append(factor_swap(system, bi, bj))
    got = system._full_aut_group = PermGroup(system, gens, name="A(%s)" % system.spec.label)
    return got


def klein_in_weyl(system: RootSystem, quad) -> bool:
    """Whether the three double reflections attached to a 4-set of pairwise
    orthogonal roots all lie in the Weyl group: rootsys.klein_completer on
    its first three roots, asked of the fourth, once the set is checked."""
    q = list(quad)
    if len(q) != 4:
        raise ValueError("%s: a Klein set needs exactly four roots, got %d"
                         % (system.spec.label, len(q)))
    for a, b in itertools.combinations(q, 2):
        if system.pairing(a, b):
            raise ValueError("%s and %s are not orthogonal"
                             % (system.root_name(a), system.root_name(b)))
    return klein_completer(system, q[:3])(q[3])
