"""Weyl and full automorphism groups as permutation groups on root indices.

The engine is a deterministic Schreier-Sims stabilizer chain.  Backtrack
searches (set transporters, pair transporters, conjugating elements) walk
the chain level by level; since group elements are linear maps, committing
images of a spanning set pins the whole permutation, so search depth never
exceeds the rank by much.
"""

from __future__ import annotations

import itertools
import operator
from . import _linalg as la
from .rootsys import RootSystem

Perm = tuple[int, ...]


def perm_mul(p: Perm, q: Perm) -> Perm:
    """Composition applying q first: (p*q)(x) = p(q(x))."""
    if len(q) < 2:  # itemgetter returns a bare item for one index, fails for none
        return tuple(p[x] for x in q)
    return operator.itemgetter(*q)(p)


def perm_inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def identity_perm(n: int) -> Perm:
    return tuple(range(n))


class _Level:
    __slots__ = ("point", "gens", "orbit")

    def __init__(self, point: int, n: int):
        self.point = point
        self.gens: list[Perm] = []
        self.orbit: dict[int, Perm] = {point: identity_perm(n)}

    def recompute_orbit(self, n: int) -> None:
        self.orbit = {self.point: identity_perm(n)}
        queue = [self.point]
        while queue:
            new_queue = []
            for p in queue:
                t = self.orbit[p]
                for g in self.gens:
                    q = g[p]
                    if q not in self.orbit:
                        self.orbit[q] = perm_mul(g, t)
                        new_queue.append(q)
            queue = new_queue


class StabChain:
    """Deterministic stabilizer chain.

    forced_prefix points become the first base points even when their
    orbits turn out trivial, so coset searches can walk them in order.
    """

    def __init__(self, n: int, gens: list[Perm], base_hint: tuple[int, ...],
                 order_target: int | None = None,
                 forced_prefix: tuple[int, ...] = ()):
        self.n = n
        self.levels: list[_Level] = []
        self._base_hint = tuple(base_hint)
        self._order_target = order_target
        for p in forced_prefix:
            if all(lev.point != p for lev in self.levels):
                self._add_level(p)
        ident = identity_perm(n)
        gens = [g for g in gens if g != ident]
        if gens:
            if not self.levels:
                self._add_level(self._pick_point(gens[0]))
            for g in gens:
                self._add_generator(0, g)
            self._schreier_sims()

    # -- construction ----------------------------------------------------

    def _pick_point(self, g: Perm) -> int:
        used = {lev.point for lev in self.levels}
        for b in self._base_hint:
            if g[b] != b and b not in used:
                return b
        for b in range(self.n):
            if g[b] != b and b not in used:
                return b
        raise AssertionError("no moved point for a non-identity permutation")

    def _add_level(self, point: int) -> None:
        self.levels.append(_Level(point, self.n))

    def _add_generator(self, level: int, g: Perm) -> None:
        lev = self.levels[level]
        if g not in lev.gens:
            lev.gens.append(g)
            lev.recompute_orbit(self.n)

    def _sift(self, g: Perm, start: int = 0) -> tuple[Perm, int]:
        for i in range(start, len(self.levels)):
            lev = self.levels[i]
            img = g[lev.point]
            t = lev.orbit.get(img)
            if t is None:
                return g, i
            g = perm_mul(perm_inv(t), g)
        return g, len(self.levels)

    def _schreier_sims(self) -> None:
        ident = identity_perm(self.n)
        i = len(self.levels) - 1
        while i >= 0:
            if self._order_target is not None and self.order() == self._order_target:
                return
            lev = self.levels[i]
            inserted = False
            for p in sorted(lev.orbit):
                t = lev.orbit[p]
                for g in lev.gens:
                    u = lev.orbit[g[p]]
                    schreier = perm_mul(perm_inv(u), perm_mul(g, t))
                    if schreier == ident:
                        continue
                    residue, j = self._sift(schreier, i + 1)
                    if residue == ident:
                        continue
                    if j == len(self.levels):
                        self._add_level(self._pick_point(residue))
                    for k in range(i + 1, j + 1):
                        self._add_generator(k, residue)
                    i = j
                    inserted = True
                    break
                if inserted:
                    break
            if not inserted:
                i -= 1

    # -- queries -----------------------------------------------------------

    def order(self) -> int:
        out = 1
        for lev in self.levels:
            out *= len(lev.orbit)
        return out

    def contains(self, g: Perm) -> bool:
        residue, _ = self._sift(g)
        return residue == identity_perm(self.n)

    def base(self) -> tuple[int, ...]:
        return tuple(lev.point for lev in self.levels)

    def iter_elements(self):
        """All group elements (use only on small groups)."""
        if not self.levels:
            yield identity_perm(self.n)
            return
        transversals = [[lev.orbit[p] for p in sorted(lev.orbit)] for lev in self.levels]
        for combo in itertools.product(*transversals):
            g = combo[0]
            for t in combo[1:]:
                g = perm_mul(g, t)
            yield g


class PermGroup:
    """A group of root-set automorphisms with stabilizer-chain services."""

    def __init__(self, system: RootSystem, generators: list[Perm], name: str = ""):
        self.system = system
        self.n = len(system)
        self.generators = [tuple(g) for g in generators]
        self.name = name
        self._chains: dict[tuple[int, ...], StabChain] = {}
        self._order: int | None = None

    def __repr__(self):
        return "%s<order %s>" % (self.name or "PermGroup", self._order)

    # -- chains ------------------------------------------------------------

    def chain(self, base_prefix: tuple[int, ...] = ()) -> StabChain:
        key = tuple(base_prefix)
        got = self._chains.get(key)
        if got is None:
            hint = key + tuple(b for b in self.system.canonical_basis if b not in key)
            got = StabChain(self.n, self.generators, hint,
                            order_target=self._order, forced_prefix=key)
            self._chains[key] = got
            if self._order is None:
                self._order = got.order()
            if len(self._chains) > 24:  # keep the cache bounded
                for k in list(self._chains):
                    if k != () and k != key:
                        del self._chains[k]
                        break
        return got

    @property
    def order(self) -> int:
        if self._order is None:
            self.chain()
        return self._order

    def contains(self, g) -> bool:
        images = tuple(g)
        if len(images) != self.n:
            raise ValueError("permutation acts on a different root set")
        return self.chain().contains(images)

    def iter_elements(self):
        return self.chain().iter_elements()

    # -- searches ------------------------------------------------------------

    def _profile(self, xs):
        R = self.system
        pm = R.pairing_matrix
        norms = sorted(R._norms[x] for x in xs)
        pairings = sorted(sorted(pm[a][b] for b in xs) for a in xs)
        return norms, pairings

    def transporter_set(self, xs, ys) -> Perm | None:
        """Some g in G with g(X) = Y as sets, or None."""
        X = tuple(sorted(set(xs)))
        Y = frozenset(ys)
        if len(X) != len(Y):
            return None
        if not X:
            return identity_perm(self.n)
        if self._profile(X) != self._profile(sorted(Y)):
            return None
        return self._search_blocks([(X, Y)])

    def transporter_pair(self, xpair, ypair) -> Perm | None:
        """Some g with g(X1) = Y1 and g(X2) = Y2 as sets, or None."""
        (x1, x2), (y1, y2) = xpair, ypair
        b1 = (tuple(sorted(set(x1))), frozenset(y1))
        b2 = (tuple(sorted(set(x2))), frozenset(y2))
        if len(b1[0]) != len(b1[1]) or len(b2[0]) != len(b2[1]):
            return None
        if b1[0] and self._profile(b1[0]) != self._profile(sorted(b1[1])):
            return None
        if b2[0] and self._profile(b2[0]) != self._profile(sorted(b2[1])):
            return None
        return self._search_blocks([b1, b2])

    def _search_blocks(self, blocks) -> Perm | None:
        """Backtrack for g mapping each block's X onto its Y setwise.

        First-found result with candidates tried in increasing index order,
        so ties break lexicographically and results are deterministic.
        """
        R = self.system
        pm = R.pairing_matrix
        points: list[int] = []
        block_of: list[int] = []
        for bi, (X, _) in enumerate(blocks):
            for x in X:
                if x not in points:
                    points.append(x)
                    block_of.append(bi)
        chain = self.chain(tuple(points))
        levels = chain.levels
        committed: list[int] = []

        def rec(pi: int, g: Perm, used: list[set[int]]) -> Perm | None:
            if pi == len(points):
                for (X, Y) in blocks:
                    if {g[x] for x in X} != set(Y):
                        return None
                return g
            x = points[pi]
            bi = block_of[pi]
            lev = levels[pi]
            assert lev.point == x
            targets = blocks[bi][1]
            nx = R._norms[x]
            for c in sorted(lev.orbit):
                y = g[c]
                if y not in targets or y in used[bi] or R._norms[y] != nx:
                    continue
                # norms agree, so equal pairings mean equal scalar products
                if any(pm[x][points[j]] != pm[y][committed[j]] for j in range(pi)):
                    continue
                g2 = perm_mul(g, lev.orbit[c])
                committed.append(y)
                used[bi].add(y)
                out = rec(pi + 1, g2, used)
                used[bi].remove(y)
                committed.pop()
                if out is not None:
                    return out
            return None

        return rec(0, identity_perm(self.n), [set() for _ in blocks])

    def conjugator(self, theta, theta2, pairs=()) -> Perm | None:
        """Some g in G with g o theta o g^-1 = theta2 (and likewise for
        every extra (s, s2) pair), or None.

        Exhausts the stabilizer chain with partial-consistency pruning, so a
        None answer is a proof that no conjugating element exists in G.
        """
        conds = [(tuple(theta), tuple(theta2))]
        conds += [(tuple(a), tuple(b)) for a, b in pairs]
        n = self.n
        neg = self.system.negation_map

        def point_class(t, i):
            if t[i] == i:
                return 0
            if t[i] == neg[i]:
                return 1
            return 2

        classes = []
        for t1, t2 in conds:
            cls1 = [point_class(t1, i) for i in range(n)]
            cls2 = [point_class(t2, i) for i in range(n)]
            if sorted(cls1) != sorted(cls2):
                return None
            classes.append((cls1, cls2))

        chain = self.chain()
        levels = chain.levels
        base = [lev.point for lev in levels]
        base_pos = {b: j for j, b in enumerate(base)}
        pm = self.system.pairing_matrix

        def rec(li: int, g: Perm) -> Perm | None:
            if li == len(levels):
                for t1, t2 in conds:
                    for i in range(n):
                        if t2[g[i]] != g[t1[i]]:
                            return None
                return g
            lev = levels[li]
            b = lev.point
            for c in sorted(lev.orbit):
                if any(cls2[g[c]] != cls1[b] for cls1, cls2 in classes):
                    continue
                g2 = perm_mul(g, lev.orbit[c])
                # g2 is final on the base points so far, and an isometry with
                # g t1 = t2 g keeps <x, t1 y> as <g x, t2 g y> among them
                if any(pm[g2[x]][t2[g2[y]]] != pm[x][t1[y]] for t1, t2 in conds
                       for bj in base[: li + 1] for x, y in ((bj, b), (b, bj))):
                    continue
                ok = True
                for t1, t2 in conds:
                    for bj in base[: li + 1]:
                        tb = t1[bj]
                        if base_pos.get(tb, len(levels)) <= li:
                            if t2[g2[bj]] != g2[tb]:
                                ok = False
                                break
                    if not ok:
                        break
                if ok:
                    out = rec(li + 1, g2)
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


def in_weyl(system: RootSystem, perm) -> bool:
    """Whether a root automorphism g lies in W, by descent: while g sends a
    canonical simple root b below zero, g becomes g s_b (one inversion fewer;
    c goes to g(c) - <c, b^vee> g(b)).  W acts simply transitively on chambers,
    so g is in W iff what is left, which keeps Phi+, fixes every simple root.
    Keeping the Cartan matrix on the simple roots makes g an automorphism."""
    cb, pos = system.canonical_basis, system.canonical_chamber().positive_set
    keys, look, pm = system._keys, system._key_index, system.pairing_matrix
    images = [perm[b] for b in cb]
    if any(pm[i][j] != pm[b][c] for i, b in zip(images, cb) for j, c in zip(images, cb)):
        raise ValueError("%s: the permutation does not keep the Cartan matrix" % system.spec.label)
    while (k := next((k for k, i in enumerate(images) if i not in pos), None)) is not None:
        images = [look[keys[i] - pm[c][cb[k]] * keys[images[k]]] for i, c in zip(images, cb)]
    return images == list(cb)


def klein_in_weyl(system: RootSystem, quad) -> bool:
    """Whether the three double reflections attached to a 4-set of pairwise
    orthogonal roots all lie in the Weyl group.  The reflections are taken
    across the differences v_i - v_j, which need not be roots."""
    q = list(quad)
    if len(q) != 4:
        raise ValueError("%s: a Klein set needs exactly four roots, got %d"
                         % (system.spec.label, len(q)))
    for a, b in itertools.combinations(q, 2):
        if system.pairing_matrix[a][b]:
            raise ValueError("%s and %s are not orthogonal"
                             % (system.root_name(a), system.root_name(b)))
    vs = [system._int_roots[i] for i in q]
    for (i, j), (k, l) in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        perm = system.perm_of_reflections([la.vsub(vs[k], vs[l]), la.vsub(vs[i], vs[j])])
        if perm is None or not in_weyl(system, perm):
            return False
    return True
