"""Permutation group engine: orders, membership, transporters, Klein sets."""

import functools
import itertools
import math
import random

import pytest

from cartanclass import involution as iv, rootsys as rs, weylgroup as wg
from test_rootsys import zeta
import reference_classes as rc
import reference_linalg as rl

WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 3): 48, ("C", 4): 384,
    ("D", 4): 192, ("D", 5): 1920,
    ("G2", 2): 12, ("F4", 4): 1152,
    ("E6", 6): 51840, ("E7", 7): 2903040, ("E8", 8): 696729600,
}
# |W(A_n)| = (n+1)!, |W(B_n)| = |W(C_n)| = 2^n n!, |W(D_n)| = 2^(n-1) n!
WEYL_ORDERS.update({("A", n): math.factorial(n + 1) for n in range(5, 9)})
WEYL_ORDERS.update({(f, n): 2 ** n * math.factorial(n) for f in "BC" for n in range(5, 9)})
WEYL_ORDERS.update({("D", n): 2 ** (n - 1) * math.factorial(n) for n in range(6, 9)})
_A1, _A2, _B2, _G2 = (rs.RootSystemSpec(*a) for a in (("A", 1), ("A", 2), ("B", 2), ("G2",)))
SPEC_WEYL_ORDERS = {
    rs.RootSystemSpec("E6", realization="prime"): 51840,
    rs.RootSystemSpec("E7", realization="prime"): 2903040,
    rs.RootSystemSpec(factors=(_A1, _A1)): 4,
    rs.RootSystemSpec(factors=(_A2, _A2)): 36,
    rs.RootSystemSpec(factors=(_B2, _B2, _G2)): 8 * 8 * 12,
}


@pytest.mark.parametrize("fam,rank", sorted(WEYL_ORDERS) + [
    pytest.param(spec, None, id=spec.label) for spec in SPEC_WEYL_ORDERS])
def test_weyl_orders(fam, rank):
    R = rs.build(fam, rank)
    want = SPEC_WEYL_ORDERS[fam] if rank is None else WEYL_ORDERS[(fam, rank)]
    assert wg.weyl_group(R).order == want


def test_full_aut_ratios():
    for fam, rank, ratio in [("A", 2, 2), ("A", 3, 2), ("B", 2, 1), ("C", 3, 1),
                             ("D", 4, 6), ("D", 5, 2), ("E6", 6, 2), ("F4", 4, 1),
                             ("G2", 2, 1), ("E7", 7, 1), ("E8", 8, 1)]:
        R = rs.build(fam, rank)
        got = wg.full_aut_group(R).order // wg.weyl_group(R).order
        assert got == ratio, (fam, rank, got)
        assert got in (1, 2, 6)


def test_minus_identity_membership():
    B2 = rs.build("B", 2)
    minus = tuple(B2.negation_map)
    assert wg.weyl_group(B2).contains(minus)
    A2 = rs.build("A", 2)
    minus_a = tuple(A2.negation_map)
    assert not wg.weyl_group(A2).contains(minus_a)
    assert wg.full_aut_group(A2).contains(minus_a)
    for R in (A2, B2):
        ident = wg.identity_perm(len(R.roots))
        assert wg.weyl_group(R).contains(ident)


def _mprime_e8():
    E8 = rs.build("E8")
    vecs = {1: zeta((1, 3, 5, 7)), 2: zeta((1, 2, 7, 8)), 3: zeta((1, 3, 6, 8)),
            4: zeta((1, 2, 5, 6)), 5: zeta((1, 4, 5, 8)), 6: zeta((1, 2, 3, 4)),
            7: zeta((1, 4, 6, 7)), 8: tuple(-x for x in zeta(()))}
    return E8, {k: E8.root_index(v) for k, v in vecs.items()}


def test_transporter_set_e8():
    E8, B = _mprime_e8()
    W = wg.weyl_group(E8)
    g = W.transporter_set([B[1], B[2]], [B[1], B[3]])
    assert g is not None
    assert {g[B[1]], g[B[2]]} == {B[1], B[3]}
    assert W.contains(g)
    assert W.transporter_set([B[1], B[2], B[3], B[4]],
                             [B[1], B[2], B[3], B[5]]) is None
    ident = W.transporter_set([B[1], B[4]], [B[1], B[4]])
    assert ident is not None


def test_transporter_pair_examples():
    B2 = rs.build("B", 2)
    W = wg.weyl_group(B2)
    shorts = [i for i in range(len(B2)) if B2.norm2(i) == 1]
    longs = [i for i in range(len(B2)) if B2.norm2(i) == 2]
    assert W.transporter_pair((shorts, longs), (frozenset(longs), frozenset(shorts))) is None
    same = W.transporter_pair((shorts, longs), (frozenset(shorts), frozenset(longs)))
    assert same is not None


def test_transporter_vs_exhaustive_small():
    import random
    rng = random.Random(7)
    for fam, rank in [("B", 2), ("A", 3), ("G2", 2)]:
        R = rs.build(fam, rank)
        W = wg.weyl_group(R)
        elements = list(rc.iter_elements(W))
        assert len(elements) == W.order
        n = len(R.roots)
        for _ in range(12):
            k = rng.randint(1, min(3, n))
            X = tuple(sorted(rng.sample(range(n), k)))
            Y = tuple(sorted(rng.sample(range(n), k)))
            got = W.transporter_set(X, Y)
            brute = any({g[x] for x in X} == set(Y) for g in elements)
            assert (got is not None) == brute
            if got is not None:
                assert {got[x] for x in X} == set(Y)


def test_klein_examples():
    E8, B = _mprime_e8()
    assert wg.klein_in_weyl(E8, [B[1], B[2], B[3], B[4]])
    assert not wg.klein_in_weyl(E8, [B[1], B[2], B[3], B[5]])
    D4 = rs.build("D", 4)
    quad = [D4.root_index(v) for v in [(1, -1, 0, 0), (1, 1, 0, 0),
                                       (0, 0, 1, -1), (0, 0, 1, 1)]]
    assert wg.klein_in_weyl(D4, quad)
    with pytest.raises(ValueError, match=r"^D4: a Klein set needs exactly four roots, got 3$"):
        wg.klein_in_weyl(D4, quad[:3])


def test_klein_errors_name_the_roots():
    D4 = rs.build("D", 4)
    a, b, c, d = (D4.root_index(v) for v in [(1, 1, 0, 0), (1, -1, 0, 0),
                                               (0, 0, 1, -1), (0, 1, 1, 0)])
    with pytest.raises(ValueError, match=r"^D4 root %d \(1, 1, 0, 0\) and D4 root %d "
                       r"\(0, 1, 1, 0\) are not orthogonal$" % (a, d)):
        wg.klein_in_weyl(D4, [a, b, c, d])
    with pytest.raises(ValueError, match="not orthogonal"):
        wg.klein_in_weyl(D4, [a, a, b, d])


def _klein_full_perms(R, quad):
    """klein_in_weyl as it was before it stopped at the simple images: the
    orthogonality check on pairing rows, then each double reflection as a
    full root permutation, tested by in_weyl."""
    q = list(quad)
    assert len(q) == 4
    for a, b in itertools.combinations(q, 2):
        if R.pairing_matrix[a][b]:
            raise ValueError("%s and %s are not orthogonal" % (R.root_name(a), R.root_name(b)))
    vs = [R._int_roots[i] for i in q]
    for (i, j), (k, m) in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        perm = R.perm_of_reflections([rl.vsub(vs[k], vs[m]), rl.vsub(vs[i], vs[j])])
        if perm is None or not rs.in_weyl(R, perm):
            return False
    return True


@pytest.mark.parametrize("fam, quads, kleins", [("D", 48, 48), ("B", 160, 64)])
def test_klein_matches_full_permutations_on_every_orthogonal_quad(fam, quads, kleins):
    R = rs.build(fam, 4)
    quads_ = [q for q in itertools.combinations(range(len(R)), 4)
              if all(R.pairing(a, b) == 0 for a, b in itertools.combinations(q, 2))]
    got = [wg.klein_in_weyl(R, q) for q in quads_]
    assert (len(quads_), sum(got)) == (quads, kleins)
    assert got == [_klein_full_perms(R, q) for q in quads_]


@pytest.mark.parametrize("family", ["E7", "E8"])
def test_klein_matches_full_permutations_on_seeded_quads(family):
    R = rs.build(family)
    rng = random.Random(19)
    quads = []
    while len(quads) < 300:
        quad = [rng.randrange(len(R))]
        while len(quad) < 4:
            c = rng.randrange(len(R))
            if c not in quad and all(R.pairing(c, x) == 0 for x in quad):
                quad.append(c)
        quads.append(quad)
    got = [wg.klein_in_weyl(R, q) for q in quads]
    assert {True, False} <= set(got)
    assert got == [_klein_full_perms(R, q) for q in quads]


@pytest.mark.parametrize("realization", ["standard", "prime"])
def test_completes_to_klein_matches_full_permutations(realization):
    """On every triple of pairwise orthogonal roots of E7 that contains the
    highest root, _completes_to_klein agrees with trying every orthogonal
    fourth root in the full-permutation test."""
    R = rs.build("E7", realization=realization)
    ch = R.canonical_chamber()
    top = max(ch.positive_set, key=ch.q_degree)
    pm, n = R.pairing_matrix, len(R)
    others = [a for a in range(n) if pm[top][a] == 0 and a != top]
    triples = [[top, a, b] for a, b in itertools.combinations(others, 2) if pm[a][b] == 0]
    full = functools.lru_cache(maxsize=None)(lambda q: _klein_full_perms(R, sorted(q)))
    got = [iv._completes_to_klein(R, t) for t in triples]
    assert len(triples) == 780 and {True, False} <= set(got)
    assert got == [any(full(frozenset(t + [g])) for g in range(n)
                       if g not in t and all(pm[g][s] == 0 for s in t)) for t in triples]


def test_klein_census_e8():
    E8, B = _mprime_e8()
    expected = {(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8), (1, 3, 5, 7),
                (1, 3, 6, 8), (1, 4, 6, 7), (1, 4, 5, 8), (2, 3, 6, 7),
                (2, 3, 5, 8), (2, 4, 5, 7), (2, 4, 6, 8), (3, 4, 5, 6),
                (3, 4, 7, 8), (5, 6, 7, 8)}
    got = {q for q in itertools.combinations(range(1, 9), 4)
           if wg.klein_in_weyl(E8, [B[i] for i in q])}
    assert got == expected
    for q in itertools.combinations(range(1, 9), 4):
        comp = tuple(sorted(set(range(1, 9)) - set(q)))
        assert (q in got) == (comp in got)


def test_perm_mul_composes_on_every_length():
    rng = random.Random(2)
    for n in range(6):
        for _ in range(5):
            p, q = list(range(n)), list(range(n))
            rng.shuffle(p)
            rng.shuffle(q)
            got = wg.perm_mul(tuple(p), tuple(q))
            assert type(got) is tuple and got == tuple(p[x] for x in q)


def test_conjugator_small():
    B2 = rs.build("B", 2)
    W = wg.weyl_group(B2)
    s_short = B2.reflection_perm(B2.root_index((1, 0)))
    s_short2 = B2.reflection_perm(B2.root_index((0, 1)))
    s_long = B2.reflection_perm(B2.root_index((1, 1)))
    g = W.conjugator(s_short, s_short2)
    assert g is not None and wg.perm_mul(g, wg.perm_mul(s_short, wg.perm_inv(g))) == s_short2
    assert W.conjugator(s_short, s_long) is None


def _conjugator_by_classes(G, theta, theta2, pairs=()):
    """The reference conjugacy search: PermGroup.conjugator pruned only by
    the fixed/negated/complex class of each base image and by the base
    points that conditions map onto base points (no pairing test)."""
    conds = [(tuple(theta), tuple(theta2))] + [(tuple(a), tuple(b)) for a, b in pairs]
    n, neg = G.n, G.system.negation_map

    def point_class(t, i):
        return 0 if t[i] == i else 1 if t[i] == neg[i] else 2

    classes = []
    for t1, t2 in conds:
        cls1 = [point_class(t1, i) for i in range(n)]
        cls2 = [point_class(t2, i) for i in range(n)]
        if sorted(cls1) != sorted(cls2):
            return None
        classes.append((cls1, cls2))
    levels = G.chain().levels
    base = [lev.point for lev in levels]
    base_pos = {b: j for j, b in enumerate(base)}

    def rec(li, g):
        if li == len(levels):
            ok = all(t2[g[i]] == g[t1[i]] for t1, t2 in conds for i in range(n))
            return g if ok else None
        b = levels[li].point
        for c in sorted(levels[li].orbit):
            if any(cls2[g[c]] != cls1[b] for cls1, cls2 in classes):
                continue
            g2 = wg.perm_mul(g, levels[li].orbit[c])
            if all(t2[g2[bj]] == g2[t1[bj]] for t1, t2 in conds for bj in base[: li + 1]
                   if base_pos.get(t1[bj], len(levels)) <= li):
                out = rec(li + 1, g2)
                if out is not None:
                    return out
        return None

    return rec(0, wg.identity_perm(n))


@pytest.mark.parametrize("fam,rank", [("B", 3), ("C", 4), ("D", 4), ("G2", None),
                                      ("F4", None), ("E6", None)])
def test_conjugator_pairing_test_keeps_the_first_found(fam, rank):
    """The pairing test only cuts branches that hold no solution, so the
    search returns the element the class-only search returns, or None
    with it, also under an extra commuting condition."""
    R = rs.build(fam, rank)
    W = wg.weyl_group(R)
    rng = random.Random("conjugator " + R.spec.label)
    rows = [iv.identity_involution(R)] + [t for _, t in iv.table2_representatives(R)]
    refl = [R.reflection_perm(b) for b in R.canonical_basis]

    def word():
        g = wg.identity_perm(len(R))
        for _ in range(rng.randint(0, 8)):
            g = wg.perm_mul(rng.choice(refl), g)
        return g

    def conj(g, t):
        return wg.perm_mul(wg.perm_mul(g, t), wg.perm_inv(g))

    found = 0
    for k in range(12):
        a = rng.choice(rows).perm
        b = a if k % 2 else rng.choice(rows).perm
        g, s = word(), rng.choice(rows).perm
        got = W.conjugator(a, conj(g, b))
        assert got == _conjugator_by_classes(W, a, conj(g, b))
        found += got is not None
        # with a second condition, solved by g itself when a = b
        pairs = [(s, conj(g if k % 3 else word(), s))]
        got = W.conjugator(a, conj(g, b), pairs=pairs)
        assert got == _conjugator_by_classes(W, a, conj(g, b), pairs)
        found += got is not None
    assert 8 <= found < 24


def test_union_group():
    spec = rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 1),
                                      rs.RootSystemSpec("A", 1)))
    U = rs.build(spec)
    assert wg.weyl_group(U).order == 4
    assert wg.full_aut_group(U).order == 8  # swap included


# -- membership by descent ----------------------------------------------------------

UP_TO_RANK_8 = ([rs.RootSystemSpec("A", r) for r in range(1, 9)]
                + [rs.RootSystemSpec("B", r) for r in range(2, 9)]
                + [rs.RootSystemSpec("C", r) for r in range(3, 9)]
                + [rs.RootSystemSpec("D", r) for r in range(4, 9)]
                + [rs.RootSystemSpec(f) for f in ("G2", "F4", "E6", "E7", "E8")]
                + [rs.RootSystemSpec(f, realization="prime") for f in ("E6", "E7")])
A2_A2 = rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 2), rs.RootSystemSpec("A", 2)))


@pytest.mark.parametrize("spec", UP_TO_RANK_8 + [A2_A2], ids=lambda s: s.label)
def test_in_weyl_matches_chain_on_random_words(spec):
    """in_weyl against the stabilizer-chain sift of W, on seeded words in
    the generators of the full automorphism group (reflections, diagram
    symmetries and, for A2+A2, the factor swap); where the diagram has
    symmetries both cosets occur."""
    R = rs.build(spec)
    gens, W = wg.full_aut_group(R).generators, wg.weyl_group(R)
    rng = random.Random("in_weyl " + spec.label)
    seen = set()
    for _ in range(16):
        g = wg.identity_perm(len(R))
        for _ in range(rng.randrange(0, 3 * R.rank)):
            g = wg.perm_mul(rng.choice(gens), g)
        got = rs.in_weyl(R, g)
        assert got == W.contains(g)
        seen.add(got)
    outer = R.factors is not None or len(R.diagram_symmetries) > 1
    assert seen == ({True, False} if outer else {True})


def test_in_weyl_rejects_maps_that_break_the_cartan_matrix():
    B2 = rs.build("B", 2)
    long_, short = B2.canonical_basis
    swap = list(range(len(B2)))
    swap[long_], swap[short] = short, long_
    with pytest.raises(ValueError, match="^B2: the permutation does not keep the Cartan matrix$"):
        rs.in_weyl(B2, swap)


def test_in_weyl_on_d4_triality_and_outer_generators():
    """D4 has Gamma = S3: each non-identity diagram symmetry, and its product
    with any reflection, lies outside W; -1 lies in W."""
    D4 = rs.build("D", 4)
    W = wg.weyl_group(D4)
    syms = wg.diagram_automorphisms(D4)
    assert len(syms) == 6 and rs.in_weyl(D4, syms[0])
    for g in syms[1:]:
        assert not rs.in_weyl(D4, g) and not W.contains(g)
        for b in D4.canonical_basis:
            h = wg.perm_mul(D4.reflection_perm(b), g)
            assert not rs.in_weyl(D4, h) and not W.contains(h)
    assert rs.in_weyl(D4, D4.negation_map)


@pytest.mark.parametrize("spec", [s for s in UP_TO_RANK_8 if s.label != "E7'"],
                         ids=lambda s: s.label)
def test_in_weyl_of_catalog_rows(spec):
    """Every catalog row (E7' has no catalog), by descent and by the chain."""
    R = rs.build(spec)
    W = wg.weyl_group(R)
    for label, theta in iv.table2_representatives(R):
        assert theta.in_weyl == rs.in_weyl(R, theta.perm) == W.contains(theta.perm), label


# -- the chain against brute force -------------------------------------------------

BRUTE_SPECS = [rs.RootSystemSpec("A", 3), rs.RootSystemSpec("B", 3), rs.RootSystemSpec("C", 3),
               rs.RootSystemSpec("G2"), A2_A2]


def _brute_weyl(R):
    from test_oracle import brute_full_group
    return [g for g in brute_full_group(R) if rs.in_weyl(R, g)]


@pytest.mark.parametrize("spec", BRUTE_SPECS, ids=lambda s: s.label)
def test_chain_levels_are_brute_stabilizer_orbits(spec):
    """Each level's orbit is the orbit of its point under the brute-force
    pointwise stabilizer of the earlier points, and each transversal element
    lies in that stabilizer and takes the point to its orbit entry; for the
    default base and for seeded base prefixes."""
    R = rs.build(spec)
    W, weyl = wg.weyl_group(R), _brute_weyl(R)
    rng = random.Random("chain " + spec.label)
    prefixes = [()] + [tuple(rng.sample(range(len(R)), rng.randint(1, 3))) for _ in range(4)]
    for prefix in prefixes:
        levels = W.chain(prefix).levels
        base = [lev.point for lev in levels]
        assert base[:len(set(prefix))] == list(dict.fromkeys(prefix))
        stab = weyl
        for lev in levels:
            assert set(lev.orbit) == {g[lev.point] for g in stab}, (prefix, lev.point)
            for q, t in lev.orbit.items():
                assert t in stab and t[lev.point] == q
            stab = [g for g in stab if g[lev.point] == lev.point]
        assert stab == [wg.identity_perm(len(R))]


D4 = rs.RootSystemSpec("D", 4)


@pytest.mark.parametrize("spec", [D4, A2_A2], ids=lambda s: s.label)
def test_full_group_searches_match_brute_force(spec):
    """Conjugators and pair transporters of the full group, a loop of
    W-searches over the diagram symmetries and factor swaps, agree with the
    brute-force group; some answers lie outside W."""
    from test_oracle import brute_full_group
    R = rs.build(spec)
    A, brute = wg.full_aut_group(R), brute_full_group(R)
    assert A.order == len(brute) == {"D4": 192 * 6, "A2+A2": 36 * 8}[spec.label]
    n, rng = len(R), random.Random("full group " + spec.label)
    ident = wg.identity_perm(n)
    invs = sorted({g for g in brute if g != ident and wg.perm_mul(g, g) == ident})

    def conj(g, t):
        return wg.perm_mul(wg.perm_mul(g, t), wg.perm_inv(g))

    outside = found = 0
    for k in range(16):
        t1 = rng.choice(invs)
        t2 = conj(rng.choice(brute), t1) if k % 2 else rng.choice(invs)
        got = A.conjugator(t1, t2)
        assert (got is not None) == any(conj(g, t1) == t2 for g in brute)
        if got is not None:
            assert got in brute and conj(got, t1) == t2
            found += 1
            outside += not rs.in_weyl(R, got)
    for k in range(16):
        g = rng.choice(brute)
        x1, x2 = rng.sample(range(n), 2), rng.sample(range(n), 1)
        if k % 2:
            y1, y2 = [g[x] for x in x1], [g[x] for x in x2]
        else:
            y1, y2 = rng.sample(range(n), 2), rng.sample(range(n), 1)
        got = A.transporter_pair((x1, x2), (y1, y2))
        assert (got is not None) == any({h[x] for x in x1} == set(y1) and h[x2[0]] == y2[0]
                                        for h in brute)
        if got is not None:
            assert got in brute and {got[x] for x in x1} == set(y1) and got[x2[0]] == y2[0]
            outside += not rs.in_weyl(R, got)
    assert found >= 8 and outside >= 1


def test_group_generators_are_reflections_and_chamber_symmetries():
    """A generator list must hold every simple reflection, and its other
    members must keep the positive roots: a proper subset of the simple
    reflections does not silently stand for W."""
    R = rs.build("A", 3)
    refl = [R.reflection_perm(b) for b in R.canonical_basis]
    with pytest.raises(ValueError, match="^A3: a group is generated by"):
        wg.PermGroup(R, refl[:2])
    with pytest.raises(ValueError, match="^A3: a group is generated by"):
        wg.PermGroup(R, refl + [R.negation_map])
    G = wg.PermGroup(R, refl + wg.diagram_automorphisms(R))
    assert G.order == wg.full_aut_group(R).order == 48
