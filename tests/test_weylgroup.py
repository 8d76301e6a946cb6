"""Permutation group engine: orders, membership, transporters, Klein sets."""

import itertools
import random

import pytest

from cartanclass import involution as iv, rootsys as rs, weylgroup as wg
from test_rootsys import zeta

WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 3): 48, ("C", 4): 384,
    ("D", 4): 192, ("D", 5): 1920,
    ("G2", 2): 12, ("F4", 4): 1152,
    ("E6", 6): 51840, ("E7", 7): 2903040, ("E8", 8): 696729600,
}


@pytest.mark.parametrize("fam,rank", sorted(WEYL_ORDERS))
def test_weyl_orders(fam, rank):
    R = rs.build(fam, rank)
    assert wg.weyl_group(R).order == WEYL_ORDERS[(fam, rank)]


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
        elements = list(W.iter_elements())
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
        got = wg.in_weyl(R, g)
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
        wg.in_weyl(B2, swap)


def test_in_weyl_on_d4_triality_and_outer_generators():
    """D4 has Gamma = S3: each non-identity diagram symmetry, and its product
    with any reflection, lies outside W; -1 lies in W."""
    D4 = rs.build("D", 4)
    W = wg.weyl_group(D4)
    syms = wg.diagram_automorphisms(D4)
    assert len(syms) == 6 and wg.in_weyl(D4, syms[0])
    for g in syms[1:]:
        assert not wg.in_weyl(D4, g) and not W.contains(g)
        for b in D4.canonical_basis:
            h = wg.perm_mul(D4.reflection_perm(b), g)
            assert not wg.in_weyl(D4, h) and not W.contains(h)
    assert wg.in_weyl(D4, D4.negation_map)


@pytest.mark.parametrize("spec", [s for s in UP_TO_RANK_8 if s.label != "E7'"],
                         ids=lambda s: s.label)
def test_in_weyl_of_catalog_rows(spec):
    """Every catalog row (E7' has no catalog), by descent and by the chain."""
    R = rs.build(spec)
    W = wg.weyl_group(R)
    for label, theta in iv.table2_representatives(R):
        assert theta.in_weyl == wg.in_weyl(R, theta.perm) == W.contains(theta.perm), label
