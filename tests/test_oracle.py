"""Brute-force cross-checks on small systems.

The full automorphism group is enumerated from scratch (all gram-matrix
preserving bijections of a simple basis onto root tuples), then involution
class counts and transporter answers are replayed against it."""

import random

import pytest

from cartanclass import _linalg as la
from cartanclass import involution as iv, rootsys as rs, weylgroup as wg
import reference_classes as rc
import reference_linalg as rl

SMALL = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2)]


def brute_full_group(system: rs.RootSystem) -> list[tuple[int, ...]]:
    """Every orthogonal map preserving the root set, found by matching the
    gram matrix of the canonical basis against all root tuples."""
    basis = list(system.canonical_basis)
    k = len(basis)
    n = len(system.roots)
    out = []
    gram = [[la.vdot(system.roots[a], system.roots[b]) for b in basis] for a in basis]

    def rec(imgs):
        pos = len(imgs)
        if pos == k:
            m = rl.map_from_images([system.roots[b] for b in basis],
                                   [system.roots[i] for i in imgs])
            perm = system.perm_of_matrix(m)
            if perm is not None:
                out.append(perm)
            return
        for cand in range(n):
            if any(la.vdot(system.roots[cand], system.roots[imgs[j]]) != gram[pos][j]
                   for j in range(pos)):
                continue
            if system.norm2(cand) != system.norm2(basis[pos]):
                continue
            rec(imgs + [cand])

    rec([])
    return sorted(set(out))


@pytest.mark.parametrize("fam,rank", SMALL)
def test_brute_group_orders(fam, rank):
    R = rs.build(fam, rank)
    brute = brute_full_group(R)
    A = wg.full_aut_group(R)
    W = wg.weyl_group(R)
    assert len(brute) == A.order
    members = sum(1 for g in brute if W.contains(g))
    assert members == W.order


@pytest.mark.parametrize("fam,rank", SMALL)
def test_in_weyl_matches_brute_group(fam, rank):
    """in_weyl against W closed by brute force from the simple reflections,
    on every element of the brute-force full group."""
    R = rs.build(fam, rank)
    weyl = {wg.identity_perm(len(R))}
    frontier = list(weyl)
    while frontier:
        frontier = [g2 for g in frontier for b in R.canonical_basis
                    for g2 in [wg.perm_mul(R.reflection_perm(b), g)] if g2 not in weyl]
        weyl.update(frontier)
    brute = brute_full_group(R)
    assert [rs.in_weyl(R, g) for g in brute] == [g in weyl for g in brute]
    assert (fam == "A" and rank > 1) == (len(weyl) < len(brute))


@pytest.mark.parametrize("fam,rank", SMALL)
def test_brute_involution_class_counts(fam, rank):
    R = rs.build(fam, rank)
    brute = brute_full_group(R)
    W = wg.weyl_group(R)
    n = len(R.roots)
    ident = wg.identity_perm(n)
    invs = [g for g in brute if g != ident and wg.perm_mul(g, g) == ident]
    # partition into conjugacy classes under the Weyl group
    elements = list(rc.iter_elements(W))
    classes: list[set] = []
    for t in invs:
        orbit = {wg.perm_mul(g, wg.perm_mul(t, wg.perm_inv(g))) for g in elements}
        if not any(t in c for c in classes):
            classes.append(orbit)
    rows = iv.table2_representatives(R)
    assert len(classes) == len(rows)
    # each catalog row lands in exactly one brute class
    hit = set()
    for lab, rep in rows:
        match = [k for k, c in enumerate(classes) if rep.perm in c]
        assert len(match) == 1, lab
        hit.add(match[0])
    assert hit == set(range(len(classes)))


@pytest.mark.parametrize("fam,rank", SMALL)
def test_brute_transporters(fam, rank):
    R = rs.build(fam, rank)
    W = wg.weyl_group(R)
    elements = list(rc.iter_elements(W))
    rng = random.Random(hash((fam, rank)) & 0xFFFF)
    n = len(R.roots)
    for _ in range(20):
        k = rng.randint(1, min(3, n))
        X = tuple(sorted(rng.sample(range(n), k)))
        Y = tuple(sorted(rng.sample(range(n), k)))
        got = W.transporter_set(X, Y)
        brute = any({g[x] for x in X} == set(Y) for g in elements)
        assert (got is not None) == brute
    # pair transporters as well
    for _ in range(10):
        k1 = rng.randint(1, 2)
        k2 = rng.randint(1, 2)
        x1 = tuple(rng.sample(range(n), k1))
        x2 = tuple(i for i in rng.sample(range(n), k2) if i not in x1)
        y1 = tuple(rng.sample(range(n), k1))
        y2 = tuple(i for i in rng.sample(range(n), len(x2)) if i not in y1)
        got = W.transporter_pair((x1, x2), (y1, y2))
        brute = any({g[x] for x in x1} == set(y1) and {g[x] for x in x2} == set(y2)
                    for g in elements)
        assert (got is not None) == brute


def test_brute_b2_negative_pair_example():
    B2 = rs.build("B", 2)
    W = wg.weyl_group(B2)
    shorts = frozenset(i for i in range(len(B2)) if B2.norm2(i) == 1)
    longs = frozenset(i for i in range(len(B2)) if B2.norm2(i) == 2)
    assert W.transporter_pair((tuple(shorts), tuple(longs)), (longs, shorts)) is None
    brute = any({g[x] for x in shorts} == set(longs) for g in rc.iter_elements(W))
    assert not brute


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G2", 2), ("D", 4)])
def test_pair_transporter_with_a_shared_point(fam, rank):
    """Pair transporters whose blocks share a point, against brute force
    (W, and the full group on D4).  The walk commits the shared point
    against its first block only; in the cases built to break just the
    second block there, the first block alone can be met."""
    R = rs.build(fam, rank)
    G = wg.full_aut_group(R) if fam == "D" else wg.weyl_group(R)
    elements = brute_full_group(R) if fam == "D" else list(rc.iter_elements(G))
    rng = random.Random("shared %s%d" % (fam, rank))
    n = len(R)
    second_only = 0
    for k in range(30):
        g = rng.choice(elements)
        x1 = rng.sample(range(n), rng.randint(1, 3))
        p = rng.choice(x1)
        x2 = [p] + [i for i in rng.sample(range(n), rng.randint(0, 2)) if i not in x1]
        y1, y2 = [g[x] for x in x1], [g[x] for x in x2]
        if k % 3 == 1:  # move the shared point's image in the second block only
            y2[0] = rng.choice([i for i in range(n) if i not in y2])
        elif k % 3 == 2:
            y1, y2 = rng.sample(range(n), len(x1)), rng.sample(range(n), len(x2))
        got = G.transporter_pair((x1, x2), (y1, y2))
        brute = [h for h in elements
                 if {h[x] for x in x1} == set(y1) and {h[x] for x in x2} == set(y2)]
        assert (got is not None) == bool(brute), (x1, x2, y1, y2)
        assert got is None or got in brute
        second_only += not brute and G.transporter_set(x1, y1) is not None
    assert second_only >= 4
