"""Chamber coordinates, root maps from simple images and the Klein test
against their rational definitions.

The program reads these off integer keys: coordinates by walking upward
from the simple roots, a root map by extending the images of the simple
roots linearly, a product of reflections by reflecting the scaled simple
roots in integers, and the Klein test by mapping only the simple roots.
The references below are the rational computations those routines
replace: one exact solve per root, an ambient matrix pushed through every
root, and Fraction reflections of the simple roots.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartanclass import _linalg as la
from cartanclass import diagram as dg
from cartanclass import involution as iv
from cartanclass import rootsys as rs
from cartanclass import weylgroup as wg
from test_rootsys import coweight_sum, fundamental_coweights, reflect_vec, witness
import reference_linalg as rl

FAMILIES = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
            + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
            + [("E6", None), ("E7", None), ("E8", None), ("F4", None), ("G2", None)])
SPECS = ([rs.RootSystemSpec(f, r) for f, r in FAMILIES]
         + [rs.RootSystemSpec(f, realization="prime") for f in ("E6", "E7")])
CATALOG = [rs.RootSystemSpec(f, r) for f, r in FAMILIES if f != "E8" and (r or 0) <= 7]
CATALOG.append(rs.RootSystemSpec("E6", realization="prime"))


def _positive_on(R, w):
    return frozenset(i for i, r in enumerate(R.roots) if la.vdot(r, w) > 0)


def _check_chamber(R, ch):
    """Coordinates by exact solves, positive roots by a witness: a vector
    pairing to 1 with every simple root."""
    cols = [R.roots[b] for b in ch.basis]
    for i, r in enumerate(R.roots):
        sol = la.solve(cols, r)
        assert sol is not None and all(c.denominator == 1 for c in sol)
        assert ch.coords(i) == tuple(int(c) for c in sol)
    assert ch.positive_set == _positive_on(R, witness(R, ch))
    assert R.simple_roots(ch.positive_set) == tuple(sorted(ch.basis))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_canonical_coords_match_solve(spec):
    R = rs.build(spec)
    _check_chamber(R, R.canonical_chamber())


@pytest.mark.parametrize("spec", CATALOG, ids=lambda s: s.label)
def test_s_chamber_coords_match_solve(spec):
    R = rs.build(spec)
    for _, theta in iv.table2_representatives(R):
        _check_chamber(R, dg.find_s_chamber(theta))


def _reference_s_chamber(theta):
    """The S-chamber by rational ambient geometry: h a combination of the
    coweights, theta h by the matrix of theta, Fraction dots with every
    root.  Returns the chamber and its witness t*H+ + H-."""
    R = theta.system
    movers = [i for i in range(len(R.roots)) if i not in theta.imaginary_set]
    if not movers:
        return R.canonical_chamber(), coweight_sum(R)
    coweights = fundamental_coweights(R)
    for scale in range(1, 65):
        h = la.zero_vec(R.dim)
        for j, w in enumerate(coweights):
            h = la.vadd(h, la.vscale(Fraction(scale) ** j, w))
        if not R.is_regular(h):
            continue
        th = la.mat_vec(theta.matrix, h)
        hplus = la.vscale(Fraction(1, 2), la.vadd(h, th))
        hminus = la.vscale(Fraction(1, 2), la.vsub(h, th))
        if any(la.vdot(R.roots[i], hplus) == 0 for i in movers):
            continue
        maxb = max(abs(la.vdot(r, hminus)) for r in R.roots)
        mina = min(abs(la.vdot(R.roots[i], hplus)) for i in movers)
        w = la.vadd(la.vscale(1 + (maxb / mina).__ceil__(), hplus), hminus)
        return R.chamber_from_witness(w), w
    raise AssertionError("no witness")


@pytest.mark.parametrize("spec", SPECS[:-1], ids=lambda s: s.label)
def test_s_chamber_matches_rational_witness(spec):
    """find_s_chamber on integer pairings gives the chamber of the rational
    construction: its positive roots are those positive on the rational
    witness (every catalog row up to rank 8; E7' has no catalog)."""
    R = rs.build(spec)
    for _, theta in iv.table2_representatives(R):
        want, w = _reference_s_chamber(theta)
        got = dg.find_s_chamber(theta)
        assert (got.basis, got.positive_set) == (want.basis, want.positive_set)
        assert got.positive_set == _positive_on(R, w)


def _matrix_perm(R, images):
    src = [R.roots[b] for b in R.canonical_basis]
    return R.perm_of_matrix(la.map_from_images(src, [R.roots[j] for j in images]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_simple_images_match_matrix(spec):
    R = rs.build(spec)
    cb = R.canonical_basis
    perms = []
    for p in R.diagram_symmetries:
        images = [cb[i] for i in p]
        perms.append(R.perm_from_simple_images(images))
        assert perms[-1] == _matrix_perm(R, images)
    assert wg.diagram_automorphisms(R) == perms
    # Weyl group elements are root maps too: a word in simple reflections
    rng = random.Random(spec.label)
    g = wg.identity_perm(len(R))
    for _ in range(6):
        g = wg.perm_mul(R.reflection_perm(rng.choice(cb)), g)
        assert R.perm_from_simple_images([g[b] for b in cb]) == g


def _padded_map(U, blocks):
    """The ambient matrix acting by the given (offset, matrix) blocks and as
    the identity elsewhere."""
    rows = [list(la.unit_vec(U.dim, i)) for i in range(U.dim)]
    for (lo, hi), m in blocks:
        for i in range(lo, hi):
            rows[i][lo:hi] = m[i - lo]
    return tuple(tuple(r) for r in rows)


@pytest.mark.parametrize("factors", [("A2", "A2"), ("B2", "B2", "G2")])
def test_union_generators_match_matrices(factors):
    specs = {"A2": rs.RootSystemSpec("A", 2), "B2": rs.RootSystemSpec("B", 2),
             "G2": rs.RootSystemSpec("G2")}
    U = rs.build(rs.RootSystemSpec(factors=tuple(specs[f] for f in factors)))
    want = [U.reflection_perm(b) for b in U.canonical_basis]
    for blk, sl in zip(U.factors, U.block_slices):
        for p in wg.diagram_automorphisms(blk):
            want.append(U.perm_of_matrix(_padded_map(U, [(sl, blk.matrix_of_perm(p))])))
    for bi in range(len(U.factors)):
        for bj in range(bi + 1, len(U.factors)):
            if U.factors[bi].spec == U.factors[bj].spec:
                (lo1, hi1), (lo2, hi2) = U.block_slices[bi], U.block_slices[bj]
                swap = list(range(U.dim))
                swap[lo1:hi1], swap[lo2:hi2] = swap[lo2:hi2], swap[lo1:hi1]
                want.append(U.perm_of_matrix(
                    tuple(la.unit_vec(U.dim, swap[i]) for i in range(U.dim))))
    assert None not in want
    assert wg.full_aut_group(U).generators == want


def _rational_perm_of_reflections(R, vectors):
    """RootSystem.perm_of_reflections as it was in Fraction arithmetic:
    reflect the simple root vectors, look the images up by vector."""
    images = [R.roots[b] for b in R.canonical_basis]
    for v in vectors:
        images = [reflect_vec(x, v) for x in images]
    index = {r: i for i, r in enumerate(R.roots)}
    idx = [index.get(x) for x in images]
    return None if None in idx else R.perm_from_simple_images(idx)


def _same_reflection_perm(R, vectors):
    want = _rational_perm_of_reflections(R, vectors)
    assert R.perm_of_reflections(vectors) == want, (R.spec.label, vectors)
    return want


@pytest.mark.parametrize("spec", CATALOG + [rs.RootSystemSpec("E8")], ids=lambda s: s.label)
def test_perm_of_reflections_matches_rational_on_catalog_rows(spec):
    R = rs.build(spec)
    for label, vecs in iv._table2_rows(R):
        assert _same_reflection_perm(R, vecs) is not None, label


def test_perm_of_reflections_matches_rational_on_e7_double_reflections(monkeypatch):
    # the Klein test asks only for the simple images; perm_of_reflections
    # extends the same images to every root
    E7 = rs.build("E7")
    asked = []
    integer = rs.RootSystem.simple_images_of_reflections

    def record(system, vectors):
        asked.append(list(vectors))
        return integer(system, vectors)

    monkeypatch.setattr(rs.RootSystem, "simple_images_of_reflections", record)
    iv.sos_classes_by_size(E7)
    monkeypatch.undo()
    assert len(asked) > 100
    got = [_same_reflection_perm(E7, vecs) for vecs in asked]
    assert None in got and any(g is not None for g in got)


@pytest.mark.parametrize("spec", SPECS + [rs.RootSystemSpec(factors=(
    rs.RootSystemSpec("A", 2), rs.RootSystemSpec("G2")))], ids=lambda s: s.label)
def test_perm_of_reflections_matches_rational_on_random_vectors(spec):
    """Random rational vectors, alone and in pairs: nearly all of them give
    a product that does not keep the root set, and the answer is None; then
    pairs whose product does (a root scaled, then a root)."""
    R = rs.build(spec)
    rng = random.Random("reflections " + spec.label)
    dropped = kept = 0
    for _ in range(12):
        vecs = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3))) for _ in range(R.dim))
                for _ in range(rng.randint(1, 2))]
        if all(any(v) for v in vecs):
            dropped += _same_reflection_perm(R, vecs) is None
    assert dropped >= 8
    for _ in range(6):
        a, b = rng.randrange(len(R)), rng.randrange(len(R))
        vecs = [la.vscale(Fraction(rng.randint(1, 5), rng.randint(1, 5)), R.roots[a]), R.roots[b]]
        kept += _same_reflection_perm(R, vecs) is not None
    assert kept == 6


@pytest.mark.parametrize("spec", [rs.RootSystemSpec("A", 2), rs.RootSystemSpec("E8")],
                         ids=lambda s: s.label)
def test_perm_of_reflections_rejects_zero_and_short_vectors(spec):
    R = rs.build(spec)
    zero, root = la.zero_vec(R.dim), R.roots[0]
    for fn in (R.perm_of_reflections, lambda v: _rational_perm_of_reflections(R, v)):
        with pytest.raises(ValueError):
            fn([root[:-1]])
    for vecs in ([zero], [root, zero], [zero, root]):
        for fn in (R.perm_of_reflections, lambda v: _rational_perm_of_reflections(R, v)):
            with pytest.raises(ValueError, match="zero vector"):
                fn(vecs)


def _klein_by_matrices(R, quad):
    W = wg.weyl_group(R)
    vs = [R.roots[i] for i in quad]
    for (i, j), (k, m) in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        m1 = rl.reflection_matrix(R.dim, la.vsub(vs[i], vs[j]))
        m2 = rl.reflection_matrix(R.dim, la.vsub(vs[k], vs[m]))
        perm = R.perm_of_matrix(rl.mat_mul(m1, m2))
        if perm is None or not W.contains(perm):
            return False
    return True


def test_klein_matches_matrices_on_e7_sos_quads(monkeypatch):
    E7 = rs.build("E7")
    seen = {}
    klein = iv.klein_in_weyl

    def record(system, quad):
        seen[tuple(quad)] = got = klein(system, quad)
        return got

    monkeypatch.setattr(iv, "klein_in_weyl", record)
    iv.sos_classes_by_size(E7)
    assert len(seen) > 50 and {True, False} <= set(seen.values())
    for quad, got in seen.items():
        assert got == _klein_by_matrices(E7, quad), quad


def test_klein_matches_matrices_on_e8_sample():
    E8 = rs.build("E8")
    rng = random.Random(8)
    quads = []
    while len(quads) < 40:
        quad = [rng.randrange(len(E8))]
        while len(quad) < 4:
            c = rng.randrange(len(E8))
            if all(E8.pairing(c, q) == 0 and c != q for q in quad):
                quad.append(c)
        quads.append(quad)
    got = [wg.klein_in_weyl(E8, q) for q in quads]
    assert {True, False} <= set(got)
    assert got == [_klein_by_matrices(E8, q) for q in quads]


@pytest.mark.parametrize("spec", [rs.RootSystemSpec("B", 4), rs.RootSystemSpec("D", 5),
                                  rs.RootSystemSpec("F4"), rs.RootSystemSpec("E6")],
                         ids=lambda s: s.label)
@settings(max_examples=4, deadline=None)
@given(word=st.lists(st.integers(0, 10_000), max_size=12))
def test_weyl_conjugates_keep_class_data(spec, word):
    """g theta g^-1, for a word g in reflections, keeps the class invariants
    and the catalog label of every catalog row, and on the chamber g(C) it
    has the S-diagram that theta has on its S-chamber C.

    The diagram find_s_chamber picks for the conjugate itself may differ:
    S-diagrams of one class are not unique (B4 r1,0 conjugated by a single
    reflection is drawn o---o---*==>o against *---o---o==>o)."""
    R = rs.build(spec)
    g = wg.identity_perm(len(R))
    for w in word:
        g = wg.perm_mul(R.reflection_perm(w % len(R)), g)
    for lab, theta in iv.table2_representatives(R):
        conj = iv.Involution(R, wg.perm_mul(g, wg.perm_mul(theta.perm, wg.perm_inv(g))))
        assert conj.invariants() == theta.invariants()
        assert iv.class_label(conj) == lab
        ch = dg.find_s_chamber(theta)
        moved = R.chamber_from_simple_basis([R.roots[g[b]] for b in ch.basis])
        assert dg.s_diagram(conj, moved).render("json") == \
            dg.s_diagram(theta, ch).render("json")
