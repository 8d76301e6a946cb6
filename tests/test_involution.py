"""Involutions: constructors, decomposition, classification, the catalog."""

import random
from fractions import Fraction

import pytest

from cartanclass import involution as iv, rootsys as rs, weylgroup as wg
from cartanclass import _linalg as la
import reference_linalg as rl

F = Fraction


def test_identity_and_antipodal():
    B2 = rs.build("B", 2)
    i = iv.identity_involution(B2)
    assert i.real_set == frozenset(range(len(B2)))
    a = iv.antipodal_involution(B2)
    assert a.imaginary_set == frozenset(range(len(B2)))
    assert a.length == 2
    assert a.in_weyl


def test_involution_from_images_b4_example():
    B4 = rs.build("B", 4)
    ch = B4.canonical_chamber()
    basis = [B4.roots[b] for b in ch.basis]
    theta = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    images = [theta.apply_vec(v) for v in basis]
    rebuilt = iv.involution_from_images(B4, images)
    assert rebuilt.perm == theta.perm
    # the computed images on the canonical basis, in basis coordinates
    got = [ch.coords(B4.root_index(v)) for v in images]
    assert got == [(-1, -1, -1, -2), (0, 0, 1, 2), (0, -1, -2, -2), (0, 1, 1, 1)]


def test_involution_from_images_rejects():
    A2 = rs.build("A", 2)
    with pytest.raises(iv.InvolutionError):
        # a rotation: images form a 3-cycle on the basis, not an involution
        iv.involution_from_images(A2, [(0, 1, -1), (-1, 0, 1)])
    with pytest.raises(iv.InvolutionError):
        iv.involution_from_images(A2, [(2, -2, 0), (0, 1, -1)])


_IMAGE_SPECS = [rs.RootSystemSpec(f, r) for f, r in
                [("A", 3), ("B", 4), ("C", 4), ("D", 5), ("G2", None), ("F4", None),
                 ("E6", None), ("E7", None), ("E8", None)]] + \
    [rs.RootSystemSpec("E6", realization="prime")]


@pytest.mark.parametrize("spec", _IMAGE_SPECS, ids=lambda s: s.label)
def test_images_of_roots_take_the_integer_path(spec, monkeypatch):
    """Images that are roots give the permutation of the rational path
    (map_from_images, then perm_of_matrix), on every catalog row and on
    seeded W-conjugates of it, without a rational solve."""
    R = rs.build(spec)
    basis = R.canonical_basis
    rng = random.Random(3)
    perms = []
    for _, theta in iv.table2_representatives(R):
        g = wg.identity_perm(len(R))
        for _ in range(8):
            g = wg.perm_mul(g, R.reflection_perm(rng.choice(basis)))
        perms += [theta.perm, wg.perm_mul(wg.perm_mul(g, theta.perm), wg.perm_inv(g))]
    cases = []
    for perm in perms:
        images = [R.roots[perm[b]] for b in basis]
        want = R.perm_of_matrix(la.map_from_images([R.roots[b] for b in basis], images))
        assert want == perm
        cases.append((images, want))
    monkeypatch.setattr(iv.la, "map_from_images", None)  # no rational solve below
    for images, want in cases:
        assert iv.involution_from_images(R, images).perm == want


def _rational_from_images(R, imgs):
    """The rational path involution_from_images used to take: solve for the
    ambient map, test that it is orthogonal, read the permutation it induces
    on the roots.  The permutation, or the message of the first check that
    fails."""
    try:
        m = la.map_from_images([R.roots[b] for b in R.canonical_basis], imgs)
    except ValueError as exc:
        return str(exc)
    if not rl.is_orthogonal(m):
        return "map is not an isometry"
    perm = R.perm_of_matrix(m)
    if perm is None:
        return "map does not preserve the root set"
    try:
        return iv.Involution(R, perm).perm
    except iv.InvolutionError as exc:
        return str(exc)


def _image_inputs(R, rng, count):
    """Images of the simple roots, count of each kind: random roots, random
    words in the automorphism generators, W-conjugates of catalog rows,
    automorphism images with one image scaled or perturbed, and reflections
    across random vectors of the root span."""
    basis, n = R.canonical_basis, len(R)
    gens = wg.full_aut_group(R).generators + [R.negation_map]
    refls = [R.reflection_perm(b) for b in basis]
    rows = [theta.perm for _, theta in iv.table2_representatives(R)]

    def word(pool, length):
        g = wg.identity_perm(n)
        for _ in range(length):
            g = wg.perm_mul(rng.choice(pool), g)
        return g

    def images(perm):
        return [R.roots[perm[b]] for b in basis]

    out = []
    for _ in range(count):
        out.append([R.roots[rng.randrange(n)] for _ in basis])
        out.append(images(word(gens, rng.randint(1, 12))))
        g = word(refls, rng.randint(0, 8))
        out.append(images(wg.perm_mul(wg.perm_mul(g, rng.choice(rows)), wg.perm_inv(g))))
        imgs = images(word(gens, rng.randint(0, 6)))
        k, c = rng.randrange(len(basis)), rng.randrange(R.dim)
        if rng.random() < 0.5:
            imgs[k] = la.vscale(rng.choice([-1, 2, F(1, 2)]), imgs[k])
        else:
            imgs[k] = imgs[k][:c] + (imgs[k][c] + F(rng.choice([-1, 1]), rng.choice([1, 2, 3])),) \
                + imgs[k][c + 1:]
        out.append(imgs)
        v = la.zero_vec(R.dim)
        while not any(v):
            for b in basis:
                v = la.vadd(v, la.vscale(rng.randint(-2, 2), R.roots[b]))
        d = la.vdot(v, v)
        out.append([la.vsub(R.roots[b], la.vscale(2 * la.vdot(R.roots[b], v) / d, v))
                    for b in basis])
    return out


_FUZZ_SPECS = [rs.RootSystemSpec(f, r) for f, r in
               [("A", 3), ("B", 2), ("G2", None), ("C", 3), ("D", 4), ("F4", None),
                ("E6", None), ("E7", None)]] + [rs.RootSystemSpec("E6", realization="prime")]


@pytest.mark.parametrize("spec", _FUZZ_SPECS, ids=lambda s: s.label)
def test_images_agree_with_the_rational_path(spec):
    """involution_from_images gives the permutation, or the message, of the
    rational path on seeded inputs of every kind; each of the four outcomes
    (an involution, a map of higher order, a non-isometry, an isometry off
    the root set) occurs."""
    R = rs.build(spec)
    outcomes = set()
    for imgs in _image_inputs(R, random.Random(14), 10):
        want = _rational_from_images(R, imgs)
        try:
            got = iv.involution_from_images(R, imgs).perm
        except iv.InvolutionError as exc:
            got = str(exc)
        assert got == want, imgs
        outcomes.add(want if isinstance(want, str) else "involution")
    assert outcomes == {"involution", "permutation does not square to the identity",
                        "map is not an isometry", "map does not preserve the root set"}


def test_partition_orthogonality():
    # negated roots are orthogonal to fixed roots
    for fam, rank, refl in [("B", 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)]),
                            ("F4", 4, [(1, 0, 0, 0), (0, 1, -1, 0)])]:
        R = rs.build(fam, rank)
        th = iv.from_reflections(R, refl)
        for i in th.imaginary_set:
            for j in th.real_set:
                assert la.vdot(R.roots[i], R.roots[j]) == 0


def test_commutation_with_reflections():
    B2 = rs.build("B", 2)
    th = iv.from_reflections(B2, [(1, 0)])
    for b in range(len(B2)):
        s = B2.reflection_perm(b)
        commutes = wg.perm_mul(th.perm, s) == wg.perm_mul(s, th.perm)
        assert commutes == (b in th.real_set or b in th.imaginary_set)


def test_strongly_orthogonalize():
    B2 = rs.build("B", 2)
    got = iv.strongly_orthogonalize(B2, [B2.root_index((1, 0)), B2.root_index((0, 1))])
    assert {B2.roots[i] for i in got} == {(F(1), F(1)), (F(1), F(-1))}
    # already strongly orthogonal sets come back unchanged as sets
    D4 = rs.build("D", 4)
    s = [D4.root_index((1, -1, 0, 0)), D4.root_index((0, 0, 1, -1))]
    assert set(iv.strongly_orthogonalize(D4, s)) == set(s)
    F4 = rs.build("F4")
    quad = [F4.root_index(v) for v in [(1, 0, 0, 0), (0, 1, 0, 0),
                                       (0, 0, 1, 0), (0, 0, 0, 1)]]
    got = iv.strongly_orthogonalize(F4, quad)
    got_pm = {frozenset((F4.roots[i], rl.vneg(F4.roots[i]))) for i in got}
    want = [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)]
    want_pm = {frozenset((rl.vec(v), rl.vneg(rl.vec(v)))) for v in want}
    assert got_pm == want_pm
    assert rl.rank([F4.roots[i] for i in got]) == 4
    with pytest.raises(iv.InvolutionError):
        iv.strongly_orthogonalize(B2, [B2.root_index((1, 0)), B2.root_index((1, 1))])


def test_decompose():
    B2 = rs.build("B", 2)
    th = iv.antipodal_involution(B2)
    eps, b = iv.decompose(th)
    assert eps.is_special() and eps.perm == wg.identity_perm(len(B2))
    assert {B2.roots[i] for i in b} == {(F(1), F(1)), (F(1), F(-1))}
    # identity decomposes trivially
    eps2, b2 = iv.decompose(iv.identity_involution(B2))
    assert b2 == () and eps2.perm == wg.identity_perm(len(B2))
    # A2 antipodal: nontrivial special part
    A2 = rs.build("A", 2)
    a = iv.antipodal_involution(A2)
    eps3, b3 = iv.decompose(a)
    assert len(b3) == a.length == 1
    assert not eps3.is_special() is False  # eps3 special
    assert wg.perm_mul(eps3.perm, A2.reflection_perm(b3[0])) == a.perm


def test_decompose_lengths_match_clique():
    # the antipodal length is the size of a maximal orthogonal root set
    for fam, rank, length in [("F4", 4, 4), ("E6", 6, 4), ("B", 4, 4),
                              ("A", 3, 2), ("G2", 2, 2)]:
        R = rs.build(fam, rank)
        th = iv.antipodal_involution(R)
        eps, b = iv.decompose(th)
        assert len(b) == th.length == length
        R.require_strongly_orthogonal(b, AssertionError)
        assert eps.is_special()


def test_realforms_searches_each_involution_once(monkeypatch):
    """Involution.length and decompose share one clique search: realforms
    on E6 searches once for each of its six involutions, never twice on
    one pool."""
    from cartanclass import cli
    pools = []
    search = iv.max_orthogonal_subset

    def record(system, pool, *stop):
        pools.append(tuple(pool))
        return search(system, pool, *stop)

    monkeypatch.setattr(iv, "max_orthogonal_subset", record)
    assert cli.main(["realforms", "--type", "E6"]) == 0
    assert len(pools) == len(set(pools)) == 6


SPECIAL_COUNTS = [("A", 1, 1), ("A", 3, 2), ("A", 4, 2), ("B", 3, 1), ("C", 4, 1),
                  ("D", 4, 2), ("D", 5, 2), ("E6", 6, 2), ("E7", 7, 1),
                  ("E8", 8, 1), ("F4", 4, 1), ("G2", 2, 1)]


@pytest.mark.parametrize("fam,rank,count", SPECIAL_COUNTS)
def test_special_census(fam, rank, count):
    R = rs.build(fam, rank)
    got = iv.special_involutions(R)
    assert len(got) == count
    for eps in got:
        assert eps.is_special()


def test_special_table_entries():
    # the A-table map e_i -> -e_{l+2-i} acts on roots e_i - e_j accordingly
    A3 = rs.build("A", 3)
    eps = iv.special_involutions(A3)[1]
    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            src = A3.root_index(la.vsub(la.unit_vec(4, i - 1), la.unit_vec(4, j - 1)))
            dst = A3.root_index(la.vsub(la.unit_vec(4, 5 - j - 1), la.unit_vec(4, 5 - i - 1)))
            assert eps(src) == dst
    D5 = rs.build("D", 5)
    eps = iv.special_involutions(D5)[1]
    assert eps.apply_vec(la.unit_vec(5, 4)) == rl.vneg(la.unit_vec(5, 4))
    assert eps.apply_vec(la.unit_vec(5, 0)) == la.unit_vec(5, 0)


def _old_special_matrix(R):
    """The ambient matrix of the special involution as special_involutions
    used to write it: e_i -> -e_{n+1-i} on A, the sign change of the last
    coordinate on D, the hand-written flip on E6', and on E6 the linear
    extension of the diagram flip, solved for in rationals."""
    fam, n = R.spec.family, R.dim
    one, zero = F(1), F(0)
    if fam == "A":
        return tuple(tuple(-one if j == n - 1 - i else zero for j in range(n)) for i in range(n))
    if fam == "D":
        return tuple(tuple((one if (i == j and i < n - 1) else
                            (-one if (i == j == n - 1) else zero))
                           for j in range(n)) for i in range(n))
    if R.spec.realization == "prime":
        rows = []
        for i in range(8):
            row = [zero] * 8
            row[5 - i if i < 6 else 13 - i] = -one
            rows.append(tuple(row))
        return tuple(rows)
    cb = R.canonical_basis
    flip = next(p for p in R.diagram_symmetries
                if p != tuple(range(len(p))) and all(p[p[i]] == i for i in range(len(p))))
    return la.map_from_images([R.roots[b] for b in cb], [R.roots[cb[i]] for i in flip])


_SPECIAL_SPECS = [rs.RootSystemSpec("A", r) for r in range(2, 9)] + \
    [rs.RootSystemSpec("D", r) for r in range(4, 9)] + \
    [rs.RootSystemSpec("E6"), rs.RootSystemSpec("E6", realization="prime")]


@pytest.mark.parametrize("spec", _SPECIAL_SPECS, ids=lambda s: s.label)
def test_special_involutions_match_the_old_matrices(spec):
    R = rs.build(spec)
    ident, eps = iv.special_involutions(R)
    assert ident.perm == wg.identity_perm(len(R))
    m = _old_special_matrix(R)
    assert rl.is_orthogonal(m)
    assert eps.perm == R.perm_of_matrix(m)


def test_classify_sos_examples():
    F4 = rs.build("F4")
    s = [F4.root_index(v) for v in [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 0, 1)]]
    lab = iv.classify_sos(F4, s)
    assert lab.label == (2, 1)
    B4 = rs.build("B", 4)
    s = [B4.root_index(v) for v in [(1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)]]
    assert iv.classify_sos(B4, s).label == (1, 2)
    C4 = rs.build("C", 4)
    s = [C4.root_index(v) for v in [(1, -1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)]]
    assert iv.classify_sos(C4, s).label == (1, 2)
    D4 = rs.build("D", 4)
    s = [D4.root_index(v) for v in [(1, -1, 0, 0), (0, 0, 1, -1)]]
    assert iv.classify_sos(D4, s).label == (2, 0)
    s = [D4.root_index(v) for v in [(0, 0, 1, 1), (0, 0, 1, -1)]]
    assert iv.classify_sos(D4, s).label == (0, 1)


def test_classify_sos_refuses_a_repeated_root():
    """A repeated root is refused, not dropped: [0, 0, s] is no 2-set."""
    D4 = rs.build("D", 4)
    s = D4.root_index((-1, 1, 0, 0))
    assert D4.roots[0] == (-1, -1, 0, 0) and str(iv.classify_sos(D4, [0, s])) == "S_0,1(D)"
    with pytest.raises(iv.InvolutionError, match=r"^D4 root 0 \(-1, -1, 0, 0\) is repeated$"):
        iv.classify_sos(D4, [0, 0, s])


def test_classify_sos_errors_name_the_system_and_the_pair():
    D4 = rs.build("D", 4)
    a, b = D4.root_index((1, -1, 0, 0)), D4.root_index((0, 1, -1, 0))
    assert b < a  # the set is read in index order
    with pytest.raises(iv.InvolutionError, match=r"^set is not strongly orthogonal: D4 root %d "
                       r"\(0, 1, -1, 0\) and D4 root %d \(1, -1, 0, 0\)$" % (b, a)):
        iv.classify_sos(D4, [a, b])
    A2 = rs.build("A", 2)
    U = rs.build(rs.RootSystemSpec(factors=(A2.spec, A2.spec)))
    with pytest.raises(iv.InvolutionError,
                       match=r"^classification needs an irreducible system, not A2\+A2$"):
        iv.classify_sos(U, [0])


def test_pairing_rows_are_made_at_the_grain_of_their_callers(monkeypatch):
    """The dense algebra reads its n x rank pairings one at a time, and the
    strongly orthogonal sets of E7 read only the rows of the roots they
    test against, with key lookups in place of the sum table."""
    from cartanclass import chevalley as cv
    made = []
    missing = rs._PairingRows.__missing__

    def count(rows, i):
        made.append(i)
        return missing(rows, i)

    monkeypatch.setattr(rs._PairingRows, "__missing__", count)
    E6 = rs.RootSystem(rs.RootSystemSpec("E6"))  # not the cached build
    cv.dense_algebra(cv.structure_constants(E6))
    assert made == []
    E7 = rs.RootSystem(rs.RootSystemSpec("E7"))
    assert len(iv.sos_classes_by_size(E7)) == 9
    assert 0 < len(made) <= 40, len(made)
    assert "sum_table" not in vars(E7)


def test_classify_sos_invariant_under_weyl():
    import random
    rng = random.Random(11)
    for fam, rank in [("B", 4), ("C", 4), ("F4", 4)]:
        R = rs.build(fam, rank)
        W = wg.weyl_group(R)
        gens = W.generators
        reps = iv.sos_classes_by_size(R)
        for lab, (S, _) in reps.items():
            for _ in range(20):
                g = wg.identity_perm(len(R.roots))
                for _ in range(6):
                    g = wg.perm_mul(g, gens[rng.randrange(len(gens))])
                moved = [g[x] for x in S]
                assert iv.classify_sos(R, moved) == lab


MAX_SOS = [("A", 4, 1), ("A", 5, 1), ("B", 4, 2), ("B", 5, 1), ("B", 6, 2),
           ("C", 4, 2), ("C", 5, 2), ("C", 6, 3), ("D", 4, 1), ("D", 6, 1),
           ("E6", 6, 1), ("F4", 4, 2), ("G2", 2, 1)]


@pytest.mark.parametrize("fam,rank,count", MAX_SOS)
def test_max_sos_class_counts(fam, rank, count):
    R = rs.build(fam, rank)
    assert iv.max_sos_class_count(fam, rank) == count
    mx = iv.maximal_sos_classes(R)
    if fam == "C":
        got = sum(1 for lab, _ in mx if lab.label[0] >= 1)
    else:
        got = len(mx)
    assert got == count


def test_e8_sos_dichotomy():
    E8 = rs.build("E8")
    reps = iv.sos_classes_by_size(E8)
    by_size = {}
    for lab, (S, _) in reps.items():
        by_size.setdefault(len(S), []).append(lab)
    for k in range(1, 9):
        assert len(by_size[k]) == (2 if k == 4 else 1), k
    flags = sorted(lab.label[1] for lab in by_size[4])
    assert flags == [False, True]


def test_e7_sos_dichotomy():
    E7 = rs.build("E7", realization="prime")
    reps = iv.sos_classes_by_size(E7)
    by_size = {}
    for lab, (S, _) in reps.items():
        by_size.setdefault(len(S), []).append(lab)
    for k in range(1, 8):
        assert len(by_size[k]) == (2 if k in (3, 4) else 1), k


TABLE2_COUNTS = [("A", 2, 3), ("A", 3, 5), ("B", 2, 3), ("B", 3, 5), ("C", 3, 5),
                 ("D", 4, 8), ("F4", 4, 7), ("G2", 2, 3), ("E7", 7, 9), ("E8", 8, 9)]


@pytest.mark.parametrize("fam,rank,count", TABLE2_COUNTS)
def test_table2_instantiates(fam, rank, count):
    R = rs.build(fam, rank)
    rows = iv.table2_representatives(R)
    assert len(rows) == count
    for lab, rep in rows:
        assert wg.perm_mul(rep.perm, rep.perm) == wg.identity_perm(len(R.roots))


def test_table2_weyl_membership():
    A3 = rs.build("A", 3)
    rows = dict(iv.table2_representatives(A3))
    assert rows["w1"].in_weyl and rows["w2"].in_weyl
    assert not rows["e1"].in_weyl
    D5 = rs.build("D", 5)
    rows = dict(iv.table2_representatives(D5))
    assert rows["r1,2"].in_weyl       # even flip count
    assert not rows["r1,1"].in_weyl   # odd flip count
    E6p = rs.build("E6", realization="prime")
    for lab, rep in iv.table2_representatives(E6p):
        assert not rep.in_weyl
    E6 = rs.build("E6")
    for lab, rep in iv.table2_representatives(E6):
        assert rep.in_weyl


def test_table2_pairwise_inequivalent_small():
    for fam, rank in [("A", 3), ("B", 3), ("G2", 2), ("C", 3)]:
        R = rs.build(fam, rank)
        rows = iv.table2_representatives(R)
        for a in range(len(rows)):
            for b in range(a + 1, len(rows)):
                assert not iv.equivalent_involutions(rows[a][1], rows[b][1])


def test_example_233_classes():
    B4 = rs.build("B", 4)
    tp = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    tpp = iv.from_reflections(B4, [(1, 0, 0, -1), (0, 0, 1, 0)])
    tppp = iv.from_reflections(B4, [(1, 0, 1, 0), (0, 1, 0, -1)])
    assert iv.class_label(tp) == "r1,2"
    assert iv.class_label(tpp) == "r1,1"
    assert iv.class_label(tppp) == "r2,0"
    assert not iv.equivalent_involutions(tp, tpp)
    assert not iv.equivalent_involutions(tp, tppp)
    assert not iv.equivalent_involutions(tpp, tppp)


def test_closed_subsystems():
    # roots in the span of the fixed (negated) set belong to it
    B4 = rs.build("B", 4)
    th = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    for part in (th.real_set, th.imaginary_set):
        span = [B4.roots[i] for i in part]
        if not span:
            continue
        for i in range(len(B4)):
            if la.solve(span, B4.roots[i]) is not None:
                assert i in part


def test_complex_type_involution():
    spec = rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 2),
                                      rs.RootSystemSpec("A", 2)))
    U = rs.build(spec)
    swap = iv.complex_type_involution(U)
    assert swap.complex_set == frozenset(range(len(U)))
    assert wg.perm_mul(swap.perm, swap.perm) == wg.identity_perm(len(U))
    assert swap.length == 0
    # swap preserves the product positive system built from both factors
    ch = U.canonical_chamber()
    assert all(swap(i) in ch.positive_set for i in ch.positive_set)
    # mismatched factors are rejected
    bad = rs.build(rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 1),
                                              rs.RootSystemSpec("B", 2))))
    with pytest.raises(iv.InvolutionError,
                       match=r"^complex type needs two equal factors, not A1 and B2$"):
        iv.complex_type_involution(bad)


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 2), ("G2", None),
                                      ("D", 4), ("E6", None)])
def test_complex_type_involution_matches_the_old_swap(fam, rank):
    """The swap equals the ambient matrix (a', a'') -> (a'', a') that
    complex_type_involution used to write."""
    f = rs.RootSystemSpec(fam, rank)
    U = rs.build(rs.RootSystemSpec(factors=(f, f)))
    d, n = U.factors[0].dim, U.dim
    m = tuple(tuple(F(j == (i + d) % n) for j in range(n)) for i in range(n))
    assert rl.is_orthogonal(m)
    assert iv.complex_type_involution(U).perm == U.perm_of_matrix(m)


def test_involution_json():
    B2 = rs.build("B", 2)
    th = iv.antipodal_involution(B2)
    data = th.to_json()
    assert data["partition"] == {"real": 0, "imaginary": 8, "complex": 0}
    assert data["length"] == 2 and data["in_weyl"] is True


_BOUND_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 10)]
                + [rs.RootSystemSpec("B", r) for r in range(2, 10)]
                + [rs.RootSystemSpec("C", r) for r in range(3, 10)]
                + [rs.RootSystemSpec("D", r) for r in range(4, 10)]
                + [rs.RootSystemSpec(f) for f in ("E6", "E7", "E8", "F4", "G2")])


@pytest.mark.parametrize("spec", _BOUND_SPECS, ids=lambda s: s.label)
def test_orthogonal_bound_is_the_searched_size(spec):
    """The largest orthogonal set of the negated subsystem, summed over its
    components, is the size the search stopped only by the rank finds, on
    every catalog row, on -1 (outer on E6) and on a seeded W-conjugate of
    each; stopping there returns the same set."""
    R = rs.build(spec)
    rng = random.Random(1717)
    for lab, theta in iv.table2_representatives(R) + [("-1", iv.antipodal_involution(R))]:
        g = wg.identity_perm(len(R))
        for _ in range(12):
            g = wg.perm_mul(R.reflection_perm(rng.choice(R.canonical_basis)), g)
        conj = iv.Involution(R, wg.perm_mul(wg.perm_mul(g, theta.perm), wg.perm_inv(g)))
        for t in (theta, conj):
            bound = sum(iv._max_orthogonal_size(*c)
                        for c in iv.subsystem_type(R, t.imaginary_set))
            full = iv.max_orthogonal_subset(R, iv.positive_representatives(R, t.imaginary_set))
            assert len(full) == bound, (lab, t is conj)
            assert t.orthogonal_set == tuple(full), (lab, t is conj)
