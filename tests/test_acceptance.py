"""Acceptance suite: one test (and one printed verdict line) per criterion.

Every expected value is either transcribed from the source tables, derived
by an independent oracle inside the test, or both; comments flag the three
places where the printed source text is internally inconsistent and the
corrected value (forced by involutivity/linearity) is asserted instead.
"""

import functools
import itertools
import time

import pytest

from cartanclass import _linalg as la
from cartanclass import chevalley as cv
from cartanclass import diagram as dg
from cartanclass import involution as iv
from cartanclass import realform as rf
from cartanclass import rootsys as rs
from cartanclass import weylgroup as wg
from cartanclass.tables import compact_cartan_identities, dual_vector_table
from test_rootsys import zeta
import reference_classes as rc
import reference_linalg as rl

F = la.Fraction


def report(num, text):
    print("ACCEPTANCE PASS [%2d] %s" % (num, text), flush=True)


def _mul(perms):
    return functools.reduce(wg.perm_mul, perms)


# -- criterion 1: class counts of maximal strongly orthogonal systems ----------


def test_criterion_01_sos_class_counts():
    t0 = time.time()
    cases = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)] + \
        [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)] + \
        [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    for fam, rank in cases:
        R = rs.build(fam, rank)
        mx = iv.maximal_sos_classes(R)
        if fam == "C":
            # the source counts the classes containing a short root; the
            # all-long frame is one extra inclusion-maximal class
            got = sum(1 for lab, _ in mx if lab.label[0] >= 1)
        else:
            got = len(mx)
        assert got == iv.max_sos_class_count(fam, rank), (fam, rank, mx)
    took = time.time() - t0
    assert took < 60, took
    report(1, "maximal SOS class counts, ranks <= 8 (%.1fs)" % took)


# -- criterion 2: the eightfold frame of E8 ------------------------------------

TABLE_I = [
    # (vec1, vec2, ((i1,i2),(i3,i4)))
    (("-", 2, 3), ("-", 5, 8), ((1, 2), (3, 4))),
    (("-", 5, 8), ("-", 6, 7), ((1, 3), (2, 4))),
    (("-", 2, 3), ("-", 6, 7), ((1, 4), (2, 3))),
    (("-", 2, 5), ("-", 3, 8), ((1, 2), (5, 6))),
    (("-", 3, 8), ("-", 4, 7), ((1, 5), (2, 6))),
    (("-", 2, 5), ("-", 4, 7), ((1, 6), (2, 5))),
    (("-", 5, 6), ("-", 7, 8), ((1, 3), (5, 7))),
    (("-", 3, 4), ("-", 7, 8), ((1, 5), (3, 7))),
    (("-", 3, 4), ("-", 5, 6), ((1, 7), (3, 5))),
    (("-", 2, 7), ("-", 3, 6), ((1, 4), (6, 7))),
    (("-", 2, 7), ("-", 4, 5), ((1, 6), (4, 7))),
    (("-", 3, 6), ("-", 4, 5), ((1, 7), (4, 6))),
    (("-", 2, 6), ("-", 3, 7), ((2, 3), (6, 7))),
    (("-", 3, 7), ("-", 4, 8), ((2, 6), (3, 7))),
    (("-", 2, 6), ("-", 4, 8), ((2, 7), (3, 6))),
    (("-", 5, 7), ("-", 6, 8), ((2, 4), (5, 7))),
    (("-", 2, 4), ("-", 5, 7), ((2, 5), (4, 7))),
    (("-", 2, 4), ("-", 6, 8), ((2, 7), (4, 5))),
    (("-", 2, 8), ("-", 3, 5), ((3, 4), (5, 6))),
    (("-", 3, 5), ("-", 4, 6), ((3, 5), (4, 6))),
    (("-", 2, 8), ("-", 4, 6), ((3, 6), (4, 5))),
    (("+", 2, 8), ("+", 3, 5), ((1, 2), (7, 8))),
    (("+", 3, 5), ("+", 4, 6), ((1, 7), (2, 8))),
    (("+", 2, 8), ("+", 4, 6), ((1, 8), (2, 7))),
    (("+", 5, 7), ("+", 6, 8), ((1, 3), (6, 8))),
    (("+", 2, 4), ("+", 5, 7), ((1, 6), (3, 8))),
    (("+", 2, 4), ("+", 6, 8), ((1, 8), (3, 6))),
    (("+", 2, 6), ("+", 3, 7), ((1, 4), (5, 8))),
    (("+", 3, 7), ("+", 4, 8), ((1, 5), (4, 8))),
    (("+", 2, 6), ("+", 4, 8), ((1, 8), (4, 5))),
    (("+", 2, 7), ("+", 3, 6), ((2, 3), (5, 8))),
    (("+", 2, 7), ("+", 4, 5), ((2, 5), (3, 8))),
    (("+", 3, 6), ("+", 4, 5), ((2, 8), (3, 5))),
    (("+", 5, 6), ("+", 7, 8), ((2, 4), (6, 8))),
    (("+", 3, 4), ("+", 7, 8), ((2, 6), (4, 8))),
    (("+", 3, 4), ("+", 5, 6), ((2, 8), (4, 6))),
    (("+", 2, 5), ("+", 3, 8), ((3, 4), (7, 8))),
    (("+", 3, 8), ("+", 4, 7), ((3, 7), (4, 8))),
    (("+", 2, 5), ("+", 4, 7), ((3, 8), (4, 7))),
    (("+", 2, 3), ("+", 5, 8), ((5, 6), (7, 8))),
    (("+", 5, 8), ("+", 6, 7), ((5, 7), (6, 8))),
    (("+", 2, 3), ("+", 6, 7), ((5, 8), (6, 7))),
]

KLEIN_QUADS = {(1, 2, 3, 4), (1, 2, 5, 6), (1, 2, 7, 8), (1, 3, 5, 7),
               (1, 3, 6, 8), (1, 4, 6, 7), (1, 4, 5, 8), (2, 3, 6, 7),
               (2, 3, 5, 8), (2, 4, 5, 7), (2, 4, 6, 8), (3, 4, 5, 6),
               (3, 4, 7, 8), (5, 6, 7, 8)}


def _mprime_e8():
    E8 = rs.build("E8")
    vecs = {1: zeta((1, 3, 5, 7)), 2: zeta((1, 2, 7, 8)), 3: zeta((1, 3, 6, 8)),
            4: zeta((1, 2, 5, 6)), 5: zeta((1, 4, 5, 8)), 6: zeta((1, 2, 3, 4)),
            7: zeta((1, 4, 6, 7)), 8: rl.vneg(zeta(()))}
    return E8, vecs, {k: E8.root_index(v) for k, v in vecs.items()}


def test_criterion_02_e8_e7_dichotomy():
    E8, bvecs, B = _mprime_e8()

    def evec(sign, i, j):
        v = rl.vadd(rl.unit_vec(8, i - 1),
                    rl.vscale(1 if sign == "+" else -1, rl.unit_vec(8, j - 1)))
        return v

    for row1, row2, (p1, p2) in TABLE_I:
        m = rl.mat_mul(rl.reflection_matrix(8, evec(*row1)),
                       rl.reflection_matrix(8, evec(*row2)))
        perm = E8.perm_of_matrix(m)
        assert perm is not None
        # permutation action on the frame is the stated double transposition
        want = {i: i for i in range(1, 9)}
        want[p1[0]], want[p1[1]] = p1[1], p1[0]
        want[p2[0]], want[p2[1]] = p2[1], p2[0]
        for i in range(1, 9):
            assert perm[B[i]] == B[want[i]], (row1, row2)
        # the identity with the frame-difference reflections
        m2 = rl.mat_mul(
            rl.reflection_matrix(8, rl.vsub(bvecs[p1[0]], bvecs[p1[1]])),
            rl.reflection_matrix(8, rl.vsub(bvecs[p2[0]], bvecs[p2[1]])))
        assert m == m2, (row1, row2)
    got = {q for q in itertools.combinations(range(1, 9), 4)
           if wg.klein_in_weyl(E8, [B[i] for i in q])}
    assert got == KLEIN_QUADS
    for q in itertools.combinations(range(1, 9), 4):
        comp = tuple(sorted(set(range(1, 9)) - set(q)))
        assert (q in got) == (comp in got)
    # the two four-set classes, and the E7 three/four-set dichotomies
    assert iv.classify_sos(E8, [B[i] for i in (1, 2, 3, 4)]).label == (4, True)
    assert iv.classify_sos(E8, [B[i] for i in (1, 2, 3, 5)]).label == (4, False)
    E7p = rs.build("E7", realization="prime")
    B7 = {k: E7p.root_index(v) for k, v in bvecs.items() if k <= 7}
    assert iv.classify_sos(E7p, [B7[i] for i in (1, 2, 3)]).label == (3, True)
    assert iv.classify_sos(E7p, [B7[i] for i in (1, 2, 3, 4)]).label == (4, True)
    assert iv.classify_sos(E7p, [B7[i] for i in (1, 2, 3, 5)]).label == (4, False)
    # a class-II triple: one whose completions never close a Klein group
    reps = iv.sos_classes_by_size(E7p)
    assert iv.SosClass("E7", (3, False)) in reps
    report(2, "frame of eight: 42 rotation rows, 14 Klein groups, dichotomies")


# -- criterion 3: the involution catalog ---------------------------------------


def test_criterion_03_catalog():
    t0 = time.time()
    small = [("A", r) for r in range(1, 7)] + [("B", r) for r in range(2, 7)] + \
        [("C", r) for r in range(3, 7)] + [("D", r) for r in range(4, 7)] + \
        [("F4", 4), ("G2", 2)]
    for fam, rank in small:
        R = rs.build(fam, rank)
        rows = iv.table2_representatives(R)
        W = wg.weyl_group(R)
        for a, b in itertools.combinations(range(len(rows)), 2):
            assert W.conjugator(rows[a][1].perm, rows[b][1].perm) is None, \
                (fam, rank, rows[a][0], rows[b][0])
    for realization in ("standard", "prime"):
        R = rs.build("E6", realization=realization)
        rows = iv.table2_representatives(R)
        W = wg.weyl_group(R)
        for a, b in itertools.combinations(range(len(rows)), 2):
            assert W.conjugator(rows[a][1].perm, rows[b][1].perm) is None
        for lab, rep in rows:
            assert rep.in_weyl == (realization == "standard")
    for fam in ("E7", "E8"):
        R = rs.build(fam)
        rows = iv.table2_representatives(R)
        invs = [rc.invariants(rep) for _, rep in rows]
        assert len(set(invs)) == len(invs)
        for lab, rep in rows:
            assert rep.in_weyl
    # Weyl membership of the classical rows
    for fam, rank in [("B", 4), ("C", 4)]:
        for lab, rep in iv.table2_representatives(rs.build(fam, rank)):
            assert rep.in_weyl
    for lab, rep in iv.table2_representatives(rs.build("D", 5)):
        r2 = int(lab.split(",")[1])
        assert rep.in_weyl == (r2 % 2 == 0), lab
    took = time.time() - t0
    assert took < 300, took
    report(3, "catalog rows involutive and pairwise inequivalent (%.1fs)" % took)


# -- criterion 4: special involution census ------------------------------------


def test_criterion_04_special_census():
    for fam, rank in [("B", 4), ("C", 5), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]:
        assert len(iv.special_involutions(rs.build(fam, rank))) == 1
    for fam, rank in [("A", 2), ("A", 5), ("D", 4), ("D", 6)]:
        got = iv.special_involutions(rs.build(fam, rank))
        assert len(got) == 2 and got[1].is_special()
    got = iv.special_involutions(rs.build("E6", realization="prime"))
    assert len(got) == 2
    eps = got[1]
    E6p = rs.build("E6", realization="prime")
    for i in range(1, 7):
        src = rl.unit_vec(8, i - 1)
        img = rl.apply_vec(eps, rl.vsub(src, rl.unit_vec(8, i)))  # e_i - e_{i+1}
        want = rl.vsub(rl.unit_vec(8, 6 - i - 1), rl.unit_vec(8, 7 - i - 1))
        if i < 6:
            assert img == want
    report(4, "special involution census per family")


# -- criterion 5: the three involutions on the rank-four chain ------------------


def test_criterion_05_b4_example():
    B4 = rs.build("B", 4)
    ch = B4.canonical_chamber()
    tp = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    tpp = iv.from_reflections(B4, [(1, 0, 0, -1), (0, 0, 1, 0)])
    tppp = iv.from_reflections(B4, [(1, 0, 1, 0), (0, 1, 0, -1)])

    def images(th):
        return [ch.coords(th(b)) for b in ch.basis]

    # three of the twelve displayed coefficient blocks drop their alpha4
    # tails in print; the values below are forced by involutivity and are
    # asserted as computed from the displayed generators
    assert images(tp) == [(-1, -1, -1, -2),   # displayed without the -2 tail
                          (0, 0, 1, 2),
                          (0, -1, -2, -2),
                          (0, 1, 1, 1)]
    assert images(tpp) == [(0, -1, -1, 0),
                           (0, 1, 2, 2),
                           (-1, -1, -2, -2),
                           (1, 1, 1, 1)]
    assert images(tppp) == [(0, 0, -1, -2),   # displayed as -alpha3 alone
                            (1, 1, 1, 2),
                            (-1, -2, -2, -2),  # displayed as -alpha1 alone
                            (0, 1, 1, 1)]
    assert iv.class_label(tp) == "r1,2"
    assert iv.class_label(tpp) == "r1,1"
    assert iv.class_label(tppp) == "r2,0"
    for a, b in itertools.combinations((tp, tpp, tppp), 2):
        assert not iv.equivalent_involutions(a, b)
    shown = {
        tp: ([(0, 1, 0, -1), (-1, 0, 0, 1), (1, 0, -1, 0), (0, 0, 1, 0)],
             "*---o---*==>*"),
        tpp: ([(1, 0, 0, -1), (0, -1, 0, 1), (0, 1, -1, 0), (0, 0, 1, 0)],
              "*---o---o==>*"),
        tppp: ([(1, 0, 1, 0), (0, 1, -1, 0), (0, -1, 0, 1), (0, 0, 0, -1)],
               "*---o---*==>o"),
    }
    for th, (basis, want) in shown.items():
        chd = B4.chamber_from_simple_basis(basis)
        assert dg.is_s_chamber(th, chd)
        d = dg.s_diagram(th, chd)
        assert d.render("ascii").split("\n")[0] == want
    report(5, "rank-four chain example: 12 images, classes, displayed diagrams")


# -- criterion 6: the two fork diagrams ------------------------------------------


def test_criterion_06_d4_example():
    D4 = rs.build("D", 4)
    ch = D4.canonical_chamber()
    a = [D4.roots[b] for b in ch.basis]

    def comb(*pairs):
        out = rl.zero_vec(4)
        for c, v in pairs:
            out = rl.vadd(out, rl.vscale(c, v))
        return out

    th_a = iv.involution_from_images(D4, [comb((1, a[0]), (1, a[1])), rl.vneg(a[1]),
                                          comb((1, a[1]), (1, a[3])),
                                          comb((1, a[1]), (1, a[2]))])
    th_b = iv.involution_from_images(D4, [rl.vneg(a[0]), comb((1, a[0]), (1, a[1])),
                                          a[3], a[2]])
    d_a = dg.s_diagram(th_a, ch)
    d_b = dg.s_diagram(th_b, ch)
    assert d_a.colors == ("white", "black", "white", "white")
    assert d_b.colors == ("black", "white", "white", "white")
    assert {tuple(sorted(p)) for p in d_a.arrows} == {(2, 3)}
    assert {tuple(sorted(p)) for p in d_b.arrows} == {(2, 3)}
    blocks = {
        (th_a, 0): (0, {1: 1}), (th_a, 2): (3, {1: 1}), (th_a, 3): (2, {1: 1}),
        (th_b, 1): (1, {0: 1}), (th_b, 2): (3, {}), (th_b, 3): (2, {}),
    }
    for (th, k), (kp, tail) in blocks.items():
        prime, got_tail = dg.theta_on_simple(th, ch, ch.basis[k])
        assert prime == ch.basis[kp]
        assert got_tail == {ch.basis[i]: c for i, c in tail.items()}
    assert iv.equivalent_involutions(th_a, th_b)
    for d in (d_a, d_b):
        assert dg.admissible(d)[0]
    report(6, "fork example: both adapted diagrams and their image blocks")


# -- criterion 7: admissibility catalog -------------------------------------------


def test_criterion_07_admissibility():
    def mk(R, colors, arrows=()):
        order = tuple(R.canonical_chamber().basis)
        return dg.Diagram(R.spec.family, R.rank, R.spec.realization, tuple(colors),
                          dg._bonds_of_basis(R, order),
                          frozenset(frozenset(p) for p in arrows), node_roots=order)

    E6p = rs.build("E6", realization="prime")
    # rejected: five blacks in a fork shape around a black tip
    assert not dg.admissible(mk(E6p, ["white"] + ["black"] * 5))[0]
    E7 = rs.build("E7")
    assert not dg.admissible(mk(E7, ["black"] * 6 + ["white"]))[0]
    E8 = rs.build("E8")
    assert not dg.admissible(mk(E8, ["white"] + ["black"] * 7))[0]
    F4 = rs.build("F4")
    assert not dg.admissible(mk(F4, ["black", "black", "white", "white"]))[0]
    assert not dg.admissible(mk(F4, ["white", "white", "black", "black"]))[0]
    # every catalog-generated diagram is admitted
    for fam, rank in [("A", 5), ("B", 5), ("C", 5), ("D", 5), ("D", 4),
                      ("F4", 4), ("G2", 2), ("E6", 6), ("E7", 7), ("E8", 8)]:
        R = rs.build(fam, rank)
        for lab, th in iv.table2_representatives(R):
            d = dg.s_diagram(th, dg.find_s_chamber(th))
            ok, why = dg.admissible(d)
            assert ok, (fam, rank, lab, why)
    # the four flip diagrams and four further patterns
    flips = [
        (["white"] * 6, [(0, 4), (1, 3)]),
        (["white", "white", "black", "white", "white", "white"], [(0, 4), (1, 3)]),
        (["white", "black", "black", "black", "white", "white"], [(0, 4)]),
        (["black"] * 5 + ["white"], []),
    ]
    further = [
        (["white"] * 5 + ["black"], []),
        (["white", "black", "white", "white", "white", "black"], []),
        (["white", "black", "white", "black", "white", "black"], []),
        (["white", "black", "black", "black", "white", "black"], []),
    ]
    for colors, arrows in flips + further:
        ok, why = dg.admissible(mk(E6p, colors, arrows))
        assert ok, (colors, arrows, why)
    report(7, "admissibility: named rejects, catalog diagrams, flip patterns")


# -- criterion 8: adapted dual vectors ---------------------------------------------


def test_criterion_08_dual_vectors():
    rows = dual_vector_table()
    assert len(rows) >= 30
    for label, system, omega, msys in rows:
        assert system.in_dual_lattice(omega), label
        for i in msys:
            assert la.vdot(system.roots[i], omega) == 1, (label, i)
        system.require_strongly_orthogonal(msys, AssertionError)
    report(8, "dual vectors pair to one with every reference system root")


# -- criterion 9: the constant layer ------------------------------------------------


def test_criterion_09_chevalley():
    t0 = time.time()
    cases = [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)] + \
        [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)] + \
        [("E6", 6), ("E7", 7), ("E8", 8), ("F4", 4), ("G2", 2)]
    for fam, rank in cases:
        R = rs.build(fam, rank)
        C = cv.structure_constants(R)
        C.verify_identities()
        # block polynomials for one root of each length
        norms = {R.norm2(i) for i in range(len(R))}
        picked = []
        for n in sorted(norms):
            picked.append(next(i for i in range(len(R)) if R.norm2(i) == n))
        for alpha in picked:
            for _, poly in cv.ad_k_char_polys(C, alpha):
                assert poly in cv.ADMITTED_POLYS
    for fam, rank in [("A", 7), ("B", 7), ("C", 7), ("D", 7), ("E7", 7)]:
        R = rs.build(fam, rank)
        A = cv.dense_algebra(cv.structure_constants(R))
        A.verify_jacobi_full()
    E8 = rs.build("E8")
    A8 = cv.dense_algebra(cv.structure_constants(E8))
    A8.verify_jacobi_sampled(1_000_000, seed=0)
    took = time.time() - t0
    assert took < 120, took
    report(9, "constant identities ranks <= 8; full Jacobi <= rank 7; "
              "10^6 sampled triples at rank 8 (%.1fs)" % took)


# -- criterion 10: transform pipelines ------------------------------------------------


def _first_completion(theta, chamber, signs):
    """The datum with the given signs on part of the chamber basis and the
    first signs, in +1-first order, on the rest that the laws admit."""
    free = [b for b in chamber.basis if b not in signs]
    for bits in itertools.product((1, -1), repeat=len(free)):
        try:
            return rf.sigma_from_chamber_signs(theta, chamber, {**signs, **dict(zip(free, bits))})
        except rf.RealFormError:
            continue
    raise AssertionError("no completion of the signs satisfies the laws")


def test_criterion_10_cayley_pipelines():
    C4 = rs.build("C", 4)
    b = list(C4.canonical_chamber().basis)

    def sig_c4(stars):
        return rf.sigma_from_basis_signs(
            C4, {bb: (-1 if k in stars else 1) for k, bb in enumerate(b)})

    s1, s2, s3, s4 = sig_c4([0]), sig_c4([1]), sig_c4([2]), sig_c4([3])
    assert rf.identify(rf.reduce_noncompact(s1)).name == "sp(1,3)"
    # explicit first transform of s1 along e1+e2 gives the stated partition
    s1p = rf.cayley(s1, C4.root_index((1, 1, 0, 0)))
    want = {C4.root_index(v) for v in
            [(0, 0, 2, 0), (0, 0, 0, 2), (1, -1, 0, 0), (0, 0, 1, 1), (0, 0, 1, -1)]}
    want |= {C4.negation_map[i] for i in want}
    assert s1p.theta.imaginary_set == frozenset(want)
    assert not s1p.noncompact_set
    # s2: transforms along e1+e3 then e2+e4
    s2a = rf.cayley(s2, C4.root_index((1, 0, 1, 0)))
    s2b = rf.cayley(s2a, C4.root_index((0, 1, 0, 1)))
    assert not s2b.noncompact_set
    assert rf.identify(s2b).name == "sp(2,2)"
    assert rf.isomorphic(s1, s3)
    g = wg.weyl_group(C4).transporter_pair(
        (tuple(s1.compact_set), tuple(s1.noncompact_set)),
        (frozenset(s3.compact_set), frozenset(s3.noncompact_set)))
    assert g is not None
    nm = rf.identify(rf.reduce_noncompact(s4))
    assert nm.name == "sp(8,R)" and nm.is_split
    # rank-two examples
    B2 = rs.build("B", 2)
    bb = list(B2.canonical_chamber().basis)
    s_xb = rf.sigma_from_basis_signs(B2, {bb[0]: -1, bb[1]: 1})
    s_xx = rf.sigma_from_basis_signs(B2, {bb[0]: -1, bb[1]: -1})
    s_bx = rf.sigma_from_basis_signs(B2, {bb[0]: 1, bb[1]: -1})
    assert rf.identify(rf.reduce_noncompact(s_xb)).name == "so(2,3)"
    assert rf.identify(rf.reduce_noncompact(s_xx)).name == "so(2,3)"
    assert rf.identify(rf.reduce_noncompact(s_bx)).name == "so(1,4)"
    # the chain A5 pair
    A5 = rs.build("A", 5)
    th = iv.from_reflections(A5, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
                                  (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                  (0, 0, 0, 0, 1, 0)])
    ch = A5.canonical_chamber()
    basis = list(ch.basis)
    s33 = _first_completion(th, ch, {basis[1]: 1, basis[2]: -1, basis[3]: 1})
    assert {A5.roots[i] for i in s33.compact_set} == {
        rl.vec(v) for v in [(0, 1, -1, 0, 0, 0), (0, -1, 1, 0, 0, 0),
                            (0, 0, 0, 1, -1, 0), (0, 0, 0, -1, 1, 0)]}
    m1 = rf.cayley(s33, A5.root_index((0, 1, 0, -1, 0, 0)))
    m2 = rf.cayley(m1, A5.root_index((0, 0, 1, 0, -1, 0)))
    assert not m2.theta.imaginary_set and not m2.noncompact_set
    assert rf.identify(s33).name == "su(3,3)"
    s24 = _first_completion(th, ch, {basis[1]: -1, basis[2]: 1, basis[3]: 1})
    assert rf.identify(s24).name == "su(2,4)"
    s24p = rf.cayley(s24, A5.root_index((0, 1, 0, 0, -1, 0)))
    assert not s24p.noncompact_set
    assert s24p.theta.imaginary_set == frozenset(
        {A5.root_index((0, 0, 1, -1, 0, 0)), A5.root_index((0, 0, -1, 1, 0, 0))})
    report(10, "transform pipelines: sp(1,3), sp(2,2), sp(8,R), rank-2 and chain data")


# -- criterion 11: dimension bookkeeping -----------------------------------------------


def test_criterion_11_dimension_counts():
    checked = 0
    for fam, rank in [("A", 2), ("A", 5), ("B", 3), ("C", 4), ("D", 4),
                      ("G2", 2), ("F4", 4)]:
        R = rs.build(fam, rank)
        total = R.rank + len(R.roots)
        for s in rf.compact_cartan_enumeration(R, dedupe=False):
            sig = rf.signature(s)
            assert sig.dim_k + sig.dim_p == total
            checked += 1
    A5 = rs.build("A", 5)
    th = iv.from_reflections(A5, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
                                  (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                  (0, 0, 0, 0, 1, 0)])
    ch = A5.canonical_chamber()
    basis = list(ch.basis)
    s33 = _first_completion(th, ch, {basis[1]: 1, basis[2]: -1, basis[3]: 1})
    assert rf.signature(s33).dim_k == 17
    assert checked >= 96
    report(11, "dim k + dim p = rank + root count on every enumerated datum")


def test_cartan_classes_e7_row_9_bound():
    """The Cartan classes of the quasi-split lift of E7 row 9: ten, in well
    under a second (one conjugacy search per candidate took about 3 s)."""
    E7 = rs.build("E7")
    sigma = rf.quasi_split_lift(dict(iv.table2_representatives(E7))["9"])
    t0 = time.time()
    classes = rf.cartan_classes(sigma)
    took = time.time() - t0
    assert len(classes) == 10
    assert took < 1, took


def test_cartan_classes_d12_identity_bound():
    """The Cartan classes of the split form of D12, the lift of the
    identity: 29, in under 5 s (the conjugacy searches took over 40 s)."""
    D12 = rs.build("D", 12)
    sigma = rf.quasi_split_lift(iv.identity_involution(D12))
    t0 = time.time()
    classes = rf.cartan_classes(sigma)
    took = time.time() - t0
    assert len(classes) == 29
    assert took < 5, took


def test_e8_weyl_chain_bound():
    """The stabilizer chain of W(E8) is read off the root system, level by
    level from the roots orthogonal to the base so far: on a fresh system
    it builds in well under the 0.27 s that Schreier-Sims took."""
    E8 = rs.RootSystem(rs.RootSystemSpec("E8"))  # not the cached build
    t0 = time.time()
    chain = wg.weyl_group(E8).chain()
    took = time.time() - t0
    assert wg.weyl_group(E8).order == 696729600 and len(chain.levels) <= 8
    assert took < 0.2, took


def test_catalog_builds_bound():
    """The catalog's 31 root systems, each built fresh, in under 0.1 s: each
    family's integer roots are written slot by slot, and the negation map is
    the reversal of the sorted roots."""
    specs = [rs.RootSystemSpec(f, r) for f, r in
             [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
             + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
             + [(f, None) for f in ("E6", "E7", "E8", "F4", "G2")]]
    t0 = time.time()
    systems = [rs.RootSystem(spec) for spec in specs]  # not the cached builds
    took = time.time() - t0
    assert len(systems) == 31 and sum(map(len, systems)) == 1862
    assert took < 0.1, took


def test_sos_classes_e7_bound():
    """The strongly orthogonal classes of E7, with their Klein flags, read
    only the pairing rows of the roots they test against and map only the
    simple roots by each double reflection: on a fresh system they take
    under 0.5 s."""
    E7 = rs.RootSystem(rs.RootSystemSpec("E7"))  # not the cached build
    t0 = time.time()
    reps = iv.sos_classes_by_size(E7)
    took = time.time() - t0
    assert {"S_3^I(E7)", "S_3^II(E7)", "S_4^I(E7)", "S_4^II(E7)"} <= {str(lab) for lab in reps}
    assert took < 0.5, took


@pytest.mark.parametrize("family", ["B", "C"])
def test_realforms_rank_10_bound(family):
    """realforms names each character of Hom_theta by counting and twists
    one per printed (form, label) pair: on a fresh B10 or C10 it lists
    every form in under 3 s (B10 took 4.2 s with one twist per character)."""
    R = rs.RootSystem(rs.RootSystemSpec(family, 10))  # not the cached build
    t0 = time.time()
    rows = rf.realform_rows(R)
    took = time.time() - t0
    assert len(rows) == (11 if family == "B" else 7)
    assert took < 3, took


def test_involutions_d12_bound():
    """The clique search of each D12 catalog row stops at the largest
    orthogonal set of its negated subsystem: the catalog with its lengths
    takes under 2 s on a fresh system (4.6 s when it stopped at the rank)."""
    R = rs.RootSystem(rs.RootSystemSpec("D", 12))
    t0 = time.time()
    rows = [(rep.length, rep.in_weyl) for _, rep in iv.table2_representatives(R)]
    took = time.time() - t0
    assert max(rows) == (12, True)
    assert took < 2, took


# -- criterion 12: restricted diagrams ---------------------------------------------------


def _enumerate_sigmas(R, max_twists=8):
    out = []
    thetas = [iv.identity_involution(R)] + [t for _, t in iv.table2_representatives(R)]
    for th in thetas:
        lift = rf.quasi_split_lift(th)
        ch = dg.find_s_chamber(th)
        rows, _ = rf.hom_theta_constraints(th, ch)
        basis = list(ch.basis)
        masks = rf.f2_solution_space(rows, len(basis))
        chosen = [0] + masks[:max_twists]
        if len(masks) <= 4:
            chosen = sorted(rf.project_span(masks, (1 << len(basis)) - 1))
        for mask in dict.fromkeys(chosen):
            signs = {b: (lift.f[b] * (-1 if mask >> k & 1 else 1))
                     for k, b in enumerate(basis)}
            try:
                out.append(rf.sigma_from_chamber_signs(th, ch, signs))
            except rf.RealFormError:
                continue
    return out


def test_criterion_12_restricted_diagrams():
    t0 = time.time()
    small = [("A", r) for r in range(1, 5)] + [("B", 2), ("B", 3), ("B", 4),
                                               ("C", 3), ("C", 4), ("D", 4),
                                               ("G2", 2), ("F4", 4)]
    rank56 = [("A", 5), ("B", 5), ("C", 5), ("D", 5), ("A", 6), ("B", 6),
              ("C", 6), ("D", 6), ("E6", 6)]
    for fam, rank in small + rank56:
        R = rs.build(fam, rank)
        W = wg.weyl_group(R)
        for sigma in _enumerate_sigmas(R, max_twists=4):
            s2, ch2 = dg.restrict_sigma(sigma)
            bullets = [b for b in ch2.basis if b in s2.theta.imaginary_set]
            for comp in iv._orthogonal_components(R, bullets):
                stars = sum(1 for x in comp if x in s2.noncompact_set)
                assert stars <= 1, (fam, rank)
            if rank <= 4:
                g = W.transporter_pair(
                    (tuple(sigma.compact_set), tuple(sigma.noncompact_set)),
                    (frozenset(s2.compact_set), frozenset(s2.noncompact_set)))
                assert g is not None
    took = time.time() - t0
    report(12, "restricted diagrams for every enumerated datum, ranks <= 6 "
               "(%.1fs)" % took)


# -- criterion 13: the per-family twist-group tables ---------------------------------------


def _projected_space(theta, chamber):
    rows, mask = rf.hom_theta_constraints(theta, chamber)
    sols = rf.f2_solution_space(rows, len(chamber.basis))
    return rf.project_span(sols, mask), mask


def _space_from_conditions(bullet_positions, conditions):
    """Expected projection: subsets of the bullet positions killed by every
    condition (each condition is a set of positions whose parity vanishes)."""
    out = set()
    bullets = sorted(bullet_positions)
    for bits in itertools.product((0, 1), repeat=len(bullets)):
        chosen = {b for b, x in zip(bullets, bits) if x}
        if all(len(chosen & set(cond)) % 2 == 0 for cond in conditions):
            out.add(sum(1 << b for b in chosen))
    return out


def _check_case(R, theta, expected_conditions, where):
    ch = R.canonical_chamber()
    assert dg.is_s_chamber(theta, ch), where
    got, mask = _projected_space(theta, ch)
    bullets = [k for k in range(len(ch.basis)) if mask >> k & 1]
    want = _space_from_conditions(bullets, expected_conditions)
    assert got == want, (where, sorted(got), sorted(want))


def test_criterion_13_twist_tables_classical():
    # type A: forced signs for short non-maximal rows, a global flip at odd
    # maximal length, full freedom off the reflection subgroup
    for rank in (2, 3, 4, 5, 6):
        R = rs.build("A", rank)
        for lab, th in iv.table2_representatives(R):
            ch = R.canonical_chamber()
            if not dg.is_s_chamber(th, ch):
                continue
            bullets = [k for k, b in enumerate(ch.basis) if b in th.imaginary_set]
            if lab.startswith("w"):
                h = int(lab[1:])
                if rank % 2 == 1 and h == (rank + 1) // 2:
                    conds = [[bullets[i], bullets[i + 1]]
                             for i in range(len(bullets) - 1)]
                else:
                    conds = [[b] for b in bullets]
            else:
                conds = []
            _check_case(R, th, conds, ("A", rank, lab))
    # type B: the short-root cluster twists freely, isolated pairs are frozen
    for rank in (2, 3, 4, 5, 6):
        R = rs.build("B", rank)
        for lab, th in iv.table2_representatives(R):
            r1, r2 = (int(x) for x in lab[1:].split(","))
            ch = R.canonical_chamber()
            flats = [2 * i for i in range(r1)]
            tail = list(range(rank - r2, rank))
            conds = [[b] for b in flats]
            _check_case(R, th, conds, ("B", rank, lab))
            mask_bullets = {k for k, b in enumerate(ch.basis)
                            if b in th.imaginary_set}
            assert mask_bullets == set(flats) | set(tail)
    # type C: long roots are tied together; at maximal sets one global flip
    for rank in (3, 4, 5, 6):
        R = rs.build("C", rank)
        for lab, th in iv.table2_representatives(R):
            r1, r2 = (int(x) for x in lab[1:].split(","))
            flats = [2 * i for i in range(r1)]
            tail = list(range(rank - r2, rank))
            natural = flats + ([rank - 1] if r2 >= 1 else [])
            if 2 * r1 + r2 < rank:
                conds = [[b] for b in natural]
            else:
                conds = [[natural[i], natural[i + 1]]
                         for i in range(len(natural) - 1)]
            _check_case(R, th, conds, ("C", rank, lab))
    # type D: six cases
    for rank in (4, 5, 6):
        R = rs.build("D", rank)
        for lab, th in iv.table2_representatives(R):
            r1, r2 = (int(x) for x in lab[1:].split(","))
            flats = [2 * i for i in range(r1)]
            if r2 >= 2:
                tail = list(range(rank - r2, rank))
            else:
                tail = []
            if r2 == rank:
                conds = []  # the all-negating datum twists freely
            elif 2 * r1 + r2 < rank:
                conds = [[b] for b in flats]
                if r2 >= 2:
                    conds.append([rank - 2, rank - 1])
            else:
                conds = [[flats[i], flats[i + 1]] for i in range(len(flats) - 1)]
                if r2 >= 2:
                    anchor = flats[0] if flats else None
                    if anchor is not None:
                        conds.append([anchor, rank - 2, rank - 1])
                    else:
                        conds.append([rank - 2, rank - 1])
            _check_case(R, th, conds, ("D", rank, lab))
    report(13, "twist tables for the classical families (see companion test)")


EXCEPTIONAL_CASES = {
    # family: list of (label, bullet simple positions or vectors, conditions)
    "E6": [
        ("1", [2], [[2]]),
        ("2", [2, 5], [[2], [5]]),
        ("3", [1, 2, 5], [[1], [2], [5]]),
        ("4v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0)],
         [[1, 2], [2, 4]]),
    ],
    "E7": [
        ("1", [2], [[2]]),
        ("2", [2, 6], [[2], [6]]),
        ("3", [2, 4, 6], [[2, 4], [4, 6]]),
        ("4", [1, 2, 4], [[1], [2], [4]]),
        # printed as all-forced; the computed group has the joint flip of
        # alpha3, alpha5, alpha7 (witnessed by an explicit dual vector)
        ("5", [0, 2, 4, 6], [[0], [2, 4], [4, 6]]),
        ("6v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0)],
         [[1, 2], [2, 4]]),
        ("7v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0),
                (0, 0, 0, 0, 1, -1, 0, 0)],
         [[2, 4], [1, 2, 6]]),
        ("8v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0),
                (0, 0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, -1, 0, 0)],
         [[1, 4, 6]]),
        ("9v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0),
                (0, 0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, -1, 0, 0),
                (0, 0, 0, 0, 0, 0, 1, 1)],
         []),
    ],
    "E8": [
        ("1", [0], [[0]]),
        ("2", [0, 2], [[0], [2]]),
        ("3", [2, 4, 6], [[2], [4], [6]]),
        ("4", [0, 2, 4, 6], [[0], [2], [4], [6]]),
        ("5v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0)],
         [[1, 2], [2, 4]]),
        ("6v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0),
                (0, 0, 0, 0, 1, -1, 0, 0)],
         [[1, 2], [2, 4], [6]]),
        ("7v", [(1, 1, 0, 0, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0, 0, 0),
                (0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0, 0, 0),
                (0, 0, 0, 0, 1, 1, 0, 0), (0, 0, 0, 0, 1, -1, 0, 0)],
         [[1, 2], [1, 4, 6]]),
    ],
    "F4": [
        ("1", [3], [[3]]),
        ("2", [0], [[0]]),
        ("3", [0, 2], [[0], [2]]),
        ("4v", [(0, 1, 1, 0), (0, 1, -1, 0)], [[1]]),
        ("5v", [(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 1, 0)], [[0, 2]]),
        ("6v", [(1, 0, 0, -1), (0, 1, 1, 0), (0, 1, -1, 0)], [[1]]),
    ],
    "G2": [
        ("1", [0], [[0]]),
        ("2", [1], [[1]]),
    ],
}


def test_criterion_13_twist_tables_exceptional():
    for fam, cases in EXCEPTIONAL_CASES.items():
        R = rs.build(fam)
        ch = R.canonical_chamber()
        basis = list(ch.basis)
        for lab, data, conds in cases:
            if lab.endswith("v"):
                th = iv.from_reflections(R, data)
            else:
                th = iv.Involution(R, _mul([R.reflection_perm(basis[i])
                                            for i in data]))
            _check_case(R, th, conds, (fam, lab))
    # the rank-eight case with almost-full blackening needs an adapted
    # presentation: built from its displayed image block
    E8 = rs.build("E8")
    ch = E8.canonical_chamber()
    basis = list(ch.basis)
    coeffs = [2, 4, 3, 6, 5, 4, 3]
    images = [rl.vneg(E8.roots[b]) for b in basis[:7]]
    img8 = E8.roots[basis[7]]
    for k, c in enumerate(coeffs):
        img8 = rl.vadd(img8, rl.vscale(c, E8.roots[basis[k]]))
    images.append(img8)
    th = iv.involution_from_images(E8, images)
    _check_case(E8, th, [[2, 4, 6]], ("E8", "8-images"))
    report(13, "twist tables for the exceptional families and the "
               "compact-chamber constructions (companion test follows)")


def test_criterion_13_compact_chamber_constructions():
    displayed = {
        "B3": [((1, 1, 0), (1, 2, 2))],
        "C3": [((2, 0, 0), (2, 2, 1))],
        "D4": [((1, 1, 0, 0), (1, 2, 1, 1))],
        "E6": [((0, 0, 1, 1, 0, 0, 0, 0), (0, 1, 1, 2, 1, 0))],
        "E7": [((0, 0, 1, 1, 0, 0, 0, 0), (0, 1, 1, 2, 1, 0, 0)),
               ((0, 0, 0, 0, 1, 1, 0, 0), (0, 1, 1, 2, 2, 2, 1)),
               ((0, 0, 0, 0, 0, 0, -1, -1), (2, 3, 2, 4, 3, 2, 1))],
        "E8": [((0, 0, 1, 1, 0, 0, 0, 0), (0, 1, 1, 2, 1, 0, 0, 0)),
               ((0, 0, 0, 0, 1, 1, 0, 0), (0, 1, 1, 2, 2, 2, 1, 0))],
        "F4": [((1, 1, 0, 0), (1, 2, 2, 0)),
               ((0, 0, 1, 1), (1, 2, 4, 2))],
        "G2": [((0, -1, 1), (2, 1))],
    }
    for label, rows in displayed.items():
        fam = label if label in ("E6", "E7", "E8", "F4", "G2") else label[0]
        rank = None if fam == label else int(label[1])
        R = rs.build(fam, rank)
        ch = R.canonical_chamber()
        for vec, coeffs in rows:
            idx = R.root_index(vec)
            assert ch.coords(idx) == tuple(coeffs), (label, vec)
    # every reference-system root is noncompact for the all-noncompact datum
    for fam, rank in [("A", 5), ("B", 4), ("B", 5), ("C", 4), ("D", 4),
                      ("D", 6), ("E6", 6), ("E7", 7), ("E8", 8),
                      ("F4", 4), ("G2", 2)]:
        R = rs.build(fam, rank)
        for idx, coords in compact_cartan_identities(R):
            assert sum(coords) % 2 == 1, (fam, rank, idx)
    report(13, "compact-chamber constructions: displayed identities and parities")


# -- criterion 14: brute-force oracle -----------------------------------------------------


def test_criterion_14_brute_oracle():
    from test_oracle import brute_full_group
    t0 = time.time()
    for fam, rank in [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("G2", 2)]:
        R = rs.build(fam, rank)
        brute = brute_full_group(R)
        W = wg.weyl_group(R)
        assert len(brute) == wg.full_aut_group(R).order
        ident = wg.identity_perm(len(R.roots))
        invs = [g for g in brute if g != ident and wg.perm_mul(g, g) == ident]
        elements = list(rc.iter_elements(W))
        classes = []
        for t in invs:
            if not any(t in c for c in classes):
                classes.append({wg.perm_mul(g, wg.perm_mul(t, wg.perm_inv(g)))
                                for g in elements})
        assert len(classes) == len(iv.table2_representatives(R))
        import random
        rng = random.Random(3)
        n = len(R.roots)
        for _ in range(15):
            k = rng.randint(1, min(3, n))
            X = tuple(sorted(rng.sample(range(n), k)))
            Y = tuple(sorted(rng.sample(range(n), k)))
            got = W.transporter_set(X, Y)
            brute_hit = any({g[x] for x in X} == set(Y) for g in elements)
            assert (got is not None) == brute_hit
    took = time.time() - t0
    assert took < 120, took
    report(14, "brute-force oracle agrees on groups, classes and transporters "
               "(%.1fs)" % took)
