"""Adapted chambers, decorated diagram construction and the catalogs."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from cartanclass import _linalg as la
from cartanclass import diagram as dg, involution as iv, realform as rf, rootsys as rs
from cartanclass import weylgroup as wg
from test_realform import _seeded_conjugate
import reference_linalg as rl

F = Fraction


def _theta(fam, rank, refl):
    R = rs.build(fam, rank)
    return R, iv.from_reflections(R, refl)


def test_find_s_chamber_basics():
    A2 = rs.build("A", 2)
    th = iv.identity_involution(A2)
    ch = dg.find_s_chamber(th)
    assert set(ch.basis) == set(A2.canonical_basis)
    # one simple reflection: the canonical chamber is already adapted
    th2 = iv.from_reflections(A2, [(1, -1, 0)])
    assert dg.is_s_chamber(th2, A2.canonical_chamber())
    # antipodal: every chamber works
    B2 = rs.build("B", 2)
    anti = iv.antipodal_involution(B2)
    for w in [(2, 1), (-1, -3), (1, 2)]:
        assert dg.is_s_chamber(anti, B2.chamber_from_witness(w))


@pytest.mark.parametrize("fam,rank", [("B", 4), ("F4", 4), ("E6", 6), ("D", 5)])
def test_find_s_chamber_all_catalog(fam, rank):
    R = rs.build(fam, rank)
    for lab, th in iv.table2_representatives(R):
        ch = dg.find_s_chamber(th)
        assert dg.is_s_chamber(th, ch), lab
        # positive non-negated roots keep their coefficient sum over the
        # non-negated simple roots
        for i in ch.positive_set:
            if i in th.imaginary_set:
                continue
            k_plus = sum(c for c, b in zip(ch.coords(i), ch.basis)
                         if b not in th.imaginary_set)
            j = th(i)
            k_plus2 = sum(c for c, b in zip(ch.coords(j), ch.basis)
                          if b not in th.imaginary_set)
            assert k_plus == k_plus2


def test_horocyclic_parabolic_split():
    R, th = _theta("B", 4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    ch = dg.find_s_chamber(th)
    pos = ch.positive_set
    horo = pos - th.imaginary_set
    para = pos | th.imaginary_set
    assert all(th(i) in horo for i in horo)
    assert all(th(i) in para for i in para)
    # parabolic: closed and union with negatives covers everything
    for i in para:
        for j in para:
            s = la.vadd(R.roots[i], R.roots[j])
            if R.contains_vector(s):
                assert R.root_index(s) in para
    assert {i for i in range(len(R))} == para | {R.negation_map[i] for i in para}


def test_is_v_chamber():
    B2 = rs.build("B", 2)
    th = iv.from_reflections(B2, [(1, 0)])
    for w in [(2, 1), (1, 2), (-2, 1), (2, -1)]:
        ch = B2.chamber_from_witness(w)
        neg_th = iv.Involution(B2, tuple(B2.negation_map[th(i)] for i in range(len(B2))))
        assert dg.is_v_chamber(th, ch) == dg.is_s_chamber(neg_th, ch)
    anti = iv.antipodal_involution(B2)
    assert dg.is_v_chamber(anti, B2.canonical_chamber())


def test_example_233_diagrams_and_formulas():
    B4 = rs.build("B", 4)
    cases = [
        ([(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)],
         [(0, 1, 0, -1), (-1, 0, 0, 1), (1, 0, -1, 0), (0, 0, 1, 0)],
         "*---o---*==>*"),
        ([(1, 0, 0, -1), (0, 0, 1, 0)],
         [(1, 0, 0, -1), (0, -1, 0, 1), (0, 1, -1, 0), (0, 0, 1, 0)],
         "*---o---o==>*"),
        ([(1, 0, 1, 0), (0, 1, 0, -1)],
         [(1, 0, 1, 0), (0, 1, -1, 0), (0, -1, 0, 1), (0, 0, 0, -1)],
         "*---o---*==>o"),
    ]
    for refl, basis, want in cases:
        th = iv.from_reflections(B4, refl)
        ch = B4.chamber_from_simple_basis(basis)
        assert dg.is_s_chamber(th, ch)
        d = dg.s_diagram(th, ch)
        assert d.render("ascii").split("\n")[0] == want
        ok, _ = dg.admissible(d)
        assert ok
    # the canonical chamber is NOT an S-chamber for theta' (the shared
    # plus/minus diagram of the example is not an S-diagram)
    tp = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    assert not dg.is_s_chamber(tp, B4.canonical_chamber())
    circ, bullet, oplus, ominus = dg.basis_partition(tp, B4.canonical_chamber())
    assert ominus  # some simple roots have negative image


def test_d4_example_both_diagrams():
    D4 = rs.build("D", 4)
    ch = D4.canonical_chamber()
    a = [D4.roots[b] for b in ch.basis]

    def comb(*pairs):
        out = la.zero_vec(4)
        for c, v in pairs:
            out = la.vadd(out, la.vscale(c, v))
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
    assert iv.equivalent_involutions(th_a, th_b)
    assert iv.class_label(th_a) == "r1,1"
    # theta_on_simple matches the displayed blocks
    prime, tail = dg.theta_on_simple(th_a, ch, ch.basis[0])
    assert prime == ch.basis[0] and tail == {ch.basis[1]: 1}
    prime, tail = dg.theta_on_simple(th_a, ch, ch.basis[2])
    assert prime == ch.basis[3] and tail == {ch.basis[1]: 1}
    prime, tail = dg.theta_on_simple(th_b, ch, ch.basis[2])
    assert prime == ch.basis[3] and tail == {}
    prime, tail = dg.theta_on_simple(th_b, ch, ch.basis[1])
    assert prime == ch.basis[1] and tail == {ch.basis[0]: 1}
    for d in (d_a, d_b):
        ok, why = dg.admissible(d)
        assert ok, why


def test_e6_black_chain_image():
    # all-black chain with a white tip: the tip image carries the full
    # weighted sum of the chain
    E6p = rs.build("E6", realization="prime")
    ch = E6p.canonical_chamber()
    basis = list(ch.basis)
    images = []
    coeffs = {0: 1, 1: 2, 2: 3, 3: 2, 4: 1}
    for k, b in enumerate(basis):
        if k < 5:
            images.append(rl.vneg(E6p.roots[b]))
        else:
            img = E6p.roots[b]
            for kk, c in coeffs.items():
                img = la.vadd(img, la.vscale(c, E6p.roots[basis[kk]]))
            images.append(img)
    th = iv.involution_from_images(E6p, images)
    assert dg.is_s_chamber(th, ch)
    prime, tail = dg.theta_on_simple(th, ch, basis[5])
    assert prime == basis[5]
    assert tail == {basis[k]: c for k, c in coeffs.items()}
    # independent maximality check: scan all roots alpha + tail with the
    # tail supported on the negated simple roots with nonnegative weights
    best = None
    for i in range(len(E6p.roots)):
        cs = ch.coords(i)
        if cs[5] != 1:
            continue
        tail_ok = all(
            (basis[k] in th.imaginary_set and c >= 0) or c == 0 or k == 5
            for k, c in enumerate(cs))
        if tail_ok:
            deg = sum(cs) - 1
            if best is None or deg > best:
                best = deg
    assert best == sum(coeffs.values())
    # its class: the table row with a rank-five negated set
    assert iv.class_label(th) == "e4"
    d = dg.s_diagram(th, ch)
    assert dg.admissible(d)[0]
    assert d.colors == ("black",) * 5 + ("white",)


def test_theta_on_simple_errors():
    B2 = rs.build("B", 2)
    th = iv.from_reflections(B2, [(1, 0)])
    ch = dg.find_s_chamber(th)
    bullet = next(b for b in ch.basis if b in th.imaginary_set)
    with pytest.raises(dg.DiagramError, match=re.escape(B2.root_name(bullet)) + " is negated"):
        dg.theta_on_simple(th, ch, bullet)
    B4 = rs.build("B", 4)
    tp = iv.from_reflections(B4, [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, -1)])
    ch = B4.canonical_chamber()
    b = ch.basis[0]
    with pytest.raises(dg.DiagramError, match="the chamber given for %s is not an S-chamber"
                       % re.escape(B4.root_name(b))):
        dg.theta_on_simple(tp, ch, b)


def test_chamber_with_imaginary_basis():
    B2 = rs.build("B", 2)
    anti = iv.antipodal_involution(B2)
    ch = dg.chamber_with_imaginary_basis(anti, B2.canonical_basis)
    assert set(ch.basis) == set(B2.canonical_basis)
    # a different negated basis is realized on demand
    alt = [B2.root_index((0, -1)), B2.root_index((1, 1))]
    ch2 = dg.chamber_with_imaginary_basis(anti, alt)
    assert set(ch2.basis) == set(alt)
    with pytest.raises(dg.DiagramError):
        dg.chamber_with_imaginary_basis(anti, [B2.root_index((1, 1)),
                                               B2.root_index((1, -1))])


def test_chamber_with_imaginary_basis_errors_name_the_root():
    B2 = rs.build("B", 2)
    th = iv.from_reflections(B2, [(1, 0)])
    e1, e2 = B2.root_index((1, 0)), B2.root_index((0, 1))
    with pytest.raises(dg.DiagramError, match=re.escape(B2.root_name(e2)) + " is not negated"):
        dg.chamber_with_imaginary_basis(th, [e1, e2])
    # the empty set reaches no negated root; -e1 comes first
    minus = B2.negation_map[e1]
    with pytest.raises(dg.DiagramError, match="does not reach " + re.escape(B2.root_name(minus))):
        dg.chamber_with_imaginary_basis(th, [])
    # e1 and -e1 reach both negated roots, but one of them is always negative
    with pytest.raises(dg.DiagramError, match="walk does not terminate: it comes back to a "
                       "chamber where %s is negative" % re.escape(B2.root_name(minus))):
        dg.chamber_with_imaginary_basis(th, [e1, minus])
    # three roots of the negated A2 of -1 on A2 reach everything, but only two are simple
    A2 = rs.build("A", 2)
    anti = iv.antipodal_involution(A2)
    a, b = A2.canonical_basis
    with pytest.raises(dg.DiagramError, match="not realized: %s differs"
                       % re.escape(A2.root_name(A2.sum_table[a][b]))):
        dg.chamber_with_imaginary_basis(anti, [a, b, A2.sum_table[a][b]])


def test_one_star_descent_error_names_the_cluster():
    C4 = rs.build("C", 4)
    b = list(C4.canonical_chamber().basis)
    compact = rf.sigma_from_basis_signs(C4, {x: 1 for x in b})
    comp = sorted(compact.theta.imaginary_set & set(b))
    with pytest.raises(dg.DiagramError, match="descent in the cluster of %s reached the zero"
                       % re.escape(C4.root_name(comp[0]))):
        dg._one_star_basis(C4, compact, comp)


ADMISSIBLE_A = [
    (["white"] * 4, [], True),            # identity
    (["white"] * 4, [(0, 3), (1, 2)], True),   # flip
    (["white"] * 4, [(0, 3)], False),
    (["black", "white", "black", "white"], [], True),
    (["black", "black", "white", "white"], [], False),
    (["white", "black", "black", "white"], [(0, 3)], True),
    (["black"] * 4, [], True),
]


@pytest.mark.parametrize("colors,arrows,want", ADMISSIBLE_A)
def test_admissible_a(colors, arrows, want):
    A4 = rs.build("A", 4)
    order = tuple(A4.canonical_basis)
    d = dg.Diagram("A", 4, "standard", tuple(colors),
                   dg._bonds_of_basis(A4, order),
                   frozenset(frozenset(p) for p in arrows), node_roots=order)
    assert dg.admissible(d)[0] == want


def test_admissible_bc():
    B4 = rs.build("B", 4)
    order = tuple(B4.canonical_basis)

    def mk(colors):
        return dg.Diagram("B", 4, "standard", tuple(colors),
                          dg._bonds_of_basis(B4, order), frozenset(), node_roots=order)

    assert dg.admissible(mk(["black", "white", "black", "black"]))[0]
    assert dg.admissible(mk(["white", "black", "white", "black"]))[0]
    assert not dg.admissible(mk(["black", "black", "white", "black"]))[0]
    assert not dg.admissible(mk(["white", "black", "black", "white"]))[0]


def test_admissible_f4_counterexamples():
    F4 = rs.build("F4")
    order = tuple(F4.canonical_basis)

    def mk(colors):
        return dg.Diagram("F4", 4, "standard", tuple(colors),
                          dg._bonds_of_basis(F4, order), frozenset(), node_roots=order)

    assert not dg.admissible(mk(["black", "black", "white", "white"]))[0]
    assert not dg.admissible(mk(["white", "white", "black", "black"]))[0]
    assert dg.admissible(mk(["black", "white", "black", "white"]))[0]
    assert dg.admissible(mk(["black", "black", "black", "white"]))[0]
    assert dg.admissible(mk(["white", "black", "black", "black"]))[0]


def test_admissible_e7_e8_patterns():
    E7 = rs.build("E7")
    order7 = tuple(E7.canonical_chamber().basis)

    def mk7(black_positions):
        colors = tuple("black" if i in black_positions else "white" for i in range(7))
        return dg.Diagram("E7", 7, "standard", colors,
                          dg._bonds_of_basis(E7, order7), frozenset(), node_roots=order7)

    # D6-shaped black cluster (positions 1..6 in the canonical layout)
    assert dg.admissible(mk7({1, 2, 3, 4, 5, 6}))[0]
    # E6-shaped cluster is rejected
    assert not dg.admissible(mk7({0, 1, 2, 3, 4, 5}))[0]
    # A6 chain rejected
    assert not dg.admissible(mk7({0, 1, 3, 4, 5, 6}))[0]
    E8 = rs.build("E8")
    order8 = tuple(E8.canonical_chamber().basis)

    def mk8(black_positions):
        colors = tuple("black" if i in black_positions else "white" for i in range(8))
        return dg.Diagram("E8", 8, "standard", colors,
                          dg._bonds_of_basis(E8, order8), frozenset(), node_roots=order8)

    # E7-shaped blacks with the last node white: admissible
    assert dg.admissible(mk8({0, 1, 2, 3, 4, 5, 6}))[0]
    # D7-shaped blacks (drop the short branch, keep the tail) rejected
    assert not dg.admissible(mk8({1, 2, 3, 4, 5, 6, 7}))[0]
    # isolated blacks fine
    assert dg.admissible(mk8({0, 4, 7}))[0]
    # black D4 around the trivalent node admissible
    assert dg.admissible(mk8({1, 2, 3, 4}))[0]


def test_table2_diagrams_all_admissible():
    for fam, rank in [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("D", 4),
                      ("F4", 4), ("G2", 2), ("E6", 6)]:
        R = rs.build(fam, rank)
        for lab, th in iv.table2_representatives(R):
            d = dg.s_diagram(th, dg.find_s_chamber(th))
            ok, why = dg.admissible(d)
            assert ok, (fam, rank, lab, why)


# -- admissibility against the drawn diagrams ---------------------------------------


def _canonical_diagram(R, colors, arrows=()):
    """A diagram on the canonical basis, node k at canonical_basis[k]."""
    order = tuple(R.canonical_basis)
    return dg.Diagram(R.spec.family, R.rank, R.spec.realization, tuple(colors),
                      dg._bonds_of_basis(R, order),
                      frozenset(frozenset(p) for p in arrows), node_roots=order)


def _blacks(rank, positions):
    return tuple("black" if k in positions else "white" for k in range(rank))


def test_admissible_rejects_g2_arrow():
    G2 = rs.build("G2")
    assert not dg.admissible(_canonical_diagram(G2, ["white"] * 2, [(0, 1)]))[0]
    assert dg.admissible(_canonical_diagram(G2, ["white"] * 2))[0]


def test_admissible_rejects_f4_black_a2_beside_a_black_node():
    F4 = rs.build("F4")
    assert not dg.admissible(_canonical_diagram(F4, _blacks(4, {0, 1, 3})))[0]
    assert not dg.admissible(_canonical_diagram(F4, _blacks(4, {0, 2, 3})))[0]


def test_admissible_rejects_d5_black_a4():
    D5 = rs.build("D", 5)
    assert not dg.admissible(_canonical_diagram(D5, _blacks(5, {0, 1, 2, 3})))[0]


@pytest.mark.parametrize("blacks,arrows", [
    ({0, 1, 2, 3, 4}, []),
    ({0, 1, 2, 4, 5}, []),
    ({0, 1, 2, 4}, []),
    ({0, 1, 2}, []),
    ({0, 1, 2}, [(4, 5)]),
])
def test_admissible_rejects_d6_patterns(blacks, arrows):
    D6 = rs.build("D", 6)
    ok, why = dg.admissible(_canonical_diagram(D6, _blacks(6, blacks), arrows))
    assert not ok, why


@pytest.mark.parametrize("realization,tip,arrows", [
    ("standard", 2, [(0, 5), (1, 4)]),
    ("prime", 5, [(0, 4), (1, 3)]),
])
def test_admissible_accepts_e6_black_tip_with_flip(realization, tip, arrows):
    # drawn on the canonical chamber by s_tip times the diagram flip, an
    # involution of the coset -W
    E6 = rs.build("E6", realization=realization)
    d = _canonical_diagram(E6, _blacks(6, {tip}), arrows)
    ok, why = dg.admissible(d)
    assert ok, why
    flip = next(p for p in E6.diagram_symmetries if p[tip] == tip and p != tuple(range(6)))
    cb = E6.canonical_basis
    tau = E6.perm_from_simple_images([cb[k] for k in flip])
    theta = iv.Involution(E6, wg.perm_mul(E6.reflection_perm(cb[tip]), tau))
    assert not theta.in_weyl
    drawn = dg.s_diagram(theta, E6.canonical_chamber())
    assert (drawn.colors, drawn.arrows) == (d.colors, d.arrows)


def _matchings(nodes):
    """Every set of disjoint pairs of the nodes."""
    if not nodes:
        yield frozenset()
        return
    first, rest = nodes[0], nodes[1:]
    yield from _matchings(rest)
    for k, other in enumerate(rest):
        for m in _matchings(rest[:k] + rest[k + 1:]):
            yield m | {frozenset((first, other))}


ORACLE_SYSTEMS = ([("A", r, "standard") for r in range(2, 7)]
                  + [(f, r, "standard") for f in "BC" for r in (3, 4, 5)]
                  + [("D", r, "standard") for r in (4, 5, 6)]
                  + [("G2", 2, "standard"), ("F4", 4, "standard"),
                     ("E6", 6, "standard"), ("E6", 6, "prime")])


@pytest.mark.parametrize("fam,rank,realization", ORACLE_SYSTEMS)
def test_admissible_equals_drawn_diagrams(fam, rank, realization):
    # brute force: every involution of the full automorphism group for
    # which the canonical chamber is an S-chamber, drawn there
    R = rs.build(fam, rank, realization)
    ch = R.canonical_chamber()
    drawn = set()
    for g in wg.full_aut_group(R).iter_elements():
        if any(g[g[b]] != b for b in R.canonical_basis):
            continue
        theta = iv.Involution(R, g)
        if dg.is_s_chamber(theta, ch):
            d = dg.s_diagram(theta, ch)
            drawn.add((d.colors, d.arrows))
    accepted = set()
    for colors in itertools.product(("white", "black"), repeat=rank):
        whites = [k for k, c in enumerate(colors) if c == "white"]
        for arrows in _matchings(whites):
            d = _canonical_diagram(R, colors, arrows)
            if dg.admissible(d)[0]:
                d = _normalize(R, d)
                accepted.add((d.colors, d.arrows))
    assert accepted == drawn


def _normalize(system, d):
    """The relabelling of d by a diagram symmetry with the least (colors,
    arrow key, node roots)."""
    best = None
    for rho in system.diagram_symmetries:
        inv = {v: k for k, v in enumerate(rho)}
        colors = tuple(d.colors[rho[k]] for k in range(d.rank))
        arrows = frozenset(frozenset((inv[i], inv[j])) for i, j in
                           (tuple(p) for p in d.arrows))
        roots = tuple(d.node_roots[rho[k]] for k in range(d.rank))
        key = (colors, dg._arrow_key(d.rank, arrows), roots)
        if best is None or key < best[0]:
            best = (key, colors, arrows, roots)
    return dg.Diagram(d.family, d.rank, d.realization, best[1],
                      d.bonds, best[2], node_roots=best[3])


def _two_step_diagram(theta, chamber):
    """The drawing as two steps: the nodes in canonical_node_order, then the
    least relabelling by a diagram symmetry."""
    R = theta.system
    order = dg.canonical_node_order(R, chamber.basis)
    pos_of = {b: k for k, b in enumerate(order)}
    arrows = set()
    for k, b in enumerate(order):
        if b not in theta.imaginary_set and b not in theta.real_set:
            prime, _ = dg.theta_on_simple(theta, chamber, b)
            if prime != b:
                arrows.add(frozenset((k, pos_of[prime])))
    colors = tuple(dg.BLACK if b in theta.imaginary_set else dg.WHITE for b in order)
    d = dg.Diagram(R.spec.family, R.rank, R.spec.realization, colors,
                   dg._bonds_of_basis(R, order), frozenset(arrows), node_roots=order)
    return _normalize(R, d)


@pytest.mark.parametrize("fam,rank,realization",
                         [("A", r, "standard") for r in range(2, 8)]
                         + [("D", r, "standard") for r in (4, 5, 6)]
                         + [("E6", 6, "standard"), ("E6", 6, "prime")])
def test_s_diagram_is_the_least_relabelling_of_the_first_order(fam, rank, realization):
    """One pass over every order of the basis draws what the first order
    relabelled by the least diagram symmetry draws, on catalog rows and
    seeded conjugates of each, node roots and all."""
    R = rs.build(fam, rank, realization)
    rng = random.Random(22)
    for lab, row in [("id", iv.identity_involution(R)), ("-1", iv.antipodal_involution(R)),
                     *iv.table2_representatives(R)]:
        for theta in [row] + [_seeded_conjugate(row, rng) for _ in range(2)]:
            ch = dg.find_s_chamber(theta)
            got, want = dg.s_diagram(theta, ch), _two_step_diagram(theta, ch)
            assert got == want and got.node_roots == want.node_roots, lab


def _longest_element(R, black):
    w = tuple(range(len(R)))
    pos = R.canonical_chamber().positive_set
    while True:
        b = next((b for b in black if w[b] in pos), None)
        if b is None:
            return w
        w = wg.perm_mul(w, R.reflection_perm(b))


@pytest.mark.parametrize("fam,n_accepted", [("E7", 40), ("E8", 64)])
def test_admissible_e7_e8_colorings_are_drawn(fam, n_accepted):
    R = rs.build(fam)
    cb = R.canonical_basis
    ch = R.canonical_chamber()
    at = {b: k for k, b in enumerate(cb)}
    accepted = 0
    for colors in itertools.product(("white", "black"), repeat=R.rank):
        black = [cb[k] for k, c in enumerate(colors) if c == "black"]
        w = _longest_element(R, black)
        tau = list(range(R.rank))
        for b in black:
            tau[at[b]] = at[R.negation_map[w[b]]]
        ok, why = dg.admissible(_canonical_diagram(R, colors))
        if not ok:
            assert tuple(tau) not in R.diagram_symmetries, colors
            continue
        accepted += 1
        theta = iv.Involution(R, wg.perm_mul(
            w, R.perm_from_simple_images([cb[k] for k in tau])))
        assert dg.is_s_chamber(theta, ch), colors
        d = dg.s_diagram(theta, ch)
        assert (d.colors, d.arrows) == (colors, frozenset()), colors
    assert accepted == n_accepted


def test_admissible_reason_names_the_node():
    D5 = rs.build("D", 5)
    ok, why = dg.admissible(_canonical_diagram(D5, _blacks(5, {0, 1, 2, 3})))
    # the A4 opposition sends node 1 to node 2 and keeps the fork node 4
    assert not ok and why.startswith("node 1 goes to node 2 and node 4 to node 4")
    ok, why = dg.admissible(_canonical_diagram(D5, _blacks(5, {3, 4})))
    assert ok, why


def test_admissible_unknown_family():
    A2 = rs.build("A", 2)
    d = _canonical_diagram(A2, ["white"] * 2)
    with pytest.raises(dg.DiagramError):
        dg.admissible(dg.Diagram("H3", 2, "standard", d.colors, d.bonds, d.arrows))


@pytest.mark.parametrize("colors,arrows,node", [
    (["white"] * 4, [(0, 3), (1, 3)], "node 3"),
    (["white"] * 4, [(0, 4)], "node 4"),
    (["white"] * 3, [], "3 nodes"),
    (["white", "grey", "white", "white"], [], "node 1"),
])
def test_validate_rejects_malformed(colors, arrows, node):
    A4 = rs.build("A", 4)
    d = _canonical_diagram(A4, ["white"] * 4)
    bad = dg.Diagram("A", 4, "standard", tuple(colors), d.bonds,
                     frozenset(frozenset(p) for p in arrows))
    with pytest.raises(dg.DiagramError, match=node):
        bad.validate()
    with pytest.raises(dg.DiagramError, match=node):
        dg.admissible(bad)


def test_validate_rejects_foreign_bonds():
    A3 = rs.build("A", 3)
    d = _canonical_diagram(A3, ["white"] * 3)
    tripled = dg.Diagram("A", 3, "standard", d.colors, ((0, 2, 3, 1),), d.arrows)
    for check in (tripled.validate, lambda: dg.admissible(tripled)):
        with pytest.raises(dg.DiagramError, match=r"bond \(0, 2, 3, 1\)"):
            check()
    # a missing bond is named as well
    short = dg.Diagram("A", 3, "standard", d.colors, d.bonds[:1], d.arrows)
    with pytest.raises(dg.DiagramError, match=r"bond \(1, 2, 1, 0\)"):
        short.validate()
    data = d.to_json()
    data["bonds"][0]["mult"] = 2
    with pytest.raises(dg.DiagramError, match="bond"):
        dg.Diagram.from_json(data)
    # the canonical bonds, in any order, pass
    dg.Diagram("A", 3, "standard", d.colors, d.bonds[::-1], d.arrows).validate()
    # an exceptional family is checked against its own rank
    g = _canonical_diagram(rs.build("G2"), ["white"] * 2)
    with pytest.raises(dg.DiagramError, match="G2 has rank 2, not 3"):
        dg.Diagram("G2", 3, "standard", ("white",) * 3, g.bonds, g.arrows).validate()


def test_from_json_rejects_malformed():
    A4 = rs.build("A", 4)
    data = _canonical_diagram(A4, ["white"] * 4, [(0, 3)]).to_json()
    data["arrows"].append([3, 1])
    with pytest.raises(dg.DiagramError, match="node 3 lies in two arrows"):
        dg.Diagram.from_json(data)
    data = _canonical_diagram(A4, ["white"] * 4).to_json()
    data["nodes"][2]["index"] = 7
    with pytest.raises(dg.DiagramError, match="node 2"):
        dg.Diagram.from_json(data)


def test_render_formats():
    G2 = rs.build("G2")
    th = iv.from_reflections(G2, [(1, -1, 0)])
    d = dg.s_diagram(th, dg.find_s_chamber(th))
    ascii_out = d.render("ascii")
    assert "3" in ascii_out  # triple bond marker
    dot = d.render("dot")
    assert dot.startswith("graph") and "doublecircle" not in dot
    parsed = dg.Diagram.from_json(d.to_json())
    assert parsed == d
    with pytest.raises(dg.DiagramError):
        d.render("png")


def test_sigma_diagram_and_restrict():
    B2 = rs.build("B", 2)
    b = list(B2.canonical_chamber().basis)
    s1 = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: 1})
    d1 = dg.sigma_diagram(s1, dg.find_s_chamber(s1.theta))
    assert d1.colors == ("star", "black")
    s2 = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: -1})
    d2 = dg.sigma_diagram(s2, dg.find_s_chamber(s2.theta))
    assert d2.colors == ("star", "star")
    # both stand for the same split form
    assert rf.isomorphic(s1, s2)
    # restriction leaves one star per cluster
    _, ch = dg.restrict_sigma(s2)
    d3 = dg.sigma_diagram(s2, ch)
    assert len(d3.star_positions()) == 1
    # a compact datum has a plain black diagram
    s0 = rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: 1})
    d0 = dg.sigma_diagram(s0, dg.find_s_chamber(s0.theta))
    assert d0.colors == ("black", "black")
    same, ch_same = dg.restrict_sigma(s0)
    assert same is s0


def test_restrict_sigma_c4():
    C4 = rs.build("C", 4)
    b = list(C4.canonical_chamber().basis)
    s4 = rf.sigma_from_basis_signs(C4, {b[0]: 1, b[1]: 1, b[2]: 1, b[3]: -1})
    sig, ch = dg.restrict_sigma(s4)
    bullets = [b for b in ch.basis if b in sig.theta.imaginary_set]
    comps = iv._orthogonal_components(C4, bullets)
    for comp in comps:
        assert sum(1 for x in comp if x in sig.noncompact_set) <= 1
    assert rf.identify(rf.reduce_noncompact(s4)).name == "sp(8,R)"


def test_canonical_node_order_matches_canonical_basis():
    for fam, rank in [("B", 3), ("F4", 4), ("E6", 6), ("D", 4)]:
        R = rs.build(fam, rank)
        order = dg.canonical_node_order(R, R.canonical_basis)
        # gram pattern preserved
        cb = R.canonical_basis
        for i in range(rank):
            assert R.norm2(order[i]) == R.norm2(cb[i])
            for j in range(rank):
                assert (la.vdot(R.roots[order[i]], R.roots[order[j]])
                        == la.vdot(R.roots[cb[i]], R.roots[cb[j]]))
