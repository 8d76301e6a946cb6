"""Structure constants, the dense bracket oracle and exact exponentials."""

import copy
import random
import re
from fractions import Fraction

import pytest

from cartanclass import _linalg as la, chevalley as cv, rootsys as rs
import reference_linalg as rl

F = Fraction


@pytest.mark.parametrize("fam,rank", [("A", 1), ("A", 2), ("B", 2), ("C", 3),
                                      ("D", 4), ("G2", 2), ("F4", 4)])
def test_constant_identities_full(fam, rank):
    R = rs.build(fam, rank)
    cv.structure_constants(R).verify_identities()


def test_constant_examples():
    A2 = rs.build("A", 2)
    C = cv.structure_constants(A2)
    i = A2.root_index((1, -1, 0))
    j = A2.root_index((0, 1, -1))
    assert abs(C.n(i, j)) == 1
    G = rs.build("G2")
    CG = cv.structure_constants(G)
    a1 = G.root_index((1, -1, 0))
    a2 = G.root_index((-2, 1, 1))
    a12 = G.root_index((-1, 0, 1))
    assert abs(CG.n(a1, a2)) == 1
    assert abs(CG.n(a1, a12)) == 2
    # zero when the sum is not a root
    D4 = rs.build("D", 4)
    CD = cv.structure_constants(D4)
    assert CD.n(D4.root_index((1, -1, 0, 0)), D4.root_index((0, 0, 1, -1))) == 0


def test_extraspecial_signs_positive():
    # the first special pair of every composite positive root carries +(q+1)
    R = rs.build("G2")
    C = cv.structure_constants(R)
    ch = R.canonical_chamber()
    pos = sorted(ch.positive_set, key=lambda i: (ch.q_degree(i), R.roots[i]))
    for g in pos:
        if ch.q_degree(g) < 2:
            continue
        pairs = [(a, b) for a in pos for b in pos
                 if a != b and rl.vadd(R.roots[a], R.roots[b]) == R.roots[g]]
        first = min(pairs, key=lambda ab: (ch.q_degree(ab[0]), R.roots[ab[0]]))
        assert C.n(*first) > 0


def test_dense_algebra_dimensions_and_items():
    A1 = rs.build("A", 1)
    A = cv.dense_algebra(cv.structure_constants(A1))
    assert A.dim == 3
    b = A1.canonical_basis[0]
    assert A.bracket(A.coroot_elem(b), A.x(b)) == {A.rank + b: F(2)}
    G = rs.build("G2")
    assert cv.dense_algebra(cv.structure_constants(G)).dim == 14
    E8 = rs.build("E8")
    assert cv.dense_algebra(cv.structure_constants(E8)).dim == 248


def test_dense_algebra_verify_level_on_cache_hit(monkeypatch):
    C = cv.ChevalleySystem(rs.build("B", 2))
    ran = []
    for name in ("verify_defining_items", "verify_jacobi_full"):
        check = getattr(cv.DenseAlgebra, name)
        monkeypatch.setattr(cv.DenseAlgebra, name,
                            lambda self, check=check, name=name: (ran.append(name), check(self)))
    cv.ad_k_char_polys(C, C.system.canonical_basis[0])  # builds the oracle unverified
    assert ran == []
    A = cv.dense_algebra(C, verify="full")
    assert ran == ["verify_defining_items", "verify_jacobi_full"]
    assert cv.dense_algebra(C, verify="basic") is A
    assert cv.dense_algebra(C, verify="full") is A
    assert ran == ["verify_defining_items", "verify_jacobi_full"]
    C2 = cv.ChevalleySystem(rs.build("A", 2))
    cv.dense_algebra(C2)
    cv.dense_algebra(C2, verify="full")
    assert ran[2:] == ["verify_defining_items", "verify_jacobi_full"]


@pytest.mark.parametrize("fam,rank", [("A", 2), ("B", 2), ("G2", 2), ("C", 3)])
def test_jacobi_full_small(fam, rank):
    R = rs.build(fam, rank)
    A = cv.dense_algebra(cv.structure_constants(R))
    A.verify_antisymmetry()
    A.verify_jacobi_full()


def _jacobi_triple_by_dicts(A, i, j, k):
    """The reference Jacobi check: each inner bracket rebuilt as a dict and
    bracketed again through DenseAlgebra.bracket."""
    t = {}
    for (a, b, c) in ((i, j, k), (j, k, i), (k, i, j)):
        inner = A.bracket_basis(b, c)
        for idx, coeff in A.bracket({a: 1}, inner).items():
            val = t.get(idx, 0) + coeff
            if val:
                t[idx] = val
            elif idx in t:
                del t[idx]
    return not t


def _with_flipped_constant(R, a, b):
    """A fresh dense algebra over a copy of R's constants with N(a, b) and
    N(b, a) negated: antisymmetry still holds, the Jacobi identity does not."""
    C = copy.copy(cv.structure_constants(R))
    C._table = dict(C._table)
    C._table[(a, b)] *= -1
    C._table[(b, a)] *= -1
    C._dense = None
    return cv.DenseAlgebra(C)


@pytest.mark.parametrize("fam,rank", [("G2", 2), ("B", 3)])
def test_jacobi_table_matches_dict_brackets_on_every_triple(fam, rank):
    R = rs.build(fam, rank)
    a, b = next(iter(cv.structure_constants(R)._table))
    for A in (cv.dense_algebra(cv.structure_constants(R)), _with_flipped_constant(R, a, b)):
        got = [A._jacobi_triple(i, j, k) for i in range(A.dim) for j in range(A.dim)
               for k in range(A.dim)]
        assert got == [_jacobi_triple_by_dicts(A, i, j, k) for i in range(A.dim)
                       for j in range(A.dim) for k in range(A.dim)]
    assert not all(got)  # the flipped copy fails somewhere, at the same triples


@pytest.mark.parametrize("fam", ["F4", "E6"])
def test_jacobi_table_matches_dict_brackets_on_seeded_triples(fam):
    A = cv.dense_algebra(cv.structure_constants(rs.build(fam)))
    rng = random.Random(5)
    for _ in range(10 ** 5):
        i, j, k = rng.randrange(A.dim), rng.randrange(A.dim), rng.randrange(A.dim)
        assert A._jacobi_triple(i, j, k) == _jacobi_triple_by_dicts(A, i, j, k)


@pytest.mark.parametrize("fam,rank", [("G2", 2), ("B", 3), ("F4", 4)])
def test_jacobi_full_catches_one_flipped_constant(fam, rank):
    R = rs.build(fam, rank)
    table = cv.structure_constants(R)._table
    for a, b in [min(table), max(table)]:
        A = _with_flipped_constant(R, a, b)
        A.verify_antisymmetry()
        with pytest.raises(cv.ChevalleyError, match="Jacobi fails"):
            A.verify_jacobi_full()
    # the original constants are untouched
    cv.dense_algebra(cv.structure_constants(R)).verify_jacobi_full()


def test_char_poly_blocks():
    F4 = rs.build("F4")
    CF = cv.structure_constants(F4)
    long_alpha = F4.root_index((1, -1, 0, 0))
    short_alpha = F4.root_index((1, 0, 0, 0))
    for alpha in (long_alpha, short_alpha):
        blocks = cv.ad_k_char_polys(CF, alpha)
        labels = [lab for lab, _ in blocks]
        assert "kernel" in labels and "cartan_pair" in labels
        for lab, poly in blocks:
            assert poly in cv.ADMITTED_POLYS
            if lab == "cartan_pair":
                assert poly == cv.POLY_L2P4
    # the dim-4 string block appears only for the short root of G2
    G = rs.build("G2")
    CG = cv.structure_constants(G)
    short = G.root_index((1, -1, 0))
    polys = {p for _, p in cv.ad_k_char_polys(CG, short)}
    assert cv.POLY_L2P1_L2P9 in polys
    # eigenvalues are distinct per block: squarefree polynomials only
    for _, p in cv.ad_k_char_polys(CG, short):
        assert p in cv.ADMITTED_POLYS


def test_exp_quarter_turn():
    B2 = rs.build("B", 2)
    A = cv.dense_algebra(cv.structure_constants(B2))
    b = B2.root_index((1, 1))
    E = cv.exp_quarter_pi_adk(A, [b])
    Einv = cv.exp_quarter_pi_adk(A, [b], sign=-1)
    assert E.compose(Einv).is_identity()
    # image of T_beta is the coroot
    img = E.apply(A.t_elem(b))
    assert img == {k: la.Qrt2.of(c) for k, c in A.coroot_elem(b).items()}
    # fixes Cartan vectors orthogonal to beta
    h = {0: F(1)}  # H_{e1-e2}
    assert E.apply(h) == {0: la.Qrt2(1)}
    # strong orthogonality is required
    e1 = B2.root_index((1, 0))
    e2 = B2.root_index((0, 1))
    with pytest.raises(cv.ChevalleyError):
        cv.exp_quarter_pi_adk(A, [e1, e2])


def test_exp_multi_root_commutes():
    D4 = rs.build("D", 4)
    A = cv.dense_algebra(cv.structure_constants(D4))
    b1 = D4.root_index((1, -1, 0, 0))
    b2 = D4.root_index((0, 0, 1, -1))
    e12 = cv.exp_quarter_pi_adk(A, [b1, b2])
    e21 = cv.exp_quarter_pi_adk(A, [b2, b1])
    assert e12.equals(e21)
    assert e12.compose(cv.exp_quarter_pi_adk(A, [b1, b2], sign=-1)).is_identity()


def test_apply_map_reports():
    B2 = rs.build("B", 2)
    A = cv.dense_algebra(cv.structure_constants(B2))
    ident = cv.LinearMap.identity(A)
    rep = cv.apply_map(A, ident)
    assert rep.is_automorphism and rep.is_involution
    # the split-vs-compact flip: H -> -H, X_a -> X_{-a}
    neg = B2.negation_map
    cols = {}
    for k in range(A.rank):
        cols[k] = {k: la.Qrt2(-1)}
    for i in range(len(B2.roots)):
        cols[A.rank + i] = {A.rank + neg[i]: la.Qrt2(1)}
    tau = cv.LinearMap(A, cols)
    rep = cv.apply_map(A, tau)
    assert rep.is_automorphism and rep.is_involution
    # a broken map is reported with a violation list
    cols = {i: {i: la.Qrt2(1)} for i in range(A.dim)}
    cols[A.rank] = {A.rank: la.Qrt2(2)}
    bad = cv.LinearMap(A, cols)
    rep = cv.apply_map(A, bad, check_involution=False)
    assert not rep.is_automorphism and rep.violations


def test_qrt2_field():
    x = la.Qrt2(1, 1)
    assert x * x == la.Qrt2(3, 2)
    assert (x / x) == la.Qrt2(1)
    assert x.inverse() * x == la.Qrt2(1)
    assert not la.Qrt2(0)
    assert la.SQRT2_HALF * la.SQRT2_HALF == la.Qrt2(F(1, 2))


def test_qrt2_hashes_like_equal_numbers():
    assert {la.Qrt2(1): 0}.get(1) == 0
    assert hash(la.Qrt2(F(1, 2))) == hash(F(1, 2))
    assert len({la.Qrt2(F(-3, 4)), F(-3, 4), la.Qrt2(-3, 0) / 4}) == 1
    assert hash(la.Qrt2(1, 1)) == hash(la.Qrt2(1) + la.Qrt2(0, 1))


def test_dense_algebra_is_integral():
    for fam, rank in [("G2", 2), ("B", 3), ("C", 3)]:
        A = cv.DenseAlgebra(cv.structure_constants(rs.build(fam, rank)))
        coeffs = [c for i in range(A.dim) for j in range(A.dim)
                  for c in A.bracket_basis(i, j).values()]
        assert coeffs and all(type(c) is int for c in coeffs)


def test_non_integral_coroot_names_the_root():
    R = rs.RootSystem(rs.RootSystemSpec("B", 2))  # a private system: its chamber is altered
    C = cv.ChevalleySystem(R)
    i = R.root_index((1, 1))  # alpha_1 + 2 alpha_2, with coroot H_1 + H_2
    assert C.coroot_coords(i) == (1, 1)
    ch = R.canonical_chamber()
    rows = list(ch._coord_rows)
    rows[i] = (1, 1)  # would give the coroot H_1 + H_2/2
    ch.__dict__["_coord_rows"] = tuple(rows)
    with pytest.raises(cv.ChevalleyError, match="the coroot of %s has a non-integral"
                       % re.escape(R.root_name(i))):
        C.coroot_coords(i)


def test_csv_dump():
    A2 = rs.build("A", 2)
    text = cv.structure_constants(A2).csv_dump()
    lines = text.strip().split("\n")
    assert lines[0] == "alpha_index,beta_index,N"
    assert len(lines) > 1
    for line in lines[1:]:
        a, b, n = line.split(",")
        assert int(n) != 0
