"""Root system construction, chamber geometry and lattice tests."""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cartanclass import _linalg as la
from cartanclass import rootsys as rs
from cartanclass import weylgroup as wg
import reference_linalg as rl

F = Fraction


def zeta(plus_indices, n: int = 8):
    """Half-integer vector with +1/2 at the given 1-based positions, -1/2 elsewhere."""
    plus = set(plus_indices)
    return tuple(F(1, 2) if i + 1 in plus else F(-1, 2) for i in range(n))


def fundamental_coweights(R):
    """Vectors pairing to 1 with one canonical simple root, 0 with the rest,
    by a rational solve per simple root."""
    basis_vecs = [R.roots[b] for b in R.canonical_basis]
    cols = [tuple(bv[m] for bv in basis_vecs) for m in range(R.dim)]
    out = tuple(la.solve(cols, rl.unit_vec(len(basis_vecs), j)) for j in range(len(basis_vecs)))
    assert None not in out
    return out


def pairing_vec(xi, eta):
    """<xi, eta^vee> = 2 (xi, eta) / (eta, eta) in Fraction arithmetic."""
    d = la.vdot(eta, eta)
    if d == 0:
        raise ValueError("pairing against the zero vector")
    return 2 * la.vdot(xi, eta) / d


def reflect_vec(xi, alpha):
    """The reflection of the vector xi across alpha in Fraction arithmetic:
    the rational reference for the reflection permutations."""
    return rl.vsub(xi, rl.vscale(pairing_vec(xi, alpha), alpha))


def witness(R, ch):
    """A vector pairing to 1 with every simple root of the chamber."""
    cols = [tuple(R.roots[b][j] for b in ch.basis) for j in range(R.dim)]
    return la.solve(cols, (1,) * len(ch.basis))


def coweight_sum(R):
    """The regular vector pairing to 1 with every canonical simple root."""
    return functools.reduce(rl.vadd, fundamental_coweights(R), rl.zero_vec(R.dim))


COUNTS = {
    ("A", 2): 6, ("A", 3): 12, ("B", 2): 8, ("B", 3): 18, ("C", 3): 18,
    ("C", 4): 32, ("D", 4): 24, ("D", 5): 40, ("G2", 2): 12, ("F4", 4): 48,
    ("E6", 6): 72, ("E7", 7): 126, ("E8", 8): 240,
}


@pytest.mark.parametrize("fam,rank", sorted(COUNTS))
def test_counts_and_basis(fam, rank):
    R = rs.build(fam, rank)
    assert len(R) == COUNTS[(fam, rank)]
    assert len(R.canonical_basis) == R.rank == rank
    ch = R.canonical_chamber()
    assert 2 * len(ch.positive_set) == len(R)
    # canonical basis roots are simple in the canonical chamber
    assert set(R.canonical_basis) <= ch.positive_set


def test_prime_realizations():
    for fam in ("E6", "E7"):
        Rp = rs.build(fam, realization="prime")
        Rs = rs.build(fam)
        assert len(Rp) == len(Rs)
    with pytest.raises(rs.RootSystemError):
        rs.RootSystemSpec("F4", realization="prime")
    with pytest.raises(rs.RootSystemError):
        rs.RootSystemSpec("B", 1)


def test_e8_norms_and_g2_norms():
    E8 = rs.build("E8")
    assert all(E8.norm2(i) == 2 for i in range(len(E8)))
    G = rs.build("G2")
    norms = [G.norm2(i) for i in range(len(G))]
    assert norms.count(F(2)) == 6 and norms.count(F(6)) == 6


def test_dot_and_pairing_examples():
    E8 = rs.build("E8")
    zeta0 = zeta(())
    assert la.vdot(zeta0, zeta0) == 2
    A2 = rs.build("A", 2)
    a1 = A2.root_index((1, -1, 0))
    a2 = A2.root_index((0, 1, -1))
    assert la.vdot(A2.roots[a1], A2.roots[a2]) == -1
    assert A2.pairing(a1, a1) == 2
    B2 = rs.build("B", 2)
    assert pairing_vec((1, 0), (1, -1)) == 1
    G = rs.build("G2")
    i = G.root_index((1, -1, 0))
    j = G.root_index((-1, -1, 2))
    assert la.vdot(G.roots[i], G.roots[j]) == 0 and G.pairing(i, j) == 0


def test_reflect_examples():
    A2 = rs.build("A", 2)
    a1 = A2.root_index((1, -1, 0))
    assert reflect_vec(A2.roots[a1], A2.roots[a1]) == A2.roots[A2.negation_map[a1]]
    a2 = A2.root_index((0, 1, -1))
    assert reflect_vec(A2.roots[a2], A2.roots[a1]) == (F(1), F(0), F(-1))
    assert A2.roots[A2.reflection_perm(a1)[a2]] == (F(1), F(0), F(-1))


def test_root_string_examples():
    A2 = rs.build("A", 2)
    a1 = A2.root_index((1, -1, 0))
    a2 = A2.root_index((0, 1, -1))
    assert A2.root_string(a2, a1) == (1, 0)
    G = rs.build("G2")
    a = G.root_index((1, -1, 0))
    b = G.root_index((-2, 1, 1))
    assert G.root_string(b, a) == (3, 0)
    D4 = rs.build("D", 4)
    i = D4.root_index((1, -1, 0, 0))
    j = D4.root_index((0, 0, 1, -1))
    assert D4.root_string(j, i) == (0, 0)
    with pytest.raises(rs.RootSystemError):
        A2.root_string(a1, a1)


def test_coords_in_basis_examples():
    B2 = rs.build("B", 2)
    ch = B2.canonical_chamber()
    i = B2.root_index((1, 1))
    assert ch.coords(i) == (1, 2)
    assert ch.q_degree(i) == 3
    assert frozenset(b for b, c in zip(ch.basis, ch.coords(i)) if c) == frozenset(ch.basis)
    for b in ch.basis:
        cs = ch.coords(b)
        assert sorted(cs) == [0, 1]
    E8 = rs.build("E8")
    ch8 = E8.canonical_chamber()
    hi = max(ch8.positive_set, key=ch8.q_degree)
    assert E8.roots[hi] == rl.vec((0, 0, 0, 0, 0, 0, 1, -1))
    assert ch8.q_degree(hi) == 29


def test_coords_round_trip():
    for fam, rank in [("B", 3), ("G2", 2), ("F4", 4)]:
        R = rs.build(fam, rank)
        ch = R.canonical_chamber()
        for i in range(len(R)):
            cs = ch.coords(i)
            acc = rl.zero_vec(R.dim)
            for c, b in zip(cs, ch.basis):
                acc = rl.vadd(acc, rl.vscale(c, R.roots[b]))
            assert acc == R.roots[i]
            assert all(c >= 0 for c in cs) or all(c <= 0 for c in cs)


def test_strongly_orthogonal_examples():
    B2 = rs.build("B", 2)
    e1 = B2.root_index((1, 0))
    e2 = B2.root_index((0, 1))
    assert la.vdot(B2.roots[e1], B2.roots[e2]) == 0
    assert not B2.is_strongly_orthogonal(e1, e2)
    assert not B2.is_strongly_orthogonal(e1, e1)
    assert not B2.is_strongly_orthogonal(e1, B2.negation_map[e1])
    D4 = rs.build("D", 4)
    assert D4.is_strongly_orthogonal(D4.root_index((1, -1, 0, 0)),
                                     D4.root_index((0, 0, 1, -1)))


def test_strong_orthogonality_vs_orthogonality():
    # strongly orthogonal implies orthogonal; converse holds when one is long
    for fam, rank in [("B", 3), ("C", 3), ("F4", 4), ("G2", 2)]:
        R = rs.build(fam, rank)
        for i in range(len(R)):
            for j in range(len(R)):
                if j in (i, R.negation_map[i]):
                    continue
                if R.is_strongly_orthogonal(i, j):
                    assert la.vdot(R.roots[i], R.roots[j]) == 0
                elif la.vdot(R.roots[i], R.roots[j]) == 0:
                    assert not (R.is_long(i) or R.is_long(j))


def test_chamber_from_witness():
    A2 = rs.build("A", 2)
    ch = A2.chamber_from_witness((2, 1, 0))
    basis_vecs = {A2.roots[b] for b in ch.basis}
    assert basis_vecs == {(F(1), F(-1), F(0)), (F(0), F(1), F(-1))}
    assert not rl.is_regular(A2, (0, 0, 0))
    with pytest.raises(rs.RootSystemError):
        A2.chamber_from_witness((0, 0, 0))
    B2 = rs.build("B", 2)
    ch2 = B2.chamber_from_witness((2, 1))
    pos = {B2.roots[i] for i in ch2.positive_set}
    assert pos == {(F(1), F(0)), (F(0), F(1)), (F(1), F(1)), (F(1), F(-1))}


def _rational_chamber_from_simple_basis(R, idxs):
    """The chamber of a vector pairing to 1 with every given root, or None
    when there is none or its chamber has another basis."""
    w = witness(R, rs.Chamber(R, tuple(idxs)))
    if w is None or not rl.is_regular(R, w):
        return None
    ch = R.chamber_from_witness(w)
    return ch if set(ch.basis) == set(idxs) else None


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G2", 2), ("A", 3), ("B", 3), ("C", 3)])
def test_chamber_from_simple_basis_matches_rational_on_every_rank_subset(fam, rank):
    R = rs.build(fam, rank)
    accepted = 0
    for idxs in itertools.combinations(range(len(R)), R.rank):
        want = _rational_chamber_from_simple_basis(R, idxs)
        try:
            got = R.chamber_from_simple_basis([R.roots[i] for i in idxs])
        except rs.RootSystemError:
            got = None
        assert got == want, idxs
        accepted += got is not None
    assert accepted == wg.weyl_group(R).order  # one basis per chamber


def test_chamber_from_simple_basis_rejects():
    B2 = rs.build("B", 2)
    for bad in ([(1, 0), (0, 1)], [(1, -1)], [(1, -1), (0, 1), (1, 0)], [(1, 1), (2, 0)]):
        with pytest.raises(rs.RootSystemError):
            B2.chamber_from_simple_basis(bad)


def test_witness_reproduces_canonical_chamber():
    for fam, rank in [("A", 3), ("B", 2), ("F4", 4), ("E6", 6)]:
        R = rs.build(fam, rank)
        w = coweight_sum(R)
        ch = R.chamber_from_witness(w)
        assert set(ch.basis) == set(R.canonical_basis)


def test_in_dual_lattice_examples():
    G = rs.build("G2")
    assert G.in_dual_lattice((1, 0, 0))
    C3 = rs.build("C", 3)
    assert C3.in_dual_lattice((F(1, 2), F(1, 2), F(1, 2)))
    E8 = rs.build("E8")
    assert not E8.in_dual_lattice((1, F(1, 2), 0, 0, 0, 0, 0, 0))
    with pytest.raises(rs.RootSystemError, match="G2: the vector has 2 coordinates"):
        G.in_dual_lattice((1, 0))
    # the simple roots decide: the same answer as a scan of every root
    seen = set()
    for R in (G, C3, E8, rs.build("F4"), rs.build("B", 3)):
        for bits in range(1 << R.dim):
            for c in (F(1, 2), F(1, 3)):
                om = tuple(c if bits >> m & 1 else m for m in range(R.dim))
                got = R.in_dual_lattice(om)
                assert got == all(sum(a * b for a, b in zip(r, om)).denominator == 1
                                  for r in R.roots)
                seen.add((R.spec.label, got))
    assert len(seen) == 10


def test_union_and_empty():
    spec = rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 1),
                                      rs.RootSystemSpec("A", 1)))
    U = rs.build(spec)
    assert len(U) == 4 and U.dim == 4 and U.rank == 2
    empty = rs.build(rs.RootSystemSpec(factors=()))
    assert len(empty) == 0 and empty.rank == 0


def test_json_round_trip_shape():
    import json
    R = rs.build("B", 2)
    data = json.loads(R.to_json_str())
    assert data["family"] == "B2" and data["ambient_dim"] == 2
    assert len(data["roots"]) == 8 and len(data["basis"]) == 2


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([("A", 2), ("B", 2), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]),
       st.integers(min_value=0, max_value=10_000))
def test_reflection_closure_property(famrank, seed):
    R = rs.build(*famrank)
    n = len(R)
    i = seed % n
    j = (seed // n) % n
    img = reflect_vec(R.roots[j], R.roots[i])
    assert rl.contains_vector(R, img)
    assert R.roots[R.reflection_perm(i)[j]] == img
    p = R.pairing(j, i)
    assert p in (-3, -2, -1, 0, 1, 2, 3)
    if p in (-3, 3):
        assert R.spec.family == "G2"


def test_pairing_range_full_scan():
    for fam, rank in [("E6", 6), ("F4", 4), ("G2", 2)]:
        R = rs.build(fam, rank)
        seen = set()
        for i in range(len(R)):
            for j in range(len(R)):
                if j == i or j == R.negation_map[i]:
                    continue
                p, q = R.root_string(j, i)
                assert 0 <= p + q <= 3
                seen.add(R.pairing(i, j))
        assert seen <= {-3, -2, -1, 0, 1, 2, 3}


_A2, _B2 = rs.RootSystemSpec("A", 2), rs.RootSystemSpec("B", 2)
PAIRING_SPECS = [rs.RootSystemSpec(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                 for n in range(lo, 9)]
PAIRING_SPECS += [rs.RootSystemSpec(f, realization=r) for f, r in
                  (("E6", "standard"), ("E6", "prime"), ("E7", "standard"),
                   ("E7", "prime"), ("E8", "standard"), ("F4", "standard"),
                   ("G2", "standard"))]
PAIRING_SPECS += [rs.RootSystemSpec(factors=(_A2, _A2)),
                  rs.RootSystemSpec(factors=(_B2, _B2, rs.RootSystemSpec("G2")))]


@pytest.mark.parametrize("spec", PAIRING_SPECS, ids=lambda s: s.label)
def test_scalar_pairing_and_key_orthogonality_match_the_tables(spec):
    """On every pair of roots: the scalar pairing, made before any row
    exists, equals the pairing row's entry, and the key-based strong
    orthogonality equals its definition on the sum table."""
    R = rs.RootSystem(spec)  # not the cached build, so no row exists yet
    n, neg = len(R), R.negation_map
    scalars = [[R.pairing(i, j) for j in range(n)] for i in range(n)]
    assert len(R.pairing_matrix) == 0
    assert scalars == [list(R.pairing_matrix[i]) for i in range(n)]
    again = [R.pairing(i, j) for i in range(n) for j in range(n)]  # now read from the rows
    assert again == [p for row in scalars for p in row]
    st = R.sum_table
    so = [[j not in (i, neg[i]) and st[i][j] < 0 and st[i][neg[j]] < 0 for j in range(n)]
          for i in range(n)]
    assert [[R.is_strongly_orthogonal(i, j) for j in range(n)] for i in range(n)] == so
    # B, C and F4 have orthogonal short roots whose sum is a root
    orth_not_so = any(scalars[i][j] == 0 and not so[i][j] for i in range(n) for j in range(n))
    assert orth_not_so == (spec.family in ("B", "C", "F4") or spec.factors is not None
                           and spec.label.startswith("B2"))


def test_height_order_is_height_then_root_vector():
    for fam, rank in [("B", 3), ("F4", 4), ("E6", 6)]:
        R = rs.build(fam, rank)
        w = reflect_vec(coweight_sum(R), R.roots[0])
        ch = R.chamber_from_witness(w)
        assert ch.positive_set == frozenset(
            i for i, r in enumerate(R.roots) if la.vdot(r, w) > 0)
        for c in (R.canonical_chamber(), ch):
            want = sorted(c.positive_set, key=lambda i: (c.q_degree(i), R.roots[i]))
            assert list(c.height_order) == want
            assert c.height_order is c.height_order


def test_build_caches_by_normalised_spec():
    F4 = rs.build("F4")
    assert rs.build("F4", 4) is F4
    assert rs.build(rs.RootSystemSpec("F4")) is F4
    assert rs.build(rs.RootSystemSpec("F4", 4)) is F4
    assert rs.build("B", 3) is rs.build(rs.RootSystemSpec("B", 3, "standard"))
    assert rs.build("E6", realization="prime") is not rs.build("E6")
    with pytest.raises(rs.RootSystemError):
        rs.build("F4", 5)


def test_root_name():
    B2 = rs.build("B", 2)
    i = B2.root_index((1, -1))
    assert B2.root_name(i) == "B2 root %d (1, -1)" % i


# -- the root generator and the dual-vector table against their references ----------
#
# The references are the code the program used before it assigned the nonzero
# slots of each integer root directly: unit vectors summed coordinate by
# coordinate, negation looked up per root, and the dual-vector table in
# Fraction vector arithmetic.


def _e(i, n, c=1):
    return tuple(c * (k == i - 1) for k in range(n))


def _add(*vs):
    return tuple(map(sum, zip(*vs)))


def _pm_pairs(n, c=1):
    return [_add(_e(i, n, si * c), _e(j, n, sj * c))
            for i in range(1, n + 1) for j in range(i + 1, n + 1)
            for si in (1, -1) for sj in (1, -1)]


def _reference_roots_for(spec):
    fam, rk = spec.family, spec.rank
    if fam in ("A", "G2"):
        n = 3 if fam == "G2" else rk + 1
        roots = [_add(_e(i, n), _e(j, n, -1)) for i in range(1, n + 1)
                 for j in range(1, n + 1) if i != j]
        if fam == "A":
            return 1, roots, [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(1, n)]
        roots += [_add(_e(i, n, 2 * s), *(_e(j, n, -s) for j in range(1, 4) if j != i))
                  for i in range(1, 4) for s in (1, -1)]
        return 1, roots, [(1, -1, 0), (-2, 1, 1)]
    if fam in ("B", "C", "D"):
        n = rk
        basis = [_add(_e(i, n), _e(i + 1, n, -1)) for i in range(1, n)]
        if fam == "D":
            return 1, _pm_pairs(n), basis + [_add(_e(n - 1, n), _e(n, n))]
        c = 1 if fam == "B" else 2
        roots = _pm_pairs(n) + [_e(i, n, s * c) for i in range(1, n + 1) for s in (1, -1)]
        return 1, roots, basis + [_e(n, n, c)]
    if fam == "F4":
        roots = [_e(i, 4, 2 * s) for i in range(1, 5) for s in (1, -1)] + _pm_pairs(4, 2)
        roots += list(itertools.product((1, -1), repeat=4))
        return 2, roots, [(2, -2, 0, 0), (0, 2, -2, 0), (0, 0, 2, 0), (-1, -1, -1, 1)]
    e8 = _pm_pairs(8, 2) + [s for s in itertools.product((1, -1), repeat=8)
                            if s.count(1) % 2 == 0]
    if spec.realization == "standard":
        walls = [_add(_e(7, 8), _e(8, 8, -1)), _add(_e(6, 8), _e(7, 8, -1))][:8 - rk]
        basis = [(-1,) * 8, _add(_e(1, 8, 2), _e(2, 8, 2))] + \
            [_add(_e(i - 1, 8, 2), _e(i - 2, 8, -2)) for i in range(3, rk + 1)]
    else:
        walls = [(1,) * 8, _add(_e(7, 8), _e(8, 8))][:8 - rk]
        basis = [_add(_e(i, 8, 2), _e(i + 1, 8, -2)) for i in range(1, rk)] + \
            [(-1, -1, -1, 1, 1, 1, 1, -1)]
    roots = [r for r in e8 if not any(sum(a * b for a, b in zip(r, w)) for w in walls)]
    return 2, roots, basis


def _reference_fields(spec):
    """(_int_roots, canonical_basis, negation_map, _norms) as the reference
    generator and per-root negation lookup give them; a union pads each
    factor's scaled vectors into its own block of coordinates."""
    parts = [_reference_roots_for(f) for f in (spec.factors or (spec,))]
    den = math.lcm(*(p[0] for p in parts))
    dim = sum(len(p[1][0]) for p in parts)
    roots, basis, offset = [], [], 0
    for d, rts, bas in parts:
        k = len(rts[0])
        pad = [(0,) * offset + tuple(den // d * x for x in r) + (0,) * (dim - offset - k)
               for r in rts + bas]
        roots, basis, offset = roots + pad[:len(rts)], basis + pad[len(rts):], offset + k
    ints = tuple(sorted(set(roots)))
    index = {r: i for i, r in enumerate(ints)}
    return (ints, tuple(index[b] for b in basis),
            tuple(index[tuple(-x for x in r)] for r in ints),
            tuple(sum(x * x for x in r) for r in ints))


GENERATOR_SPECS = [rs.RootSystemSpec(f, n) for f, lo in (("A", 1), ("B", 2), ("C", 3), ("D", 4))
                   for n in range(lo, 17)]
GENERATOR_SPECS += PAIRING_SPECS[-9:]  # the exceptional systems and the two unions


@pytest.mark.parametrize("spec", GENERATOR_SPECS, ids=lambda s: s.label)
def test_root_generator_matches_the_unit_vector_sums(spec):
    R = rs.RootSystem(spec)  # not the cached build
    assert (R._int_roots, R.canonical_basis, R.negation_map, R._norms) == \
        _reference_fields(spec)
    assert all(R._int_roots[R.negation_map[i]] == tuple(-x for x in r)
               for i, r in enumerate(R._int_roots))


def test_generator_covers_the_specs():
    labels = [s.label for s in GENERATOR_SPECS]
    assert len(labels) == 16 + 15 + 14 + 13 + 9 and len(set(labels)) == len(labels)
    assert labels[-9:] == ["E6", "E6'", "E7", "E7'", "E8", "F4", "G2", "A2+A2", "B2+B2+G2"]


def test_a_realization_not_closed_under_negation_is_an_internal_error(monkeypatch):
    den, roots, basis = rs._roots_for(rs.RootSystemSpec("A", 2))
    monkeypatch.setattr(rs, "_roots_for", lambda spec: (den, roots[:-1], basis[:1]))
    with pytest.raises(AssertionError, match="^A2: the realization is not closed under negation$"):
        rs.RootSystem(rs.RootSystemSpec("A", 2))


def _unit(i, n):
    """e_i, the i-th unit vector of Q^n numbered from 1, as the catalogs write it."""
    return rl.unit_vec(n, i - 1)


def _reference_standard_max_sos(system):
    e, add, sub = _unit, rl.vadd, rl.vsub
    fam, rank, n = system.spec.family, system.rank, system.dim
    if fam == "A":
        vecs = [sub(e(2 * i - 1, n), e(2 * i, n)) for i in range(1, (rank + 1) // 2 + 1)]
    elif fam in ("B", "D"):
        vecs = [f(e(2 * i - 1, n), e(2 * i, n)) for i in range(1, rank // 2 + 1)
                for f in (sub, add)]
        if fam == "B" and rank % 2:
            vecs.append(e(rank, n))
    elif fam == "C":
        r1 = rank // 2 if rank % 2 == 0 else (rank - 1) // 2
        vecs = [add(e(2 * i - 1, n), e(2 * i, n)) for i in range(1, r1 + 1)]
        vecs += [rl.vscale(2, e(2 * r1 + i, n)) for i in range(1, rank - 2 * r1 + 1)]
    elif fam == "G2":
        vecs = [sub(e(1, n), e(2, n)), sub(add(e(1, n), e(2, n)), rl.vscale(2, e(3, n)))]
    else:
        pairs = {"E6": 2, "F4": 2, "E7": 3, "E8": 4}[fam]
        vecs = [f(e(2 * i - 1, n), e(2 * i, n)) for i in range(1, pairs + 1) for f in (sub, add)]
        if fam == "E7":
            vecs.append(add(e(7, n), e(8, n)))
    return [system.root_index(v) for v in vecs]


def _reference_dual_vector(system):
    fam, rank, n = system.spec.family, system.rank, system.dim
    if fam == "C":
        return tuple(F(1, 2) for _ in range(n))
    h = {"A": (rank + 1) // 2, "B": (rank + 1) // 2, "D": rank // 2, "E6": 2, "F4": 2,
         "E7": 4, "E8": 4, "G2": 1}[fam]
    out = rl.zero_vec(n)
    for i in range(1, h + 1):
        out = rl.vadd(out, _unit(2 * i - 1, n))
    if fam == "A":
        out = rl.vsub(out, rl.vscale(F(h, rank + 1), tuple(la.ONE for _ in range(n))))
    return out


def test_dual_vector_table_matches_the_rational_reference():
    from cartanclass import tables
    systems = [rs.build(f, r) for f, r in
               [("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
               + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
               + [(f, None) for f in ("E6", "E7", "E8", "F4", "G2")]]
    want = [(R.spec.label, R, _reference_dual_vector(R), _reference_standard_max_sos(R))
            for R in systems]
    F4 = rs.build("F4")
    want.append(("F4'", F4, _reference_dual_vector(F4),
                 [F4.root_index(v) for v in [(1, -1, 0, 0), (1, 1, 0, 0), (0, 0, 1, 0)]]))
    rows = tables.dual_vector_table()
    assert rows == want
    assert all(type(x) is F for _, _, omega, _ in rows for x in omega)
    C4 = rs.build("C", 4)
    assert tables.compact_chain_sos(C4) == [C4.root_index(rl.vscale(2, _unit(i, 4)))
                                            for i in range(1, 5)]
