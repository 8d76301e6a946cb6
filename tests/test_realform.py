"""Sign-function data: lifts, twists, transforms, identification."""

import copy
import functools
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cartanclass import _linalg as la
from cartanclass import chevalley as cv
from cartanclass import diagram as dg, involution as iv, realform as rf, rootsys as rs
from cartanclass import weylgroup as wg
from test_rootsys import fundamental_coweights
import reference_linalg as rl

F = Fraction


def _pairing_parities(system, chamber, omega):
    """The bitmask of the chamber's simple roots that pair oddly with omega,
    and the first simple root whose pairing is not an integer (None when
    all are: every root is an integer combination of simple roots)."""
    omega = tuple(F(x) for x in omega)
    if len(omega) != system.dim:
        raise rf.RealFormError("%s: the vector has %d coordinates, the roots have %d"
                               % (system.spec.label, len(omega), system.dim))
    mask = 0
    for k, b in enumerate(chamber.basis):
        d = system.pairing_with(b, omega)
        if d.denominator != 1:
            return mask, b
        mask |= (d.numerator & 1) << k
    return mask, None


def eta_from_omega(system, omega, chamber=None):
    """The sign character alpha -> (-1)^<alpha, omega> of a vector pairing
    integrally with the roots, as a rf.SignHom on the chamber (the canonical
    one by default).  The program makes every character from a mask."""
    chamber = chamber or system.canonical_chamber()
    mask, bad = _pairing_parities(system, chamber, omega)
    if bad is not None:
        raise rf.RealFormError("vector does not pair integrally with %s"
                               % system.root_name(bad))
    return rf.SignHom(system, mask=mask, chamber=chamber)


def in_hom_theta(theta, eta):
    """rf.in_hom_theta, also on a vector: one off the dual lattice defines
    no character and is not compatible."""
    if not isinstance(eta, rf.SignHom):
        mask, bad = _pairing_parities(theta.system, theta.system.canonical_chamber(), eta)
        if bad is not None:
            return False
        eta = rf.SignHom(theta.system, mask=mask)
    return rf.in_hom_theta(theta, eta)


def test_eta_from_omega():
    G2 = rs.build("G2")
    eta = eta_from_omega(G2, (1, 0, 0))
    assert eta(G2.root_index((1, -1, 0))) == -1
    assert eta(G2.root_index((0, 1, -1))) == 1
    zero = eta_from_omega(G2, (0, 0, 0))
    assert all(zero(i) == 1 for i in range(len(G2)))
    with pytest.raises(rf.RealFormError):
        eta_from_omega(rs.build("E8"), (1, F(1, 2), 0, 0, 0, 0, 0, 0))


def test_in_hom_theta():
    B2 = rs.build("B", 2)
    anti = iv.antipodal_involution(B2)
    for om in [(1, 0), (0, 1), (1, 1), (2, 1)]:
        assert in_hom_theta(anti, om)
    A3 = rs.build("A", 3)
    th = iv.from_reflections(A3, [(1, -1, 0, 0), (0, 0, 1, -1)])
    om = (1, 0, 1, 0)
    assert in_hom_theta(th, om)
    eta = eta_from_omega(A3, om)
    assert eta(A3.root_index((1, -1, 0, 0))) == -1
    assert eta(A3.root_index((0, 0, 1, -1))) == -1
    # theta(omega) = -omega always qualifies
    om2 = (1, -1, 0, 0)
    assert th.apply_vec(om2) == rl.vneg(rl.vec(om2))
    assert in_hom_theta(th, om2)
    # an incompatible vector: pairs oddly against alpha - theta(alpha)
    A2 = rs.build("A", 2)
    th_a = iv.from_reflections(A2, [(1, -1, 0)])
    assert not in_hom_theta(th_a, (1, 0, 0))


def _ref_sign(R, omega, i):
    """The rational definition: (-1)^<alpha_i, omega>, or None when the
    pairing is not an integer."""
    d = la.vdot(R.roots[i], rl.vec(omega))
    return None if d.denominator != 1 else (-1 if d.numerator % 2 else 1)


def _ref_in_hom_theta(theta, omega):
    """The rational definition: omega pairs integrally with every root and
    evenly with alpha - theta(alpha) for every root."""
    R = theta.system
    om = rl.vec(omega)
    if any(_ref_sign(R, om, i) is None for i in range(len(R))):
        return False
    return all(la.vdot(la.vsub(R.roots[i], R.roots[theta(i)]), om) % 2 == 0
               for i in range(len(R)))


_SIGN_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", None), ("F4", None),
                 ("E6", None)]


@pytest.mark.parametrize("fam,rank", _SIGN_SYSTEMS)
def test_sign_hom_matches_rational_definition(fam, rank):
    R = rs.build(fam, rank)
    cw = fundamental_coweights(R)
    thetas = ([iv.identity_involution(R), iv.antipodal_involution(R)]
              + [t for _, t in iv.table2_representatives(R)])
    # small integer combinations of the coweights, halves of them (mostly
    # off the dual lattice), and unit vectors of the ambient space
    vectors = [la.zero_vec(R.dim)] + list(cw)
    vectors += [la.vadd(cw[k], cw[(k + 1) % len(cw)]) for k in range(len(cw))]
    vectors += [la.vscale(F(1, 2), v) for v in vectors[1:4]]
    vectors += [la.unit_vec(R.dim, k) for k in range(R.dim)]
    chambers = [R.canonical_chamber()] + [dg.find_s_chamber(t) for t in thetas[1:3]]
    for om in vectors:
        ref = [_ref_sign(R, om, i) for i in range(len(R))]
        for th in thetas:
            assert in_hom_theta(th, om) == _ref_in_hom_theta(th, om)
        if None in ref:
            with pytest.raises(rf.RealFormError, match="does not pair integrally"):
                eta_from_omega(R, om)
            continue
        for ch in chambers:
            eta = eta_from_omega(R, om, chamber=ch)
            assert [eta(i) for i in range(len(R))] == ref
            again = rf.SignHom(R, mask=eta.mask, chamber=ch)
            assert [again(i) for i in range(len(R))] == ref
            for th in thetas:
                assert rf.in_hom_theta(th, eta) == _ref_in_hom_theta(th, om)


@pytest.mark.parametrize("fam,rank", _SIGN_SYSTEMS)
def test_omega_for_targets_gives_the_target_signs(fam, rank):
    """The character read off the integer solve is (-1)^target on each
    requested root and, with parity_of given, respects that involution."""
    R = rs.build(fam, rank)
    thetas = ([iv.identity_involution(R), iv.antipodal_involution(R)]
              + [t for _, t in iv.table2_representatives(R)])
    solved = 0
    for theta in thetas:
        eps, b_set = iv.decompose(theta)
        for targets in ([1] * len(b_set), [k % 2 for k in range(len(b_set))]):
            for parity_of in (None, eps, theta):
                eta = rf.omega_for_targets(R, b_set, targets, parity_of=parity_of)
                if eta is None:
                    continue
                solved += 1
                assert [eta(b) for b in b_set] == [(-1) ** t for t in targets]
                if parity_of is not None:
                    assert rf.in_hom_theta(parity_of, eta)
    assert solved > len(thetas)


def test_sign_hom_input_errors():
    G2 = rs.build("G2")
    with pytest.raises(rf.RealFormError, match=r"G2: .* 2 coordinates, the roots have 3"):
        eta_from_omega(G2, (1, 0))
    with pytest.raises(rf.RealFormError, match=r"G2: .* 2 coordinates, the roots have 3"):
        in_hom_theta(iv.identity_involution(G2), (1, 0))
    E8 = rs.build("E8")
    bad = (1, F(1, 2), 0, 0, 0, 0, 0, 0)
    first = next(b for b in E8.canonical_basis
                 if la.vdot(E8.roots[b], rl.vec(bad)).denominator != 1)
    with pytest.raises(rf.RealFormError, match=r"E8 root %d \(" % first):
        eta_from_omega(E8, bad)
    for kwargs in ({}, {"mask": 4}, {"mask": -1}):
        with pytest.raises(rf.RealFormError, match="G2: a sign character takes a bitmask "
                                                   "over the 2 simple roots"):
            rf.SignHom(G2, **kwargs)
    with pytest.raises(TypeError):  # a vector is no longer a character
        rf.SignHom(G2, (1, 0, 0))


def test_antiinvolution_errors_name_the_roots():
    B2 = rs.build("B", 2)
    s = rf.quasi_split_lift(iv.identity_involution(B2))
    i, j = B2.root_index((1, 0)), B2.root_index((0, 1))
    ni, nj = B2.negation_map[i], B2.negation_map[j]
    f = dict(s.f)
    f[i] = f[ni] = -f[i]
    with pytest.raises(rf.RealFormError,
                       match=r"cocycle law fails at B2 root \d+ \(.*\) and B2 root \d+ \("):
        rf.AntiInvolution(s.theta, f)
    rot = iv.from_reflections(B2, [(1, 0)])
    with pytest.raises(rf.RealFormError, match=r"sign at B2 root %d \(1, 0\) differs from the "
                       r"sign at its image B2 root %d \(-1, 0\)" % (i, ni)):
        rf.AntiInvolution(rot, {i: 1, ni: -1})
    with pytest.raises(rf.RealFormError, match=r"sign at B2 root %d \(0, 1\) differs from the "
                       r"sign at its negative B2 root %d \(0, -1\)" % (j, nj)):
        rf.AntiInvolution(rot, {i: 1, ni: 1, j: 1, nj: -1})
    with pytest.raises(rf.RealFormError, match=r"sign 0 at B2 root %d \(1, 0\)" % i):
        rf.AntiInvolution(rot, {i: 0, ni: 0})


def test_lift_identity_is_split():
    for fam, rank in [("A", 1), ("B", 2), ("G2", 2)]:
        R = rs.build(fam, rank)
        s = rf.quasi_split_lift(iv.identity_involution(R))
        assert all(v == 1 for v in s.f.values())
        assert rf.identify(s).is_split


# dim k of the split form per family, as identify used to tabulate it
_SPLIT_DIM_K = {
    "A": lambda r: (r + 1) * r // 2,
    "B": lambda r: r * (r - 1) // 2 + (r + 1) * r // 2,
    "C": lambda r: r * r,
    "D": lambda r: r * (r - 1),
    "E6": lambda r: 36, "E7": lambda r: 63, "E8": lambda r: 120,
    "F4": lambda r: 24, "G2": lambda r: 6,
}


def test_split_dim_k_is_the_number_of_positive_roots():
    """identify calls a form split when dim k is len(R) // 2; that is the
    old table on every family up to rank 12, and a named form has it."""
    cases = [("A", r) for r in range(1, 13)] + [("B", r) for r in range(2, 13)] + \
        [("C", r) for r in range(3, 13)] + [("D", r) for r in range(4, 13)] + \
        [(f, None) for f in ("E6", "E7", "E8", "F4", "G2")]
    for fam, rank in cases:
        R = rs.build(fam, rank)
        assert len(R) // 2 == _SPLIT_DIM_K[fam](R.rank), R.spec.label
        assert rf._name_table(fam, R.rank).get(len(R) // 2), R.spec.label


def test_lift_b2_antipodal():
    B2 = rs.build("B", 2)
    s = rf.quasi_split_lift(iv.antipodal_involution(B2))
    longs = {B2.root_index(v) for v in [(1, 1), (1, -1), (-1, -1), (-1, 1)]}
    assert longs <= s.noncompact_set
    assert rf.is_quasi_split(s)
    assert rf.identify(s).name == "so(2,3)"


def test_lift_a5_su33():
    A5 = rs.build("A", 5)
    th = iv.from_reflections(A5, [(1, 0, 0, 0, 0, 1), (0, 1, 0, 0, 0, 0),
                                  (0, 0, 1, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                  (0, 0, 0, 0, 1, 0)])
    s = rf.quasi_split_lift(th)
    assert rf.identify(s).name == "su(3,3)"
    assert rf.signature(s).dim_k == 17
    assert rf.is_quasi_split(s)


def test_lift_is_automorphism_on_dense():
    B2 = rs.build("B", 2)
    s = rf.quasi_split_lift(iv.antipodal_involution(B2))
    A = cv.dense_algebra(s.constants)
    rep = cv.apply_map(A, rf.sigma_dense(A, s))
    assert rep.is_automorphism and rep.is_involution


def test_lift_nontrivial_special_part():
    # lifts over involutions with a special factor (flip types)
    A4 = rs.build("A", 4)
    rows = dict(iv.table2_representatives(A4))
    for lab in ("e0", "e1", "e2"):
        th = rows[lab]
        s = rf.quasi_split_lift(th)
        assert rf.is_quasi_split(s)
    A3 = rs.build("A", 3)
    rows3 = dict(iv.table2_representatives(A3))
    s = rf.quasi_split_lift(rows3["e1"])
    assert rf.identify(s).name in ("su(2,2)",)


def test_twist():
    B2 = rs.build("B", 2)
    anti = iv.antipodal_involution(B2)
    s = rf.quasi_split_lift(anti)
    eta = eta_from_omega(B2, (1, 1))
    t = rf.twist(s, eta)
    assert t.f != s.f
    back = rf.twist(t, eta)
    assert back.f == s.f
    one = eta_from_omega(B2, (0, 0))
    assert rf.twist(s, one).f == s.f
    # swapping which short pair is compact (the two split data)
    shorts = [B2.root_index((1, 0)), B2.root_index((0, 1))]
    for i in shorts:
        assert t.f[i] == -s.f[i]
    longs = [B2.root_index((1, 1)), B2.root_index((1, -1))]
    for i in longs:
        assert t.f[i] == s.f[i]
    assert rf.isomorphic(s, t)
    # incompatible character rejected
    A2 = rs.build("A", 2)
    s_a = rf.quasi_split_lift(iv.from_reflections(A2, [(1, -1, 0)]))
    with pytest.raises(rf.RealFormError):
        rf.twist(s_a, eta_from_omega(A2, (1, 0, 0)))


def test_signature_counts():
    B2 = rs.build("B", 2)
    b = list(B2.canonical_chamber().basis)
    compact = rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: 1})
    sig = rf.signature(compact)
    assert sig.dim_p == 0 and sig.dim_k == 2 + 8
    split = rf.quasi_split_lift(iv.identity_involution(B2))
    sig = rf.signature(split)
    assert sig.ellp == 2 and sig.n3 == 0
    assert sig.dim_k + sig.dim_p == 2 + 8


def test_cayley_rank1():
    A1 = rs.build("A", 1)
    b = A1.canonical_basis[0]
    s = rf.sigma_from_basis_signs(A1, {b: -1})
    out = rf.cayley(s, b)
    assert not out.theta.imaginary_set
    assert rf.identify(out).is_split
    with pytest.raises(rf.RealFormError):
        rf.cayley(out, b)


def test_cayley_shrinks_imaginary_and_checks_dense():
    C4 = rs.build("C", 4)
    b = list(C4.canonical_chamber().basis)
    s = rf.sigma_from_basis_signs(C4, {b[0]: -1, b[1]: 1, b[2]: 1, b[3]: 1})
    beta = C4.root_index((1, 1, 0, 0))
    out = rf.cayley(s, beta, verify_dense=True)
    assert len(out.theta.imaginary_set) < len(s.theta.imaginary_set)
    assert out.full
    fast = rf.cayley(s, beta, verify_dense=False)
    assert fast.compact_set == out.compact_set
    assert fast.noncompact_set == out.noncompact_set


def test_reduce_terminates_in_length_steps():
    for fam, rank in [("B", 3), ("C", 3), ("G2", 2)]:
        R = rs.build(fam, rank)
        bs = list(R.canonical_chamber().basis)
        s = rf.sigma_from_basis_signs(R, {b: -1 for b in bs})
        red = rf.reduce_noncompact(s)
        assert not red.noncompact_set
        assert rf.identify(red).name == rf.identify(rf.reduce_noncompact(s, verify_dense=False)).name
        # reduction of a reduced datum is itself
        again = rf.reduce_noncompact(red)
        assert again is red


def test_b2_example_family():
    B2 = rs.build("B", 2)
    b = list(B2.canonical_chamber().basis)
    s_xb = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: 1})   # star at long
    s_xx = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: -1})
    s_bx = rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: -1})   # star at short
    assert rf.identify(rf.reduce_noncompact(s_xb)).name == "so(2,3)"
    assert rf.identify(rf.reduce_noncompact(s_xx)).name == "so(2,3)"
    assert rf.isomorphic(s_xb, s_xx)
    red = rf.reduce_noncompact(s_bx)
    assert rf.identify(red).name == "so(1,4)"
    assert not rf.isomorphic(s_bx, s_xb)
    assert not rf.is_quasi_split(s_bx)
    assert rf.is_quasi_split(s_xb) and rf.is_quasi_split(s_xx)
    # compact form: nothing noncompact, not quasi-split
    s_cc = rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: 1})
    assert not rf.is_quasi_split(s_cc)
    assert rf.identify(s_cc).is_compact


def test_quasi_split_of_lift_by_construction():
    for fam, rank in [("B", 3), ("C", 3), ("D", 4), ("F4", 4), ("G2", 2)]:
        R = rs.build(fam, rank)
        for lab, th in iv.table2_representatives(R):
            s = rf.quasi_split_lift(th)
            assert rf.is_quasi_split(s), (fam, lab)


def test_isomorphic_equivalence_relation():
    B2 = rs.build("B", 2)
    b = list(B2.canonical_chamber().basis)
    sigmas = [rf.sigma_from_basis_signs(B2, {b[0]: x, b[1]: y})
              for x in (1, -1) for y in (1, -1)]
    for s in sigmas:
        assert rf.isomorphic(s, s)
    for s in sigmas:
        for t in sigmas:
            assert rf.isomorphic(s, t) == rf.isomorphic(t, s)
    for s in sigmas:
        for t in sigmas:
            for u in sigmas:
                if rf.isomorphic(s, t) and rf.isomorphic(t, u):
                    assert rf.isomorphic(s, u)


def test_identify_examples():
    # A3 flip-type lift with signature (1,3)
    A3 = rs.build("A", 3)
    rows = dict(iv.table2_representatives(A3))
    th = rows["e1"]  # one 2-cycle pair + fixed short: su(1,3)-type involution
    s = rf.quasi_split_lift(th)
    names = {rf.identify(rf.reduce_noncompact(rf.twist(s, eta_from_omega(A3, om)),
                                              verify_dense=False)).name
             for om in [(0, 0, 0, 0), (0, 1, 1, 0)] if in_hom_theta(th, om)}
    assert "su(1,3)" in names or "su(2,2)" in names
    # quaternionic data
    th4 = iv.from_reflections(A3, [(1, -1, 0, 0), (0, 0, 1, -1)])
    lift = rf.quasi_split_lift(th4)
    omega = rf.omega_for_set(A3, sorted(lift.theta.imaginary_set & {
        A3.root_index((1, -1, 0, 0)), A3.root_index((0, 0, 1, -1))}))
    tw = rf.twist(lift, omega)
    if not tw.noncompact_set:
        assert rf.identify(tw).name == "su*(4)"
    D4 = rs.build("D", 4)
    thd = iv.from_reflections(D4, [(1, -1, 0, 0), (0, 0, 1, -1)])
    liftd = rf.quasi_split_lift(thd)
    omb = rf.omega_for_set(D4, sorted(liftd.noncompact_set & frozenset(
        [D4.root_index((1, -1, 0, 0)), D4.root_index((0, 0, 1, -1))])))
    twd = rf.twist(liftd, omb)
    if not twd.noncompact_set:
        got = rf.identify(twd)
        assert "so*(8)" in (got.name,) + got.aliases
    # compact form
    G2 = rs.build("G2")
    cg = rf.sigma_from_basis_signs(G2, {bb: 1 for bb in G2.canonical_basis})
    assert rf.identify(cg).is_compact


def test_cartan_classes():
    A1 = rs.build("A", 1)
    split = rf.quasi_split_lift(iv.identity_involution(A1))
    assert len(rf.cartan_classes(split)) == 2
    compact = rf.sigma_from_basis_signs(A1, {A1.canonical_basis[0]: 1})
    assert len(rf.cartan_classes(compact)) == 1
    B2 = rs.build("B", 2)
    split2 = rf.quasi_split_lift(iv.identity_involution(B2))
    assert len(rf.cartan_classes(split2)) == 4
    # su(2) x nothing: so(1,4): classes = extensions of {e2}-type base
    b = list(B2.canonical_chamber().basis)
    s14 = rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: -1})
    assert len(rf.cartan_classes(s14)) == 2


def _cartan_walk_by_search(sigma):
    """The reference walk: cartan_classes before the orbit rule, with a
    conjugacy search (under Weyl elements commuting with the special part)
    for every candidate extension.  Returns the involutions in output order,
    the special part, the pool and the kept sets, each extended in turn."""
    R = sigma.system
    eps, base = iv.decompose(rf.reduce_noncompact(sigma, verify_dense=False).theta)
    W = wg.weyl_group(R)
    pm = R.pairing_matrix
    pool = [i for i in iv.positive_representatives(R, eps.real_set)
            if all(pm[i][b] == 0 for b in base)]

    def theta_of(S):
        perm = eps.perm
        for b in S:
            perm = wg.perm_mul(perm, R.reflection_perm(b))
        return iv.Involution(R, perm)

    pairs = [(eps.perm, eps.perm)] if eps.perm != wg.identity_perm(len(R)) else []

    def same_class(t1, t2):
        if t1.perm == t2.perm:
            return True
        if (len(t1.imaginary_set), len(t1.real_set)) != \
                (len(t2.imaginary_set), len(t2.real_set)):
            return False
        return W.conjugator(t1.perm, t2.perm, pairs=pairs) is not None

    reps = [(tuple(base), theta_of(base))]
    frontier = [tuple(base)]
    while frontier:
        new_frontier = []
        for S in frontier:
            for g in pool:
                if g in S or any(pm[g][s] for s in S):
                    continue
                S2 = tuple(sorted(S + (g,)))
                t2 = theta_of(S2)
                if any(same_class(t2, t) for _, t in reps):
                    continue
                reps.append((S2, t2))
                new_frontier.append(S2)
        frontier = new_frontier
    reps.sort(key=lambda st: (len(st[0]), st[0]))
    return [t for _, t in reps], eps, pool, [S for S, _ in reps]


_CARTAN_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 8)]
                 + [rs.RootSystemSpec("B", r) for r in range(2, 7)]
                 + [rs.RootSystemSpec("C", r) for r in range(3, 7)]
                 + [rs.RootSystemSpec("D", r) for r in range(4, 8)]
                 + [rs.RootSystemSpec(f) for f in ("G2", "F4", "E6", "E7")]
                 + [rs.RootSystemSpec("E6", realization="prime")])


def _seeded_conjugate(theta, rng, length=10):
    """theta conjugated by a random word in the simple reflections, built
    from the images of the simple roots as --images builds it."""
    R = theta.system
    g = wg.identity_perm(len(R))
    for _ in range(length):
        g = wg.perm_mul(R.reflection_perm(rng.choice(R.canonical_basis)), g)
    perm = wg.perm_mul(wg.perm_mul(g, theta.perm), wg.perm_inv(g))
    return iv.involution_from_images(R, [R.roots[perm[b]] for b in R.canonical_basis])


def _conjugate_lifts():
    rng = random.Random(15)
    rows = dict(iv.table2_representatives(rs.build("E6")))
    out = [rf.quasi_split_lift(_seeded_conjugate(rows["w3"], rng)) for _ in range(12)]
    for _, theta in iv.table2_representatives(rs.build("F4")):
        out += [rf.quasi_split_lift(_seeded_conjugate(theta, rng)) for _ in range(2)]
    return out


@pytest.mark.parametrize("spec", _CARTAN_SPECS, ids=lambda s: s.label)
def test_cartan_classes_match_the_search_on_every_catalog_row(spec):
    R = rs.build(spec)
    for lab, theta in iv.table2_representatives(R):
        sigma = rf.quasi_split_lift(theta)
        want = [t.perm for t in _cartan_walk_by_search(sigma)[0]]
        assert [t.perm for t in rf.cartan_classes(sigma)] == want, lab


def test_cartan_classes_match_the_search_on_seeded_conjugates():
    for sigma in _conjugate_lifts():
        want = [t.perm for t in _cartan_walk_by_search(sigma)[0]]
        assert [t.perm for t in rf.cartan_classes(sigma)] == want


def test_cartans_e6_w3_reads_the_pairing_rows_of_simple_roots(monkeypatch):
    """`cartans --type E6 --label w3` splits each Psi into components by its
    simple roots: 12 pairing rows on a fresh E6, where a row for every root
    of Psi made 36."""
    made = []
    missing = rs._PairingRows.__missing__

    def count(rows, i):
        made.append(i)
        return missing(rows, i)

    monkeypatch.setattr(rs._PairingRows, "__missing__", count)
    E6 = rs.RootSystem(rs.RootSystemSpec("E6"))  # not the cached build
    theta = dict(iv.table2_representatives(E6))["w3"]
    dg.find_s_chamber(theta)
    assert len(rf.cartan_classes(rf.quasi_split_lift(theta))) == 5
    assert 0 < len(made) <= 12, len(made)


def _reflection_word(R, psi, src, dst):
    """A product of reflections in psi mapping the root src to +-dst, by a
    breadth-first search over the orbit of src, or None."""
    targets = {dst, R.negation_map[dst]}
    word = {src: wg.identity_perm(len(R))}
    todo = [src]
    for a in todo:
        if a in targets:
            return word[a]
        for c in psi:
            s = R.reflection_perm(c)
            if s[a] not in word:
                word[s[a]] = wg.perm_mul(s, word[a])
                todo.append(s[a])
    return None


@pytest.mark.parametrize("fam,rank,labels", [
    ("F4", None, None), ("B", 4, None), ("C", 4, None), ("D", 5, None),
    ("E6", None, None), ("E7", None, ("9",))], ids=["F4", "B4", "C4", "D5", "E6", "E7-9"])
def test_skipped_extensions_have_reflection_witnesses(fam, rank, labels):
    """Each candidate the orbit rule skips is carried onto the kept one of
    its (component, length) class by a product of reflections in Psi, the
    real roots of the special part orthogonal to the set, that commutes
    with the special part."""
    R = rs.build(fam, rank)
    pm = R.pairing_matrix
    skipped = 0
    for lab, theta in iv.table2_representatives(R):
        if labels and lab not in labels:
            continue
        _, eps, pool, kept_sets = _cartan_walk_by_search(rf.quasi_split_lift(theta))

        def theta_of(S):
            perm = eps.perm
            for b in S:
                perm = wg.perm_mul(perm, R.reflection_perm(b))
            return perm

        for S in kept_sets:
            psi = [g for g in pool if g not in S and not any(pm[g][s] for s in S)]
            first = {}
            for k, comp in enumerate(iv._orthogonal_components(R, psi)):
                for h in sorted(comp, key=psi.index):
                    g = first.setdefault((k, R.norm2(h)), h)
                    if g == h:
                        continue
                    w = _reflection_word(R, psi, h, g)
                    assert w is not None, (lab, S, h, g)
                    assert wg.perm_mul(w, eps.perm) == wg.perm_mul(eps.perm, w)
                    moved = wg.perm_mul(wg.perm_mul(w, theta_of(S + (h,))), wg.perm_inv(w))
                    assert moved == theta_of(S + (g,)), (lab, S, h, g)
                    skipped += 1
    assert skipped > 0


def test_compact_cartan_enumeration_b2():
    B2 = rs.build("B", 2)
    reps = rf.compact_cartan_enumeration(B2)
    names = sorted(rf.identify(rf.reduce_noncompact(s, verify_dense=False)).name
                   for s in reps)
    assert names == ["so(1,4)", "so(2,3)", "so(5)"]
    flags = {rf.identify(rf.reduce_noncompact(s, verify_dense=False)).name:
             rf.is_quasi_split(s) for s in reps}
    assert flags["so(2,3)"] and not flags["so(5)"] and not flags["so(1,4)"]


def test_compact_cartan_all_star_is_quasi_split():
    for fam, rank in [("A", 2), ("B", 3), ("C", 3), ("D", 4), ("G2", 2), ("F4", 4)]:
        R = rs.build(fam, rank)
        s = rf.sigma_from_basis_signs(R, {b: -1 for b in R.canonical_basis})
        assert rf.is_quasi_split(s), fam
        red = rf.reduce_noncompact(s, verify_dense=False)
        assert not red.theta.imaginary_set


def test_f_multiplicative_on_imaginary():
    C4 = rs.build("C", 4)
    b = list(C4.canonical_chamber().basis)
    s = rf.sigma_from_basis_signs(C4, {b[0]: -1, b[1]: 1, b[2]: -1, b[3]: 1})
    R = C4
    for i in s.theta.imaginary_set:
        for j in s.theta.imaginary_set:
            v = la.vadd(R.roots[i], R.roots[j])
            if R.contains_vector(v):
                k = R.root_index(v)
                assert s.f[k] == s.f[i] * s.f[j]


def test_signature_invariant_under_isomorphism():
    B2 = rs.build("B", 2)
    b = list(B2.canonical_chamber().basis)
    s1 = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: 1})
    s2 = rf.sigma_from_basis_signs(B2, {b[0]: -1, b[1]: -1})
    assert rf.isomorphic(s1, s2)
    assert rf.signature(s1).dim_k == rf.signature(s2).dim_k


def test_antiinvolution_json():
    B2 = rs.build("B", 2)
    s = rf.quasi_split_lift(iv.identity_involution(B2))
    data = s.to_json()
    assert data["name"] == "so(2,3)"
    assert data["signature"]["dim_k"] + data["signature"]["dim_p"] == 10
    assert set(data["f_on_simple"].values()) == {1}


def test_hom_constraints_projection_g2():
    G2 = rs.build("G2")
    rows_all = dict(iv.table2_representatives(G2))
    # short reflection: condition eta(long bullet) ... per the catalog rows
    for lab, bullet_forced in [("1", True), ("2", True)]:
        th = rows_all[lab]
        ch = dg.find_s_chamber(th)
        rows, bullet_mask = rf.hom_theta_constraints(th, ch)
        sols = rf.f2_solution_space(rows, len(ch.basis))
        proj = rf.project_span(sols, bullet_mask)
        # exactly one negated simple root, forced to +1: projection trivial
        assert bin(bullet_mask).count("1") == 1
        assert proj == {0}


def test_hom_theta_rows_are_kept_on_theta_per_chamber():
    """The parity rows are computed once per (theta, chamber): every twist
    over theta reads the same entry, equal to the rows of a fresh theta."""
    E6 = rs.build("E6")
    for _, theta in iv.table2_representatives(E6):
        ch, canon = dg.find_s_chamber(theta), E6.canonical_chamber()
        got = rf.hom_theta_constraints(theta, ch)
        assert rf.hom_theta_constraints(theta, rs.Chamber(E6, ch.basis)) is got
        fresh = iv.Involution(E6, theta.perm)
        assert rf.hom_theta_constraints(fresh, ch) == got
        assert rf.hom_theta_constraints(theta, canon) == rf.hom_theta_constraints(fresh, canon)
        assert set(theta._hom_theta_rows) == {ch, canon}


def _hom_theta_pairs(R):
    """(theta, quasi-split lift, S-chamber, mask) for theta over id, -1 and
    every catalog row and the mask over every compatible sign character on
    the S-chamber, as `realforms` walks them."""
    thetas = ([iv.identity_involution(R), iv.antipodal_involution(R)]
              + [t for _, t in iv.table2_representatives(R)])
    for theta in thetas:
        lift = rf.quasi_split_lift(theta)
        ch = dg.find_s_chamber(theta)
        rows, _ = rf.hom_theta_constraints(theta, ch)
        n = len(ch.basis)
        for mask in rf.project_span(rf.f2_solution_space(rows, n), (1 << n) - 1):
            yield theta, lift, ch, mask


@functools.lru_cache(maxsize=None)
def _twisted_lifts(spec):
    """Sign data with a nonempty noncompact set: each quasi-split lift of
    _hom_theta_pairs twisted by each compatible sign character."""
    R = rs.build(spec)
    out = []
    for _, lift, ch, mask in _hom_theta_pairs(R):
        sigma = rf.twist(lift, rf.SignHom(R, mask=mask, chamber=ch))
        if sigma.noncompact_set:
            out.append(sigma)
    return out


_TWIST_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 7)]
                + [rs.RootSystemSpec("B", r) for r in range(2, 6)]
                + [rs.RootSystemSpec("C", r) for r in range(3, 6)]
                + [rs.RootSystemSpec("D", r) for r in range(4, 7)]
                + [rs.RootSystemSpec(f) for f in ("G2", "F4", "E6", "E7")]
                + [rs.RootSystemSpec("E6", realization="prime")])


@pytest.mark.parametrize("spec", _TWIST_SPECS, ids=lambda s: s.label)
def test_twist_equals_height_rederivation(spec):
    """The twisted lift is the datum the height recursion derives from its
    signs on the S-chamber, and naming it needs no Cayley chain: dim k is
    the same on every Cartan subalgebra of a form."""
    R = rs.build(spec)
    for theta, lift, ch, mask in _hom_theta_pairs(R):
        eta = rf.SignHom(R, mask=mask, chamber=ch)
        tw = rf.twist(lift, eta)
        derived = rf.sigma_from_chamber_signs(theta, ch, {b: lift.f[b] * eta(b)
                                                          for b in ch.basis})
        assert tw.f == derived.f, (theta, mask)
        assert rf.identify(tw) == rf.identify(rf.reduce_noncompact(tw, verify_dense=False))


def _quasi_split_by_cliques(sigma):
    """The reference test: whether the noncompact set holds a strongly
    orthogonal set that leaves no negated root orthogonal to all of it (such
    a survivor would stay negated after the transform chain)."""
    R, pm = sigma.system, sigma.system.pairing_matrix
    nc = iv.positive_representatives(R, sigma.noncompact_set)
    imag = iv.positive_representatives(R, sigma.theta.imaginary_set)

    def dfs(S, cands):
        if S and not any(all(pm[g][s] == 0 for s in S) for g in imag if g not in S):
            return True
        return any(dfs(S + [c], [d for d in cands[k + 1:] if R.is_strongly_orthogonal(c, d)])
                   for k, c in enumerate(cands))

    return not imag or dfs([], nc)


_QUASI_SPLIT_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 6)]
                      + [rs.RootSystemSpec("B", r) for r in range(2, 5)]
                      + [rs.RootSystemSpec(f, r) for f, r in
                         [("C", 3), ("C", 4), ("D", 4), ("D", 5), ("G2", None), ("F4", None)]])


def test_quasi_split_matches_the_clique_search():
    """is_quasi_split, read off the transform chain, agrees with the clique
    search on every twist of the lifts over id, -1 and every catalog row,
    and on every sign datum over -1 in B2."""
    seen = split = 0
    for spec in _QUASI_SPLIT_SPECS:
        R = rs.build(spec)
        for theta, lift, ch, mask in _hom_theta_pairs(R):
            sigma = rf.twist(lift, rf.SignHom(R, mask=mask, chamber=ch))
            got = rf.is_quasi_split(sigma)
            assert got == _quasi_split_by_cliques(sigma), (spec.label, theta, mask)
            seen, split = seen + 1, split + got
    assert seen == 1056 and 0 < split < seen
    over_minus_one = rf.compact_cartan_enumeration(rs.build("B", 2), dedupe=False)
    got = [rf.is_quasi_split(s) for s in over_minus_one]
    assert got == [_quasi_split_by_cliques(s) for s in over_minus_one]
    assert got.count(True) == 2


def _pair_law_failure(sigma):
    """The reference pairwise cocycle check: the first pair of roots (i, j)
    with i + j a root where N(i, j) f(i + j) != N(theta i, theta j) f(i)
    f(j), or None."""
    R, C, th, f = sigma.system, sigma.constants, sigma.theta, sigma.f
    for i, row in enumerate(R.sum_table):
        for j, k in enumerate(row):
            if k >= 0 and C.n(i, j) * f[k] != C.n(th(i), th(j)) * f[i] * f[j]:
                return i, j
    return None


@pytest.mark.parametrize("spec", [rs.RootSystemSpec(f, r) for f, r in
                                  [("A", 3), ("B", 3), ("C", 3), ("D", 4), ("G2", None),
                                   ("F4", None), ("E6", None)]],
                         ids=lambda s: s.label)
def test_realforms_twists_pass_the_pair_loop(spec):
    """twist checks the character, not every pair: each twist that
    realforms makes still passes the full pairwise law."""
    R = rs.build(spec)
    count = 0
    for theta, lift, ch, mask in _hom_theta_pairs(R):
        tw = rf.twist(lift, rf.SignHom(R, mask=mask, chamber=ch))
        assert tw.full and ch.parity_defect is None
        assert _pair_law_failure(tw) is None, (theta, mask)
        count += 1
    assert count > len(iv.table2_representatives(R))


def test_seeded_twists_of_e7_lifts_pass_the_pair_loop():
    rng = random.Random(12)
    E7 = rs.build("E7")
    for _, theta in iv.table2_representatives(E7):
        lift = rf.quasi_split_lift(theta)
        ch = dg.find_s_chamber(theta)
        rows, _ = rf.hom_theta_constraints(theta, ch)
        sols = rf.f2_solution_space(rows, len(ch.basis))
        for _ in range(3):
            mask = 0
            for v in sols:
                mask ^= v * rng.randrange(2)
            tw = rf.twist(lift, rf.SignHom(E7, mask=mask, chamber=ch))
            assert _pair_law_failure(tw) is None, (theta, mask)


def test_twist_rejects_a_chamber_with_a_flipped_parity_mask():
    B3 = rs.build("B", 3)
    theta = iv.table2_representatives(B3)[-1][1]
    lift = rf.quasi_split_lift(theta)
    ch = dg.find_s_chamber(theta)
    assert rf.twist(lift, rf.SignHom(B3, mask=0, chamber=rs.Chamber(B3, ch.basis))).f == lift.f
    top = ch.height_order[-1]
    for flip in (1, 1 << (len(ch.basis) - 1)):
        bad = rs.Chamber(B3, ch.basis)
        masks = list(ch.parity_masks)
        masks[top] ^= flip
        bad.__dict__["parity_masks"] = tuple(masks)
        assert bad.parity_defect is not None
        with pytest.raises(rf.RealFormError, match=r"parity masks are not additive at B3 root"):
            rf.twist(lift, rf.SignHom(B3, mask=0, chamber=bad))


def test_direct_antiinvolution_runs_the_pair_loop():
    """Only twist skips the pairwise check.  Flipping the sign at the highest
    root and its negative, under the identity, keeps every O(n) check (the
    roots are fixed, the negatives agree); the pair loop must catch it."""
    B3 = rs.build("B", 3)
    theta = iv.identity_involution(B3)
    lift = rf.quasi_split_lift(theta)
    top = B3.canonical_chamber().height_order[-1]
    f = dict(lift.f)
    for g in (top, B3.negation_map[top]):
        f[g] = -f[g]
    with pytest.raises(rf.RealFormError, match="cocycle law fails at B3 root") as exc:
        rf.AntiInvolution(theta, f)
    named = {int(x) for x in re.findall(r"root (\d+)", str(exc.value))}
    i, j = sorted(named)
    assert {i, j, B3.sum_table[i][j]} & {top, B3.negation_map[top]}
    loose = rf.AntiInvolution.__new__(rf.AntiInvolution)
    loose._setup(theta, f, True)  # the twist path alone would pass it
    assert _pair_law_failure(loose) is not None


_GOLDEN_KEYS = sorted(json.loads((Path(__file__).parent / "golden" / "realforms.json")
                                 .read_text()))


@pytest.mark.parametrize("key", _GOLDEN_KEYS)
def test_counted_names_equal_the_twisted_names(key):
    """On every mask `realforms` walks, over id, -1 and every catalog row,
    the name counted from the lift is the name identify gives the twist."""
    spec = (rs.RootSystemSpec(key.rstrip("'"), realization="prime") if key.endswith("'")
            else rs.RootSystemSpec(key) if key in rs.FAMILIES
            else rs.RootSystemSpec(key[0], int(key[1:])))
    R = rs.build(spec)
    thetas = ([("id", iv.identity_involution(R)), ("-1", iv.antipodal_involution(R))]
              + iv.table2_representatives(R))
    for lab, theta in thetas:
        lift = rf.quasi_split_lift(theta)
        ch = dg.find_s_chamber(theta)
        named = rf.twist_names(lift, ch, lab)
        rows, _ = rf.hom_theta_constraints(theta, ch)
        n = len(ch.basis)
        assert set(named) == rf.project_span(rf.f2_solution_space(rows, n), (1 << n) - 1)
        for mask, name in named.items():
            tw = rf.twist(lift, rf.SignHom(R, mask=mask, chamber=ch))
            assert name == rf.identify(tw), (lab, mask)


def test_twist_names_refuse_a_lift_with_one_flipped_negated_sign():
    """Flipping f at one negated root breaks f(i) = f(-i); the sign-law
    check refuses the lift before any twist is built."""
    B3 = rs.build("B", 3)
    theta = iv.table2_representatives(B3)[-1][1]
    lift = rf.quasi_split_lift(theta)
    ch = dg.find_s_chamber(theta)
    assert rf.twist_names(lift, ch, "r")
    for i in sorted(theta.imaginary_set):
        bad = copy.copy(lift)
        bad.f = {**lift.f, i: -lift.f[i]}
        with pytest.raises(rf.RealFormError, match=r"B3, involution r: mask \d+ is not in "
                                                   r"Hom_theta or breaks the sign laws"):
            rf.twist_names(bad, ch, "r")


def test_realforms_twists_once_per_printed_pair(monkeypatch, capsys):
    """realforms on E6 builds one checked twist per printed (form, label)
    pair: 9, where twisting every character of Hom_theta made 200."""
    from cartanclass import cli
    calls = []
    twist = rf.twist

    def record(sigma, eta):
        calls.append(eta.mask)
        return twist(sigma, eta)

    monkeypatch.setattr(rf, "twist", record)
    assert cli.main(["realforms", "--type", "E6", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(calls) == sum(len(r["cartan_involutions"]) for r in rows) == 9


@pytest.mark.parametrize("spec", [rs.RootSystemSpec("B", 4), rs.RootSystemSpec("D", 5),
                                  rs.RootSystemSpec("F4"), rs.RootSystemSpec("E6")],
                         ids=lambda s: s.label)
@settings(max_examples=25, deadline=None)
@given(k=st.integers(0, 10_000), r=st.integers(0, 10_000))
def test_cayley_keeps_the_form(spec, k, r):
    """A Cayley transform along a drawn noncompact root, checked on the
    dense oracle, keeps the name of the form."""
    data = _twisted_lifts(spec)
    sigma = data[k % len(data)]
    beta = sorted(sigma.noncompact_set)[r % len(sigma.noncompact_set)]
    moved = rf.cayley(sigma, beta)
    assert moved.full
    assert rf.identify(moved) == rf.identify(sigma)


def test_sign_datum_errors_name_the_root():
    A2 = rs.build("A", 2)
    A = cv.dense_algebra(cv.structure_constants(A2))
    theta = iv.identity_involution(A2)
    b = A2.canonical_basis[0]
    label = r"A2 root %d \(%s\)" % (b, ", ".join(str(c) for c in A2.roots[b]))
    # X_b and X_-b keep their vectors up to different signs
    flip = cv.LinearMap.identity(A)
    flip.cols[A.rank + A2.negation_map[b]] = {A.rank + A2.negation_map[b]: cv.Qrt2(-1)}
    with pytest.raises(rf.RealFormError, match="sign differs between " + label):
        rf._sign_datum(A, theta, [flip])
    # the identity map does not follow the all-negating involution
    anti = iv.antipodal_involution(A2)
    with pytest.raises(rf.RealFormError, match="at " + label):
        rf._sign_datum(A, anti, [cv.LinearMap.identity(A)])


@pytest.mark.parametrize("k", range(4))
def test_chamber_signs_take_a_sign_at_every_basis_root(k):
    """No basis sign is guessed: leaving one out names that root, on
    involutions where some completion of the others would pass."""
    B4 = rs.build("B", 4)
    for theta in (iv.identity_involution(B4), dict(iv.table2_representatives(B4))["r0,2"]):
        ch = dg.find_s_chamber(theta)
        lift = rf.quasi_split_lift(theta)
        b = ch.basis[k]
        signs = {c: lift.f[c] for c in ch.basis if c != b}
        with pytest.raises(rf.RealFormError, match="no sign given at %s of the chamber basis"
                           % re.escape(B4.root_name(b))):
            rf.sigma_from_chamber_signs(theta, ch, signs)
        assert rf.sigma_from_chamber_signs(theta, ch, {**signs, b: lift.f[b]}).f == lift.f


# -- the quasi-split lift by rule ------------------------------------------------------


def _lift_by_trial(theta):
    """The quasi-split lift as it was once found: three factor lists tried in
    order, the first whose datum verifies and leaves the decomposition roots
    noncompact winning.  Returns the datum and the index of its list."""
    R = theta.system
    A = cv.dense_algebra(cv.structure_constants(R))
    eps, b_set = iv.decompose(theta)
    half = cv.QuarterTurn(A, b_set, 2)
    if eps.perm == wg.identity_perm(len(R)):
        candidates = [[half, rf.psi_map(A, rf.omega_for_set(R, b_set))]]
    else:
        esh = rf.eps_sharp_map(A, eps, dg.find_s_chamber(eps))
        odd = [int(esh.col(A.rank + b)[A.rank + eps(b)] < 0) for b in b_set]
        omega = rf.omega_for_targets(R, b_set, [1] * len(b_set), parity_of=eps)
        mu = rf.omega_for_targets(R, b_set, odd, parity_of=eps)
        plain = rf.psi_map(A, rf.omega_for_set(R, b_set))
        candidates = [None if omega is None or mu is None
                      else [esh, rf.psi_map(A, mu), half, rf.psi_map(A, omega)],
                      [esh, half, plain], [esh, plain, half, plain]]
    for k, factors in enumerate(candidates):
        if factors is None:
            continue
        try:
            sigma = rf._sign_datum(A, theta, factors)
        except rf.RealFormError:
            continue
        if all(b in sigma.noncompact_set for b in b_set):
            return sigma, k
    raise AssertionError("no factor list verified")


_LIFT_RULE_SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 11)]
                    + [rs.RootSystemSpec("B", r) for r in range(2, 9)]
                    + [rs.RootSystemSpec("C", r) for r in range(3, 9)]
                    + [rs.RootSystemSpec("D", r) for r in range(4, 9)]
                    + [rs.RootSystemSpec(f) for f in ("G2", "F4", "E6", "E7")]
                    + [rs.RootSystemSpec("E6", realization="prime")])


@pytest.mark.parametrize("spec", _LIFT_RULE_SPECS, ids=lambda s: s.label)
def test_lift_by_rule_matches_the_trial_loop(spec):
    """On id, -1, every catalog row and two seeded conjugates of each, the
    one factor list of the rule gives the datum the trial loop settled on."""
    R = rs.build(spec)
    rng = random.Random(21)
    thetas = ([("id", iv.identity_involution(R)), ("-1", iv.antipodal_involution(R))]
              + iv.table2_representatives(R))
    for lab, theta in thetas:
        for t in [theta] + [_seeded_conjugate(theta, rng) for _ in range(2)]:
            assert rf.quasi_split_lift(t).f == _lift_by_trial(t)[0].f, lab


def test_lift_by_rule_matches_the_trial_loop_on_e7_prime():
    R = rs.build(rs.RootSystemSpec("E7", realization="prime"))
    for theta in (iv.identity_involution(R), iv.antipodal_involution(R)):
        assert rf.quasi_split_lift(theta).f == _lift_by_trial(theta)[0].f


@pytest.mark.parametrize("fam,rank,lab,first", [("A", 4, "e1", 2), ("E6", None, "-1", 0)])
def test_lift_rule_branches(fam, rank, lab, first):
    """A4 row e1 has no pair omega, mu compatible with its special part, so
    the lift takes the type A_2m list, the third of the trial loop; the
    antipodal involution of E6 (outer) takes the first."""
    R = rs.build(fam, rank)
    theta = (iv.antipodal_involution(R) if lab == "-1"
             else dict(iv.table2_representatives(R))[lab])
    eps, b_set = iv.decompose(theta)
    assert eps.perm != wg.identity_perm(len(R)) and b_set
    omega = rf.omega_for_targets(R, b_set, [1] * len(b_set), parity_of=eps)
    assert (omega is None) == (first == 2)
    sigma, k = _lift_by_trial(theta)
    assert k == first
    assert rf.quasi_split_lift(theta).f == sigma.f


def _sigma_by_character(system, signs):
    """sigma_from_basis_signs as the sign character of the basis signs."""
    basis = system.canonical_basis
    eta = rf.SignHom(system, mask=sum(1 << k for k, b in enumerate(basis) if signs[b] == -1))
    return rf.AntiInvolution(iv.antipodal_involution(system),
                             dict(enumerate(map(eta, range(len(system))))), full=True)


@pytest.mark.parametrize("spec", [rs.RootSystemSpec(f, r) for f, r in
                                  [("A", 1), ("A", 4), ("A", 6), ("B", 2), ("B", 5), ("C", 3),
                                   ("C", 6), ("D", 4), ("D", 6), ("G2", None), ("F4", None),
                                   ("E6", None), ("E7", None), ("E8", None)]]
                         + [rs.RootSystemSpec("E6", realization="prime")],
                         ids=lambda s: s.label)
def test_basis_signs_by_height_give_the_character(spec):
    """Extended by height over the all-negating involution, basis signs give
    their character: N(-a, -b) = N(a, b)."""
    R = rs.build(spec)
    rng = random.Random(7)
    for _ in range(4):
        signs = {b: rng.choice((1, -1)) for b in R.canonical_basis}
        got, want = rf.sigma_from_basis_signs(R, signs), _sigma_by_character(R, signs)
        assert (got.f, got.full) == (want.f, want.full)


def test_basis_signs_name_the_first_bad_sign():
    B2 = rs.build("B", 2)
    b = B2.canonical_basis
    with pytest.raises(rf.RealFormError,
                       match="^sign 0 at %s is not \\+-1$" % re.escape(B2.root_name(b[1]))):
        rf.sigma_from_basis_signs(B2, {b[0]: 1, b[1]: 0})


@pytest.mark.parametrize("fam,rank", [("A", 5), ("A", 6), ("D", 5), ("E6", None)])
def test_twist_names_check_every_basis_vector(fam, rank):
    """With one Hom_theta row dropped, the span twist_names walks gains a
    character that breaks eta(theta i) = eta(i); the check on mask 0 and the
    basis of the span refuses it.  Among these cases the basis holds exactly
    one such vector at each of positions 0 to 5, so skipping any position
    fails here."""
    R = rs.build(fam, rank)
    hom_rows = rf.hom_theta_constraints
    cases = 0
    for lab, theta in iv.table2_representatives(R):
        ch = dg.find_s_chamber(theta)
        lift = rf.quasi_split_lift(theta)
        rows, bullets = hom_rows(theta, ch)
        n = len(ch.basis)
        for k in range(len(rows)):
            fewer = rows[:k] + rows[k + 1:]
            if len(rf.f2_solution_space(fewer, n)) == len(rf.f2_solution_space(rows, n)):
                continue
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(rf, "hom_theta_constraints", lambda *_: (fewer, bullets))
                with pytest.raises(rf.RealFormError, match="is not in Hom_theta or breaks "
                                                           "the sign laws"):
                    rf.twist_names(lift, ch, lab)
            cases += 1
    assert cases
