"""Restricted Sigma-diagrams on integer index tables, against their rational
definitions and against recorded outputs.

`chamber_with_imaginary_basis` tests a basis of the negated subsystem by the
coordinate walk and moves the positive set by reflection permutations;
`_one_star_basis` keeps the vector h0 of its descent as its integer products
with the roots of the cluster.  The references below are the rational
computations those routines replace: an exact solve per negated root, a
witness vector reflected in Fraction arithmetic, and an exact solve for every
coweight of the descent.

`tests/golden/restricted_sigmas.json` holds, for every sign datum that
`_enumerate_sigmas(R, max_twists=8)` yields on the families below, the
noncompact roots, the basis of the restricted chamber and the JSON of the
restricted Sigma-diagram, as computed by the rational routines.
"""

import itertools
import json
from pathlib import Path

import pytest

from cartanclass import _linalg as la
from cartanclass import diagram as dg
from cartanclass import involution as iv
from cartanclass import rootsys as rs
from test_acceptance import _enumerate_sigmas
from test_rootsys import reflect_vec, witness

GOLDEN = Path(__file__).parent / "golden" / "restricted_sigmas.json"
FAMILIES = [("A", 3), ("A", 5), ("B", 3), ("B", 4), ("B", 5), ("C", 3), ("C", 4), ("C", 5),
            ("D", 4), ("D", 5), ("D", 6), ("G2", None), ("F4", None), ("E6", None)]


def _reference_chamber_with_imaginary_basis(theta, bprime):
    """Every negated root an integer combination of bprime with one sign,
    then a witness of the S-chamber reflected across the first root of
    bprime that is negative on it, until none is or the witness repeats."""
    R = theta.system
    span = [R.roots[b] for b in bprime]
    for i in theta.imaginary_set:
        sol = la.solve(span, R.roots[i])
        if sol is None or any(c.denominator != 1 for c in sol):
            raise dg.DiagramError("set does not span the negated subsystem")
        if not (all(c >= 0 for c in sol) or all(c <= 0 for c in sol)):
            raise dg.DiagramError("set is not a simple basis of the negated subsystem")
    v, seen = witness(R, dg.find_s_chamber(theta)), set()
    while (bad := next((b for b in bprime if la.vdot(R.roots[b], v) < 0), None)) is not None:
        if v in seen:
            raise dg.DiagramError("imaginary dominance walk does not terminate")
        seen.add(v)
        v = reflect_vec(v, R.roots[bad])
    chamber = R.chamber_from_witness(v)
    if not dg.is_s_chamber(theta, chamber):
        raise dg.DiagramError("adapted chamber lost the S condition")
    if frozenset(bprime) != frozenset(chamber.basis) & theta.imaginary_set:
        raise dg.DiagramError("requested negated basis was not realized")
    return chamber


def _reference_one_star_basis(R, sigma, comp):
    """The descent on a vector of the cluster's span, each coweight found by
    an exact solve."""
    span_cols = [R.roots[b] for b in comp]

    def solve_in_span(cond_roots, values):
        cols = [tuple(la.vdot(R.roots[c], sc) for c in cond_roots) for sc in span_cols]
        sol = la.solve(cols, values)
        out = la.zero_vec(R.dim)
        for c, v in zip(sol, span_cols):
            out = la.vadd(out, la.vscale(c, v))
        return out

    h0 = solve_in_span(comp, [int(b in sigma.noncompact_set) for b in comp])
    basis = list(comp)
    while True:
        bad = next((b for b in basis if la.vdot(R.roots[b], h0) < 0), None)
        if bad is not None:
            basis = [R.root_index(reflect_vec(R.roots[x], R.roots[bad])) for x in basis]
            continue
        pick = next(b for b in basis if la.vdot(R.roots[b], h0) > 0)
        coweight = solve_in_span(basis, [int(b == pick) for b in basis])
        if coweight == h0:
            return basis
        h0 = la.vsub(h0, la.vscale(2, coweight))


def _outcome(f, *args):
    try:
        return tuple(f(*args).basis)
    except dg.DiagramError:
        return None


@pytest.mark.parametrize("fam,rank", [("B", 2), ("G2", None), ("A", 2), ("A", 3)])
def test_imaginary_basis_matches_rational_on_every_small_subset(fam, rank):
    """Every subset of the negated roots with at most rank_theta + 1 roots,
    for every catalog row and -1: the same accept or reject, the same
    chamber."""
    R = rs.build(fam, rank)
    thetas = [t for _, t in iv.table2_representatives(R)] + [iv.antipodal_involution(R)]
    accepted = tried = 0
    for theta in thetas:
        ch = dg.find_s_chamber(theta)
        rank_theta = sum(1 for b in ch.basis if b in theta.imaginary_set)
        for size in range(rank_theta + 2):
            for bprime in itertools.combinations(sorted(theta.imaginary_set), size):
                got = _outcome(dg.chamber_with_imaginary_basis, theta, bprime)
                assert got == _outcome(_reference_chamber_with_imaginary_basis, theta, bprime)
                accepted += got is not None
                tried += 1
    assert 0 < accepted < tried


@pytest.mark.parametrize("fam,rank", FAMILIES)
def test_restricted_sigmas_match_golden_and_rational(fam, rank):
    """The recorded restricted chamber and Sigma-diagram of every datum;
    on every black cluster with several stars, the rational descent; on
    every datum whose black basis moves, the rational chamber."""
    R = rs.build(fam, rank)
    want = json.loads(GOLDEN.read_text())[R.spec.label]
    sigmas = _enumerate_sigmas(R, max_twists=8)
    assert len(sigmas) == len(want)
    moved = 0
    for sigma, row in zip(sigmas, want):
        assert sorted(sigma.noncompact_set) == row["noncompact"]
        s2, ch2 = dg.restrict_sigma(sigma)
        assert list(ch2.basis) == row["basis"]
        assert dg.sigma_diagram(s2, ch2).to_json() == row["diagram"]
        theta = sigma.theta
        bullets = [b for b in dg.find_s_chamber(theta).basis if b in theta.imaginary_set]
        new_basis = []
        for comp in iv._orthogonal_components(R, bullets):
            if sum(1 for b in comp if b in sigma.noncompact_set) > 1:
                comp = dg._one_star_basis(R, sigma, comp)
                assert comp == _reference_one_star_basis(R, sigma, comp)
            new_basis.extend(comp)
        if new_basis != bullets:
            want_ch = _reference_chamber_with_imaginary_basis(theta, sorted(new_basis))
            assert ch2 == want_ch
            moved += 1
    assert moved > 0 or fam == "A"
