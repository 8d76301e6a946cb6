"""Reference class decisions by conjugacy search, kept beside the tests.

The package decides involution classes by diagram.class_key.  These are the
earlier decisions it replaced: cheap conjugation invariants as a prefilter,
then a backtrack search for a conjugating element in the Weyl group or the
full automorphism group.  Tests compare the two.  Brute force over the
elements of a group, and the V-chamber test, are here too: only the tests
use them."""

import functools
import itertools

from cartanclass import involution as iv
from cartanclass import weylgroup as wg


def iter_elements(G):
    """All elements of a permutation group, from its stabilizer chain (use
    only on small groups)."""
    transversals = [[lev.orbit[p] for p in sorted(lev.orbit)] for lev in G.chain().levels]
    for c, _ in G._gamma:
        for combo in itertools.product(*transversals):
            yield functools.reduce(wg.perm_mul, combo, c)


def is_v_chamber(theta, chamber) -> bool:
    """S-chamber condition for the negated involution."""
    R = theta.system
    return iv.is_s_chamber(iv.Involution(R, wg.perm_mul(tuple(R.negation_map), theta.perm)),
                           chamber)


def invariants(theta):
    """Conjugation invariants that separate most classes cheaply: the sizes
    of the fixed and negated sets, the length, Weyl membership and the
    types of the fixed and negated subsystems."""
    R = theta.system
    return (len(theta.real_set), len(theta.imaginary_set), theta.length, theta.in_weyl,
            iv.subsystem_type(R, theta.real_set), iv.subsystem_type(R, theta.imaginary_set))


def conjugate_by_search(t1, t2, group="W"):
    """Whether some element of W ("W") or of the full group ("A")
    conjugates t1 to t2, by the stabilizer-chain search."""
    if t1.perm == t2.perm:
        return True
    G = wg.weyl_group(t1.system) if group == "W" else wg.full_aut_group(t1.system)
    return G.conjugator(t1.perm, t2.perm) is not None


def class_label_by_search(theta, group="W"):
    """The catalog label as the searches gave it: the first row with equal
    invariants that is conjugate under the group, and under W, failing
    that, the first such row under the full group."""
    if theta.perm == wg.identity_perm(len(theta.system)):
        return "id"
    inv = invariants(theta)
    candidates = [(lab, rep) for lab, rep in iv.table2_representatives(theta.system)
                  if invariants(rep) == inv]
    for g in dict.fromkeys((group, "A")):
        for lab, rep in candidates:
            if conjugate_by_search(theta, rep, g):
                return lab
    raise iv.InvolutionError("involution matches no catalog row")
