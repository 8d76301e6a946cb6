"""Reference class decisions by conjugacy search, kept beside the tests.

The package decides involution classes by diagram.class_key.  These are the
earlier decisions it replaced: cheap conjugation invariants as a prefilter,
then a backtrack search for a conjugating element in the Weyl group or the
full automorphism group.  Tests compare the two."""

from cartanclass import involution as iv
from cartanclass import weylgroup as wg


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
