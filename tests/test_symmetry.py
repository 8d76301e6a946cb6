"""Diagram symmetries and node order against brute-force scans, and the
lifetime of the objects cached on a root system.

The scans try every permutation of the simple roots in itertools order and
compare norms and the Cartan matrix, which the test computes from the root
coordinates itself.
"""

import gc
import itertools
import weakref

import pytest

from cartanclass import chevalley as ch, diagram as dg, involution as iv
from cartanclass import rootsys as rs, weylgroup as wg

SPECS = (
    [rs.RootSystemSpec("A", r) for r in range(1, 8)]
    + [rs.RootSystemSpec("B", r) for r in range(2, 8)]
    + [rs.RootSystemSpec("C", r) for r in range(3, 8)]
    + [rs.RootSystemSpec("D", r) for r in range(4, 8)]
    + [rs.RootSystemSpec(f) for f in ("E6", "E7", "E8", "F4", "G2")]
    + [rs.RootSystemSpec(f, realization="prime") for f in ("E6", "E7")]
    + [rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 2), rs.RootSystemSpec("G2"),
                                  rs.RootSystemSpec("A", 2)))]
)

CATALOG = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
           + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
           + [(f, None) for f in ("E6", "E7", "E8", "F4", "G2")])


def _shape(R, roots):
    """Norms (as integer ratios) and integer Cartan matrix of a list of
    roots, from their coordinates."""
    vecs = [R.roots[b] for b in roots]
    norms = [sum(x * x for x in v) for v in vecs]
    cartan = [[2 * sum(x * y for x, y in zip(u, v)) / nv for v, nv in zip(vecs, norms)]
              for u in vecs]
    assert all(c.denominator == 1 for row in cartan for c in row)
    return ([n.as_integer_ratio() for n in norms],
            [[int(c) for c in row] for row in cartan])


def _scan(R, src, dst):
    """Position tuples p, in itertools order, such that src[p[i]] can stand
    at dst[i]: equal norms and equal Cartan matrix entries."""
    (sn, sc), (dn, dc) = _shape(R, src), _shape(R, dst)
    for p in itertools.permutations(range(len(dst))):
        if [sn[j] for j in p] != dn:
            continue
        if all([sc[a][b] for b in p] == dc[i] for i, a in enumerate(p)):
            yield p


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_diagram_symmetries_match_permutation_scan(spec):
    R = rs.build(spec)
    cb = R.canonical_basis
    scan = tuple(_scan(R, cb, cb))
    assert R.diagram_symmetries == scan
    assert scan[0] == tuple(range(len(cb)))
    if spec.factors is None:
        assert len(wg.diagram_automorphisms(R)) == len(scan)


@pytest.mark.parametrize("fam,rank", CATALOG, ids=lambda x: str(x))
def test_canonical_node_order_is_least_matching_order(fam, rank):
    R = rs.build(fam, rank)
    cb = R.canonical_basis
    for label, theta in iv.table2_representatives(R):
        basis = sorted(dg.find_s_chamber(theta).basis)
        least = next(_scan(R, basis, cb))
        assert dg.canonical_node_order(R, basis) == tuple(basis[i] for i in least), label


def test_canonical_node_order_errors():
    R = rs.build("B", 3)
    with pytest.raises(dg.DiagramError, match="size"):
        dg.canonical_node_order(R, R.canonical_basis[:2])
    orthogonal = [R.root_index(v) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    with pytest.raises(dg.DiagramError, match="shape"):
        dg.canonical_node_order(R, orthogonal)


def test_union_system_is_collected_after_its_getters():
    U = rs.build(rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 1),
                                            rs.RootSystemSpec("G2"))))
    assert wg.weyl_group(U).order == 24
    assert wg.full_aut_group(U).order == 24
    assert ch.dense_algebra(ch.structure_constants(U)).dim == 17
    assert wg.weyl_group(U) is wg.weyl_group(U)
    assert ch.structure_constants(U) is ch.structure_constants(U)
    ref = weakref.ref(U)
    del U
    gc.collect()
    assert ref() is None
