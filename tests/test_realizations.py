"""The realizations, pinned.

`tests/golden/realizations.json` holds, per system, a sha256 over the
printed root vectors, the canonical basis, the negation map, the norms and
`is_long` of every root; it was recorded while the roots were built and
stored as `Fraction` vectors.  Rerun this module as a script to rewrite it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cartanclass import chevalley as cv
from cartanclass import diagram as dg
from cartanclass import involution as iv
from cartanclass import realform as rf
from cartanclass import rootsys as rs

GOLDEN = Path(__file__).parent / "golden" / "realizations.json"

SPECS = ([rs.RootSystemSpec("A", r) for r in range(1, 9)]
         + [rs.RootSystemSpec("B", r) for r in range(2, 9)]
         + [rs.RootSystemSpec("C", r) for r in range(3, 9)]
         + [rs.RootSystemSpec("D", r) for r in range(4, 9)]
         + [rs.RootSystemSpec(f) for f in ("E6", "E7", "E8", "F4", "G2")]
         + [rs.RootSystemSpec(f, realization="prime") for f in ("E6", "E7")]
         + [rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 2), rs.RootSystemSpec("E6"))),
            rs.RootSystemSpec(factors=(rs.RootSystemSpec("G2"), rs.RootSystemSpec("A", 1)))])


def _digest(R) -> str:
    data = {"roots": [[str(c) for c in r] for r in R.roots],
            "basis": list(R.canonical_basis),
            "negation": list(R.negation_map),
            "norms": [str(R.norm2(i)) for i in range(len(R))],
            "long": [R.is_long(i) for i in range(len(R))]}
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
def test_realization_matches_golden(spec):
    R = rs.build(spec)
    assert _digest(R) == json.loads(GOLDEN.read_text())[spec.label]
    assert R.den in (1, 2) and all(type(x) is int for r in R._int_roots for x in r)


@pytest.mark.parametrize("fam,rank", [("A", 3), ("B", 3), ("G2", None), ("F4", None),
                                      ("E6", None)])
def test_result_paths_build_no_rational_roots(fam, rank):
    """Only printing and parsing read the rational view `roots`; a fresh
    system taken through the result paths never builds it."""
    R = rs.RootSystem(rs.RootSystemSpec(fam, rank))
    thetas = iv.table2_representatives(R) + [("-1", iv.antipodal_involution(R))]
    for _, theta in thetas:
        chamber = dg.find_s_chamber(theta)
        dg.s_diagram(theta, chamber)
        lift = rf.quasi_split_lift(theta)
        dg.restrict_sigma(lift, chamber)
        rf.cartan_classes(lift)
    iv.sos_classes_by_size(R)
    cv.dense_algebra(cv.structure_constants(R), verify="full")
    assert "roots" not in vars(R)
    R.root_name(0)
    assert "roots" in vars(R)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({s.label: _digest(rs.build(s)) for s in SPECS},
                                 indent=1, sort_keys=True) + "\n")
