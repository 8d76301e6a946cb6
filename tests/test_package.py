"""The package surface: which layers a query loads, the public names, and
the record classes (spec, chamber, diagram, signature, names)."""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cartanclass
from cartanclass import diagram as dg, involution as iv, realform as rf, rootsys as rs

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

# -- modules loaded per query ------------------------------------------------------

# the catalog verbs run no Weyl-group chain and no rational algebra
_CATALOG = {"cartanclass.rootsys", "cartanclass.involution"}
# the sign-data verbs turn by halves, over Z, and solve for characters over Z
_SIGN_DATA = _CATALOG | {"cartanclass.chevalley", "cartanclass.realform"}

# the verbs of the benchmark workloads, each with the layers it may load
VERB_MODULES = [
    ("realforms --type G2", _SIGN_DATA),
    ("realforms --type D --rank 4", _SIGN_DATA),
    ("realforms --type E6", _SIGN_DATA),
    # class keys are read on the drawn S-diagrams
    ("cartans --type E6 --label w3", _SIGN_DATA | {"cartanclass.diagram"}),
    # the JSON datum prints the involution's matrix from integers
    ("cayley --type G2 --label 3", _SIGN_DATA),
    ("sigma --type F4 --label 7 --restricted --format ascii",
     _SIGN_DATA | {"cartanclass.diagram"}),
    ("verify chevalley --type F4", {"cartanclass.rootsys", "cartanclass.chevalley"}),
    ("involutions --type E8", _CATALOG),
    ("sos --type E8 --size 4", _CATALOG),
    ("diagram --type E8 --label 5 --format ascii", _CATALOG | {"cartanclass.diagram"}),
    # the rows' class keys are read on their S-chambers
    ("verify table2 --type E7", _CATALOG | {"cartanclass.diagram"}),
    ("verify sos-table", _CATALOG),
    ("verify dual-vectors", {"cartanclass.rootsys", "cartanclass.tables"}),
    ("verify empty-system", {"cartanclass.rootsys", "cartanclass.weylgroup"}),
]

_PROBE = """
import json, runpy, sys
sys.argv = ["cartanclass"] + sys.argv[1:]
code = None
try:
    runpy.run_module("cartanclass.cli", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(json.dumps({"code": code, "stdlib": [m for m in STDLIB if m in sys.modules],
                  "modules": sorted(k for k in sys.modules if k.startswith("cartanclass."))}))
"""
# standard modules a query should load only when it needs them: argparse, with
# gettext and locale, only for help, usage errors and the rarer command lines
_STDLIB = ("argparse", "dataclasses", "fractions", "gettext", "locale")
_PROBE = _PROBE.replace("STDLIB", repr(_STDLIB))


def _python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv,modules", VERB_MODULES, ids=[a for a, _ in VERB_MODULES])
def test_a_query_loads_only_the_layers_its_verb_runs(argv, modules):
    got = _python("-c", _PROBE, *argv.split())
    assert got["code"] == 0
    assert set(got["modules"]) == modules
    # rational vectors come with the layers that do rational algebra or print them
    fractions = bool(modules & {"cartanclass._linalg", "cartanclass.tables"})
    assert got["stdlib"] == ["fractions"] * fractions


@pytest.mark.parametrize("argv,code", [("sigma --help", 0), ("sigma --type G2 --lab -1", 0),
                                       ("cayley --type G2 --label 3 --format text", 2)])
def test_help_errors_and_abbreviations_load_argparse(argv, code):
    got = _python("-c", _PROBE, *argv.split())
    assert got["code"] == code
    assert {"argparse", "gettext", "locale"} <= set(got["stdlib"])


# the root systems of the catalog workload's queries: verify dual-vectors, E7 and E8
CATALOG_SYSTEMS = ([("A", r) for r in range(1, 9)] + [("B", r) for r in range(2, 9)]
                   + [("C", r) for r in range(3, 9)] + [("D", r) for r in range(4, 9)]
                   + [(f, None) for f in ("E6", "E7", "E8", "F4", "G2")])

_BUILD_PROBE = """
import sys
from cartanclass import rootsys
for family, rank in %r:
    rootsys.build(family, rank)
loaded = sorted(k for k in sys.modules if k.startswith("cartanclass."))
stdlib = [m for m in ("json", "fractions") if m in sys.modules]
import json
print(json.dumps({"modules": loaded, "stdlib": stdlib}))
"""


def test_building_root_systems_loads_rootsys_alone():
    """The set-up of every query, importing rootsys and building its root
    systems, compiles no other layer and imports neither json nor fractions:
    only printing and reading vectors use them."""
    got = _python("-c", _BUILD_PROBE % (CATALOG_SYSTEMS,))
    assert got == {"modules": ["cartanclass.rootsys"], "stdlib": []}


def test_importing_the_package_loads_no_layer():
    got = _python("-c", "import json, sys, cartanclass; print(json.dumps(sorted("
                        "k for k in sys.modules if k.startswith('cartanclass'))))")
    assert got == ["cartanclass"]


# -- public names ------------------------------------------------------------------

# Every name the package exported when it imported all layers eagerly, with
# its home module.  eta_from_omega, the vector form of a sign character, has
# left the API (the tests keep it in test_realform.py), and so have
# RootPermutation (group searches return plain permutation tuples) and
# is_v_chamber, which no verb runs (the tests keep it in reference_classes.py).
EXPORTS = {
    "rootsys": ["Chamber", "RootSystem", "RootSystemError", "RootSystemSpec", "build",
                "in_weyl"],
    "_linalg": ["Qrt2"],
    "weylgroup": ["PermGroup", "full_aut_group", "klein_in_weyl", "weyl_group"],
    "chevalley": ["ChevalleySystem", "DenseAlgebra", "QuarterTurn",
                  "ad_k_char_polys", "apply_map", "dense_algebra", "exp_quarter_pi_adk",
                  "structure_constants"],
    "involution": ["Involution", "SosClass", "class_label", "classify_sos",
                   "complex_type_involution", "decompose", "equivalent_involutions",
                   "find_s_chamber", "involution_from_images", "is_s_chamber",
                   "max_sos_class_count", "maximal_sos_classes", "special_involutions",
                   "strongly_orthogonalize", "table2_representatives"],
    "diagram": ["Diagram", "admissible", "chamber_with_imaginary_basis", "restrict_sigma",
                "s_diagram", "sigma_diagram", "theta_on_simple"],
    "realform": ["AntiInvolution", "RealFormName", "SignatureCounts", "cartan_classes",
                 "cayley", "compact_cartan_enumeration", "identify", "in_hom_theta",
                 "is_quasi_split", "isomorphic", "quasi_split_lift", "reduce_noncompact",
                 "signature", "sigma_from_basis_signs", "sigma_from_chamber_signs", "twist"],
}


def test_public_names_resolve_to_their_home_objects():
    for module, names in EXPORTS.items():
        home = importlib.import_module("cartanclass." + module)
        for name in names:
            assert getattr(cartanclass, name) is getattr(home, name), name
    # the S-chamber search keeps its name in diagram, which imports it back
    assert dg.find_s_chamber is iv.find_s_chamber and dg.is_s_chamber is iv.is_s_chamber
    assert cartanclass.CartanclassError is rs.CartanclassError
    with pytest.raises(AttributeError):
        cartanclass.eta_from_omega
    with pytest.raises(AttributeError):
        cartanclass.is_v_chamber
    with pytest.raises(AttributeError):
        cartanclass.no_such_name


def test_star_import_gives_the_public_names():
    namespace: dict = {}
    exec("from cartanclass import *", namespace)
    namespace.pop("__builtins__")
    want = {name for names in EXPORTS.values() for name in names} | {"CartanclassError"}
    assert set(namespace) == want == set(cartanclass.__all__)


def test_input_errors_share_one_base():
    from cartanclass.chevalley import ChevalleyError
    errors = {rs.RootSystemError, iv.InvolutionError, dg.DiagramError, rf.RealFormError,
              ChevalleyError}
    assert all(issubclass(e, rs.CartanclassError) for e in errors)
    assert issubclass(rs.CartanclassError, ValueError)

    def subclasses(c):
        return {c} | {s for d in c.__subclasses__() for s in subclasses(d)}
    assert subclasses(rs.CartanclassError) == errors | {rs.CartanclassError}


# -- record classes ----------------------------------------------------------------


@pytest.mark.parametrize("kwargs,message", [
    ({"family": "X"}, "unknown family 'X'"),
    ({"family": None}, "unknown family None"),
    ({"family": "E8", "rank": 7}, "family E8 has rank 8, not 7"),
    ({"family": "A"}, r"family A needs rank >= 1"),
    ({"family": "D", "rank": 3}, r"family D needs rank >= 4"),
    ({"family": "A", "rank": 2, "realization": "odd"}, "unknown realization 'odd'"),
    ({"family": "A", "rank": 2, "realization": "prime"}, "prime realization exists only"),
    ({"family": "A", "factors": ()}, "a union spec carries no family"),
    ({"factors": (rs.RootSystemSpec(factors=()),)}, "nested unions are not supported"),
])
def test_spec_validation(kwargs, message):
    with pytest.raises(rs.RootSystemError, match=message):
        rs.RootSystemSpec(**kwargs)


def test_spec_fields_equality_and_build_cache():
    spec = rs.RootSystemSpec("E8")
    assert spec.rank == 8 and spec.realization == "standard" and spec.factors is None
    assert spec == rs.RootSystemSpec("E8", 8) and hash(spec) == hash(rs.RootSystemSpec("E8", 8))
    assert spec != rs.RootSystemSpec("E7")
    assert repr(spec) == "RootSystemSpec(family='E8', rank=8, realization='standard', factors=None)"
    with pytest.raises(AttributeError):
        spec.rank = 7
    assert rs.build("F4") is rs.build("F4", 4) is rs.build(rs.RootSystemSpec("F4"))
    assert rs.build("E6", realization="prime") is not rs.build("E6")
    union = rs.RootSystemSpec(factors=(rs.RootSystemSpec("A", 1), rs.RootSystemSpec("G2")))
    assert union.label == "A1+G2"
    assert rs.build(union) is not rs.build(union)  # unions are not cached


def test_chamber_equality_hash_and_repr():
    R, R2 = rs.build("A", 2), rs.build("B", 2)
    ch = R.canonical_chamber()
    same = rs.Chamber(R, ch.basis)
    assert same == ch and hash(same) == hash(ch) and same is not ch
    assert same.positive_set == ch.positive_set  # cached per object, equal values
    assert ch != rs.Chamber(R, tuple(reversed(ch.basis)))
    assert rs.Chamber(R2, ch.basis) != ch  # the system is compared too
    assert {ch: 1}[same] == 1
    assert repr(ch) == "Chamber(system=RootSystem(A2, 6 roots), basis=%r)" % (ch.basis,)
    with pytest.raises(AttributeError):
        ch.basis = ()


def test_diagram_equality_ignores_node_roots():
    R = rs.build("A", 2)
    d = dg.s_diagram(iv.identity_involution(R), R.canonical_chamber())
    bare = dg.Diagram(d.family, d.rank, d.realization, d.colors, d.bonds, d.arrows)
    assert d.node_roots is not None and bare.node_roots is None
    assert d == bare and not (d != bare) and hash(d) == hash(bare)
    other = bare._replace(colors=("black", "white"))
    assert other != bare and not (other == bare)
    assert d != tuple(d) and tuple(d) != d  # a diagram equals diagrams only
    assert repr(d) == ("Diagram(family='A', rank=2, realization='standard', "
                       "colors=('white', 'white'), bonds=((0, 1, 1, 0),), "
                       "arrows=frozenset(), node_roots=%r)" % (d.node_roots,))
    with pytest.raises(AttributeError):
        d.colors = ()


def test_signature_and_name_records():
    s = rf.quasi_split_lift(iv.identity_involution(rs.build("G2")))
    sig = rf.signature(s)
    assert list(sig.to_json()) == ["n1", "n2", "n3", "n3k", "n3p", "ell", "ellk", "ellp",
                                   "dim_k", "dim_p"]
    assert repr(sig) == ("SignatureCounts(n1=6, n2=0, n3=0, n3k=0, n3p=0, ell=2, ellk=0, "
                         "ellp=2, dim_k=6, dim_p=8)")
    with pytest.raises(AssertionError):
        rf.SignatureCounts(n1=6, n2=0, n3=1, n3k=0, n3p=0, ell=2, ellk=0, ellp=2,
                           dim_k=6, dim_p=8)
    name = rf.identify(s)
    assert str(name) == "G"
    assert repr(name) == ("RealFormName(name='G', aliases=(), family='G2', rank=2, dim_k=6, "
                          "is_compact=False, is_split=True)")
    assert repr(iv.classify_sos(rs.build("A", 2), [0])) == "SosClass(family='A', label=(1,))"
