"""Command-line behavior: determinism, formats, schemas, exit codes."""

import io
import json
import os
import pathlib
import shlex
import subprocess
import sys

import pytest
from jsonschema import Draft202012Validator
from referencing import Registry, Resource

from cartanclass import cli
from cartanclass import diagram as dg, involution as iv, realform as rf, rootsys as rs

HERE = pathlib.Path(__file__).parent
SCHEMAS = HERE.parent / "schemas"
GOLDEN = HERE / "golden"


def run(argv):
    import contextlib
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def schema(name):
    return json.loads((SCHEMAS / name).read_text())


def validate(instance, schema_json):
    resources = [(p.name, Resource.from_contents(json.loads(p.read_text())))
                 for p in SCHEMAS.glob("*.json")]
    registry = Registry().with_resources(resources)
    Draft202012Validator(schema_json, registry=registry).validate(instance)


def test_build_json_validates():
    code, out = run(["build", "--type", "A", "--rank", "2", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    validate(data, schema("rootsystem.schema.json"))
    assert len(data["roots"]) == 6


def test_build_deterministic():
    a = run(["build", "--type", "F4", "--format", "json"])
    b = run(["build", "--type", "F4", "--format", "json"])
    assert a == b


def test_involutions_g2():
    code, out = run(["involutions", "--type", "G2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert sum(1 for r in rows if r["in_weyl"]) == 3


def test_sos_e8_classes():
    code, out = run(["sos", "--type", "E8", "--size", "4", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert sorted(r["klein"] for r in rows) == [False, True]


def test_diagram_golden_and_dot():
    code, out = run(["diagram", "--type", "B", "--rank", "4",
                     "--label", "r1,2", "--format", "ascii"])
    assert code == 0
    assert out == (GOLDEN / "b4_r1_2.txt").read_text()
    code, dot = run(["diagram", "--type", "B", "--rank", "4",
                     "--label", "r1,2", "--format", "dot"])
    assert code == 0
    assert dot.startswith("graph diagram {")
    code, js = run(["diagram", "--type", "B", "--rank", "4",
                    "--label", "r1,2", "--format", "json"])
    validate(json.loads(js), schema("diagram.schema.json"))


def test_diagram_from_images():
    images = json.dumps([[0, 1, -1], [1, -1, 0]])
    code, out = run(["diagram", "--type", "A", "--rank", "2",
                     "--images", images, "--format", "ascii"])
    assert code == 0
    assert "arrows: 1<->2" in out


def test_sigma_golden():
    code, out = run(["sigma", "--type", "B", "--rank", "2", "--label", "r0,2",
                     "--format", "ascii"])
    assert code == 0
    assert out == (GOLDEN / "b2_antipodal_lift.txt").read_text()


def test_sigma_restricted():
    code, out = run(["sigma", "--type", "B", "--rank", "2", "--label", "r0,2",
                     "--signs=--", "--restricted", "--format", "ascii"])
    assert code == 0
    assert out.count("x") == 1


def test_cayley_reduce_json():
    code, out = run(["cayley", "--type", "C", "--rank", "4", "--label", "r0,4",
                     "--signs", "+++-", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    validate(data, schema("antiinvolution.schema.json"))
    assert data["name"] == "sp(8,R)"
    assert data["noncompact"] == []


def test_cayley_single_root():
    code, out = run(["cayley", "--type", "C", "--rank", "4", "--label", "r0,4",
                     "--signs=-+++", "--root", "[1,1,0,0]", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "sp(1,3)"
    assert data["noncompact"] == []


def test_cartans_counts():
    code, out = run(["cartans", "--type", "A", "--rank", "1", "--label", "id",
                     "--format", "json"])
    assert code == 0
    assert len(json.loads(out)) == 2


def test_realforms_b2():
    code, out = run(["realforms", "--type", "B", "--rank", "2", "--format", "json"])
    assert code == 0
    names = {r["name"] for r in json.loads(out)}
    assert names == {"so(5)", "so(1,4)", "so(2,3)"}


def test_realforms_e6_lists_all_five_forms():
    """-1 is an outer automorphism of E6, so no catalog row negates every
    root; the compact Cartan of e6, EII and EIII comes from the extra
    row -1, whose label can be passed back."""
    code, out = run(["realforms", "--type", "E6", "--format", "json"])
    assert code == 0
    rows = {r["name"]: r for r in json.loads(out)}
    assert set(rows) == {"EI", "EII", "EIII", "EIV", "e6"}
    assert rows["e6"]["cartan_involutions"] == ["-1"]
    for r in rows.values():
        for lab in r["cartan_involutions"]:
            assert run(["cartans", "--type", "E6", "--label", lab])[0] == 0
    code, out = run(["realforms", "--type", "E6", "--realization", "prime",
                     "--format", "json"])
    assert code == 0 and "e6" in {r["name"] for r in json.loads(out)}


REALFORMS_GOLDEN = json.loads((GOLDEN / "realforms.json").read_text())


@pytest.mark.parametrize("key", sorted(REALFORMS_GOLDEN))
def test_realforms_golden(key):
    """`realforms --format json` per system, recorded when each twist was
    still re-derived by height and reduced by a Cayley chain before being
    named (A8, B8, C8, D8 and E8: when every character was twisted and
    named); a key with a prime is the prime realization."""
    label = key.rstrip("'")
    argv = ["realforms", "--format", "json", "--type"]
    argv += [label] if label in cli.rs.FAMILIES else [label[0], "--rank", label[1:]]
    if key.endswith("'"):
        argv += ["--realization", "prime"]
    code, out = run(argv)
    assert code == 0
    assert json.loads(out) == REALFORMS_GOLDEN[key]


def test_label_minus_one_is_the_antipodal_involution():
    for argv in (["--type", "G2"], ["--type", "B", "--rank", "2"], ["--type", "E6"]):
        code, out = run(["diagram", "--label", "-1", "--format", "json"] + argv)
        assert code == 0
        assert {n["color"] for n in json.loads(out)["nodes"]} == {"black"}
    code, out = run(["cayley", "--type", "E6", "--label", "-1", "--format", "json"])
    assert code == 0 and json.loads(out)["name"] == "EII"


def test_verify_suites():
    for suite in ("empty-system", "table2", "sos-table"):
        code, out = run(["verify", suite, "--type", "G2"])
        assert code == 0, (suite, out)
        assert "FAIL" not in out
    code, out = run(["verify", "chevalley", "--type", "F4"])
    assert code == 0 and "PASS" in out


@pytest.mark.parametrize("rank", [6, 8])
def test_verify_table2_separates_rows_with_equal_invariants(rank):
    """Two D6 rows (r1,2 and r3,0; r2,2 and r4,0 of D8) share their
    invariants but are not W-conjugate, so the catalog separates them."""
    code, out = run(["verify", "table2", "--type", "D", "--rank", str(rank)])
    assert code == 0, out
    assert "PASS table2 invariant separation\n" in out


def test_exit_codes():
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "--type", "Z"])
    assert exc.value.code == 2
    code, _ = run(["diagram", "--type", "A", "--rank", "2",
                   "--images", json.dumps([[0, 1, -1], [0, 0, 0]])])
    assert code == 3
    code, _ = run(["diagram", "--type", "A", "--rank", "2", "--label", "nope"])
    assert code == 3
    code, _ = run(["verify", "unknown-suite"])
    assert code == 2


def test_signs_must_be_plus_or_minus(capsys):
    code, _ = run(["sigma", "--type", "B", "--rank", "2", "--label", "r0,2",
                   "--signs=xy", "--format", "ascii"])
    assert code == 3
    assert "'x'" in capsys.readouterr().err
    code, _ = run(["sigma", "--type", "B", "--rank", "2", "--label", "r0,2",
                   "--signs=--", "--format", "ascii"])
    assert code == 0


def test_signs_double_minus_is_two_minus_signs():
    """argparse drops a lone -- from an option's value; --signs=-- still
    means a minus sign at both nodes, not the quasi-split datum."""
    assert run(["sigma", "--type", "G2", "--label", "-1", "--signs=--"]) == (0, "x<3=x\n")
    b2 = ["--type", "B", "--rank", "2", "--label", "r0,2"]
    assert run(["sigma", *b2, "--signs=--"]) == (0, "x==>x\n")
    assert run(["sigma", *b2, "--signs=--", "--restricted"]) == (0, "x==>*\n")
    code, out = run(["cayley", *b2, "--signs=--"])
    assert code == 0 and json.loads(out)["f_on_simple"] == {"4": -1, "5": -1}
    assert run(["cayley", *b2, "--signs=--"]) != run(["cayley", *b2])


def test_empty_signs_exit_3(capsys):
    for verb in ("sigma", "cayley", "cartans"):
        argv = [verb, "--type", "B", "--rank", "2", "--label", "r0,2", "--signs="]
        assert run(argv) == (3, ""), verb
        assert capsys.readouterr().err == "error: expected 2 signs\n"


def _round_trip_cases():
    specs = [("A", r) for r in range(2, 8)] + [("D", r) for r in (4, 5, 6)] + [("E6", None)]
    return [(fam, rank, lab) for fam, rank in specs
            for lab in ["id", "-1"] + [lab for lab, _ in
                                        iv.table2_representatives(rs.build(fam, rank))]]


@pytest.mark.parametrize("fam,rank,label", _round_trip_cases())
def test_quasi_split_signs_at_the_drawn_nodes_round_trip(fam, rank, label):
    """sigma and cayley given the quasi-split datum's signs at the drawn
    nodes print what they print without --signs."""
    R = rs.build(fam, rank)
    args = ["--type", fam, "--label", label] + (["--rank", str(rank)] if rank else [])
    theta = {"id": iv.identity_involution(R), "-1": iv.antipodal_involution(R),
             **dict(iv.table2_representatives(R))}[label]
    lift = rf.quasi_split_lift(theta)
    drawn = dg.s_diagram(theta, dg.find_s_chamber(theta)).node_roots
    signs = "--signs=" + "".join("+" if lift.f[b] == 1 else "-" for b in drawn)
    for verb in ("sigma", "cayley"):
        assert run([verb, *args, signs]) == run([verb, *args]), (verb, signs)


def test_sos_size_must_be_positive(capsys):
    for size in ("0", "-1"):
        assert run(["sos", "--type", "E8", "--size", size]) == (3, "")
        assert "--size: %s " % size in capsys.readouterr().err
    code, out = run(["sos", "--type", "G2", "--size", "1"])
    assert code == 0 and "size=1" in out


def test_rank_of_fixed_rank_family():
    assert run(["build", "--type", "G2", "--rank", "3"])[0] == 3
    assert run(["build", "--type", "E6", "--rank", "7"])[0] == 3
    assert run(["build", "--type", "G2", "--rank", "2"]) == run(["build", "--type", "G2"])


@pytest.mark.parametrize("typ,images,msg", [
    ("A 3", "[[1,-1,0,0],[0,1,-1,0]]", "expected 3 images"),
    ("A 3", "[[1,-1,0],[0,1,-1],[0,0,1]]", "images need 4 coordinates"),
    ("A 3", "[[1,-1,0,0],[0,1,-1,0],[0,0,1,1]]", "map is not an isometry"),
    ("A 3", "[[1,-1,0,0],[0,1,-1,0],[0,0,2,-2]]", "map is not an isometry"),
    ("B 2", '[["7/5","1/5"],["-4/5","3/5"]]', "map does not preserve the root set"),
    ("A 3", "[[1,-1,0,0],[1,-1,0,0],[0,0,1,-1]]", "map is not an isometry"),
    ("B 2", "[[1,1],[1,0]]", "map is not an isometry"),
    ("A 3", "[[0,1,-1,0],[0,0,1,-1],[-1,0,0,1]]", "permutation does not square to the identity"),
], ids=["count", "dimension", "non-root", "non-root-scaled", "non-root-isometry",
        "gram-repeated", "gram", "order-4"])
def test_images_errors_exit_3_with_their_messages(typ, images, msg, capsys):
    """--images input off the root-lookup path (wrong count or dimension, an
    image that is not a root, roots with another Gram matrix) and a map of
    order above two exit 3 with the rational path's message."""
    fam, rank = typ.split()
    assert run(["cartans", "--type", fam, "--rank", rank, "--images", images]) == (3, "")
    assert capsys.readouterr().err == "error: %s\n" % msg


@pytest.mark.parametrize("root,msg", [
    ("[1,-1,0,5]", "G2: the vector has 4 coordinates, the roots have 3"),
    ("[1,-1]", "G2: the vector has 2 coordinates, the roots have 3"),
    ("[1,-1,5]", "(1, -1, 5) is not a root of G2"),
    ('[1,"1/2",0]', "(1, 1/2, 0) is not a root of G2"),
], ids=["long", "short", "non-root", "non-root-rational"])
def test_root_errors_exit_3_with_their_messages(root, msg, capsys):
    """A --root of the wrong length names the two coordinate counts, as
    --images and in_dual_lattice do; a vector that is not a root is printed
    as the realization prints its roots."""
    argv = ["cayley", "--type", "G2", "--label", "3", "--root", root]
    assert run(argv) == (3, "")
    assert capsys.readouterr().err == "error: %s\n" % msg


def test_malformed_vectors_exit_3(capsys):
    a2 = ["diagram", "--type", "A", "--rank", "2", "--format", "ascii", "--images"]
    for images in ("[[0,1,-1],", "5", "[[0,1,-1],[1,\"y\",0]]"):
        assert run(a2 + [images])[0] == 3, images
        assert "--images" in capsys.readouterr().err
    assert run(a2 + ["[[0,1],[1,0]]"])[0] == 3  # two coordinates in R^3
    c4 = ["cayley", "--type", "C", "--rank", "4", "--label", "r0,4", "--signs=-+++", "--root"]
    for root in ("[1,1,0", "[1,\"1/0\",0,0]", "7"):
        assert run(c4 + [root])[0] == 3, root
        assert "--root" in capsys.readouterr().err


def test_internal_errors_are_not_input_errors(monkeypatch):
    for exc in (KeyError, ValueError):
        def broken(self, exc=exc):
            raise exc("internal")
        monkeypatch.setattr(cli.rs.RootSystem, "to_json_str", broken)
        with pytest.raises(exc):
            cli.main(["build", "--type", "A", "--rank", "1", "--format", "json"])


def test_diagram_and_sigma_default_to_ascii():
    for argv in (["diagram", "--type", "B", "--rank", "4", "--label", "r1,2"],
                 ["sigma", "--type", "B", "--rank", "2", "--label", "r0,2",
                  "--signs=--", "--restricted"]):
        code, out = run(argv)
        assert code == 0, argv
        assert (code, out) == run(argv + ["--format", "ascii"])
        with pytest.raises(SystemExit) as exc:
            run(argv + ["--format", "text"])
        assert exc.value.code == 2


def test_format_takes_only_what_a_verb_prints():
    for argv in (["build", "--type", "A", "--rank", "2", "--format", "dot"],
                 ["sos", "--type", "G2", "--format", "ascii"],
                 ["cayley", "--type", "G2", "--label", "3", "--format", "text"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2, argv


def test_readme_commands_run():
    text = (HERE.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("cartanclass ")]
    assert lines
    failed = [line for line in lines if run(shlex.split(line)[1:])[0] != 0]
    assert failed == []


@pytest.mark.parametrize("argv", [["build", "--type", "E8", "--format", "json"],
                                  ["involutions", "--type", "G2"]])
def test_closed_stdout_is_a_normal_end(argv):
    """A verb whose reader has closed stdout ends quietly with exit 0.  The
    read end of the pipe is closed before the verb starts, so every write
    fails: while printing (E8's large output) or at the final flush."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(HERE.parent / "src"), os.environ.get("PYTHONPATH", "")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "cartanclass.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=env,
                              text=True, timeout=300)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, "")


def test_referential_transparency():
    argv = ["sigma", "--type", "C", "--rank", "3", "--label", "r1,1",
            "--format", "json"]
    assert run(argv) == run(argv)
