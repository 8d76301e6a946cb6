"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

E6_SEED_OUTPUT = (b"EI           dim_k=36   cartans=id,w1,w2,w3,w4\n"
                  b"EIV          dim_k=52   cartans=w4\n")


def _query(name):
    return next(q for wl in workloads.WORKLOADS
                for q in workloads.Plan(wl, 0).queries if q.name == name)


def _cli(*argv):
    return subprocess.run([sys.executable, "-m", "cartanclass.cli", *argv],
                          cwd=ROOT, env=ENV, capture_output=True, check=False)


# -- output checks ---------------------------------------------------------------


def test_checker_rejects_mutated_stdout_and_wrong_exit_code():
    q = _query("verify-sos-table")
    out = _cli(*q.argv).stdout
    assert workloads.check(q, 0, out, ROOT) == ("", False)
    mutated = out.replace(b"PASS", b"FAIL", 1)
    reason, known = workloads.check(q, 0, mutated, ROOT)
    assert reason and not known
    reason, known = workloads.check(q, 3, out, ROOT)
    assert reason == "exit code 3" and not known


def test_realforms_reference_accepts_aliases_and_rejects_gaps():
    ok = ("so(1,7)      dim_k=21   cartans=r0,3\n"
          "so*(8)       dim_k=16   cartans=r0,2\n"
          "so(3,5)      dim_k=13   cartans=r0,1\n"
          "so(4,4)      dim_k=12   cartans=id\n"
          "so(8)        dim_k=28   cartans=r0,4\n")
    assert workloads.check_realforms("D4", ok) == ""
    assert "missing so(8)" == workloads.check_realforms("D4", "\n".join(ok.splitlines()[:-1]))
    assert "unexpected" in workloads.check_realforms("D4", ok.replace("dim_k=13", "dim_k=14"))
    assert "unexpected" in workloads.check_realforms("G2", "G  dim_k=6  cartans=id\n" * 2)


def test_e6_seed_output_is_the_known_defect_and_only_that():
    q = _query("realforms-E6")
    reason, known = workloads.check(q, 0, E6_SEED_OUTPUT, ROOT)
    assert reason == "missing EII, EIII, e6" and known
    reason, known = workloads.check(q, 0, E6_SEED_OUTPUT.replace(b"w4\n", b"w3\n", 1), ROOT)
    assert reason and not known


def test_cayley_schema_validation():
    validator = workloads._validator(ROOT, workloads.ANTIINVOLUTION_SCHEMA)
    body = json.loads(_cli("cayley", "--type", "G2", "--label", "3").stdout)
    assert not list(validator.iter_errors(body))
    body["unexpected"] = 1
    assert list(validator.iter_errors(body))


# -- seeded inputs ----------------------------------------------------------------


def test_conjugate_images_is_an_isometry_and_identity_word_is_theta():
    simple = [tuple(map(Fraction, v)) for v in workloads.E6_SIMPLE]
    w3 = [tuple(map(Fraction, v)) for v in workloads.E6_W3_IMAGES]
    assert workloads.conjugate_images(simple, w3, []) == w3
    imgs = workloads.conjugate_images(simple, w3, [0, 2, 3, 1, 5, 4, 3])
    gram = [[workloads._dot(a, b) for b in w3] for a in w3]
    assert [[workloads._dot(a, b) for b in imgs] for a in imgs] == gram


def test_plan_is_determined_by_the_seed():
    a, b, c = (workloads.Plan("classify", s) for s in (7, 7, 8))
    assert a.queries == b.queries and a.next_pass() == b.next_pass()
    assert a.queries != c.queries  # the conjugating word differs


def test_conjugated_query_prints_the_catalog_row_output():
    q = _query("cartans-E6-conj")
    proc = _cli(*q.argv)
    assert workloads.check(q, proc.returncode, proc.stdout, ROOT) == ("", False)


# -- tracing ------------------------------------------------------------------------


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    # a [0, 10] holds b [1, 4] (holding c [2, 3]) and b [5, 6]; a is
    # recursive inside the second b: a [5.2, 5.7].
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 3, 4, 5, 5.2, 5.7, 6, 10]))
    t.enter("x.a")
    t.enter("x.b")
    t.enter("y.c")
    t.exit()
    t.exit()
    t.enter("x.b")
    t.enter("x.a")
    t.exit(error=True)
    t.exit()
    t.exit()
    st = t.stats
    assert st["y.c"]["self_s"] == 1
    assert st["x.b"]["calls"] == 2 and st["x.b"]["self_s"] == (3 - 1) + (1 - 0.5)
    assert st["x.a"]["calls"] == 2 and st["x.a"]["errors"] == 1
    assert st["x.a"]["self_s"] == (10 - 3 - 1) + 0.5
    assert st["x.a"]["s"] == 10  # the nested call is not counted twice
    assert t.root_s == 10


def test_span_names_are_stable():
    assert tracing.span_names() == [
        "chevalley.ad_k_char_polys", "chevalley.apply_map", "chevalley.chevalley_system",
        "chevalley.compose", "chevalley.dense_algebra", "chevalley.dense_build",
        "chevalley.exp_quarter_pi_adk", "chevalley.jacobi", "chevalley.structure_constants",
        "chevalley.verify_antisymmetry", "chevalley.verify_defining_items",
        "chevalley.verify_identities",
        "diagram.admissible", "diagram.canonical_node_order",
        "diagram.chamber_with_imaginary_basis", "diagram.find_s_chamber", "diagram.render",
        "diagram.restrict_sigma", "diagram.s_diagram", "diagram.sigma_diagram",
        "involution.class_label", "involution.classify_sos", "involution.decompose",
        "involution.equivalent_involutions", "involution.involution_from_images",
        "involution.max_orthogonal_subset", "involution.maximal_sos_classes",
        "involution.sos_classes_by_size", "involution.special_involutions",
        "involution.strongly_orthogonalize", "involution.subsystem_type",
        "involution.table2_representatives",
        "realform.antiinvolution", "realform.cartan_classes", "realform.cayley",
        "realform.eps_sharp_map", "realform.f2_solution_space",
        "realform.hom_theta_constraints", "realform.identify", "realform.is_quasi_split",
        "realform.isomorphic", "realform.project_span", "realform.psi_map",
        "realform.quasi_split_lift", "realform.reduce_noncompact", "realform.sigma_dense",
        "realform.sigma_from_chamber_signs", "realform.signature", "realform.twist",
        "rootsys.build", "rootsys.canonical_chamber", "rootsys.chamber_from_simple_basis",
        "rootsys.chamber_from_witness", "rootsys.perm_of_matrix", "rootsys.reflection_perm",
        "rootsys.to_json",
        "tables.adapted_dual_vector", "tables.compact_cartan_identities",
        "tables.compact_chain_sos", "tables.dual_vector_table", "tables.standard_max_sos",
        "weylgroup.chain", "weylgroup.conjugator", "weylgroup.diagram_automorphisms",
        "weylgroup.full_aut_group", "weylgroup.klein_in_weyl", "weylgroup.permgroup",
        "weylgroup.transporter_pair", "weylgroup.transporter_set", "weylgroup.weyl_group",
    ]
    assert {name.split(".")[0] for name in tracing.span_names()} == set(tracing.LAYERS)


def _traced(*argv):
    proc = subprocess.run([sys.executable, str(HERE / "tracing.py"), *argv],
                          cwd=ROOT, env=ENV, capture_output=True, check=False)
    last = proc.stderr.decode().splitlines()[-1]
    assert last.startswith(tracing.MARKER)
    return proc, json.loads(last[len(tracing.MARKER):])


def test_traced_query_prints_identical_stdout():
    argv = ["realforms", "--type", "G2"]
    plain = _cli(*argv)
    traced, report = _traced(*argv)
    assert traced.returncode == plain.returncode == 0
    assert traced.stdout == plain.stdout
    spans = report["spans"]
    assert spans["realform.quasi_split_lift"]["calls"] >= 1
    # a from-import copy (cli's structure_constants) is wrapped as well
    assert spans["chevalley.structure_constants"]["calls"] >= 1
    assert report["builds"] == [["G2", None]]


def test_setup_builds_every_system_of_verify_dual_vectors():
    # The program holds its own list of these systems (tables.py); the
    # benchmark's set-up list must cover it.
    _, report = _traced(*_query("verify-dual-vectors").argv)
    built = {tuple(b) for b in report["builds"]}
    assert len(built) > 20 and built <= set(workloads.SYSTEMS["catalog"])


# -- run.py ----------------------------------------------------------------------------


def test_end_to_end_scales_each_sample():
    q = workloads.Query("q", (), "digest")

    def proc(wall, mb, started):
        return run.Proc(0, wall, wall / 2, 1024 * mb, b"", b"", started, started + wall)

    outcomes = [run.Outcome(q, proc(wall, mb, t), "", False)
                for wall, mb, t in ((3.0, 10, 0), (1.0, 30, 10), (2.0, 20, 20))]
    setup = [proc(w, 0, t) for w, t in ((0.1, 0), (0.4, 10), (0.2, 20))]
    # the machine is at the reference speed until t = 5, then twice as fast
    m = run.end_to_end(outcomes, setup, lambda start, end: 1.0 if start < 5 else 2.0)
    assert m["wall_s"] == m["slowest_query_s"] == (3.0, "s")  # median of 3, 2, 4
    assert m["cpu_s"] == (1.5, "s") and m["setup_s"] == (0.4, "s")
    assert m["peak_rss_mb"] == (30, "MB")  # memory is not scaled


def test_speed_monitor_scales_by_the_samples_near_a_process():
    cpu = max(os.sched_getaffinity(0))
    with run.SpeedMonitor(cpu) as monitor:
        time.sleep(3 * run.MONITOR_EVERY_S)
    assert monitor.samples and all(s > 0 for _, s in monitor.samples)
    ref = run.MONITOR_REF_S
    monitor.samples = [(0.0, ref), (1.0, ref), (5.0, ref / 2), (5.5, ref / 2), (6.0, ref)]
    assert monitor.scale(0.0, 0.5) == 1.0
    assert monitor.scale(4.5, 4.6) == 2.0       # only the samples at 5.0 and 5.5
    assert monitor.scale(100.0, 101.0) == ref / statistics.median(
        s for _, s in monitor.samples)        # none near: the whole run


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60, check=False)
    assert proc.returncode != 0 and proc.stdout == b""
