"""Run one workload of the cartanclass benchmark and print its metrics.

    python3 perfbench/run.py --workload classify --seed 1 --seconds 60 --trace 0

Every query is a fresh ``python -m cartanclass.cli`` process, run one at a
time (a closed loop with one client).  Each output is checked.  With
``--trace 0`` the run makes whole passes over the workload's queries while
another pass fits in ``--seconds`` (at least one), times one set-up before
every query, and reports the end-to-end metrics, with times scaled to a
reference machine speed (see SpeedMonitor).  With ``--trace 1`` it runs
each query of one pass untraced and traced (see tracing.py), the two back to
back, and reports the per-layer metrics.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are for people.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

QUERY_TIMEOUT_S = 150.0
RUN_LIMIT_S = 170.0

SETUP_CODE = ("import cartanclass\n"
              "from cartanclass import rootsys\n"
              "for family, rank in %r:\n"
              "    rootsys.build(family, rank)\n")

# The speed monitor (see SpeedMonitor): every MONITOR_EVERY_S it times
# monitor_work() in thread CPU time.  Times are scaled to a machine on which
# that takes MONITOR_REF_S.
MONITOR_SIZE = 2500
MONITOR_EVERY_S = 0.25
MONITOR_WINDOW_S = 1.0
MONITOR_REF_S = 0.005


def monitor_work() -> None:
    """A fixed piece of exact rational arithmetic that builds and sorts
    tuples, as the queries do, using nothing of the program."""
    d = {i: (Fraction(i, 7), (i, i + 1), str(i)) for i in range(MONITOR_SIZE)}
    s = sorted(d.values(), key=lambda v: v[2])
    assert s[0][0] == 0 and len(s) == MONITOR_SIZE


class SpeedMonitor:
    """Follows the speed of one CPU while the processes of a run use it.

    The machine's speed swings by up to 2x within seconds to minutes, and
    its CPUs swing independently.  So the timed processes all run on one CPU
    (the caller pins itself there; children inherit it), and a thread pinned
    to the same CPU times monitor_work() every MONITOR_EVERY_S seconds, all
    through the run.  Thread CPU time counts only the monitor's own running,
    so the queries it shares the CPU with do not lengthen it.  A process that
    ran from ``start`` to ``end`` is scaled by MONITOR_REF_S over the median
    monitor time from MONITOR_WINDOW_S before it to MONITOR_WINDOW_S after."""

    def __init__(self, cpu: int):
        self.cpu = cpu
        self.samples: list[tuple[float, float]] = []   # (perf_counter, thread CPU s)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        os.sched_setaffinity(0, {self.cpu})
        while not self._stop.wait(MONITOR_EVERY_S):
            t0 = time.thread_time()
            monitor_work()
            self.samples.append((time.perf_counter(), time.thread_time() - t0))

    def scale(self, start: float, end: float) -> float:
        near = [s for t, s in self.samples
                if start - MONITOR_WINDOW_S <= t <= end + MONITOR_WINDOW_S]
        if not near:   # only when the monitor thread was starved for seconds
            near = [s for _, s in self.samples]
        return MONITOR_REF_S / statistics.median(near)


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_kb: int
    stdout: bytes
    stderr: bytes
    started: float = 0.0    # perf_counter of run.py around the process
    ended: float = 0.0


def run_process(cmd: list[str], timeout: float) -> Proc:
    """Run cmd (cmd[0] an absolute path) to completion through launch.py,
    which times it and reads its rusage with wait4.  On timeout the whole
    process group is killed."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    started = time.perf_counter()
    with tempfile.TemporaryFile(dir=ROOT) as out, \
            tempfile.TemporaryFile(dir=ROOT) as err, \
            tempfile.TemporaryFile(dir=ROOT) as rep:
        fd = rep.fileno()
        proc = subprocess.Popen(
            [sys.executable, "-I", "-S", str(HERE / "launch.py"), str(fd), *cmd],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
            pass_fds=(fd,), start_new_session=True)
        killer = threading.Timer(timeout, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            proc.wait()
        finally:
            killer.cancel()
        for f in (out, err, rep):
            f.seek(0)
        raw = rep.read()
        report = json.loads(raw) if raw else {
            "code": proc.returncode, "wall_s": timeout, "cpu_s": 0.0, "rss_kb": 0}
        return Proc(report["code"], report["wall_s"], report["cpu_s"], report["rss_kb"],
                    out.read(), err.read(), started, time.perf_counter())


@dataclass
class Outcome:
    query: workloads.Query
    proc: Proc
    reason: str     # '' when the output is right
    known: bool     # the wrong output is the recorded seed defect
    spans: dict | None = None


class Runner:
    def __init__(self):
        self.started = time.perf_counter()
        self.outcomes: list[Outcome] = []

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def query(self, q: workloads.Query, traced: bool) -> Outcome:
        if traced:
            cmd = [sys.executable, str(HERE / "tracing.py"), *q.argv]
        else:
            cmd = [sys.executable, "-m", "cartanclass.cli", *q.argv]
        limit = min(QUERY_TIMEOUT_S, self.remaining())
        if limit <= 0:
            out = Outcome(q, Proc(-1, 0.0, 0.0, 0, b"", b""), "not run: run time limit",
                          False)
        else:
            proc = run_process(cmd, limit)
            spans = None
            if traced:
                body, _, tail = proc.stderr.rstrip(b"\n").rpartition(b"\n")
                if tail.startswith(tracing.MARKER.encode()):
                    spans = json.loads(tail[len(tracing.MARKER):])
                    proc.stderr = body + b"\n" if body else b""
            reason, known = workloads.check(q, proc.code, proc.stdout, ROOT)
            if traced and spans is None and not reason:
                reason = "no trace report"
            out = Outcome(q, proc, reason, known, spans)
        self.outcomes.append(out)
        verdict = "ok" if not out.reason else (
            "KNOWN DEFECT: " if out.known else "FAIL: ") + out.reason
        print("query %-22s %-6s exit=%-3d wall=%.3fs cpu=%.3fs rss=%.1fMB %s"
              % (q.name, "traced" if traced else "plain", out.proc.code, out.proc.wall_s,
                 out.proc.cpu_s, out.proc.rss_kb / 1024, verdict), flush=True)
        return out

    @staticmethod
    def setup(workload: str) -> Proc:
        """One fresh-interpreter set-up: import cartanclass and build every
        root system the workload uses."""
        cmd = [sys.executable, "-c", SETUP_CODE % (workloads.SYSTEMS[workload],)]
        proc = run_process(cmd, QUERY_TIMEOUT_S)
        if proc.code != 0:
            raise RuntimeError("set-up failed: %s" % proc.stderr.decode()[-500:])
        return proc

    def timed_passes(self, plan: workloads.Plan, seconds: float, monitor: SpeedMonitor):
        """Run whole passes while another one, taking as long as the last,
        would end within ``seconds``.  One set-up is timed before every
        query, so that the set-ups meet the same changes in machine speed as
        the queries do.  The monitor must be running on the CPU this thread
        is pinned to.  Returns the number of passes and the set-ups."""
        workload = plan.workload
        # One uncounted set-up first: it writes the bytecode caches.
        self.setup(workload)
        setup: list[Proc] = []
        begin = time.perf_counter()
        passes = 0
        while True:
            t0 = time.perf_counter()
            for q in plan.next_pass():
                setup.append(self.setup(workload))
                self.query(q, traced=False)
            passes += 1
            now = time.perf_counter()
            if now - begin + (now - t0) > seconds or now - t0 > self.remaining():
                break
        print("setup wall=%s" % ",".join("%.3f" % p.wall_s for p in setup), flush=True)
        print("monitor samples=%d median=%.6f s" % (
            len(monitor.samples), statistics.median(s for _, s in monitor.samples)),
            flush=True)
        return passes, setup

    def paired_pass(self, plan: workloads.Plan) -> tuple[list[Outcome], list[Outcome]]:
        """One pass in which each query runs untraced and traced, back to
        back.  Which of the two goes first alternates, so that a drift in
        machine speed falls on both alike."""
        plain: list[Outcome] = []
        traced: list[Outcome] = []
        for i, q in enumerate(plan.next_pass()):
            for t in ((False, True) if i % 2 == 0 else (True, False)):
                (traced if t else plain).append(self.query(q, traced=t))
        return plain, traced


def _times(outcomes: list[Outcome], setup: list[Proc], scale) -> dict:
    walls: dict[str, list[float]] = {}
    cpus: dict[str, list[float]] = {}
    for o in outcomes:
        k = scale(o.proc.started, o.proc.ended)
        walls.setdefault(o.query.name, []).append(o.proc.wall_s * k)
        cpus.setdefault(o.query.name, []).append(o.proc.cpu_s * k)
    wall = {k: statistics.median(v) for k, v in walls.items()}
    return {
        "wall_s": sum(wall.values()),
        "cpu_s": sum(statistics.median(v) for v in cpus.values()),
        "slowest_query_s": max(wall.values()),
        "setup_s": statistics.median(p.wall_s * scale(p.started, p.ended) for p in setup),
    }


def end_to_end(outcomes: list[Outcome], setup: list[Proc], scale) -> dict:
    """The end-to-end metrics.  Each time sample is multiplied by
    ``scale(started, ended)`` of its process (SpeedMonitor.scale) before the
    medians are taken; the measured times are printed beside them."""
    measured = _times(outcomes, setup, lambda start, end: 1.0)
    print("measured %s" % " ".join("%s %.4f" % kv for kv in measured.items()))
    out = {k: (v, "s") for k, v in _times(outcomes, setup, scale).items()}
    out["peak_rss_mb"] = (max(o.proc.rss_kb for o in outcomes) / 1024, "MB")
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(plain: list[Outcome], traced: list[Outcome]) -> dict:
    agg: dict[str, dict] = {}
    root_s = 0.0
    for o in traced:
        if o.spans is None:
            continue
        root_s += o.spans["root_s"]
        for name, st in o.spans["spans"].items():
            tot = agg.setdefault(name, dict.fromkeys(st, 0))
            for k, v in st.items():
                tot[k] += v

    def get(name: str, key: str):
        return agg.get(name, {}).get(key, 0)

    out: dict[str, tuple] = {}
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    layer_errors = dict.fromkeys(tracing.LAYERS, 0)
    for name, st in agg.items():
        layer = name.split(".", 1)[0]
        layer_self[layer] += st["self_s"]
        layer_errors[layer] += st["errors"]
    for layer in tracing.LAYERS:
        out[layer + ".self_s"] = (layer_self[layer], "s")
        out[layer + ".errors"] = (layer_errors[layer], "count")
    for name in ("rootsys.build", "rootsys.perm_of_matrix", "rootsys.canonical_chamber",
                 "weylgroup.chain", "weylgroup.klein_in_weyl",
                 "chevalley.structure_constants", "chevalley.dense_algebra",
                 "chevalley.exp_quarter_pi_adk", "chevalley.compose", "chevalley.jacobi",
                 "involution.table2_representatives", "involution.subsystem_type",
                 "involution.classify_sos", "involution.max_orthogonal_subset",
                 "diagram.find_s_chamber", "diagram.s_diagram", "diagram.restrict_sigma",
                 "realform.antiinvolution", "realform.quasi_split_lift",
                 "realform.reduce_noncompact", "realform.identify",
                 "realform.cartan_classes"):
        out[name + ".s"] = (get(name, "s"), "s")
    for name in ("rootsys.reflection_perm", "weylgroup.conjugator",
                 "chevalley.exp_quarter_pi_adk", "chevalley.compose",
                 "involution.classify_sos", "realform.antiinvolution"):
        out[name + ".calls"] = (get(name, "calls"), "count")
    groups = ("weylgroup.weyl_group", "weylgroup.full_aut_group")
    out["weylgroup.groups_built"] = (get("weylgroup.permgroup", "calls"), "count")
    out["weylgroup.group_cache_hit_ratio"] = (
        _ratio(sum(get(g, "hits") for g in groups), sum(get(g, "calls") for g in groups)),
        "ratio")
    getters = ("chevalley.structure_constants", "chevalley.dense_algebra")
    out["chevalley.cache_hit_ratio"] = (
        _ratio(sum(get(g, "hits") for g in getters), sum(get(g, "calls") for g in getters)),
        "ratio")
    attempts = get("realform.sigma_from_chamber_signs", "calls")
    out["realform.sign_attempts"] = (attempts, "count")
    out["realform.sign_accept_ratio"] = (
        _ratio(attempts - get("realform.sigma_from_chamber_signs", "errors"), attempts),
        "ratio")
    traced_wall = sum(o.proc.wall_s for o in traced)
    plain_wall = sum(o.proc.wall_s for o in plain)
    out["cli.self_s"] = (traced_wall - root_s, "s")
    out["cli.errors"] = (sum(1 for o in traced if o.proc.code != 0), "count")
    out["trace.overhead_share"] = (_ratio(traced_wall - plain_wall, plain_wall), "ratio")
    return out


def setup_omissions(workload: str, traced: list[Outcome]) -> list:
    """Root systems the traced queries built that the timed set-up does not
    build.  Prints the comparison of the two lists."""
    built = {tuple(b) for o in traced if o.spans for b in o.spans["builds"]}
    listed = set(workloads.SYSTEMS[workload])
    missing = sorted(built - listed, key=str)
    print("setup systems: %d built by the queries, %d listed; not listed: %s; not built: %s"
          % (len(built), len(listed), missing or "none",
             sorted(listed - built, key=str) or "none"))
    return missing


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    for need in ("src/cartanclass/cli.py", workloads.ANTIINVOLUTION_SCHEMA):
        if not (ROOT / need).is_file():
            print("perfbench: %s not found under %s; run from a full checkout"
                  % (need, ROOT), file=sys.stderr)
            return 2

    print("info %s" % json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count()}), flush=True)
    plan = workloads.Plan(args.workload, args.seed)
    runner = Runner()
    omitted = []
    if args.trace:
        plain, traced = runner.paired_pass(plan)
        metrics = per_layer(plain, traced)
        # setup_s is meant to build what the queries build; a system the
        # program starts to build must be added to workloads.SYSTEMS.
        omitted = setup_omissions(args.workload, traced)
        passes = 1
    else:
        # Every timed process runs on one CPU, the one the monitor follows.
        allowed = os.sched_getaffinity(0)
        cpu = max(allowed)
        os.sched_setaffinity(0, {cpu})
        try:
            with SpeedMonitor(cpu) as monitor:
                passes, setup = runner.timed_passes(plan, args.seconds, monitor)
        finally:
            os.sched_setaffinity(0, allowed)
        metrics = end_to_end(runner.outcomes, setup, monitor.scale)

    outcomes = runner.outcomes
    failed = sum(1 for o in outcomes if o.reason)
    correct = all(o.known or not o.reason for o in outcomes) and not omitted
    for name, (value, unit) in metrics.items():
        print("metric %-36s %.6g %s" % (name, value, unit))
    print("passes %d ops %d failed_ops %d fail_share %.6g correct %s"
          % (passes, len(outcomes), failed, failed / len(outcomes), correct))
    print(json.dumps({
        "correct": correct, "attempted": len(outcomes), "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
