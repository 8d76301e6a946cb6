"""Outside-in spans around the public functions of each cartanclass layer.

A layer is a module of the package.  ``install`` wraps the functions and
methods named in ``SPANS`` and rebinds every ``from ... import`` copy of a
wrapped function, so nested calls become child spans.  The package itself
is not modified on disk.

Run as a script, this file is one traced query process::

    PYTHONPATH=src python perfbench/tracing.py realforms --type G2

It prints exactly what ``python -m cartanclass.cli`` prints on stdout and
exits with the same code; after the program's own stderr it appends one
line ``MARKER <json>`` holding the per-span totals.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

MARKER = "perfbench-trace:"

LAYERS = ("rootsys", "weylgroup", "chevalley", "involution", "diagram",
          "realform", "tables")

# (span name, module, qualified attribute).  Two attributes may share a span
# name.  Only boundary calls are listed: wrapping an inner-loop helper such as
# RootSystem.dot would cost more than the work it measures.
SPANS = (
    ("rootsys.build", "rootsys", "build"),
    ("rootsys.reflection_perm", "rootsys", "RootSystem.reflection_perm"),
    ("rootsys.perm_of_matrix", "rootsys", "RootSystem.perm_of_matrix"),
    ("rootsys.canonical_chamber", "rootsys", "RootSystem.canonical_chamber"),
    ("rootsys.chamber_from_witness", "rootsys", "RootSystem.chamber_from_witness"),
    ("rootsys.chamber_from_simple_basis", "rootsys", "RootSystem.chamber_from_simple_basis"),
    ("rootsys.to_json", "rootsys", "RootSystem.to_json"),
    ("weylgroup.weyl_group", "weylgroup", "weyl_group"),
    ("weylgroup.full_aut_group", "weylgroup", "full_aut_group"),
    ("weylgroup.permgroup", "weylgroup", "PermGroup.__init__"),
    ("weylgroup.chain", "weylgroup", "PermGroup.chain"),
    ("weylgroup.transporter_set", "weylgroup", "PermGroup.transporter_set"),
    ("weylgroup.transporter_pair", "weylgroup", "PermGroup.transporter_pair"),
    ("weylgroup.conjugator", "weylgroup", "PermGroup.conjugator"),
    ("weylgroup.diagram_automorphisms", "weylgroup", "diagram_automorphisms"),
    ("weylgroup.klein_in_weyl", "weylgroup", "klein_in_weyl"),
    ("chevalley.structure_constants", "chevalley", "structure_constants"),
    ("chevalley.chevalley_system", "chevalley", "ChevalleySystem.__init__"),
    ("chevalley.verify_identities", "chevalley", "ChevalleySystem.verify_identities"),
    ("chevalley.dense_algebra", "chevalley", "dense_algebra"),
    ("chevalley.dense_build", "chevalley", "DenseAlgebra.__init__"),
    ("chevalley.verify_defining_items", "chevalley", "DenseAlgebra.verify_defining_items"),
    ("chevalley.verify_antisymmetry", "chevalley", "DenseAlgebra.verify_antisymmetry"),
    ("chevalley.jacobi", "chevalley", "DenseAlgebra.verify_jacobi_full"),
    ("chevalley.jacobi", "chevalley", "DenseAlgebra.verify_jacobi_sampled"),
    ("chevalley.ad_k_char_polys", "chevalley", "ad_k_char_polys"),
    ("chevalley.exp_quarter_pi_adk", "chevalley", "exp_quarter_pi_adk"),
    ("chevalley.compose", "chevalley", "LinearMap.compose"),
    ("chevalley.apply_map", "chevalley", "apply_map"),
    ("involution.table2_representatives", "involution", "table2_representatives"),
    ("involution.special_involutions", "involution", "special_involutions"),
    ("involution.involution_from_images", "involution", "involution_from_images"),
    ("involution.decompose", "involution", "decompose"),
    ("involution.strongly_orthogonalize", "involution", "strongly_orthogonalize"),
    ("involution.max_orthogonal_subset", "involution", "max_orthogonal_subset"),
    ("involution.subsystem_type", "involution", "subsystem_type"),
    ("involution.classify_sos", "involution", "classify_sos"),
    ("involution.sos_classes_by_size", "involution", "sos_classes_by_size"),
    ("involution.maximal_sos_classes", "involution", "maximal_sos_classes"),
    ("involution.equivalent_involutions", "involution", "equivalent_involutions"),
    ("involution.class_label", "involution", "class_label"),
    ("diagram.find_s_chamber", "diagram", "find_s_chamber"),
    ("diagram.chamber_with_imaginary_basis", "diagram", "chamber_with_imaginary_basis"),
    ("diagram.canonical_node_order", "diagram", "canonical_node_order"),
    ("diagram.s_diagram", "diagram", "s_diagram"),
    ("diagram.sigma_diagram", "diagram", "sigma_diagram"),
    ("diagram.admissible", "diagram", "admissible"),
    ("diagram.restrict_sigma", "diagram", "restrict_sigma"),
    ("diagram.render", "diagram", "Diagram.render"),
    ("realform.quasi_split_lift", "realform", "quasi_split_lift"),
    ("realform.sigma_from_chamber_signs", "realform", "sigma_from_chamber_signs"),
    ("realform.antiinvolution", "realform", "AntiInvolution.__init__"),
    ("realform.hom_theta_constraints", "realform", "hom_theta_constraints"),
    ("realform.f2_solution_space", "realform", "f2_solution_space"),
    ("realform.project_span", "realform", "project_span"),
    ("realform.sigma_dense", "realform", "sigma_dense"),
    ("realform.eps_sharp_map", "realform", "eps_sharp_map"),
    ("realform.psi_map", "realform", "psi_map"),
    ("realform.twist", "realform", "twist"),
    ("realform.signature", "realform", "signature"),
    ("realform.cayley", "realform", "cayley"),
    ("realform.reduce_noncompact", "realform", "reduce_noncompact"),
    ("realform.is_quasi_split", "realform", "is_quasi_split"),
    ("realform.isomorphic", "realform", "isomorphic"),
    ("realform.identify", "realform", "identify"),
    ("realform.cartan_classes", "realform", "cartan_classes"),
    ("tables.dual_vector_table", "tables", "dual_vector_table"),
    ("tables.adapted_dual_vector", "tables", "adapted_dual_vector"),
    ("tables.standard_max_sos", "tables", "standard_max_sos"),
    ("tables.compact_chain_sos", "tables", "compact_chain_sos"),
    ("tables.compact_cartan_identities", "tables", "compact_cartan_identities"),
)

# Cached getters: a call is a cache hit when it constructs nothing, that is
# when the named constructor span does not start inside it.
CACHED = {
    "weylgroup.weyl_group": "weylgroup.permgroup",
    "weylgroup.full_aut_group": "weylgroup.permgroup",
    "chevalley.structure_constants": "chevalley.chevalley_system",
    "chevalley.dense_algebra": "chevalley.dense_build",
}


def span_names() -> list[str]:
    return sorted({name for name, _, _ in SPANS})


class Tracer:
    """Span bookkeeping for one process.

    Per span name it keeps: calls, inclusive seconds (outermost call of a
    recursion only), self seconds (duration minus the time direct child
    spans cover), calls that raised, and, for cached getters, hits."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, dict] = {}
        self.stack: list[list] = []  # [name, start, child seconds]
        self.depth: dict[str, int] = {}
        self.root_s = 0.0
        self.builds: set[tuple] = set()  # (family, rank) given to rootsys.build

    def _stat(self, name: str) -> dict:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0,
                                     "errors": 0, "hits": 0}
        return st

    def enter(self, name: str) -> None:
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append([name, self.clock(), 0.0])

    def exit(self, error: bool = False) -> None:
        name, start, child = self.stack.pop()
        dur = self.clock() - start
        self.depth[name] -= 1
        st = self._stat(name)
        st["calls"] += 1
        st["self_s"] += dur - child
        st["errors"] += bool(error)
        if self.depth[name] == 0:
            st["s"] += dur
        if self.stack:
            self.stack[-1][2] += dur
        else:
            self.root_s += dur

    def calls(self, name: str) -> int:
        st = self.stats.get(name)
        return st["calls"] if st else 0

    def wrap(self, fn, name: str):
        built = CACHED.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            before = self.calls(built) if built else 0
            self.enter(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.exit(error=True)
                raise
            self.exit()
            if built and self.calls(built) == before:
                self.stats[name]["hits"] += 1
            return out

        return spanned

    def record_builds(self, build):
        """Wrap rootsys.build so that the root systems it is asked for are
        kept; run.py compares them with the workload's set-up list."""

        @functools.wraps(build)
        def recorded(spec, rank=None, *args, **kwargs):
            if isinstance(spec, str):
                self.builds.add((spec, rank))
            elif spec.factors is None:
                self.builds.add((spec.family, spec.rank))
            return build(spec, rank, *args, **kwargs)

        return recorded

    def report(self) -> dict:
        return {"root_s": self.root_s, "spans": self.stats,
                "builds": sorted(self.builds, key=str)}


def install(tracer: Tracer) -> None:
    """Wrap every attribute in SPANS and rebind its imported copies."""
    import cartanclass  # noqa: F401  (loads every layer module)
    modules = [m for k, m in sorted(sys.modules.items())
               if k == "cartanclass" or k.startswith("cartanclass.")]
    for name, module, attr in SPANS:
        owner = importlib.import_module("cartanclass." + module)
        path = attr.split(".")
        for part in path[:-1]:
            owner = getattr(owner, part)
        original = owner.__dict__[path[-1]]
        inner = tracer.record_builds(original) if name == "rootsys.build" else original
        wrapped = tracer.wrap(inner, name)
        setattr(owner, path[-1], wrapped)
        if len(path) == 1:
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)


def main(argv: list[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from cartanclass import cli
    code: int | str | None = 1
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        sys.stdout.flush()
        sys.stderr.write("%s %s\n" % (MARKER, json.dumps(tracer.report())))
        sys.stderr.flush()
    return code if isinstance(code, int) else (0 if code is None else 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
