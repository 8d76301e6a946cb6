"""Command-line front end.

Verbs: build, involutions, sos, diagram, sigma, cayley, realforms,
cartans, verify.  All output is deterministic for fixed arguments; JSON
goes to stdout, errors to stderr.  Exit codes: 0 success, 2 usage error
(argparse), 3 mathematical-input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import rootsys as rs

# Each verb and verify suite imports the layers it runs at its top, and no
# others: most of a small query is interpreter start-up and compiling the
# package, so `verify dual-vectors` should not pay for realform or chevalley.


def _system(args) -> rs.RootSystem:
    return rs.build(args.type, getattr(args, "rank", None),
                    getattr(args, "realization", "standard"))


def _parse_rationals(text: str, option: str, error, nested: bool):
    """Rational vectors from JSON text: a list of vectors when nested, else
    one vector.  Malformed input raises the given package error."""
    try:
        data = json.loads(text)
        out = [[Fraction(str(x)) for x in row] for row in (data if nested else [data])]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error("%s: malformed JSON list of rationals (%s)" % (option, exc))
    return out if nested else out[0]


def _involution_from_args(args, system: rs.RootSystem):
    from . import involution as iv
    if getattr(args, "label", None):
        if args.label == "id":
            return iv.identity_involution(system)
        if args.label == "-1":
            return iv.antipodal_involution(system)
        for lab, rep in iv.table2_representatives(system):
            if lab == args.label:
                return rep
        raise iv.InvolutionError("unknown catalog label %r" % args.label)
    if getattr(args, "images", None):
        text = sys.stdin.read() if args.images == "-" else args.images
        return iv.involution_from_images(
            system, _parse_rationals(text, "--images", iv.InvolutionError, nested=True))
    raise iv.InvolutionError("provide --label or --images")


def _sigma_from_args(args, system: rs.RootSystem):
    """The sign datum of --signs, one sign per node in the order the
    diagram of the involution draws its nodes; the quasi-split datum
    without --signs."""
    from . import diagram as dg, realform as rf
    signs_arg = getattr(args, "signs", None)
    if signs_arg == []:
        signs_arg = "--"  # argparse drops a lone -- from an option's value
    bad = next((ch for ch in signs_arg or "" if ch not in "+-"), None)
    if bad is not None:
        raise rf.RealFormError("--signs: %r is not + or -" % bad)
    theta = _involution_from_args(args, system)
    chamber = dg.find_s_chamber(theta)
    if signs_arg is None:
        return rf.quasi_split_lift(theta), chamber
    order = dg.s_diagram(theta, chamber).node_roots
    if len(signs_arg) != len(order):
        raise rf.RealFormError("expected %d signs" % len(order))
    signs = {b: (1 if ch == "+" else -1) for b, ch in zip(order, signs_arg)}
    return rf.sigma_from_chamber_signs(theta, chamber, signs), chamber


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# -- verbs ----------------------------------------------------------------------


def cmd_build(args) -> int:
    system = _system(args)
    if args.format == "json":
        print(system.to_json_str())
    else:
        print("%s: %d roots in R^%d, rank %d" %
              (system.spec.label, len(system), system.dim, system.rank))
        ch = system.canonical_chamber()
        for b in ch.basis:
            print("  simple %s" % (tuple(map(str, system.roots[b])),))
    return 0


def cmd_involutions(args) -> int:
    from . import involution as iv
    system = _system(args)
    rows = []
    for lab, rep in iv.table2_representatives(system):
        rows.append({
            "label": lab,
            "real": len(rep.real_set),
            "imaginary": len(rep.imaginary_set),
            "complex": len(rep.complex_set),
            "length": rep.length,
            "in_weyl": rep.in_weyl,
        })
    if args.format == "json":
        _emit(rows)
    else:
        for r in rows:
            print("%-8s real=%-4d imag=%-4d complex=%-4d length=%d %s" %
                  (r["label"], r["real"], r["imaginary"], r["complex"],
                   r["length"], "W" if r["in_weyl"] else "A\\W"))
    return 0


def cmd_sos(args) -> int:
    from . import involution as iv
    if args.size is not None and args.size < 1:
        raise iv.InvolutionError("--size: %d is not a set size (need 1 or more)" % args.size)
    system = _system(args)
    reps = iv.sos_classes_by_size(system)
    rows = []
    for lab, (S, is_max) in sorted(reps.items(), key=lambda kv: (len(kv[1][0]), str(kv[0]))):
        if args.size is not None and len(S) != args.size:
            continue
        row = {
            "label": str(lab),
            "size": len(S),
            "maximal": is_max,
            "representative": [[str(c) for c in system.roots[i]] for i in S],
        }
        if lab.family in ("E7", "E8") and len(lab.label) == 2:
            row["klein"] = bool(lab.label[1])
        rows.append(row)
    if args.format == "json":
        _emit(rows)
    else:
        for r in rows:
            extra = " klein=%s" % r["klein"] if "klein" in r else ""
            print("%-14s size=%d maximal=%s%s" % (r["label"], r["size"], r["maximal"], extra))
    return 0


def cmd_diagram(args) -> int:
    from . import diagram as dg
    system = _system(args)
    theta = _involution_from_args(args, system)
    chamber = dg.find_s_chamber(theta)
    d = dg.s_diagram(theta, chamber)
    print(d.render(args.format), end="" if args.format != "json" else "\n")
    return 0


def cmd_sigma(args) -> int:
    from . import diagram as dg
    system = _system(args)
    sigma, chamber = _sigma_from_args(args, system)
    if args.restricted:
        sigma, chamber = dg.restrict_sigma(sigma, chamber)
    d = dg.sigma_diagram(sigma, chamber)
    print(d.render(args.format), end="" if args.format != "json" else "\n")
    return 0


def cmd_cayley(args) -> int:
    from . import realform as rf
    system = _system(args)
    sigma, _ = _sigma_from_args(args, system)
    if args.root:
        beta = system.root_index(
            _parse_rationals(args.root, "--root", rs.RootSystemError, nested=False))
        sigma = rf.cayley(sigma, beta)
    else:
        sigma = rf.reduce_noncompact(sigma)
    _emit(sigma.to_json())
    return 0


def cmd_realforms(args) -> int:
    from . import realform as rf
    rows = rf.realform_rows(_system(args))
    if args.format == "json":
        _emit(rows)
    else:
        for r in rows:
            print("%-12s dim_k=%-4d cartans=%s" % (r["name"], r["dim_k"],
                                                   ",".join(r["cartan_involutions"])))
    return 0


def cmd_cartans(args) -> int:
    from . import realform as rf
    system = _system(args)
    sigma, _ = _sigma_from_args(args, system)
    classes = rf.cartan_classes(sigma)
    rows = [{
        "real": len(t.real_set), "imaginary": len(t.imaginary_set),
        "complex": len(t.complex_set), "length": t.length,
    } for t in classes]
    if args.format == "json":
        _emit(rows)
    else:
        print("%d Cartan subalgebra classes" % len(rows))
        for r in rows:
            print("  real=%-4d imag=%-4d complex=%-4d length=%d" %
                  (r["real"], r["imaginary"], r["complex"], r["length"]))
    return 0


# -- verify suites ----------------------------------------------------------------


def _verify_table2(args) -> list[tuple[str, bool]]:
    from . import involution as iv
    system = _system(args)
    out = []
    reps = iv.table2_representatives(system)
    for lab, rep in reps:
        ok = True
        try:
            iv.Involution(system, rep.perm)
        except iv.InvolutionError:
            ok = False
        out.append(("table2[%s] involutive" % lab, ok))
    # rows with equal invariants (two in D6 and D8) must not be W-conjugate
    invs = [rep.invariants() for _, rep in reps]
    apart = not any(invs[i] == invs[j] and iv.equivalent_involutions(reps[i][1], reps[j][1])
                    for i in range(len(reps)) for j in range(i))
    out.append(("table2 invariant separation", apart))
    return out


def _verify_chevalley(args) -> list[tuple[str, bool]]:
    from .chevalley import ChevalleyError, dense_algebra, structure_constants
    system = _system(args)
    out = []
    C = structure_constants(system)
    try:
        C.verify_identities()
        out.append(("structure-constant identities", True))
    except ChevalleyError:
        out.append(("structure-constant identities", False))
    A = dense_algebra(C)
    try:
        A.verify_antisymmetry()
        dense_algebra(C, verify="full")
        out.append(("bracket table jacobi", True))
    except ChevalleyError:
        out.append(("bracket table jacobi", False))
    return out


def _verify_sos_table(args) -> list[tuple[str, bool]]:
    from . import involution as iv
    out = []
    for fam, rank in [("A", 4), ("B", 4), ("B", 5), ("C", 4), ("C", 5),
                      ("D", 4), ("D", 5), ("F4", 4), ("G2", 2), ("E6", 6)]:
        system = rs.build(fam, rank if fam in "ABCD" else None)
        mx = iv.maximal_sos_classes(system)
        if fam == "C":
            got = sum(1 for lab, _ in mx if lab.label[0] >= 1)
        else:
            got = len(mx)
        out.append(("max-sos-count %s" % system.spec.label,
                    got == iv.max_sos_class_count(fam, system.rank)))
    return out


def _verify_empty(args) -> list[tuple[str, bool]]:
    from .weylgroup import weyl_group
    system = rs.build(rs.RootSystemSpec(factors=()))
    ok = len(system) == 0
    ok = ok and weyl_group(system).order == 1
    return [("empty-system vacuous checks", ok)]


def _verify_lemma_dual(args) -> list[tuple[str, bool]]:
    from .tables import dual_vector_table
    out = []
    for label, system, omega, msys in dual_vector_table():
        ok = system.in_dual_lattice(omega)
        ok = ok and all(system.pairing_with(i, omega) == 1 for i in msys)
        out.append(("dual-vector %s" % label, ok))
    return out


SUITES = {
    "table2": _verify_table2,
    "chevalley": _verify_chevalley,
    "sos-table": _verify_sos_table,
    "empty-system": _verify_empty,
    "dual-vectors": _verify_lemma_dual,
}


def cmd_verify(args) -> int:
    fn = SUITES.get(args.suite)
    if fn is None:
        print("unknown suite %r (have: %s)" % (args.suite, ", ".join(sorted(SUITES))),
              file=sys.stderr)
        return 2
    results = fn(args)
    failed = 0
    for name, ok in results:
        print("%s %s" % ("PASS" if ok else "FAIL", name))
        if not ok:
            failed += 1
    return 1 if failed else 0


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cartanclass")
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, formats=("text", "json")):
        sp.add_argument("--type", required=True, choices=rs.FAMILIES)
        sp.add_argument("--rank", type=int, default=None)
        sp.add_argument("--realization", default="standard",
                        choices=("standard", "prime"))
        sp.add_argument("--format", default=formats[0], choices=formats)

    sp = sub.add_parser("build", help="construct a root system")
    common(sp)
    sp.set_defaults(fn=cmd_build)

    sp = sub.add_parser("involutions", help="catalog of involution classes")
    common(sp)
    sp.set_defaults(fn=cmd_involutions)

    sp = sub.add_parser("sos", help="strongly orthogonal set classes")
    common(sp)
    sp.add_argument("--size", type=int, default=None)
    sp.set_defaults(fn=cmd_sos)

    for verb, fn in (("diagram", cmd_diagram), ("sigma", cmd_sigma),
                     ("cayley", cmd_cayley), ("cartans", cmd_cartans)):
        sp = sub.add_parser(verb)
        if verb in ("diagram", "sigma"):
            common(sp, ("ascii", "json", "dot"))  # a diagram has no text form
        elif verb == "cayley":
            common(sp, ("json",))  # a sign datum prints as JSON only
        else:
            common(sp)
        sp.add_argument("--label", default=None,
                        help="catalog label of the involution (or 'id', '-1')")
        sp.add_argument("--images", default=None,
                        help="JSON list of simple-root images ('-' for stdin)")
        if verb in ("sigma", "cayley", "cartans"):
            sp.add_argument("--signs", default=None,
                            help="one + or - per node, in the order the diagram "
                                 "draws the nodes")
        if verb == "sigma":
            sp.add_argument("--restricted", action="store_true")
        if verb == "cayley":
            sp.add_argument("--root", default=None,
                            help="JSON coordinates of the transform root")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("realforms", help="real forms by quasi-split twisting")
    common(sp)
    sp.set_defaults(fn=cmd_realforms)

    sp = sub.add_parser("verify", help="run a named check suite")
    sp.add_argument("suite")
    sp.add_argument("--type", default="A", choices=rs.FAMILIES)
    sp.add_argument("--rank", type=int, default=None)
    sp.add_argument("--realization", default="standard",
                    choices=("standard", "prime"))
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed stdout shows here, not at interpreter exit
        return code
    except rs.CartanclassError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except BrokenPipeError:
        # the reader has all it wanted: end quietly, with stdout on devnull
        # so that the interpreter's own last flush has nowhere to fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
