"""Command-line front end.

Verbs: build, involutions, sos, diagram, sigma, cayley, realforms,
cartans, verify.  All output is deterministic for fixed arguments; JSON
goes to stdout, errors to stderr.  Exit codes: 0 success, 2 usage error
(argparse), 3 mathematical-input error.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from types import SimpleNamespace

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
    import json
    from fractions import Fraction
    try:
        data = json.loads(text)
        out = [[Fraction(str(x)) for x in row] for row in (data if nested else [data])]
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise error("%s: malformed JSON list of rationals (%s)" % (option, exc))
    return out if nested else out[0]


def _involution_from_args(args, system: rs.RootSystem):
    from . import involution as iv
    if args.label is not None and args.images is not None:
        raise iv.InvolutionError("give --label or --images, not both")
    if args.label:
        if args.label == "id":
            return iv.identity_involution(system)
        if args.label == "-1":
            return iv.antipodal_involution(system)
        for lab, rep in iv.table2_representatives(system):
            if lab == args.label:
                return rep
        raise iv.InvolutionError("unknown catalog label %r" % args.label)
    if args.images:
        text = sys.stdin.read() if args.images == "-" else args.images
        return iv.involution_from_images(
            system, _parse_rationals(text, "--images", iv.InvolutionError, nested=True))
    raise iv.InvolutionError("provide --label or --images")


def _sigma_from_args(args, system: rs.RootSystem):
    """The sign datum of --signs, one sign per node in the order the
    diagram of the involution draws its nodes; the quasi-split datum
    without --signs."""
    from . import involution as iv, realform as rf
    signs_arg = getattr(args, "signs", None)
    if signs_arg == []:
        signs_arg = "--"  # argparse drops a lone -- from an option's value
    bad = next((ch for ch in signs_arg or "" if ch not in "+-"), None)
    if bad is not None:
        raise rf.RealFormError("--signs: %r is not + or -" % bad)
    theta = _involution_from_args(args, system)
    chamber = iv.find_s_chamber(theta)
    if signs_arg is None:
        return rf.quasi_split_lift(theta), chamber
    from .diagram import s_diagram  # only --signs reads the drawn node order
    order = s_diagram(theta, chamber).node_roots
    if len(signs_arg) != len(order):
        raise rf.RealFormError("expected %d signs" % len(order))
    signs = {b: (1 if ch == "+" else -1) for b, ch in zip(order, signs_arg)}
    return rf.sigma_from_chamber_signs(theta, chamber, signs), chamber


def _emit(obj) -> None:
    import json
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
        row = {"label": str(lab), "size": len(S), "maximal": is_max}
        if args.format == "json":  # the text lines print no vectors
            row["representative"] = [[str(c) for c in system.roots[i]] for i in S]
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
    from . import diagram as dg, involution as iv
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
    # no two rows are W-conjugate: their class keys are pairwise distinct
    keys = {dg.class_key(rep) for _, rep in reps}
    out.append(("table2 invariant separation", len(keys) == len(reps)))
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

# VERBS is the grammar that both readers use.  An option: its name, type (int,
# str, or bool for a flag), choices, default, whether it is required, help text.
Option = namedtuple("Option", "name type choices default required help",
                    defaults=(str, None, None, False, None))


def _common(formats=("text", "json")) -> tuple:
    return (Option("--type", choices=rs.FAMILIES, required=True), Option("--rank", int),
            Option("--realization", choices=("standard", "prime"), default="standard"),
            Option("--format", choices=formats, default=formats[0]))


_INVOLUTION = (Option("--label", help="catalog label of the involution (or 'id', '-1')"),
               Option("--images", help="JSON list of simple-root images ('-' for stdin)"))
_SIGNS = Option("--signs", help="one + or - per node, in the order the diagram draws the nodes")

# verb: (help, command, options); verify also takes the name of its suite first
VERBS = {
    "build": ("construct a root system", cmd_build, _common()),
    "involutions": ("catalog of involution classes", cmd_involutions, _common()),
    "sos": ("strongly orthogonal set classes", cmd_sos, _common() + (Option("--size", int),)),
    # a diagram has no text form, and a sign datum prints as JSON only
    "diagram": (None, cmd_diagram, _common(("ascii", "json", "dot")) + _INVOLUTION),
    "sigma": (None, cmd_sigma, _common(("ascii", "json", "dot")) + _INVOLUTION
              + (_SIGNS, Option("--restricted", bool, default=False))),
    "cayley": (None, cmd_cayley, _common(("json",)) + _INVOLUTION
               + (_SIGNS, Option("--root", help="JSON coordinates of the transform root"))),
    "cartans": (None, cmd_cartans, _common() + _INVOLUTION + (_SIGNS,)),
    "realforms": ("real forms by quasi-split twisting", cmd_realforms, _common()),
    "verify": ("run a named check suite", cmd_verify,
               (Option("--type", choices=rs.FAMILIES, default="A"),) + _common()[1:3]),
}


def build_parser():
    """The argparse parser of VERBS: it prints help and usage errors, and reads
    every command line that _parse leaves to it."""
    import argparse
    p = argparse.ArgumentParser(prog="cartanclass")
    sub = p.add_subparsers(dest="verb", required=True)
    for verb, (text, fn, options) in VERBS.items():
        sp = sub.add_parser(verb, **({"help": text} if text else {}))
        if verb == "verify":
            sp.add_argument("suite")
        for o in options:
            if o.type is bool:
                sp.add_argument(o.name, action="store_true")
            else:
                sp.add_argument(o.name, type=o.type, choices=o.choices, default=o.default,
                                required=o.required, help=o.help)
        sp.set_defaults(fn=fn)
    return p


def _parse(argv: list[str]):
    """The arguments of a command line `verb [suite] (--name value | --flag)*`
    as argparse reads them, without importing it; None for any other form.
    Names are in full, no value starts with '-', an int is decimal digits,
    each value is among its choices, every required option is given, and a
    repeated option keeps its last value, as in argparse."""
    if not argv or argv[0] not in VERBS:
        return None
    _, fn, options = VERBS[argv[0]]
    args = {"verb": argv[0], "fn": fn, **{o.name[2:]: o.default for o in options}}
    named, tokens = {o.name: o for o in options}, iter(argv[1:])
    if argv[0] == "verify":
        args["suite"] = next(tokens, "-")  # "-": no token left
        if args["suite"].startswith("-"):
            return None
    for name in tokens:
        o = named.get(name)
        if o is None:
            return None
        value = True if o.type is bool else next(tokens, "-")  # "-": no value left
        if value is not True:
            if value.startswith("-") or o.type is int and not value.isdecimal():
                return None
            value = o.type(value)
            if o.choices and value not in o.choices:
                return None
        args[name[2:]] = value
    if any(o.required and args[o.name[2:]] is None for o in options):  # no default
        return None
    return SimpleNamespace(**args)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv) or build_parser().parse_args(argv)
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
