"""Command-line front end.

Batch commands over workbench documents: validate the algebra, classify
objects and morphisms, compute torsion and pretorsion decompositions,
factorize morphisms in both systems, decide the covering predicate, run
window checks on the separated cover, and run the full property battery.

Exit codes: 0 all checks passed; 1 a mathematical check failed (law
violation or theorem-check failure); 2 input or structural error;
3 an enumeration capacity guard was hit.
"""

import argparse
import sys

from .battery import run_battery
from .builders import SUITE_LEVELS
from .descent import (DEFAULT_WINDOW_RADIUS, Window, descent_cover,
                      kernel_pair_groupoid, verify_cover_window)
from .document import canonical_json, load_document
from .errors import (CapacityError, NonIntegralQuantaleError, StructuralError,
                     TheoremCheckError)
from .factorization import (classify_morphism, covering_kernel,
                            monotone_light_factorize, reflective_factorize)
from .quantale import validate_quantale
from .torsion import decompose, pretorsion_decompose
from .vgroup import classify_hom, classify_object, validate_hom, validate_vgroup

MATH_FAILURE, INPUT_ERROR, CAPACITY = 1, 2, 3


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="vgroups",
        description="workbench for finite quantale-valued groups")
    parser.add_argument("command",
                        choices=["validate", "classify", "decompose", "pretorsion",
                                 "factorize", "ml-factorize", "cover", "descent",
                                 "suite"])
    parser.add_argument("--input", action="append", default=[],
                        help="workbench document (repeatable)")
    parser.add_argument("--morphism", help="name of a morphism in the inputs")
    parser.add_argument("--window", type=int, default=DEFAULT_WINDOW_RADIUS,
                        help="window radius for descent checks")
    parser.add_argument("--suite-level", choices=list(SUITE_LEVELS), default="smoke")
    parser.add_argument("--format", choices=["text", "json"], default="text")
    return parser


# built once per process: parse_args leaves the parser as it found it
_PARSER = _build_parser()


def _emit(report, fmt, out):
    if fmt == "json":
        out.write(canonical_json(report))
        return
    _emit_text(report, out)


def _emit_text(value, out, indent=0):
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            inner = value[key]
            if isinstance(inner, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _emit_text(inner, out, indent + 1)
            else:
                out.write(f"{pad}{key}: {inner}\n")
    elif isinstance(value, list):
        for inner in value:
            if isinstance(inner, (dict, list)):
                _emit_text(inner, out, indent)
            else:
                out.write(f"{pad}- {inner}\n")
    else:
        out.write(f"{pad}{value}\n")


def _load_inputs(args):
    if not args.input:
        raise StructuralError("this command needs at least one --input document")
    return [load_document(path) for path in args.input]


def _find_morphism(docs, name):
    if not name:
        raise StructuralError("this command needs --morphism NAME")
    for doc in docs:
        for hom in doc.morphisms:
            if hom.name == name:
                return hom
    raise StructuralError(f"no input document defines a morphism named {name!r}")


def _validation_bundle(doc):
    """Validation reports for every piece of one document."""
    reports = {
        "quantale": validate_quantale(doc.quantale).as_dict(),
        "group": {"ok": True, "note": "group laws hold (checked at construction)"},
        "structure": validate_vgroup(doc.vgroup).as_dict(),
    }
    if doc.morphisms:
        reports["morphisms"] = {
            hom.name: {"hom": validate_hom(hom).as_dict(),
                       "target_structure": validate_vgroup(hom.cod).as_dict()}
            for hom in doc.morphisms}
    return reports


def _bundle_ok(bundle):
    if not bundle["quantale"]["ok"] or not bundle["structure"]["ok"]:
        return False
    return all(rep["hom"]["ok"] and rep["target_structure"]["ok"]
               for rep in bundle.get("morphisms", {}).values())


def _validate_documents(docs):
    """The report of the validate command on the inputs."""
    bundles = [_validation_bundle(doc) for doc in docs]
    return {"command": "validate", "documents": bundles,
            "ok": all(_bundle_ok(b) for b in bundles)}


def cmd_classify(args, docs, out):
    if args.morphism:
        hom = _find_morphism(docs, args.morphism)
        report = {
            "command": "classify",
            "morphism": args.morphism,
            "hom_classes": classify_hom(hom).as_dict(),
            "factorization_classes": classify_morphism(hom).as_dict(),
        }
    else:
        report = {"command": "classify",
                  "object": classify_object(docs[0].vgroup).as_dict()}
    _emit(report, args.format, out)
    return 0


def cmd_decompose(args, docs, out):
    dec = decompose(docs[0].vgroup)
    _emit({"command": "decompose", "decomposition": dec.as_dict()}, args.format, out)
    return 0


def cmd_pretorsion(args, docs, out):
    dec = pretorsion_decompose(docs[0].vgroup)
    _emit({"command": "pretorsion", "decomposition": dec.as_dict()}, args.format, out)
    return 0


def _cmd_factorize(args, docs, out, which):
    hom = _find_morphism(docs, args.morphism)
    fact = reflective_factorize(hom) if which == "reflective" \
        else monotone_light_factorize(hom)
    _emit({"command": "factorize" if which == "reflective" else "ml-factorize",
           "morphism": args.morphism,
           "factorization": fact.as_dict()}, args.format, out)
    return 0


def cmd_cover(args, docs, out):
    hom = _find_morphism(docs, args.morphism)
    ker_obj, ker_class = covering_kernel(hom)
    covering = ker_class.separated
    report = {
        "command": "cover",
        "morphism": args.morphism,
        "is_covering": covering,
        "is_locally_semisimple_covering": covering,
        "kernel_carrier": list(ker_obj.group.names),
        "kernel_class": ker_class.as_dict(),
    }
    _emit(report, args.format, out)
    return 0


def cmd_descent(args, docs, out):
    cover, projection = descent_cover(docs[0].vgroup)
    window_report = verify_cover_window(cover, args.window)
    groupoid_report = kernel_pair_groupoid(cover, args.window)
    report = {
        "command": "descent",
        "projection": projection.as_dict(),
        "window_checks": window_report.as_dict(),
        "kernel_pair_checks": groupoid_report.as_dict(),
        "window_dump": Window(cover, args.window).as_dict(),
    }
    ok = window_report.ok and groupoid_report.ok
    _emit(report, args.format, out)
    return 0 if ok else MATH_FAILURE


def cmd_suite(args, out):
    results = run_battery(args.suite_level)
    ok = all(r.ok for r in results)
    if args.format == "json":
        _emit({"command": "suite", "level": args.suite_level,
               "ok": ok, "checks": [r.as_dict() for r in results]},
              args.format, out)
    else:
        for r in results:
            detail = ", ".join(f"{k}={v}" for k, v in sorted(r.details.items()))
            out.write(f"[{'PASS' if r.ok else 'FAIL'}] {r.name} ({detail})\n")
            for failure in r.failures[:5]:
                out.write(f"         failure: {failure}\n")
        out.write(f"suite {args.suite_level}: {'all checks passed' if ok else 'FAILURES'}\n")
    return 0 if ok else MATH_FAILURE


_COMPUTING = {
    "classify": cmd_classify,
    "decompose": cmd_decompose,
    "pretorsion": cmd_pretorsion,
    "factorize": lambda a, d, o: _cmd_factorize(a, d, o, "reflective"),
    "ml-factorize": lambda a, d, o: _cmd_factorize(a, d, o, "monotone_light"),
    "cover": cmd_cover,
    "descent": cmd_descent,
}


def run(argv=None, out=None):
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return INPUT_ERROR if exc.code else 0
    try:
        if args.command == "suite":
            return cmd_suite(args, out)
        docs = _load_inputs(args)
        # computing commands need the algebra to hold before they compute
        validation = _validate_documents(docs)
        if args.command == "validate" or not validation["ok"]:
            _emit(validation, args.format, out)
            return 0 if validation["ok"] else MATH_FAILURE
        return _COMPUTING[args.command](args, docs, out)
    except (StructuralError, NonIntegralQuantaleError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return INPUT_ERROR
    except CapacityError as exc:
        print(f"capacity guard: {exc}", file=sys.stderr)
        return CAPACITY
    except TheoremCheckError as exc:
        print(f"theorem check failed: {exc}", file=sys.stderr)
        return MATH_FAILURE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
