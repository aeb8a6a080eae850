"""Command-line front end.

Subcommands: classify an element against all ten classes, apply a boundary
map for a registered short exact sequence, emit or list catalog
generators, run the acceptance suite (TAP output), or a quick selftest.

Exit codes: 0 success, 2 membership failure, 3 unsupported pair, 4 I/O or
malformed input (including non-finite values and out-of-range pinned
indices).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import catalog, serialize, toeplitz, verify
from .basespace import SES_NAMES, ses_registry
from .boundary import boundary_map
from .invariants import catalog_has, signature
from .symclass import CLASS_IDS, MembershipError, check_membership, parse_class

EXIT_OK, EXIT_MEMBERSHIP, EXIT_UNSUPPORTED, EXIT_IO = 0, 2, 3, 4


def _read_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    # ValueError covers JSONDecodeError, text that is not UTF-8, and an
    # integer literal beyond the interpreter's digit limit
    except (OSError, ValueError) as exc:
        raise SystemExit_(EXIT_IO, f"cannot read element: {exc}")


class SystemExit_(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def _write_out(obj, out):
    try:
        text = serialize.dumps(obj)
    except ValueError as exc:
        raise SystemExit_(EXIT_IO, f"output is not finite: {exc}")
    if out and out != "-":
        try:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise SystemExit_(EXIT_IO, f"cannot write output: {exc}")
    else:
        print(text)


def _residuals_clean(res):
    """Residuals as JSON values; a non-finite residual is written as null."""
    return {k: v if isinstance(v, str) else float(v) if math.isfinite(v) else None
            for k, v in res.items()}


def _parse_element(obj):
    try:
        return serialize.element_from_json(obj)
    except (KeyError, ValueError, TypeError) as exc:
        raise SystemExit_(EXIT_IO, f"malformed element JSON: {exc}")


def cmd_classify(args):
    obj = _read_json(args.input)
    u, alg = _parse_element(obj)
    hints = [parse_class(args.class_id)] if args.class_id else list(CLASS_IDS)
    report = {"base": serialize.base_to_json(u.base), "dim": u.dim, "classes": []}
    any_ok = False
    for i in hints:
        try:
            rep = check_membership(u, i, alg, args.tol)
        except (MembershipError, ValueError):
            continue
        row = {"class": i if isinstance(i, str) else int(i), "ok": bool(rep.ok),
               "residuals": _residuals_clean(rep.residuals)}
        if rep.ok and catalog_has(rep):
            row["signature"] = signature(rep).as_dict()
        report["classes"].append(row)
        any_ok = any_ok or rep.ok
    _write_out(report, args.out)
    return EXIT_OK if any_ok else EXIT_MEMBERSHIP


def cmd_boundary(args):
    i = parse_class(args.class_id)
    if args.ses == "toeplitz":
        try:
            el = toeplitz.element_from_json(_read_json(args.input))
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit_(EXIT_IO, f"malformed shift element JSON: {exc}")
        try:
            res = toeplitz.calkin_boundary(el, i)
        except (ValueError, KeyError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MEMBERSHIP
        out = {"class": res.class_id if isinstance(res.class_id, str)
               else int(res.class_id),
               "element": toeplitz.element_to_json(res.element),
               "signature": {res.invariant_name: res.invariant}}
        _write_out(out, args.out)
        return EXIT_OK
    try:
        ses = ses_registry(args.ses, args.resolution)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    u, _ = _parse_element(_read_json(args.input))
    try:
        res = boundary_map(u, i, ses, args.lift, tol=args.tol)
    # MembershipError, or e.g. a class-2 basepoint value that is not skew
    except ValueError as exc:
        print(f"error: {exc} {getattr(exc, 'residuals', '')}", file=sys.stderr)
        return EXIT_MEMBERSHIP
    rep = res.rep
    out = {"class": rep.class_id if isinstance(rep.class_id, str)
           else int(rep.class_id),
           "residuals": _residuals_clean(res.residuals),
           "element": serialize.element_to_json(rep.element, rep.algebra)}
    if catalog_has(rep):
        out["signature"] = signature(rep).as_dict()
    _write_out(out, args.out)
    ok = all(v <= args.tol for v in res.residuals.values()
             if isinstance(v, float))
    return EXIT_OK if ok else EXIT_MEMBERSHIP


def cmd_catalog(args):
    if args.emit:
        try:
            ent = catalog.entry(args.emit)
        except KeyError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_UNSUPPORTED
        obj = catalog.generator(args.emit, args.resolution or catalog.DEFAULT_RES)
        if ent.exact:
            _write_out(toeplitz.element_to_json(obj), args.out)
        else:
            _write_out(serialize.element_to_json(obj.element, obj.algebra),
                       args.out)
        return EXIT_OK
    rows = []
    for name in catalog.names():
        ent = catalog.entry(name)
        rows.append({"name": name,
                     "class": ent.class_id if isinstance(ent.class_id, str)
                     else int(ent.class_id),
                     "space": ent.space, "signature": list(ent.expected),
                     "torsion": ent.torsion, "exact": ent.exact,
                     "description": ent.description})
    _write_out({"entries": rows}, args.out)
    return EXIT_OK


def _print_tap(results):
    print(f"1..{len(results)}")
    for n, (name, ok, detail) in enumerate(results, 1):
        mark = "ok" if ok else "not ok"
        print(f"{mark} {n} - {name} # {detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_MEMBERSHIP


def cmd_verify(args):
    return _print_tap(verify.run(args.only))


def cmd_selftest(args):
    quick = ("conjugator", "pfaffian", "index_unitary", "qc_relation")
    results = []
    for pat in quick:
        results.extend(verify.run(pat))
    return _print_tap(results)


@functools.cache
def build_parser():
    p = argparse.ArgumentParser(
        prog="tenfold",
        description="Ten-fold-way symmetry classes, invariants, and index maps "
                    "for involutive function algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="test an element against the ten classes")
    c.add_argument("input", help="element JSON path, or - for stdin")
    c.add_argument("--class", dest="class_id", default=None,
                   help="restrict to one class (-1..6, KU0, KU1)")
    c.add_argument("--tol", type=float, default=1e-9)
    c.add_argument("--out", default=None)

    b = sub.add_parser("boundary", help="apply a boundary map")
    b.add_argument("input", help="element JSON path, or - for stdin")
    b.add_argument("--ses", required=True, choices=SES_NAMES)
    b.add_argument("--class", dest="class_id", required=True)
    b.add_argument("--lift", default="natural",
                   choices=("natural", "radial", "arclinear", "taper0"))
    b.add_argument("--resolution", type=int, default=None)
    b.add_argument("--tol", type=float, default=1e-9)
    b.add_argument("--out", default=None)

    g = sub.add_parser("catalog", help="list generators or emit one as JSON")
    g.add_argument("--emit", default=None, metavar="NAME")
    g.add_argument("--resolution", type=int, default=None)
    g.add_argument("--out", default=None)

    v = sub.add_parser("verify", help="run the acceptance suite (TAP output)")
    v.add_argument("--only", default=None, help="substring filter")

    s = sub.add_parser("selftest", help="quick kernel checks")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        # looked up at each call, so a rebound cmd_* name is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except SystemExit_ as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
