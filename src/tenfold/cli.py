"""Command-line front end.

Subcommands: classify an element against all ten classes, apply a boundary
map for a registered short exact sequence, emit or list catalog
generators, run the acceptance suite (TAP output), or a quick selftest.

Exit codes: 0 success, 2 membership failure, 3 unsupported pair, 4 I/O or
malformed input (including non-finite values, out-of-range pinned indices
and usage errors).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import catalog, matcore, serialize, toeplitz, verify
from .basespace import LIFT_STRATEGIES, SES_NAMES, ses_registry
from .boundary import boundary_map
from .invariants import InvariantError, catalog_has, signature
from .symclass import CLASS_IDS, class_to_json, classify, parse_class

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


def _refuse(exc, code):
    """Print a refusal to stderr and return its exit code: the message, and
    the residuals only when the refusal carries any."""
    residuals = getattr(exc, "residuals", None)
    print(f"error: {exc} {residuals}" if residuals else f"error: {exc}", file=sys.stderr)
    return code


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


def _parse_class(token):
    try:
        return parse_class(token)
    except ValueError as exc:
        raise SystemExit_(EXIT_IO, str(exc))


def _signature(rep):
    """The signature as JSON; an invariant that cannot be read at the
    element's resolution is an unsupported pair."""
    try:
        return signature(rep).as_dict()
    except InvariantError as exc:
        raise SystemExit_(EXIT_UNSUPPORTED, f"cannot read the invariants: {exc}")


def cmd_classify(args):
    hints = (list(CLASS_IDS) if args.class_id is None
             else [_parse_class(args.class_id)])
    u, alg = _parse_element(_read_json(args.input))
    report = {"base": serialize.base_to_json(u.base), "dim": u.dim, "classes": []}
    any_ok = False
    for i, rep in classify(u, alg, args.tol, hints).items():
        if isinstance(rep, ValueError):  # a class the element's shape refuses
            continue
        row = {"class": class_to_json(i), "ok": bool(rep.ok),
               "residuals": _residuals_clean(rep.residuals)}
        if rep.ok and catalog_has(rep):
            row["signature"] = _signature(rep)
        report["classes"].append(row)
        any_ok = any_ok or rep.ok
    _write_out(report, args.out)
    return EXIT_OK if any_ok else EXIT_MEMBERSHIP


def cmd_boundary(args):
    i = _parse_class(args.class_id)
    if args.ses == "toeplitz":
        try:
            el = toeplitz.element_from_json(_read_json(args.input))
        except (KeyError, ValueError, TypeError) as exc:
            raise SystemExit_(EXIT_IO, f"malformed shift element JSON: {exc}")
        try:
            res = toeplitz.calkin_boundary(el, i)
        except (ValueError, KeyError) as exc:
            return _refuse(exc, EXIT_MEMBERSHIP)
        out = {"class": class_to_json(res.class_id),
               "element": toeplitz.element_to_json(res.element),
               "signature": {res.invariant_name: res.invariant}}
        _write_out(out, args.out)
        return EXIT_OK
    try:
        ses = ses_registry(args.ses, args.resolution)
    except KeyError as exc:
        return _refuse(exc, EXIT_UNSUPPORTED)
    except ValueError as exc:  # a resolution the space's grid cannot take
        raise SystemExit_(EXIT_IO, str(exc))
    u, _ = _parse_element(_read_json(args.input))
    try:
        res = boundary_map(u, i, ses, args.lift, tol=args.tol)
    # MembershipError, or e.g. input values that are not contractions
    except ValueError as exc:
        return _refuse(exc, EXIT_MEMBERSHIP)
    rep = res.rep
    out = {"class": class_to_json(rep.class_id),
           "residuals": _residuals_clean(res.residuals),
           "element": serialize.element_doc(rep.element, rep.algebra)}
    if catalog_has(rep):
        out["signature"] = _signature(rep)
    _write_out(out, args.out)
    ok = all(v <= args.tol for v in res.residuals.values()
             if isinstance(v, float))
    return EXIT_OK if ok else EXIT_MEMBERSHIP


def cmd_catalog(args):
    if args.emit:
        try:
            ent = catalog.entry(args.emit)
        except KeyError as exc:
            return _refuse(exc, EXIT_UNSUPPORTED)
        res = catalog.DEFAULT_RES if args.resolution is None else args.resolution
        try:
            obj = catalog.generator(args.emit, res)
        except ValueError as exc:  # a resolution the entry's grid cannot take
            raise SystemExit_(EXIT_IO, str(exc))
        if ent.exact:
            _write_out(toeplitz.element_to_json(obj), args.out)
        else:
            _write_out(serialize.element_doc(obj.element, obj.algebra), args.out)
        return EXIT_OK
    rows = []
    for name in catalog.names():
        ent = catalog.entry(name)
        rows.append({"name": name,
                     "class": class_to_json(ent.class_id),
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


class _Parser(argparse.ArgumentParser):
    """A usage error is malformed input: it exits EXIT_IO, not argparse's 2,
    which is the membership-failure code.  Subparsers share this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser():
    p = _Parser(
        prog="tenfold",
        description="Ten-fold-way symmetry classes, invariants, and index maps "
                    "for involutive function algebras.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="test an element against the ten classes")
    c.add_argument("input", help="element JSON path, or - for stdin")
    c.add_argument("--class", dest="class_id", default=None,
                   help="restrict to one class (-1..6, KU0, KU1)")
    c.add_argument("--tol", type=float, default=matcore.DEFAULT_TOL)
    c.add_argument("--out", default=None)

    b = sub.add_parser("boundary", help="apply a boundary map")
    b.add_argument("input", help="element JSON path, or - for stdin")
    b.add_argument("--ses", required=True, choices=SES_NAMES)
    b.add_argument("--class", dest="class_id", required=True)
    b.add_argument("--lift", default="natural", choices=LIFT_STRATEGIES)
    b.add_argument("--resolution", type=int, default=None)
    b.add_argument("--tol", type=float, default=matcore.DEFAULT_TOL)
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
        return _refuse(exc, exc.code)


if __name__ == "__main__":
    sys.exit(main())
