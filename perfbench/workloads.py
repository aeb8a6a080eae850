"""The four benchmark workloads.

Each workload builds its inputs from the seed (this is set-up time) and
exposes a list of operations.  One operation is one element in and one
checked integer result out.  A run goes over the list in order, at least
once, and is timed per distinct operation, so every run times the same mix
of operations; the seed changes the random elements, or only the order for
workloads whose inputs are fixed.

Library calls go through module attributes (`boundary.boundary_map`, not a
name bound at import) so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field

import numpy as np

from tenfold import (basespace, boundary, catalog, cli, invariants, serialize,
                     symclass, toeplitz, verify)

ODD = (-1, 1, 3, 5, "KU1")


@dataclass
class Op:
    key: str
    run: object                      # callable(pass_no) -> output
    check: object                    # callable(output) -> bool
    ints: object                     # callable(output) -> JSON integers
    record: dict = field(default_factory=dict)


def strict_json(text):
    """Parse JSON that a strict reader accepts: no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


# -- grid workloads ------------------------------------------------------------

def _draw(base, i, dim, rng):
    """A random class-i element drawn as the acceptance suite draws them."""
    for _ in range(10):
        try:
            return verify.random_class_element(base, i, dim, rng, fourier=2)
        except RuntimeError:  # no gapped even-class draw in 20 tries: redraw
            continue
    raise RuntimeError(f"no class-{i} element drawn over {base.kind}")


class GridWorkload:
    """boundary_map plus signature over grid short exact sequences.

    Per (SES, class) pair: two random elements u, v and their sum u+v, whose
    signature must be the sum of theirs.  Odd classes alternate the
    natural and taper0 lifts between passes, so every repeat of an input
    also checks lift independence.  Anchors have fixed known signatures.
    """

    def __init__(self, seed, pairs, resolution, anchors):
        rng = np.random.default_rng(seed)
        self.first = {}
        self.ops = []
        self._made = 0
        blocks = []
        for ses_name, i in pairs:
            ses = basespace.ses_registry(ses_name, resolution)
            dim = 4 if i == 4 else 2
            u = _draw(ses.quotient, i, dim, rng)
            v = _draw(ses.quotient, i, dim, rng)
            key = f"{ses_name}/{i}"
            blocks.append([
                self._op(f"{key}/u", ses, i, u),
                self._op(f"{key}/v", ses, i, v),
                self._op(f"{key}/u+v", ses, i, symclass.add(u, v, i),
                         parts=(f"{key}/u", f"{key}/v")),
            ])
        # one block, so anchors that compare with each other run in order
        blocks.append([])
        for key, ses_name, i, values, expect in anchors():
            ses = basespace.ses_registry(ses_name, resolution)
            u = basespace.FnElement(ses.quotient, values(ses.quotient))
            blocks[-1].append(self._op(key, ses, i, u, expect=expect))
        self.warmup = blocks[0][0]
        for b in rng.permutation(len(blocks)):
            self.ops.extend(blocks[b])
        self.info = {"ops_per_pass": len(self.ops), "pairs": len(pairs),
                     "resolution": resolution}

    def _op(self, key, ses, i, u, parts=None, expect=None):
        lifts = ("natural", "taper0") if i in ODD else ("natural",)
        self._made += 1
        salt = self._made

        def run(pass_no):
            lift = lifts[(salt + pass_no) % len(lifts)]
            res = boundary.boundary_map(u, i, ses, lift)
            return invariants.signature(res.rep)

        def check(sig):
            vals = sig.values()
            if not all(isinstance(x, (int, np.integer)) for x in vals):
                return False
            seen = self.first.setdefault(key, sig)
            if seen.values() != vals:
                return False
            if parts:
                a, b = (self.first.get(p) for p in parts)
                if a is None or b is None or (a + b).values() != vals:
                    return False
            return expect is None or expect(vals, self.first)

        return Op(key, run, check, lambda sig: [int(x) for x in sig.values()],
                  {"class": str(i), "ses": ses.name, "dim": u.dim,
                   "points": ses.total.npoints})

    def close(self):
        pass


def _z(base):
    return base.points[:, 0] + 1j * base.points[:, 1]


def _disk_anchors():
    """The identity loop z has boundary Chern number +-1 on disk-id, and its
    conjugate the opposite one."""
    return [
        ("disk-id/-1/z", "disk-id", -1,
         lambda q: _z(q)[:, None, None] * np.ones((1, 1, 1)),
         lambda vals, seen: len(vals) == 1 and abs(vals[0]) == 1),
        ("disk-id/-1/conj-z", "disk-id", -1,
         lambda q: np.conj(_z(q))[:, None, None] * np.ones((1, 1, 1)),
         lambda vals, seen: "disk-id/-1/z" in seen
         and vals == tuple(-x for x in seen["disk-id/-1/z"].values())),
    ]


def _circle_anchors():
    """The circle-sigma table and circle-zeta linearity rows of the
    acceptance suite: constant values at the two closed points."""
    e2, e4 = np.eye(2, dtype=complex), np.eye(4, dtype=complex)
    i0, i4 = symclass.neutral(0, 1), symclass.neutral(4, 1)
    w4 = np.stack([np.diag([1. + 0j, 1, 1, -1]), np.diag([1. + 0j, 1, -1, 1])])

    def pair(a, b):
        return lambda q: np.stack([a, b])

    def exactly(*want):
        return lambda vals, seen: vals == want

    def magnitude(*want):
        return lambda vals, seen: tuple(abs(x) for x in vals) == want

    return [
        ("circle-sigma/0/table", "circle-sigma", 0, pair(e2, e2), exactly(0)),
        ("circle-sigma/2/table", "circle-sigma", 2, pair(e2, -e2), magnitude(2)),
        ("circle-sigma/4/table", "circle-sigma", 4, lambda q: w4, exactly(0)),
        ("circle-sigma/6/table", "circle-sigma", 6, pair(e2, -e2), magnitude(2)),
        ("circle-zeta/0/(1,0)", "circle-zeta", 0, pair(e2, i0), exactly(1)),
        ("circle-zeta/0/(0,1)", "circle-zeta", 0, pair(i0, e2), exactly(-1)),
        ("circle-zeta/4/(1,0)", "circle-zeta", 4, pair(e4, i4), exactly(2)),
        ("circle-zeta/4/(0,1)", "circle-zeta", 4, pair(i4, e4), exactly(-2)),
    ]


DISK_PAIRS = [("disk-id", -1), ("disk-id", 3), ("disk-id", "KU1"),
              ("disk-zeta", -1), ("disk-zeta", 1), ("disk-zeta", "KU1")]

# every (SES, class) pair over the circle sequences whose image is cataloged
CIRCLE_PAIRS = ([("circle-zeta", i) for i in symclass.CLASS_IDS]
                + [("circle-sigma", i) for i in symclass.CLASS_IDS]
                + [("circle-id", 0), ("circle-id", "KU0")])


def grid_disk(seed, workdir):
    return GridWorkload(seed, DISK_PAIRS, (17, 32), _disk_anchors)


def grid_circle(seed, workdir):
    return GridWorkload(seed, CIRCLE_PAIRS, 64, _circle_anchors)


# -- exact shift-algebra workload -------------------------------------------------

# The shift has Fredholm index 1, so each generator's boundary is the
# generator of the target group: (invariant name, value, group).
SHIFT_BOUNDARY = {
    "shift_u_k1": ("half_window_trace", 1, "Z"),
    "shift_u_k2": ("det_parity", 1, "Z2"),
    "shift_u_k3": ("pf_parity", 1, "Z2"),
    "shift_u_k5": ("quarter_window_trace", 1, "Z"),
}
# Copies of each Calkin generator checked by exact membership + invariant.
# calkin_k2 x6 has a 12x12 window Pfaffian, the costliest exact invariant.
CALKIN_COPIES = {"calkin_k0": (1, 2), "calkin_k1": (1, 2, 3, 4),
                 "calkin_k2": (1, 2, 6), "calkin_k4": (1,)}
# Seconds each: dense 8x8 or 12x12 exact products and the order-12
# Pfaffian.  A pass runs these once and every other operation twice, so
# the median repeats of the cheap operations, which set op_ms_p50, rest
# on more samples within the same run length.
HEAVY = ("boundary/shift_u_k3x2", "boundary/shift_u_k5x2",
         "invariant/calkin_k2x6")


def copies(el, k):
    """Direct sum of k copies of an exact element, blockwise per window slot."""
    d, w, n = el.dim, el.window, k * el.dim

    def spread(m, slots):
        out = np.full((slots * n, slots * n), toeplitz.FC_ZERO, dtype=object)
        for a in range(slots):
            for b in range(slots):
                blk = m[a * d:(a + 1) * d, b * d:(b + 1) * d]
                for c in range(k):
                    out[a * n + c * d:a * n + (c + 1) * d,
                        b * n + c * d:b * n + (c + 1) * d] = blk
        return out

    sym = {p: spread(m, 1) for p, m in el.symbol.items()}
    return toeplitz.ShiftAlgElement(n, sym, spread(el.corr, w), w)


def _group_law(value, k, group):
    return (k * value) % 2 if group == "Z2" else k * value


class ExactWorkload:
    """The exact Calkin path: calkin_boundary on the shift generators and
    their two-copy sums, and exact membership plus exact_invariant on
    direct sums of the Calkin generators.  Inputs are fixed; the seed
    orders the operations."""

    def __init__(self, seed, workdir):
        ops = []
        for name, (inv, value, group) in SHIFT_BOUNDARY.items():
            el, cls = catalog.generator(name), catalog.entry(name).class_id
            for k in (1, 2):
                ops.append(self._boundary_op(f"boundary/{name}x{k}", copies(el, k),
                                             cls, inv, _group_law(value, k, group)))
        for name, ks in CALKIN_COPIES.items():
            ent = catalog.entry(name)
            el = catalog.generator(name)
            group = "Z2" if ent.torsion else "Z"
            for k in ks:
                ops.append(self._sum_op(f"invariant/{name}x{k}", copies(el, k),
                                        ent.class_id,
                                        _group_law(ent.expected[0], k, group)))
        self.warmup = ops[0]
        rng = np.random.default_rng(seed)
        light = [op for op in ops if op.key not in HEAVY]
        heavy = [op for op in ops if op.key in HEAVY]
        self.ops = ([light[j] for j in rng.permutation(len(light))]
                    + [heavy[j] for j in rng.permutation(len(heavy))]
                    + [light[j] for j in rng.permutation(len(light))])
        self.info = {"ops_per_pass": len(self.ops), "operations": len(ops)}

    @staticmethod
    def _pf_order(cls, el):
        return max(el.window, 1) * el.dim if cls in (2, 6) else 0

    def _boundary_op(self, key, el, cls, inv, want):
        rec = {"class": str(cls), "dim": el.dim, "window": el.window}

        def run(pass_no):
            res = toeplitz.calkin_boundary(el, cls)
            out = res.element
            rec.update(out_class=str(res.class_id), out_dim=out.dim,
                       out_window=out.window,
                       pfaffian_order=self._pf_order(res.class_id, out))
            return res.invariant_name, res.invariant

        return Op(key, run, lambda out: out == (inv, want),
                  lambda out: [out[1]], rec)

    def _sum_op(self, key, el, cls, want):
        rec = {"class": str(cls), "dim": el.dim, "window": el.window,
               "pfaffian_order": self._pf_order(cls, el)}

        def run(pass_no):
            ok = toeplitz.check_membership_exact(el, cls)
            return ok, toeplitz.exact_invariant(el, cls)[1]

        return Op(key, run, lambda out: out == (True, want),
                  lambda out: [int(out[0]), out[1]], rec)

    def close(self):
        pass


# -- command-line JSON workload ----------------------------------------------------

CLI_RES = 256


def _cli(argv):
    """cli.main in-process with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _read(path):
    with open(path) as fh:
        return fh.read()


class CliWorkload:
    """`tenfold catalog --emit` then `tenfold classify` on the emitted file,
    for every 1-D grid catalog entry at 4x the default resolution, plus a
    truncated document that must give exit 4.  The seed orders the
    entries and shapes the malformed documents."""

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        self.dir = tempfile.mkdtemp(prefix=".perfbench-", dir=workdir)
        self.bytes = 0
        try:
            self._build(rng)
        except BaseException:
            self.close()
            raise

    def _build(self, rng):
        names = [n for n in catalog.names()
                 if not catalog.entry(n).exact
                 and catalog.entry(n).space.split("/")[0].split("@")[0]
                 in ("point", "circle", "interval")]
        ops = []
        for name in names:
            ops.append([self._emit_op(name), self._classify_op(name)])
        self.warmup = ops[0][0]
        # the malformed documents derive from one seeded circle entry
        circles = [n for n in names if n.startswith("circle_")]
        src = circles[rng.integers(len(circles))]
        ent = catalog.entry(src)
        doc = serialize.element_to_json(catalog.generator(src, CLI_RES).element)
        text = json.dumps(doc)
        self.malformed = {}
        cut = int(len(text) * rng.uniform(0.25, 0.75))
        self.malformed["truncated"] = self._write("truncated.json", text[:cut])
        bad = json.loads(text)
        p = int(rng.integers(len(bad["values"])))
        bad["values"][p][0][0][0] = float("nan")
        self.malformed["nan"] = self._write("nan.json", json.dumps(bad))
        bad = json.loads(text)
        bad["base"]["pinned"] = [len(doc["values"]) + int(rng.integers(1, 100))]
        self.malformed["pinned"] = self._write("pinned.json", json.dumps(bad))
        order = list(rng.permutation(len(ops)))
        trunc = Op("classify/truncated",
                   lambda pass_no: self._classify(self.malformed["truncated"]),
                   lambda out: out == (cli.EXIT_IO, None), lambda out: [out[0]],
                   {"source": src, "bytes": cut, "class": str(ent.class_id)})
        self.ops = []
        at = int(rng.integers(len(order)))
        for pos, j in enumerate(order):
            self.ops.extend(ops[j])
            if pos == at:
                self.ops.append(trunc)
        self.info = {"ops_per_pass": len(self.ops), "entries": len(names),
                     "resolution": CLI_RES}

    def _write(self, name, text):
        path = os.path.join(self.dir, name)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def _emit_op(self, name):
        path = os.path.join(self.dir, f"{name}.json")

        def run(pass_no):
            rc = _cli(["catalog", "--emit", name, "--resolution", str(CLI_RES),
                       "--out", path])
            self.bytes += os.path.getsize(path)
            return rc, path

        def check(out):
            rc, p = out
            doc = strict_json(_read(p))
            return rc == cli.EXIT_OK and isinstance(doc.get("values"), list)

        return Op(f"emit/{name}", run, check, lambda out: [out[0]])

    def _classify(self, path):
        out = path + ".out"
        if os.path.exists(out):
            os.remove(out)
        rc = _cli(["classify", path, "--out", out])
        self.bytes += os.path.getsize(path)
        if not os.path.exists(out):
            return rc, None
        self.bytes += os.path.getsize(out)
        return rc, _read(out)

    def _classify_op(self, name):
        ent = catalog.entry(name)
        rep = catalog.generator(name, 16)
        names = [n for n, _, _ in invariants.CATALOG[rep.catalog_key()]]
        want = dict(zip(names, ent.expected))
        cls = ent.class_id if isinstance(ent.class_id, str) else int(ent.class_id)
        path = os.path.join(self.dir, f"{name}.json")

        def check(out):
            rc, text = out
            if rc != cli.EXIT_OK or text is None:
                return False
            rows = [r for r in strict_json(text)["classes"] if r["class"] == cls]
            return (len(rows) == 1 and rows[0]["ok"]
                    and rows[0].get("signature") == want)

        def ints(out):
            rows = strict_json(out[1])["classes"] if out[1] else []
            return [out[0]] + [[str(r["class"]), int(r["ok"]),
                                sorted(r.get("signature", {}).items())]
                               for r in rows]

        return Op(f"classify/{name}", lambda pass_no: self._classify(path),
                  check, ints)

    def probe_malformed(self):
        """Classify each malformed document once, outside the timed loop.
        A document is handled when cli.main returns a documented non-zero
        exit code and writes nothing or strict JSON."""
        report = {}
        for kind, path in self.malformed.items():
            try:
                rc, text = self._classify(path)
            except Exception as exc:  # an uncaught error is the finding
                report[kind] = {"raised": type(exc).__name__, "handled": False}
                continue
            try:
                strict = text is None or strict_json(text) is not None
            except ValueError:
                strict = False
            documented = (cli.EXIT_MEMBERSHIP, cli.EXIT_UNSUPPORTED, cli.EXIT_IO)
            report[kind] = {"exit": rc, "strict_json": strict,
                            "handled": rc in documented and strict}
        return report

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {
    "grid-disk": grid_disk,
    "grid-circle": grid_circle,
    "exact-shift": ExactWorkload,
    "cli-json": CliWorkload,
}
