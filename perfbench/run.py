"""Benchmark of the tenfold library: one closed loop, one caller, one process.

    python3 perfbench/run.py --workload grid-disk --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
src/.  The workloads are defined in workloads.py, and the metric names and
units in BENCHMARK.json at the root.  With --trace 0 the last line of
standard output carries the end-to-end metrics; with --trace 1 it carries
the per-layer metrics of a traced run (see spans.py and METRICS.md).
Earlier lines carry a record of the run: machine, versions, per-operation
details and a digest of every integer output of the first pass, so two
commits run at one seed can be compared exactly.

Every timing is scaled to a nominal host speed by a reference kernel timed
throughout the run (reference.py); the unscaled figures are in the record.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 4  # fresh processes per run; with the run's own set-up, 5 samples
SETUP_REF_SAMPLES = 30  # reference-kernel runs that scale one set-up time
CAL_EVERY_S = 0.15  # seconds of wall time between reference-kernel runs
LOCAL_PAD_S = 0.25  # reference runs this near an operation scale its time
BLAS_THREADS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MAX_ERRORS_SHOWN = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("grid-disk", "grid-circle", "exact-shift", "cli-json"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(args):
    """Fresh import, input generation and one warm-up operation; returns
    the workload and the set-up time scaled to the nominal host."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import tenfold  # noqa: F401  (the import is part of set-up time)
    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, str(ROOT))
    wl.warmup.run(0)
    seconds = time.perf_counter() - t0
    import reference
    ref = statistics.median(reference.sample() for _ in range(SETUP_REF_SAMPLES))
    return wl, seconds * reference.NOMINAL_S / ref


def probe_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=120)
    if done.returncode:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


class Loop:
    """Closed loop over the workload's operations, in pass order.

    While untraced operations run, a wall-clock timer signal runs the
    reference kernel every CAL_EVERY_S, inside an operation if one is
    running, so that the samples cover the run evenly in time; the time
    spent in the kernel is taken out of the operation's time.  The host's
    speed changes within seconds, so each operation is scaled by the
    samples made during it and just around it (`scaled`)."""

    def __init__(self, wl):
        self.wl = wl
        self.pos = 0             # operations run; pass number = pos // ops
        self.latencies = []      # (key, seconds, start, end) per operation run
        self.ref = []            # (start, seconds) per reference-kernel run
        self._in_ref = 0.0       # seconds spent in the kernel so far
        self._sampling = False
        self._sample()
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first_pass = {}

    @property
    def pass_no(self):
        return self.pos // len(self.wl.ops)

    def run(self, seconds, tracer=None):
        """Run one whole pass, then more operations until `seconds` have
        passed; returns the latencies of this call.  Traced operations
        are not sampled, so that no span holds kernel time."""
        start, first = time.perf_counter(), len(self.latencies)
        end = self.pos + len(self.wl.ops)
        if not tracer:
            old = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        try:
            while self.pos < end or time.perf_counter() - start < seconds:
                self._one(self.wl.ops[self.pos % len(self.wl.ops)], tracer)
                self.pos += 1
        finally:
            if not tracer:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        return self.latencies[first:]

    def _sample(self, *_):
        import reference
        if self._sampling:  # a signal that came during a sample
            return
        self._sampling = True
        t = time.perf_counter()
        self.ref.append((t, reference.sample()))
        self._in_ref += time.perf_counter() - t
        self._sampling = False

    def scale(self):
        """Nominal seconds per measured second over the whole run (see
        reference.py)."""
        import reference
        return reference.NOMINAL_S / statistics.median(s for _, s in self.ref)

    def scaled(self, latencies):
        """Each latency scaled by the median of the reference runs made
        during the operation or within LOCAL_PAD_S of it."""
        import reference
        starts = [t for t, _ in self.ref]
        out = []
        for key, secs, t0, t1 in latencies:
            i = bisect.bisect_left(starts, t0 - LOCAL_PAD_S)
            j = bisect.bisect_right(starts, t1 + LOCAL_PAD_S)
            near = [s for _, s in self.ref[i:j]] or [s for _, s in self.ref]
            out.append((key, secs * reference.NOMINAL_S / statistics.median(near)))
        return out

    def _one(self, op, tracer):
        self.attempted += 1
        t, in_ref = time.perf_counter(), self._in_ref
        out, ok = None, False
        try:
            if tracer:
                tracer.begin(self.attempted)
            try:
                out = op.run(self.pass_no)
            finally:
                now = time.perf_counter()
                self.latencies.append(
                    (op.key, now - t - self._in_ref + in_ref, t, now))
                if tracer:
                    tracer.end()
            ok = bool(op.check(out))
            if not ok:
                self._error(op, f"check failed: {str(out)[:200]}")
        except Exception as exc:  # an operation that raises counts as failed
            where = traceback.extract_tb(exc.__traceback__)[-1]
            self._error(op, f"{type(exc).__name__}: {exc} "
                            f"({where.filename}:{where.lineno})")
        if not ok:
            self.failed += 1
        if self.pass_no == 0:
            self.first_pass[op.key] = op.ints(out) if ok else "failed"

    def _error(self, op, text):
        if len(self.errors) < MAX_ERRORS_SHOWN:
            self.errors.append(f"{op.key}: {text}")

    def digest(self):
        blob = json.dumps(self.first_pass, sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() or "unknown"


def src_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "tenfold").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment(args):
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_sha256": src_sha256(),
        "nproc": os.cpu_count(), "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "configuration": blas.get("openblas configuration"),
                 "threads": {v: os.environ.get(v) for v in BLAS_THREADS_ENV}},
        "loop": "closed loop, 1 caller, 1 process, at least one whole pass",
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def op_ms(latencies):
    """Each distinct operation's median time over its repeats, in ms."""
    runs = {}
    for key, t, *_ in latencies:
        runs.setdefault(key, []).append(t)
    return [1e3 * statistics.median(ts) for ts in runs.values()]


def timings(ms):
    return {"ops_per_s": 1e3 * len(ms) / sum(ms),
            "op_ms_p50": statistics.median(ms),
            "op_ms_p90": statistics.quantiles(ms, n=10)[8]}


def end_to_end(loop, latencies, setup_samples):
    return {
        **timings(op_ms(loop.scaled(latencies))),
        "ok_ratio": (loop.attempted - loop.failed) / loop.attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb(),
    }


def per_layer(tracer, summary, extras):
    """Resolve each per-layer metric name: `<layer>.self_ms` is a layer's
    total self time, `<span>.calls` and `<span>.self_ms` one span's."""
    import spans

    def value(name):
        if name in extras:
            return extras[name]
        base, stat = name.rsplit(".", 1)
        if stat == "self_ms" and base in spans.LAYERS:
            return summary["layer_self_ms"].get(base, 0.0)
        if base not in tracer.names:
            raise KeyError(f"no span or counter named {base!r}")
        if stat == "calls":
            return summary["calls"].get(base, summary["counts"].get(base, 0.0))
        if stat == "self_ms":
            return summary["self_ms"].get(base, 0.0)
        raise KeyError(name)
    return value


def traced_metrics(args, wl, loop, spec, info):
    """Untraced and traced passes alternate, so that both halves see the
    same host; per-layer figures are per traced operation, with times
    scaled like the end-to-end ones.  Input generation is traced once more
    on its own, since it is set-up."""
    import spans
    import workloads
    tracer = spans.Tracer()
    plain, traced, bytes_traced = [], [], 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain += loop.run(0)
        bytes0 = getattr(wl, "bytes", 0)
        tracer.install()
        try:
            traced += loop.run(0, tracer)
        finally:
            tracer.uninstall()
        bytes_traced += getattr(wl, "bytes", 0) - bytes0
    setup = spans.Tracer()
    setup.install()
    try:
        setup.begin("setup")
        workloads.WORKLOADS[args.workload](args.seed, str(ROOT)).close()
        setup.end()
    finally:
        setup.uninstall()
    scale = loop.scale()
    summary = tracer.summary(scale)
    calls = summary["raw_calls"].get("symclass.check_membership", 0)
    extras = {
        "trace.op_ms": summary["op_ms"],
        "trace.overhead_ratio": sum(op_ms(plain)) / sum(op_ms(traced)),
        "symclass.check_membership.ok_ratio": summary["raw_counts"].get(
            "symclass.check_membership.ok", 0) / calls if calls else 0.0,
        "cli.bytes.count": bytes_traced / summary["ops"],
        "cli.malformed_ok_ratio": 0.0,
        # per set-up, not per operation
        "verify.random_class_element.self_ms":
            setup.summary(scale)["self_ms"].get("verify.random_class_element",
                                                0.0),
    }
    if "malformed" in info:
        extras["cli.malformed_ok_ratio"] = (
            sum(r["handled"] for r in info["malformed"].values())
            / len(info["malformed"]))
    value = per_layer(tracer, summary, extras)
    info["traced_ops"] = summary["ops"]
    # the self times of an operation's spans partition its duration
    total = sum(summary["layer_self_ms"].values())
    partitioned = abs(total - summary["op_ms"]) <= 1e-9 * max(1.0, total)
    return {m["name"]: {"value": value(m["name"]), "unit": m["unit"]}
            for m in spec["per_layer"]}, partitioned


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "tenfold" / "__init__.py").is_file():
        print(f"error: no tenfold sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # one process generates the load; BLAS gets one thread so that the
    # caller's own thread is the only one competing for the cores
    for var in BLAS_THREADS_ENV:
        os.environ.setdefault(var, "1")

    if args.setup_probe:
        wl, setup_s = set_up(args)
        wl.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    probes = 0 if args.trace else SETUP_PROBES
    # half the set-up probes before the loop and half after, so that the
    # samples span the run
    samples = [probe_setup(args) for _ in range(probes // 2)]
    wl, setup_s = set_up(args)
    samples.append(setup_s)
    try:
        loop = Loop(wl)
        info = environment(args)
        if hasattr(wl, "probe_malformed"):
            info["malformed"] = wl.probe_malformed()
        if args.trace:
            metrics, partitioned = traced_metrics(args, wl, loop, spec, info)
        else:
            latencies = loop.run(args.seconds)
            samples += [probe_setup(args) for _ in range(probes - probes // 2)]
            got = end_to_end(loop, latencies, samples)
            info["unscaled"] = timings(op_ms(latencies))
            metrics = {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            partitioned = True
        info.update(wl.info, passes=loop.pass_no, setup_samples_s=samples,
                    reference={"samples": len(loop.ref),
                               "median_s": statistics.median(s for _, s in loop.ref),
                               "scale": loop.scale()},
                    digest=loop.digest(), errors=loop.errors)
        info["ops"] = {op.key: op.record for op in wl.ops if op.record}
    finally:
        wl.close()
    print(json.dumps({"info": info}, sort_keys=True))
    print(json.dumps({"correct": loop.failed == 0 and partitioned,
                      "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
