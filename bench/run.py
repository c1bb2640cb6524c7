"""Layered benchmark for rotnear.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; rotnear is imported from
``src/`` of that checkout and nowhere else.  Each workload is a closed
loop with one caller in one process: an operation starts only when the
previous one has returned.  Set-up (import, input generation, pool
building, warm-up) is repeated SETUP_REPS times and its median
reported; the last set-up is the one measured.  Whole cycles of
operations (see workloads.py) then run until S seconds of operation
time have been measured, so each run sees the workload's full mix.

Machine speed.  The 2-core machine this benchmark was tuned on switches
between a fast and a slow state, about 1.8x apart, that last from under
a second to over a minute; raw wall times of one run then reflect the
state more than the code.  So the benchmark times a fixed exact-
arithmetic task shaped like the field layer but written with the
standard library alone (`probe`) between consecutive operations, and scales each operation's wall time by
PROBE_REF_S / (the faster of its two neighbouring probes): times are
reported at the machine speed at which the probe takes PROBE_REF_S,
which is about the fast state of that machine.  rotnear never runs
inside the probe, so a faster library moves the scaled times exactly
as it moves raw ones.  Set-up is scaled the same way.  The raw figures
and the probe times go into the report line.

Every result is checked exactly outside the timed region, and at the
default seed the canonical outputs of the first cycle must match the
digests in ``expected_digests.json``; any failure counts toward
``failed``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics.
With ``--trace 1`` the same cycles run once untraced and once traced
(spans recorded by ``spans.Tracer``); the last line carries the
per-layer metrics, including ``trace.overhead_frac`` (from scaled
times; span self times are raw), and the spans are written to
``bench/out/``.  The line before the last is a report with the seed,
input and output digests, the tail percentile and its sample count,
``failed_frac``, the raw figures and the machine.

To re-record the expected digests after a deliberate change to the
workloads' inputs, run each workload at seed 0 and copy the report's
``op_digests`` into ``expected_digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
DEFAULT_SEED = 0
SETUP_REPS = 5
TAIL_BEYOND = 10
PROBE_REF_S = 200e-6

sys.path.insert(0, str(BENCH))
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _trim(p):
    while p and not p[-1]:
        p.pop()
    return p


_PROBE_A = _trim([Fraction(k % 5 - 2, k % 3 + 1) for k in range(9)])
_PROBE_B = _trim([Fraction(k % 4 - 1, k % 5 + 1) for k in range(6)])


def probe():
    """Duration of a fixed task shaped like rotnear's field layer --
    Euclid's remainder sequence on two polynomials held as lists of
    Fractions -- written with the standard library alone, so that no
    change to rotnear can change it."""
    t0 = time.perf_counter()
    a, b = _PROBE_A, _PROBE_B
    while b:
        rem = list(a)
        for k in reversed(range(len(a) - len(b) + 1)):
            c = rem[k + len(b) - 1] / b[-1]
            for i, bi in enumerate(b):
                rem[k + i] -= c * bi
        a, b = b, _trim(rem[: len(b) - 1])
    return time.perf_counter() - t0


def import_rotnear():
    """Import rotnear afresh from this checkout's src/ (set-up is
    repeated, and each repetition pays for the import)."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "rotnear" or k.startswith("rotnear.")]:
        del sys.modules[name]
    rn = importlib.import_module("rotnear")
    if Path(rn.__file__).resolve().parent != src / "rotnear":
        raise ImportError(f"rotnear imported from {rn.__file__}, not from {src}")
    return rn


def sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


class Loop:
    """Runs whole cycles of a workload and keeps what the metrics need."""

    def __init__(self, wl, expected):
        self.wl = wl
        self.expected = expected  # per-op digests of cycle 0, or None
        self.latencies = []  # scaled, successful operations only
        self.timed = 0.0  # scaled
        self.raw = 0.0
        self.probes = []
        self.attempted = 0
        self.failed = 0
        self.op_digests = []
        self.input_lines = []
        self.errors = []

    def _fail(self, op, what):
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{op.label}: {what}")

    def _check(self, c, k, op, res):
        try:
            out = op.check(res)
        except Exception as exc:  # a result the check cannot even read fails it
            self._fail(op, f"check failed: {exc!r}")
            return False
        if c == 0:
            digest = sha(out)[:16]
            if len(self.op_digests) == k:
                self.op_digests.append(digest)
                self.input_lines.append(op.inputs)
            if self.expected is not None and (
                k >= len(self.expected) or self.expected[k] != digest
            ):
                self._fail(op, "output digest differs from the recorded one")
                return False
        return True

    def run(self, seconds=None, cycles=None, tracer=None):
        """Run `cycles` cycles, or else whole cycles until `seconds` of
        scaled operation time have been measured; returns the number of
        cycles.  Probes and checks run between operations, outside the
        timed region."""
        timed = 0.0
        before = probe()
        c = 0
        while True:
            for k, op in enumerate(self.wl.cycle(c)):
                self.attempted += 1
                if tracer is not None:
                    tracer.begin_op(self.attempted)
                t0 = time.perf_counter()
                try:
                    res = op.run()
                    error = None
                except Exception:  # an operation failing is a measured outcome
                    error = traceback.format_exc(limit=3)
                dt = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_op()
                after = probe()
                self.probes.append(after)
                scaled = dt * PROBE_REF_S / min(before, after)
                before = after
                timed += scaled
                self.raw += dt
                if error is not None:
                    self._fail(op, error)
                elif self._check(c, k, op, res):
                    self.latencies.append(scaled)
            c += 1
            if cycles is not None and c >= cycles:
                break
            if cycles is None and timed >= seconds:
                break
        self.timed += timed
        return c


def tail(latencies):
    """Latency at the highest percentile with TAIL_BEYOND samples beyond
    it, that percentile, and the sample count."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0, n
    k = n - TAIL_BEYOND - 1
    return xs[k], 100.0 * (k + 1) / n, n


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def load_expected(workload, seed):
    if seed != DEFAULT_SEED:
        return None
    path = BENCH / "expected_digests.json"
    return json.loads(path.read_text())["workloads"].get(workload)


def set_up(workload, seed):
    """Import, build and warm up SETUP_REPS times; returns the last
    workload and each repetition's raw and scaled duration."""
    raw, scaled = [], []
    for _ in range(SETUP_REPS):
        before = probe()
        t0 = time.perf_counter()
        rn = import_rotnear()
        wl = WORKLOADS[workload](rn, seed, OUT)
        for op in wl.cycle(0)[: wl.warm_ops]:
            try:
                op.check(op.run())
            except Exception:  # the measured loop repeats and reports this op
                pass
        dt = time.perf_counter() - t0
        raw.append(dt)
        scaled.append(dt * PROBE_REF_S / min(before, probe()))
    return wl, raw, scaled


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=12.0,
                    help="scaled operation time per run; 0 runs a single cycle")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        wl, setup_raw, setup_scaled = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"error: cannot import rotnear from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    expected = load_expected(args.workload, args.seed)
    loop = Loop(wl, expected)
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        cycles = loop.run(seconds=args.seconds / 2)
        untraced = loop.timed
        if loop.expected is None:
            # tracing must not change a single output
            loop.expected = list(loop.op_digests)
        tracer = spans.Tracer()
        tracer.install()
        loop.timed = 0.0
        loop.run(cycles=cycles, tracer=tracer)
        metrics = tracer.summary()
        metrics["trace.untraced_s"] = untraced
        metrics["trace.overhead_frac"] = (loop.timed - untraced) / untraced
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.spans"
        tracer.write(trace_file, report)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        units = spans.metric_names()
    else:
        cycles = loop.run(seconds=args.seconds)
        tail_ms, tail_pct, samples = tail(loop.latencies)
        metrics = {
            "ops_per_s": len(loop.latencies) / loop.timed,
            "op_p50_ms": 1000 * statistics.median(loop.latencies),
            "op_tail_ms": 1000 * tail_ms,
            "setup_s": statistics.median(setup_scaled),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "setup_s": "s", "peak_rss_mb": "MB"}
        report.update(
            tail_percentile=tail_pct,
            tail_samples=samples,
            raw_ops_per_s=len(loop.latencies) / loop.raw,
            raw_setup_s=statistics.median(setup_raw),
        )

    inputs = getattr(wl, "setup_inputs", "") + "\n".join(loop.input_lines)
    report.update(
        cycles=cycles,
        timed_s=loop.timed,
        raw_timed_s=loop.raw,
        probe_us={"ref": 1e6 * PROBE_REF_S,
                  "quartiles": [1e6 * q for q in statistics.quantiles(loop.probes, n=4)]},
        attempted=loop.attempted,
        failed=loop.failed,
        failed_frac={"value": loop.failed / loop.attempted, "unit": "ratio"},
        input_digest=sha(inputs),
        output_digest=sha("".join(loop.op_digests)),
        digest_checked=expected is not None,
        op_digests=loop.op_digests,
        errors=loop.errors,
        env=environment(),
    )
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
