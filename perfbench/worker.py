"""One benchmark worker: a single-threaded closed loop over one workload.

Run by ``run.py`` as a child process, never by hand:

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS MEM_MB

MODE is ``setup`` (build the inputs, report ready, exit), ``run`` (timed
passes, then answer checks), ``trace`` (untraced then traced passes) or
``probe`` (the known Fourier-Motzkin failure).  The worker limits its own
address space to MEM_MB before importing the library, writes a ``ready``
line on stdout once the inputs are built (see :func:`setup`), and its result
as the last stdout line.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")
OUT = os.path.join(ROOT, ".perfbench_out")
# calibration work time at the reference speed: the median measured on the
# 2-vCPU host where the benchmark was built; it only sets the unit
CALIBRATION_S = 0.0012
CALIBRATE_EVERY_S = 0.025
# calibration runs on either side of set-up, about 50 ms each: long enough
# that their mean follows the host's speed as closely as set-up does
SETUP_CALIBRATION_RUNS = 40


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def load_ops(workload, seed):
    """Import the library from this checkout and build the workload's ops."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import idealkit

    if not os.path.abspath(idealkit.__file__).startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"idealkit imported from {idealkit.__file__}, not this checkout")
    import workloads

    return workloads.WORKLOADS[workload](seed)


def run_op(op, expected, call=None):
    """Time one op; returns (seconds, failure reason or None, result)."""
    start = time.perf_counter()
    try:
        result = (call or op.call)()
    except MemoryError:
        return time.perf_counter() - start, "MemoryError", None
    except Exception as exc:  # an exception is a failed op, not a failed run
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}", None
    seconds = time.perf_counter() - start
    want = expected.get(op.key)
    if want is None:
        return seconds, "no recorded answer", result
    got = digest(op.canon(result))
    if got != want:
        return seconds, f"answer {got} != recorded {want}", result
    return seconds, None, result


def calibration_work():
    """Fixed pure-Python work shaped like the library's: sorting and
    divisibility scans over exponent tuples, and dict updates."""
    rows = [(i * 7 % 11, i * 5 % 13, i * 3 % 17, i % 5) for i in range(160)]
    kept = []
    for r in sorted(set(rows), key=lambda t: (sum(t), t)):
        if not any(all(a <= b for a, b in zip(k, r)) for k in kept):
            kept.append(r)
    acc = {}
    for i in range(1500):
        key = (i % 31, i % 7)
        acc[key] = acc.get(key, 0) + i * i
    return len(kept) + len(acc)


def calibrate():
    """Seconds the calibration work takes now: best of three back to back."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        calibration_work()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Op times scaled to the machine speed at which the calibration work
    takes CALIBRATION_S.

    The host's speed drifts by a fifth over tens of seconds, for the same
    work, in wall and CPU time alike.  The calibration work runs after
    every CALIBRATE_EVERY_S of op time; each op is scaled by the mean of
    the calibrations just before and just after it.
    """

    def __init__(self):
        self.last = calibrate()
        self.pending = []
        self.scaled = []
        self.raw = []

    def add(self, seconds):
        self.pending.append(seconds)
        if sum(self.pending) >= CALIBRATE_EVERY_S:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        now = calibrate()
        factor = CALIBRATION_S / ((self.last + now) / 2)
        self.scaled += [t * factor for t in self.pending]
        self.raw += self.pending
        self.pending = []
        self.last = now


def timed_passes(ops, expected, seconds, tracer=None):
    """Whole passes until the budget is spent; a pass may not start when
    less than half a pass remains."""
    passes, failures, results = [], [], {}
    clock = Clock()
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if passes and seconds - elapsed < 0.5 * elapsed / len(passes):
            break
        first, correct = len(clock.scaled) + len(clock.pending), 0
        for index, op in enumerate(ops):
            call = None
            if tracer is not None:
                call = lambda op=op, index=index: tracer.run_op(index, op.call)  # noqa: E731
            took, failure, result = run_op(op, expected, call)
            clock.add(took)
            if failure is None:
                correct += 1
                results[index] = result
            elif len(failures) < 20:
                failures.append({"key": op.key, "reason": failure})
        clock.flush()
        passes.append({"wall_s": sum(clock.scaled[first:]),
                       "raw_wall_s": sum(clock.raw[first:]),
                       "correct": correct, "attempted": len(ops)})
    return passes, clock.scaled, failures, results, clock.raw


def check_invariants(ops, results):
    """Independent checks, once per op that answered, off the clock."""
    failures = []
    for index, result in results.items():
        op = ops[index]
        if op.check is None:
            continue
        reason = op.check(result)
        if reason is not None:
            failures.append({"key": op.key, "reason": reason})
    return failures


def summary(passes, latencies, failures, results, raw_latencies):
    return {
        "passes": passes,
        "latencies_s": latencies,
        "raw_latencies_s": raw_latencies,
        "failures": failures,
        "peak_rss_mb": peak_rss_mb(),
    }


def main(argv):
    mode, workload, seed, seconds, mem_mb = argv
    limit = int(mem_mb) << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    if mode == "probe":
        return probe()
    ops = setup(workload, int(seed))
    if mode == "setup":
        return 0
    with open(EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)["answers"]
    seconds = float(seconds)
    if mode == "run":
        timed = timed_passes(ops, expected, seconds)
        check_start = time.perf_counter()
        out = summary(*timed)
        out["check_failures"] = check_invariants(ops, timed[3])
        out["check_s"] = time.perf_counter() - check_start
    else:
        import idealkit
        from tracer import Tracer, per_layer

        plain = timed_passes(ops, expected, seconds / 2)
        tracer = Tracer(idealkit.__name__)
        tracer.install()
        try:
            traced = timed_passes(ops, expected, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        out = summary(*traced)
        out["untraced_passes"] = plain[0]
        out["per_layer"] = per_layer(tracer, len(traced[0]))
        write_trace(tracer, workload, seed)
    print(json.dumps(out))
    return 0


def mean_calibration():
    """Mean seconds of one calibration run over SETUP_CALIBRATION_RUNS."""
    start = time.perf_counter()
    for _ in range(SETUP_CALIBRATION_RUNS):
        calibration_work()
    return (time.perf_counter() - start) / SETUP_CALIBRATION_RUNS


def setup(workload, seed):
    """Build the ops between two calibrations and report ready.

    The ready line gives the seconds the calibrations took, which the parent
    takes out of the set-up time it measures, and the factor that scales
    set-up to the reference speed.  Set-up is scaled for the reason ops are
    (see :class:`Clock`), but by the mean of many runs on either side: a
    best-of-three calibration is noisier than a set-up of a few tenths of a
    second.
    """
    start = time.perf_counter()
    before = mean_calibration()
    calibrating = time.perf_counter() - start
    ops = load_ops(workload, seed)
    start = time.perf_counter()
    after = mean_calibration()
    calibrating += time.perf_counter() - start
    print(json.dumps({"calibrating_s": calibrating,
                      "factor": CALIBRATION_S / ((before + after) / 2)}), flush=True)
    return ops


def write_trace(tracer, workload, seed):
    """Spans and counters of the traced passes, for reading after the run."""
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "span_fields": ["id", "parent", "op", "name", "start", "end"],
            "stats_fields": ["calls", "self_s", "total_s"],
            "stats": {name: [s.calls, s.self_s, s.total_s]
                      for name, s in sorted(tracer.stats.items())},
            "counts": tracer.counts,
            "spans": tracer.spans,
        }, fh)


def probe():
    """The Fourier-Motzkin reproducer, alone under the memory limit."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import idealkit.cli
    from workloads import FM_REPRODUCER

    start = time.perf_counter()
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            outcome = f"exit {idealkit.cli.main(FM_REPRODUCER + ['--json'])}"
    except MemoryError:
        outcome = "MemoryError"
    print(json.dumps({
        "argv": FM_REPRODUCER,
        "outcome": outcome,
        "output": out.getvalue().strip(),
        "seconds": time.perf_counter() - start,
        "peak_rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
