"""idealkit benchmark: four seeded closed-loop workloads, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one table

Each workload runs in its own worker process (``worker.py``) under an
address-space limit of ``MEM_MB``.  The worker is one caller issuing the
next op only after the previous one returned, in whole passes over the
workload's ops, for about ``--seconds``.  Op times are scaled to a
reference machine speed measured by a calibration loop run between ops
(``worker.Clock``), and set-up times by the same loop run around set-up
(``worker.setup``); the unscaled figures are printed too.  Every op's
answer is compared with the answer recorded at the seed commit
(``expected.json``), and the cheap independent checks in ``oracles.py`` run
after the timed passes.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (see
``tracer.py``), which also writes its spans to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("monomial-powers", "hilbert-betti", "groebner-systems", "cli-requests")
DEFAULT_SEED = 1
# Far above the ~25 MB a worker needs, low enough that the Fourier-Motzkin
# blow-up raises MemoryError after about 3 s instead of taking gigabytes.
MEM_MB = 256
# set-up is timed in the measuring worker and in this many fresh workers
# before it and as many after it, so that the samples do not all fall in
# one slow or fast spell of the host; the median counts
SETUP_AROUND = 6
UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def loadavg():
    return " ".join(f"{v:.2f}" for v in os.getloadavg())


def source_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or None


def source_digest():
    """sha256 over src/ so a result names the code it measured without git."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def spawn(mode, workload, seed, seconds, timeout):
    """Start a worker; returns (its set-up, result).

    The set-up is None for the probe, else a pair: the seconds from the
    start of the worker to its ready line, without the calibrations in
    between, and those seconds scaled to the reference speed.
    """
    os.makedirs(OUT, exist_ok=True)
    errors = os.path.join(OUT, f"worker-{workload}-{mode}.stderr")
    with open(errors, "w", encoding="utf-8") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, WORKER, mode, workload, str(seed), str(seconds), str(MEM_MB)],
            stdout=subprocess.PIPE, stderr=err, text=True, cwd=ROOT,
        )
        try:
            ready = None
            if mode != "probe":
                line = proc.stdout.readline()
                took = time.perf_counter() - start
                try:
                    said = json.loads(line)
                    raw = took - said["calibrating_s"]
                    ready = raw, raw * said["factor"]
                except (ValueError, KeyError):
                    proc.kill()
            out, _ = proc.communicate(timeout=timeout)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0:
        with open(errors, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise WorkerError(f"{mode} worker exited {proc.returncode}:\n{tail}")
    lines = out.strip().splitlines()
    return ready, json.loads(lines[-1]) if lines else None


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def pass_metrics(passes, latencies, wall_key="wall_s"):
    wall = sum(p[wall_key] for p in passes)
    correct = sum(p["correct"] for p in passes)
    return {
        "ops_per_s": correct / wall,
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": percentile(latencies, 0.9) * 1e3,
    }


def run_workload(workload, seed, seconds, trace):
    """One run; returns (result for the last stdout line, report)."""
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "loadavg_start": loadavg(), "git_commit": source_commit(),
        "src_sha256": source_digest(), "memory_limit_mb": MEM_MB,
    }
    around = 0 if trace else SETUP_AROUND
    setups = [spawn("setup", workload, seed, 0, 120)[0] for _ in range(around)]
    ready, result = spawn("trace" if trace else "run", workload, seed, seconds,
                          3 * seconds + 60)
    setups.append(ready)
    setups += [spawn("setup", workload, seed, 0, 120)[0] for _ in range(around)]
    passes, latencies = result["passes"], result["latencies_s"]
    attempted = sum(p["attempted"] for p in passes)
    failed = attempted - sum(p["correct"] for p in passes)
    if trace:
        untraced = result["untraced_passes"]
        attempted += sum(p["attempted"] for p in untraced)
        failed += sum(p["attempted"] - p["correct"] for p in untraced)
    # an op whose answer fails an independent check fails once more
    failed += len(result.get("check_failures", ()))
    report.update({
        "passes": len(passes), "ops_timed": len(latencies),
        "failures": result["failures"] + result.get("check_failures", []),
        "failed_share": failed / attempted,
    })
    if trace:
        traced = pass_metrics(passes, latencies)["ops_per_s"]
        plain = sum(p["correct"] for p in untraced) / sum(p["wall_s"] for p in untraced)
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["per_layer"].items()}
        metrics["trace.ops_per_s_traced"] = {"value": traced, "unit": "1/s"}
        metrics["trace.ops_per_s_untraced"] = {"value": plain, "unit": "1/s"}
        metrics["trace.overhead_ratio"] = {"value": plain / traced, "unit": "ratio"}
    else:
        values = pass_metrics(passes, latencies)
        report["unscaled"] = pass_metrics(passes, result["raw_latencies_s"], "raw_wall_s")
        values["setup_s"] = statistics.median(scaled for _, scaled in setups)
        report["unscaled"]["setup_s"] = statistics.median(raw for raw, _ in setups)
        values["peak_rss_mb"] = result["peak_rss_mb"]
        metrics = {name: {"value": values[name], "unit": UNITS[name]} for name in UNITS}
        report["setup_samples_s"] = [scaled for _, scaled in setups]
        report["unscaled_setup_samples_s"] = [raw for raw, _ in setups]
        report["check_s"] = result["check_s"]
        if workload == "monomial-powers":
            report["known_failure"] = spawn("probe", workload, seed, 0, 120)[1]
    report["loadavg_end"] = loadavg()
    report["metrics"] = metrics
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, report


def describe(report):
    """Human-readable lines: every metric by name with its unit."""
    w = report["workload"]
    lines = [f"[{w}] seed {report['seed']}, {report['passes']} passes, "
             f"{report['ops_timed']} ops timed, python {report['python']}, "
             f"nproc {report['nproc']}, load {report['loadavg_start']} -> "
             f"{report['loadavg_end']}, src {report['src_sha256']}, "
             f"commit {report['git_commit']}, memory limit {report['memory_limit_mb']} MB"]
    for name, m in report["metrics"].items():
        lines.append(f"[{w}] {name} = {m['value']:.6g} {m['unit']}")
    if "unscaled" in report:
        lines.append(f"[{w}] unscaled wall time: " + ", ".join(
            f"{k} = {v:.6g}" for k, v in report["unscaled"].items()))
    n = report["ops_timed"]
    lines.append(f"[{w}] failed_share = {report['failed_share']:.6g} ratio "
                 f"(latency samples {n}, {n - int(0.9 * n) - 1} beyond p90)")
    for f in report["failures"]:
        lines.append(f"[{w}] FAILED {f['key']}: {f['reason']}")
    probe = report.get("known_failure")
    if probe:
        lines.append(f"[{w}] known failure, not timed: idealkit {' '.join(probe['argv'])}"
                     f" -> {probe['outcome']} after {probe['seconds']:.2f} s, "
                     f"peak RSS {probe['peak_rss_mb']:.0f} MB")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description="idealkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "idealkit", "__init__.py")):
        print(f"error: no src/idealkit under {ROOT}; run from a checkout of the repo",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    lines = {}
    for name in names:
        try:
            line, report = run_workload(name, args.seed, args.seconds, args.trace)
        except WorkerError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"result-{name}-{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
        print("\n".join(describe(report)), flush=True)
        lines[name] = line
    print(json.dumps(lines[names[0]] if len(names) == 1 else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
