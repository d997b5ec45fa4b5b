"""Steadiness check: two sets of runs of the same code against the bounds.

    python3 perfbench/steady.py [--seeds 1-10]

Runs every workload of BENCHMARK.json once per seed with its
``run_seconds``, in two sets, interleaving the workloads so that a change
in machine load reaches all of them alike.  For every end-to-end metric it
reports each set's spread (distance between the first and third quartile,
as ``statistics.quantiles(values, n=4)`` gives them, over the median) and
the drift between the two sets' medians (their difference over the first).
A spread or a drift above the metric's bound fails the check; the exit code
is 1 then.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_of(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(bench, workload, seed):
    argv = bench["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=400)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}: {done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} answered incorrectly:\n{done.stdout}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def run_set(bench, seeds, label):
    """{workload: [values of one run per seed]}"""
    runs = {w["name"]: [] for w in bench["workloads"]}
    for seed in seeds:
        for workload, values in runs.items():
            values.append(run_once(bench, workload, seed))
            print(f"{label} seed {seed} {workload}: "
                  + ", ".join(f"{k} {v:.4g}" for k, v in values[-1].items()), flush=True)
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    seeds = seeds_of(parser.parse_args().seeds)
    first = run_set(bench, seeds, "set 1")
    second = run_set(bench, seeds, "set 2")
    ok = True
    report = {}
    print(f"\n{'workload':18s} {'metric':16s} {'bound':>6s} {'med1':>9s} {'spread1':>8s} "
          f"{'med2':>9s} {'spread2':>8s} {'drift':>7s}")
    for w in first:
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            one = [r[name] for r in first[w]]
            two = [r[name] for r in second[w]]
            med1, med2 = statistics.median(one), statistics.median(two)
            spread1, spread2 = spread(one), spread(two)
            drift = abs(med2 - med1) / med1
            bad = max(spread1, spread2, drift) > bound
            ok = ok and not bad
            report.setdefault(w, {})[name] = {
                "bound": bound, "medians": [med1, med2], "spreads": [spread1, spread2],
                "drift": drift, "values": [one, two], "ok": not bad}
            print(f"{w:18s} {name:16s} {bound:6.2f} {med1:9.4g} {spread1:8.3f} "
                  f"{med2:9.4g} {spread2:8.3f} {drift:7.3f}" + ("  FAIL" if bad else ""))
    os.makedirs(os.path.join(ROOT, ".perfbench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".perfbench_out", "steady.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"seeds": seeds, "seconds": bench["run_seconds"], "report": report},
                  fh, indent=1)
    print("steady" if ok else "NOT steady: a spread or drift exceeds its bound")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
