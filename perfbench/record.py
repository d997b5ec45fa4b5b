"""Record the expected answer of every op that any seed can run.

    python3 perfbench/record.py --commit REV

Each pool entry and fixed op of the four workloads runs once, under the
workers' memory limit, and the digest of its canonical answer is written to
``perfbench/expected.json``.  The library is taken from the named git commit
(``git archive`` into ``.perfbench_ref/``), so answers come from a named
reference and never from the code being measured.  Recording fails if any
op fails: a workload must consist of ops that answer.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import MEM_MB  # noqa: E402
from worker import EXPECTED, digest  # noqa: E402


def record(src):
    limit = MEM_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    sys.path.insert(0, src)
    import workloads

    answers, failures, slowest = {}, [], []
    for name, build in workloads.WORKLOADS.items():
        start = time.perf_counter()
        for op in build(None):
            t0 = time.perf_counter()
            try:
                answers[op.key] = digest(op.canon(op.call()))
            except Exception as exc:  # reported below; recording must be complete
                failures.append(f"{op.key}: {type(exc).__name__}: {exc}")
            slowest.append((time.perf_counter() - t0, op.key))
        print(f"{name}: {time.perf_counter() - start:.1f} s", file=sys.stderr)
        slowest.sort(reverse=True)
        for seconds, key in slowest[:3]:
            print(f"  slowest op {seconds:.3f} s {key[:100]}", file=sys.stderr)
        slowest.clear()
    return answers, failures


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--commit", help="git commit to take src/ from")
    parser.add_argument("--src", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.src:
        answers, failures = record(args.src)
        print(json.dumps({"answers": answers, "failures": failures}))
        return 0
    if not args.commit:
        parser.error("--commit is required")
    rev = subprocess.run(["git", "rev-parse", args.commit], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip()
    dest = os.path.join(ROOT, ".perfbench_ref", rev)
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", rev, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    src = os.path.join(dest, "src")
    child = subprocess.run([sys.executable, __file__, "--src", src],
                           capture_output=True, text=True, cwd=ROOT)
    sys.stderr.write(child.stderr)
    if child.returncode != 0:
        return child.returncode
    result = json.loads(child.stdout.splitlines()[-1])
    if result["failures"]:
        print("ops failed while recording:", *result["failures"], sep="\n  ")
        return 1
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({"commit": rev, "answers": dict(sorted(result["answers"].items()))},
                  fh, indent=0)
        fh.write("\n")
    print(f"recorded {len(result['answers'])} answers from {rev}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
