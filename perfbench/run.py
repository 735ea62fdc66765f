#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

Run from the repository root:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all              # every workload, both modes
  python3 perfbench/run.py --selftest         # the benchmark's own tests
  python3 perfbench/run.py --update-golden    # re-record golden digests
  python3 perfbench/run.py --record-baseline  # append to baseline.json

The benchmark is built from source into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench) inside the checkout. In bench mode the
last stdout line is the driver's JSON result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["megascale", "tab05", "batching", "chaos"]


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    """Configure once, then build `target`; build output goes to stderr."""
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", target, "-j4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(out, target)


def driver(args, capture=False):
    cmd = [build("perfbench_driver"), "--root", ROOT] + args
    if not capture:
        return subprocess.run(cmd).returncode
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    if done.returncode:
        sys.exit("perfbench: failed: " + " ".join(cmd))
    return done.stdout.strip().splitlines()[-1]


def update_golden():
    golden = {}
    for name in WORKLOADS:
        # The driver runs serially by default, so the golden is recorded
        # at --jobs 1; parallel runs must match it.
        golden.update(json.loads(driver(["--workload", name,
                                         "--emit-golden"], capture=True)))
    with open(os.path.join(HERE, "golden.json"), "w") as f:
        json.dump(golden, f, indent=2)
        f.write("\n")


def record_baseline(runs, seconds, label):
    machine = json.loads(driver(["--machine-info"], capture=True))
    if machine["build_type"] != "Release":
        sys.exit("perfbench: refusing to record a baseline from a %s build"
                 % machine["build_type"])
    # Seeds 1000 apart: no two runs share a seed replica.
    record = {"label": label, "machine": machine, "runs": runs,
              "seconds": seconds,
              "seeds": [1000 * i for i in range(1, runs + 1)],
              "workloads": {}}
    for name in WORKLOADS:
        values = {}
        for seed in record["seeds"]:
            result = json.loads(driver(
                ["--workload", name, "--seed", str(seed), "--seconds",
                 str(seconds), "--trace", "0"], capture=True))
            if not result["correct"]:
                sys.exit("perfbench: %s seed %d failed its checks"
                         % (name, seed))
            for metric, m in result["metrics"].items():
                values.setdefault(metric, (m["unit"], []))[1].append(
                    m["value"])
        record["workloads"][name] = {
            metric: {"unit": unit, "median": statistics.median(v),
                     "values": v}
            for metric, (unit, v) in values.items()}
    path = os.path.join(HERE, "baseline.json")
    history = []
    if os.path.isfile(path):
        with open(path) as f:
            history = json.load(f)["history"]
    history.append(record)
    with open(path, "w") as f:
        json.dump({"history": history}, f, indent=2)
        f.write("\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true")
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--update-golden", action="store_true")
    p.add_argument("--record-baseline", action="store_true")
    p.add_argument("--runs", type=int, default=5,
                   help="seeds per workload for --record-baseline")
    p.add_argument("--label", default="",
                   help="what the --record-baseline row measures")
    a = p.parse_args()

    if a.selftest:
        test = build("perfbench_selftest")
        sys.exit(subprocess.run([test]).returncode)
    if a.update_golden:
        update_golden()
        return
    if a.record_baseline:
        record_baseline(a.runs, a.seconds, a.label)
        return
    if a.all:
        status = 0
        for name in WORKLOADS:
            for trace in ("0", "1"):
                status |= driver(["--workload", name, "--seconds",
                                  str(a.seconds), "--trace", trace])
        sys.exit(status)
    if a.workload is None:
        p.error("--workload is required")
    args = ["--workload", a.workload, "--seconds", str(a.seconds),
            "--trace", str(a.trace)]
    if a.seed is not None:
        args += ["--seed", str(a.seed)]
    if a.trace:
        args += ["--spans-out",
                 os.path.join(build_dir(), "spans_%s.json" % a.workload)]
    sys.exit(driver(args))


if __name__ == "__main__":
    main()
