#!/usr/bin/env python3
"""Build and run the simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures and builds perfbench/ (Release; the simulator library is
compiled from ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the benchmark driver from the repo
root with the same arguments. Build output goes to stderr; the driver's
last stdout line is the JSON result.

    python3 perfbench/run.py --self-check --workload NAME [--seed N] [--seconds S]

runs the workload twice on one seed and requires the determinism digest
and every simulated metric to match exactly, then runs a held-out seed
and requires it to finish with no failed job.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = "7919"


def build():
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                             "perfbench")
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [["cmake", "-S", "perfbench", "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))
    return os.path.join(build_dir, "mssr_perfbench")


def run_once(binary, args):
    out = subprocess.run([binary] + args, capture_output=True, text=True)
    sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.exit("perfbench: driver exited with code %d" % out.returncode)
    return lines, json.loads(lines[-1])


def simulated_lines(lines):
    """Report lines that must repeat exactly: the digest and every
    simulated metric."""
    keys = ("digest", "sim_ipc_gain_pct", "failed_frac", "sampled_ci95_pct",
            "sampled_ipc_err_pct")
    return [l.strip() for l in lines if l.split() and l.split()[0] in keys]


def self_check(binary, args):
    if "--seed" not in args:
        args = args + ["--seed", "1"]
    if "--seconds" not in args:
        args = args + ["--seconds", "1"]
    first, r1 = run_once(binary, args)
    second, r2 = run_once(binary, args)
    ok = True
    if simulated_lines(first) != simulated_lines(second):
        ok = False
        print("self-check: digest or simulated metrics differ between runs:")
        for a, b in zip(simulated_lines(first), simulated_lines(second)):
            print("  " + a + "\n  " + b)
    held = list(args)
    held[held.index("--seed") + 1] = HELD_OUT_SEED
    _, r3 = run_once(binary, held)
    for name, r in (("run 1", r1), ("run 2", r2),
                    ("held-out seed " + HELD_OUT_SEED, r3)):
        if not r["correct"] or r["failed"]:
            ok = False
            print("self-check: %s failed %d of %d jobs" %
                  (name, r["failed"], r["attempted"]))
    print("\n".join(simulated_lines(first)))
    print("self-check: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def main():
    os.chdir(ROOT)
    args = sys.argv[1:]
    binary = build()
    if "--self-check" in args:
        args.remove("--self-check")
        return self_check(binary, args)
    sys.stdout.flush()
    os.execv(binary, [binary] + args)


if __name__ == "__main__":
    sys.exit(main())
