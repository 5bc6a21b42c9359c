#!/usr/bin/env python3
"""Golden-digest check for the reuse ladder (the golden_reuse_ladder ctest).

Runs a fixed matrix of workloads x reuse configurations through
`mssr_run --stats-out` and hashes each job's deterministic
mssr-stats-v1 fields: cycles, insts, the CPI stack (`cpi_slots`), the
reuse funnel, and every `core.*`, `reuse.*` and `ri.*` counter. The
hashes are compared with a committed golden file; every job whose hash
differs (or that is missing from either side) is named.

    check_golden.py --mssr-run build/tools/mssr_run \\
        --golden tests/golden/reuse_ladder.txt

A change that is meant to alter simulated timing regenerates the file
with `--regen` (same arguments); the commit that does so must say why.
Stdlib only.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

SCALE = 6
ITERS = 200
WORKLOADS = ["nested-mispred", "linear-mispred", "xz", "leela", "bc"]

# Figure-10 notation: RGID SxW is S streams of W WPB fetch blocks with
# 4W squash-log entries per stream; RI SxW is sets x ways.
CONFIGS = [
    ("none", ["--reuse", "none"]),
    ("rgid-1x16", ["--reuse", "rgid", "--streams", "1", "--entries", "64"]),
    ("rgid-4x64", ["--reuse", "rgid", "--streams", "4", "--entries", "256"]),
    ("rgid-4x256", ["--reuse", "rgid", "--streams", "4",
                    "--entries", "1024"]),
    ("rgid-4x1024", ["--reuse", "rgid", "--streams", "4",
                     "--entries", "4096"]),
    ("ri-128x4", ["--reuse", "regint", "--sets", "128", "--ways", "4"]),
    ("ri-64x8", ["--reuse", "regint", "--sets", "64", "--ways", "8"]),
]

COUNTER_PREFIXES = ("core.", "reuse.", "ri.")


def job_digest(run):
    fields = {
        "cycles": run["cycles"],
        "insts": run["insts"],
        "cpi_slots": run["cpi_slots"],
        "funnel": run["funnel"],
        "counters": {k: v for k, v in run["stats"].items()
                     if k.startswith(COUNTER_PREFIXES)},
    }
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def compute(mssr_run, scratch):
    digests = {}
    for name, flags in CONFIGS:
        out = os.path.join(scratch, name + ".json")
        cmd = ([mssr_run, "--scale", str(SCALE), "--iters", str(ITERS),
                "--jobs", "1", "--stats-out", out] + flags + WORKLOADS)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, timeout=600)
        if proc.returncode != 0:
            raise SystemExit("golden: %s failed (exit %d)\n%s"
                             % (" ".join(cmd), proc.returncode,
                                proc.stdout.decode(errors="replace")))
        with open(out, encoding="utf-8") as f:
            runs = json.load(f)["runs"]
        if [r["name"] for r in runs] != WORKLOADS:
            raise SystemExit("golden: %s: runs %r, wanted %r"
                             % (name, [r["name"] for r in runs], WORKLOADS))
        for run in runs:
            digests["%s/%s" % (name, run["name"])] = job_digest(run)
    return digests


def load(path):
    digests = {}
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise SystemExit("%s:%d: expected '<job> <digest>'"
                                 % (path, lineno))
            digests[parts[0]] = parts[1]
    return digests


def write(path, digests):
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Golden per-job digests of the deterministic mssr-stats-v1\n"
                "# fields (cycles, insts, cpi_slots, funnel, core./reuse./ri.\n"
                "# counters) at scale %d, %d iterations.\n"
                "# Regenerate: tools/check_golden.py --regen "
                "--mssr-run <mssr_run> --golden <this file>\n"
                % (SCALE, ITERS))
        for job in sorted(digests):
            f.write("%s %s\n" % (job, digests[job]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mssr-run", required=True)
    ap.add_argument("--golden", required=True)
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the golden file from this build")
    args = ap.parse_args()

    with tempfile.TemporaryDirectory(prefix="mssr_golden_") as scratch:
        got = compute(os.path.abspath(args.mssr_run), scratch)
    if args.regen:
        write(args.golden, got)
        print("golden: wrote %d digests to %s" % (len(got), args.golden))
        return 0

    want = load(args.golden)
    diverged = sorted(job for job in set(want) | set(got)
                      if want.get(job) != got.get(job))
    if diverged:
        print("golden: %d of %d jobs diverge from %s:"
              % (len(diverged), len(want), args.golden))
        for job in diverged:
            print("  %s: golden %s, got %s"
                  % (job, want.get(job, "<missing>"),
                     got.get(job, "<missing>")))
        return 1
    print("golden ok: %d jobs match %s" % (len(got), args.golden))
    return 0


if __name__ == "__main__":
    sys.exit(main())
