#!/usr/bin/env python3
"""Golden-digest checks (golden_reuse_ladder, golden_detail, golden_sampled).

Runs a fixed matrix of workloads x reuse configurations through
`mssr_run --stats-out` and hashes each job's deterministic
mssr-stats-v1 fields: cycles, insts, the CPI stack (`cpi_slots`), the
reuse funnel, and every `core.*`, `reuse.*` and `ri.*` counter. The
hashes are compared with a committed golden file; every job whose hash
differs (or that is missing from either side) is named.

    check_golden.py --mssr-run build/tools/mssr_run \\
        --golden tests/golden/reuse_ladder.txt
    check_golden.py --matrix sampled --mssr-run build/tools/mssr_run \\
        --golden tests/golden/sampled.txt

`--matrix ladder` (the default) is the full-detail reuse ladder.
`--matrix detail` runs, in full detail, the perfbench detail_grid
programs the ladder leaves out, under no reuse, RGID 4x64 and RI 64x4.
`--matrix sampled` runs SMARTS-style sampled simulation and hashes
every detailed window (`--sample-windows-out`) plus each job's
population estimate. Each sampled config runs twice on one fresh
`--ckpt-dir`: the `cold` pass scans the program and writes (and
CRCs) every checkpoint, the `warm` pass takes each one from the store
(CRC verify plus program-hash validation), so both paths are pinned.

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

# Detail matrix: the rest of perfbench's detail_grid (DRAM-bound mcf
# and omnetpp, the other SPEC-like programs, five GAP kernels) under
# no reuse, the paper's RGID 4x64 and RI 64x4.
DETAIL_WORKLOADS = ["mcf", "omnetpp", "astar", "gobmk", "sjeng", "deepsjeng",
                    "exchange2", "bfs", "cc", "pr", "sssp", "tc"]
DETAIL_CONFIGS = [c for c in CONFIGS if c[0] in ("none", "rgid-4x64")] + [
    ("ri-64x4", ["--reuse", "regint", "--sets", "64", "--ways", "4"]),
]

# Sampled matrix: one graph kernel with many windows, one with few,
# and a SPEC-like, under no reuse and the paper's RGID 4x64.
SAMPLED_WORKLOADS = ["bc", "bfs", "leela"]
SAMPLED_CONFIGS = [c for c in CONFIGS if c[0] in ("none", "rgid-4x64")]
SAMPLE_FLAGS = ["--sample-period", "2500", "--sample-window", "500"]
SAMPLED_PASSES = ("cold", "warm")


def job_digest(run):
    return digest({
        "cycles": run["cycles"],
        "insts": run["insts"],
        "cpi_slots": run["cpi_slots"],
        "funnel": run["funnel"],
        "counters": {k: v for k, v in run["stats"].items()
                     if k.startswith(COUNTER_PREFIXES)},
    })


def digest(fields):
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def estimate_digest(run):
    """The sampled job's headline totals and population estimates.

    Host-time fields (scan_host_sec, scan_disk_hits, ff_host_sec,
    ff_kips) are left out: they depend on the host and the store.
    """
    sampling = {k: v for k, v in run["sampling"].items()
                if k not in ("scan_host_sec", "scan_disk_hits")}
    return digest({
        "cycles": run["cycles"],
        "insts": run["insts"],
        "ff_insts": run["ff_insts"],
        "cpi_slots": run["cpi_slots"],
        "funnel": run["funnel"],
        "sampling": sampling,
    })


def run_mssr(cmd, name, workloads, out):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit("golden: %s failed (exit %d)\n%s"
                         % (" ".join(cmd), proc.returncode,
                            proc.stdout.decode(errors="replace")))
    with open(out, encoding="utf-8") as f:
        runs = json.load(f)["runs"]
    if [r["name"] for r in runs] != workloads:
        raise SystemExit("golden: %s: runs %r, wanted %r"
                         % (name, [r["name"] for r in runs], workloads))
    return runs


def compute_full_detail(mssr_run, scratch, configs, workloads):
    digests = {}
    for name, flags in configs:
        out = os.path.join(scratch, name + ".json")
        cmd = ([mssr_run, "--scale", str(SCALE), "--iters", str(ITERS),
                "--jobs", "1", "--stats-out", out] + flags + workloads)
        for run in run_mssr(cmd, name, workloads, out):
            digests["%s/%s" % (name, run["name"])] = job_digest(run)
    return digests


def compute_ladder(mssr_run, scratch):
    return compute_full_detail(mssr_run, scratch, CONFIGS, WORKLOADS)


def compute_detail(mssr_run, scratch):
    return compute_full_detail(mssr_run, scratch, DETAIL_CONFIGS,
                               DETAIL_WORKLOADS)


def compute_sampled(mssr_run, scratch):
    digests = {}
    for name, flags in SAMPLED_CONFIGS:
        ckpt_dir = os.path.join(scratch, name + ".ckpt")
        for pas in SAMPLED_PASSES:
            tag = "%s/%s" % (pas, name)
            out = os.path.join(scratch, "%s.%s.json" % (name, pas))
            win_out = os.path.join(scratch, "%s.%s.win.json" % (name, pas))
            # --stats-host-time only adds scan_disk_hits (to tell the
            # passes apart) and other host fields the digests skip.
            cmd = ([mssr_run, "--scale", str(SCALE), "--iters", str(ITERS),
                    "--jobs", "1", "--ckpt-dir", ckpt_dir,
                    "--stats-host-time", "--stats-out", out,
                    "--sample-windows-out", win_out]
                   + SAMPLE_FLAGS + flags + SAMPLED_WORKLOADS)
            runs = run_mssr(cmd, tag, SAMPLED_WORKLOADS, out)
            for run in runs:
                hits = run["sampling"]["scan_disk_hits"]
                if (hits == 0) != (pas == "cold"):
                    raise SystemExit("golden: %s/%s: %d checkpoint store "
                                     "hits on the %s pass"
                                     % (tag, run["name"], hits, pas))
                digests["%s/%s" % (tag, run["name"])] = estimate_digest(run)
            with open(win_out, encoding="utf-8") as f:
                windows = json.load(f)["runs"]
            for win in windows:
                if win["name"].split("#w")[0] not in SAMPLED_WORKLOADS:
                    raise SystemExit("golden: %s: unexpected window run %r"
                                     % (tag, win["name"]))
                digests["%s/%s" % (tag, win["name"])] = job_digest(win)
    return digests


MATRICES = {
    "ladder": (compute_ladder,
               "fields (cycles, insts, cpi_slots, funnel, core./reuse./ri.\n"
               "# counters) at scale %d, %d iterations." % (SCALE, ITERS)),
    "detail": (compute_detail,
               "fields (as the ladder) of the remaining detail_grid programs\n"
               "# under none, RGID 4x64 and RI 64x4, at scale %d, %d "
               "iterations." % (SCALE, ITERS)),
    "sampled": (compute_sampled,
                "fields of every sampled window (as the ladder) and of each\n"
                "# job's estimates, cold and warm checkpoint store, at scale\n"
                "# %d, %d iterations, %s." % (SCALE, ITERS,
                                              " ".join(SAMPLE_FLAGS))),
}


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


def write(path, matrix, digests):
    regen = "--regen" if matrix == "ladder" else "--matrix %s --regen" % matrix
    with open(path, "w", encoding="utf-8") as f:
        f.write("# Golden per-job digests of the deterministic mssr-stats-v1\n"
                "# %s\n"
                "# Regenerate: tools/check_golden.py %s "
                "--mssr-run <mssr_run> --golden <this file>\n"
                % (MATRICES[matrix][1], regen))
        for job in sorted(digests):
            f.write("%s %s\n" % (job, digests[job]))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--mssr-run", required=True)
    ap.add_argument("--golden", required=True)
    ap.add_argument("--matrix", choices=sorted(MATRICES), default="ladder")
    ap.add_argument("--regen", action="store_true",
                    help="rewrite the golden file from this build")
    args = ap.parse_args()

    compute = MATRICES[args.matrix][0]
    with tempfile.TemporaryDirectory(prefix="mssr_golden_") as scratch:
        got = compute(os.path.abspath(args.mssr_run), scratch)
    if args.regen:
        write(args.golden, args.matrix, got)
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
