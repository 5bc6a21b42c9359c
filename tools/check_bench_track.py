#!/usr/bin/env python3
"""Self-test for mssr_bench_track (the bench_track_roundtrip ctest).

Synthesizes a fast and a 2x-slower BENCH_batch.json in a scratch
directory and drives the tracker end to end:

  1. `append` the fast report; the history gains one
     mssr-bench-history-v1 line whose aggregates match the report.
  2. `check` the same report against the history -> exit 0 (no drift).
  3. `check` the slow report -> exit 1 (wall_sec and agg_kips both
     regress past the threshold), and `--warn-only` turns that into
     exit 0 with the regression still reported.
  4. `check` an unknown bench name -> exit 0 (no baseline; seeds).
     `check` a report of the same bench at another size (more insts
     per job, or another worker count) -> exit 0, skipped: a
     baseline is only taken from a run of the same size. Once a row
     at the new size is appended, the older row at the first size
     is still the baseline for a run of that size.
  5. `check --json` on each of those paths -> one mssr-bench-check-v1
     object with the matching verdict ("ok" / "regression" /
     "skipped"), per-metric deltas and failed flags, and the same exit
     code as the text mode.
  6. `append` a sampled_accuracy report; its entry is summarized from
     that variant's own fields (total_insts, detail_host_sec,
     scan_host_sec), not to zeros.

Usage: check_bench_track.py --tracker PATH_TO_mssr_bench_track
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile


def make_report(path, bench, wall, per_job_host, insts=100000, threads=2):
    results = [
        {"name": "%s/job%d" % (bench, i), "insts": insts,
         "host_sec": per_job_host, "ckpt_hit": i == 0,
         "phase_warm_sec": per_job_host * 0.1,
         "phase_build_sec": per_job_host * 0.1,
         "phase_detail_sec": per_job_host * 0.8,
         "phase_serialize_sec": 0.001, "peak_rss_kb": 5000 + i}
        for i in range(4)
    ]
    report = {"bench": bench, "threads": threads, "jobs": len(results),
              "wall_sec": wall,
              "build_info": {"git": "testrev", "compiler": "test",
                             "build_type": "Release"},
              "results": results}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)


def make_sampled_report(path):
    results = [
        {"name": "fig10/4x64/job%d" % i, "full_ipc": 1.5,
         "full_host_sec": 2.0, "sampled_ipc": 1.49, "windows": 5,
         "total_insts": 250000, "detail_host_sec": 0.25,
         "scan_host_sec": 0.25, "speedup": 4.0, "covered": True,
         "ipc_estimate": {"n": 5, "mean": 1.49, "stderr": 0.01,
                          "ci95": 0.02}}
        for i in range(4)
    ]
    report = {"bench": "sampled_accuracy", "threads": 1,
              "build_info": {"git": "testrev", "compiler": "test",
                             "build_type": "Release"},
              "sample_period": 50000, "sample_window": 2000,
              "jobs": 2 * len(results), "wall_sec": 9.0,
              "results": results}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(report, f)


def run(tracker, argv, cwd):
    proc = subprocess.run([sys.executable, tracker] + argv, cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          timeout=60)
    return proc.returncode, proc.stdout.decode(errors="replace")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--tracker", required=True)
    args = ap.parse_args()
    tracker = os.path.abspath(args.tracker)

    failures = []

    def expect(label, want_rc, got_rc, output, want_substr=None):
        if got_rc != want_rc:
            failures.append("%s: exit %d (wanted %d)\n%s"
                            % (label, got_rc, want_rc, output))
        elif want_substr and want_substr not in output:
            failures.append("%s: output lacks %r\n%s"
                            % (label, want_substr, output))

    with tempfile.TemporaryDirectory(prefix="mssr_bench_track_") as scratch:
        make_report(os.path.join(scratch, "fast.json"), "smoke", 2.0, 0.5)
        make_report(os.path.join(scratch, "slow.json"), "smoke", 4.0, 1.0)
        make_report(os.path.join(scratch, "other.json"), "newbench", 1.0, 0.2)
        # Same bench, 20x the work per job on one thread: 20x the wall
        # time at twice the throughput of fast.json.
        make_report(os.path.join(scratch, "big.json"), "smoke", 40.0, 5.0,
                    insts=2000000, threads=1)
        make_report(os.path.join(scratch, "wide.json"), "smoke", 2.0, 0.5,
                    threads=4)

        rc, out = run(tracker, ["append", "fast.json",
                                "--history", "hist.jsonl"], scratch)
        expect("append", 0, rc, out, "appended smoke @ testrev")

        with open(os.path.join(scratch, "hist.jsonl")) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        if len(lines) != 1:
            failures.append("append: history has %d lines, wanted 1"
                            % len(lines))
        else:
            entry = lines[0]
            want = {"schema": "mssr-bench-history-v1", "bench": "smoke",
                    "jobs": 4, "wall_sec": 2.0, "total_insts": 400000,
                    "host_sec_sum": 2.0, "agg_kips": 200.0}
            for k, v in want.items():
                if entry.get(k) != v:
                    failures.append("append: entry[%r] == %r, wanted %r"
                                    % (k, entry.get(k), v))

        rc, out = run(tracker, ["check", "fast.json",
                                "--against", "hist.jsonl"], scratch)
        expect("check same", 0, rc, out, "bench-track: OK")

        rc, out = run(tracker, ["check", "slow.json",
                                "--against", "hist.jsonl"], scratch)
        expect("check regression", 1, rc, out, "REGRESSION: wall_sec")
        if rc == 1 and "REGRESSION: agg_kips" not in out:
            failures.append("check regression: agg_kips regression not "
                            "reported\n" + out)

        rc, out = run(tracker, ["check", "slow.json", "--against",
                                "hist.jsonl", "--warn-only"], scratch)
        expect("check warn-only", 0, rc, out, "--warn-only set; not failing")

        rc, out = run(tracker, ["check", "other.json",
                                "--against", "hist.jsonl"], scratch)
        expect("check no baseline", 0, rc, out, "no baseline for 'newbench'")

        # Runs of another size never take fast.json as their baseline.
        for label, report, size in (
                ("check other size", "big.json",
                 "at 8000000 insts, 4 jobs, 1 threads"),
                ("check other threads", "wide.json",
                 "at 400000 insts, 4 jobs, 4 threads")):
            rc, out = run(tracker, ["check", report,
                                    "--against", "hist.jsonl"], scratch)
            expect(label, 0, rc, out, "no baseline for 'smoke' " + size)
        # A newer row at the big size leaves fast.json the baseline of a
        # small run: the slow small run still regresses against it, and
        # the big run now finds its own baseline.
        rc, out = run(tracker, ["append", "big.json",
                                "--history", "mixed.jsonl"], scratch)
        rc2, out2 = run(tracker, ["append", "fast.json",
                                  "--history", "mixed.jsonl"], scratch)
        rc3, out3 = run(tracker, ["append", "big.json",
                                  "--history", "mixed.jsonl"], scratch)
        expect("append mixed", 0, max(rc, rc2, rc3), out + out2 + out3)
        rc, out = run(tracker, ["check", "fast.json",
                                "--against", "mixed.jsonl"], scratch)
        expect("check mixed same size", 0, rc, out, "bench-track: OK")
        rc, out = run(tracker, ["check", "slow.json",
                                "--against", "mixed.jsonl"], scratch)
        expect("check mixed regression", 1, rc, out, "REGRESSION: wall_sec")
        rc, out = run(tracker, ["check", "big.json",
                                "--against", "mixed.jsonl"], scratch)
        expect("check mixed big", 0, rc, out, "bench-track: OK")

        def check_json(label, report, extra, want_rc, want_verdict):
            rc, out = run(tracker, ["check", report, "--against",
                                    "hist.jsonl", "--json"] + extra, scratch)
            if rc != want_rc:
                failures.append("%s: exit %d (wanted %d)\n%s"
                                % (label, rc, want_rc, out))
                return None
            try:
                obj = json.loads(out)
            except json.JSONDecodeError as e:
                failures.append("%s: stdout is not JSON (%s)\n%s"
                                % (label, e, out))
                return None
            if obj.get("schema") != "mssr-bench-check-v1":
                failures.append("%s: schema %r" % (label, obj.get("schema")))
            if obj.get("verdict") != want_verdict:
                failures.append("%s: verdict %r, wanted %r"
                                % (label, obj.get("verdict"), want_verdict))
            return obj

        obj = check_json("json ok", "fast.json", [], 0, "ok")
        if obj and sorted(obj["metrics"]) != ["agg_kips", "wall_sec"]:
            failures.append("json ok: metrics keys %r" % sorted(obj["metrics"]))
        obj = check_json("json regression", "slow.json", [], 1, "regression")
        if obj:
            wall = obj["metrics"]["wall_sec"]
            if not wall["failed"] or abs(wall["delta_pct"] - 100.0) > 1e-6:
                failures.append("json regression: wall_sec metric %r" % wall)
            if not obj["metrics"]["agg_kips"]["failed"]:
                failures.append("json regression: agg_kips not failed")
        check_json("json warn-only", "slow.json", ["--warn-only"],
                   0, "regression")
        obj = check_json("json skipped", "other.json", [], 0, "skipped")
        if obj and obj.get("metrics") != {}:
            failures.append("json skipped: metrics %r" % obj.get("metrics"))

        make_sampled_report(os.path.join(scratch, "sampled.json"))
        rc, out = run(tracker, ["append", "sampled.json",
                                "--history", "sampled.jsonl"], scratch)
        expect("append sampled", 0, rc, out,
               "appended sampled_accuracy @ testrev")
        with open(os.path.join(scratch, "sampled.jsonl")) as f:
            lines = [json.loads(l) for l in f if l.strip()]
        want = {"bench": "sampled_accuracy", "jobs": 8, "wall_sec": 9.0,
                "total_insts": 1000000, "host_sec_sum": 2.0,
                "phase_detail_sec_sum": 1.0, "agg_kips": 500.0}
        for k, v in want.items():
            got = lines[-1].get(k) if lines else None
            if got != v:
                failures.append("append sampled: entry[%r] == %r, wanted %r"
                                % (k, got, v))

    if failures:
        print("bench-track self-test failed (%d):" % len(failures))
        for f in failures:
            print("  - " + f.replace("\n", "\n    "))
        return 1
    print("bench-track roundtrip ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
