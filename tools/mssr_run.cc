/**
 * mssr_run: command-line front end for the simulator. Runs one or
 * more named workloads (or an assembly file) under a chosen
 * squash-reuse scheme and prints statistics. Multiple workloads (and
 * the --compare baselines) are executed in parallel through the
 * BatchRunner; output order always follows the command line.
 *
 * Usage:
 *   mssr_run [options] <workload> [<workload> ...]
 *   mssr_run [options] --asm <file.s>
 *
 * Options:
 *   --reuse none|rgid|regint     scheme (default rgid)
 *   --streams N                  RGID streams (default 4)
 *   --entries P                  squash-log entries/stream (default 64)
 *   --sets S --ways W            RI geometry (default 64x4)
 *   --predictor tage|gshare|bimodal
 *   --max-insts N                stop after N commits
 *   --scale G --iters I          workload sizing
 *   --jobs N                     worker threads (default: MSSR_JOBS or
 *                                hardware concurrency)
 *   --bloom                      Bloom hazard check instead of verify
 *   --all-stats                  dump every counter
 *   --compare                    also run the no-reuse baseline
 *   --trace                      record pipeline events (text to stderr)
 *   --trace-out FILE             write events as Chrome trace_event JSON
 *                                (implies --trace; open in chrome://tracing
 *                                or ui.perfetto.dev)
 *   --interval K                 sample interval stats every K cycles
 *   --pipeview-out FILE          record every instruction's pipeline
 *                                lifecycle (fetch..commit plus the
 *                                squash-reuse lanes) and write a Kanata
 *                                0004 log (mssr-pipeview-v1 header) for
 *                                the Konata visualizer. With multiple
 *                                jobs each job gets its own file
 *                                FILE-stem.<i>_<job>.<ext>. Inspect
 *                                with tools/mssr_stats --timeline
 *   --view-start-cycle C         with --view-cycles: bound --trace-out
 *                                and --pipeview-out output to cycles
 *                                [C, C+K) (pipeview selects by fetch
 *                                cycle and records the selected
 *                                instructions to retirement). Counters
 *                                and simulated results are unaffected
 *   --view-cycles K              length of the output window (K >= 1)
 *   --stats-out FILE             write per-run CPI stack, reuse funnel
 *                                and all scalar counters to FILE
 *                                (mssr-stats-v1 JSON; a .prom suffix
 *                                selects Prometheus text exposition).
 *                                Feed the JSON to tools/mssr_stats for
 *                                tables and A-vs-B diffs.
 *   --profile-out FILE           enable per-PC profiling and write the
 *                                per-branch/per-reconvergence-point
 *                                attribution to FILE (mssr-profile-v1
 *                                JSON; a .folded suffix emits collapsed
 *                                stack lines "branchPC;reconvPC;category
 *                                slots" for flamegraph tooling). Feed
 *                                the JSON to tools/mssr_stats --annotate
 *                                / --topn for hot-branch listings.
 *   --fast-forward K             run the first K instructions on the
 *                                functional emulator, then simulate the
 *                                remainder in detail from the snapshot
 *                                (--max-insts then bounds the detailed
 *                                region only)
 *   --ckpt-dir DIR               cache fast-forward snapshots in DIR as
 *                                mssr-ckpt-v2 files (load on hit, save
 *                                on miss; corrupt files exit 2)
 *   --warm-bpu                   pre-train the branch predictor from
 *                                the prefix's recorded branch outcomes
 *   --func-tier fast|interp      which functional tier runs fast-forward
 *                                prefixes: the predecoded basic-block
 *                                dispatch cache (default) or the
 *                                reference step interpreter. Results are
 *                                bit-identical; only warm-up speed
 *                                changes
 *   --trace-capture FILE         run the workload on the fast functional
 *                                tier only (bounded by --max-insts) and
 *                                write the execution as an mssr-trace-v1
 *                                file; no detailed simulation happens
 *   --trace-replay FILE          load an mssr-trace-v1 file, verify its
 *                                dynamic stream against the embedded
 *                                program, and run the detailed core on
 *                                it (replaces <workload>/--asm; corrupt
 *                                files exit 2)
 *   --stats-host-time            include warm-up host timing (ff_host_sec,
 *                                ff_kips) in --stats-out JSON. Off by
 *                                default so stats files stay
 *                                byte-deterministic across hosts
 *   --sample-period N            SMARTS-style sampled simulation: run the
 *                                program end-to-end on the functional
 *                                tier, checkpoint every N insts, and
 *                                detail-simulate only the --sample-window
 *                                insts from each checkpoint (warm-BPU
 *                                replay). Reports per-metric population
 *                                estimates with 95% confidence intervals;
 *                                --stats-out gains a "sampling" block.
 *                                Requires --sample-window; composes with
 *                                --ckpt-dir (the scan shares the store)
 *                                and --compare; excludes --fast-forward,
 *                                --interval, --trace*, --profile-out
 *   --sample-window K            detailed instructions per window
 *                                (0 < K <= N)
 *   --sample-windows-out FILE    also write every per-window run as an
 *                                mssr-stats-v1 file (one run per window)
 *   --log-level error|warn|info|debug  structured-logger threshold
 *                                (default info; MSSR_LOG is the env
 *                                equivalent, the flag wins)
 *   --log-out FILE               mirror every emitted log record to FILE
 *                                as JSON lines (MSSR_LOG_OUT equivalent)
 *   --progress-every N           while a batch runs, log a one-line
 *                                progress report (done/total, ETA,
 *                                aggregate kips) every N seconds
 *   --metrics-out FILE           atomically rewrite FILE as a Prometheus
 *                                textfile of the live host metrics on
 *                                every progress heartbeat and at batch
 *                                completion. All telemetry is host-side
 *                                only: simulated results stay
 *                                byte-identical with it on or off
 *   --version                    print build provenance (git revision,
 *                                compiler, build type) and exit 0
 *   --list                       list available workloads
 *   --help                       print this flag reference and exit 0
 *
 * Each job records into its own tracer, so tracing composes with
 * parallel execution and the per-job event streams stay deterministic.
 */

#include <cctype>
#include <chrono>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "analysis/report.hh"
#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/cpi_stack.hh"
#include "common/log.hh"
#include "common/mini_json.hh"
#include "common/pipeview.hh"
#include "common/serialize.hh"
#include "common/trace.hh"
#include "driver/batch_runner.hh"
#include "driver/sampled_runner.hh"
#include "isa/assembler.hh"
#include "sim/exec_trace.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

void
printUsage(std::ostream &os, const char *argv0)
{
    os << "usage: " << argv0
       << " [--reuse none|rgid|regint] [--streams N] [--entries P]"
          "\n        [--sets S] [--ways W] [--predictor tage|"
          "gshare|bimodal]\n        [--max-insts N] [--scale G] "
          "[--iters I] [--jobs N] [--bloom]\n        [--trace] "
          "[--trace-out FILE] [--interval K] [--stats-out FILE] "
          "[--all-stats]\n        [--pipeview-out FILE] "
          "[--view-start-cycle C] [--view-cycles K]\n        "
          "[--profile-out FILE] "
          "[--fast-forward K] [--ckpt-dir DIR] [--warm-bpu]\n        "
          "[--func-tier fast|interp] [--trace-capture FILE] "
          "[--stats-host-time]\n        [--sample-period N "
          "--sample-window K] [--sample-windows-out FILE]\n        "
          "[--log-level error|warn|info|debug] [--log-out FILE]\n        "
          "[--progress-every N] [--metrics-out FILE] [--version]\n        "
          "[--compare] (<workload>... | "
          "--asm <file.s> | --trace-replay FILE | --list)\n";
}

[[noreturn]] void
usage(const char *argv0)
{
    printUsage(std::cerr, argv0);
    std::exit(2);
}

/** Full flag reference for --help (stdout, exit 0 -- not an error). */
[[noreturn]] void
help(const char *argv0)
{
    printUsage(std::cout, argv0);
    std::cout <<
        "\nOptions:\n"
        "  --reuse none|rgid|regint  squash-reuse scheme (default rgid)\n"
        "  --streams N               RGID streams (default 4)\n"
        "  --entries P               squash-log entries/stream (default "
        "64)\n"
        "  --sets S --ways W         Register Integration geometry "
        "(default 64x4)\n"
        "  --predictor tage|gshare|bimodal  branch predictor (default "
        "tage)\n"
        "  --max-insts N             stop after N detailed commits\n"
        "  --scale G --iters I       workload sizing\n"
        "  --jobs N                  worker threads (default: MSSR_JOBS "
        "or hardware concurrency)\n"
        "  --bloom                   Bloom hazard check instead of "
        "re-execute verify\n"
        "  --trace                   record pipeline events (text to "
        "stderr)\n"
        "  --trace-out FILE          write events as Chrome trace_event "
        "JSON (implies --trace)\n"
        "  --interval K              sample interval stats every K "
        "cycles\n"
        "  --pipeview-out FILE       write per-instruction pipeline "
        "lifecycles (with\n"
        "                            squash-reuse lanes) as a Kanata 0004 "
        "log for Konata;\n"
        "                            multi-job runs write "
        "FILE-stem.<i>_<job>.<ext>\n"
        "  --view-start-cycle C      bound --trace-out/--pipeview-out "
        "output to cycles\n"
        "                            [C, C+K); simulated results are "
        "unaffected\n"
        "  --view-cycles K           length of the output window "
        "(K >= 1)\n"
        "  --stats-out FILE          write mssr-stats-v1 JSON (.prom: "
        "Prometheus text)\n"
        "  --profile-out FILE        write mssr-profile-v1 JSON (.folded: "
        "flamegraph lines)\n"
        "  --fast-forward K          functionally emulate the first K "
        "insts, then simulate\n"
        "                            the remainder in detail from the "
        "snapshot\n"
        "  --ckpt-dir DIR            cache fast-forward snapshots in DIR "
        "(mssr-ckpt-v2;\n"
        "                            load on hit, save on miss, corrupt "
        "file exits 2)\n"
        "  --warm-bpu                pre-train the predictor from the "
        "prefix's branches\n"
        "  --func-tier fast|interp   functional tier for fast-forward "
        "prefixes (default\n"
        "                            fast: predecoded basic-block "
        "dispatch; interp: the\n"
        "                            reference interpreter; results are "
        "bit-identical)\n"
        "  --trace-capture FILE      capture the workload's functional "
        "execution (bounded\n"
        "                            by --max-insts) to an mssr-trace-v1 "
        "file; skips\n"
        "                            detailed simulation\n"
        "  --trace-replay FILE       verify and run an mssr-trace-v1 "
        "file on the detailed\n"
        "                            core (replaces <workload>/--asm; "
        "corrupt file exits 2)\n"
        "  --stats-host-time         include ff_host_sec/ff_kips in "
        "--stats-out JSON\n"
        "                            (off by default: keeps stats files "
        "byte-deterministic)\n"
        "  --sample-period N         sampled simulation: checkpoint the "
        "functional run\n"
        "                            every N insts and detail-simulate "
        "only the\n"
        "                            --sample-window insts from each "
        "checkpoint, with\n"
        "                            95% confidence intervals on the "
        "estimates\n"
        "  --sample-window K         detailed instructions per window "
        "(0 < K <= N)\n"
        "  --sample-windows-out FILE write the per-window runs as "
        "mssr-stats-v1 JSON\n"
        "  --log-level LVL           structured-logger threshold: error, "
        "warn, info\n"
        "                            (default) or debug; overrides "
        "MSSR_LOG\n"
        "  --log-out FILE            mirror log records to FILE as JSON "
        "lines\n"
        "  --progress-every N        log batch progress (done/total, ETA, "
        "kips) every\n"
        "                            N seconds\n"
        "  --metrics-out FILE        atomically rewrite FILE as a "
        "Prometheus textfile\n"
        "                            of the live host metrics (heartbeat "
        "+ completion)\n"
        "  --version                 print build provenance and exit 0\n"
        "  --all-stats               dump every counter\n"
        "  --compare                 also run the no-reuse baseline\n"
        "  --asm FILE                assemble and run FILE instead of a "
        "named workload\n"
        "  --list                    list available workloads\n"
        "  --help                    print this reference and exit 0\n"
        "\nExit status: 0 success; 1 runtime failure; 2 bad usage or "
        "invalid input file.\n";
    std::exit(0);
}

/**
 * Strictly parses a numeric flag value; on garbage prints the
 * offending flag and value, then the usage text, and exits non-zero
 * (the seed fed these straight into std::stoul and died with an
 * uncaught std::invalid_argument).
 */
std::uint64_t
numValue(const char *argv0, const std::string &flag, const std::string &v,
         std::uint64_t min_value = 0)
{
    const std::optional<std::uint64_t> parsed = parseU64(v);
    if (!parsed) {
        std::cerr << "mssr_run: invalid value '" << v << "' for " << flag
                  << " (expected an unsigned integer)\n";
        usage(argv0);
    }
    if (*parsed < min_value) {
        std::cerr << "mssr_run: invalid value '" << v << "' for " << flag
                  << " (must be >= " << min_value << ")\n";
        usage(argv0);
    }
    return *parsed;
}

unsigned
u32Value(const char *argv0, const std::string &flag, const std::string &v,
         unsigned min_value = 0)
{
    const std::uint64_t parsed = numValue(argv0, flag, v, min_value);
    if (parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "mssr_run: invalid value '" << v << "' for " << flag
                  << " (out of range)\n";
        usage(argv0);
    }
    return static_cast<unsigned>(parsed);
}

/**
 * Top-level "build_info" provenance block. Constant for a build tree,
 * so stats files from one binary stay byte-identical; like ckpt_hit
 * it is host-side metadata, excluded from cross-build comparisons.
 */
void
writeBuildInfoJson(std::ostream &os)
{
    os << "  \"build_info\": {\"git\": \"" << jsonEscape(buildGitRevision())
       << "\", \"compiler\": \"" << jsonEscape(buildCompiler())
       << "\", \"build_type\": \"" << jsonEscape(buildType()) << "\"},\n";
}

/**
 * Header metadata for one job's mssr-pipeview-v1 file: the same
 * build_info block as the stats schema plus the job's identity and
 * reuse geometry, pre-rendered for PipeView::writeKanata to splice
 * into the header comment.
 */
std::string
pipeviewMetaFields(const BatchJob &job)
{
    std::ostringstream os;
    os << "\"build_info\": {\"git\": \"" << jsonEscape(buildGitRevision())
       << "\", \"compiler\": \"" << jsonEscape(buildCompiler())
       << "\", \"build_type\": \"" << jsonEscape(buildType())
       << "\"}, \"config\": {\"name\": \"" << jsonEscape(job.name)
       << "\", \"scheme\": \"" << toString(job.config.reuseKind)
       << "\", \"streams\": " << job.config.reuse.numStreams
       << ", \"entries\": " << job.config.reuse.squashLogEntriesPerStream
       << ", \"dispatch_width\": " << job.config.core.decodeWidth << "}";
    return os.str();
}

/**
 * Output file for job @p index of @p total. A single job writes
 * exactly the requested FILE; a multi-job batch derives one file per
 * job as "<stem>.<index>_<sanitized job name><ext>" — a pure function
 * of the command line, so names are identical at any --jobs count.
 */
std::string
pipeviewJobFile(const std::string &file, std::size_t index,
                const std::string &name, std::size_t total)
{
    if (total == 1)
        return file;
    const std::filesystem::path p(file);
    std::string safe;
    for (char c : name)
        safe += (std::isalnum(static_cast<unsigned char>(c)) || c == '-' ||
                 c == '_')
                    ? c
                    : '_';
    return (p.parent_path() /
            (p.stem().string() + "." + std::to_string(index) + "_" + safe +
             p.extension().string()))
        .string();
}

/**
 * mssr-stats-v1: one object per executed run carrying the identity
 * (name/scheme/width), the headline numbers, the full CPI stack and
 * reuse funnel, and every scalar counter. tools/mssr_stats consumes
 * this format for tables and baseline-vs-MSSR diffs.
 */
void
writeStatsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
               const std::vector<RunResult> &results, bool host_time)
{
    os.precision(17); // counters round-trip exactly through stod
    os << "{\n  \"schema\": \"mssr-stats-v1\",\n";
    writeBuildInfoJson(os);
    os << "  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const RunResult &r = results[i];
        os << (i ? ",\n    " : "\n    ")
           << "{\"name\": \"" << jsonEscape(jobs[i].name)
           << "\", \"scheme\": \"" << toString(jobs[i].config.reuseKind)
           << "\", \"dispatch_width\": " << r.dispatchWidth
           << ", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
           << ", \"ff_insts\": " << r.ffInsts;
        // Ring-wraparound losses of the run's tracer: a stats consumer
        // can tell how complete the companion --trace-out file is.
        if (jobs[i].config.tracer)
            os << ", \"dropped_events\": "
               << jobs[i].config.tracer->dropped();
        if (host_time) {
            // Opt-in: host-side numbers vary run to run, so default
            // stats files stay byte-identical across hosts and
            // repeats (the documented determinism contract).
            const double ffKips =
                r.ffHostSeconds > 0.0
                    ? static_cast<double>(r.ffInsts) / r.ffHostSeconds /
                          1e3
                    : 0.0;
            os << ", \"ff_host_sec\": " << r.ffHostSeconds
               << ", \"ff_kips\": " << ffKips
               << ", \"host_phases\": {\"warm\": " << r.phases.warm
               << ", \"build\": " << r.phases.build
               << ", \"detail\": " << r.phases.detail
               << ", \"serialize\": " << r.phases.serialize << "}"
               << ", \"peak_rss_kb\": " << r.peakRssKb;
        }
        os << ", \"ipc\": " << r.ipc << ", \"cpi_slots\": ";
        writeJson(os, r.cpi);
        os << ", \"funnel\": ";
        writeJson(os, r.funnel);
        os << ", \"stats\": {";
        bool first = true;
        for (const auto &[key, value] : r.stats.scalars()) {
            os << (first ? "" : ", ") << "\"" << jsonEscape(key)
               << "\": " << value;
            first = false;
        }
        os << "}}";
    }
    os << "\n  ]\n}\n";
}

/**
 * One {"n", "mean", "stderr", "ci95"} estimate object. NaN is not
 * valid JSON, so each field appears only once it is defined: "mean"
 * needs one window, "stderr"/"ci95" need two (a single observation
 * has no spread estimate). Consumers render absent fields as "n/a".
 */
void
writeEstimateJson(std::ostream &os, const SampleEstimate &e)
{
    os << "{\"n\": " << e.n;
    if (e.n >= 1)
        os << ", \"mean\": " << e.mean;
    if (e.n >= 2)
        os << ", \"stderr\": " << e.stdErr << ", \"ci95\": " << e.ci95;
    os << "}";
}

/**
 * Sampled variant of writeStatsJson: the same mssr-stats-v1 run shape
 * (so every existing consumer still parses it), with the merged
 * window totals in the headline fields and a "sampling" object
 * carrying the design point and the per-metric population estimates.
 * ff_insts reports the instructions NOT simulated in detail, so
 * insts + ff_insts == sampling.total_insts. The merged "stats" map is
 * empty: scalar counters mix rates and counts, so pooling them
 * blindly would be wrong -- use --sample-windows-out for the
 * per-window counter sets. scan_host_sec/scan_disk_hits depend on the
 * host and the checkpoint-store state, so like ff_host_sec they are
 * emitted only under --stats-host-time, keeping default sampled
 * stats files byte-deterministic.
 */
void
writeSampledStatsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                      const std::vector<SampledRunResult> &results,
                      bool host_time)
{
    os.precision(17);
    os << "{\n  \"schema\": \"mssr-stats-v1\",\n";
    writeBuildInfoJson(os);
    os << "  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const SampledRunResult &r = results[i];
        os << (i ? ",\n    " : "\n    ")
           << "{\"name\": \"" << jsonEscape(jobs[i].name)
           << "\", \"scheme\": \"" << toString(jobs[i].config.reuseKind)
           << "\", \"dispatch_width\": " << r.dispatchWidth
           << ", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
           << ", \"ff_insts\": " << r.totalInsts - r.insts;
        if (host_time) {
            const double scanKips =
                r.scanHostSeconds > 0.0
                    ? static_cast<double>(r.totalInsts) /
                          r.scanHostSeconds / 1e3
                    : 0.0;
            os << ", \"ff_host_sec\": " << r.scanHostSeconds
               << ", \"ff_kips\": " << scanKips;
        }
        os << ", \"ipc\": " << r.ipc << ", \"cpi_slots\": ";
        writeJson(os, r.cpi);
        os << ", \"funnel\": ";
        writeJson(os, r.funnel);
        os << ", \"stats\": {}, \"sampling\": {\"sample_period\": "
           << r.samplePeriod << ", \"sample_window\": " << r.sampleWindow
           << ", \"windows\": " << r.windows
           << ", \"total_insts\": " << r.totalInsts
           << ", \"halted\": " << (r.halted ? "true" : "false");
        if (host_time)
            os << ", \"scan_host_sec\": " << r.scanHostSeconds
               << ", \"scan_disk_hits\": " << r.scanDiskHits;
        os << ", \"estimates\": {\"ipc\": ";
        writeEstimateJson(os, r.ipcEst);
        os << ", \"reuse_rate\": ";
        writeEstimateJson(os, r.reuseRateEst);
        for (std::size_t c = 0; c < NumCpiCats; ++c) {
            os << ", \"cpi_" << cpiCatKey(static_cast<CpiCat>(c))
               << "\": ";
            writeEstimateJson(os, r.cpiEst[c]);
        }
        os << "}}}";
    }
    os << "\n  ]\n}\n";
}

/**
 * --sample-windows-out: every detailed window as a full mssr-stats-v1
 * run named "<job>#w<i>" (window i's detailed region starts at
 * instruction i x sample_period; the run's own ff_insts records that
 * offset). Same format as writeStatsJson, so mssr_stats and every
 * other consumer work on window files unchanged.
 */
void
writeSampledWindowsJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                        const std::vector<SampledRunResult> &results,
                        bool host_time)
{
    std::vector<BatchJob> windowJobs;
    std::vector<RunResult> windowResults;
    for (std::size_t i = 0; i < results.size(); ++i) {
        for (std::size_t w = 0; w < results[i].windowResults.size(); ++w) {
            BatchJob wj;
            wj.name = jobs[i].name + "#w" + std::to_string(w);
            wj.config = jobs[i].config;
            windowJobs.push_back(std::move(wj));
            windowResults.push_back(results[i].windowResults[w]);
        }
    }
    writeStatsJson(os, windowJobs, windowResults, host_time);
}

/**
 * mssr-profile-v1: one object per executed run carrying the identity
 * and the full per-PC attribution (branch records sorted by PC,
 * reconvergence-point records sorted by PC). tools/mssr_stats
 * consumes this for --annotate/--topn listings and profile diffs.
 */
void
writeProfileJson(std::ostream &os, const std::vector<BatchJob> &jobs,
                 const std::vector<RunResult> &results)
{
    os << "{\n  \"schema\": \"mssr-profile-v1\",\n  \"runs\": [";
    for (std::size_t i = 0; i < results.size(); ++i) {
        os << (i ? ",\n    " : "\n    ")
           << "{\"name\": \"" << jsonEscape(jobs[i].name)
           << "\", \"scheme\": \"" << toString(jobs[i].config.reuseKind)
           << "\", \"dispatch_width\": " << results[i].dispatchWidth
           << ", \"profile\": ";
        writeJson(os, results[i].profile);
        os << "}";
    }
    os << "\n  ]\n}\n";
}

/** Prometheus text exposition of the same numbers (one-shot scrape). */
void
writeStatsProm(std::ostream &os, const std::vector<BatchJob> &jobs,
               const std::vector<RunResult> &results)
{
    os << "# TYPE mssr_cycles gauge\n"
          "# TYPE mssr_insts gauge\n"
          "# TYPE mssr_ipc gauge\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const std::string &run = jobs[i].name;
        os << "mssr_cycles{run=\"" << run << "\"} " << results[i].cycles
           << "\nmssr_insts{run=\"" << run << "\"} " << results[i].insts
           << "\nmssr_ipc{run=\"" << run << "\"} " << results[i].ipc
           << "\n";
    }
    for (std::size_t i = 0; i < results.size(); ++i)
        writePrometheus(os, jobs[i].name, results[i].cpi);
    for (std::size_t i = 0; i < results.size(); ++i)
        writePrometheus(os, jobs[i].name, results[i].funnel);
}

void
printSummary(const std::string &label, const RunResult &r)
{
    std::cout << label << ": " << r.cycles << " cycles, " << r.insts
              << " insts, IPC " << analysis::fixed(r.ipc, 4);
    if (r.stats.has("reuse.success"))
        std::cout << ", reuses " << r.stats.get("reuse.success");
    if (r.stats.has("ri.integrations"))
        std::cout << ", integrations " << r.stats.get("ri.integrations");
    if (r.ffInsts) {
        std::cout << " (+" << r.ffInsts << " ff insts, ckpt "
                  << (r.ckptHit ? "hit" : "miss");
        // Warm-up throughput. Only the group owner paid for the prefix
        // (disk hits and shared-group members carry ~0s), so only it
        // gets a meaningful rate.
        if (r.ffHostSeconds > 0.0 && !r.ckptHit)
            std::cout << ", ff "
                      << analysis::fixed(static_cast<double>(r.ffInsts) /
                                             r.ffHostSeconds / 1e3,
                                         0)
                      << " kips";
        std::cout << ")";
    }
    std::cout << " [" << analysis::fixed(r.hostSeconds, 2) << "s host, "
              << analysis::fixed(r.kips, 0) << " kips]\n";
}

void
printSampledSummary(const std::string &label, const SampledRunResult &r)
{
    std::cout << label << ": sampled " << r.windows << " windows x "
              << r.sampleWindow << " insts (period " << r.samplePeriod
              << "; " << r.insts << " of " << r.totalInsts
              << " insts in detail), IPC " << analysis::fixed(r.ipc, 4);
    if (r.ipcEst.n >= 2)
        std::cout << ", est " << analysis::fixed(r.ipcEst.mean, 4)
                  << " +/- " << analysis::fixed(r.ipcEst.ci95, 4)
                  << " (95% CI, n=" << r.ipcEst.n << ")";
    std::cout << " [" << analysis::fixed(r.hostSeconds, 2)
              << "s detail + " << analysis::fixed(r.scanHostSeconds, 2)
              << "s scan";
    if (r.scanDiskHits)
        std::cout << ", " << r.scanDiskHits << " store hit"
                  << (r.scanDiskHits == 1 ? "" : "s");
    std::cout << "]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    SimConfig cfg;
    cfg.reuseKind = ReuseKind::Rgid;
    workloads::WorkloadScale scale = workloads::WorkloadScale::fromEnv();
    std::vector<std::string> workloadNames;
    std::string asmFile;
    std::string traceOutFile;
    std::string pipeviewOutFile;
    std::string statsOutFile;
    std::string profileOutFile;
    std::string ckptDir;
    std::string traceCaptureFile;
    std::string traceReplayFile;
    std::string sampleWindowsOutFile;
    std::string logOutFile;
    std::string metricsOutFile;
    std::uint64_t progressEvery = 0;
    std::uint64_t viewStartCycle = 0;
    std::uint64_t viewCycles = 0;
    bool viewStartSet = false;
    unsigned jobsOverride = 0;
    bool traceOn = false;
    bool allStats = false;
    bool compare = false;
    bool statsHostTime = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--reuse") {
            const std::string v = next();
            if (v == "none")
                cfg.reuseKind = ReuseKind::None;
            else if (v == "rgid")
                cfg.reuseKind = ReuseKind::Rgid;
            else if (v == "regint")
                cfg.reuseKind = ReuseKind::RegInt;
            else
                usage(argv[0]);
        } else if (arg == "--streams") {
            cfg.reuse.numStreams = u32Value(argv[0], arg, next(), 1);
        } else if (arg == "--entries") {
            cfg.reuse.squashLogEntriesPerStream =
                u32Value(argv[0], arg, next(), 1);
            cfg.reuse.wpbEntriesPerStream = std::max(
                1u, cfg.reuse.squashLogEntriesPerStream / 4);
        } else if (arg == "--sets") {
            cfg.regint.sets = u32Value(argv[0], arg, next(), 1);
        } else if (arg == "--ways") {
            cfg.regint.ways = u32Value(argv[0], arg, next(), 1);
        } else if (arg == "--predictor") {
            const std::string v = next();
            if (v == "tage")
                cfg.core.predictor = BranchPredictorKind::TageScL;
            else if (v == "gshare")
                cfg.core.predictor = BranchPredictorKind::Gshare;
            else if (v == "bimodal")
                cfg.core.predictor = BranchPredictorKind::Bimodal;
            else
                usage(argv[0]);
        } else if (arg == "--max-insts") {
            cfg.maxInsts = numValue(argv[0], arg, next());
        } else if (arg == "--fast-forward") {
            cfg.fastForwardInsts = numValue(argv[0], arg, next(), 1);
        } else if (arg == "--ckpt-dir") {
            ckptDir = next();
            if (ckptDir.empty()) {
                std::cerr << "mssr_run: --ckpt-dir needs a non-empty "
                             "directory\n";
                usage(argv[0]);
            }
        } else if (arg == "--warm-bpu") {
            cfg.warmBpu = true;
        } else if (arg == "--func-tier") {
            const std::string v = next();
            if (v == "fast")
                cfg.funcTier = FuncTier::Fast;
            else if (v == "interp")
                cfg.funcTier = FuncTier::Interpreter;
            else {
                std::cerr << "mssr_run: invalid value '" << v
                          << "' for --func-tier (want fast or interp)\n";
                usage(argv[0]);
            }
        } else if (arg == "--trace-capture") {
            traceCaptureFile = next();
            if (traceCaptureFile.empty()) {
                std::cerr << "mssr_run: --trace-capture needs a non-empty "
                             "file name\n";
                usage(argv[0]);
            }
        } else if (arg == "--trace-replay") {
            traceReplayFile = next();
            if (traceReplayFile.empty()) {
                std::cerr << "mssr_run: --trace-replay needs a non-empty "
                             "file name\n";
                usage(argv[0]);
            }
        } else if (arg == "--stats-host-time") {
            statsHostTime = true;
        } else if (arg == "--sample-period") {
            cfg.samplePeriod = numValue(argv[0], arg, next(), 1);
        } else if (arg == "--sample-window") {
            cfg.sampleWindow = numValue(argv[0], arg, next(), 1);
        } else if (arg == "--sample-windows-out") {
            sampleWindowsOutFile = next();
            if (sampleWindowsOutFile.empty()) {
                std::cerr << "mssr_run: --sample-windows-out needs a "
                             "non-empty file name\n";
                usage(argv[0]);
            }
        } else if (arg == "--log-level") {
            const std::string v = next();
            LogLevel level;
            if (!parseLogLevel(v, level)) {
                std::cerr << "mssr_run: invalid value '" << v
                          << "' for --log-level (want error|warn|info|"
                             "debug)\n";
                usage(argv[0]);
            }
            Logger::global().setLevel(level);
        } else if (arg == "--log-out") {
            logOutFile = next();
            if (logOutFile.empty()) {
                std::cerr << "mssr_run: --log-out needs a non-empty file "
                             "name\n";
                usage(argv[0]);
            }
        } else if (arg == "--progress-every") {
            progressEvery = numValue(argv[0], arg, next());
        } else if (arg == "--metrics-out") {
            metricsOutFile = next();
            if (metricsOutFile.empty()) {
                std::cerr << "mssr_run: --metrics-out needs a non-empty "
                             "file name\n";
                usage(argv[0]);
            }
        } else if (arg == "--version") {
            std::cout << "mssr_run " << buildInfoLine() << "\n";
            return 0;
        } else if (arg == "--scale") {
            scale.graphScale = u32Value(argv[0], arg, next(), 1);
        } else if (arg == "--iters") {
            scale.iterations = u32Value(argv[0], arg, next(), 1);
        } else if (arg == "--jobs") {
            jobsOverride = u32Value(argv[0], arg, next());
        } else if (arg == "--interval") {
            cfg.statsInterval = numValue(argv[0], arg, next());
        } else if (arg == "--stats-out") {
            statsOutFile = next();
        } else if (arg == "--profile-out") {
            profileOutFile = next();
            cfg.profiling = true;
        } else if (arg == "--bloom") {
            cfg.reuse.useBloomFilter = true;
        } else if (arg == "--trace") {
            traceOn = true;
        } else if (arg == "--trace-out") {
            traceOutFile = next();
            traceOn = true;
        } else if (arg == "--pipeview-out") {
            pipeviewOutFile = next();
            if (pipeviewOutFile.empty()) {
                std::cerr << "mssr_run: --pipeview-out needs a non-empty "
                             "file name\n";
                usage(argv[0]);
            }
        } else if (arg == "--view-start-cycle") {
            viewStartCycle = numValue(argv[0], arg, next());
            viewStartSet = true;
        } else if (arg == "--view-cycles") {
            viewCycles = numValue(argv[0], arg, next(), 1);
        } else if (arg == "--all-stats") {
            allStats = true;
        } else if (arg == "--compare") {
            compare = true;
        } else if (arg == "--asm") {
            asmFile = next();
        } else if (arg == "--list") {
            for (const std::string suite : {"spec2006", "spec2017", "gap",
                                            "micro"}) {
                std::cout << suite << ":";
                for (const auto &w : workloads::suiteWorkloads(suite))
                    std::cout << " " << w.name;
                std::cout << "\n";
            }
            return 0;
        } else if (arg == "--help") {
            help(argv[0]);
        } else if (arg[0] == '-') {
            std::cerr << "mssr_run: unknown option '" << arg << "'\n";
            usage(argv[0]);
        } else {
            workloadNames.push_back(arg);
        }
    }
    if (workloadNames.empty() && asmFile.empty() && traceReplayFile.empty())
        usage(argv[0]);
    if (!traceCaptureFile.empty() && !traceReplayFile.empty()) {
        std::cerr << "mssr_run: --trace-capture and --trace-replay are "
                     "mutually exclusive\n";
        usage(argv[0]);
    }
    if (!traceCaptureFile.empty()) {
        // Capture is functional-only: exactly one program, and the
        // detailed-simulation knobs have nothing to act on.
        if (workloadNames.size() + (asmFile.empty() ? 0 : 1) != 1) {
            std::cerr << "mssr_run: --trace-capture records exactly one "
                         "workload (or one --asm file)\n";
            usage(argv[0]);
        }
        if (cfg.fastForwardInsts != 0 || compare) {
            std::cerr << "mssr_run: --trace-capture skips detailed "
                         "simulation; drop "
                      << (compare ? "--compare" : "--fast-forward") << "\n";
            usage(argv[0]);
        }
        if (!pipeviewOutFile.empty()) {
            std::cerr << "mssr_run: --trace-capture skips detailed "
                         "simulation; drop --pipeview-out\n";
            usage(argv[0]);
        }
    }
    if ((viewStartSet || viewCycles != 0) && !traceOn &&
        pipeviewOutFile.empty()) {
        std::cerr << "mssr_run: --view-start-cycle/--view-cycles bound "
                     "--trace-out/--pipeview-out output; add one of "
                     "those flags\n";
        usage(argv[0]);
    }
    if (!traceReplayFile.empty() &&
        (!workloadNames.empty() || !asmFile.empty())) {
        std::cerr << "mssr_run: --trace-replay already names the program; "
                     "drop the workload/--asm arguments\n";
        usage(argv[0]);
    }
    if (cfg.samplePeriod != 0 || cfg.sampleWindow != 0 ||
        !sampleWindowsOutFile.empty()) {
        // Sampled mode owns the whole run shape: it fast-forwards to
        // every window itself, always replays the prefix branches into
        // the predictor, and reports estimates instead of a single
        // exact stream -- so the knobs that assume one contiguous
        // detailed region are rejected up front rather than silently
        // reinterpreted.
        auto reject = [&](const std::string &why) {
            std::cerr << "mssr_run: " << why << "\n";
            usage(argv[0]);
        };
        if (cfg.samplePeriod == 0 || cfg.sampleWindow == 0)
            reject(sampleWindowsOutFile.empty()
                       ? std::string("--sample-period and --sample-window "
                                     "go together")
                       : std::string("--sample-windows-out requires "
                                     "--sample-period and --sample-window"));
        if (cfg.sampleWindow > cfg.samplePeriod)
            reject("--sample-window must be <= --sample-period");
        if (!traceReplayFile.empty())
            reject("--trace-replay streams one fixed execution; sampled "
                   "simulation re-runs the program, drop --sample-*");
        if (!traceCaptureFile.empty())
            reject("--trace-capture skips detailed simulation; drop "
                   "--sample-*");
        if (cfg.fastForwardInsts != 0)
            reject("sampling fast-forwards to each window itself; drop "
                   "--fast-forward");
        if (cfg.statsInterval != 0)
            reject("--interval is not supported inside sampled windows");
        if (traceOn)
            reject("per-window tracing is not supported; drop "
                   "--trace/--trace-out");
        if (!pipeviewOutFile.empty())
            reject("per-window pipeview recording is not supported; drop "
                   "--pipeview-out");
        if (!profileOutFile.empty())
            reject("per-window profiling is not supported; drop "
                   "--profile-out");
        if (cfg.warmBpu)
            reject("sampled windows always warm the predictor from the "
                   "prefix; drop --warm-bpu");
        if (statsOutFile.size() >= 5 &&
            statsOutFile.compare(statsOutFile.size() - 5, 5, ".prom") == 0)
            reject("sampled stats are JSON-only; --stats-out cannot be "
                   "a .prom file");
    }
    if (cfg.fastForwardInsts == 0 && cfg.samplePeriod == 0 &&
        (!ckptDir.empty() || cfg.warmBpu)) {
        std::cerr << "mssr_run: "
                  << (ckptDir.empty()
                          ? "--warm-bpu requires --fast-forward K"
                          : "--ckpt-dir requires --fast-forward K or "
                            "--sample-period N")
                  << "\n";
        usage(argv[0]);
    }

    // The output files must be distinct: the last writer would
    // silently clobber the other's content otherwise. The shared
    // helper covers every pair, --metrics-out/--log-out included.
    if (const auto dup = findDuplicateOutputPath({
            {"--trace-out", &traceOutFile},
            {"--pipeview-out", &pipeviewOutFile},
            {"--stats-out", &statsOutFile},
            {"--profile-out", &profileOutFile},
            {"--trace-capture", &traceCaptureFile},
            {"--sample-windows-out", &sampleWindowsOutFile},
            {"--log-out", &logOutFile},
            {"--metrics-out", &metricsOutFile},
        })) {
        std::cerr << "mssr_run: " << dup->first << " and " << dup->second
                  << " point at the same file (the last writer would "
                     "clobber it)\n";
        return 2;
    }

    if (!logOutFile.empty() && !Logger::global().openJsonl(logOutFile)) {
        std::cerr << "mssr_run: cannot open --log-out file '" << logOutFile
                  << "'\n";
        return 1;
    }

    try {
        // Build every program up front (programs must outlive the batch).
        std::vector<std::string> labels;
        std::vector<isa::Program> programs;
        if (!asmFile.empty()) {
            std::ifstream in(asmFile);
            if (!in)
                fatal("cannot open '", asmFile, "'");
            std::ostringstream text;
            text << in.rdbuf();
            labels.push_back(asmFile);
            programs.push_back(isa::assembleProgram(text.str()));
        }
        for (const auto &name : workloadNames) {
            labels.push_back(name);
            programs.push_back(workloads::buildWorkload(name, scale));
        }
        if (!traceReplayFile.empty()) {
            // Trace errors (bad magic, CRC, hash mismatch, inconsistent
            // dynamic stream) are input-validation failures: name the
            // file class, exit 2.
            try {
                TraceReplaySource replay(traceReplayFile);
                replay.verify();
                labels.push_back(replay.trace().name.empty()
                                     ? traceReplayFile
                                     : replay.trace().name);
                programs.push_back(replay.program());
                std::cerr << "trace: replaying " << labels.back() << " ("
                          << replay.trace().instsExecuted << " insts, "
                          << replay.trace().controls.size()
                          << " controls) from " << traceReplayFile << "\n";
            } catch (const SerializeError &e) {
                std::cerr << "mssr_run: trace error: " << e.what() << "\n";
                return 2;
            }
        }

        if (!traceCaptureFile.empty()) {
            // Capture-only mode: run the fast functional tier, write the
            // mssr-trace-v1 file, and skip detailed simulation entirely.
            try {
                const auto t0 = std::chrono::steady_clock::now();
                const ExecTrace trace =
                    captureTrace(programs[0], cfg.maxInsts, labels[0]);
                const std::chrono::duration<double> elapsed =
                    std::chrono::steady_clock::now() - t0;
                writeTrace(traceCaptureFile, trace);
                std::cout << labels[0] << ": captured "
                          << trace.instsExecuted << " insts, "
                          << trace.controls.size() << " controls to "
                          << traceCaptureFile;
                if (elapsed.count() > 0.0)
                    std::cout << " ["
                              << analysis::fixed(elapsed.count(), 2)
                              << "s host, "
                              << analysis::fixed(
                                     static_cast<double>(
                                         trace.instsExecuted) /
                                         elapsed.count() / 1e3,
                                     0)
                              << " kips]";
                std::cout << "\n";
                return 0;
            } catch (const SerializeError &e) {
                std::cerr << "mssr_run: trace error: " << e.what() << "\n";
                return 2;
            }
        }

        // One job per program, plus its baseline when comparing. Each
        // job records into its own tracer, so tracing no longer forces
        // sequential execution.
        std::deque<Tracer> tracers; // stable addresses across push_back
        std::deque<PipeView> pipeviews;
        std::vector<BatchJob> jobs;
        const bool viewWindowed = viewStartSet || viewCycles != 0;
        const Cycle viewEnd = viewCycles != 0
                                  ? viewStartCycle + viewCycles
                                  : ~Cycle(0);
        auto addJob = [&](std::string label, const isa::Program *prog,
                          SimConfig job_cfg) {
            if (traceOn) {
                tracers.emplace_back();
                if (viewWindowed)
                    tracers.back().setWindow(viewStartCycle, viewEnd);
                job_cfg.tracer = &tracers.back();
            }
            if (!pipeviewOutFile.empty()) {
                pipeviews.emplace_back();
                if (viewWindowed)
                    pipeviews.back().setWindow(viewStartCycle, viewEnd);
                job_cfg.pipeview = &pipeviews.back();
            }
            jobs.push_back({std::move(label), prog, job_cfg, {}});
        };
        for (std::size_t i = 0; i < programs.size(); ++i) {
            addJob(labels[i], &programs[i], cfg);
            if (compare) {
                SimConfig baseCfg = baselineConfig(cfg.maxInsts);
                baseCfg.statsInterval = cfg.statsInterval;
                baseCfg.profiling = cfg.profiling;
                // Same region as the MSSR run -- and the same (program,
                // K) warm-up group, so the pair shares one functional
                // prefix through the BatchRunner cache.
                baseCfg.fastForwardInsts = cfg.fastForwardInsts;
                baseCfg.warmBpu = cfg.warmBpu;
                // Sampled compare: same (program, period, bound) key,
                // so the pair shares one functional scan too.
                baseCfg.samplePeriod = cfg.samplePeriod;
                baseCfg.sampleWindow = cfg.sampleWindow;
                baseCfg.funcTier = cfg.funcTier;
                addJob(labels[i] + "/baseline", &programs[i], baseCfg);
            }
        }
        BatchRunner runner(jobsOverride);
        if (!ckptDir.empty()) {
            std::filesystem::create_directories(ckptDir);
            runner.setCheckpointDir(ckptDir);
        }
        runner.setProgressEvery(static_cast<double>(progressEvery));
        runner.setMetricsOut(metricsOutFile);
        runner.setProgressLabel("mssr_run");

        if (cfg.samplePeriod != 0) {
            // Sampled mode: one functional scan per program drops
            // periodic checkpoints, the detailed windows fan out
            // across the pool, and the merge happens in window order
            // -- results are byte-identical at any --jobs count.
            const std::vector<SampledRunResult> sampled =
                runner.runSampled(jobs);
            if (!statsOutFile.empty()) {
                std::ofstream out(statsOutFile);
                if (!out)
                    fatal("cannot write stats file '", statsOutFile, "'");
                writeSampledStatsJson(out, jobs, sampled, statsHostTime);
                std::cerr << "stats: wrote " << sampled.size()
                          << " sampled run"
                          << (sampled.size() == 1 ? "" : "s") << " to "
                          << statsOutFile << " (json)\n";
            }
            if (!sampleWindowsOutFile.empty()) {
                std::ofstream out(sampleWindowsOutFile);
                if (!out)
                    fatal("cannot write window stats file '",
                          sampleWindowsOutFile, "'");
                writeSampledWindowsJson(out, jobs, sampled, statsHostTime);
                std::size_t windows = 0;
                for (const SampledRunResult &r : sampled)
                    windows += r.windowResults.size();
                std::cerr << "stats: wrote " << windows
                          << " window runs to " << sampleWindowsOutFile
                          << " (json)\n";
            }
            std::size_t point = 0;
            for (std::size_t i = 0; i < programs.size(); ++i) {
                if (programs.size() > 1)
                    std::cout << "== " << labels[i] << " ==\n";
                const SampledRunResult &r = sampled[point++];
                printSampledSummary(toString(cfg.reuseKind), r);
                if (compare) {
                    const SampledRunResult &base = sampled[point++];
                    printSampledSummary("none", base);
                    std::cout << "IPC improvement: "
                              << analysis::percent(
                                     base.ipc > 0.0
                                         ? (r.ipc - base.ipc) / base.ipc
                                         : 0.0)
                              << "\n";
                }
                // --all-stats is a no-op here: the merged counter map
                // is intentionally empty (see writeSampledStatsJson).
            }
            return 0;
        }

        const std::vector<RunResult> results = runner.run(jobs);

        if (!statsOutFile.empty()) {
            std::ofstream out(statsOutFile);
            if (!out)
                fatal("cannot write stats file '", statsOutFile, "'");
            const bool prom =
                statsOutFile.size() >= 5 &&
                statsOutFile.compare(statsOutFile.size() - 5, 5, ".prom") ==
                    0;
            if (prom)
                writeStatsProm(out, jobs, results);
            else
                writeStatsJson(out, jobs, results, statsHostTime);
            std::cerr << "stats: wrote " << results.size() << " run"
                      << (results.size() == 1 ? "" : "s") << " to "
                      << statsOutFile << (prom ? " (prometheus)" : " (json)")
                      << "\n";
        }

        if (!profileOutFile.empty()) {
            std::ofstream out(profileOutFile);
            if (!out)
                fatal("cannot write profile file '", profileOutFile, "'");
            const bool folded =
                profileOutFile.size() >= 7 &&
                profileOutFile.compare(profileOutFile.size() - 7, 7,
                                       ".folded") == 0;
            if (folded) {
                // Single-run files match the documented 3-frame line
                // format; multi-run files get a run-name root frame.
                for (std::size_t i = 0; i < results.size(); ++i)
                    writeFolded(out, results[i].profile,
                                results.size() > 1 ? jobs[i].name
                                                   : std::string());
            } else {
                writeProfileJson(out, jobs, results);
            }
            std::cerr << "profile: wrote " << results.size() << " run"
                      << (results.size() == 1 ? "" : "s") << " to "
                      << profileOutFile << (folded ? " (folded)" : " (json)")
                      << "\n";
        }

        if (traceOn) {
            std::vector<std::pair<std::string, const Tracer *>> streams;
            for (const BatchJob &job : jobs)
                streams.emplace_back(job.name, job.config.tracer);
            if (!traceOutFile.empty()) {
                std::ofstream out(traceOutFile);
                if (!out)
                    fatal("cannot write trace file '", traceOutFile, "'");
                writeChromeJson(out, streams);
                std::uint64_t events = 0;
                for (const Tracer &t : tracers)
                    events += t.size();
                std::cerr << "trace: wrote " << events << " events to "
                          << traceOutFile << "\n";
            } else {
                for (const auto &[name, tracer] : streams) {
                    std::cerr << "=== trace: " << name << " ===\n";
                    tracer->writeText(std::cerr);
                }
            }
        }

        if (!pipeviewOutFile.empty()) {
            for (std::size_t i = 0; i < jobs.size(); ++i) {
                const std::string file = pipeviewJobFile(
                    pipeviewOutFile, i, jobs[i].name, jobs.size());
                std::ofstream out(file);
                if (!out)
                    fatal("cannot write pipeview file '", file, "'");
                const PipeView &view = *jobs[i].config.pipeview;
                view.writeKanata(out, pipeviewMetaFields(jobs[i]));
                std::cerr << "pipeview: wrote " << view.numRecords()
                          << " instruction record"
                          << (view.numRecords() == 1 ? "" : "s") << " to "
                          << file << "\n";
            }
        }

        std::size_t point = 0;
        for (std::size_t i = 0; i < programs.size(); ++i) {
            if (programs.size() > 1)
                std::cout << "== " << labels[i] << " ==\n";
            const RunResult &r = results[point++];
            printSummary(toString(cfg.reuseKind), r);
            if (compare) {
                const RunResult &base = results[point++];
                printSummary("none", base);
                std::cout << "IPC improvement: "
                          << analysis::percent(r.ipcImprovementOver(base))
                          << "\n";
            }
            if (allStats)
                r.stats.dump(std::cout);
        }
        return 0;
    } catch (const SerializeError &e) {
        // Corrupt/stale/mismatched checkpoint file: an input-validation
        // failure with a clear diagnostic, same exit class as bad usage.
        std::cerr << "mssr_run: checkpoint error: " << e.what() << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        return 1;
    }
}
