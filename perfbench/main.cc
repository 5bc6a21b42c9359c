/**
 * @file
 * mssr_perfbench: the simulator's benchmark driver.
 *
 * One process per run. It builds every program of the chosen workload
 * with workloads::buildWorkload from the --seed it is given, prepares a
 * FastEmu oracle per program, then submits the workload's closed batch
 * (every job up front; the batch ends when the last job finishes)
 * through BatchRunner::run or BatchRunner::runSampled, again and again
 * until --seconds have passed. Every job's output is checked; failures
 * are counted, never fatal. It prints a human-readable report followed
 * by one JSON line with the metrics:
 *
 *   --trace 0  the end-to-end metrics (wall time, throughput, per-job
 *              CPU time, set-up CPU time, memory, simulated IPC gain);
 *   --trace 1  the per-layer metrics: batches alternate untraced and
 *              traced (spans around every job, reported phases as
 *              children), then each layer is replayed on its own over
 *              the workload's programs. The spans are written as Chrome
 *              trace JSON at exit; the tracing overhead is the traced
 *              batches' median wall time against the untraced ones'.
 *
 * --make-reference FILE --reference-seeds A-B instead runs the sampled
 * workload's jobs in full detail for each seed and writes the IPC
 * reference that sampled_ipc_err_pct is measured against.
 *
 * Usage: mssr_perfbench --workload NAME [--seed N] [--seconds S]
 *                       [--trace 0|1] [--out DIR] [--ref FILE]
 */

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/argparse.hh"
#include "common/build_info.hh"
#include "driver/batch_runner.hh"
#include "driver/sampled_runner.hh"
#include "layers.hh"
#include "sim/fast_emu.hh"
#include "sim/memory.hh"
#include "spans.hh"
#include "workloads/registry.hh"

using namespace mssr;
using perfbench::SpanRecorder;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** CPU seconds the calling thread has used. Unlike the wall clock, it
 *  does not count time the thread waits for a CPU, so other load on the
 *  machine does not inflate it. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ------------------------------------------------------------ workloads

/** One simulator configuration of a workload, with its report label. */
struct ConfigSpec
{
    std::string label;
    SimConfig cfg;
};

ConfigSpec
noneConfig()
{
    return {"none", baselineConfig()};
}

/** Figure-10 notation: streams x WPB fetch blocks, log = 4 x WPB. */
ConfigSpec
rgid(unsigned streams, unsigned wpb)
{
    SimConfig cfg = baselineConfig();
    cfg.reuseKind = ReuseKind::Rgid;
    cfg.reuse.numStreams = streams;
    cfg.reuse.wpbEntriesPerStream = wpb;
    cfg.reuse.squashLogEntriesPerStream = 4 * wpb;
    return {"rgid-" + std::to_string(streams) + "x" + std::to_string(wpb),
            cfg};
}

ConfigSpec
regint(unsigned sets, unsigned ways)
{
    return {"regint-" + std::to_string(sets) + "x" + std::to_string(ways),
            regIntConfig(sets, ways)};
}

struct WorkloadSpec
{
    std::string name;
    std::vector<std::string> programs;
    unsigned graphScale = 10;
    unsigned iterations = 4000;
    std::vector<ConfigSpec> configs; //!< configs[0] is always "none"
    std::uint64_t samplePeriod = 0;  //!< 0 = full detail
    std::uint64_t sampleWindow = 0;

    bool sampled() const { return samplePeriod != 0; }
};

std::vector<WorkloadSpec>
allWorkloads()
{
    std::vector<WorkloadSpec> out;

    // The SPEC2006/2017-like and GAP programs in full detail at the
    // paper's reuse sizes. mcf17/omnetpp17 build the same programs as
    // mcf/omnetpp (equal Program::hash), so they appear once.
    WorkloadSpec grid;
    grid.name = "detail_grid";
    grid.programs = {"gobmk", "astar",   "mcf",   "omnetpp", "sjeng",
                     "leela", "xz",      "deepsjeng", "exchange2",
                     "bc",    "bfs",     "cc",    "pr",      "sssp",
                     "tc"};
    grid.graphScale = 8;
    grid.iterations = 500;
    grid.configs = {noneConfig(), rgid(1, 16), rgid(1, 64), rgid(2, 64),
                    rgid(4, 64), regint(64, 4)};
    out.push_back(grid);

    // Mispredict-heavy programs up the stream x log ladder to the
    // Figure-10 upper bound, plus larger Register Integration tables.
    WorkloadSpec deep;
    deep.name = "reuse_deep";
    deep.programs = {"gobmk", "sjeng", "deepsjeng",      "astar",
                     "xz",    "leela", "bc",             "sssp",
                     "nested-mispred", "linear-mispred"};
    deep.graphScale = 8;
    deep.iterations = 500;
    deep.configs = {noneConfig()};
    for (const unsigned s : {1u, 2u, 4u})
        for (const unsigned w : {64u, 256u})
            deep.configs.push_back(rgid(s, w));
    deep.configs.push_back(rgid(4, 1024));
    deep.configs.push_back(regint(128, 4));
    deep.configs.push_back(regint(64, 8));
    out.push_back(deep);

    // The reuse_deep ladder with the Bloom hazard check in place of
    // load re-execution. Not part of the measured set: in this mode the
    // detailed core's final state disagrees with the oracle on some
    // seeds (xz on seeds 2, 4 and 8 of 0-8), so runs of it report
    // failed jobs until that defect is fixed.
    WorkloadSpec bloom = deep;
    bloom.name = "reuse_bloom";
    bloom.configs = {noneConfig()};
    for (const ConfigSpec &c : deep.configs) {
        if (c.cfg.reuseKind != ReuseKind::Rgid)
            continue;
        ConfigSpec b = c;
        b.label += "-bloom";
        b.cfg.reuse.useBloomFilter = true;
        bloom.configs.push_back(b);
    }
    out.push_back(bloom);

    // SMARTS-style sampling at the paper's -g 12.
    WorkloadSpec samp;
    samp.name = "sampled_g12";
    samp.programs = {"bc",    "bfs",   "cc",      "pr",  "sssp",
                     "tc",    "astar", "leela",   "omnetpp", "mcf"};
    samp.graphScale = 12;
    samp.iterations = 30000;
    samp.configs = {noneConfig(), rgid(4, 64), regint(64, 4)};
    samp.samplePeriod = 200000;
    samp.sampleWindow = 4000;
    out.push_back(samp);
    return out;
}

// ------------------------------------------------------------ reference

/** Key of one full-detail IPC reference entry. */
using RefKey = std::tuple<std::uint64_t, std::string, std::string>;

struct RefEntry
{
    std::uint64_t programHash = 0;
    double ipc = 0.0;
};

constexpr const char *RefHeader = "# mssr-perfbench-ref-v1";

/** Parses a reference file; false when it is unreadable or malformed. */
bool
loadReference(const std::string &path, std::map<RefKey, RefEntry> &out)
{
    std::ifstream is(path);
    if (!is)
        return false;
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ls(line);
        std::uint64_t seed = 0;
        std::string program, config, hash;
        double ipc = 0.0;
        if (!(ls >> seed >> program >> config >> hash >> ipc))
            return false;
        char *end = nullptr;
        errno = 0;
        const std::uint64_t h = std::strtoull(hash.c_str(), &end, 16);
        if (hash.empty() || *end != '\0' || errno == ERANGE)
            return false;
        out[{seed, program, config}] = {h, ipc};
    }
    return true;
}

// ------------------------------------------------------------ set-up

struct Oracle
{
    std::array<RegVal, NumArchRegs> regs{};
    std::uint64_t instret = 0;
    bool halted = false;
};

/** Everything a run needs before its first batch. */
struct Prepared
{
    std::vector<isa::Program> programs;
    std::vector<Oracle> oracles;
    double buildSeconds = 0.0; //!< summed buildWorkload time
    /** Per (program, config): the reference IPC, NaN when the seed has
     *  no reference; `refStale` marks entries whose stamp is missing
     *  or does not match the program. Sampled workloads only. */
    std::vector<double> refIpc;
    std::vector<bool> refStale;
    bool refReadable = false;
    bool refSeedKnown = false;
};

Prepared
prepare(const WorkloadSpec &spec, std::uint64_t seed,
        const std::string &refPath, SpanRecorder *spans,
        std::uint32_t parent)
{
    workloads::WorkloadScale scale;
    scale.graphScale = spec.graphScale;
    scale.iterations = spec.iterations;
    scale.seed = seed;

    Prepared p;
    for (const std::string &name : spec.programs) {
        const double s0 = spans ? spans->now() : 0.0;
        const auto t0 = Clock::now();
        p.programs.push_back(workloads::buildWorkload(name, scale));
        p.buildSeconds += secondsSince(t0);
        if (spans)
            spans->add("workloads.build", s0, spans->now(), parent);
    }
    for (const isa::Program &prog : p.programs) {
        const double s0 = spans ? spans->now() : 0.0;
        Memory mem;
        FastEmu emu(prog, mem);
        Oracle o;
        o.instret = emu.run();
        o.halted = emu.halted();
        o.regs = emu.regs();
        p.oracles.push_back(o);
        if (spans)
            spans->add("sim.oracle", s0, spans->now(), parent);
    }
    if (spec.sampled()) {
        std::map<RefKey, RefEntry> ref;
        p.refReadable = loadReference(refPath, ref);
        for (const auto &[key, entry] : ref)
            p.refSeedKnown |= std::get<0>(key) == seed;
        for (std::size_t i = 0; i < p.programs.size(); ++i) {
            for (const ConfigSpec &c : spec.configs) {
                const auto it = ref.find({seed, spec.programs[i], c.label});
                const bool found = it != ref.end();
                const bool stale =
                    !p.refReadable || (p.refSeedKnown &&
                                  (!found || it->second.programHash !=
                                                 p.programs[i].hash()));
                p.refStale.push_back(stale);
                p.refIpc.push_back(found && !stale
                                       ? it->second.ipc
                                       : std::nan(""));
            }
        }
    }
    return p;
}

/**
 * The batch in submission order: config-major, so job j runs program
 * j % programs under config j / programs. Interleaving the programs
 * keeps one program's jobs from running side by side, so the peak
 * memory of a batch does not hinge on how many copies of the largest
 * program (mcf) happen to overlap.
 */
std::vector<BatchJob>
makeJobs(const WorkloadSpec &spec, const Prepared &prep, bool sampled)
{
    std::vector<BatchJob> jobs;
    for (const ConfigSpec &c : spec.configs) {
        for (std::size_t i = 0; i < prep.programs.size(); ++i) {
            BatchJob job;
            job.name = spec.programs[i] + "/" + c.label;
            job.program = &prep.programs[i];
            job.config = c.cfg;
            if (sampled) {
                job.config.samplePeriod = spec.samplePeriod;
                job.config.sampleWindow = spec.sampleWindow;
            }
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

/** Windows a sampled run of @p o must produce. */
std::uint64_t
expectedWindows(const Oracle &o, std::uint64_t period)
{
    return o.instret == 0 ? 1 : 1 + (o.instret - 1) / period;
}

// ------------------------------------------------------------ digests

/** FNV-1a 64 over 64-bit words. */
struct Fnv
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
};

void
hashRun(Fnv &f, Cycle cycles, std::uint64_t insts, const CpiStack &cpi,
        const ReuseFunnel &fun)
{
    f.add(cycles);
    f.add(insts);
    for (const std::uint64_t s : cpi.slots)
        f.add(s);
    for (const std::uint64_t v :
         {fun.squashed, fun.logged, fun.covered, fun.tested, fun.rgidPass,
          fun.hazardPass, fun.reused, fun.killKind, fun.killNotExecuted,
          fun.killRgid, fun.killRgidCapacity, fun.killBloom, fun.verifyOk,
          fun.verifyFail})
        f.add(v);
}

// ------------------------------------------------------------ batches

/** Sums over one batch's simulated events (deterministic). */
struct SimTotals
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double condMispredicts = 0.0;
    double l1dMisses = 0.0;
    double l2Misses = 0.0;
    std::uint64_t starvedSlots = 0;
    std::uint64_t slots = 0;
    std::uint64_t rgidSquashed = 0;
    std::uint64_t rgidReused = 0;
    std::uint64_t rgidVerifyFail = 0;

    void
    add(const RunResult &r, ReuseKind kind)
    {
        insts += r.insts;
        cycles += r.cycles;
        condMispredicts += r.stats.get("core.condMispredictsCommitted");
        l1dMisses += r.stats.get("l1d.misses");
        l2Misses += r.stats.get("l2.misses");
        starvedSlots += r.cpi[CpiCat::FrontendStarved];
        slots += r.cpi.total();
        if (kind == ReuseKind::Rgid) {
            rgidSquashed += r.funnel.squashed;
            rgidReused += r.funnel.reused;
            rgidVerifyFail += r.funnel.verifyFail;
        }
    }
};

/** Host-side phase sums of one batch. */
struct HostTotals
{
    double warm = 0.0;
    double build = 0.0;
    double detail = 0.0;
    double scan = 0.0;
    std::uint64_t scanInsts = 0;

    void
    add(const RunResult &r)
    {
        warm += r.phases.warm;
        build += r.phases.build;
        detail += r.phases.detail;
    }
};

struct BatchRecord
{
    bool warmup = false; //!< checked, but excluded from the timings
    bool traced = false;
    double wall = 0.0;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<double> jobCpu; //!< CPU s per job; sampled: per window
    std::vector<double> jobKips;
    std::vector<std::uint64_t> jobHashes;
    std::uint64_t digest = 0;
    SimTotals sim;
    HostTotals host;
    double ipcGainPct = std::nan(""); //!< mean over reuse jobs
    double reuseHostDelta = 0.0;      //!< mean rgid - paired none (s)
    double riHostDelta = 0.0;         //!< mean regint - paired none (s)
    double sampledErrPct = std::nan("");
    double sampledCi95Pct = std::nan("");
    // Traced batches only.
    double tailIdle = 0.0;
    double parallelEff = 0.0;
};

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return std::nan("");
    double s = 0.0;
    for (const double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

/** Quantile @p q of @p xs by linear interpolation (NaN when empty). */
double
quantile(std::vector<double> xs, double q)
{
    if (xs.empty())
        return std::nan("");
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double
median(const std::vector<double> &xs)
{
    return quantile(xs, 0.5);
}

/**
 * Per-job CPU time. The completion hook runs on the worker right after
 * its job, so a job's CPU time is what that thread used since its
 * previous job ended, or since it started (pool threads are new in
 * every batch). With one worker the jobs run on the calling thread,
 * which is therefore read when the batch starts.
 */
struct JobCpuClock
{
    std::mutex mutex; //!< guards last and seconds
    std::map<std::thread::id, double> last;
    std::vector<double> seconds;

    JobCpuClock() { last[std::this_thread::get_id()] = threadCpuSeconds(); }

    void
    jobDone()
    {
        const double now = threadCpuSeconds();
        std::lock_guard<std::mutex> lock(mutex);
        double &prev = last[std::this_thread::get_id()];
        seconds.push_back(now - prev);
        prev = now;
    }
};

/** Per-worker completion tracking of a traced batch. */
struct WorkerLanes
{
    std::mutex mutex; //!< guards lanes and lastEnd
    std::map<std::thread::id, unsigned> lanes;
    std::vector<double> lastEnd;

    unsigned
    laneFor(std::thread::id id, double end)
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto [it, fresh] =
            lanes.try_emplace(id, static_cast<unsigned>(lanes.size() + 1));
        if (fresh)
            lastEnd.push_back(end);
        lastEnd[it->second - 1] = std::max(lastEnd[it->second - 1], end);
        return it->second;
    }
};

struct BatchContext
{
    const WorkloadSpec &spec;
    const Prepared &prep;
    const std::vector<BatchJob> &jobs;
    unsigned workers;
    std::string ckptDir; //!< sampled runs: emptied before every batch
};

/**
 * Runs one closed batch and checks every output. The completion hook
 * takes every job's (sampled: every window's) CPU time; with @p spans
 * set it also closes a span per job, with the job's reported phases as
 * children.
 */
BatchRecord
runBatch(const BatchContext &ctx, SpanRecorder *spans, std::uint32_t parent,
         std::uint64_t &nextJobId)
{
    const WorkloadSpec &spec = ctx.spec;
    const std::size_t nconf = spec.configs.size();
    const std::size_t nprog = spec.programs.size();
    BatchRecord rec;
    rec.traced = spans != nullptr;
    rec.attempted = ctx.jobs.size();
    // Hand the previous batch's freed heap back to the kernel, so the
    // peak RSS is that of one batch and not of how the allocator's
    // per-thread arenas happened to fragment over earlier batches.
    malloc_trim(0);

    BatchRunner runner(ctx.workers);
    if (spec.sampled()) {
        std::filesystem::remove_all(ctx.ckptDir);
        std::filesystem::create_directories(ctx.ckptDir);
        runner.setCheckpointDir(ctx.ckptDir);
    }

    // A sampled batch completes windows, so there each window is a job.
    // Traced batches: one span per job, closed by the completion hook.
    JobCpuClock cpu;
    std::uint32_t batchSpan = 0;
    WorkerLanes lanes;
    const std::uint64_t jobIdBase = nextJobId;
    if (spans)
        batchSpan = spans->open("driver.batch", parent);
    runner.setJobDone([&](std::size_t idx, const RunResult &r) {
        cpu.jobDone();
        if (spans) {
            const double end = spans->now();
            const unsigned lane =
                lanes.laneFor(std::this_thread::get_id(), end);
            const double start =
                end - r.hostSeconds - r.phases.serialize;
            const std::uint64_t job = jobIdBase + idx;
            const std::uint32_t id = spans->add("driver.job", start, end,
                                                batchSpan, job, lane);
            double t = start;
            for (const auto &[name, dur] :
                 {std::pair{"sim.warm", r.phases.warm},
                  std::pair{"core.build", r.phases.build},
                  std::pair{"core.detail", r.phases.detail},
                  std::pair{"driver.serialize", r.phases.serialize}}) {
                spans->add(name, t, t + dur, id, job, lane);
                t += dur;
            }
        }
    });

    const double spanStart = spans ? spans->now() : 0.0;
    const auto t0 = Clock::now();
    std::vector<RunResult> full;
    std::vector<SampledRunResult> sampled;
    try {
        if (spec.sampled())
            sampled = runner.runSampled(ctx.jobs);
        else
            full = runner.run(ctx.jobs);
    } catch (const std::exception &e) {
        rec.wall = secondsSince(t0);
        rec.failed = rec.attempted;
        std::cerr << "perfbench: batch failed: " << e.what() << "\n";
        if (spans)
            spans->close(batchSpan);
        return rec;
    }
    rec.wall = secondsSince(t0);
    rec.jobCpu = std::move(cpu.seconds);

    std::vector<double> gains, reuseDeltas, riDeltas, errs, cis;
    Fnv digest;
    std::uint64_t windowJobs = 0;
    double jobHostSum = 0.0;
    for (std::size_t j = 0; j < ctx.jobs.size(); ++j) {
        const std::size_t p = j % nprog;
        const std::size_t c = j / nprog;
        const ReuseKind kind = spec.configs[c].cfg.reuseKind;
        const Oracle &oracle = ctx.prep.oracles[p];
        Fnv jh;
        bool ok = true;
        double ipc = 0.0;
        double host = 0.0;
        if (!spec.sampled()) {
            const RunResult &r = full[j];
            ok = r.halted && r.insts == oracle.instret &&
                 r.archRegs == oracle.regs &&
                 r.cpi.total() == r.cycles * r.dispatchWidth;
            hashRun(jh, r.cycles, r.insts, r.cpi, r.funnel);
            rec.sim.add(r, kind);
            rec.host.add(r);
            rec.jobKips.push_back(r.kips);
            ipc = r.ipc;
            host = r.hostSeconds;
        } else {
            const SampledRunResult &s = sampled[j];
            ok = s.halted && s.totalInsts == oracle.instret &&
                 s.windows == expectedWindows(oracle, spec.samplePeriod) &&
                 s.windowResults.size() == s.windows &&
                 s.cpi.total() == s.cycles * s.dispatchWidth &&
                 std::isfinite(s.ipcEst.mean) && std::isfinite(s.ipcEst.ci95);
            hashRun(jh, s.cycles, s.insts, s.cpi, s.funnel);
            jh.add(s.windows);
            jh.add(s.totalInsts);
            for (const RunResult &w : s.windowResults) {
                hashRun(jh, w.cycles, w.insts, w.cpi, w.funnel);
                rec.sim.add(w, kind);
                rec.host.add(w);
                rec.jobKips.push_back(w.kips);
            }
            rec.host.scan += s.scanHostSeconds;
            if (s.scanHostSeconds > 0.0)
                rec.host.scanInsts += s.totalInsts;
            windowJobs += s.windows;
            ipc = s.ipcEst.mean;
            host = s.hostSeconds;
            const std::size_t k = p * nconf + c;
            if (ctx.prep.refStale[k])
                ok = false;
            else if (std::isfinite(ctx.prep.refIpc[k]))
                errs.push_back(std::fabs(ipc - ctx.prep.refIpc[k]) /
                               ctx.prep.refIpc[k] * 100.0);
            cis.push_back(s.ipcEst.ci95 / s.ipcEst.mean * 100.0);
        }
        if (!ok) {
            ++rec.failed;
            std::cerr << "perfbench: job " << ctx.jobs[j].name
                      << " failed its output check\n";
        }
        rec.jobHashes.push_back(jh.h);
        digest.add(jh.h);
        jobHostSum += host;

        // Pair each reuse job with its program's "none" job.
        const std::size_t base = p; // configs[0] is "none"
        if (c != 0) {
            const double baseIpc = spec.sampled()
                                       ? sampled[base].ipcEst.mean
                                       : full[base].ipc;
            const double baseHost = spec.sampled()
                                        ? sampled[base].hostSeconds
                                        : full[base].hostSeconds;
            gains.push_back((ipc / baseIpc - 1.0) * 100.0);
            (kind == ReuseKind::Rgid ? reuseDeltas : riDeltas)
                .push_back(host - baseHost);
        }
    }
    rec.digest = digest.h;
    rec.ipcGainPct = mean(gains);
    rec.reuseHostDelta = reuseDeltas.empty() ? 0.0 : mean(reuseDeltas);
    rec.riHostDelta = riDeltas.empty() ? 0.0 : mean(riDeltas);
    rec.sampledErrPct = mean(errs);
    rec.sampledCi95Pct = mean(cis);

    if (spans) {
        spans->close(batchSpan);
        // The functional scans run first, one after another, on the
        // calling thread; each owner job reports its scan's duration.
        double t = spanStart;
        for (const SampledRunResult &s : sampled) {
            if (s.scanHostSeconds > 0.0) {
                spans->add("sim.scan", t, t + s.scanHostSeconds, batchSpan);
                t += s.scanHostSeconds;
            }
        }
        const double end = spanStart + rec.wall;
        for (unsigned w = 0; w < ctx.workers; ++w)
            rec.tailIdle += w < lanes.lastEnd.size()
                                ? std::max(0.0, end - lanes.lastEnd[w])
                                : rec.wall;
        rec.parallelEff = jobHostSum / (rec.wall * ctx.workers);
        nextJobId += spec.sampled() ? windowJobs : ctx.jobs.size();
    }
    return rec;
}

// ------------------------------------------------------------ reporting

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    std::string note;
};

void
printReport(const std::vector<Metric> &ms)
{
    for (const Metric &m : ms) {
        char buf[160];
        std::snprintf(buf, sizeof buf, "  %-28s %16.6g %-8s", m.name.c_str(),
                      m.value, m.unit.c_str());
        std::cout << buf << (m.note.empty() ? "" : " " + m.note) << "\n";
    }
}

/** The machine-readable last line. A metric that could not be measured
 *  (non-finite) is written as null and makes the run incorrect. */
void
printJson(std::uint64_t attempted, std::uint64_t failed,
          const std::vector<Metric> &metrics)
{
    const bool finite =
        std::all_of(metrics.begin(), metrics.end(),
                    [](const Metric &m) { return std::isfinite(m.value); });
    std::cout << "{\"correct\": "
              << (failed == 0 && finite ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char buf[64] = "null";
        if (std::isfinite(metrics[i].value))
            std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << buf << ", \"unit\": \""
                  << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string outDir = ".bench_build/perfbench-out";
    std::string refPath = "perfbench/sampled_g12.ref";
    std::string makeReference;
    std::vector<std::uint64_t> referenceSeeds;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mssr_perfbench: " << why << "\n"
              << "usage: mssr_perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1]\n"
                 "                      [--out DIR] [--ref FILE]\n"
                 "       mssr_perfbench --workload sampled_g12 "
                 "--make-reference FILE --reference-seeds A-B[,C...]\n";
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string val = argv[++i];
        const auto number = [&](std::uint64_t lo, std::uint64_t hi) {
            const auto n = parseU64(val);
            if (!n || *n < lo || *n > hi)
                usage("bad value for " + flag + ": '" + val + "'");
            return *n;
        };
        if (flag == "--workload") {
            o.workload = val;
        } else if (flag == "--seed") {
            o.seed = number(0, ~0ull);
        } else if (flag == "--seconds") {
            o.seconds = static_cast<double>(number(1, 3600));
        } else if (flag == "--trace") {
            o.trace = number(0, 1) == 1;
        } else if (flag == "--out") {
            o.outDir = val;
        } else if (flag == "--ref") {
            o.refPath = val;
        } else if (flag == "--make-reference") {
            o.makeReference = val;
        } else if (flag == "--reference-seeds") {
            // Comma-separated seeds and inclusive A-B ranges.
            std::istringstream parts(val);
            std::string part;
            while (std::getline(parts, part, ',')) {
                const auto dash = part.find('-');
                const auto a = parseU64(part.substr(0, dash));
                const auto b = dash == std::string::npos
                                   ? a
                                   : parseU64(part.substr(dash + 1));
                if (!a || !b || *a > *b || *b - *a >= 100000)
                    usage("bad --reference-seeds '" + val + "'");
                for (std::uint64_t s = *a; s <= *b; ++s)
                    o.referenceSeeds.push_back(s);
            }
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (o.workload.empty())
        usage("--workload is required");
    return o;
}

/** Reference mode: full-detail IPC of every sampled job, per seed. */
int
makeReference(const WorkloadSpec &spec, const Options &opt,
              unsigned workers)
{
    if (!spec.sampled() || opt.referenceSeeds.empty())
        usage("--make-reference needs a sampled workload and "
              "--reference-seeds");
    std::ostringstream os;
    os << RefHeader << ": full-detail IPC of the " << spec.name
       << " jobs (graph scale " << spec.graphScale << ", iterations "
       << spec.iterations << ").\n"
       << "# Written by: python3 perfbench/run.py --workload " << spec.name
       << " --make-reference FILE --reference-seeds A-B[,C...]\n"
       << "# seed program config program_hash ipc\n";
    BatchRunner runner(workers);
    for (const std::uint64_t seed : opt.referenceSeeds) {
        const auto t0 = Clock::now();
        const Prepared prep = prepare(spec, seed, "", nullptr, 0);
        const std::vector<BatchJob> jobs = makeJobs(spec, prep, false);
        const std::vector<RunResult> rs = runner.run(jobs);
        for (std::size_t j = 0; j < jobs.size(); ++j) {
            const std::size_t p = j % spec.programs.size();
            const Oracle &o = prep.oracles[p];
            if (!rs[j].halted || rs[j].insts != o.instret ||
                rs[j].archRegs != o.regs) {
                std::cerr << "perfbench: reference job " << jobs[j].name
                          << " (seed " << seed
                          << ") does not match its oracle\n";
                return 1;
            }
            char line[256];
            std::snprintf(line, sizeof line, "%llu %s %s %016llx %.17g\n",
                          static_cast<unsigned long long>(seed),
                          spec.programs[p].c_str(),
                          spec.configs[j / spec.programs.size()].label.c_str(),
                          static_cast<unsigned long long>(
                              prep.programs[p].hash()),
                          rs[j].ipc);
            os << line;
        }
        std::cerr << "perfbench: reference seed " << seed << " done in "
                  << secondsSince(t0) << " s\n";
    }
    const std::string tmp = opt.makeReference + ".tmp";
    {
        std::ofstream f(tmp);
        f << os.str();
        if (!f)
            usage("cannot write " + tmp);
    }
    std::filesystem::rename(tmp, opt.makeReference);
    return 0;
}

/** Medians of a field over a set of batch records. */
template <typename F>
double
medianOf(const std::vector<const BatchRecord *> &recs, F field)
{
    std::vector<double> xs;
    for (const BatchRecord *r : recs)
        xs.push_back(field(*r));
    return median(xs);
}

/** Set-up is repeated at least this often and for at least this
 *  long; setup_s is the median repetition. */
constexpr std::size_t SetupMinReps = 5;
constexpr double SetupMinSeconds = 1.0;

/** True when two set-ups built the same programs and oracles. */
bool
samePrepared(const Prepared &a, const Prepared &b)
{
    if (a.programs.size() != b.programs.size())
        return false;
    for (std::size_t i = 0; i < a.programs.size(); ++i)
        if (a.programs[i].hash() != b.programs[i].hash() ||
            a.oracles[i].instret != b.oracles[i].instret ||
            a.oracles[i].regs != b.oracles[i].regs)
            return false;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const std::vector<WorkloadSpec> specs = allWorkloads();
    const auto specIt =
        std::find_if(specs.begin(), specs.end(),
                     [&](const WorkloadSpec &s) { return s.name == opt.workload; });
    if (specIt == specs.end())
        usage("unknown workload '" + opt.workload + "'");
    const WorkloadSpec &spec = *specIt;
    const unsigned workers = nproc();

    if (!opt.makeReference.empty())
        return makeReference(spec, opt, workers);

    SpanRecorder spans;
    SpanRecorder *tr = opt.trace ? &spans : nullptr;
    const std::uint32_t root = tr ? spans.open("perfbench.run", 0) : 0;

    // Set-up, repeated: program build plus oracle and reference prep,
    // timed in CPU seconds of this thread. Every repetition must build
    // the same programs and oracles as the first, which the run keeps.
    std::vector<double> setupTimes;
    std::vector<double> buildTimes;
    std::uint64_t setupMismatches = 0;
    const auto setUp = [&] {
        const std::uint32_t s = tr ? spans.open("perfbench.setup", root) : 0;
        const double c0 = threadCpuSeconds();
        Prepared p = prepare(spec, opt.seed, opt.refPath, tr, s);
        setupTimes.push_back(threadCpuSeconds() - c0);
        buildTimes.push_back(p.buildSeconds);
        if (tr)
            spans.close(s);
        return p;
    };
    const auto setup0 = Clock::now();
    const Prepared prep = setUp();
    while (setupTimes.size() < SetupMinReps ||
           secondsSince(setup0) < SetupMinSeconds) {
        if (!samePrepared(setUp(), prep)) {
            ++setupMismatches;
            std::cerr << "perfbench: a repeated set-up built other "
                         "programs\n";
        }
    }
    const std::vector<BatchJob> jobs = makeJobs(spec, prep, spec.sampled());
    const BatchContext ctx{spec, prep, jobs, workers, opt.outDir + "/ckpt"};

    // One warm-up batch (caches, allocator and page tables settle),
    // then closed batches back to back until the time is up. In a
    // traced run measured batches alternate untraced / traced.
    std::vector<BatchRecord> batches;
    std::uint64_t nextJobId = 1;
    const std::uint32_t measure = tr ? spans.open("perfbench.measure", root) : 0;
    const double w0 = tr ? spans.now() : 0.0;
    batches.push_back(runBatch(ctx, nullptr, measure, nextJobId));
    batches.back().warmup = true;
    if (tr)
        spans.add("untraced.batch", w0, spans.now(), measure);
    const auto m0 = Clock::now();
    do {
        const bool traced = tr && batches.size() % 2 == 0;
        const double s0 = tr ? spans.now() : 0.0;
        batches.push_back(
            runBatch(ctx, traced ? tr : nullptr, measure, nextJobId));
        // Untraced batches of a traced run get one span of their own
        // layer, so their time is not counted as benchmark self time.
        if (tr && !traced)
            spans.add("untraced.batch", s0, spans.now(), measure);
    } while (secondsSince(m0) < opt.seconds ||
             (tr && batches.size() < 3));
    if (tr)
        spans.close(measure);
    std::filesystem::remove_all(ctx.ckptDir);

    std::uint64_t attempted = 0, failed = setupMismatches;
    for (const BatchRecord &b : batches) {
        attempted += b.attempted;
        failed += b.failed;
        // Determinism: every batch must reproduce the first one exactly.
        if (b.failed == 0 && batches[0].failed == 0 &&
            b.jobHashes != batches[0].jobHashes) {
            for (std::size_t j = 0; j < b.jobHashes.size(); ++j)
                failed += b.jobHashes[j] != batches[0].jobHashes[j];
            std::cerr << "perfbench: batch digest drifted within the run\n";
        }
    }
    failed = std::min(failed, attempted);

    std::vector<const BatchRecord *> untraced, traced;
    for (const BatchRecord &b : batches)
        if (!b.warmup)
            (b.traced ? traced : untraced).push_back(&b);
    const BatchRecord &first = batches[0];

    std::printf("perfbench %s seed=%llu workers=%u jobs/batch=%zu "
                "batches=%zu build=%s\n",
                spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
                workers, jobs.size(), batches.size(), buildInfoLine());
    std::printf("  digest %016llx\n",
                static_cast<unsigned long long>(first.digest));
    std::printf("  batch wall s:");
    for (const BatchRecord &b : batches)
        std::printf(" %.3f%s", b.wall, b.warmup ? "w" : b.traced ? "t" : "");
    std::printf("\n");

    // Simulated metrics: identical in every batch (checked above).
    std::vector<Metric> simulated = {
        {"sim_ipc_gain_pct", first.ipcGainPct, "%",
         "(simulated; mean over reuse jobs vs their none job)"},
        {"failed_frac",
         static_cast<double>(failed) / static_cast<double>(attempted),
         "ratio",
         "(" + std::to_string(failed) + "/" + std::to_string(attempted) +
             " jobs)"}};
    if (spec.sampled()) {
        simulated.push_back({"sampled_ci95_pct", first.sampledCi95Pct, "%",
                             "(mean relative 95% CI half-width)"});
        if (std::isfinite(first.sampledErrPct))
            simulated.push_back({"sampled_ipc_err_pct", first.sampledErrPct,
                                 "%", "(vs committed full-detail reference)"});
        else if (!prep.refReadable)
            std::printf("  %-28s %16s          (cannot read %s)\n",
                        "sampled_ipc_err_pct", "n/a", opt.refPath.c_str());
        else if (!prep.refSeedKnown)
            std::printf("  %-28s %16s          (no reference for seed %llu)\n",
                        "sampled_ipc_err_pct", "n/a",
                        static_cast<unsigned long long>(opt.seed));
        else
            std::printf("  %-28s %16s          (stale reference)\n",
                        "sampled_ipc_err_pct", "n/a");
    }

    if (!opt.trace) {
        std::vector<double> hosts;
        std::uint64_t insts = 0;
        double wall = 0.0;
        for (const BatchRecord *b : untraced) {
            hosts.insert(hosts.end(), b->jobCpu.begin(), b->jobCpu.end());
            insts += b->sim.insts;
            wall += b->wall;
        }
        const std::string n = "(n=" + std::to_string(hosts.size()) + ")";
        const std::vector<Metric> e2e = {
            {"setup_s", median(setupTimes), "s",
             "(median of " + std::to_string(setupTimes.size()) + ")"},
            {"wall_s", medianOf(untraced, [](auto &b) { return b.wall; }),
             "s", "(median batch)"},
            {"kips", static_cast<double>(insts) / wall / 1e3, "kips", ""},
            {"job_host_s_p50", quantile(hosts, 0.5), "s", n},
            {"job_host_s_p90", quantile(hosts, 0.9), "s", n},
            {"peak_rss_mb", peakRssMb(), "MB", ""}};
        printReport(e2e);
        printReport(simulated);
        printJson(attempted, failed, e2e);
        return 0;
    }

    // Traced run: per-layer replays, then the per-layer metrics.
    const std::uint32_t rs = spans.open("perfbench.replay", root);
    perfbench::LayerReplay replay;
    try {
        replay = perfbench::replayLayers(prep.programs, opt.outDir + "/replay",
                                         spans, rs);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: layer replay failed: " << e.what() << "\n";
        ++failed;
    }
    failed += replay.ckptMismatches;
    spans.close(rs);
    spans.close(root);

    const auto med = [&](auto field) { return medianOf(traced, field); };
    std::vector<double> kips;
    for (const BatchRecord *b : traced)
        kips.insert(kips.end(), b->jobKips.begin(), b->jobKips.end());
    const SimTotals &st = first.sim;
    const double kinsts = static_cast<double>(st.insts) / 1e3;
    const double untracedWall =
        medianOf(untraced, [](auto &b) { return b.wall; });
    const std::vector<Metric> layers = {
        {"workloads.build_s", median(buildTimes), "s", ""},
        {"driver.parallel_eff", med([](auto &b) { return b.parallelEff; }),
         "ratio", ""},
        {"driver.tail_idle_s", med([](auto &b) { return b.tailIdle; }), "s",
         ""},
        {"core.detail_s", med([](auto &b) { return b.host.detail; }), "s", ""},
        {"core.build_s", med([](auto &b) { return b.host.build; }), "s", ""},
        {"core.host_ns_per_cycle",
         med([](auto &b) {
             return b.host.detail / static_cast<double>(b.sim.cycles) * 1e9;
         }),
         "ns", ""},
        {"core.kips_p50", median(kips), "kips", ""},
        {"sim.warm_s", med([](auto &b) { return b.host.warm; }), "s", ""},
        {"sim.scan_s", med([](auto &b) { return b.host.scan; }), "s", ""},
        {"sim.scan_kips",
         med([](auto &b) {
             return b.host.scan > 0.0
                        ? static_cast<double>(b.host.scanInsts) /
                              b.host.scan / 1e3
                        : 0.0;
         }),
         "kips", ""},
        {"sim.fastemu_kips",
         static_cast<double>(replay.emuInsts) / replay.emuSeconds / 1e3,
         "kips", ""},
        {"sim.ckpt_write_s", replay.ckptWriteSeconds, "s", ""},
        {"sim.ckpt_read_s", replay.ckptReadSeconds, "s", ""},
        {"sim.ckpt_mb", replay.ckptBytes / 1e6, "MB", ""},
        {"sim.sampled_ci95_pct",
         spec.sampled() ? first.sampledCi95Pct : 0.0, "%", "(simulated)"},
        {"bpu.tage_ns_per_branch",
         replay.tageSeconds / static_cast<double>(replay.branches) * 1e9, "ns",
         "(" + std::to_string(replay.branches) + " branches)"},
        {"bpu.mispredicts_pki", st.condMispredicts / kinsts, "1/kinst",
         "(simulated)"},
        {"memsys.ns_per_access",
         replay.memSeconds / static_cast<double>(replay.memAccesses) * 1e9,
         "ns", "(" + std::to_string(replay.memAccesses) + " accesses)"},
        {"memsys.l1d_mpki", st.l1dMisses / kinsts, "1/kinst", "(simulated)"},
        {"memsys.l2_mpki", st.l2Misses / kinsts, "1/kinst", "(simulated)"},
        {"reuse.host_s_delta", med([](auto &b) { return b.reuseHostDelta; }),
         "s", "(mean rgid job - its none job)"},
        {"reuse.funnel_yield",
         st.rgidSquashed ? static_cast<double>(st.rgidReused) /
                               static_cast<double>(st.rgidSquashed)
                         : 0.0,
         "ratio", "(simulated)"},
        {"reuse.verify_fail", static_cast<double>(st.rgidVerifyFail), "count",
         "(simulated)"},
        {"ri.host_s_delta", med([](auto &b) { return b.riHostDelta; }), "s",
         "(mean regint job - its none job)"},
        {"frontend.starved_slot_frac",
         static_cast<double>(st.starvedSlots) / static_cast<double>(st.slots),
         "ratio", "(simulated)"},
        {"trace.overhead_pct",
         (med([](auto &b) { return b.wall; }) / untracedWall - 1.0) * 100.0,
         "%", "(traced vs untraced batch wall)"},
    };
    printReport(layers);
    printReport(simulated);
    std::printf("  layer self time (s):");
    for (const auto &[layer, self] : spans.layerSelfSeconds())
        std::printf(" %s=%.4f", layer.c_str(), self);
    std::printf("\n");

    const std::string spanFile = opt.outDir + "/spans-" + spec.name +
                                 "-seed" + std::to_string(opt.seed) + ".json";
    try {
        std::filesystem::create_directories(opt.outDir);
        spans.writeChromeJson(spanFile);
        std::printf("  spans: %zu written to %s\n", spans.spans().size(),
                    spanFile.c_str());
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        ++failed;
    }
    attempted += 1; // the layer replay
    printJson(attempted, std::min(failed, attempted), layers);
    return 0;
}
