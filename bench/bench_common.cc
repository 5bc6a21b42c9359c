#include "bench_common.hh"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>

#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/log.hh"
#include "common/mini_json.hh"
#include "common/thread_pool.hh"

namespace mssr::bench
{

std::vector<std::string>
allWorkloadNames()
{
    return suiteWorkloadNames({"spec2006", "spec2017", "gap", "micro"});
}

std::vector<std::string>
suiteWorkloadNames(const std::vector<std::string> &suites)
{
    std::vector<std::string> names;
    for (const auto &suite : suites)
        for (const auto &w : workloads::suiteWorkloads(suite))
            names.push_back(w.name);
    return names;
}

WorkloadSet::WorkloadSet(const std::vector<std::string> &names)
    : scale_(workloads::WorkloadScale::fromEnv())
{
    for (const auto &name : names)
        if (programs_.emplace(name, isa::Program{}).second)
            names_.push_back(name);

    // Fill the pre-inserted slots in parallel: the map is not mutated
    // after this point, and each task writes a distinct value.
    ThreadPool pool(BatchRunner::defaultThreads());
    for (const auto &name : names_) {
        pool.submit([this, &name] {
            programs_.at(name) = workloads::buildWorkload(name, scale_);
        });
    }
    pool.wait();
}

const isa::Program &
WorkloadSet::program(const std::string &name) const
{
    auto it = programs_.find(name);
    if (it == programs_.end())
        fatal("workload '", name, "' not in this WorkloadSet");
    return it->second;
}

const RunResult &
WorkloadSet::baseline(const std::string &name) const
{
    auto it = baselines_.find(name);
    if (it == baselines_.end())
        fatal("no pre-built baseline for '", name,
              "' (Harness constructed with Baselines::None?)");
    return it->second;
}

bool
WorkloadSet::hasBaseline(const std::string &name) const
{
    return baselines_.find(name) != baselines_.end();
}

void
WorkloadSet::storeBaseline(const std::string &name, RunResult result)
{
    baselines_[name] = std::move(result);
}

RunResult
WorkloadSet::run(const std::string &name, const SimConfig &cfg) const
{
    return runSim(program(name), cfg);
}

Harness::Harness(int argc, char **argv, std::string benchName,
                 const std::vector<std::string> &names,
                 Baselines baselines)
    : benchName_(std::move(benchName)), set_(names)
{
    // MSSR_JSON predates the boolean contract: an empty value still
    // means "on" (legacy presence semantics); any other value follows
    // the strict 0/1/true/false contract.
    if (const char *s = std::getenv("MSSR_JSON"))
        json_ = std::string(s).empty() || envFlag("MSSR_JSON");
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--json")
            json_ = true;
    }
    statsInterval_ = envU64("MSSR_INTERVAL", 0);
    profile_ = envFlag("MSSR_PROFILE");
    fastForward_ = envU64("MSSR_FF", 0);
    runner_.setProgressEvery(
        static_cast<double>(envU64("MSSR_PROGRESS_EVERY", 0)));
    if (const char *s = std::getenv("MSSR_METRICS_OUT"))
        runner_.setMetricsOut(s);
    runner_.setProgressLabel(benchName_);
    if (const char *s = std::getenv("MSSR_FUNC_TIER")) {
        const std::string v = s;
        if (v == "fast")
            funcTier_ = FuncTier::Fast;
        else if (v == "interp")
            funcTier_ = FuncTier::Interpreter;
        else
            warn("ignoring invalid MSSR_FUNC_TIER='", s,
                 "' (want fast or interp); using fast");
    }

    if (baselines == Baselines::Build) {
        std::vector<BatchJob> jobs;
        for (const auto &name : set_.names())
            jobs.push_back(job("baseline/" + name, name, baselineConfig()));
        std::vector<RunResult> results = runBatch(jobs);
        for (std::size_t i = 0; i < results.size(); ++i)
            set_.storeBaseline(set_.names()[i], std::move(results[i]));
    }
}

Harness::~Harness()
{
    logInfo("bench", "batch: ", records_.size(), " jobs on ", threads(),
            " threads, ", wallSeconds_, " s wall");
    if (json_)
        writeJson();
}

BatchJob
Harness::job(const std::string &label, const std::string &workload,
             const SimConfig &cfg) const
{
    BatchJob j;
    j.name = label;
    j.program = &set_.program(workload);
    j.config = cfg;
    if (statsInterval_ != 0)
        j.config.statsInterval = statsInterval_;
    if (profile_)
        j.config.profiling = true;
    if (fastForward_ != 0)
        j.config.fastForwardInsts = fastForward_;
    j.config.funcTier = funcTier_;
    return j;
}

namespace
{

/**
 * Hottest branches of @p profile by total recovery slots (PC-ascending
 * tie-break, so the JSON stays deterministic). Empty when profiling
 * was off.
 */
std::vector<BranchRecord>
topBranches(const PcProfile &profile, std::size_t n)
{
    std::vector<BranchRecord> branches;
    for (const BranchRecord *b : profile.branches().sortedByPc())
        branches.push_back(*b);
    std::sort(branches.begin(), branches.end(),
              [](const BranchRecord &a, const BranchRecord &b) {
                  const auto ra = a.branchRecoverySlots + a.flushRecoverySlots;
                  const auto rb = b.branchRecoverySlots + b.flushRecoverySlots;
                  if (ra != rb)
                      return ra > rb;
                  return a.pc < b.pc;
              });
    if (branches.size() > n)
        branches.resize(n);
    return branches;
}

} // namespace

std::vector<RunResult>
Harness::runBatch(const std::vector<BatchJob> &jobs)
{
    const auto start = std::chrono::steady_clock::now();
    std::vector<RunResult> results = runner_.run(jobs);
    wallSeconds_ +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const double ffKips =
            results[i].ffHostSeconds > 0.0
                ? static_cast<double>(results[i].ffInsts) /
                      results[i].ffHostSeconds / 1e3
                : 0.0;
        records_.push_back({jobs[i].name, results[i].cycles,
                            results[i].insts, results[i].ipc,
                            results[i].hostSeconds, results[i].kips,
                            results[i].dispatchWidth, results[i].ffInsts,
                            results[i].ckptHit, results[i].ffHostSeconds,
                            ffKips, results[i].phases,
                            results[i].peakRssKb, results[i].cpi,
                            results[i].funnel, results[i].intervals,
                            topBranches(results[i].profile, 5)});
    }
    return results;
}

void
Harness::writeJson() const
{
    const char *path = "BENCH_batch.json";
    std::ofstream os(path);
    if (!os) {
        warn("cannot write ", path);
        return;
    }
    os << "{\n";
    os << "  \"bench\": \"" << jsonEscape(benchName_) << "\",\n";
    os << "  \"threads\": " << threads() << ",\n";
    os << "  \"func_tier\": \"" << toString(funcTier_) << "\",\n";
    os << "  \"build_info\": {\"git\": \"" << jsonEscape(buildGitRevision())
       << "\", \"compiler\": \"" << jsonEscape(buildCompiler())
       << "\", \"build_type\": \"" << jsonEscape(buildType()) << "\"},\n";
    os << "  \"jobs\": " << records_.size() << ",\n";
    os << "  \"wall_sec\": " << wallSeconds_ << ",\n";
    os << "  \"results\": [";
    for (std::size_t i = 0; i < records_.size(); ++i) {
        const Record &r = records_[i];
        os << (i ? ",\n    " : "\n    ");
        os << "{\"name\": \"" << jsonEscape(r.name)
           << "\", \"cycles\": " << r.cycles << ", \"insts\": " << r.insts
           << ", \"ipc\": " << r.ipc
           << ", \"host_sec\": " << r.hostSec << ", \"kips\": " << r.kips
           << ", \"dispatch_width\": " << r.dispatchWidth
           << ", \"ff_insts\": " << r.ffInsts
           << ", \"ckpt_hit\": " << (r.ckptHit ? "true" : "false")
           << ", \"ff_host_sec\": " << r.ffHostSec
           << ", \"ff_kips\": " << r.ffKips
           << ", \"phase_warm_sec\": " << r.phases.warm
           << ", \"phase_build_sec\": " << r.phases.build
           << ", \"phase_detail_sec\": " << r.phases.detail
           << ", \"phase_serialize_sec\": " << r.phases.serialize
           << ", \"peak_rss_kb\": " << r.peakRssKb
           << ", \"cpi\": ";
        mssr::writeJson(os, r.cpi);
        os << ", \"funnel\": ";
        mssr::writeJson(os, r.funnel);
        os << ", \"intervals\": [";
        for (std::size_t k = 0; k < r.intervals.size(); ++k) {
            const IntervalSample &s = r.intervals[k];
            os << (k ? ", " : "")
               << "{\"cycle_end\": " << s.cycleEnd
               << ", \"cycles\": " << s.cycles
               << ", \"commits\": " << s.commits
               << ", \"squashed_insts\": " << s.squashedInsts
               << ", \"squash_events\": " << s.squashEvents
               << ", \"reuse_hits\": " << s.reuseHits
               << ", \"ipc\": " << s.ipc
               << ", \"wpb_occ\": " << s.wpbOccupancy
               << ", \"slog_occ\": " << s.squashLogOccupancy
               << ", \"cpi\": ";
            mssr::writeJson(os, CpiStack{s.cpiSlots});
            os << "}";
        }
        os << "], \"profile_top\": [";
        for (std::size_t k = 0; k < r.profileTop.size(); ++k) {
            const BranchRecord &b = r.profileTop[k];
            os << (k ? ", " : "") << "{\"pc\": \"0x" << std::hex << b.pc
               << std::dec << "\", \"mispredicts\": " << b.mispredicts
               << ", \"squashed_insts\": " << b.squashedInsts
               << ", \"recovery_slots\": "
               << b.branchRecoverySlots + b.flushRecoverySlots
               << ", \"reused\": " << b.reused << "}";
        }
        os << "]}";
    }
    os << "\n  ]\n}\n";
    logInfo("bench", "wrote ", path);
}

} // namespace mssr::bench
