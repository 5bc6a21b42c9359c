/**
 * Sampled-simulation accuracy-vs-speed sweep: for the paper's fig10
 * (4 streams x 64 WPB) and fig11 (8 streams x 16 WPB) configurations
 * on a cross-suite workload subset, runs full-detail ground truth and
 * the SMARTS-style sampled engine side by side and reports, per
 * point: the sampled IPC estimate with its 95% confidence interval,
 * the estimate error against the full-detail IPC, whether the truth
 * falls inside the CI, and the wall-clock speedup of sampling
 * (full detail time / (window detail time + functional scan time)).
 *
 * Knobs (beyond the usual MSSR_SCALE/MSSR_ITERS/MSSR_JOBS):
 *   MSSR_SAMPLE_PERIOD  insts between checkpoints (default 50000)
 *   MSSR_SAMPLE_WINDOW  detailed insts per window (default 4000)
 *
 * With --json / MSSR_JSON set, writes BENCH_batch.json with one
 * record per (workload, config) point carrying all of the above, so
 * the accuracy/speedup contract is machine-checkable.
 */

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "bench_common.hh"
#include "common/argparse.hh"
#include "common/build_info.hh"
#include "common/mini_json.hh"
#include "driver/sampled_runner.hh"

using namespace mssr;
using namespace mssr::analysis;

namespace
{

/** Conditional-field estimate JSON, same contract as mssr_run. */
void
writeEstimate(std::ostream &os, const SampleEstimate &e)
{
    os << "{\"n\": " << e.n;
    if (e.n >= 1)
        os << ", \"mean\": " << e.mean;
    if (e.n >= 2)
        os << ", \"stderr\": " << e.stdErr << ", \"ci95\": " << e.ci95;
    os << "}";
}

struct Point
{
    std::string name;
    double fullIpc = 0.0;
    double fullHostSec = 0.0;
    SampledRunResult sampled;

    double
    sampledHostSec() const
    {
        return sampled.hostSeconds + sampled.scanHostSeconds;
    }

    double
    speedup() const
    {
        return sampledHostSec() > 0.0 ? fullHostSec / sampledHostSec()
                                      : 0.0;
    }

    bool covered() const { return sampled.ipcEst.covers(fullIpc); }
};

} // namespace

int
main(int argc, char **argv)
{
    bool json = std::getenv("MSSR_JSON") != nullptr;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--json")
            json = true;

    const std::uint64_t period = envU64("MSSR_SAMPLE_PERIOD", 50000);
    const std::uint64_t window = envU64("MSSR_SAMPLE_WINDOW", 4000);

    // One representative per suite keeps the sweep minutes-scale while
    // still crossing workload structures (search, game tree, graph).
    const std::vector<std::string> names = {"astar", "leela", "bc", "cc"};
    bench::WorkloadSet set(names);

    banner(std::cout, "Sampled simulation: accuracy vs speed");
    bench::printScale(set);
    std::cout << "[sampling: period " << period << ", window " << window
              << "; override with MSSR_SAMPLE_PERIOD / "
                 "MSSR_SAMPLE_WINDOW]\n";

    struct Config
    {
        const char *label;
        unsigned streams, wpb, log;
    };
    const Config configs[] = {
        {"fig10/4x64", 4, 64, 256},
        {"fig11/8x16", 8, 16, 64},
    };

    BatchRunner runner;
    const auto wall0 = std::chrono::steady_clock::now();

    // Full-detail ground truth first, as one batch, so both sides of
    // the comparison go through the same pool.
    std::vector<BatchJob> fullJobs;
    for (const auto &c : configs) {
        for (const auto &name : names) {
            SimConfig cfg;
            cfg.reuseKind = ReuseKind::Rgid;
            cfg.reuse.numStreams = c.streams;
            cfg.reuse.wpbEntriesPerStream = c.wpb;
            cfg.reuse.squashLogEntriesPerStream = c.log;
            fullJobs.push_back({std::string(c.label) + "/" + name,
                                &set.program(name), cfg,
                                {}});
        }
    }
    const std::vector<RunResult> fullResults = runner.run(fullJobs);

    // The same grid, sampled.
    std::vector<BatchJob> sampledJobs = fullJobs;
    for (BatchJob &job : sampledJobs) {
        job.config.samplePeriod = period;
        job.config.sampleWindow = window;
    }
    std::vector<SampledRunResult> sampledResults =
        runner.runSampled(sampledJobs);

    std::vector<Point> points;
    for (std::size_t i = 0; i < fullJobs.size(); ++i) {
        Point p;
        p.name = fullJobs[i].name;
        p.fullIpc = fullResults[i].ipc;
        p.fullHostSec = fullResults[i].hostSeconds;
        p.sampled = std::move(sampledResults[i]);
        points.push_back(std::move(p));
    }
    const std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - wall0;

    Table table({"point", "full IPC", "est IPC", "+/-95%", "n", "error",
                 "in CI", "speedup"});
    std::size_t coveredCount = 0;
    for (const Point &p : points) {
        const SampleEstimate &e = p.sampled.ipcEst;
        coveredCount += p.covered() ? 1 : 0;
        table.addRow(
            {p.name, fixed(p.fullIpc, 4), fixed(e.mean, 4),
             fixed(e.ci95, 4), std::to_string(e.n),
             p.fullIpc > 0.0 && !std::isnan(e.mean)
                 ? percent(e.mean / p.fullIpc - 1.0)
                 : std::string("n/a"),
             p.covered() ? "yes" : "NO",
             fixed(p.speedup(), 1) + "x"});
    }
    table.print(std::cout);
    std::cout << "\n" << coveredCount << "/" << points.size()
              << " points bracket the full-detail IPC within the 95% "
                 "CI\n";

    if (json) {
        std::ofstream os("BENCH_batch.json");
        os.precision(17);
        os << "{\n  \"bench\": \"sampled_accuracy\",\n  \"threads\": "
           << runner.threads()
           << ",\n  \"build_info\": {\"git\": \""
           << jsonEscape(buildGitRevision()) << "\", \"compiler\": \""
           << jsonEscape(buildCompiler()) << "\", \"build_type\": \""
           << jsonEscape(buildType()) << "\"}"
           << ",\n  \"sample_period\": " << period
           << ",\n  \"sample_window\": " << window
           << ",\n  \"jobs\": " << points.size() * 2
           << ",\n  \"wall_sec\": " << wall.count()
           << ",\n  \"results\": [";
        for (std::size_t i = 0; i < points.size(); ++i) {
            const Point &p = points[i];
            os << (i ? ",\n    " : "\n    ") << "{\"name\": \""
               << jsonEscape(p.name)
               << "\", \"full_ipc\": " << p.fullIpc
               << ", \"full_host_sec\": " << p.fullHostSec
               << ", \"sampled_ipc\": " << p.sampled.ipc
               << ", \"windows\": " << p.sampled.windows
               << ", \"total_insts\": " << p.sampled.totalInsts
               << ", \"detail_host_sec\": " << p.sampled.hostSeconds
               << ", \"scan_host_sec\": " << p.sampled.scanHostSeconds
               << ", \"speedup\": " << p.speedup()
               << ", \"covered\": " << (p.covered() ? "true" : "false")
               << ", \"ipc_estimate\": ";
            writeEstimate(os, p.sampled.ipcEst);
            os << "}";
        }
        os << "\n  ]\n}\n";
        logInfo("bench", "wrote BENCH_batch.json: ", points.size(),
                " sampled-accuracy points");
    }
    return 0;
}
