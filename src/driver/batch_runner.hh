/**
 * @file
 * BatchRunner: parallel execution of independent simulation points.
 *
 * Every figure/table reproduction is a cross-product of (workload,
 * SimConfig) design points, each a fully independent, deterministic
 * runSim() call. BatchRunner fans a vector of such BatchJobs out over
 * a fixed-size ThreadPool and returns the results in submission
 * order, so every printed table is bit-identical to the sequential
 * run of the same jobs -- only wall-clock time changes.
 *
 * The worker count defaults to std::thread::hardware_concurrency()
 * and can be overridden with the MSSR_JOBS environment variable
 * (MSSR_JOBS=1 forces sequential execution in-thread, useful for
 * debugging and timing baselines).
 */

#ifndef MSSR_DRIVER_BATCH_RUNNER_HH
#define MSSR_DRIVER_BATCH_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "driver/sim_runner.hh"

namespace mssr
{

struct SampledRunResult; // driver/sampled_runner.hh

/** One independent simulation point of a sweep. */
struct BatchJob
{
    std::string name;                     //!< label for reports/JSON
    const isa::Program *program = nullptr; //!< must outlive the batch
    SimConfig config;
    /**
     * Optional per-job core inspection, invoked on the worker thread
     * with the finished core (see runSim). Closures must only touch
     * job-local state; the batch provides no cross-job locking.
     */
    std::function<void(const O3Cpu &)> inspect;
};

/** Executes batches of BatchJobs across a worker pool. */
class BatchRunner
{
  public:
    /** @p threads 0 means defaultThreads(). */
    explicit BatchRunner(unsigned threads = 0);

    /** MSSR_JOBS override, else hardware_concurrency(), at least 1. */
    static unsigned defaultThreads();

    unsigned threads() const { return threads_; }

    /**
     * Enables the on-disk checkpoint layer: shared warm-up snapshots
     * are loaded from @p dir when a matching mssr-ckpt-v2 file exists
     * (load-on-hit) and written there after being computed
     * (save-on-miss). Files are keyed ck_<programHash>_ff<K>.ckpt; a
     * present-but-corrupt file raises SerializeError rather than
     * silently recomputing, so stale caches are surfaced, not masked.
     * Empty (the default) keeps the cache purely in-memory.
     */
    void setCheckpointDir(std::string dir) { ckptDir_ = std::move(dir); }
    const std::string &checkpointDir() const { return ckptDir_; }

    /**
     * @name Live telemetry (host-side only; results stay byte-identical)
     * With a period > 0, run()/runSampled() start a heartbeat that
     * every @p seconds logs a one-line progress report (done/total,
     * ETA, aggregate kips). With a metrics path set, the global
     * MetricsRegistry snapshot is atomically rewritten there as a
     * Prometheus textfile on every heartbeat and once more at batch
     * completion (so the file exists even without a heartbeat).
     */
    /// @{
    void setProgressEvery(double seconds) { progressEvery_ = seconds; }
    double progressEvery() const { return progressEvery_; }
    void setMetricsOut(std::string path) { metricsOut_ = std::move(path); }
    const std::string &metricsOut() const { return metricsOut_; }
    /** Job-source tag shown in progress lines (default "batch"). */
    void setProgressLabel(std::string label)
    {
        progressLabel_ = std::move(label);
    }
    /// @}

    /**
     * Per-job completion hook, invoked on the worker thread right
     * after each job's result lands in the batch's result vector, so a
     * caller can observe jobs as they finish (perfbench reads each
     * job's host CPU time here). The callback
     * receives the job's submission index and its RunResult; it must
     * be thread-safe, and must not touch other jobs' results. Note the
     * shared-warm-up attribution fields (ckptHit, ffHostSeconds) are
     * finalized only after run() returns, so the callback sees every
     * grouped job as a plain hit -- deterministic, simulated fields
     * are all final. Cleared by passing an empty function.
     */
    using JobDoneFn = std::function<void(std::size_t, const RunResult &)>;
    void setJobDone(JobDoneFn fn) { jobDone_ = std::move(fn); }

    /**
     * Runs all @p jobs and returns results in submission order.
     * A job that throws (bad config/program) aborts the batch: the
     * first exception is rethrown on the calling thread once all
     * in-flight jobs have drained.
     *
     * Shared warm-up: jobs whose configs fast-forward the same program
     * by the same instruction count (and do not already carry a
     * SimConfig::checkpoint) share one functional prefix, computed or
     * loaded from the checkpoint directory exactly once before the
     * detailed runs start. Results are byte-identical to per-job
     * fast-forwarding at any worker count; only wall-clock changes.
     * Attribution: the first job of each group reports the group's
     * prefix wall time in ffHostSeconds and ckptHit=false unless the
     * snapshot came from disk; the other members report ckptHit=true.
     */
    std::vector<RunResult> run(const std::vector<BatchJob> &jobs) const;

    /**
     * Runs every job in SMARTS-style sampled mode (SimConfig::
     * samplePeriod / sampleWindow must be set; see
     * driver/sampled_runner.hh). Per job: one functional scan drops a
     * checkpoint every samplePeriod instructions (through the
     * checkpoint directory when set, sharing the --ckpt-dir store),
     * the sampleWindow-instruction detailed windows are fanned across
     * the pool alongside every other job's windows, and the results
     * are merged in window order on the calling thread -- so sampled
     * results, estimates included, are byte-identical at any worker
     * count. Jobs sharing (program, period, maxInsts) share one scan;
     * the first such job carries the scan's wall time.
     *
     * Throws std::invalid_argument for configs that cannot be sampled
     * (zero/oversized window, fast-forward, tracer, profiling,
     * interval stats, maxCycles or an inspect hook).
     */
    std::vector<SampledRunResult>
    runSampled(const std::vector<BatchJob> &jobs) const;

  private:
    unsigned threads_;
    std::string ckptDir_;
    double progressEvery_ = 0.0;
    std::string metricsOut_;
    std::string progressLabel_ = "batch";
    JobDoneFn jobDone_;
};

} // namespace mssr

#endif // MSSR_DRIVER_BATCH_RUNNER_HH
