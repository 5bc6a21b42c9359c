/**
 * @file
 * In-memory span recorder for the benchmark's traced run.
 *
 * A span is one timed interval at a layer boundary: a name of the form
 * "<layer>.<operation>", start and end (seconds on the steady clock,
 * relative to the recorder's epoch), the span that caused it, the job
 * it belongs to (one id per simulation job; 0 for spans outside any
 * job) and a display track (worker lane). Spans are only appended
 * while the benchmark runs and are written out once, at exit, as
 * Chrome trace_event JSON (loadable in Perfetto / chrome://tracing).
 *
 * Every span is recorded from the benchmark's own code around calls
 * into the simulator's public functions; the simulator itself carries
 * no instrumentation. Spans reported by the program (RunResult::phases,
 * SampledRunResult::scanHostSeconds) are attached as children with
 * positions reconstructed from their durations.
 */

#ifndef MSSR_PERFBENCH_SPANS_HH
#define MSSR_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    std::uint32_t id = 0;
    std::uint32_t parent = 0; //!< 0 = root
    std::uint64_t job = 0;    //!< 0 = not part of a simulation job
    std::string name;         //!< "<layer>.<operation>"
    double start = 0.0;       //!< seconds since the recorder's epoch
    double end = 0.0;
    unsigned track = 0;       //!< display lane (0 = main thread)
};

/** Thread-safe append-only span store. */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

    /** Seconds since the epoch on the steady clock. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Records a finished span and returns its id. */
    std::uint32_t add(std::string name, double start, double end,
                      std::uint32_t parent, std::uint64_t job = 0,
                      unsigned track = 0);

    /** Opens a span that is closed with close(); returns its id. */
    std::uint32_t open(std::string name, std::uint32_t parent);
    void close(std::uint32_t id);

    /** Snapshot of every span recorded so far. */
    std::vector<Span> spans() const;

    /**
     * Self time per layer: each span's duration minus the part of its
     * interval covered by the union of its children, summed over the
     * spans of a layer (the name up to the first '.').
     */
    std::map<std::string, double> layerSelfSeconds() const;

    /** Writes every span as Chrome trace_event JSON to @p path. */
    void writeChromeJson(const std::string &path) const;

  private:
    std::chrono::steady_clock::time_point epoch_;
    mutable std::mutex mutex_; //!< guards spans_
    std::vector<Span> spans_;  //!< index = id - 1
};

} // namespace perfbench

#endif // MSSR_PERFBENCH_SPANS_HH
