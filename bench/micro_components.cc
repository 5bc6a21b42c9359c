/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's hot logic blocks. These quantify the scaling claims of
 * sections 3.4-3.5 from the software-model side (the reconvergence
 * range check is a handful of compares; the reuse test is O(1) per
 * instruction) and keep the simulator's own performance visible.
 */

#include <benchmark/benchmark.h>

#include "bpu/tage.hh"
#include "common/rng.hh"
#include "core/free_list.hh"
#include "core/issue_queue.hh"
#include "driver/sim_runner.hh"
#include "memsys/cache.hh"
#include "reuse/bloom.hh"
#include "reuse/reconv_detector.hh"
#include "reuse/squash_log.hh"
#include "workloads/micro.hh"

using namespace mssr;

namespace
{

void
BM_ReconvOverlapCheck(benchmark::State &state)
{
    const unsigned entries = static_cast<unsigned>(state.range(0));
    WpbStream stream;
    stream.valid = true;
    stream.vpn = 0x1;
    for (unsigned i = 0; i < entries; ++i)
        stream.entries.push_back(
            WpbEntry{true, 0x1000 + i * 0x20, 0x101c + i * 0x20});
    stream.numFilled = entries;
    Rng rng(1);
    for (auto _ : state) {
        const Addr start = 0x1000 + (rng.next() & 0x7e0);
        benchmark::DoNotOptimize(
            ReconvDetector::match(stream, start, start + 0x1c, true));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReconvOverlapCheck)->Arg(16)->Arg(64)->Arg(256);

void
BM_TageLookup(benchmark::State &state)
{
    TagePredictor tage;
    Rng rng(2);
    // Warm the tables with a random history.
    for (int i = 0; i < 10000; ++i)
        tage.commitUpdate(0x1000 + (rng.next() & 0xfff), rng.chance(0.5));
    Addr pc = 0x1000;
    for (auto _ : state) {
        benchmark::DoNotOptimize(tage.predict(pc));
        pc = 0x1000 + ((pc * 29) & 0xfff);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TageLookup);

/**
 * One mispredict capture into a recycled squash-log stream: clear the
 * victim, then log a typical short squashed path (8 instructions).
 * The cost must follow the 8 logged entries, not the log's capacity.
 */
void
BM_SquashLogCaptureClear(benchmark::State &state)
{
    SquashLog log(1, static_cast<unsigned>(state.range(0)));
    SquashLogEntry entry;
    entry.hasDest = true;
    entry.executed = true;
    for (auto _ : state) {
        log.clearStream(0);
        for (unsigned i = 0; i < 8; ++i) {
            entry.pc = 0x1000 + 4 * i;
            log.append(0, entry);
        }
        benchmark::DoNotOptimize(log.stream(0).entries.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SquashLogCaptureClear)->Arg(64)->Arg(256)->Arg(4096);

/**
 * Issue select at a fixed IQ occupancy: pick up to 4 ready
 * instructions (about a quarter are ready each round) and re-insert
 * them as fresh ones, so the queue stays at the given size.
 */
void
BM_IssueSelect(benchmark::State &state)
{
    const unsigned occupancy = static_cast<unsigned>(state.range(0));
    IssueQueue iq(occupancy);
    SeqNum next = 1;
    for (unsigned i = 0; i < occupancy; ++i) {
        auto inst = std::make_shared<DynInst>();
        inst->seq = next++;
        iq.insert(inst);
    }
    std::vector<DynInstPtr> picked;
    std::uint64_t round = 0;
    for (auto _ : state) {
        ++round;
        iq.selectReady(
            4,
            [round](const DynInstPtr &inst) {
                return ((inst->seq ^ round) & 3) == 0;
            },
            picked);
        for (const DynInstPtr &inst : picked) {
            inst->seq = next++;
            iq.insert(inst);
        }
        benchmark::DoNotOptimize(picked.data());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_IssueSelect)->Arg(16)->Arg(64);

void
BM_CacheAccess(benchmark::State &state)
{
    Cache cache("bench", 64 * 1024, 4, 64, 3);
    Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(cache.access(rng.next() & 0xfffff, false));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess);

void
BM_BloomFilter(benchmark::State &state)
{
    BloomFilter bloom(1024, 2);
    Rng rng(4);
    for (int i = 0; i < 128; ++i)
        bloom.insert(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(bloom.mayContain(rng.next()));
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_BloomFilter);

void
BM_FreeListCycle(benchmark::State &state)
{
    FreeList fl(256, 32);
    for (auto _ : state) {
        const PhysReg r = fl.alloc();
        fl.reserve(r);
        fl.adopt(r);
        fl.release(r);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FreeListCycle);

/** End-to-end simulator speed in simulated cycles per second. */
void
BM_SimulatorThroughput(benchmark::State &state)
{
    workloads::MicroParams params;
    params.iterations = 200;
    const isa::Program prog = workloads::makeNestedMispred(params);
    const bool reuse = state.range(0) != 0;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const RunResult r =
            runSim(prog, reuse ? rgidConfig(4, 64) : baselineConfig());
        cycles += r.cycles;
        benchmark::DoNotOptimize(r.cycles);
    }
    state.counters["simCyclesPerSec"] = benchmark::Counter(
        static_cast<double>(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatorThroughput)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
