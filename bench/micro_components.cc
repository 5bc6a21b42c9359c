/**
 * Component microbenchmarks (google-benchmark): throughput of the
 * simulator's hot logic blocks. These quantify the scaling claims of
 * sections 3.4-3.5 from the software-model side (the reconvergence
 * range check is a handful of compares; the reuse test is O(1) per
 * instruction) and keep the simulator's own performance visible.
 */

#include <deque>
#include <vector>

#include <benchmark/benchmark.h>

#include "bpu/tage.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "core/free_list.hh"
#include "core/issue_queue.hh"
#include "core/rob.hh"
#include "driver/sim_runner.hh"
#include "memsys/cache.hh"
#include "reuse/bloom.hh"
#include "reuse/reconv_detector.hh"
#include "reuse/squash_log.hh"
#include "sim/checkpoint.hh"
#include "sim/func_emu.hh"
#include "sim/memory.hh"
#include "workloads/micro.hh"
#include "workloads/registry.hh"

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
 * The conditional-branch outcomes of a real workload (the last 4096
 * leela branches at scale 6), recorded once by the functional model.
 */
const std::vector<BranchOutcome> &
recordedBranches()
{
    static const std::vector<BranchOutcome> stream = [] {
        workloads::WorkloadScale scale;
        scale.graphScale = 6;
        scale.iterations = 2000;
        const isa::Program prog = workloads::buildWorkload("leela", scale);
        Memory mem;
        prog.loadInto(mem);
        FuncEmu emu(prog, mem);
        BranchHistory hist;
        emu.recordBranches(&hist);
        emu.run();
        std::vector<BranchOutcome> conds;
        for (const BranchOutcome &b : hist.inOrder())
            if (prog.instAt(b.pc).isCondBranch())
                conds.push_back(b);
        return conds;
    }();
    return stream;
}

/**
 * One branch's full predictor traffic: predict, speculative history
 * shift and commit-time training. Unlike BM_TageLookup the history
 * moves every branch, so this sees the cost of a shift too.
 */
void
BM_TagePredictUpdate(benchmark::State &state)
{
    const std::vector<BranchOutcome> &stream = recordedBranches();
    TagePredictor tage;
    auto step = [&tage](const BranchOutcome &b) {
        const bool pred = tage.predict(b.pc);
        tage.specUpdate(b.pc, b.taken);
        tage.commitUpdate(b.pc, b.taken);
        return pred;
    };
    // Train to a steady state first, so the cost per branch does not
    // depend on how many iterations the framework picks.
    for (int rep = 0; rep < 64; ++rep)
        for (const BranchOutcome &b : stream)
            step(b);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(step(stream[i]));
        i = i + 1 == stream.size() ? 0 : i + 1;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TagePredictUpdate);

/** Checkpoint section CRC over a 1 MiB buffer. */
void
BM_Crc32(benchmark::State &state)
{
    std::vector<std::uint8_t> buf(std::size_t(1) << 20);
    Rng rng(3);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (auto _ : state)
        benchmark::DoNotOptimize(crc32(buf.data(), buf.size()));
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(buf.size()));
}
BENCHMARK(BM_Crc32);

/**
 * Program::hash() of a GAP graph image (bc at scale 12, the paper's
 * -g 12). Arg 0 (cold) invalidates the memo before every call, arg 1
 * (memoized) hashes the unchanged program again.
 */
void
BM_ProgramHash(benchmark::State &state)
{
    workloads::WorkloadScale scale;
    scale.graphScale = 12;
    isa::Program prog = workloads::buildWorkload("bc", scale);
    const bool cold = state.range(0) == 0;
    for (auto _ : state) {
        if (cold)
            prog.setEntry(prog.entry());
        benchmark::DoNotOptimize(prog.hash());
    }
    std::size_t bytes = prog.numInsts() * 24;
    for (const auto &chunk : prog.dataChunks())
        bytes += chunk.second.size();
    state.counters["imageBytes"] = static_cast<double>(bytes);
}
BENCHMARK(BM_ProgramHash)->ArgName("memoized")->Arg(0)->Arg(1);

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
    DynInstPool pool;
    IssueQueue iq(occupancy);
    SeqNum next = 1;
    for (unsigned i = 0; i < occupancy; ++i) {
        auto inst = pool.make();
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

/**
 * One in-flight instruction's life at a fixed ROB occupancy: create
 * it, hand it to the ROB and the issue queue (a quarter of the ROB,
 * so IQ compaction does not drown the hand-offs), select the oldest
 * IQ entry into a writeback queue, and release the oldest instruction
 * at commit. Every step is a handle copy, move or drop, so this is
 * the per-instruction allocation and refcount cost.
 */
void
BM_DynInstHandoff(benchmark::State &state)
{
    const unsigned occupancy = static_cast<unsigned>(state.range(0));
    DynInstPool pool;
    Rob rob(occupancy);
    IssueQueue iq(occupancy / 4);
    std::deque<DynInstPtr> wb;
    std::vector<DynInstPtr> picked;
    SeqNum next = 1;
    const auto oldest = [](const DynInstPtr &) { return true; };
    for (auto _ : state) {
        if (rob.full())
            rob.popHead(); // commit
        DynInstPtr inst = pool.make();
        inst->seq = next++;
        rob.push(inst);
        if (iq.full()) {
            iq.selectReady(1, oldest, picked);
            wb.push_back(std::move(picked.front()));
            if (wb.size() > 8)
                wb.pop_front();
        }
        iq.insert(inst);
        benchmark::DoNotOptimize(inst.get());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DynInstHandoff)->Arg(64);

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
