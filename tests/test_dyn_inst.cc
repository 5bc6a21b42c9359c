#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/dyn_inst.hh"
#include "core/o3cpu.hh"
#include "driver/sim_runner.hh"
#include "sim/memory.hh"
#include "workloads/registry.hh"

using namespace mssr;

namespace
{

/** Sets every DynInst field to a value different from DynInst{}. */
void
populate(DynInst &d)
{
    d.seq = 77;
    d.pc = 0x4000;
    d.si = isa::Inst{isa::Op::BEQ, 0, 5, 6, 16};
    d.ftqId = 9;
    d.hasBranchInfo = true;
    d.branchInfo.pc = 0x4000;
    d.branchInfo.isCond = true;
    d.branchInfo.predTaken = true;
    d.branchInfo.predTarget = 0x4010;
    d.branchInfo.predSnap.words.fill(0xabcd);
    d.branchInfo.rasSnap = Ras::Snapshot{3, 0x5000};
    d.predTaken = true;
    d.predNext = 0x4010;
    d.src[0] = 11;
    d.src[1] = 12;
    d.dst = 13;
    d.oldDst = 14;
    d.srcRgid[0] = 1;
    d.srcRgid[1] = 2;
    d.dstRgid = 3;
    d.oldDstRgid = 4;
    d.renamed = d.inIq = d.issued = d.executed = true;
    d.completed = d.squashed = true;
    d.memAddr = 0x8000;
    d.addrReady = true;
    d.lqIdx = 1;
    d.sqIdx = 1;
    d.result = 42;
    d.actualTaken = true;
    d.actualNext = 0x4010;
    d.mispredicted = true;
    d.reused = d.verifyPending = true;
    d.reusedValue = 41;
}

} // namespace

TEST(DynInstPtr, CopyMoveResetCountExactly)
{
    DynInstPool pool;
    DynInstPtr a = pool.make();
    EXPECT_EQ(a.use_count(), 1);
    EXPECT_EQ(pool.live(), 1u);

    DynInstPtr b = a; // copy
    EXPECT_EQ(a.use_count(), 2);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.get(), b.get());

    DynInstPtr c = std::move(b); // move: no count change
    EXPECT_FALSE(b);
    EXPECT_EQ(b.use_count(), 0);
    EXPECT_EQ(c.use_count(), 2);

    DynInstPtr d;
    d = c; // copy-assign into empty
    EXPECT_EQ(a.use_count(), 3);
    d = d; // self copy-assign
    EXPECT_EQ(a.use_count(), 3);
    d = std::move(c); // move-assign drops d's old reference
    EXPECT_FALSE(c);
    EXPECT_EQ(a.use_count(), 2);

    DynInstPtr other = pool.make();
    EXPECT_EQ(pool.live(), 2u);
    d = other; // reassign: a loses one, other gains one
    EXPECT_EQ(a.use_count(), 1);
    EXPECT_EQ(other.use_count(), 2);
    EXPECT_FALSE(a == other);

    a.reset(); // last handle: back to the pool
    EXPECT_FALSE(a);
    EXPECT_EQ(a.get(), nullptr);
    EXPECT_EQ(pool.live(), 1u);
    a.reset(); // reset of an empty handle is a no-op
    EXPECT_EQ(pool.live(), 1u);

    other.reset();
    EXPECT_EQ(d.use_count(), 1);
    d = nullptr;
    EXPECT_EQ(pool.live(), 0u);
}

TEST(DynInstPool, RecycledInstEqualsFreshDynInst)
{
    DynInstPool pool;
    DynInst *slot = nullptr;
    {
        DynInstPtr inst = pool.make();
        EXPECT_TRUE(*inst == DynInst{});
        populate(*inst);
        slot = inst.get();
    }
    EXPECT_EQ(pool.live(), 0u);

    // populate() must have touched every field that matters below.
    DynInst full;
    populate(full);
    EXPECT_FALSE(full == DynInst{});

    DynInstPtr again = pool.make();
    ASSERT_EQ(again.get(), slot); // the recycled slot comes back first
    EXPECT_TRUE(*again == DynInst{});
}

TEST(DynInstPool, ChunksGrowAndRecycleInOrder)
{
    DynInstPool pool;
    std::vector<DynInstPtr> held;
    for (int i = 0; i < 100; ++i)
        held.push_back(pool.make());
    EXPECT_EQ(pool.live(), 100u);
    DynInst *last = held.back().get();
    held.pop_back();
    EXPECT_EQ(pool.live(), 99u);
    EXPECT_EQ(pool.make().get(), last); // LIFO reuse
    held.clear();
    EXPECT_EQ(pool.live(), 0u);
}

TEST(DynInstPool, UseAfterRecycleIsCaughtUnderAsan)
{
    if (!DynInstPool::PoisonsRecycled)
        GTEST_SKIP() << "needs an AddressSanitizer build";
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    DynInstPool pool;
    DynInst *stale = nullptr;
    {
        DynInstPtr inst = pool.make();
        inst->seq = 5;
        stale = inst.get();
    }
    EXPECT_DEATH(
        {
            volatile SeqNum seq = stale->seq;
            (void)seq;
        },
        "use-after-poison");
}

namespace
{

/**
 * Ticks @p cfg on a mispredict-heavy program to completion and checks
 * the pool after every cycle: live never exceeds what the core can
 * hold (ROB + fetched-but-unrenamed + squashed instructions still
 * waiting for their writeback slot).
 */
void
checkPoolBounded(SimConfig cfg)
{
    workloads::WorkloadScale scale;
    scale.graphScale = 6;
    scale.iterations = 300;
    const isa::Program prog =
        workloads::buildWorkload("nested-mispred", scale);
    const CoreConfig &core = cfg.core;
    const std::size_t frontend = static_cast<std::size_t>(core.ftqEntries) *
                                 (core.fetchBlockBytes / InstBytes);
    const std::size_t maxLatency =
        core.l1dLatency + core.l2Latency + core.dramLatency;
    const std::size_t writeback =
        static_cast<std::size_t>(core.numAlu + core.numBru + core.numLsu) *
        maxLatency;
    const std::size_t bound = core.robEntries + frontend + writeback;

    Memory mem;
    O3Cpu cpu(cfg, prog, mem);
    std::size_t peak = 0;
    while (!cpu.halted()) {
        ASSERT_LT(cpu.cycles(), 2'000'000u);
        cpu.tick();
        peak = std::max(peak, cpu.dynInstPool().live());
    }
    EXPECT_GT(cpu.stats().get("core.squashEvents"), 100.0);
    EXPECT_LE(peak, bound);
    EXPECT_GE(peak, 64u);
    // Every instruction but the committed HALT, which stays at the ROB
    // head, is back in the pool: nothing leaked through a squash.
    EXPECT_EQ(cpu.dynInstPool().live(), 1u);
}

} // namespace

TEST(DynInstPool, HighWaterBoundedByInFlight)
{
    checkPoolBounded(rgidConfig(4, 256));
    checkPoolBounded(regIntConfig(64, 4));
}
