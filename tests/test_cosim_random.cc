/**
 * Randomized configuration x program co-simulation: every point in a
 * seeded random sample of the configuration space must preserve
 * architectural equivalence on a randomly generated branchy program.
 * This is the widest-net property test in the suite -- it has caught
 * interactions (reservation leaks, session aborts mid-bundle) that the
 * directed tests missed.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "cosim_triage.hh"
#include "driver/sim_runner.hh"
#include "isa/assembler.hh"
#include "sim/func_emu.hh"

using namespace mssr;

namespace
{

/** Random branchy program over a small memory arena (seeded). */
isa::Program
randomProgram(std::uint64_t seed)
{
    Rng rng(seed);
    std::ostringstream os;
    const unsigned iters = 80 + rng.below(80);
    os << "    li s0, 0\n    li s1, " << iters << "\n";
    os << "    la s2, arena\n";
    os << "outer:\n";
    os << "    addi t0, s0, " << (1 + rng.below(1 << 16)) << "\n";
    os << "    li t1, -0x61c8864680b583eb\n    mul t0, t0, t1\n";
    os << "    srli t1, t0, 31\n    xor t0, t0, t1\n";
    const unsigned blocks = 3 + rng.below(5);
    for (unsigned b = 0; b < blocks; ++b) {
        const std::string l = "L" + std::to_string(b);
        switch (rng.below(6)) {
          case 0:
            os << "    andi t2, t0, " << (1u << rng.below(3)) << "\n"
               << "    beqz t2, " << l << "\n"
               << "    addi s3, s3, " << rng.below(64) << "\n"
               << l << ":\n"
               << "    xori s4, s4, " << rng.below(64) << "\n";
            break;
          case 1: // call through a hashed condition
            os << "    andi t2, t0, 2\n"
               << "    bnez t2, " << l << "\n"
               << "    call helper" << (b % 2) << "\n"
               << l << ":\n";
            break;
          case 2: // conditional store + unconditional load
            os << "    andi t2, t0, 4\n"
               << "    beqz t2, " << l << "\n"
               << "    andi t3, t0, 120\n"
               << "    add t3, t3, s2\n"
               << "    sd s3, 0(t3)\n"
               << l << ":\n"
               << "    andi t4, t0, 248\n"
               << "    add t4, t4, s2\n"
               << "    ld s5, 0(t4)\n"
               << "    add s3, s3, s5\n";
            break;
          case 3: // divides delay resolution
            os << "    ori t5, t0, 1\n"
               << "    div s7, s3, t5\n"
               << "    mul s8, s7, t5\n";
            break;
          case 4: // nested branches
            os << "    andi t2, t0, 1\n"
               << "    beqz t2, " << l << "a\n"
               << "    andi t3, t0, 8\n"
               << "    beqz t3, " << l << "b\n"
               << "    addi s9, s9, 1\n"
               << l << "b:\n"
               << "    addi s10, s10, 2\n"
               << l << "a:\n";
            break;
          default: // byte traffic
            os << "    andi t3, t0, 252\n"
               << "    add t3, t3, s2\n"
               << "    sb t0, 1(t3)\n"
               << "    lbu s11, 0(t3)\n";
            break;
        }
    }
    os << "    addi s0, s0, 1\n    blt s0, s1, outer\n    halt\n";
    os << "helper0:\n    addi a0, a0, 3\n    xori a0, a0, 9\n    ret\n";
    os << "helper1:\n    addi a1, a1, 5\n    ret\n";

    isa::Program prog;
    prog.allocData("arena", 512);
    isa::assemble(prog, os.str());
    return prog;
}

/** Random but valid configuration (seeded). */
SimConfig
randomConfig(std::uint64_t seed)
{
    Rng rng(seed * 77 + 5);
    SimConfig cfg;
    switch (rng.below(3)) {
      case 0:
        cfg.reuseKind = ReuseKind::None;
        break;
      case 1: {
        cfg.reuseKind = ReuseKind::Rgid;
        const unsigned streams[] = {1, 2, 3, 4, 8};
        cfg.reuse.numStreams = streams[rng.below(5)];
        const unsigned entries[] = {8, 16, 64, 128};
        cfg.reuse.squashLogEntriesPerStream = entries[rng.below(4)];
        cfg.reuse.wpbEntriesPerStream =
            std::max(1u, cfg.reuse.squashLogEntriesPerStream / 4);
        cfg.reuse.useBloomFilter = rng.chance(0.3);
        cfg.reuse.reuseLoads = rng.chance(0.8);
        cfg.reuse.restrictVpn = rng.chance(0.5);
        cfg.reuse.rgidBits = 4 + rng.below(5);
        cfg.reuse.reconvTimeoutInsts = 64 << rng.below(5);
        break;
      }
      default: {
        cfg.reuseKind = ReuseKind::RegInt;
        const unsigned sets[] = {16, 64, 128};
        cfg.regint.sets = sets[rng.below(3)];
        cfg.regint.ways = 1 + rng.below(4);
        cfg.regint.modelSerializedAccess = rng.chance(0.5);
        break;
      }
    }
    if (rng.chance(0.3)) {
        cfg.core.robEntries = 64 << rng.below(3);
        cfg.core.physRegs = cfg.core.robEntries;
    }
    if (rng.chance(0.3))
        cfg.core.predictor = rng.chance(0.5)
                                 ? BranchPredictorKind::Gshare
                                 : BranchPredictorKind::Bimodal;
    if (rng.chance(0.2))
        cfg.core.decodeWidth = cfg.core.commitWidth = 4;
    return cfg;
}

/** Runs @p prog on the O3 core and the functional oracle; all
 *  architectural state must match. */
void
expectOracleMatch(const isa::Program &prog, SimConfig cfg,
                  const std::string &what)
{
    Memory refMem;
    FuncEmu emu(prog, refMem);
    emu.run(10'000'000);
    ASSERT_TRUE(emu.halted());

    CosimTriage triage(what, cfg);
    Memory o3Mem;
    const RunResult r = runSim(prog, cfg, &o3Mem);
    ASSERT_TRUE(r.halted) << what;
    EXPECT_EQ(r.insts, emu.instret()) << what;
    for (unsigned reg = 0; reg < NumArchRegs; ++reg)
        ASSERT_EQ(r.archRegs[reg], emu.reg(static_cast<ArchReg>(reg)))
            << what << " reg " << isa::regName(static_cast<ArchReg>(reg));
    ASSERT_TRUE(o3Mem.equals(refMem)) << what;
}

} // namespace

class RandomCosim : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(RandomCosim, ArchitecturallyInvisible)
{
    const std::uint64_t seed = GetParam();
    expectOracleMatch(randomProgram(seed), randomConfig(seed),
                      "seed " + std::to_string(seed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCosim,
                         ::testing::Range<std::uint64_t>(1, 41));

/**
 * The Figure-10 upper bound on random programs: RGID 4x256 and 4x1024
 * (4W squash-log entries per stream) with the remaining reuse knobs
 * drawn from the seed. randomConfig() stops at 32 WPB blocks; these
 * are the sizes whose reconvergence check scans the filled prefix
 * directly instead of through the 64-wide aligner masks.
 */
class UpperBoundRandomCosim
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, unsigned>>
{
};

TEST_P(UpperBoundRandomCosim, ArchitecturallyInvisible)
{
    const auto [seed, wpbBlocks] = GetParam();
    Rng rng(seed * 131 + 17);
    SimConfig cfg = rgidConfig(4, 4 * wpbBlocks);
    cfg.reuse.useBloomFilter = rng.chance(0.3);
    cfg.reuse.reuseLoads = rng.chance(0.8);
    cfg.reuse.restrictVpn = rng.chance(0.5);
    cfg.reuse.reconvTimeoutInsts = 64 << rng.below(5);
    expectOracleMatch(randomProgram(seed), cfg,
                      "seed " + std::to_string(seed) + " rgid 4x" +
                          std::to_string(wpbBlocks));
}

INSTANTIATE_TEST_SUITE_P(
    Fig10, UpperBoundRandomCosim,
    ::testing::Combine(::testing::Range<std::uint64_t>(1, 11),
                       ::testing::Values(256u, 1024u)));
