#include "layers.hh"

#include <chrono>
#include <filesystem>

#include "bpu/tage.hh"
#include "common/config.hh"
#include "driver/sim_runner.hh"
#include "memsys/hierarchy.hh"
#include "sim/checkpoint.hh"
#include "sim/fast_emu.hh"
#include "sim/memory.hh"

namespace perfbench
{

namespace
{

/** History ring capacities for the recorded streams: large enough to
 *  keep each replay well above timer resolution, small enough to bound
 *  memory on the largest programs (the rings keep the newest records). */
constexpr std::size_t BranchRecords = std::size_t(1) << 20;
constexpr std::size_t MemRecords = std::size_t(1) << 20;

double
seconds(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         since)
        .count();
}

} // namespace

LayerReplay
replayLayers(const std::vector<mssr::isa::Program> &programs,
             const std::string &scratchDir, SpanRecorder &spans,
             std::uint32_t parent)
{
    using Clock = std::chrono::steady_clock;
    LayerReplay out;
    std::filesystem::create_directories(scratchDir);

    for (const mssr::isa::Program &prog : programs) {
        // Functional throughput: a plain run to HALT, nothing recorded.
        {
            mssr::Memory mem;
            const double s0 = spans.now();
            const auto t0 = Clock::now();
            mssr::FastEmu emu(prog, mem);
            out.emuInsts += emu.run();
            out.emuSeconds += seconds(t0);
            spans.add("sim.fastemu_run", s0, spans.now(), parent);
        }

        // Record the branch and data-access streams (untimed).
        mssr::BranchHistory branchHist(BranchRecords);
        mssr::MemHistory memHist(MemRecords);
        std::uint64_t instret = 0;
        {
            mssr::Memory mem;
            mssr::FastEmu emu(prog, mem);
            emu.recordBranches(&branchHist);
            emu.recordMem(&memHist);
            instret = emu.run();
        }

        {
            const std::vector<mssr::BranchOutcome> stream =
                branchHist.inOrder();
            mssr::TagePredictor tage;
            const double s0 = spans.now();
            const auto t0 = Clock::now();
            for (const mssr::BranchOutcome &b : stream) {
                if (!prog.instAt(b.pc).isCondBranch())
                    continue;
                const bool pred = tage.predict(b.pc);
                tage.specUpdate(b.pc, b.taken);
                tage.commitUpdate(b.pc, b.taken);
                out.branchMisses += pred != b.taken;
                ++out.branches;
            }
            out.tageSeconds += seconds(t0);
            spans.add("bpu.tage_replay", s0, spans.now(), parent);
        }

        {
            const std::vector<mssr::MemAccess> stream = memHist.inOrder();
            mssr::MemHierarchy hier{mssr::CoreConfig{}};
            const double s0 = spans.now();
            const auto t0 = Clock::now();
            for (const mssr::MemAccess &a : stream) {
                if (a.isStore)
                    hier.storeAccess(a.addr);
                else
                    out.memLatencySum += hier.loadLatency(a.addr);
            }
            out.memSeconds += seconds(t0);
            out.memAccesses += stream.size();
            spans.add("memsys.replay", s0, spans.now(), parent);
        }

        // One checkpoint at mid-program through the on-disk format.
        {
            const mssr::Checkpoint ckpt =
                mssr::computeCheckpoint(prog, instret / 2);
            const std::string path =
                scratchDir + "/" +
                mssr::checkpointFileName(prog.hash(), ckpt.ffInsts);
            double s0 = spans.now();
            auto t0 = Clock::now();
            mssr::writeCheckpoint(path, ckpt);
            out.ckptWriteSeconds += seconds(t0);
            spans.add("sim.ckpt_write", s0, spans.now(), parent);
            out.ckptBytes +=
                static_cast<double>(std::filesystem::file_size(path));

            s0 = spans.now();
            t0 = Clock::now();
            const mssr::Checkpoint back = mssr::readCheckpoint(path);
            out.ckptReadSeconds += seconds(t0);
            spans.add("sim.ckpt_read", s0, spans.now(), parent);
            out.ckptMismatches += !(back == ckpt);
            std::filesystem::remove(path);
        }
    }
    return out;
}

} // namespace perfbench
