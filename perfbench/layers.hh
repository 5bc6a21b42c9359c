/**
 * @file
 * Per-layer replays for the traced run: each times one simulator layer
 * through its public functions over a workload's own programs, outside
 * the detailed pipeline, so the layer's cost per unit of work can be
 * read on its own.
 *
 *  - sim:    FastEmu::run to HALT (functional throughput), and one
 *            mid-program checkpoint through writeCheckpoint /
 *            readCheckpoint (round trip checked for equality).
 *  - bpu:    the program's conditional-branch stream, recorded with
 *            FastEmu::recordBranches, through a fresh TagePredictor
 *            (predict + speculative update + commit update).
 *  - memsys: the program's data-access stream, recorded with
 *            FastEmu::recordMem, through a fresh MemHierarchy
 *            (loadLatency / storeAccess).
 */

#ifndef MSSR_PERFBENCH_LAYERS_HH
#define MSSR_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "spans.hh"

namespace perfbench
{

struct LayerReplay
{
    std::uint64_t emuInsts = 0;
    double emuSeconds = 0.0;

    std::uint64_t branches = 0;       //!< conditional branches replayed
    std::uint64_t branchMisses = 0;   //!< TAGE mispredictions in replay
    double tageSeconds = 0.0;

    std::uint64_t memAccesses = 0;    //!< loads + stores replayed
    std::uint64_t memLatencySum = 0;  //!< summed load latencies (cycles)
    double memSeconds = 0.0;

    double ckptWriteSeconds = 0.0;
    double ckptReadSeconds = 0.0;
    double ckptBytes = 0.0;
    std::uint64_t ckptMismatches = 0; //!< read-back != written snapshot
};

/**
 * Replays every layer over @p programs. Checkpoint files go to
 * @p scratchDir and are removed afterwards. Spans are recorded under
 * @p parent.
 */
LayerReplay replayLayers(const std::vector<mssr::isa::Program> &programs,
                         const std::string &scratchDir,
                         SpanRecorder &spans, std::uint32_t parent);

} // namespace perfbench

#endif // MSSR_PERFBENCH_LAYERS_HH
