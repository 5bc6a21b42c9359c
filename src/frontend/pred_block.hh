/**
 * @file
 * Prediction block: the unit of work produced by the branch-prediction
 * pipeline and stored in the FTQ (paper section 3.3.1). A block covers
 * a contiguous PC range [startPC, endPC] (inclusive, <= 32 bytes) and
 * ends either at a predicted-taken control instruction or at the fetch
 * limit.
 */

#ifndef MSSR_FRONTEND_PRED_BLOCK_HH
#define MSSR_FRONTEND_PRED_BLOCK_HH

#include <vector>

#include "bpu/predictor.hh"
#include "bpu/ras.hh"
#include "common/types.hh"

namespace mssr
{

/** Per-branch prediction metadata recorded during block formation. */
struct BranchInfo
{
    Addr pc = 0;
    bool isCond = false;
    bool predTaken = false;
    Addr predTarget = 0;        //!< target if predicted taken
    PredSnapshot predSnap;      //!< predictor state before this branch
    Ras::Snapshot rasSnap;      //!< RAS state before this branch

    bool operator==(const BranchInfo &) const = default;
};

/** A prediction block (one FTQ entry / one WPB entry when squashed). */
struct PredBlock
{
    std::uint64_t id = 0;       //!< FTQ allocation id, monotonic
    Addr startPC = 0;
    Addr endPC = 0;             //!< inclusive PC of the last instruction
    Addr nextPC = 0;            //!< predicted successor block start
    std::vector<BranchInfo> branches;

    unsigned
    numInsts() const
    {
        return static_cast<unsigned>((endPC - startPC) / InstBytes + 1);
    }

    bool
    contains(Addr pc) const
    {
        return pc >= startPC && pc <= endPC &&
               (pc - startPC) % InstBytes == 0;
    }
};

} // namespace mssr

#endif // MSSR_FRONTEND_PRED_BLOCK_HH
