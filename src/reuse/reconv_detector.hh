/**
 * @file
 * Reconvergence detection (paper section 3.4): detects the first
 * basic-block overlap between the currently fetched prediction block
 * and the blocks of the squashed streams in the Wrong-Path Buffers.
 *
 * The hardware evaluates, fully associatively over all WPB entries,
 *
 *     start_pc_head <= end_pc_wpb  &&  end_pc_head >= start_pc_wpb
 *
 * via "left aligner" and "right aligner" comparator banks producing
 * two bit-masks that are ANDed and priority-encoded; the reconvergence
 * PC is max(start_pc_head, start_pc_wpb). This module implements
 * exactly that dataflow (masks included) so the logic can be unit
 * tested and so the complexity model can mirror its tree structure.
 */

#ifndef MSSR_REUSE_RECONV_DETECTOR_HH
#define MSSR_REUSE_RECONV_DETECTOR_HH

#include <cstdint>
#include <vector>

#include "reuse/wpb.hh"

namespace mssr
{

/** Result of matching one prediction block against one WPB stream. */
struct ReconvHit
{
    bool found = false;
    unsigned entryIdx = 0;   //!< first overlapping WPB entry
    Addr reconvPC = 0;       //!< exact reconvergence point
    unsigned instOffset = 0; //!< offset from the start of the stream,
                             //!< in instructions
};

class ReconvDetector
{
  public:
    // The aligners evaluate the filled prefix [0, numFilled) only:
    // entries beyond it are invalid, so their mask bits are zero.

    /** Left aligner: mask[i] = (head_start <= end_pc[i]) & valid[i]. */
    static std::uint64_t leftAlignerMask(const WpbStream &stream,
                                         Addr head_start);

    /** Right aligner: mask[i] = (head_end >= start_pc[i]) & valid[i]. */
    static std::uint64_t rightAlignerMask(const WpbStream &stream,
                                          Addr head_end);

    /**
     * Full per-stream check: VPN compare (when restricted), aligner
     * masks, AND, priority encode, exact-PC computation and conversion
     * to an instruction offset from the start of the stream.
     */
    static ReconvHit match(const WpbStream &stream, Addr head_start,
                           Addr head_end, bool restrict_vpn);
};

} // namespace mssr

#endif // MSSR_REUSE_RECONV_DETECTOR_HH
