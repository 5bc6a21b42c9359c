/**
 * @file
 * Reservation station (issue queue) model: capacity-limited pool of
 * dispatched instructions; each cycle the oldest ready instructions
 * are selected subject to per-FU issue-port limits (Table 3: 64-entry
 * 4xALU + 2xBRU integer RVS, 64-entry 2xLSU memory RVS).
 */

#ifndef MSSR_CORE_ISSUE_QUEUE_HH
#define MSSR_CORE_ISSUE_QUEUE_HH

#include <algorithm>
#include <vector>

#include "common/log.hh"
#include "core/dyn_inst.hh"

namespace mssr
{

class IssueQueue
{
  public:
    explicit IssueQueue(unsigned capacity) : capacity_(capacity)
    {
        insts_.reserve(capacity);
    }

    bool full() const { return insts_.size() >= capacity_; }
    std::size_t size() const { return insts_.size(); }

    void
    insert(const DynInstPtr &inst)
    {
        mssr_assert(!full(), "issue queue overflow");
        inst->inIq = true;
        insts_.push_back(inst);
    }

    /**
     * Selects up to @p max_issue ready instructions, oldest first,
     * removing them from the queue and replacing the contents of
     * @p out with them. @p ready is polled in queue order until
     * @p max_issue are picked. Neither the queue nor a reused @p out
     * allocates once warm.
     */
    template <typename Ready>
    void
    selectReady(unsigned max_issue, Ready &&ready,
                std::vector<DynInstPtr> &out)
    {
        out.clear();
        auto keep = insts_.begin();
        auto it = insts_.begin();
        for (; it != insts_.end() && out.size() < max_issue; ++it) {
            if (ready(*it)) {
                (*it)->inIq = false;
                out.push_back(std::move(*it));
            } else {
                if (keep != it)
                    *keep = std::move(*it);
                ++keep;
            }
        }
        keep = std::move(it, insts_.end(), keep);
        insts_.erase(keep, insts_.end());
    }

    /** Removes squashed instructions (seq > @p after_seq). */
    void
    squashAfter(SeqNum after_seq)
    {
        insts_.erase(
            std::remove_if(insts_.begin(), insts_.end(),
                           [after_seq](const DynInstPtr &inst) {
                               if (inst->seq > after_seq) {
                                   inst->inIq = false;
                                   return true;
                               }
                               return false;
                           }),
            insts_.end());
    }

  private:
    unsigned capacity_;
    std::vector<DynInstPtr> insts_; //!< insertion (program) order
};

} // namespace mssr

#endif // MSSR_CORE_ISSUE_QUEUE_HH
