/**
 * @file
 * Dynamic instruction: one in-flight instance of a static instruction,
 * carrying rename state, RGIDs, prediction metadata, memory state and
 * execution status through the pipeline.
 *
 * The core creates one per fetched instruction, right or wrong path,
 * and hands it between stages many times, so instructions live in a
 * per-core DynInstPool and travel as DynInstPtr: an intrusive handle
 * with the shared_ptr surface the pipeline uses and a plain,
 * non-atomic count. A DynInst therefore never crosses a thread; each
 * core (and its pool) stays on the thread that runs it.
 */

#ifndef MSSR_CORE_DYN_INST_HH
#define MSSR_CORE_DYN_INST_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define MSSR_ASAN_POOL 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MSSR_ASAN_POOL 1
#endif
#endif
#ifdef MSSR_ASAN_POOL
#include <sanitizer/asan_interface.h>
#endif

#include "common/types.hh"
#include "frontend/pred_block.hh"
#include "isa/inst.hh"

namespace mssr
{

struct DynInst
{
    // Identity.
    SeqNum seq = 0;
    Addr pc = 0;
    isa::Inst si;
    std::uint64_t ftqId = 0;

    // Branch prediction metadata (control instructions only).
    bool hasBranchInfo = false;
    BranchInfo branchInfo;
    bool predTaken = false;
    Addr predNext = 0;          //!< predicted successor PC

    // Rename state.
    PhysReg src[2] = {InvalidPhysReg, InvalidPhysReg};
    PhysReg dst = InvalidPhysReg;
    PhysReg oldDst = InvalidPhysReg;    //!< previous mapping of rd
    Rgid srcRgid[2] = {0, 0};
    Rgid dstRgid = 0;
    Rgid oldDstRgid = 0;                //!< previous RGID of rd

    // Status flags.
    bool renamed = false;
    bool inIq = false;
    bool issued = false;
    bool executed = false;      //!< produced its result value
    bool completed = false;     //!< done; eligible for commit
    bool squashed = false;

    // Memory state.
    Addr memAddr = 0;
    bool addrReady = false;
    int lqIdx = -1;
    int sqIdx = -1;

    // Execution results.
    RegVal result = 0;
    bool actualTaken = false;
    Addr actualNext = 0;
    bool mispredicted = false;

    // Squash reuse state.
    bool reused = false;            //!< completed via squash reuse
    bool verifyPending = false;     //!< reused load awaiting re-execute
    RegVal reusedValue = 0;         //!< value adopted at reuse time

    bool isLoad() const { return si.isLoad(); }
    bool isStore() const { return si.isStore(); }
    bool isControl() const { return si.isControl(); }

    unsigned
    numSrcs() const
    {
        return (si.hasRs1() ? 1u : 0u) + (si.hasRs2() ? 1u : 0u);
    }

    bool operator==(const DynInst &) const = default;
};

class DynInstPool;

namespace detail
{

/** One pool slot: the instruction plus its handle bookkeeping. */
struct DynInstNode
{
    DynInst inst;                    //!< first: handles point here
    std::uint32_t refs = 0;          //!< live DynInstPtr handles
    DynInstPool *pool = nullptr;     //!< owner
    DynInstNode *nextFree = nullptr; //!< free-list link while recycled
};

} // namespace detail

/**
 * Counted handle to a DynInst: copy, move, reset, get, ->, * and ==
 * behave as a std::shared_ptr's would, but the count is a plain
 * integer in the instruction's slot, and dropping the last handle
 * returns the slot to its pool instead of freeing it.
 */
class DynInstPtr
{
  public:
    DynInstPtr() noexcept = default;
    DynInstPtr(std::nullptr_t) noexcept {}
    DynInstPtr(const DynInstPtr &other) noexcept : node_(other.node_)
    {
        if (node_)
            ++node_->refs;
    }
    DynInstPtr(DynInstPtr &&other) noexcept
        : node_(std::exchange(other.node_, nullptr))
    {
    }
    DynInstPtr &
    operator=(const DynInstPtr &other) noexcept
    {
        DynInstPtr(other).swap(*this);
        return *this;
    }
    DynInstPtr &
    operator=(DynInstPtr &&other) noexcept
    {
        DynInstPtr(std::move(other)).swap(*this);
        return *this;
    }
    ~DynInstPtr() { release(); }

    void
    reset() noexcept
    {
        release();
        node_ = nullptr;
    }
    void swap(DynInstPtr &other) noexcept { std::swap(node_, other.node_); }

    DynInst *get() const noexcept { return node_ ? &node_->inst : nullptr; }
    DynInst &operator*() const noexcept { return node_->inst; }
    DynInst *operator->() const noexcept { return &node_->inst; }
    explicit operator bool() const noexcept { return node_ != nullptr; }

    /** Handles sharing this instruction (0 for an empty handle). */
    long use_count() const noexcept { return node_ ? node_->refs : 0; }

    friend bool
    operator==(const DynInstPtr &a, const DynInstPtr &b) noexcept
    {
        return a.node_ == b.node_;
    }
    friend void swap(DynInstPtr &a, DynInstPtr &b) noexcept { a.swap(b); }

  private:
    friend class DynInstPool;

    /** Adopts the single reference the caller set on @p node. */
    explicit DynInstPtr(detail::DynInstNode *node) noexcept : node_(node) {}

    void release() noexcept;

    detail::DynInstNode *node_ = nullptr;
};

/**
 * Free-list pool of DynInst slots, grown in fixed chunks and never
 * shrunk. make() hands out a slot reset to DynInst{}; the last handle
 * to drop puts it back. The pool must outlive every handle to its
 * instructions (the destructor checks). Under AddressSanitizer a
 * recycled instruction is poisoned until make() hands it out again,
 * so a use after recycle is reported like a use after free.
 */
class DynInstPool
{
  public:
#ifdef MSSR_ASAN_POOL
    static constexpr bool PoisonsRecycled = true;
#else
    static constexpr bool PoisonsRecycled = false;
#endif

    DynInstPool() = default;
    DynInstPool(const DynInstPool &) = delete;
    DynInstPool &operator=(const DynInstPool &) = delete;
    ~DynInstPool();

    /** A fresh instruction equal to DynInst{}, held by one handle. */
    DynInstPtr
    make()
    {
        if (!free_)
            grow();
        detail::DynInstNode *node = free_;
        free_ = node->nextFree;
#ifdef MSSR_ASAN_POOL
        ASAN_UNPOISON_MEMORY_REGION(&node->inst, sizeof(DynInst));
#endif
        node->inst = DynInst{};
        node->refs = 1;
        ++live_;
        return DynInstPtr(node);
    }

    /** Instructions currently held by at least one handle. */
    std::size_t live() const { return live_; }

  private:
    friend class DynInstPtr;

    static constexpr std::size_t ChunkSlots = 64;

    void grow();

    void
    recycle(detail::DynInstNode *node) noexcept
    {
#ifdef MSSR_ASAN_POOL
        ASAN_POISON_MEMORY_REGION(&node->inst, sizeof(DynInst));
#endif
        node->nextFree = free_;
        free_ = node;
        --live_;
    }

    std::vector<std::unique_ptr<detail::DynInstNode[]>> chunks_;
    detail::DynInstNode *free_ = nullptr;
    std::size_t live_ = 0;
};

inline void
DynInstPtr::release() noexcept
{
    if (node_ && --node_->refs == 0)
        node_->pool->recycle(node_);
}

} // namespace mssr

#endif // MSSR_CORE_DYN_INST_HH
