#include "core/dyn_inst.hh"

#include <cstdio>
#include <cstdlib>

namespace mssr
{

DynInstPool::~DynInstPool()
{
    if (live_ != 0) {
        // A handle outlives its pool: it would dangle into freed slots.
        std::fprintf(stderr,
                     "DynInstPool destroyed with %zu live instruction(s)\n",
                     live_);
        std::abort();
    }
#ifdef MSSR_ASAN_POOL
    for (auto &chunk : chunks_)
        ASAN_UNPOISON_MEMORY_REGION(chunk.get(),
                                    ChunkSlots * sizeof(detail::DynInstNode));
#endif
}

void
DynInstPool::grow()
{
    chunks_.push_back(std::make_unique<detail::DynInstNode[]>(ChunkSlots));
    detail::DynInstNode *chunk = chunks_.back().get();
    for (std::size_t i = ChunkSlots; i-- > 0;) {
        chunk[i].pool = this;
        chunk[i].nextFree = free_;
        free_ = &chunk[i];
    }
}

} // namespace mssr
