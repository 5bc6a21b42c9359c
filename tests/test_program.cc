/**
 * isa::Program content hash: it keys the checkpoint store, so it must
 * follow every change to the hashed state even though it is memoized,
 * travel with copies, and agree across threads that share a program.
 */

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <vector>

#include "isa/program.hh"
#include "workloads/micro.hh"

using namespace mssr;
using namespace mssr::isa;

namespace
{

/** A small program touching every part of the hashed state. */
Program
build()
{
    Program p;
    p.append(Inst{Op::ADDI, 5, 0, 0, 7});
    p.append(Inst{Op::ADD, 6, 5, 5, 0});
    const Addr a = p.allocData("a", 16);
    p.initData64(a, 0x1122334455667788ull);
    p.initData64(a + 8, std::vector<std::int64_t>{-1});
    p.initBytes(p.allocData("b", 3), {1, 2, 3});
    p.setEntry(p.codeBase() + InstBytes);
    return p;
}

} // namespace

TEST(ProgramHash, EqualsAFreshRebuild)
{
    const Program a = build();
    const std::uint64_t h = a.hash();
    EXPECT_EQ(a.hash(), h); // the memoized value
    EXPECT_EQ(build().hash(), h);
}

TEST(ProgramHash, EveryMutatorChangesIt)
{
    Program p = build();
    std::set<std::uint64_t> seen{p.hash()};
    const Addr a = p.label("a");
    const auto changed = [&](const char *what) {
        const std::uint64_t h = p.hash();
        EXPECT_TRUE(seen.insert(h).second) << what << " kept a stale hash";
        // A program built with the same calls from scratch agrees.
        Program fresh;
        for (const Inst &inst : p.insts())
            fresh.append(inst);
        for (const auto &[addr, bytes] : p.dataChunks())
            fresh.initBytes(addr, bytes);
        fresh.setEntry(p.entry());
        EXPECT_EQ(fresh.hash(), h) << what;
    };
    p.append(Inst{Op::XOR, 7, 6, 5, 0});
    changed("append");
    p.setEntry(p.codeBase());
    changed("setEntry");
    p.initData64(a, 42);
    changed("initData64(value)");
    p.initData64(a + 8, std::vector<std::int64_t>{3, 4});
    changed("initData64(values)");
    p.initBytes(a + 1, {9});
    changed("initBytes");
}

TEST(ProgramHash, CopiesCarryItAndDivergeIndependently)
{
    Program p = build();
    const std::uint64_t h = p.hash();
    const Program copy = p;
    EXPECT_EQ(copy.hash(), h);
    Program assigned;
    assigned = p;
    EXPECT_EQ(assigned.hash(), h);

    // Mutating the original leaves the copies' memo alone, and a copy
    // taken before the first hash() computes the same value.
    p.setEntry(p.codeBase());
    EXPECT_NE(p.hash(), h);
    EXPECT_EQ(copy.hash(), h);
    const Program unhashed = build();
    const Program unhashedCopy = unhashed;
    EXPECT_EQ(unhashedCopy.hash(), h);
}

TEST(ProgramHash, ConcurrentCallsOnASharedProgramAgree)
{
    workloads::MicroParams params;
    params.iterations = 50;
    const Program prog = workloads::makeNestedMispred(params);
    const std::uint64_t want = Program(prog).hash(); // a copy, unmemoized
    const Program &shared = prog;                    // not hashed yet
    std::vector<std::uint64_t> got(8);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < got.size(); ++t)
        threads.emplace_back([&shared, &got, t] {
            for (int i = 0; i < 100; ++i)
                got[t] = shared.hash();
        });
    for (std::thread &th : threads)
        th.join();
    for (std::uint64_t h : got)
        EXPECT_EQ(h, want);
}
