#include <gtest/gtest.h>

#include "reuse/squash_log.hh"

using namespace mssr;

TEST(SquashLog, AppendAndCapacity)
{
    SquashLog log(2, 3);
    SquashLogEntry e;
    e.pc = 0x1000;
    EXPECT_TRUE(log.append(0, e));
    EXPECT_TRUE(log.append(0, e));
    EXPECT_TRUE(log.append(0, e));
    // Beyond capacity: younger squashed instructions are discarded.
    EXPECT_FALSE(log.append(0, e));
    EXPECT_EQ(log.stream(0).numEntries, 3u);
}

TEST(SquashLog, StreamsAreIndependent)
{
    SquashLog log(2, 4);
    SquashLogEntry e;
    e.pc = 0xaaa0;
    log.append(0, e);
    EXPECT_TRUE(log.stream(0).valid);
    EXPECT_FALSE(log.stream(1).valid);
    e.pc = 0xbbb0;
    log.append(1, e);
    EXPECT_EQ(log.stream(0).entries[0].pc, 0xaaa0u);
    EXPECT_EQ(log.stream(1).entries[0].pc, 0xbbb0u);
}

TEST(SquashLog, ClearStream)
{
    SquashLog log(1, 4);
    SquashLogEntry e;
    e.reserved = true;
    log.append(0, e);
    log.clearStream(0);
    EXPECT_FALSE(log.stream(0).valid);
    EXPECT_EQ(log.stream(0).numEntries, 0u);
    EXPECT_FALSE(log.stream(0).entries[0].valid);
    EXPECT_FALSE(log.stream(0).entries[0].reserved);
}

TEST(SquashLog, AllUnoccupiedTracksValidity)
{
    SquashLog log(2, 2);
    EXPECT_TRUE(log.allUnoccupied());
    SquashLogEntry e;
    log.append(1, e);
    EXPECT_FALSE(log.allUnoccupied());
    log.clearStream(1);
    EXPECT_TRUE(log.allUnoccupied());
}

TEST(SquashLog, EntryFieldsRoundTrip)
{
    SquashLog log(1, 2);
    SquashLogEntry e;
    e.pc = 0x1234;
    e.op = isa::Op::ADD;
    e.numSrcs = 2;
    e.srcRgid[0] = 5;
    e.srcRgid[1] = 6;
    e.dstRgid = 7;
    e.destPreg = 42;
    e.hasDest = true;
    e.executed = true;
    log.append(0, e);
    const SquashLogEntry &r = log.stream(0).entries[0];
    EXPECT_TRUE(r.valid);
    EXPECT_EQ(r.pc, 0x1234u);
    EXPECT_EQ(r.op, isa::Op::ADD);
    EXPECT_EQ(r.srcRgid[1], 6u);
    EXPECT_EQ(r.destPreg, 42u);
    EXPECT_TRUE(r.executed);
}

TEST(SquashLog, RefillAfterClearCarriesNoStaleFlags)
{
    // clearStream() resets only the logged prefix. Entries refilled
    // after a clear must not inherit the lifecycle flags of the
    // entries they replace.
    SquashLog log(1, 8);
    for (unsigned i = 0; i < 5; ++i) {
        SquashLogEntry e;
        e.pc = 0x1000 + 4 * i;
        log.append(0, e);
        SquashLogEntry &stored = log.stream(0).entries[i];
        stored.covered = stored.tested = true;
        stored.consumed = stored.reserved = true;
        stored.executed = true;
    }
    log.clearStream(0);
    EXPECT_EQ(log.stream(0).numEntries, 0u);
    EXPECT_DOUBLE_EQ(log.occupancy(), 0.0);
    for (unsigned i = 0; i < 5; ++i) {
        const SquashLogEntry &e = log.stream(0).entries[i];
        EXPECT_FALSE(e.valid || e.covered || e.tested || e.consumed ||
                     e.reserved || e.executed)
            << i;
    }

    SquashLogEntry fresh;
    fresh.pc = 0x2000;
    EXPECT_TRUE(log.append(0, fresh));
    EXPECT_TRUE(log.append(0, fresh));
    EXPECT_EQ(log.stream(0).numEntries, 2u);
    for (unsigned i = 0; i < 2; ++i) {
        const SquashLogEntry &e = log.stream(0).entries[i];
        EXPECT_TRUE(e.valid) << i;
        EXPECT_EQ(e.pc, 0x2000u) << i;
        EXPECT_FALSE(e.covered) << i;
        EXPECT_FALSE(e.tested) << i;
        EXPECT_FALSE(e.consumed) << i;
        EXPECT_FALSE(e.reserved) << i;
        EXPECT_FALSE(e.executed) << i;
    }
    EXPECT_DOUBLE_EQ(log.occupancy(), 2.0 / 8.0);
}
