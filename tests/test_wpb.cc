#include <gtest/gtest.h>

#include "reuse/wpb.hh"

using namespace mssr;

namespace
{

std::vector<WpbEntry>
ranges(std::initializer_list<std::pair<Addr, Addr>> list)
{
    std::vector<WpbEntry> out;
    for (auto [s, e] : list)
        out.push_back(WpbEntry{true, s, e});
    return out;
}

} // namespace

TEST(Wpb, RoundRobinAllocation)
{
    Wpb wpb(2, 4, false);
    EXPECT_EQ(wpb.writeStream(ranges({{0x1000, 0x101c}}), 10, 1), 0u);
    EXPECT_EQ(wpb.writeStream(ranges({{0x2000, 0x201c}}), 20, 2), 1u);
    EXPECT_EQ(wpb.writeStream(ranges({{0x3000, 0x301c}}), 30, 3), 0u);
    EXPECT_EQ(wpb.stream(0).originBranchSeq, 30u);
    EXPECT_EQ(wpb.stream(1).originBranchSeq, 20u);
}

TEST(Wpb, CapacityDropsYoungerBlocks)
{
    Wpb wpb(1, 2, false);
    wpb.writeStream(ranges({{0x1000, 0x101c},
                            {0x2000, 0x201c},
                            {0x3000, 0x301c}}),
                    1, 1);
    const WpbStream &s = wpb.stream(0);
    EXPECT_TRUE(s.entries[0].valid);
    EXPECT_TRUE(s.entries[1].valid);
    EXPECT_EQ(s.entries[1].startPC, 0x2000u);
    EXPECT_EQ(s.numInsts(), 16u); // 2 blocks x 8 insts
}

TEST(Wpb, VpnRestrictionTruncatesAtPageBoundary)
{
    Wpb wpb(1, 8, true);
    // Second block on a different 4K page: dropped.
    wpb.writeStream(ranges({{0x1000, 0x101c}, {0x5000, 0x501c}}), 1, 1);
    const WpbStream &s = wpb.stream(0);
    EXPECT_TRUE(s.entries[0].valid);
    EXPECT_FALSE(s.entries[1].valid);
    EXPECT_EQ(s.vpn, 0x1u);
}

TEST(Wpb, InvalidateAndAnyValid)
{
    Wpb wpb(2, 4, false);
    EXPECT_FALSE(wpb.anyValid());
    wpb.writeStream(ranges({{0x1000, 0x1000}}), 1, 1);
    EXPECT_TRUE(wpb.anyValid());
    wpb.invalidate(0);
    EXPECT_FALSE(wpb.anyValid());
    wpb.writeStream(ranges({{0x1000, 0x1000}}), 2, 2);
    wpb.invalidateAll();
    EXPECT_FALSE(wpb.anyValid());
}

TEST(Wpb, EmptyRangesLeaveStreamInvalid)
{
    Wpb wpb(2, 4, false);
    wpb.writeStream({}, 5, 1);
    EXPECT_FALSE(wpb.stream(0).valid);
}

TEST(Wpb, StreamInstCount)
{
    Wpb wpb(1, 4, false);
    wpb.writeStream(ranges({{0x1000, 0x1004}, {0x2000, 0x2000}}), 1, 1);
    EXPECT_EQ(wpb.stream(0).numInsts(), 3u);
}

TEST(Wpb, ShorterRewriteShrinksFilledPrefix)
{
    // M > 64: a long stream, then a shorter one into the same slot.
    // The valid entries must be exactly the new prefix; the old tail
    // is invalid and counts toward neither numInsts nor occupancy.
    Wpb wpb(1, 128, false);
    std::vector<WpbEntry> longRanges;
    for (unsigned i = 0; i < 100; ++i)
        longRanges.push_back(
            WpbEntry{true, 0x4000 + i * 0x20, 0x401c + i * 0x20});
    wpb.writeStream(longRanges, 1, 1);
    EXPECT_EQ(wpb.stream(0).numFilled, 100u);
    EXPECT_EQ(wpb.stream(0).numInsts(), 800u);

    wpb.writeStream(ranges({{0x9000, 0x9004}, {0x9100, 0x9100}}), 2, 2);
    const WpbStream &s = wpb.stream(0);
    EXPECT_EQ(s.numFilled, 2u);
    EXPECT_EQ(s.numInsts(), 3u);
    EXPECT_DOUBLE_EQ(wpb.occupancy(), 2.0 / 128.0);
    for (unsigned i = 0; i < 128; ++i)
        EXPECT_EQ(s.entries[i].valid, i < 2) << i;

    wpb.invalidate(0);
    EXPECT_EQ(wpb.stream(0).numFilled, 0u);
    EXPECT_EQ(wpb.stream(0).numInsts(), 0u);
    EXPECT_FALSE(wpb.stream(0).entries[0].valid);
    EXPECT_DOUBLE_EQ(wpb.occupancy(), 0.0);
}
