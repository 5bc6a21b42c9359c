/**
 * Direction-predictor behaviour tests: learnability of simple
 * patterns, speculative-history snapshot/restore, and the expected
 * capability ordering (TAGE handles history-correlated patterns that
 * bimodal cannot).
 */

#include <gtest/gtest.h>

#include <functional>

#include "bpu/bimodal.hh"
#include "bpu/gshare.hh"
#include "bpu/loop_predictor.hh"
#include "bpu/statistical_corrector.hh"
#include "bpu/tage.hh"
#include "bpu/tage_sc_l.hh"
#include "common/rng.hh"

using namespace mssr;

namespace
{

/**
 * Trains @p pred on @p pattern(i) for a branch at @p pc and returns
 * the accuracy over the last quarter of @p iters trials.
 */
double
accuracy(DirPredictor &pred, Addr pc, unsigned iters,
         const std::function<bool(unsigned)> &pattern)
{
    unsigned correct = 0, measured = 0;
    for (unsigned i = 0; i < iters; ++i) {
        const bool taken = pattern(i);
        const bool guess = pred.predict(pc);
        pred.specUpdate(pc, taken); // in-order: spec follows actual
        pred.commitUpdate(pc, taken);
        if (i >= iters - iters / 4) {
            ++measured;
            correct += guess == taken ? 1 : 0;
        }
    }
    return static_cast<double>(correct) / measured;
}

} // namespace

TEST(Bimodal, LearnsBias)
{
    BimodalPredictor pred;
    EXPECT_GT(accuracy(pred, 0x1000, 400, [](unsigned) { return true; }),
              0.99);
    BimodalPredictor pred2;
    EXPECT_GT(accuracy(pred2, 0x1000, 400, [](unsigned) { return false; }),
              0.99);
}

TEST(Bimodal, CannotLearnAlternation)
{
    BimodalPredictor pred;
    const double acc =
        accuracy(pred, 0x2000, 1000, [](unsigned i) { return i % 2 == 0; });
    EXPECT_LT(acc, 0.7); // 2-bit counters thrash on T/N/T/N
}

TEST(Gshare, LearnsShortPattern)
{
    GsharePredictor pred;
    EXPECT_GT(accuracy(pred, 0x3000, 4000,
                       [](unsigned i) { return i % 3 == 0; }),
              0.95);
}

TEST(Tage, LearnsLongPeriodicPattern)
{
    TagePredictor pred;
    // Period-20 pattern: needs real history, defeats bimodal.
    EXPECT_GT(accuracy(pred, 0x4000, 20000,
                       [](unsigned i) { return (i % 20) < 7; }),
              0.95);
}

TEST(Tage, RandomIsUnpredictable)
{
    TagePredictor pred;
    Rng rng(3);
    std::vector<bool> outcomes;
    for (int i = 0; i < 8000; ++i)
        outcomes.push_back(rng.chance(0.5));
    const double acc = accuracy(pred, 0x5000, 8000,
                                [&](unsigned i) { return outcomes[i]; });
    EXPECT_LT(acc, 0.62); // near coin-flip on true randomness
}

TEST(Tage, SnapshotRestoreRoundTrip)
{
    TagePredictor pred;
    TagePredictor twin; // sees the same branches but never diverges
    Rng rng(11);
    for (int i = 0; i < 3000; ++i) {
        const Addr pc = 0x100 + 4 * (rng.next() % 32);
        const bool taken = i % 3 == 0 || rng.chance(0.2);
        for (TagePredictor *p : {&pred, &twin}) {
            p->predict(pc);
            p->specUpdate(pc, taken);
            p->commitUpdate(pc, taken);
        }
    }
    for (int i = 0; i < 50; ++i) {
        pred.specUpdate(0x100, i % 3 == 0);
        twin.specUpdate(0x100, i % 3 == 0);
    }
    const PredSnapshot snap = pred.snapshot();
    const bool before = pred.predict(0x100);
    // Pollute speculative history (wrong path), then restore.
    for (int i = 0; i < 30; ++i)
        pred.specUpdate(0x104, true);
    pred.restore(snap);
    EXPECT_EQ(pred.predict(0x100), before);

    // From here on the restored predictor is indistinguishable from
    // the twin: its folded history registers were rebuilt exactly.
    for (int i = 0; i < 2000; ++i) {
        const Addr pc = 0x100 + 4 * (rng.next() % 64);
        const bool taken = rng.chance(0.6);
        ASSERT_EQ(pred.predict(pc), twin.predict(pc)) << "branch " << i;
        pred.specUpdate(pc, taken);
        twin.specUpdate(pc, taken);
        pred.commitUpdate(pc, taken);
        twin.commitUpdate(pc, taken);
    }
}

TEST(TageScL, SnapshotRestoreMatchesANeverDivergedTwin)
{
    TageScLPredictor pred;
    TageScLPredictor twin;
    Rng rng(12);
    for (int i = 0; i < 2000; ++i) {
        const Addr pc = 0x200 + 4 * (rng.next() % 32);
        const bool taken = rng.chance(0.7);
        for (TageScLPredictor *p : {&pred, &twin}) {
            p->predict(pc);
            p->specUpdate(pc, taken);
            p->commitUpdate(pc, taken);
        }
    }
    const PredSnapshot snap = pred.snapshot();
    for (int i = 0; i < 40; ++i)
        pred.specUpdate(0x300, i % 2 == 0);
    pred.restore(snap);
    twin.restore(snap); // the loop predictor resyncs the same way
    for (int i = 0; i < 2000; ++i) {
        const Addr pc = 0x200 + 4 * (rng.next() % 32);
        const bool taken = rng.chance(0.7);
        ASSERT_EQ(pred.predict(pc), twin.predict(pc)) << "branch " << i;
        for (TageScLPredictor *p : {&pred, &twin}) {
            p->specUpdate(pc, taken);
            p->commitUpdate(pc, taken);
        }
    }
}

TEST(TageScL, LoopPredictorCapturesFixedTripLoops)
{
    // Trip count 37 defeats short-history predictors; the loop
    // predictor should nail the exit after warmup.
    TageScLPredictor pred;
    const double acc = accuracy(pred, 0x6000, 37 * 300, [](unsigned i) {
        return (i % 37) != 36; // taken 36x, exit once
    });
    EXPECT_GT(acc, 0.99);
}

TEST(LoopPredictor, LearnsTripCount)
{
    LoopPredictor loop(64, 3, /*min_trip*/ 0);
    const Addr pc = 0x7000;
    // Warm up several full loop executions with trip count 5.
    for (int rep = 0; rep < 6; ++rep) {
        for (int i = 0; i < 5; ++i) {
            const bool taken = i != 4;
            loop.specUpdate(pc, taken);
            loop.commitUpdate(pc, taken);
        }
    }
    // Now confident: predicts taken for 4 iterations then exit.
    for (int i = 0; i < 5; ++i) {
        const auto p = loop.predict(pc);
        ASSERT_TRUE(p.valid) << "iteration " << i;
        EXPECT_EQ(p.taken, i != 4) << "iteration " << i;
        loop.specUpdate(pc, i != 4);
        loop.commitUpdate(pc, i != 4);
    }
}

TEST(LoopPredictor, SquashResyncsSpeculativeState)
{
    LoopPredictor loop(64, 0, 0); // no thresholds: always valid
    const Addr pc = 0x8000;
    for (int rep = 0; rep < 4; ++rep)
        for (int i = 0; i < 4; ++i) {
            loop.specUpdate(pc, i != 3);
            loop.commitUpdate(pc, i != 3);
        }
    // Speculatively advance without commits, then squash.
    loop.specUpdate(pc, true);
    loop.specUpdate(pc, true);
    loop.squash();
    // After squash the speculative iteration equals the committed one,
    // so the prediction sequence restarts from the beginning.
    const auto p = loop.predict(pc);
    EXPECT_TRUE(p.valid);
    EXPECT_TRUE(p.taken);
}

TEST(StatisticalCorrector, LearnsDisagreement)
{
    StatisticalCorrector sc;
    GlobalHistory hist;
    const Addr pc = 0x9000;
    // TAGE always says taken; reality is always not-taken.
    for (int i = 0; i < 200; ++i)
        sc.train(pc, true, false, hist);
    EXPECT_TRUE(sc.shouldRevert(pc, true, true, hist));
    // Strong (non-weak) TAGE predictions are never reverted.
    EXPECT_FALSE(sc.shouldRevert(pc, true, false, hist));
}

TEST(StatisticalCorrector, FoldedRegistersMatchFoldingTheWords)
{
    GlobalHistory hist;
    StatisticalCorrector folded;
    StatisticalCorrector plain; // folds the history words on each read
    folded.useFoldedHistory([&hist](unsigned len, unsigned bits) {
        return hist.track(len, bits);
    });
    Rng rng(14);
    for (int i = 0; i < 5000; ++i) {
        const Addr pc = 0x400 + 4 * (rng.next() % 64);
        const bool tagePred = rng.chance(0.5);
        const bool taken = rng.chance(0.5);
        ASSERT_EQ(folded.confidence(pc, tagePred, hist),
                  plain.confidence(pc, tagePred, hist))
            << "branch " << i;
        folded.train(pc, tagePred, taken, hist);
        plain.train(pc, tagePred, taken, hist);
        hist.shift(taken);
    }
}

TEST(GlobalHistory, FoldStability)
{
    GlobalHistory a, b;
    for (int i = 0; i < 100; ++i) {
        a.shift(i % 3 == 0);
        b.shift(i % 3 == 0);
    }
    EXPECT_EQ(a.fold(64, 10), b.fold(64, 10));
    a.shift(true);
    b.shift(false);
    EXPECT_NE(a.fold(4, 10), b.fold(4, 10));
}

TEST(FoldedHistory, EqualsFoldOverRandomShiftsAndRestores)
{
    // Every (len, bits) pair, including lengths that end mid-word, at
    // a word boundary, past one word, and the full (and over-full)
    // register.
    const unsigned lens[] = {0, 1, 4, 63, 64, 65, 127, 128, 200, 256, 300};
    GlobalHistory hist;
    struct Tracked
    {
        unsigned len, bits, slot;
    };
    std::vector<Tracked> tracked;
    Rng rng(13);
    for (int i = 0; i < 70; ++i) // start from a non-empty history
        hist.shift(rng.chance(0.5));
    for (unsigned len : lens)
        for (unsigned bits = 1; bits <= 13; ++bits)
            tracked.push_back({len, bits, hist.track(len, bits)});
    // Tracking a pair twice hands out the same register.
    EXPECT_EQ(hist.track(64, 10), hist.track(64, 10));

    auto check = [&](int step) {
        for (const Tracked &t : tracked)
            ASSERT_EQ(hist.folded(t.slot), hist.fold(t.len, t.bits))
                << "len " << t.len << " bits " << t.bits << " step " << step;
    };
    check(-1);
    HistoryWords saved = hist.words();
    for (int step = 0; step < 3000; ++step) {
        const std::uint64_t r = rng.next();
        if (r % 50 == 0) {
            hist.restore(saved); // squash back to an older history
        } else if (r % 50 == 1) {
            HistoryWords words;
            for (auto &w : words)
                w = rng.next();
            hist.restore(words);
        } else {
            hist.shift((r >> 8) & 1);
        }
        if (r % 7 == 0)
            saved = hist.words();
        check(step);
    }
}
