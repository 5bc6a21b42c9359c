/**
 * @file
 * Conditional branch direction predictor interface.
 *
 * Speculative vs retired history: predictions use a speculative global
 * history that is updated immediately with the predicted direction and
 * rolled back (from a snapshot) on squash; training at commit uses a
 * separately maintained retired history, so wrong-path pollution never
 * corrupts training.
 */

#ifndef MSSR_BPU_PREDICTOR_HH
#define MSSR_BPU_PREDICTOR_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "common/bitops.hh"
#include "common/types.hh"

namespace mssr
{

/**
 * Opaque speculative-state snapshot saved per prediction block and
 * restored on pipeline redirect. Large enough for any predictor here
 * (TAGE keeps a 256-bit history plus loop-predictor speculative state).
 */
struct PredSnapshot
{
    std::array<std::uint64_t, 6> words{};

    bool operator==(const PredSnapshot &) const = default;
};

/** The four 64-bit words of a 256-bit history, youngest bit first. */
using HistoryWords = std::array<std::uint64_t, 4>;

/**
 * The history bits that cross a word boundary on a shift: entry k is
 * the XOR of bit 63 of words [0, k - 1), i.e. of every boundary a fold
 * over k words spans (entries 0 and 1 are 0).
 */
using HistoryCarries = std::array<std::uint64_t, 5>;

/**
 * One folded-history register: value() always equals
 * GlobalHistory::fold(len, bits) of the history it follows, at O(1)
 * cost per shift instead of a full fold per read.
 *
 * fold() XORs, per 64-bit word, the word's share of the youngest
 * @p len bits (its chunk) folded down to @p bits -- chunk bit i lands
 * on output bit i % bits -- plus a per-chunk constant. That is linear
 * over XOR, and shifting a chunk by one rotates its fold by one, so a
 * single @p bits-wide circular register holds the XOR of all chunk
 * folds. Per shift: XOR out the bit leaving each chunk (at
 * (take - 1) % bits), rotate by one, then XOR in the entering bits at
 * bit 0 (the new outcome, and each lower word's old bit 63).
 */
class FoldedHistory
{
  public:
    FoldedHistory(unsigned len, unsigned bits) : len_(len), bits_(bits)
    {
        assert(bits < 64); // fold() itself needs out_bits < 64
        if (len == 0 || bits == 0)
            return; // mask_ 0: the register stays 0, like fold()
        const unsigned words = std::min(4u, (len + 63) / 64);
        const unsigned lastTake = std::min(64u, len - 64 * (words - 1));
        words_ = words;
        lastWord_ = words - 1;
        lastBit_ = std::uint64_t(1) << (lastTake - 1);
        lastPosBit_ = std::uint64_t(1) << ((lastTake - 1) % bits);
        topPosBit_ = std::uint64_t(1) << (63 % bits);
        rotBack_ = bits - 1;
        mask_ = mask(bits);
        for (unsigned w = 0; w < words; ++w)
            salt_ ^= (64 * w / bits) & 1 ? 0x2b : 0;
        salt_ &= mask_;
    }

    unsigned len() const { return len_; }
    unsigned bits() const { return bits_; }

    /** Equals GlobalHistory::fold(len(), bits()). */
    std::uint64_t value() const { return reg_ ^ salt_; }

    /**
     * Follows one shift of @p taken into history words @p before,
     * whose boundary-crossing bits are @p carries. Branch-free: this
     * runs for every register on every history shift.
     */
    void
    shift(const HistoryWords &before, const HistoryCarries &carries,
          bool taken)
    {
        // Full lower words: bit 63 leaves at 63 % bits and enters the
        // next chunk at bit 0; the last word's top chunk bit leaves.
        const std::uint64_t carry = carries[words_];
        const std::uint64_t leaving = (before[lastWord_] & lastBit_) != 0;
        std::uint64_t r = reg_ ^ (topPosBit_ & (0 - carry)) ^
                          (lastPosBit_ & (0 - leaving));
        r = (r << 1) | (r >> rotBack_);
        reg_ = (r ^ carry ^ (taken ? 1 : 0)) & mask_;
    }

    /** Recomputes the register from history words @p words. */
    void
    restore(const HistoryWords &words)
    {
        reg_ = 0;
        for (unsigned w = 0; w < words_; ++w)
            reg_ ^= foldXor(words[w] & (w < lastWord_ ? ~std::uint64_t(0)
                                                      : 2 * lastBit_ - 1),
                            bits_);
    }

  private:
    unsigned len_;
    unsigned bits_;
    unsigned words_ = 0;    //!< history words the fold reads (0 = none)
    unsigned lastWord_ = 0; //!< words_ - 1
    unsigned rotBack_ = 0;  //!< bits - 1
    std::uint64_t lastBit_ = 0;    //!< top chunk bit of the last word
    std::uint64_t lastPosBit_ = 0; //!< where it sits in the register
    std::uint64_t topPosBit_ = 0;  //!< bit 63 % bits
    std::uint64_t mask_ = 0; //!< mask(bits), 0 when the fold is 0
    std::uint64_t salt_ = 0; //!< XOR of fold()'s per-chunk constants
    std::uint64_t reg_ = 0;  //!< XOR of the chunk folds, bits wide
};

/**
 * Fixed 256-bit global branch history shift register, with optional
 * folded-history registers (track()) that follow every shift.
 */
class GlobalHistory
{
  public:
    static constexpr unsigned Bits = 256;

    /** Shifts in one outcome (1 = taken) as the youngest bit. */
    void
    shift(bool taken)
    {
        const HistoryWords before = words_;
        const std::uint64_t c2 = before[0] >> 63;
        const std::uint64_t c3 = c2 ^ (before[1] >> 63);
        const HistoryCarries carries{0, 0, c2, c3, c3 ^ (before[2] >> 63)};
        for (FoldedHistory &f : folds_)
            f.shift(before, carries, taken);
        words_[3] = (before[3] << 1) | (before[2] >> 63);
        words_[2] = (before[2] << 1) | (before[1] >> 63);
        words_[1] = (before[1] << 1) | (before[0] >> 63);
        words_[0] = (before[0] << 1) | (taken ? 1 : 0);
    }

    /**
     * Folds the youngest @p hist_len history bits down to @p out_bits
     * by XOR; used to form TAGE/gshare indices and tags. The reference
     * definition: hot paths read a tracked register instead.
     */
    std::uint64_t
    fold(unsigned hist_len, unsigned out_bits) const
    {
        if (out_bits == 0 || hist_len == 0)
            return 0;
        std::uint64_t out = 0;
        unsigned consumed = 0;
        unsigned word = 0;
        while (consumed < hist_len && word < 4) {
            const unsigned take = std::min(64u, hist_len - consumed);
            std::uint64_t chunk = words_[word] & mask(take);
            // Rotate the chunk by the bit offset so folds of different
            // lengths decorrelate, then fold into out_bits.
            out ^= foldXor(chunk, out_bits) ^
                   ((consumed / out_bits) & 1 ? 0x2b : 0);
            consumed += take;
            ++word;
        }
        return out & mask(out_bits);
    }

    /**
     * Keeps fold(@p hist_len, @p out_bits) in a folded register from
     * now on and returns its slot for folded(). A pair that is already
     * tracked returns its existing slot, so histories that track the
     * same pairs in the same order hand out the same slots.
     */
    unsigned
    track(unsigned hist_len, unsigned out_bits)
    {
        for (unsigned i = 0; i < folds_.size(); ++i)
            if (folds_[i].len() == hist_len && folds_[i].bits() == out_bits)
                return i;
        folds_.emplace_back(hist_len, out_bits);
        folds_.back().restore(words_);
        return static_cast<unsigned>(folds_.size() - 1);
    }

    /** fold() of the pair tracked in @p slot. */
    std::uint64_t folded(unsigned slot) const { return folds_[slot].value(); }

    const HistoryWords &words() const { return words_; }

    /** Replaces the history (snapshot restore); refolds every register. */
    void
    restore(const HistoryWords &words)
    {
        words_ = words;
        for (FoldedHistory &f : folds_)
            f.restore(words_);
    }

  private:
    HistoryWords words_{};
    std::vector<FoldedHistory> folds_;
};

/** Abstract conditional-branch direction predictor. */
class DirPredictor
{
  public:
    virtual ~DirPredictor() = default;

    /** Predicts the direction of the branch at @p pc. */
    virtual bool predict(Addr pc) = 0;

    /** Shifts the predicted outcome into the speculative history. */
    virtual void specUpdate(Addr pc, bool taken) = 0;

    /** Captures speculative state (before specUpdate of this branch). */
    virtual PredSnapshot snapshot() const = 0;

    /** Restores speculative state from @p snap on redirect. */
    virtual void restore(const PredSnapshot &snap) = 0;

    /** Trains with a retired branch outcome; updates retired history. */
    virtual void commitUpdate(Addr pc, bool taken) = 0;
};

} // namespace mssr

#endif // MSSR_BPU_PREDICTOR_HH
