/**
 * @file
 * Open-addressing flat hash table keyed by flattened int64 word spans — the
 * shared memoization substrate of the evaluation pipeline (the Analyzer's
 * fragment caches and the intra-core Explorer memo).
 *
 * Design points, all driven by the SA hot loop (millions of probes per
 * run, exact keys, generational wipes):
 *
 *  - SoA slot metadata (generation stamps, hashes, key refs, value ids):
 *    a probe touches two small parallel arrays, not a node per entry.
 *  - Keys are interned into a bump arena of raw words; equality is a
 *    length check plus a word compare. No per-key heap allocation.
 *  - Values live in a deque so references returned by find()/insert()
 *    stay valid across later inserts (fragment gathering holds pointers
 *    to several cached fragments while inserting more).
 *  - clear() is a generational wipe: the generation counter bumps and
 *    every slot goes stale at once — O(live values) for destruction,
 *    zero slot-array traffic, and all capacity (slots, arena, probe
 *    buffers) is retained, so a wipe-and-refill cycle allocates nothing.
 *  - Growth is opt-in (the Explorer memo grows; the Analyzer caches are
 *    bounded and wiped by their owner). Every buffer growth — slots,
 *    arena — bumps an allocation-event counter so benchmarks can assert
 *    the steady state is allocation-free.
 */

#ifndef GEMINI_COMMON_FLAT_TABLE_HH
#define GEMINI_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <deque>
#include <span>
#include <vector>

#include "src/common/arena.hh"
#include "src/common/logging.hh"

namespace gemini::common {

/** FNV-1a over a word span (the hash every flat-table key uses). */
inline std::uint64_t
hashWords(std::span<const std::int64_t> words)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (std::int64_t w : words) {
        h ^= static_cast<std::uint64_t>(w);
        h *= 0x100000001B3ull;
    }
    return h;
}

template <typename Value>
class FlatWordTable
{
  public:
    using Words = std::span<const std::int64_t>;

    FlatWordTable() { reserve(0); }

    /**
     * Bound the table to `entries` live entries and pre-size every buffer
     * so inserts up to the bound never reallocate. `words_per_key` sizes
     * the key arena (a hint; the arena grows — and counts the event — if
     * keys run longer). Keeps existing entries.
     */
    void
    reserve(std::size_t entries, std::size_t words_per_key = 24)
    {
        bound_ = entries;
        wordsPerKey_ = words_per_key;
        std::size_t slots = 16;
        while (slots < 2 * (bound_ + 1))
            slots *= 2;
        if (slots > gens_.size())
            rehash(slots);
        arena_.reserve(bound_ * wordsPerKey_);
    }

    /** Live entry bound (insertion past it grows or asserts; see grow). */
    std::size_t capacity() const { return bound_; }
    std::size_t size() const { return size_; }
    bool full() const { return size_ >= bound_; }

    /**
     * Grow instead of asserting when an insert hits the bound. Off by
     * default: the Analyzer caches are bounded and their owner wipes
     * them; the Explorer memo is unbounded and opts in.
     */
    void setGrowable(bool growable) { growable_ = growable; }

    /** Generational wipe: all entries stale at once, capacity retained. */
    void
    clear()
    {
        if (++gen_ == 0) { // stamp wrap: start a fresh epoch
            gens_.fill(0u);
            gen_ = 1;
        }
        size_ = 0;
        arena_.clear(); // keeps capacity
        values_.clear();
    }

    /**
     * Probe for `key`. Returns the value or nullptr; either way `slot`
     * receives the probe's resting position, which insertAt() may reuse
     * *provided no insert or wipe happened in between*.
     */
    Value *
    find(Words key, std::size_t &slot)
    {
        const std::uint64_t h = hashWords(key);
        const std::size_t mask = gens_.size() - 1;
        std::size_t i = static_cast<std::size_t>(h) & mask;
        while (gens_[i] == gen_) {
            if (hashes_[i] == h && keyEquals(i, key)) {
                slot = i;
                return &values_[valIdx_[i]];
            }
            i = (i + 1) & mask;
        }
        slot = i;
        return nullptr;
    }

    Value *
    find(Words key)
    {
        std::size_t slot;
        return find(key, slot);
    }

    /**
     * Insert at the slot a just-failed find() returned. The key is
     * interned; the returned reference stays valid until clear().
     */
    Value &
    insertAt(std::size_t slot, Words key, Value value)
    {
        if (size_ >= bound_) {
            GEMINI_ASSERT(growable_,
                          "flat table over capacity; owner must wipe");
            reserve(bound_ == 0 ? 16 : bound_ * 2, wordsPerKey_);
            ++allocEvents_; // rehash reallocated the slot arrays
            (void)find(key, slot);
        }
        const std::uint64_t h = hashWords(key);
        gens_[slot] = gen_;
        hashes_[slot] = h;
        keyOff_[slot] = static_cast<std::uint32_t>(arena_.size());
        keyLen_[slot] = static_cast<std::uint32_t>(key.size());
        valIdx_[slot] = static_cast<std::uint32_t>(values_.size());
        if (arena_.size() + key.size() > arena_.capacity())
            ++allocEvents_;
        arena_.insert(arena_.end(), key.begin(), key.end());
        values_.push_back(std::move(value));
        ++size_;
        return values_.back();
    }

    /** find-or-fail insert for callers that did not keep the slot. */
    Value &
    insert(Words key, Value value)
    {
        std::size_t slot;
        Value *existing = find(key, slot);
        GEMINI_ASSERT(existing == nullptr, "duplicate flat-table key");
        return insertAt(slot, key, std::move(value));
    }

    /** Visit every live entry as (key words, value), in slot (probe)
     * order — NOT insertion order; callers must be order-insensitive. */
    template <typename Fn>
    void
    forEach(Fn &&fn) const
    {
        const std::size_t n = gens_.size();
        for (std::size_t i = 0; i < n; ++i) {
            if (gens_[i] != gen_)
                continue;
            fn(Words{arena_.data() + keyOff_[i], keyLen_[i]},
               values_[valIdx_[i]]);
        }
    }

    /** Buffer-growth events since construction (0 in steady state). */
    std::uint64_t allocEvents() const { return allocEvents_; }

  private:
    bool
    keyEquals(std::size_t slot, Words key) const
    {
        return keyLen_[slot] == key.size() &&
               std::memcmp(arena_.data() + keyOff_[slot], key.data(),
                           key.size() * sizeof(std::int64_t)) == 0;
    }

    void
    rehash(std::size_t slots)
    {
        common::ZeroVec<std::uint32_t> old_gens = std::move(gens_);
        common::ZeroVec<std::uint64_t> old_hashes = std::move(hashes_);
        common::ZeroVec<std::uint32_t> old_off = std::move(keyOff_);
        common::ZeroVec<std::uint32_t> old_len = std::move(keyLen_);
        common::ZeroVec<std::uint32_t> old_val = std::move(valIdx_);

        // Demand-zero metadata: gen_ is never 0 (the wrap handler skips
        // it), so a zero generation stamp is universally stale and the
        // other arrays are only read behind a stamp match — no slot
        // array is written (or faulted in) until a probe lands on it.
        gens_.resizeZero(slots);
        hashes_.resizeZero(slots);
        keyOff_.resizeZero(slots);
        keyLen_.resizeZero(slots);
        valIdx_.resizeZero(slots);

        const std::size_t mask = slots - 1;
        for (std::size_t i = 0; i < old_gens.size(); ++i) {
            if (old_gens[i] != gen_)
                continue;
            std::size_t j =
                static_cast<std::size_t>(old_hashes[i]) & mask;
            while (gens_[j] == gen_)
                j = (j + 1) & mask;
            gens_[j] = gen_;
            hashes_[j] = old_hashes[i];
            keyOff_[j] = old_off[i];
            keyLen_[j] = old_len[i];
            valIdx_[j] = old_val[i];
        }
    }

    std::size_t bound_ = 0;
    std::size_t wordsPerKey_ = 24;
    std::size_t size_ = 0;
    bool growable_ = false;
    std::uint32_t gen_ = 1;
    std::uint64_t allocEvents_ = 0;

    // SoA slot metadata (parallel arrays, power-of-two length). Backed
    // by demand-zero storage so an oversized reservation costs only the
    // pages probes actually touch (see rehash).
    common::ZeroVec<std::uint32_t> gens_;
    common::ZeroVec<std::uint64_t> hashes_;
    common::ZeroVec<std::uint32_t> keyOff_;
    common::ZeroVec<std::uint32_t> keyLen_;
    common::ZeroVec<std::uint32_t> valIdx_;

    std::vector<std::int64_t> arena_; ///< interned key words
    std::deque<Value> values_;        ///< stable value storage
};

/**
 * Bounded memo over two FlatWordTable generations, young and old, each
 * bounded to half the entries. Inserts go to the young generation; a
 * find() that misses it but hits the old one moves the entry into the
 * young one. When the young generation fills, the old one is wiped and
 * the roles swap, so the entries used since the last swap survive a
 * wipe instead of all going at once. Entries are exact, so eviction
 * never changes a result, only how often one is recomputed.
 *
 * References returned by find()/insertAt() stay valid until the next
 * makeRoom() or clear(): only those two evict.
 */
template <typename Value>
class FlatWordCache
{
  public:
    using Words = typename FlatWordTable<Value>::Words;

    FlatWordCache()
    {
        // makeRoom() bounds a caller's batch of inserts, not each one:
        // a batch larger than a generation overshoots it.
        for (FlatWordTable<Value> &g : gens_)
            g.setGrowable(true);
    }

    /**
     * Bound the cache to `entries` live entries in total and pre-size
     * both generations. Keeps existing entries that fit.
     */
    void
    reserve(std::size_t entries, std::size_t words_per_key)
    {
        entries_ = entries;
        for (FlatWordTable<Value> &g : gens_) {
            if (g.size() > entries / 2)
                g.clear();
            g.reserve(entries / 2, words_per_key);
        }
    }

    std::size_t size() const { return gens_[0].size() + gens_[1].size(); }

    void
    clear()
    {
        gens_[0].clear();
        gens_[1].clear();
    }

    /**
     * Make room for up to `inserts` inserts: swap generations now when
     * the young one cannot take them. Call before a batch of finds and
     * inserts whose references must stay valid together.
     */
    void
    makeRoom(std::size_t inserts)
    {
        if (gens_[young_].size() + inserts <= entries_ / 2)
            return;
        young_ ^= 1;
        gens_[young_].clear();
    }

    /**
     * Probe for `key`; on a hit in the old generation, move the entry
     * into the young one. Returns the value or nullptr; on a miss `slot`
     * receives the position insertAt() takes.
     */
    Value *
    find(Words key, std::size_t &slot)
    {
        FlatWordTable<Value> &young = gens_[young_];
        if (Value *hit = young.find(key, slot))
            return hit;
        // The moved-from value stays behind in the old generation, but
        // the young copy shadows it until the old generation is wiped.
        if (Value *hit = gens_[young_ ^ 1].find(key))
            return &young.insertAt(slot, key, std::move(*hit));
        return nullptr;
    }

    /** Insert at the slot a just-failed find() returned. */
    Value &
    insertAt(std::size_t slot, Words key, Value value)
    {
        return gens_[young_].insertAt(slot, key, std::move(value));
    }

    /** Buffer-growth events of both generations. */
    std::uint64_t
    allocEvents() const
    {
        return gens_[0].allocEvents() + gens_[1].allocEvents();
    }

  private:
    FlatWordTable<Value> gens_[2];
    std::size_t young_ = 0;
    std::size_t entries_ = 0;
};

} // namespace gemini::common

#endif // GEMINI_COMMON_FLAT_TABLE_HH
