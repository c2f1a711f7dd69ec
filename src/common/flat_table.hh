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
 *  - Values live in a ValuePool of fixed-size blocks that never move,
 *    so references returned by find()/insert() stay valid across later
 *    inserts (fragment gathering holds pointers to several cached
 *    fragments while inserting more). reserve() sets aside raw blocks
 *    for the live bound; a value is constructed on first use.
 *  - A value's variable-length contents (a flow fragment's link lists)
 *    go in the table's payload arena, a bump arena the owner fills
 *    through payload(). Memory then follows the bytes live in the
 *    table, not the largest value each slot ever held.
 *  - clear() is a generational wipe: the generation counter bumps and
 *    every slot goes stale at once — zero slot-array traffic, no value
 *    destroyed, the payload arena rewound, and all capacity (slots, key
 *    arena, value pool, payload chunks) retained. spare() hands a wiped
 *    value out for the next insert to overwrite in place, so a refill
 *    allocates nothing unless its payload outgrows every earlier fill.
 *    The pool holds blocks for the live bound and no more.
 *  - Growth is opt-in (the Explorer memo grows; the Analyzer caches are
 *    bounded and wiped by their owner). Every buffer growth past what
 *    reserve() set aside — slots, key arena, value-pool blocks, payload
 *    chunks — bumps an allocation-event counter, so inserts within the
 *    bound and its payload hint read zero events, wipes and refills
 *    included. The counter cannot see heap memory a value allocates for
 *    itself; the allocation gate test, which counts global operator new,
 *    covers that.
 */

#ifndef GEMINI_COMMON_FLAT_TABLE_HH
#define GEMINI_COMMON_FLAT_TABLE_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
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

/**
 * Stable storage for a flat table's values: raw blocks of kBlock values
 * that never move. reserve() sets blocks aside without constructing
 * anything, so untouched reservations cost no page faults; build()
 * constructs values in index order on first use. Values outlive wipes:
 * only the destructor destroys them.
 *
 * A std::deque kept across wipes also never moves its values, but it
 * cannot reserve: it allocates a node per ~480 B fragment until the
 * table first reaches each size. Measured with a retained deque in
 * place of this pool, a warmed SA-style walk over 12-layer groups (cache
 * bound 2^14, not yet full) counted 690 allocation events instead of 0,
 * and a single-thread dse_screen run made 1.27M heap allocations instead
 * of 1.08M.
 */
template <typename Value>
class ValuePool
{
  public:
    ValuePool() = default;
    ValuePool(const ValuePool &) = delete;
    ValuePool &operator=(const ValuePool &) = delete;
    ~ValuePool()
    {
        for (std::size_t i = 0; i < built_; ++i)
            std::destroy_at(at(i));
    }

    /** Set aside raw storage for `n` values; true if it allocated. */
    bool
    reserve(std::size_t n)
    {
        const bool grows = blocks_.size() * kBlock < n;
        while (blocks_.size() * kBlock < n)
            blocks_.emplace_back(std::allocator<Value>().allocate(kBlock));
        return grows;
    }

    /** Value `i` (within the reservation), built on first use. */
    Value &
    build(std::size_t i)
    {
        for (; built_ <= i; ++built_)
            std::construct_at(at(built_));
        return *at(i);
    }

    /** An already-built value. */
    Value &operator[](std::size_t i) { return *at(i); }
    const Value &operator[](std::size_t i) const { return *at(i); }

  private:
    static constexpr std::size_t kBlock = 64;

    struct Free
    {
        void
        operator()(Value *p) const
        {
            std::allocator<Value>().deallocate(p, kBlock);
        }
    };

    Value *
    at(std::size_t i) const
    {
        return blocks_[i / kBlock].get() + i % kBlock;
    }

    std::vector<std::unique_ptr<Value, Free>> blocks_;
    std::size_t built_ = 0; ///< values [0, built_) are constructed
};

template <typename Value>
class FlatWordTable
{
  public:
    using Words = std::span<const std::int64_t>;

    FlatWordTable() { reserve(0); }

    /**
     * Bound the table to `entries` live entries and pre-size every buffer
     * so inserts up to the bound never reallocate. `words_per_key` sizes
     * the key arena and `payload_bytes` the payload arena, per entry
     * (hints; an arena grows — and counts the event — if entries run
     * longer). Keeps existing entries.
     */
    void
    reserve(std::size_t entries, std::size_t words_per_key = 24,
            std::size_t payload_bytes = 0)
    {
        bound_ = entries;
        wordsPerKey_ = words_per_key;
        std::size_t slots = 16;
        while (slots < 2 * (bound_ + 1))
            slots *= 2;
        if (slots > gens_.size())
            rehash(slots);
        arena_.reserve(bound_ * wordsPerKey_);
        pool_.reserve(bound_);
        payload_.reserve(bound_ * payload_bytes);
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
        payload_.reset();
    }

    /**
     * Probe for `key`. Returns the value or nullptr; either way `slot`
     * receives the probe's resting position, which insertAt() or
     * commitAt() may reuse *provided no insert or wipe happened in
     * between*.
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
                return &pool_[valIdx_[i]];
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
     * The value storage the next insert takes: a wiped entry's value,
     * with whatever contents and heap capacity it was left with, or a
     * freshly default-constructed one. Fill every field, then
     * commitAt(). The reference stays valid; nothing is inserted until
     * the commit, so a fill that throws leaves the table as it was.
     */
    Value &
    spare()
    {
        if (pool_.reserve(size_ + 1))
            ++allocEvents_;
        return pool_.build(size_);
    }

    /**
     * Insert `key` at the slot a just-failed find() returned, holding the
     * value spare() handed out. The key is interned; the returned
     * reference stays valid until clear().
     */
    Value &
    commitAt(std::size_t slot, Words key)
    {
        Value &value = spare();
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
        valIdx_[slot] = static_cast<std::uint32_t>(size_);
        if (arena_.size() + key.size() > arena_.capacity())
            ++allocEvents_;
        arena_.insert(arena_.end(), key.begin(), key.end());
        ++size_;
        return value;
    }

    /** Insert `value` at the slot a just-failed find() returned. */
    Value &
    insertAt(std::size_t slot, Words key, Value value)
    {
        spare() = std::move(value);
        return commitAt(slot, key);
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
               pool_[valIdx_[i]]);
        }
    }

    /**
     * Arena for the variable-length contents of the values this table
     * holds; clear() rewinds it, so contents must not outlive a wipe.
     */
    BumpArena &payload() { return payload_; }

    /** Buffer-growth events since construction (0 in steady state). */
    std::uint64_t
    allocEvents() const
    {
        return allocEvents_ + payload_.allocEvents();
    }

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
    ValuePool<Value> pool_; ///< value i belongs to the i-th insert
    BumpArena payload_;     ///< values' variable-length contents
};

/**
 * Bounded memo over two FlatWordTable generations, young and old, each
 * bounded to half the entries. Inserts go to the young generation; a
 * find() that misses it but hits the old one moves the entry into the
 * young one. When the young generation fills, the old one is wiped and
 * the roles swap, so the entries used since the last swap survive a
 * wipe instead of all going at once. Entries are exact, so eviction
 * never changes a result, only how often one is recomputed. A value that
 * keeps contents in payload() provides relocate(BumpArena &), which
 * copies them into the given arena; moving the entry calls it.
 *
 * References returned by find()/commitAt() stay valid until the next
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
     * both generations (see FlatWordTable::reserve for the hints). Keeps
     * existing entries that fit.
     */
    void
    reserve(std::size_t entries, std::size_t words_per_key,
            std::size_t payload_bytes = 0)
    {
        entries_ = entries;
        for (FlatWordTable<Value> &g : gens_) {
            if (g.size() > entries / 2)
                g.clear();
            g.reserve(entries / 2, words_per_key, payload_bytes);
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
     * receives the position commitAt() takes.
     */
    Value *
    find(Words key, std::size_t &slot)
    {
        FlatWordTable<Value> &young = gens_[young_];
        if (Value *hit = young.find(key, slot))
            return hit;
        // Swapping keeps both values' buffers in the pools. The old
        // generation's entry is left holding the young spare's stale
        // contents, but the young entry shadows it until the old
        // generation is wiped. A value with contents in the old
        // generation's payload arena copies them into the young one's.
        if (Value *hit = gens_[young_ ^ 1].find(key)) {
            using std::swap;
            Value &moved = young.spare();
            swap(moved, *hit);
            if constexpr (requires { moved.relocate(young.payload()); })
                moved.relocate(young.payload());
            return &young.commitAt(slot, key);
        }
        return nullptr;
    }

    /** Reusable value storage for the next insert (see FlatWordTable). */
    Value &spare() { return gens_[young_].spare(); }

    /** The payload arena of the generation inserts go to. */
    BumpArena &payload() { return gens_[young_].payload(); }

    /** Insert at the slot a just-failed find() returned (see spare()). */
    Value &
    commitAt(std::size_t slot, Words key)
    {
        return gens_[young_].commitAt(slot, key);
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
