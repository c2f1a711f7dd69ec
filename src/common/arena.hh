/**
 * @file
 * Chunked bump arena for hot-path scratch: steady-state allocation is a
 * pointer bump into a retained chunk, so a warmed arena never touches the
 * heap again. reset() rewinds to empty but keeps every chunk, and every
 * chunk acquisition bumps an allocation-event counter — the same
 * "counters prove zero steady-state allocations" discipline the flat
 * cache tables use (common/flat_table.hh), asserted by the delta-eval
 * steady-state test.
 *
 * Only trivially-destructible element types make sense here: reset()
 * runs no destructors.
 */

#ifndef GEMINI_COMMON_ARENA_HH
#define GEMINI_COMMON_ARENA_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define GEMINI_ZEROVEC_MMAP 1
#endif

namespace gemini::common {

/**
 * Fixed-size dense array whose elements default to all-zero bits, backed
 * by calloc: a fresh sizing maps demand-zero pages without writing them,
 * so only the pages actually touched ever fault in. Sizing a multi-
 * megabyte table costs microseconds instead of a full first-touch sweep
 * — the difference between a dense nodeCount^2 table being "free until
 * used" and paying a page fault per 4 KiB up front. std::vector cannot
 * express this: value-initialization writes (and faults) every element.
 *
 * Element types must be trivially copyable and destructible, and their
 * all-zero bit pattern must be a valid "empty" value (0.0, 0, nullptr).
 */
template <typename T>
class ZeroVec
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "ZeroVec elements are raw zeroed storage");

  public:
    ZeroVec() = default;
    ~ZeroVec() { release(); }

    ZeroVec(const ZeroVec &) = delete;
    ZeroVec &operator=(const ZeroVec &) = delete;

    ZeroVec(ZeroVec &&o) noexcept
        : data_(o.data_), size_(o.size_), mapped_(o.mapped_)
    {
        o.data_ = nullptr;
        o.size_ = 0;
        o.mapped_ = false;
    }
    ZeroVec &
    operator=(ZeroVec &&o) noexcept
    {
        if (this != &o) {
            release();
            data_ = o.data_;
            size_ = o.size_;
            mapped_ = o.mapped_;
            o.data_ = nullptr;
            o.size_ = 0;
            o.mapped_ = false;
        }
        return *this;
    }

    /**
     * Size to `n` elements, all zero, discarding previous contents. The
     * new storage comes from a fresh anonymous mapping: calloc through a
     * recycled heap block would have to memset, which is exactly the
     * full-table sweep this type exists to avoid.
     *
     * Mid-size tables (up to kPopulateCap) are prefaulted in one syscall:
     * consumers scatter-touch most pages right away, and several hundred
     * scattered minor faults (~1.7 µs each, measured) cost 10× what one
     * MAP_POPULATE sweep does. Only beyond the cap — tables too big to
     * plausibly sweep — does the mapping stay demand-zero, paying a fault
     * per touched page in exchange for "free until used" sizing.
     */
    void
    resizeZero(std::size_t n)
    {
        release();
        if (n == 0)
            return;
        const std::size_t bytes = n * sizeof(T);
#ifdef GEMINI_ZEROVEC_MMAP
        if (bytes >= kMmapThreshold) {
#ifdef MAP_POPULATE
            const int populate =
                bytes <= kPopulateCap ? MAP_POPULATE : 0;
#else
            const int populate = 0; // macOS: demand-zero only
#endif
            void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                             MAP_PRIVATE | MAP_ANONYMOUS | populate, -1,
                             0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            data_ = static_cast<T *>(p);
            size_ = n;
            mapped_ = true;
            return;
        }
#endif
        data_ = static_cast<T *>(std::calloc(n, sizeof(T)));
        if (data_ == nullptr)
            throw std::bad_alloc();
        size_ = n;
    }

    /** Overwrite every element (used for rare non-zero re-stamps). */
    void fill(T v) { std::fill_n(data_, size_, v); }

    std::size_t size() const { return size_; }
    T *data() { return data_; }
    const T *data() const { return data_; }
    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

  private:
    /** Below this, calloc (cheap anyway); at or above, anonymous map. */
    static constexpr std::size_t kMmapThreshold = 64 * 1024;

    /** Prefault mappings up to this size; larger ones stay demand-zero. */
    static constexpr std::size_t kPopulateCap = 8 * 1024 * 1024;

    void
    release()
    {
        if (data_ == nullptr)
            return;
#ifdef GEMINI_ZEROVEC_MMAP
        if (mapped_) {
            ::munmap(data_, size_ * sizeof(T));
            data_ = nullptr;
            size_ = 0;
            mapped_ = false;
            return;
        }
#endif
        std::free(data_);
        data_ = nullptr;
        size_ = 0;
    }

    T *data_ = nullptr;
    std::size_t size_ = 0;
    bool mapped_ = false;
};

/** A growable bump allocator with retained chunks. */
class BumpArena
{
  public:
    /** `chunk_bytes` is the growth granularity (also the first chunk). */
    explicit BumpArena(std::size_t chunk_bytes = 64 * 1024)
        : chunkBytes_(chunk_bytes < kMinChunk ? kMinChunk : chunk_bytes)
    {
    }

    BumpArena(const BumpArena &) = delete;
    BumpArena &operator=(const BumpArena &) = delete;

    /**
     * Bump-allocate `count` elements of T (trivially destructible),
     * aligned for T. Falls back to acquiring a chunk — counted as an
     * allocation event — only when the current chunk cannot fit.
     */
    template <typename T>
    std::span<T>
    allocSpan(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "BumpArena never runs destructors");
        const std::size_t bytes = count * sizeof(T);
        void *p = bump(bytes, alignof(T));
        return {static_cast<T *>(p), count};
    }

    /** Bump-allocate a copy of `src`. */
    template <typename T>
    std::span<T>
    copySpan(std::span<const T> src)
    {
        const std::span<T> out = allocSpan<T>(src.size());
        std::uninitialized_copy(src.begin(), src.end(), out.begin());
        return out;
    }

    /**
     * Hold at least `bytes` across the retained chunks. A reservation is
     * sizing, not growth: allocEvents() does not count it. Chunk memory
     * is left uninitialized, so reserved pages the arena never hands out
     * are never written.
     */
    void
    reserve(std::size_t bytes)
    {
        const std::size_t held = bytesReserved();
        if (held < bytes)
            chunks_.push_back(chunkOf(bytes - held));
    }

    /** Rewind to empty; every chunk (and its pages) is retained. */
    void
    reset()
    {
        cursor_ = 0;
        chunkIdx_ = 0;
        used_ = 0;
    }

    /** Chunk acquisitions since construction (heap allocations). */
    std::uint64_t allocEvents() const { return allocEvents_; }

    /** Bytes handed out since the last reset (alignment included). */
    std::size_t bytesUsed() const { return used_; }

    /** Total bytes held across retained chunks. */
    std::size_t
    bytesReserved() const
    {
        std::size_t total = 0;
        for (const Chunk &c : chunks_)
            total += c.size;
        return total;
    }

  private:
    static constexpr std::size_t kMinChunk = 4096;

    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    /** A fresh chunk; its bytes stay unwritten until handed out. */
    static Chunk
    chunkOf(std::size_t size)
    {
        return {std::make_unique_for_overwrite<std::byte[]>(size), size};
    }

    void *
    bump(std::size_t bytes, std::size_t align)
    {
        for (;;) {
            if (chunkIdx_ < chunks_.size()) {
                Chunk &c = chunks_[chunkIdx_];
                const std::size_t base = reinterpret_cast<std::uintptr_t>(
                                             c.data.get() + cursor_) %
                                         align;
                const std::size_t pad = base == 0 ? 0 : align - base;
                if (cursor_ + pad + bytes <= c.size) {
                    void *p = c.data.get() + cursor_ + pad;
                    cursor_ += pad + bytes;
                    used_ += pad + bytes;
                    return p;
                }
                // Current chunk exhausted: advance to the next retained
                // chunk (possibly acquiring a fresh one below).
                ++chunkIdx_;
                cursor_ = 0;
                continue;
            }
            chunks_.push_back(chunkOf(
                bytes + align > chunkBytes_ ? bytes + align : chunkBytes_));
            ++allocEvents_;
            cursor_ = 0;
        }
    }

    std::size_t chunkBytes_;
    std::vector<Chunk> chunks_;
    std::size_t chunkIdx_ = 0; ///< chunk currently bumped into
    std::size_t cursor_ = 0;   ///< offset into the current chunk
    std::size_t used_ = 0;
    std::uint64_t allocEvents_ = 0;
};

} // namespace gemini::common

#endif // GEMINI_COMMON_ARENA_HH
