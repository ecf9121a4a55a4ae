/**
 * @file
 * Arena/pool allocation layer for the simulator's own hot paths.
 *
 * The simulator pays for allocation twice: once in the *modeled* heap
 * (src/heap) and once in its own event loop (callback captures,
 * per-request bookkeeping). This header removes the second cost:
 *
 *  - Arena: a chunked bump allocator. alloc() is a pointer increment;
 *    reset() rewinds without returning chunks to the OS, so steady-state
 *    simulation loops allocate zero bytes from the global heap.
 *  - Pool<T>: a typed free-list over an Arena. acquire()/release()
 *    recycle fixed-size slots; released slots are ASan-poisoned so
 *    use-after-release is caught under sanitizers.
 *  - ContiguousBuffer: a geometrically growing flat byte buffer for the
 *    modeled heap's backing store. Unlike std::vector it exposes
 *    claimZeroed() so only the bytes actually handed out are zeroed,
 *    and growth keeps the base pointer semantics the Heap needs.
 *
 * Everything here is single-threaded by design, like the EventQueue:
 * one simulated machine lives on one host thread; concurrent sweep
 * points each build their own arenas.
 */

#ifndef CEREAL_SIM_ARENA_HH
#define CEREAL_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CEREAL_ASAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define CEREAL_ASAN 1
#endif

#ifdef CEREAL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cereal {
namespace sim {

/** Poison @p n bytes at @p p under ASan (no-op otherwise). */
inline void
poison(void *p, std::size_t n)
{
#ifdef CEREAL_ASAN
    __asan_poison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/** Unpoison @p n bytes at @p p under ASan (no-op otherwise). */
inline void
unpoison(void *p, std::size_t n)
{
#ifdef CEREAL_ASAN
    __asan_unpoison_memory_region(p, n);
#else
    (void)p;
    (void)n;
#endif
}

/**
 * Chunked bump allocator.
 *
 * alloc() carves aligned spans out of geometrically growing chunks;
 * requests larger than a chunk get a dedicated chunk. reset() rewinds
 * every chunk for reuse (and re-poisons the free space under ASan), so
 * an arena that has warmed up to its high-water mark never touches the
 * global heap again.
 */
class Arena
{
  public:
    /** @param chunk_bytes size of the first chunk (doubles as needed) */
    explicit Arena(std::size_t chunk_bytes = 64 * 1024)
        : nextChunkBytes_(chunk_bytes)
    {
        panic_if(chunk_bytes == 0, "zero arena chunk size");
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    ~Arena()
    {
        // Unpoison before the chunks are returned to the allocator:
        // freed-but-poisoned pages would trip ASan inside free().
        for (auto &c : chunks_) {
            unpoison(c.data.get(), c.size);
        }
    }

    /** Allocate @p bytes aligned to @p align (a power of two). */
    void *
    alloc(std::size_t bytes, std::size_t align = alignof(std::max_align_t))
    {
        panic_if(!isPowerOf2(align), "arena alignment must be 2^n");
        if (bytes == 0) {
            bytes = 1;
        }
        if (cur_ < chunks_.size()) {
            Chunk &c = chunks_[cur_];
            const std::size_t at = alignedOffset(c, align);
            if (at + bytes <= c.size) {
                c.used = at + bytes;
                void *p = c.data.get() + at;
                unpoison(p, bytes);
                bytesInUse_ += bytes;
                return p;
            }
        }
        return allocSlow(bytes, align);
    }

    /** Typed convenience: allocate and default-construct one T. */
    template <typename T, typename... Args>
    T *
    make(Args &&...args)
    {
        void *p = alloc(sizeof(T), alignof(T));
        return new (p) T(std::forward<Args>(args)...);
    }

    /**
     * Rewind every chunk. Previously handed-out spans become invalid
     * (and poisoned under ASan); the chunk memory is retained so the
     * next fill cycle allocates nothing from the global heap.
     */
    void
    reset()
    {
        for (auto &c : chunks_) {
            c.used = 0;
            poison(c.data.get(), c.size);
        }
        cur_ = chunks_.empty() ? 0 : 0;
        bytesInUse_ = 0;
    }

    /** Bytes handed out since construction/reset (excludes padding). */
    std::size_t bytesInUse() const { return bytesInUse_; }

    /** Total bytes owned across all chunks. */
    std::size_t
    bytesReserved() const
    {
        std::size_t total = 0;
        for (const auto &c : chunks_) {
            total += c.size;
        }
        return total;
    }

    /** Number of chunks acquired from the global heap. */
    std::size_t chunkCount() const { return chunks_.size(); }

  private:
    struct Chunk
    {
        std::unique_ptr<std::uint8_t[]> data;
        std::size_t size = 0;
        std::size_t used = 0;
    };

    static std::size_t
    alignUp(std::size_t v, std::size_t align)
    {
        return (v + align - 1) & ~(align - 1);
    }

    /**
     * First offset >= used at which base + offset is @p align-aligned.
     * Alignment is a property of the absolute address, not the chunk
     * offset — the chunk base is only max_align_t-aligned.
     */
    static std::size_t
    alignedOffset(const Chunk &c, std::size_t align)
    {
        const auto base = reinterpret_cast<std::uintptr_t>(c.data.get());
        return alignUp(base + c.used, align) - base;
    }

    void *
    allocSlow(std::size_t bytes, std::size_t align)
    {
        // Try later (already-reset) chunks before growing.
        for (std::size_t i = cur_ + 1; i < chunks_.size(); ++i) {
            Chunk &c = chunks_[i];
            const std::size_t at = alignedOffset(c, align);
            if (at + bytes <= c.size) {
                cur_ = i;
                c.used = at + bytes;
                void *p = c.data.get() + at;
                unpoison(p, bytes);
                bytesInUse_ += bytes;
                return p;
            }
        }
        std::size_t size = nextChunkBytes_;
        while (size < bytes + align) {
            size *= 2;
        }
        nextChunkBytes_ = size * 2;
        Chunk c;
        c.data = std::make_unique<std::uint8_t[]>(size);
        c.size = size;
        poison(c.data.get(), size);
        chunks_.push_back(std::move(c));
        cur_ = chunks_.size() - 1;
        Chunk &nc = chunks_.back();
        const std::size_t at = alignedOffset(nc, align);
        nc.used = at + bytes;
        void *p = nc.data.get() + at;
        unpoison(p, bytes);
        bytesInUse_ += bytes;
        return p;
    }

    std::vector<Chunk> chunks_;
    std::size_t cur_ = 0;
    std::size_t nextChunkBytes_;
    std::size_t bytesInUse_ = 0;
};

/**
 * Typed object pool: a free list of T slots carved from an Arena.
 *
 * acquire() constructs in a recycled (or freshly carved) slot; release()
 * destroys and poisons the slot. After warm-up the pool's steady state
 * performs zero global-heap allocations.
 */
template <typename T>
class Pool
{
  public:
    explicit Pool(std::size_t chunk_bytes = 64 * 1024)
        : arena_(chunk_bytes)
    {
    }

    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        panic_if(live_ != 0, "Pool destroyed with %zu live objects",
                 live_);
        // Slots on the free list are poisoned; unpoisoning happens in
        // ~Arena before the memory goes back to the allocator.
    }

    template <typename... Args>
    T *
    acquire(Args &&...args)
    {
        void *slot;
        if (!free_.empty()) {
            slot = free_.back();
            free_.pop_back();
            unpoison(slot, sizeof(T));
        } else {
            slot = arena_.alloc(sizeof(T), alignof(T));
        }
        ++live_;
        return new (slot) T(std::forward<Args>(args)...);
    }

    void
    release(T *obj)
    {
        panic_if(obj == nullptr, "Pool::release(nullptr)");
        panic_if(live_ == 0, "Pool::release() without a live object");
        obj->~T();
        poison(obj, sizeof(T));
        free_.push_back(obj);
        --live_;
    }

    /** Objects currently acquired. */
    std::size_t liveCount() const { return live_; }

    /** Slots waiting on the free list. */
    std::size_t freeCount() const { return free_.size(); }

  private:
    Arena arena_;
    std::vector<void *> free_;
    std::size_t live_ = 0;
};

/**
 * Flat, geometrically growing byte buffer for the modeled heap's
 * backing store.
 *
 * The Heap needs one contiguous host block (simulated addresses map to
 * base + offset), bump allocation, and zeroed object memory. A
 * std::vector delivers that but zero-fills every grown element and
 * re-zeroes nothing on reuse; this class only zeroes the spans actually
 * claimed, keeps growth amortized, and poisons the unclaimed tail under
 * ASan so out-of-bounds reads of not-yet-allocated heap words are
 * caught in sanitizer runs.
 */
class ContiguousBuffer
{
  public:
    explicit ContiguousBuffer(std::size_t initial_capacity = 0)
    {
        if (initial_capacity) {
            grow(initial_capacity);
        }
    }

    ContiguousBuffer(const ContiguousBuffer &) = delete;
    ContiguousBuffer &operator=(const ContiguousBuffer &) = delete;

    ~ContiguousBuffer()
    {
        if (data_) {
            unpoison(data_.get(), capacity_);
        }
    }

    /**
     * Extend the claimed region to @p bytes (monotonic), zeroing any
     * newly claimed span. Growth preserves existing contents; the base
     * pointer may move (callers index relative to data()).
     */
    void
    claimZeroed(std::size_t bytes)
    {
        if (bytes <= size_) {
            return;
        }
        if (bytes > capacity_) {
            std::size_t cap = capacity_ ? capacity_ : (std::size_t{1} << 16);
            while (cap < bytes) {
                cap *= 2;
            }
            grow(cap);
        }
        unpoison(data_.get() + size_, bytes - size_);
        std::memset(data_.get() + size_, 0, bytes - size_);
        size_ = bytes;
    }

    std::uint8_t *data() { return data_.get(); }
    const std::uint8_t *data() const { return data_.get(); }

    /** Bytes claimed (valid to address). */
    std::size_t size() const { return size_; }

    /** Bytes owned (claimed + poisoned tail). */
    std::size_t capacity() const { return capacity_; }

  private:
    void
    grow(std::size_t cap)
    {
        auto fresh = std::make_unique<std::uint8_t[]>(cap);
        if (size_) {
            std::memcpy(fresh.get(), data_.get(), size_);
        }
        if (data_) {
            unpoison(data_.get(), capacity_);
        }
        data_ = std::move(fresh);
        capacity_ = cap;
        poison(data_.get() + size_, capacity_ - size_);
    }

    std::unique_ptr<std::uint8_t[]> data_;
    std::size_t size_ = 0;
    std::size_t capacity_ = 0;
};

} // namespace sim
} // namespace cereal

#endif // CEREAL_SIM_ARENA_HH
