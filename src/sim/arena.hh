/**
 * @file
 * Flat backing store for the modeled heap, plus the ASan poison
 * helpers it uses.
 *
 * ContiguousBuffer is a geometrically growing flat byte buffer. Unlike
 * std::vector it exposes claimZeroed() so only the bytes actually
 * handed out are zeroed, and growth keeps the base pointer semantics
 * the Heap needs. Single-threaded by design, like the EventQueue: one
 * simulated machine lives on one host thread.
 */

#ifndef CEREAL_SIM_ARENA_HH
#define CEREAL_SIM_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

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
