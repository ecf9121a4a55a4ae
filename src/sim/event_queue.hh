/**
 * @file
 * Discrete-event simulation kernel.
 *
 * The EventQueue holds (tick, sequence, callback) triples and fires them
 * in tick order; ties break in scheduling order so the simulation is
 * deterministic. Callbacks are stored in an EventCallback — a move-only
 * callable wrapper with 56 bytes of inline storage — so the common case
 * (component lambdas capturing a few pointers and a payload handle)
 * schedules without touching the global heap, unlike std::function whose
 * small-buffer window on mainstream libraries is 16 bytes. The queue is
 * an explicit binary heap over a std::vector, which lets callers
 * reserve() capacity up front and lets step() move the top record out
 * without const_cast gymnastics.
 */

#ifndef CEREAL_SIM_EVENT_QUEUE_HH
#define CEREAL_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace cereal {

/**
 * Move-only type-erased callable with a 56-byte inline buffer.
 *
 * Callables whose size and alignment fit the buffer live inline; larger
 * ones fall back to a single heap allocation. Relocation (vector growth
 * and heap sift operations move these around) is the captured type's
 * move constructor for inline storage and a pointer copy for the heap
 * fallback.
 */
class EventCallback
{
  public:
    static constexpr std::size_t kInlineBytes = 56;

    EventCallback() = default;

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, EventCallback>>>
    EventCallback(F &&f)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_r_v<void, Fn &>,
                      "event callback must be invocable as void()");
        if constexpr (fitsInline<Fn>()) {
            new (buf_) Fn(std::forward<F>(f));
            ops_ = inlineOps<Fn>();
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            ops_ = heapOps<Fn>();
        }
    }

    EventCallback(EventCallback &&other) noexcept
    {
        moveFrom(std::move(other));
    }

    EventCallback &
    operator=(EventCallback &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(std::move(other));
        }
        return *this;
    }

    EventCallback(const EventCallback &) = delete;
    EventCallback &operator=(const EventCallback &) = delete;

    ~EventCallback() { reset(); }

    void
    operator()()
    {
        panic_if(ops_ == nullptr, "invoking an empty EventCallback");
        ops_->invoke(buf_);
    }

    explicit operator bool() const { return ops_ != nullptr; }

    /** True when the wrapped callable lives in the inline buffer. */
    bool
    isInline() const
    {
        return ops_ != nullptr && ops_->inlineStorage;
    }

  private:
    struct Ops
    {
        void (*invoke)(void *);
        void (*relocate)(void *dst, void *src); // move-construct + destroy
        void (*destroy)(void *);
        bool inlineStorage;
    };

    template <typename Fn>
    static constexpr bool
    fitsInline()
    {
        return sizeof(Fn) <= kInlineBytes &&
               alignof(Fn) <= alignof(std::max_align_t) &&
               std::is_nothrow_move_constructible_v<Fn>;
    }

    template <typename Fn>
    static const Ops *
    inlineOps()
    {
        static const Ops ops = {
            [](void *p) { (*std::launder(reinterpret_cast<Fn *>(p)))(); },
            [](void *dst, void *src) {
                Fn *s = std::launder(reinterpret_cast<Fn *>(src));
                new (dst) Fn(std::move(*s));
                s->~Fn();
            },
            [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
            true,
        };
        return &ops;
    }

    template <typename Fn>
    static const Ops *
    heapOps()
    {
        static const Ops ops = {
            [](void *p) { (**reinterpret_cast<Fn **>(p))(); },
            [](void *dst, void *src) {
                *reinterpret_cast<Fn **>(dst) =
                    *reinterpret_cast<Fn **>(src);
            },
            [](void *p) { delete *reinterpret_cast<Fn **>(p); },
            false,
        };
        return &ops;
    }

    void
    moveFrom(EventCallback &&other) noexcept
    {
        ops_ = other.ops_;
        if (ops_) {
            ops_->relocate(buf_, other.buf_);
            other.ops_ = nullptr;
        }
    }

    void
    reset()
    {
        if (ops_) {
            ops_->destroy(buf_);
            ops_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
    const Ops *ops_ = nullptr;
};

/** Global discrete-event queue; one instance per simulated machine. */
class EventQueue
{
  public:
    using Callback = EventCallback;

    EventQueue() { heap_.reserve(64); }

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Pre-size the pending-event store for @p n events. */
    void reserve(std::size_t n) { heap_.reserve(n); }

    /** Schedule @p cb to run at absolute tick @p when (>= now). */
    void
    schedule(Tick when, Callback cb)
    {
        panic_if(when < now_, "scheduling event in the past (%llu < %llu)",
                 (unsigned long long)when, (unsigned long long)now_);
        heap_.push_back(Scheduled{when, nextSeq_++, std::move(cb)});
        siftUp(heap_.size() - 1);
    }

    /** Schedule @p cb to run @p delta ticks from now. */
    void
    scheduleIn(Tick delta, Callback cb)
    {
        schedule(now_ + delta, std::move(cb));
    }

    /** True if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of pending events. */
    std::size_t pending() const { return heap_.size(); }

    /** Tick of the next pending event (kMaxTick when empty). */
    Tick
    nextEventTick() const
    {
        return heap_.empty() ? kMaxTick : heap_.front().when;
    }

    /**
     * Run a single event.
     * @return true if an event was executed.
     */
    bool
    step()
    {
        if (heap_.empty()) {
            return false;
        }
        // Move the scheduled record out before re-heapifying: the
        // callback may schedule new events and mutate the heap.
        Scheduled ev = popTop();
        now_ = ev.when;
        ++executed_;
        ev.cb();
        return true;
    }

    /** Run until the queue drains; returns the final tick. */
    Tick
    runAll()
    {
        while (step()) {
        }
        return now_;
    }

    /** Run events up to and including tick @p until. */
    Tick
    runUntil(Tick until)
    {
        while (!heap_.empty() && heap_.front().when <= until) {
            step();
        }
        if (now_ < until) {
            now_ = until;
        }
        return now_;
    }

    /** Total events executed since construction. */
    std::uint64_t executedCount() const { return executed_; }

  private:
    struct Scheduled
    {
        Tick when;
        std::uint64_t seq;
        Callback cb;

        bool
        before(const Scheduled &o) const
        {
            if (when != o.when) {
                return when < o.when;
            }
            return seq < o.seq;
        }
    };

    void
    siftUp(std::size_t i)
    {
        while (i > 0) {
            const std::size_t parent = (i - 1) / 2;
            if (!heap_[i].before(heap_[parent])) {
                break;
            }
            std::swap(heap_[i], heap_[parent]);
            i = parent;
        }
    }

    Scheduled
    popTop()
    {
        Scheduled top = std::move(heap_.front());
        if (heap_.size() > 1) {
            heap_.front() = std::move(heap_.back());
        }
        heap_.pop_back();
        // Sift the displaced tail element down to its place.
        const std::size_t n = heap_.size();
        std::size_t i = 0;
        while (true) {
            const std::size_t l = 2 * i + 1;
            const std::size_t r = l + 1;
            std::size_t best = i;
            if (l < n && heap_[l].before(heap_[best])) {
                best = l;
            }
            if (r < n && heap_[r].before(heap_[best])) {
                best = r;
            }
            if (best == i) {
                break;
            }
            std::swap(heap_[i], heap_[best]);
            i = best;
        }
        return top;
    }

    std::vector<Scheduled> heap_;
    Tick now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::uint64_t executed_ = 0;
};

/**
 * Helper that models a clocked component: converts between the module's
 * local cycle count and global ticks given a fixed clock period.
 */
class ClockDomain
{
  public:
    /** @param period_ticks clock period in ticks (ps). */
    explicit ClockDomain(Tick period_ticks) : period_(period_ticks)
    {
        panic_if(period_ == 0, "zero clock period");
    }

    Tick period() const { return period_; }

    /** Ticks taken by @p n cycles. */
    Tick cyclesToTicks(Cycles n) const { return n * period_; }

    /** Cycles (rounded up) covering @p t ticks. */
    Cycles
    ticksToCycles(Tick t) const
    {
        return (t + period_ - 1) / period_;
    }

    /** The next tick at or after @p t that lies on a clock edge. */
    Tick
    clockEdge(Tick t) const
    {
        // Periods need not be powers of two; round up by division.
        return ((t + period_ - 1) / period_) * period_;
    }

  private:
    Tick period_;
};

} // namespace cereal

#endif // CEREAL_SIM_EVENT_QUEUE_HH
