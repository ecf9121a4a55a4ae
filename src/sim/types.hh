/**
 * @file
 * Fundamental scalar types shared by every simulator component.
 *
 * The simulator follows the gem5 convention of a single global time unit
 * (the "tick"). In this codebase one tick equals one picosecond, which
 * lets us express both a 3.6 GHz host core clock and DDR4 command timing
 * on a common axis without fractional arithmetic.
 */

#ifndef CEREAL_SIM_TYPES_HH
#define CEREAL_SIM_TYPES_HH

#include <cmath>
#include <cstdint>
#include <limits>

namespace cereal {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

/** A count of clock cycles in some module-local clock domain. */
using Cycles = std::uint64_t;

/** A simulated physical/virtual byte address. */
using Addr = std::uint64_t;

/** Sentinel for "no tick" / "never". */
constexpr Tick kMaxTick = std::numeric_limits<Tick>::max();

/** Sentinel for an invalid address. */
constexpr Addr kBadAddr = std::numeric_limits<Addr>::max();

/** Ticks per second (1 tick == 1 ps). */
constexpr Tick kTicksPerSecond = 1'000'000'000'000ULL;

/** Convert a frequency in MHz to the clock period in ticks. */
constexpr Tick
periodFromMHz(double mhz)
{
    // 1 tick = 1 ps, so period[ps] = 1e12 / (mhz * 1e6).
    return static_cast<Tick>(1e6 / mhz);
}

/** Convert a nanosecond quantity to ticks. */
constexpr Tick
nsToTicks(double ns)
{
    return static_cast<Tick>(ns * 1e3);
}

/** Convert a second quantity to ticks, rounding up. */
inline Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(
        std::ceil(s * static_cast<double>(kTicksPerSecond)));
}

/** Convert ticks to seconds (for reporting only). */
constexpr double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerSecond);
}

/** Round @p v up to the next multiple of @p align (power of two). */
constexpr Addr
roundUp(Addr v, Addr align)
{
    return (v + align - 1) & ~(align - 1);
}

/** Round @p v down to a multiple of @p align (power of two). */
constexpr Addr
roundDown(Addr v, Addr align)
{
    return v & ~(align - 1);
}

/** True if @p v is a power of two (and nonzero). */
constexpr bool
isPowerOf2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/** Integer log2 for powers of two. */
constexpr unsigned
floorLog2(std::uint64_t v)
{
    unsigned l = 0;
    while (v > 1) { v >>= 1; ++l; }
    return l;
}

} // namespace cereal

#endif // CEREAL_SIM_TYPES_HH
