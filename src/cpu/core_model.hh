/**
 * @file
 * Timing model of a host CPU core executing software serialization.
 *
 * The model consumes the load/store/compute narration a serializer
 * emits (see serde/sink.hh) and advances a core clock through a cache
 * hierarchy (Table I: 32 KB L1, 1 MB L2, 11 MB L3) backed by the shared
 * DDR4 model. It captures the two structural limits the paper blames
 * for poor software S/D performance (Section III):
 *
 *  1. *Bounded memory-level parallelism.* Independent DRAM misses may
 *     overlap only up to `missWindow` outstanding requests — the
 *     instruction-window/LSQ/MSHR limit of an out-of-order core. A
 *     serializer that misses constantly therefore still utilises only a
 *     few percent of DRAM bandwidth (paper Figure 3c).
 *
 *  2. *Dependent (pointer-chasing) loads.* A loadDep cannot overlap
 *     with anything; the core stalls for the full memory round trip.
 *     Object-graph traversal is a chain of these.
 *
 * Everything else (ALU work, reflection string hashing, branchy
 * dispatch) is charged through a sustained base CPI.
 *
 * The model reports cycles, instructions, IPC, LLC miss rate, and DRAM
 * traffic — the exact quantities Figure 3 plots.
 */

#ifndef CEREAL_CPU_CORE_MODEL_HH
#define CEREAL_CPU_CORE_MODEL_HH

#include <deque>
#include <string>

#include "mem/cache.hh"
#include "mem/dram.hh"
#include "metrics/metrics.hh"
#include "serde/sink.hh"
#include "sim/types.hh"
#include "trace/trace.hh"

namespace cereal {

/** Core microarchitecture parameters (defaults: i7-7820X-like). */
struct CoreConfig
{
    /** Core clock, MHz. */
    double freqMHz = 3600;
    /** Sustained cycles per unit of non-memory work. */
    double cpiBase = 0.8;
    /**
     * Sustained cycles per unit of *straight-line* work
     * (MemSink::computeStreamlined): generated per-class serializer
     * code with no dispatch and no mispredicted branches issues wider
     * than the branchy reflective path cpiBase models.
     */
    double cpiStraightLine = 0.45;
    /** Cycles charged for an L1 hit (load-to-use, partially hidden). */
    double l1HitCycles = 0.5;
    /** Fraction of L2/L3 hit latency the OoO window hides. */
    double hitOverlap = 0.6;
    /** Maximum overlapped outstanding DRAM misses (MLP limit). */
    unsigned missWindow = 10;
    /** Cycles to issue a memory instruction (AGU + LSQ slot). */
    double issueCycles = 0.5;

    CacheConfig l1 = CacheConfig::l1();
    CacheConfig l2 = CacheConfig::l2();
    CacheConfig l3 = CacheConfig::l3();
};

/** Aggregated results of one timed region. */
struct CoreRunStats
{
    Tick elapsedTicks = 0;
    std::uint64_t instructions = 0;
    double ipc = 0;
    double llcMissRate = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t dramBytes = 0;
    /** Achieved DRAM bandwidth / peak bandwidth. */
    double bandwidthUtil = 0;
    double seconds = 0;
};

/**
 * One simulated core: a MemSink whose consumption of a serializer's
 * narration advances simulated time.
 */
class CoreModel : public MemSink, public trace::TraceClock
{
  public:
    /**
     * @param dram shared memory model; the core issues misses into it
     * @param start_tick simulated time at which this region begins
     */
    CoreModel(Dram &dram, const CoreConfig &cfg = CoreConfig(),
              Tick start_tick = 0);

    // MemSink interface -------------------------------------------------
    void load(Addr addr, std::uint32_t bytes) override;
    void store(Addr addr, std::uint32_t bytes) override;
    void loadDep(Addr addr, std::uint32_t bytes) override;
    void compute(std::uint64_t ops) override;
    void computeStreamlined(std::uint64_t ops) override;
    void phase(const char *name) override;

    /**
     * Attribute this core's time to @p em's track. Call right after
     * construction: phase spans tile [setTrace tick, finish tick], so
     * the trace's per-phase self times (phases plus the "mlp_stall" /
     * "dep_stall" spans nested inside them) sum exactly to the
     * region's elapsedTicks.
     */
    void setTrace(trace::TraceEmitter em);

    /** TraceClock: "now" for RAII spans around core-driven work. */
    Tick traceNow() const override { return curTick(); }

    /** Wait for all outstanding misses to complete. */
    void drain();

    /** Current core-local simulated time. */
    Tick curTick() const;

    /** Finish the region (drain + collect stats). */
    CoreRunStats finish();

    /** Instructions retired so far. */
    std::uint64_t instructions() const { return insts_; }

    const Cache &l3() const { return l3_; }
    Dram &dram() { return *dram_; }

  private:
    /** Access one cache line; returns DRAM completion tick (0 if hit). */
    Tick lineAccess(Addr line_addr, bool write, bool dependent);

    /** Block until the oldest outstanding miss retires. */
    void waitForWindowSlot();

    Dram *dram_;
    CoreConfig cfg_;
    Cache l1_;
    Cache l2_;
    Cache l3_;

    Tick startTick_;
    double cycles_ = 0;
    Tick period_;
    std::uint64_t insts_ = 0;
    std::uint64_t dramBytesAtStart_ = 0;

    /** Completion ticks of in-flight DRAM misses (FIFO retire). */
    std::deque<Tick> outstanding_;

    /**
     * Time-series registration with the ambient metrics recorder:
     * miss-window occupancy, stall fractions, and IPC.
     */
    metrics::Group metrics_;
    /** Ticks spent stalled on the MLP window / on dependent loads. */
    Tick mlpStallTicks_ = 0;
    Tick depStallTicks_ = 0;

    trace::TraceEmitter trace_;
    /** Current phase (literal) and the tick its span opened at. */
    const char *phaseName_ = "run";
    Tick phaseStart_ = 0;
};

} // namespace cereal

#endif // CEREAL_CPU_CORE_MODEL_HH
