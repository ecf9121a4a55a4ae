/**
 * @file
 * The micro-sd workload and the replay pieces its ledger is built from.
 *
 * micro-sd round-trips the six Fig 10 object graphs through the five
 * software backends (measureSoftware: serializer narration into the
 * core model, caches and DRAM) and through Cereal (measureCereal: the
 * accelerator model). One unit is one (graph, backend) pair.
 *
 * Its ledger takes one software round trip apart from the outside: the
 * serializer's narration is recorded once by a Narration sink, then
 * replayed into a fresh CoreModel, into a standalone L1->L2->L3 cache
 * chain, and the chain's DRAM traffic into a standalone Dram.
 */

#ifndef HOSTBENCH_MICRO_SD_HH
#define HOSTBENCH_MICRO_SD_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "cpu/core_model.hh"
#include "hostbench/ledger.hh"
#include "serde/sink.hh"
#include "workloads/harness.hh"

namespace hostbench {

/** A serializer's narration, recorded once, replayable into any sink. */
class Narration : public cereal::MemSink
{
  public:
    enum class Op : std::uint8_t
    {
        Load,
        Store,
        LoadDep,
        Compute,
        Streamlined,
        Phase,
    };

    struct Event
    {
        /** Address, op count, or (Phase) the name literal's address. */
        std::uint64_t arg;
        std::uint32_t bytes;
        Op op;
    };

    void load(cereal::Addr addr, std::uint32_t bytes) override;
    void store(cereal::Addr addr, std::uint32_t bytes) override;
    void loadDep(cereal::Addr addr, std::uint32_t bytes) override;
    void compute(std::uint64_t ops) override;
    void computeStreamlined(std::uint64_t ops) override;
    void phase(const char *name) override;

    /** Replay every event, in order, into @p sink. */
    void replay(cereal::MemSink &sink) const;

    std::vector<Event> &events() { return events_; }
    const std::vector<Event> &events() const { return events_; }

  private:
    std::vector<Event> events_;
};

/** One DRAM command the cache chain sends below the L3. */
struct DramOp
{
    cereal::Addr addr;
    bool write;
};

/** What the standalone cache chain saw. */
struct CacheChainResult
{
    /** Accesses summed over L1, L2 and L3. */
    std::uint64_t accesses = 0;
    std::uint64_t l3Accesses = 0;
    std::uint64_t l3Misses = 0;
    /** L3 dirty-victim writebacks and misses, in the order sent. */
    std::vector<DramOp> dramOps;
};

/**
 * Replay @p n's cache-line stream through standalone caches sized from
 * @p cfg, with the core model's policy: a level is asked only when the
 * one above missed, and only L3 victims are written back.
 */
CacheChainResult replayCacheChain(const Narration &n,
                                  const cereal::CoreConfig &cfg);

/** Send @p ops back to back to a fresh Dram; returns its accesses. */
std::uint64_t replayDram(const std::vector<DramOp> &ops);

/** Cross-check: the replayed core reproduces the live serialize stats. */
bool coreReplayMatches(const cereal::workloads::SdMeasurement &live,
                       const cereal::CoreRunStats &replayed);

/** Cross-check: the cache chain saw the core's L3 access count. */
bool cacheChainMatches(const CacheChainResult &chain,
                       const cereal::CoreRunStats &replayed);

struct MicroParams
{
    /** Divisor of the paper's graph sizes (MicroWorkloads::build). */
    std::uint64_t scale = 128;
    /**
     * Flip one byte of each stream before the warm-up check decodes it,
     * so a test can see the check count failures.
     */
    bool corruptStream = false;
};

std::unique_ptr<Workload> makeMicroSd(const MicroParams &params = {});

} // namespace hostbench

#endif // HOSTBENCH_MICRO_SD_HH
