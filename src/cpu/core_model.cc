#include "cpu/core_model.hh"

#include <algorithm>
#include <cstring>

#include "sim/logging.hh"

namespace cereal {

CoreModel::CoreModel(Dram &dram, const CoreConfig &cfg, Tick start_tick)
    : dram_(&dram), cfg_(cfg),
      l1_(cfg.l1), l2_(cfg.l2), l3_(cfg.l3),
      startTick_(start_tick), period_(periodFromMHz(cfg.freqMHz)),
      metrics_(metrics::current(), "cpu.core")
{
    dramBytesAtStart_ = dram.bytesRead() + dram.bytesWritten();

    if (metrics_.enabled()) {
        metrics_.gauge("miss_window",
                       "outstanding overlapped DRAM misses",
                       [this] {
                           return static_cast<double>(outstanding_.size());
                       });
        metrics_.ratio("mlp_stall_frac",
                       "fraction of core time stalled on the MLP window",
                       [this] {
                           return static_cast<double>(mlpStallTicks_);
                       },
                       [this] {
                           return static_cast<double>(curTick() -
                                                      startTick_);
                       });
        metrics_.ratio("dep_stall_frac",
                       "fraction of core time stalled on dependent loads",
                       [this] {
                           return static_cast<double>(depStallTicks_);
                       },
                       [this] {
                           return static_cast<double>(curTick() -
                                                      startTick_);
                       });
        metrics_.ratio("ipc", "instructions retired per core cycle",
                       [this] { return static_cast<double>(insts_); },
                       [this] { return cycles_; });
    }
}

Tick
CoreModel::curTick() const
{
    return startTick_ + static_cast<Tick>(cycles_ * period_);
}

void
CoreModel::setTrace(trace::TraceEmitter em)
{
    trace_ = std::move(em);
    phaseName_ = "run";
    phaseStart_ = curTick();
}

void
CoreModel::phase(const char *name)
{
    if (!trace_.enabled() || std::strcmp(name, phaseName_) == 0) {
        return;
    }
    const Tick now = curTick();
    if (now > phaseStart_) {
        trace_.span(phaseName_, phaseStart_, now);
    }
    phaseName_ = name;
    phaseStart_ = now;
}

void
CoreModel::compute(std::uint64_t ops)
{
    insts_ += ops;
    cycles_ += static_cast<double>(ops) * cfg_.cpiBase;
    metrics_.tick(curTick());
}

void
CoreModel::computeStreamlined(std::uint64_t ops)
{
    insts_ += ops;
    cycles_ += static_cast<double>(ops) * cfg_.cpiStraightLine;
    metrics_.tick(curTick());
}

void
CoreModel::waitForWindowSlot()
{
    // Retire already-completed misses for free.
    const Tick now = curTick();
    while (!outstanding_.empty() && outstanding_.front() <= now) {
        outstanding_.pop_front();
    }
    // If the window is still full, the core stalls until the oldest
    // miss retires.
    const Tick stallFrom = now;
    while (outstanding_.size() >= cfg_.missWindow) {
        Tick done = outstanding_.front();
        outstanding_.pop_front();
        if (done > curTick()) {
            cycles_ = static_cast<double>(done - startTick_) /
                      static_cast<double>(period_);
        }
    }
    if (curTick() > stallFrom) {
        mlpStallTicks_ += curTick() - stallFrom;
        trace_.span("mlp_stall", stallFrom, curTick());
    }
}

Tick
CoreModel::lineAccess(Addr line_addr, bool write, bool dependent)
{
    ++insts_;
    cycles_ += cfg_.issueCycles;

    auto r1 = l1_.access(line_addr, write);
    if (r1.hit) {
        cycles_ += cfg_.l1HitCycles;
        return 0;
    }
    auto r2 = l2_.access(line_addr, write);
    if (r2.hit) {
        cycles_ += static_cast<double>(cfg_.l2.hitLatency) *
                   (1.0 - cfg_.hitOverlap);
        return 0;
    }
    auto r3 = l3_.access(line_addr, write);
    if (r3.hit) {
        cycles_ += static_cast<double>(cfg_.l3.hitLatency) *
                   (1.0 - cfg_.hitOverlap);
        return 0;
    }

    // L3 victim writeback: fire-and-forget DRAM write (buffered, does
    // not occupy the core's miss window).
    if (r3.writeback) {
        dram_->access(r3.victimAddr, true, curTick());
    }

    if (dependent) {
        // Pointer chase: nothing can overlap; the core observes the
        // full round trip.
        const Tick stallFrom = curTick();
        auto res = dram_->access(line_addr, write, stallFrom);
        cycles_ = std::max(
            cycles_, static_cast<double>(res.completeTick - startTick_) /
                         static_cast<double>(period_));
        if (curTick() > stallFrom) {
            depStallTicks_ += curTick() - stallFrom;
            trace_.span("dep_stall", stallFrom, curTick());
        }
        metrics_.tick(curTick());
        return res.completeTick;
    }

    // Independent miss: overlapped up to the window limit.
    waitForWindowSlot();
    auto res = dram_->access(line_addr, write, curTick());
    outstanding_.push_back(res.completeTick);
    metrics_.tick(curTick());
    return res.completeTick;
}

void
CoreModel::load(Addr addr, std::uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    for (Addr a = first; a <= last; a += 64) {
        lineAccess(a, false, false);
    }
}

void
CoreModel::loadDep(Addr addr, std::uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    // Only the first line is the chase target; the rest of the object
    // header streams behind it.
    lineAccess(first, false, true);
    for (Addr a = first + 64; a <= last; a += 64) {
        lineAccess(a, false, false);
    }
}

void
CoreModel::store(Addr addr, std::uint32_t bytes)
{
    if (bytes == 0) {
        return;
    }
    const Addr first = roundDown(addr, 64);
    const Addr last = roundDown(addr + bytes - 1, 64);
    for (Addr a = first; a <= last; a += 64) {
        lineAccess(a, true, false);
    }
}

void
CoreModel::drain()
{
    const Tick stallFrom = curTick();
    while (!outstanding_.empty()) {
        Tick done = outstanding_.front();
        outstanding_.pop_front();
        if (done > curTick()) {
            cycles_ = static_cast<double>(done - startTick_) /
                      static_cast<double>(period_);
        }
    }
    if (curTick() > stallFrom) {
        mlpStallTicks_ += curTick() - stallFrom;
        trace_.span("mlp_stall", stallFrom, curTick());
    }
}

CoreRunStats
CoreModel::finish()
{
    drain();
    metrics_.tick(curTick());
    // Close the last phase span so phase spans tile the whole region.
    if (trace_.enabled() && curTick() > phaseStart_) {
        trace_.span(phaseName_, phaseStart_, curTick());
        phaseStart_ = curTick();
    }
    CoreRunStats out;
    out.elapsedTicks = curTick() - startTick_;
    out.instructions = insts_;
    double total_cycles = cycles_;
    out.ipc = total_cycles > 0
                  ? static_cast<double>(insts_) / total_cycles
                  : 0;
    out.llcMissRate = l3_.missRate();
    out.llcAccesses = l3_.accesses();
    out.dramBytes = dram_->bytesRead() + dram_->bytesWritten() -
                    dramBytesAtStart_;
    out.seconds = ticksToSeconds(out.elapsedTicks);
    out.bandwidthUtil =
        out.seconds > 0
            ? (static_cast<double>(out.dramBytes) / out.seconds) /
                  dram_->config().peakBandwidth()
            : 0;
    return out;
}

} // namespace cereal
