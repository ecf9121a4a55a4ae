#include "cereal/accel/device.hh"

#include <algorithm>
#include <string>

#include "sim/logging.hh"

namespace cereal {

CerealDevice::CerealDevice(Dram &dram, const AccelConfig &cfg)
    : cfg_(cfg), tlb_(cfg.tlbEntries, cfg.pageBytes, cfg.tlbMissPenalty),
      suFreeAt_(cfg.numSU, 0), duFreeAt_(cfg.numDU, 0)
{
    for (unsigned i = 0; i < cfg_.numSU; ++i) {
        suMai_.push_back(
            std::make_unique<Mai>(dram, cfg_.maiEntries, &tlb_));
    }
    for (unsigned i = 0; i < cfg_.numDU; ++i) {
        duMai_.push_back(
            std::make_unique<Mai>(dram, cfg_.maiEntries, &tlb_));
    }

    metrics_ = metrics::Group(metrics::current(), "cereal.accel");
    if (metrics_.enabled()) {
        // Busy ticks accumulate monotonically (resetBusyStats() has no
        // in-tree callers), so rate deltas stay non-negative.
        metrics_.rate("su_busy_frac",
                      "mean busy fraction across serialization units",
                      [this] { return static_cast<double>(suBusy_); },
                      1.0 / static_cast<double>(cfg_.numSU));
        metrics_.rate("du_busy_frac",
                      "mean busy fraction across deserialization units",
                      [this] { return static_cast<double>(duBusy_); },
                      1.0 / static_cast<double>(cfg_.numDU));
        metrics_.ratio("mai_hit_rate",
                       "MAI coalesce/data-buffer hits per request",
                       [this] {
                           std::uint64_t hits = 0;
                           for (const auto &m : suMai_) {
                               hits += m->coalescedHits();
                           }
                           for (const auto &m : duMai_) {
                               hits += m->coalescedHits();
                           }
                           return static_cast<double>(hits);
                       },
                       [this] {
                           std::uint64_t reqs = 0;
                           for (const auto &m : suMai_) {
                               reqs += m->requests();
                           }
                           for (const auto &m : duMai_) {
                               reqs += m->requests();
                           }
                           return static_cast<double>(reqs);
                       });
    }
}

AccelOpResult
CerealDevice::serialize(Heap &heap, Addr root, Tick submit)
{
    const ClockDomain clk(cfg_.period());
    // Request scheduler: earliest-available SU.
    auto it = std::min_element(suFreeAt_.begin(), suFreeAt_.end());
    unsigned unit = static_cast<unsigned>(it - suFreeAt_.begin());
    Tick start = std::max(submit, *it) +
                 clk.cyclesToTicks(kDispatchCycles);

    Addr stream_base = nextStreamBase_;
    nextStreamBase_ += 0x4000'0000ULL;

    SerializationUnit su(*suMai_[unit], cfg_);
    if (unit < suTrace_.size()) {
        su.setTrace(suTrace_[unit]);
    }
    SuResult r = su.serialize(heap, root, start, stream_base);
    suFreeAt_[unit] = r.done;
    suBusy_ += r.done - start;
    metrics_.tick(r.done);
    if (unit < suTrace_.size()) {
        suTrace_[unit].span("serialize", start, r.done);
    }

    AccelOpResult out;
    out.submit = submit;
    out.start = start;
    out.done = r.done;
    out.unit = unit;
    out.latencySeconds = ticksToSeconds(r.done - submit);
    out.bytes = r.bytesRead + r.bytesWritten;
    return out;
}

AccelOpResult
CerealDevice::deserialize(const CerealStream &stream, Addr dst_base,
                          Tick submit)
{
    const ClockDomain clk(cfg_.period());
    auto it = std::min_element(duFreeAt_.begin(), duFreeAt_.end());
    unsigned unit = static_cast<unsigned>(it - duFreeAt_.begin());
    Tick start = std::max(submit, *it) +
                 clk.cyclesToTicks(kDispatchCycles);

    Addr stream_base = nextStreamBase_;
    nextStreamBase_ += 0x4000'0000ULL;

    DeserializationUnit du(*duMai_[unit], cfg_);
    DuResult r = du.deserialize(stream, stream_base, dst_base, start);
    duFreeAt_[unit] = r.done;
    duBusy_ += r.done - start;
    metrics_.tick(r.done);
    if (unit < duTrace_.size()) {
        duTrace_[unit].span("deserialize", start, r.done);
    }

    AccelOpResult out;
    out.submit = submit;
    out.start = start;
    out.done = r.done;
    out.unit = unit;
    out.latencySeconds = ticksToSeconds(r.done - submit);
    out.bytes = r.bytesRead + r.bytesWritten;
    return out;
}

Tick
CerealDevice::allIdleTick() const
{
    Tick t = 0;
    for (Tick f : suFreeAt_) {
        t = std::max(t, f);
    }
    for (Tick f : duFreeAt_) {
        t = std::max(t, f);
    }
    return t;
}

void
CerealDevice::resetBusyStats()
{
    suBusy_ = 0;
    duBusy_ = 0;
}

void
CerealDevice::setTrace(const trace::TraceEmitter &em)
{
    suTrace_.clear();
    duTrace_.clear();
    if (!em.enabled()) {
        return;
    }
    for (unsigned i = 0; i < cfg_.numSU; ++i) {
        suTrace_.push_back(em.sub(("su" + std::to_string(i)).c_str()));
        suMai_[i]->setTrace(suTrace_.back());
    }
    for (unsigned i = 0; i < cfg_.numDU; ++i) {
        duTrace_.push_back(em.sub(("du" + std::to_string(i)).c_str()));
        duMai_[i]->setTrace(duTrace_.back());
    }
}

} // namespace cereal
