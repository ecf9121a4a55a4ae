#include "mem/dram.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace cereal {

Dram::Dram(const std::string &, EventQueue &, const DramConfig &cfg)
    : cfg_(cfg)
{
    panic_if(!isPowerOf2(cfg_.burstBytes), "burst size must be 2^n");
    panic_if(!isPowerOf2(cfg_.numChannels), "channel count must be 2^n");
    panic_if(!isPowerOf2(cfg_.banksPerChannel), "bank count must be 2^n");

    channels_.resize(cfg_.numChannels);
    for (auto &ch : channels_) {
        ch.banks.resize(cfg_.banksPerChannel);
    }

    tRCD_ = nsToTicks(cfg_.tRCDns);
    tCAS_ = nsToTicks(cfg_.tCASns);
    tRP_ = nsToTicks(cfg_.tRPns);
    tBURST_ = nsToTicks(cfg_.tBURSTns);
    tCtrl_ = nsToTicks(cfg_.tCtrlNs);

    chBytes_.assign(cfg_.numChannels, 0);
    metrics_ = metrics::Group(metrics::current(), "mem.dram");
    if (metrics_.enabled()) {
        // One burst occupies a channel for tBURST_ ticks, so peak
        // per-channel throughput is burstBytes / tBURST_ bytes/tick.
        const double per_tick_peak =
            static_cast<double>(cfg_.burstBytes) /
            static_cast<double>(tBURST_);
        for (unsigned i = 0; i < cfg_.numChannels; ++i) {
            const std::string ch = "ch" + std::to_string(i);
            metrics_.rate(
                (ch + ".bw_util").c_str(),
                "achieved / peak bandwidth of this channel",
                [this, i] {
                    return static_cast<double>(chBytes_[i]);
                },
                1.0 / per_tick_peak);
            // A tick gauge: the backlog drains between commands, so
            // its depth depends on the boundary it is sampled at.
            metrics_.gauge(
                (ch + ".queue_depth").c_str(),
                "bursts queued ahead on this channel's data bus",
                [this, i](Tick t) {
                    const Tick free = channels_[i].busFreeAt;
                    return free > t ? static_cast<double>(free - t) /
                                          static_cast<double>(tBURST_)
                                    : 0.0;
                });
        }
        // Aggregate closures read the never-reset per-channel/cum
        // counters so a resetStats() mid-run cannot produce negative
        // deltas.
        metrics_.rate(
            "bw_util", "achieved / peak bandwidth across all channels",
            [this] {
                std::uint64_t total = 0;
                for (auto b : chBytes_) {
                    total += b;
                }
                return static_cast<double>(total);
            },
            1.0 / (per_tick_peak *
                   static_cast<double>(cfg_.numChannels)));
        metrics_.ratio(
            "row_hit_rate", "row-buffer hits per access this interval",
            [this] { return static_cast<double>(cumRowHits_); },
            [this] { return static_cast<double>(cumAccesses_); });
        // Burst counts since the last resetStats().
        metrics_.gauge("reads", "read bursts serviced", [this] {
            return static_cast<double>(bytesRead_ / cfg_.burstBytes);
        });
        metrics_.gauge("writes", "write bursts serviced", [this] {
            return static_cast<double>(bytesWritten_ / cfg_.burstBytes);
        });
    }
}

void
Dram::decode(Addr addr, unsigned &channel, unsigned &bank, Addr &row) const
{
    // Channel-interleave consecutive bursts so streaming accesses spread
    // across channels (matching typical server mappings); banks
    // interleave above channels, rows above banks.
    Addr granule = addr / cfg_.burstBytes;
    channel = static_cast<unsigned>(granule % cfg_.numChannels);
    granule /= cfg_.numChannels;
    const Addr bursts_per_row = cfg_.rowBytes / cfg_.burstBytes;
    Addr row_in_channel = granule / bursts_per_row;
    bank = static_cast<unsigned>(row_in_channel % cfg_.banksPerChannel);
    row = row_in_channel / cfg_.banksPerChannel;
}

DramResult
Dram::access(Addr addr, bool write, Tick issue)
{
    unsigned ch_idx, bank_idx;
    Addr row;
    decode(addr, ch_idx, bank_idx, row);
    Channel &ch = channels_[ch_idx];
    Bank &bank = ch.banks[bank_idx];

    Tick start = std::max(issue, bank.readyAt);

    bool row_hit = (bank.openRow == row);
    Tick access_lat = tCAS_;
    if (!row_hit) {
        // Closed bank needs just an activate; a conflicting open row
        // needs precharge + activate.
        access_lat += (bank.openRow == kBadAddr) ? tRCD_ : (tRP_ + tRCD_);
        bank.openRow = row;
    }

    // Data burst begins once the column access completes and the channel
    // data bus is free.
    Tick data_start = std::max(start + access_lat, ch.busFreeAt);
    Tick data_end = data_start + tBURST_;
    ch.busFreeAt = data_end;

    // Column commands pipeline: on a row hit the bank can accept the
    // next CAS after one command cadence (tCCD ~= tBURST), letting an
    // open-row stream saturate the data bus. A row change occupies the
    // bank for the whole precharge/activate sequence.
    bank.readyAt = row_hit ? start + tBURST_ : start + access_lat;

    Tick complete = data_end + tCtrl_;

    if (!chTrace_.empty()) {
        chTrace_[ch_idx].span(write ? "wr_burst" : "rd_burst", data_start,
                              data_end);
    }

    ++accesses_;
    ++cumAccesses_;
    if (write) {
        bytesWritten_ += cfg_.burstBytes;
    } else {
        bytesRead_ += cfg_.burstBytes;
    }
    if (row_hit) {
        ++rowHits_;
        ++cumRowHits_;
    }
    latencySumNs_ += static_cast<double>(complete - issue) / 1e3;
    chBytes_[ch_idx] += cfg_.burstBytes;
    metrics_.tick(complete);

    return {complete, row_hit};
}

Tick
Dram::accessRange(Addr addr, Addr bytes, bool write, Tick issue)
{
    if (bytes == 0) {
        return issue;
    }
    Addr first = roundDown(addr, cfg_.burstBytes);
    Addr last = roundDown(addr + bytes - 1, cfg_.burstBytes);

    // Observing runs take the per-burst path: every burst must emit its
    // bus span and metrics sample at the right tick.
    if (metrics_.enabled() || !chTrace_.empty()) {
        Tick done = issue;
        for (Addr a = first; a <= last; a += cfg_.burstBytes) {
            done = std::max(done, access(a, write, issue).completeTick);
        }
        return done;
    }

    // Batched fast path: the same timing recurrence as access() —
    // byte-identical bank/bus state, counters, and completion ticks
    // (proven by the equivalence tests in test_sim_speed) — with the
    // per-burst observability hooks and counter updates hoisted out. The
    // model is schedule-synchronous, so an idle channel "skips to its
    // next busy tick" through the max() against the issue tick rather
    // than by draining filler events.
    std::uint64_t bursts = 0;
    std::uint64_t hits = 0;
    Tick done = issue;
    for (Addr a = first; a <= last; a += cfg_.burstBytes) {
        unsigned ch_idx, bank_idx;
        Addr row;
        decode(a, ch_idx, bank_idx, row);
        Channel &ch = channels_[ch_idx];
        Bank &bank = ch.banks[bank_idx];

        Tick start = std::max(issue, bank.readyAt);
        const bool row_hit = (bank.openRow == row);
        Tick access_lat = tCAS_;
        if (!row_hit) {
            access_lat +=
                (bank.openRow == kBadAddr) ? tRCD_ : (tRP_ + tRCD_);
            bank.openRow = row;
        }
        Tick data_start = std::max(start + access_lat, ch.busFreeAt);
        Tick data_end = data_start + tBURST_;
        ch.busFreeAt = data_end;
        bank.readyAt = row_hit ? start + tBURST_ : start + access_lat;
        const Tick complete = data_end + tCtrl_;

        // Kept per burst (not batched): double accumulation order
        // affects rounding, and byte-identity with access() matters
        // more than the last few percent here.
        latencySumNs_ += static_cast<double>(complete - issue) / 1e3;
        chBytes_[ch_idx] += cfg_.burstBytes;
        ++bursts;
        if (row_hit) {
            ++hits;
        }
        done = std::max(done, complete);
    }

    accesses_ += bursts;
    cumAccesses_ += bursts;
    rowHits_ += hits;
    cumRowHits_ += hits;
    if (write) {
        bytesWritten_ += bursts * cfg_.burstBytes;
    } else {
        bytesRead_ += bursts * cfg_.burstBytes;
    }
    return done;
}

void
Dram::resetStats()
{
    bytesRead_ = 0;
    bytesWritten_ = 0;
    accesses_ = 0;
    rowHits_ = 0;
    latencySumNs_ = 0;
}

double
Dram::utilization(Tick window_start, Tick window_end) const
{
    if (window_end <= window_start) {
        return 0;
    }
    double secs = ticksToSeconds(window_end - window_start);
    double bytes =
        static_cast<double>(bytesRead_) + static_cast<double>(bytesWritten_);
    return (bytes / secs) / cfg_.peakBandwidth();
}

double
Dram::avgLatencyNs() const
{
    return accesses_ ? latencySumNs_ / static_cast<double>(accesses_) : 0;
}

void
Dram::setTrace(const trace::TraceEmitter &em)
{
    chTrace_.clear();
    if (!em.enabled()) {
        return;
    }
    chTrace_.reserve(cfg_.numChannels);
    for (unsigned i = 0; i < cfg_.numChannels; ++i) {
        chTrace_.push_back(em.sub(("ch" + std::to_string(i)).c_str()));
    }
}

} // namespace cereal
