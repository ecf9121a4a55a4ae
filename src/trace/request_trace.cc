#include "trace/request_trace.hh"

#include <utility>

#include "sim/json.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "trace/critical_path.hh"

namespace cereal {
namespace trace {

const char *
segmentName(Segment s)
{
    switch (s) {
      case Segment::Admission:
        return "admission";
      case Segment::Serialize:
        return "serialize";
      case Segment::Stall:
        return "stall";
      case Segment::Wire:
        return "wire";
      case Segment::Residual:
        return "residual";
      case Segment::Deserialize:
        return "deserialize";
      case Segment::Consume:
        return "consume";
    }
    panic("bad segment");
}

void
RequestTimeline::segments(Tick out[kSegmentCount]) const
{
    out[static_cast<unsigned>(Segment::Admission)] = serStart - arrival;
    out[static_cast<unsigned>(Segment::Serialize)] = serEnd - serStart;
    out[static_cast<unsigned>(Segment::Stall)] = send - serEnd;
    out[static_cast<unsigned>(Segment::Wire)] = deliver - send;
    out[static_cast<unsigned>(Segment::Residual)] = deserStart - deliver;
    out[static_cast<unsigned>(Segment::Deserialize)] = deserTicks;
    out[static_cast<unsigned>(Segment::Consume)] =
        (done - deserStart) - deserTicks;
}

Tick
RequestTimeline::segment(Segment s) const
{
    Tick seg[kSegmentCount];
    segments(seg);
    return seg[static_cast<unsigned>(s)];
}

Segment
RequestTimeline::dominant() const
{
    Tick seg[kSegmentCount];
    segments(seg);
    unsigned best = 0;
    for (unsigned i = 1; i < kSegmentCount; ++i) {
        if (seg[i] > seg[best]) {
            best = i;
        }
    }
    return static_cast<Segment>(best);
}

bool
RequestTimeline::conserves() const
{
    // Monotone stamps first: with unsigned ticks an out-of-order stamp
    // would otherwise wrap into a huge "valid" segment.
    if (!(arrival <= serStart && serStart <= serEnd && serEnd <= send &&
          send <= deliver && deliver <= deserStart &&
          deserStart <= done)) {
        return false;
    }
    if (deserTicks > done - deserStart) {
        return false;
    }
    Tick seg[kSegmentCount];
    segments(seg);
    Tick sum = 0;
    for (unsigned i = 0; i < kSegmentCount; ++i) {
        sum += seg[i];
    }
    return sum == endToEnd();
}

void
RequestTimeline::writeJson(json::Writer &w) const
{
    w.beginObject();
    w.kv("trace_id", traceId);
    w.kv("origin", static_cast<std::uint64_t>(origin));
    w.kv("dst", static_cast<std::uint64_t>(dst));
    w.kv("class", static_cast<std::uint64_t>(cls));
    w.kv("arrival_tick", arrival);
    w.kv("ser_start_tick", serStart);
    w.kv("ser_end_tick", serEnd);
    w.kv("send_tick", send);
    w.kv("deliver_tick", deliver);
    w.kv("deser_start_tick", deserStart);
    w.kv("done_tick", done);
    Tick seg[kSegmentCount];
    segments(seg);
    w.key("segments_ticks");
    w.beginObject();
    for (unsigned i = 0; i < kSegmentCount; ++i) {
        w.kv(segmentName(static_cast<Segment>(i)), seg[i]);
    }
    w.endObject();
    w.kv("dominant_segment", segmentName(dominant()));
    w.kv("end_to_end_ticks", endToEnd());
    w.kv("end_to_end_seconds", ticksToSeconds(endToEnd()));
    w.endObject();
}

bool
sampleRequest(std::uint64_t trace_id, const RequestTraceConfig &cfg)
{
    if (trace_id == kNoTraceId) {
        return false;
    }
    if (cfg.sampleRate >= 1.0) {
        return true;
    }
    if (cfg.sampleRate <= 0.0) {
        return false;
    }
    // splitmix64 over (id, seed): a pure, platform-independent hash,
    // so the sampled subset is identical across threads and modes.
    std::uint64_t x = trace_id ^ (cfg.seed * 0x9e3779b97f4a7c15ULL);
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    x ^= x >> 31;
    // Compare in double space: x / 2^64 < rate. 53-bit precision is
    // plenty for a sampling decision and keeps the threshold exact for
    // representable rates.
    const double u =
        static_cast<double>(x) / 18446744073709551616.0; // 2^64
    return u < cfg.sampleRate;
}

void
RequestTraceRecorder::record(const RequestTimeline &t)
{
    panic_if(t.traceId == kNoTraceId,
             "request timeline needs a nonzero trace id");
    panic_if(!t.conserves(),
             "request %llu timeline violates latency conservation "
             "(segments do not partition end-to-end)",
             (unsigned long long)t.traceId);
    panic_if(byId_.count(t.traceId) != 0,
             "duplicate request timeline for trace id %llu",
             (unsigned long long)t.traceId);
    byId_.emplace(t.traceId, timelines_.size());
    timelines_.push_back(t);
}

const RequestTimeline *
RequestTraceRecorder::find(std::uint64_t trace_id) const
{
    auto it = byId_.find(trace_id);
    return it == byId_.end() ? nullptr : &timelines_[it->second];
}

RequestTraceReport
RequestTraceRecorder::report(const stats::Distribution &latency) &&
{
    RequestTraceReport r;
    r.requests = requests_;
    r.sampled = timelines_.size();
    r.sampleRate = cfg_.sampleRate;
    r.seed = cfg_.seed;
    for (const auto &t : timelines_) {
        Tick seg[kSegmentCount];
        t.segments(seg);
        for (unsigned i = 0; i < kSegmentCount; ++i) {
            r.segTotal[i] += seg[i];
        }
        r.endToEndTotal += t.endToEnd();
        r.conserved = r.conserved && t.conserves();
    }
    const std::uint64_t p99_id = latency.exemplarAt(0.99);
    if (const RequestTimeline *t = find(p99_id)) {
        r.p99Resolved = true;
        r.p99 = *t;
    }
    const std::uint64_t p999_id = latency.exemplarAt(0.999);
    if (const RequestTimeline *t = find(p999_id)) {
        r.p999Resolved = true;
        r.p999 = *t;
    }
    r.tail = tailAttribution(timelines_, 0.99);
    r.timelines = std::move(timelines_);
    return r;
}

void
RequestTraceReport::writeJson(json::Writer &w) const
{
    w.beginObject();
    w.kv("requests", requests);
    w.kv("sampled", sampled);
    w.kv("sample_rate", sampleRate);
    w.kv("seed", seed);
    w.kv("conserved", static_cast<std::uint64_t>(conserved ? 1 : 0));
    w.key("segment_total_ticks");
    w.beginObject();
    for (unsigned i = 0; i < kSegmentCount; ++i) {
        w.kv(segmentName(static_cast<Segment>(i)), segTotal[i]);
    }
    w.endObject();
    w.kv("end_to_end_total_ticks", endToEndTotal);
    w.key("tail_attribution");
    w.beginArray();
    for (const auto &s : tail) {
        w.beginObject();
        w.kv("segment", segmentName(s.segment));
        w.kv("total_ticks", s.total);
        w.kv("fraction", s.fraction);
        w.endObject();
    }
    w.endArray();
    w.key("p99_exemplar");
    if (p99Resolved) {
        p99.writeJson(w);
    } else {
        w.null();
    }
    w.key("p999_exemplar");
    if (p999Resolved) {
        p999.writeJson(w);
    } else {
        w.null();
    }
    w.endObject();
}

} // namespace trace
} // namespace cereal
