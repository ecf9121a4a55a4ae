#include "cluster/node.hh"

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "cpu/core_model.hh"
#include "heap/walker.hh"
#include "metrics/metrics.hh"
#include "serde/hps_serde.hh"
#include "serde/registry.hh"
#include "shuffle/shuffle.hh"
#include "sim/logging.hh"
#include "trace/trace.hh"
#include "workloads/harness.hh"
#include "workloads/spark.hh"

namespace cereal {
namespace cluster {

const std::vector<Backend> &
allBackends()
{
    static const std::vector<Backend> kAll = {
        Backend::Java,   Backend::Kryo,      Backend::Skyway,
        Backend::Cereal, Backend::Plaincode, Backend::Hps};
    return kAll;
}

const char *
backendName(Backend b)
{
    // Backend values are the on-wire format ids; the registry owns the
    // name mapping.
    const auto *info = serde::findBackendByFormat(backendFormatId(b));
    panic_if(info == nullptr, "backend %u missing from serde registry",
             unsigned(backendFormatId(b)));
    return info->name;
}

std::uint8_t
backendFormatId(Backend b)
{
    return static_cast<std::uint8_t>(b);
}

namespace {

/** ALU/branch ops the operator spends per object it projects over. */
constexpr std::uint64_t kConsumeOpsPerObject = 6;

/**
 * Time the serving operator's per-request compute on a *materialized*
 * partition: a projection touching every object once. Graph traversal
 * is a chain of dependent loads — the Section III pointer-chasing
 * cost the deserialize phase paid once shows up again on every
 * operator pass.
 */
double
measureConsumeGraph(const std::string &label, Heap &heap, Addr root,
                    const CoreConfig &cc)
{
    EventQueue eq;
    Dram dram("dram.consume", eq);
    CoreModel core(dram, cc);
    core.setTrace(trace::current().sub((label + ".consume").c_str()));
    core.phase("walk");
    GraphWalker(heap).walk(root, [&](Addr a) {
        core.loadDep(a, 8);
        core.compute(kConsumeOpsPerObject);
    });
    return core.finish().seconds;
}

/**
 * Time the same projection on hps zero-copy views: the operator reads
 * packed fields straight out of the validated wire buffer in segment
 * order — independent streaming loads, no pointer chasing and no
 * materialized copy.
 */
double
measureConsumeHpsViews(const std::string &label,
                       const std::vector<std::uint8_t> &stream,
                       const KlassRegistry &reg, const CoreConfig &cc)
{
    HpsSerializer hps;
    HpsImage img = hps.attach(stream, reg);
    EventQueue eq;
    Dram dram("dram.consume", eq);
    CoreModel core(dram, cc);
    core.setTrace(trace::current().sub((label + ".consume").c_str()));
    core.phase("views");
    for (const auto &seg : img.segments()) {
        // One packed field per segment, in place: 16-byte stream
        // header, then the u32 length prefix + u32 type id ahead of
        // the segment body.
        core.load(kStreamBase + 16 + seg.offset + 8, 8);
        core.compute(kConsumeOpsPerObject);
    }
    return core.finish().seconds;
}

/**
 * Measure one partition (the uncached path). Deterministic in the
 * NodeConfig: same inputs always produce byte-identical profiles,
 * which is what makes the cache below sound.
 *
 * All behaviour differences between backends come from the serde
 * registry traits (accelerated / zeroCopy / lzOnWire): this function
 * never names a backend.
 */
NodeProfile
profileNodeUncached(const NodeConfig &cfg)
{
    KlassRegistry reg;
    workloads::SparkWorkloads apps(reg);
    Heap heap(reg);
    Addr root = apps.build(heap, cfg.app, cfg.scale, cfg.seed);

    const char *name = backendName(cfg.backend);
    const auto *info = serde::findBackend(name);
    panic_if(info == nullptr, "backend '%s' missing from registry", name);

    ShuffleStage stage;
    NodeProfile out;
    auto ser = serde::makeSerializer(name, &reg);

    CoreConfig cc;

    workloads::SdMeasurement m;
    if (info->accelerated) {
        m = workloads::measureCereal(heap, root);
    } else {
        m = workloads::measureSoftware(*ser, heap, root, cc);
    }
    out.streamBytes = m.streamBytes;
    out.objects = m.objects;

    // The functional serializer produces the real wire bytes in every
    // case (for the accelerated backend they are the packed bytes the
    // device writes).
    auto stream = ser->serialize(heap, root);

    if (info->lzOnWire) {
        auto write = stage.softwareWrite(stream);
        auto read = stage.softwareRead(stream);
        out.payload = stage.codec().compress(stream);
        out.compressed = true;
        out.serSeconds = m.serSeconds + write.seconds;
        out.deserSeconds = read.seconds + m.deserSeconds;
    } else {
        // Packed formats travel verbatim (the packing already plays
        // the codec's role; for zero-copy views a decompress would
        // force the copy the format avoids). The bytes still move
        // between serializer buffer and shuffle file/wire — the bulk
        // handoff.
        out.payload = stream;
        out.compressed = false;
        auto handoff = stage.cerealHandoff(stream.size());
        out.serSeconds = m.serSeconds + handoff.seconds;
        out.deserSeconds = handoff.seconds + m.deserSeconds;
    }

    if (info->zeroCopy) {
        // The operator reads packed fields straight out of the
        // validated wire buffer — no materialized graph to walk.
        out.consumeSeconds = measureConsumeHpsViews(name, stream, reg, cc);
    } else {
        // Materializing backends (software or accelerated) hand the
        // operator a heap graph; it pays the host-CPU pointer chase.
        Heap dst(reg, 0x9'0000'0000ULL);
        Addr nr = ser->deserialize(stream, dst);
        out.consumeSeconds = measureConsumeGraph(name, dst, nr, cc);
    }
    return out;
}

} // namespace

NodeProfile
profileNode(const NodeConfig &cfg)
{
    // Profiling narrates its memory traffic into the *ambient*
    // trace/metrics sinks; serving a cached profile would silently drop
    // those emissions and break the byte-identical determinism gates
    // that run with --trace/--metrics. Observing runs always measure.
    if (trace::current().enabled() || metrics::current() != nullptr) {
        return profileNodeUncached(cfg);
    }

    // The measurement is a pure function of the config, so identical
    // sweep points (serving points that share one backend config)
    // reuse one measurement.
    std::string key = cfg.app;
    key += '|';
    key += std::to_string(backendFormatId(cfg.backend));
    key += '|';
    key += std::to_string(cfg.scale);
    key += '|';
    key += std::to_string(cfg.seed);

    static std::mutex mu;
    static std::unordered_map<std::string, NodeProfile> cache;

    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = cache.find(key);
        if (it != cache.end()) {
            return it->second;
        }
    }
    NodeProfile fresh = profileNodeUncached(cfg);
    {
        std::lock_guard<std::mutex> lock(mu);
        cache.emplace(key, fresh);
    }
    return fresh;
}

} // namespace cluster
} // namespace cereal
