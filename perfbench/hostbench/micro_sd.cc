#include "hostbench/micro_sd.hh"

#include <string>

#include "cereal/api.hh"
#include "heap/walker.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "serde/registry.hh"
#include "sim/event_queue.hh"
#include "workloads/micro.hh"

namespace hostbench {

using namespace cereal;
using workloads::MicroBench;
using workloads::SdMeasurement;

void
Narration::load(Addr addr, std::uint32_t bytes)
{
    events_.push_back({addr, bytes, Op::Load});
}

void
Narration::store(Addr addr, std::uint32_t bytes)
{
    events_.push_back({addr, bytes, Op::Store});
}

void
Narration::loadDep(Addr addr, std::uint32_t bytes)
{
    events_.push_back({addr, bytes, Op::LoadDep});
}

void
Narration::compute(std::uint64_t ops)
{
    events_.push_back({ops, 0, Op::Compute});
}

void
Narration::computeStreamlined(std::uint64_t ops)
{
    events_.push_back({ops, 0, Op::Streamlined});
}

void
Narration::phase(const char *name)
{
    events_.push_back({reinterpret_cast<std::uintptr_t>(name), 0, Op::Phase});
}

void
Narration::replay(MemSink &sink) const
{
    for (const Event &e : events_) {
        switch (e.op) {
          case Op::Load:
            sink.load(e.arg, e.bytes);
            break;
          case Op::Store:
            sink.store(e.arg, e.bytes);
            break;
          case Op::LoadDep:
            sink.loadDep(e.arg, e.bytes);
            break;
          case Op::Compute:
            sink.compute(e.arg);
            break;
          case Op::Streamlined:
            sink.computeStreamlined(e.arg);
            break;
          case Op::Phase:
            sink.phase(reinterpret_cast<const char *>(
                static_cast<std::uintptr_t>(e.arg)));
            break;
        }
    }
}

CacheChainResult
replayCacheChain(const Narration &n, const CoreConfig &cfg)
{
    Cache l1(cfg.l1), l2(cfg.l2), l3(cfg.l3);
    CacheChainResult out;
    const Addr line = cfg.l1.lineBytes;
    for (const Narration::Event &e : n.events()) {
        const bool mem = e.op == Narration::Op::Load ||
                         e.op == Narration::Op::Store ||
                         e.op == Narration::Op::LoadDep;
        if (!mem || e.bytes == 0) {
            continue;
        }
        const bool write = e.op == Narration::Op::Store;
        const Addr last = roundDown(e.arg + e.bytes - 1, line);
        for (Addr a = roundDown(e.arg, line); a <= last; a += line) {
            if (l1.access(a, write).hit || l2.access(a, write).hit) {
                continue;
            }
            const CacheAccessResult r3 = l3.access(a, write);
            if (r3.hit) {
                continue;
            }
            if (r3.writeback) {
                out.dramOps.push_back({r3.victimAddr, true});
            }
            out.dramOps.push_back({a, write});
        }
    }
    out.accesses = l1.accesses() + l2.accesses() + l3.accesses();
    out.l3Accesses = l3.accesses();
    out.l3Misses = l3.misses();
    return out;
}

std::uint64_t
replayDram(const std::vector<DramOp> &ops)
{
    EventQueue eq;
    Dram dram("dram.replay", eq);
    Tick t = 0;
    for (const DramOp &op : ops) {
        t = dram.access(op.addr, op.write, t).completeTick;
    }
    return dram.accesses();
}

bool
coreReplayMatches(const SdMeasurement &live, const CoreRunStats &replayed)
{
    return replayed.seconds == live.serSeconds &&
           replayed.ipc == live.serIpc &&
           replayed.llcMissRate == live.serLlcMissRate &&
           replayed.bandwidthUtil == live.serBandwidth;
}

bool
cacheChainMatches(const CacheChainResult &chain, const CoreRunStats &replayed)
{
    return chain.l3Accesses == replayed.llcAccesses;
}

namespace {

/** The five software backends, then Cereal (registry order otherwise). */
std::vector<std::string>
backendOrder()
{
    std::vector<std::string> out;
    for (const auto &b : serde::backends()) {
        if (!b.accelerated) {
            out.push_back(b.name);
        }
    }
    for (const auto &b : serde::backends()) {
        if (b.accelerated) {
            out.push_back(b.name);
        }
    }
    return out;
}

void
digestMeasurement(Digest &d, const SdMeasurement &m)
{
    d.addStr(m.serializer);
    for (double v : {m.serSeconds, m.deserSeconds, m.serBandwidth,
                     m.deserBandwidth, m.serIpc, m.deserIpc,
                     m.serLlcMissRate, m.deserLlcMissRate, m.serEnergyJ,
                     m.deserEnergyJ}) {
        d.addF64(v);
    }
    d.addU64(m.streamBytes);
    d.addU64(m.objects);
}

class MicroSd : public Workload
{
  public:
    explicit MicroSd(const MicroParams &p) : p_(p), micro_(reg_)
    {
        for (const std::string &name : backendOrder()) {
            sers_.push_back(serde::makeSerializer(name, &reg_));
            accelerated_.push_back(serde::findBackend(name)->accelerated);
        }
    }

    void
    setup(std::uint64_t seed, bool keep, SpanLog &spans) override
    {
        std::vector<Graph> graphs;
        for (MicroBench mb : workloads::allMicroBenches()) {
            SpanScope s(spans, "workloads.build");
            Graph g;
            g.mb = mb;
            g.heap = std::make_unique<Heap>(reg_);
            g.root = micro_.build(*g.heap, mb, p_.scale, seed);
            g.objects = GraphWalker(*g.heap).stats(g.root).objectCount;
            graphs.push_back(std::move(g));
        }
        if (keep) {
            graphs_ = std::move(graphs);
        }
    }

    std::uint64_t
    workItemsPerPass() const override
    {
        std::uint64_t n = 0;
        for (const Graph &g : graphs_) {
            n += g.objects * sers_.size();
        }
        return n;
    }

    void
    pass(Pass &p) override
    {
        for (Graph &g : graphs_) {
            for (std::size_t b = 0; b < sers_.size(); ++b) {
                Serializer &ser = *sers_[b];
                const std::string name =
                    std::string(workloads::microBenchName(g.mb)) + "/" +
                    ser.name();
                SdMeasurement m;
                p.timed(name, [&] {
                    if (accelerated_[b]) {
                        SpanScope call(p.spans, "workloads.measure_cereal");
                        m = workloads::measureCereal(
                            *g.heap, g.root, AccelConfig(), CerealOptions(),
                            false);
                    } else {
                        SpanScope call(p.spans, "workloads.measure_software");
                        m = workloads::measureSoftware(ser, *g.heap, g.root,
                                                       CoreConfig(), false);
                    }
                });
                bool ok = m.objects == g.objects;
                if (p.warmup) {
                    ok = roundTrips(ser, g) && ok;
                    live_.push_back(m);
                }
                Digest d;
                digestMeasurement(d, m);
                p.unitDone(name, ok, d);
            }
        }
    }

    void
    ledger(RunResult &r) override
    {
        MetricSet &m = r.metrics;
        SpanLog &spans = r.spans;
        const std::size_t from = spans.spans().size();
        m.set("workloads.build_s", m.find("setup_s")->value, "s");
        std::uint64_t insts = 0, cache_acc = 0, l3_miss = 0, dram_acc = 0;
        std::uint64_t cereal_objects = 0;
        std::size_t unit = 0;
        for (Graph &g : graphs_) {
            const std::string gname = workloads::microBenchName(g.mb);
            {
                SpanScope s(spans, "heap.walk");
                GraphWalker(*g.heap).stats(g.root);
            }
            for (std::size_t b = 0; b < sers_.size(); ++b, ++unit) {
                Serializer &ser = *sers_[b];
                const std::string bname = ser.name();
                const std::string label = "ledger " + gname + "/" + bname;
                SpanScope u(spans, "unit.ledger." + gname + "/" + bname);
                std::vector<std::uint8_t> stream;
                {
                    SpanScope s(spans, "serde." + bname + ".encode");
                    stream = ser.serialize(*g.heap, g.root);
                }
                Heap dst(reg_, 0x9'0000'0000ULL);
                const auto root = [&] {
                    SpanScope s(spans, "serde." + bname + ".decode");
                    return ser.tryDeserialize(stream, dst);
                }();
                {
                    SpanScope s(spans, "heap.verify");
                    r.checks.record(root.ok() && graphEquals(*g.heap, g.root,
                                                             dst,
                                                             root.value()),
                                    label + " round trip");
                }
                if (accelerated_[b]) {
                    cereal_objects += cerealLedger(g, spans);
                    continue;
                }

                Narration n;
                {
                    SpanScope s(spans, "serde." + bname + ".narrate");
                    ser.serialize(*g.heap, g.root, &n);
                }
                CoreRunStats st;
                {
                    SpanScope s(spans, "cpu.replay");
                    EventQueue eq;
                    Dram dram("dram.replay", eq);
                    CoreModel core(dram, CoreConfig());
                    n.replay(core);
                    st = core.finish();
                }
                insts += st.instructions;
                r.checks.record(coreReplayMatches(live_[unit], st),
                                label + " core replay == live stats");
                CacheChainResult chain;
                {
                    SpanScope s(spans, "mem.cache_replay");
                    chain = replayCacheChain(n, CoreConfig());
                }
                cache_acc += chain.accesses;
                l3_miss += chain.l3Misses;
                r.checks.record(cacheChainMatches(chain, st),
                                label + " cache chain L3 == llcAccesses");
                {
                    SpanScope s(spans, "mem.dram_replay");
                    dram_acc += replayDram(chain.dramOps);
                }
            }
        }

        for (const auto &b : serde::backends()) {
            const std::string pre = std::string("serde.") + b.name;
            m.set(pre + ".encode_s", spans.total(pre + ".encode", from), "s");
            m.set(pre + ".decode_s", spans.total(pre + ".decode", from), "s");
        }
        m.set("heap.walk_s", spans.total("heap.walk", from), "s");
        m.set("heap.verify_s", spans.total("heap.verify", from), "s");
        const double replay_s = spans.total("cpu.replay", from);
        m.set("cpu.replay_s", replay_s, "s");
        m.set("cpu.insts", static_cast<double>(insts), "count");
        m.set("cpu.minsts_per_s", static_cast<double>(insts) / replay_s / 1e6,
              "Minst/s");
        m.set("mem.cache_replay_s", spans.total("mem.cache_replay", from), "s");
        m.set("mem.cache_accesses", static_cast<double>(cache_acc), "count");
        m.set("mem.l3_misses", static_cast<double>(l3_miss), "count");
        m.set("mem.dram_replay_s", spans.total("mem.dram_replay", from), "s");
        m.set("mem.dram_accesses", static_cast<double>(dram_acc), "count");
        m.set("cereal.ser_s", spans.total("cereal.ser", from), "s");
        m.set("cereal.deser_s", spans.total("cereal.deser", from), "s");
        m.set("cereal.objects", static_cast<double>(cereal_objects), "count");
    }

  private:
    struct Graph
    {
        MicroBench mb = MicroBench::TreeNarrow;
        std::unique_ptr<Heap> heap;
        Addr root = 0;
        std::uint64_t objects = 0;
    };

    /**
     * The warm-up check: a functional round trip through @p ser whose
     * result must be isomorphic to the source graph.
     */
    bool
    roundTrips(Serializer &ser, Graph &g)
    {
        auto stream = ser.serialize(*g.heap, g.root);
        if (p_.corruptStream && !stream.empty()) {
            stream[stream.size() / 2] ^= 0xff;
        }
        Heap dst(reg_, 0x9'0000'0000ULL);
        auto root = ser.tryDeserialize(stream, dst);
        return root.ok() && graphEquals(*g.heap, g.root, dst, root.value());
    }

    /** Cereal through CerealContext and the device; returns objects. */
    std::uint64_t
    cerealLedger(Graph &g, SpanLog &spans)
    {
        CerealStream stream;
        {
            SpanScope s(spans, "cereal.ser");
            EventQueue eq;
            Dram dram("dram.ser", eq);
            CerealContext ctx(dram);
            ctx.registerAll(reg_);
            ObjectOutputStream oos;
            stream = ctx.writeObject(oos, *g.heap, g.root).stream;
        }
        EventQueue eq;
        Dram dram("dram.deser", eq);
        CerealContext ctx(dram);
        ctx.registerAll(reg_);
        Heap dst(reg_, 0x9'0000'0000ULL);
        Addr root = 0;
        {
            SpanScope s(spans, "cereal.stream_decode");
            root = ctx.serializer().deserializeStream(stream, dst);
        }
        {
            SpanScope s(spans, "cereal.deser");
            ctx.device().deserialize(stream, root, 0);
        }
        return stream.objectCount;
    }

    MicroParams p_;
    KlassRegistry reg_;
    workloads::MicroWorkloads micro_;
    std::vector<std::unique_ptr<Serializer>> sers_;
    std::vector<bool> accelerated_;
    std::vector<Graph> graphs_;
    /** Warm-up measurements in unit order, for the ledger cross-checks. */
    std::vector<SdMeasurement> live_;
};

} // namespace

std::unique_ptr<Workload>
makeMicroSd(const MicroParams &params)
{
    return std::make_unique<MicroSd>(params);
}

} // namespace hostbench
