#include "hostbench/dataflow_jobs.hh"

#include <string>
#include <vector>

#include "cluster/cost_model.hh"
#include "dataflow/batch.hh"
#include "dataflow/job.hh"
#include "serde/registry.hh"
#include "shuffle/lz.hh"
#include "sim/rng.hh"

namespace hostbench {

using namespace cereal;
using namespace cereal::dataflow;

namespace {

const std::vector<std::string> kJobs = {"wordcount", "terasort", "pagerank"};

void
digestResult(Digest &d, const DataflowResult &r)
{
    d.addF64(r.completionSeconds);
    d.addU64(r.outputRecords);
    d.addU64(r.resultChecksum);
    d.addBool(r.invariantsOk);
    d.addF64(r.skewRatio);
    d.addU64(r.wireBytes);
    d.addU64(r.fabricBatches);
    for (const StageStats &s : r.stages) {
        d.addStr(s.name);
        for (double v : {s.startSeconds, s.endSeconds, s.skewRatio}) {
            d.addF64(v);
        }
        for (std::uint64_t v : {s.batches, s.payloadBytes, s.streamBytes,
                                s.recordsIn, s.recordsOut}) {
            d.addU64(v);
        }
    }
}

/** Word-count-like records: small-vocabulary keys, varied values. */
std::vector<std::vector<Record>>
makeBatches(std::uint64_t seed, unsigned batches, unsigned records)
{
    constexpr std::uint64_t kVocabulary = 1024;
    Rng rng(seed);
    std::vector<std::vector<Record>> out(batches);
    for (auto &batch : out) {
        for (unsigned i = 0; i < records; ++i) {
            Record r;
            r.key = packU64(rng.below(kVocabulary));
            r.value.resize(rng.range(8, 40));
            for (auto &b : r.value) {
                b = static_cast<std::uint8_t>('a' + rng.below(26));
            }
            batch.push_back(std::move(r));
        }
    }
    return out;
}

class DataflowJobs : public Workload
{
  public:
    explicit DataflowJobs(const DataflowParams &p)
        : p_(p), backends_(serde::availableBackends())
    {
    }

    void
    setup(std::uint64_t seed, bool keep, SpanLog &spans) override
    {
        // runDataflow profiles its backend on first use (memoized per
        // NodeConfig); set-up pays that cost outside the timed phase.
        for (const std::string &job : kJobs) {
            for (const std::string &b : backends_) {
                SpanScope s(spans, "cluster.profile");
                cluster::BackendCostModel::measure(nodeConfig(config(job, b,
                                                                     seed)));
            }
        }
        if (keep) {
            seed_ = seed;
        }
    }

    std::uint64_t
    workItemsPerPass() const override
    {
        const DataflowConfig c;
        return kJobs.size() * backends_.size() * c.nodes * p_.recordsPerNode;
    }

    void
    pass(Pass &p) override
    {
        for (const std::string &job : kJobs) {
            std::uint64_t reference = 0;
            for (const std::string &b : backends_) {
                const std::string name = job + "/" + b;
                DataflowResult r;
                p.timed(name, [&] {
                    SpanScope call(p.spans, "dataflow.run");
                    r = runDataflow(config(job, b, seed_));
                });
                if (b == backends_.front()) {
                    reference = r.resultChecksum;
                }
                Digest d;
                digestResult(d, r);
                p.unitDone(name, r.invariantsOk &&
                                     r.resultChecksum == reference,
                           d);
            }
        }
    }

    void
    ledger(RunResult &r) override
    {
        MetricSet &m = r.metrics;
        SpanLog &spans = r.spans;
        const std::size_t from = spans.spans().size();
        m.set("cluster.profile_s", m.find("setup_s")->value, "s");

        std::uint64_t batches = 0, wire = 0;
        for (const std::string &job : kJobs) {
            for (const std::string &b : backends_) {
                SpanScope unit(spans, "unit.ledger." + job + "/" + b);
                SpanScope s(spans, "dataflow." + job);
                const DataflowResult res = runDataflow(config(job, b, seed_));
                batches += res.fabricBatches;
                wire += res.wireBytes;
            }
        }
        for (const std::string &job : kJobs) {
            m.set("dataflow." + job + "_s",
                  spans.total("dataflow." + job, from), "s");
        }
        m.set("dataflow.batches", static_cast<double>(batches), "count");
        m.set("dataflow.wire_bytes", static_cast<double>(wire), "bytes");

        const auto input =
            makeBatches(seed_, p_.ledgerBatches, p_.ledgerBatchRecords);
        const LzCodec lz;
        std::uint64_t raw_bytes = 0, packed_bytes = 0;
        for (const std::string &b : backends_) {
            BatchCodec codec(b);
            SpanScope unit(spans, "unit.ledger.codec/" + b);
            for (const auto &batch : input) {
                EncodedBatch enc;
                {
                    SpanScope s(spans, "serde.batch_encode");
                    enc = codec.encode(batch);
                }
                std::vector<Record> back;
                {
                    SpanScope s(spans, "serde.batch_decode");
                    back = codec.decode(enc.payload);
                }
                r.checks.record(back == batch,
                                "ledger " + b + " batch round trip");
                if (!codec.info().lzOnWire) {
                    continue;
                }
                // The wire payload is the LZ-packed stream: unpack it
                // and pack it again, which must give the same bytes.
                std::vector<std::uint8_t> stream, packed;
                {
                    SpanScope s(spans, "shuffle.lz_decompress");
                    stream = lz.decompress(enc.payload);
                }
                {
                    SpanScope s(spans, "shuffle.lz_compress");
                    packed = lz.compress(stream);
                }
                r.checks.record(packed == enc.payload,
                                "ledger " + b + " lz round trip");
                raw_bytes += stream.size();
                packed_bytes += packed.size();
            }
        }
        m.set("serde.batch_encode_s", spans.total("serde.batch_encode", from),
              "s");
        m.set("serde.batch_decode_s", spans.total("serde.batch_decode", from),
              "s");
        m.set("shuffle.lz_compress_s",
              spans.total("shuffle.lz_compress", from), "s");
        m.set("shuffle.lz_decompress_s",
              spans.total("shuffle.lz_decompress", from), "s");
        m.set("shuffle.lz_ratio",
              static_cast<double>(raw_bytes) /
                  static_cast<double>(packed_bytes),
              "x");
    }

  private:
    DataflowConfig
    config(const std::string &job, const std::string &backend,
           std::uint64_t seed) const
    {
        DataflowConfig c;
        c.job = job;
        c.backend = backend;
        c.recordsPerNode = p_.recordsPerNode;
        c.seed = seed;
        return c;
    }

    /** The NodeConfig runDataflow profiles for @p c. */
    static cluster::NodeConfig
    nodeConfig(const DataflowConfig &c)
    {
        cluster::NodeConfig nc;
        nc.backend = static_cast<cluster::Backend>(
            serde::findBackend(c.backend)->formatId);
        nc.app = "Terasort";
        nc.scale = c.profileScale;
        nc.seed = c.seed;
        nc.mode = c.mode;
        return nc;
    }

    DataflowParams p_;
    std::vector<std::string> backends_;
    std::uint64_t seed_ = 1;
};

} // namespace

std::unique_ptr<Workload>
makeDataflowJobs(const DataflowParams &params)
{
    return std::make_unique<DataflowJobs>(params);
}

} // namespace hostbench
