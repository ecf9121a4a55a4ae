/**
 * @file
 * The key/value record model the dataflow operators exchange.
 *
 * Operators produce and consume flat byte-string records; on a stage
 * boundary a batch of records is materialized as a real object graph
 * (a reference array of dataflow.Record instances, each holding two
 * byte arrays) and pushed through one of the registered serializer
 * backends. That keeps serde on the operator data path — every byte a
 * stage ships was produced by the backend's serialize() and recovered
 * by its deserialize()/attach() — instead of timing a model payload
 * that never touches operator data.
 *
 * Two read paths mirror the backends' consume semantics:
 *  - readBatchGraph() walks a materialized heap graph (everything but
 *    hps decodes to one);
 *  - readBatchViews() reads an HpsImage's validated segments in place,
 *    so the zero-copy backend never materializes the graph it ships.
 */

#ifndef CEREAL_DATAFLOW_RECORD_HH
#define CEREAL_DATAFLOW_RECORD_HH

#include <cstdint>
#include <cstring>
#include <vector>

#include "heap/heap.hh"
#include "serde/hps_serde.hh"

namespace cereal {
namespace dataflow {

/** One key/value pair; both sides are opaque byte strings. */
struct Record
{
    std::vector<std::uint8_t> key;
    std::vector<std::uint8_t> value;
};

inline bool
operator==(const Record &a, const Record &b)
{
    return a.key == b.key && a.value == b.value;
}

inline bool
operator!=(const Record &a, const Record &b)
{
    return !(a == b);
}

/**
 * Total order: key bytes lexicographically, ties by value bytes. Sort
 * runs and the multiway merge both use it, so equal-(key,value)
 * records are the only interchangeable ones and merged output is a
 * deterministic function of the record multiset.
 */
inline bool
recordLess(const Record &a, const Record &b)
{
    if (a.key != b.key) {
        return a.key < b.key;
    }
    return a.value < b.value;
}

/** Pack @p v little-endian into 8 bytes (u64 keys and counters). */
inline std::vector<std::uint8_t>
packU64(std::uint64_t v)
{
    std::vector<std::uint8_t> b(8);
    std::memcpy(b.data(), &v, 8);
    return b;
}

inline std::uint64_t
unpackU64(const std::vector<std::uint8_t> &b)
{
    std::uint64_t v = 0;
    std::memcpy(&v, b.data(), b.size() < 8 ? b.size() : 8);
    return v;
}

/** Pack a double by bit pattern (PageRank ranks/contributions). */
inline std::vector<std::uint8_t>
packF64(double v)
{
    std::uint64_t raw;
    std::memcpy(&raw, &v, 8);
    return packU64(raw);
}

inline double
unpackF64(const std::vector<std::uint8_t> &b)
{
    const std::uint64_t raw = unpackU64(b);
    double v;
    std::memcpy(&v, &raw, 8);
    return v;
}

/** FNV-1a-64 over an arbitrary byte range. */
inline std::uint64_t
hashBytes(const void *data, std::size_t n,
          std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * Order-sensitive digest of a record sequence (length-prefixed keys
 * and values). Jobs hash their final per-node outputs in node order;
 * the differential suite pins the digest across backends and thread
 * counts.
 */
std::uint64_t recordsChecksum(const std::vector<Record> &records);

/** The three classes a record batch materializes into. */
struct RecordSchema
{
    /** dataflow.Record { key: Reference, value: Reference }. */
    KlassId record = kBadKlassId;
    /** byte[] holding one side's bytes. */
    KlassId byteArray = kBadKlassId;
    /** Object[] of Record — the batch root. */
    KlassId recordArray = kBadKlassId;

    /** Register the schema into @p reg (idempotent per registry). */
    static RecordSchema install(KlassRegistry &reg);
};

/**
 * Materialize @p batch as an object graph in @p heap.
 * @return the root (a reference array of Record instances)
 */
Addr materializeBatch(Heap &heap, const RecordSchema &schema,
                      const std::vector<Record> &batch);

/** Read a batch back out of a materialized graph (inverse of above). */
std::vector<Record> readBatchGraph(Heap &heap, Addr root);

/**
 * Read a batch straight out of a validated HPS image: record fields
 * and array bytes are read from the wire buffer in place, which is the
 * zero-copy backend's whole receive path (attach + in-place reads).
 */
std::vector<Record> readBatchViews(const HpsImage &img);

} // namespace dataflow
} // namespace cereal

#endif // CEREAL_DATAFLOW_RECORD_HH
