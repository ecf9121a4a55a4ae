#include "cluster/frame.hh"

#include "serde/bytes.hh"
#include "serde/registry.hh"

namespace cereal {

const char *
frameFormatName(std::uint8_t id)
{
    const auto *b = serde::findBackendByFormat(id);
    return b != nullptr ? b->name : "?";
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

namespace {

/** Store @p v's low @p n bytes at @p p, little-endian; return the end. */
inline std::uint8_t *
putLE(std::uint8_t *p, std::uint64_t v, unsigned n)
{
    for (unsigned i = 0; i < n; ++i) {
        *p++ = static_cast<std::uint8_t>(v >> (8 * i));
    }
    return p;
}

/**
 * The one header parser: reads and validates the fixed header and the
 * trace extension at the front of @p r, leaving r at the first byte
 * past them. The payload length is checked by checkPayloadLen().
 */
FrameInfo
parseHeader(ByteReader &r)
{
    const std::uint32_t magic = r.u32();
    decode_check(magic == kFrameMagic, DecodeStatus::BadMagic, 0,
                 "not a partition frame (magic 0x%08x)", magic);

    const std::uint8_t version = r.u8();
    decode_check(version == kFrameVersion, DecodeStatus::BadTag, 4,
                 "unsupported frame version %u", version);

    FrameInfo f;
    f.format = r.u8();
    decode_check(f.format < kFrameFormatCount, DecodeStatus::BadClass, 5,
                 "unknown serializer format id %u", f.format);

    f.flags = r.u16();
    decode_check(
        (f.flags & ~(kFrameFlagCompressed | kFrameFlagTraced)) == 0,
        DecodeStatus::Malformed, 6,
        "reserved frame flags set (0x%04x)", f.flags);

    f.srcNode = r.u32();
    f.dstNode = r.u32();
    f.partition = r.u32();

    f.payloadLen = r.u64();
    f.checksum = r.u64();

    if (f.hasTrace()) {
        f.traceId = r.u64();
        f.spanId = r.u32();
        const std::uint32_t reserved = r.u32();
        decode_check(f.traceId != 0, DecodeStatus::Malformed,
                     kFrameHeaderBytes,
                     "traced frame carries the null trace id");
        decode_check(reserved == 0, DecodeStatus::Malformed,
                     kFrameHeaderBytes + 12,
                     "nonzero reserved word in trace extension (0x%08x)",
                     reserved);
    }
    return f;
}

/** Check @p f's declared payload length against the @p carried bytes. */
void
checkPayloadLen(const FrameInfo &f, std::uint64_t carried, std::size_t at)
{
    decode_check(f.payloadLen <= carried, DecodeStatus::Truncated, at,
                 "payload declares %llu bytes, %llu remain",
                 (unsigned long long)f.payloadLen,
                 (unsigned long long)carried);
    decode_check(f.payloadLen == carried, DecodeStatus::BadLength, at,
                 "%llu trailing bytes after declared payload",
                 (unsigned long long)(carried - f.payloadLen));
}

} // namespace

WireFrame
encodeWireFrame(const FrameRef &f, std::uint64_t checksum)
{
    WireFrame w;
    std::uint8_t *p = w.header.data();
    p = putLE(p, kFrameMagic, 4);
    *p++ = kFrameVersion;
    *p++ = f.format;
    p = putLE(p, f.flags, 2);
    p = putLE(p, f.srcNode, 4);
    p = putLE(p, f.dstNode, 4);
    p = putLE(p, f.partition, 4);
    p = putLE(p, f.payloadLen, 8);
    p = putLE(p, checksum, 8);
    if (f.hasTrace()) {
        p = putLE(p, f.traceId, 8);
        p = putLE(p, f.spanId, 4);
        p = putLE(p, 0, 4); // reserved, must be zero
    }
    w.headerLen = static_cast<std::uint32_t>(p - w.header.data());
    w.payload = f.payload;
    w.payloadLen = f.payloadLen;
    return w;
}

FrameRef
frameRef(const Frame &f)
{
    FrameRef ref;
    ref.format = f.format;
    ref.flags = f.flags;
    ref.srcNode = f.srcNode;
    ref.dstNode = f.dstNode;
    ref.partition = f.partition;
    ref.traceId = f.traceId;
    ref.spanId = f.spanId;
    ref.payload = f.payload.data();
    ref.payloadLen = f.payload.size();
    return ref;
}

std::vector<std::uint8_t>
encodeFrame(const Frame &f)
{
    const WireFrame w = encodeWireFrame(
        frameRef(f), fnv1a64(f.payload.data(), f.payload.size()));
    std::vector<std::uint8_t> out;
    out.reserve(w.size());
    out.assign(w.header.data(), w.header.data() + w.headerLen);
    out.insert(out.end(), f.payload.begin(), f.payload.end());
    return out;
}

Frame
decodeFrame(const std::vector<std::uint8_t> &bytes)
{
    ByteReader r(bytes);
    FrameInfo info = parseHeader(r);
    checkPayloadLen(info, r.remaining(), r.pos());
    info.payload = bytes.data() + r.pos();

    Frame f;
    f.format = info.format;
    f.flags = info.flags;
    f.srcNode = info.srcNode;
    f.dstNode = info.dstNode;
    f.partition = info.partition;
    f.traceId = info.traceId;
    f.spanId = info.spanId;
    f.payload.assign(info.payload, info.payload + info.payloadLen);

    const std::uint64_t computed =
        fnv1a64(f.payload.data(), f.payload.size());
    decode_check(computed == info.checksum, DecodeStatus::Malformed,
                 kFrameHeaderBytes - 8,
                 "payload checksum mismatch (stored %016llx, computed "
                 "%016llx)",
                 (unsigned long long)info.checksum,
                 (unsigned long long)computed);
    return f;
}

DecodeResult<FrameInfo>
tryDecodeFrameInfo(const WireFrame &frame)
{
    try {
        decode_check(frame.headerLen <= frame.header.size(),
                     DecodeStatus::BadLength, 0,
                     "header length %u exceeds the %zu-byte maximum",
                     frame.headerLen, frame.header.size());
        ByteReader r(frame.header.data(), frame.headerLen);
        FrameInfo info = parseHeader(r);
        decode_check(r.done(), DecodeStatus::BadLength, r.pos(),
                     "%zu stray bytes after the frame header",
                     r.remaining());
        checkPayloadLen(info, frame.payloadLen, r.pos());
        info.payload = frame.payload;
        return info;
    } catch (const DecodeError &e) {
        return e;
    }
}

DecodeResult<Frame>
tryDecodeFrame(const std::vector<std::uint8_t> &bytes)
{
    try {
        return decodeFrame(bytes);
    } catch (const DecodeError &e) {
        return e;
    }
}

} // namespace cereal
