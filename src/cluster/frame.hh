/**
 * @file
 * Partition-frame wire format for the cluster shuffle fabric.
 *
 * Every serialized partition a node pushes onto the wire is wrapped in
 * one frame so the receiver can route it (source, destination,
 * partition id), pick the right deserializer (format id), and detect
 * corruption before handing the payload to a decoder (FNV-1a-64
 * checksum). Like the serializer formats, the decoder treats the input
 * as hostile: every violation is a typed DecodeError, never an abort.
 *
 * Layout (little-endian, 36-byte header):
 *
 *   u32 magic      'C' 'F' 'R' 'M'
 *   u8  version    kFrameVersion
 *   u8  format     serializer id (0=java 1=kryo 2=skyway 3=cereal
 *                  4=plaincode 5=hps)
 *   u16 flags      bit0 = payload is LZ-compressed; others reserved
 *   u32 srcNode
 *   u32 dstNode
 *   u32 partition
 *   u64 payloadLen
 *   u64 checksum   FNV-1a-64 over the payload bytes
 *   [trace-context extension, 16 bytes, iff flags bit1:
 *      u64 traceId   nonzero request/batch trace id
 *      u32 spanId    request class / dataflow stage index
 *      u32 reserved  must be zero]
 *   payloadLen payload bytes (the frame ends exactly here)
 *
 * The trace extension rides between the fixed header and the payload so
 * a traced frame is 16 bytes longer on the wire — tracing overhead is
 * modeled, not free. It is covered by the same hardened-decoder
 * contract as the rest of the header: truncated extensions are
 * Truncated, a nonzero reserved word is Malformed, and a decoded frame
 * re-encodes to identical bytes.
 */

#ifndef CEREAL_CLUSTER_FRAME_HH
#define CEREAL_CLUSTER_FRAME_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "serde/decode_error.hh"

namespace cereal {

/** 'CFRM' as read back by a little-endian u32 load. */
constexpr std::uint32_t kFrameMagic = 0x4D524643;

constexpr std::uint8_t kFrameVersion = 1;

/** Number of serializer format ids (valid ids are [0, count)). */
constexpr std::uint8_t kFrameFormatCount = 6;

/** flags bit0: payload went through the LZ shuffle codec. */
constexpr std::uint16_t kFrameFlagCompressed = 0x0001;

/** flags bit1: a 16-byte trace-context extension follows the header. */
constexpr std::uint16_t kFrameFlagTraced = 0x0002;

/** Header bytes preceding the payload (or the trace extension). */
constexpr std::size_t kFrameHeaderBytes = 36;

/** Trace-context extension bytes (present iff kFrameFlagTraced). */
constexpr std::size_t kFrameTraceExtBytes = 16;

/** One framed partition. */
struct Frame
{
    std::uint8_t format = 0;
    std::uint16_t flags = 0;
    std::uint32_t srcNode = 0;
    std::uint32_t dstNode = 0;
    std::uint32_t partition = 0;
    /** Trace context (meaningful iff flags has kFrameFlagTraced). */
    std::uint64_t traceId = 0;
    std::uint32_t spanId = 0;
    std::vector<std::uint8_t> payload;

    bool hasTrace() const { return (flags & kFrameFlagTraced) != 0; }
};

/**
 * The header fields of a frame whose payload bytes are owned elsewhere:
 * the send path's input to encodeWireFrame(), which encodes the header
 * and borrows the payload instead of copying it.
 */
struct FrameRef
{
    std::uint8_t format = 0;
    std::uint16_t flags = 0;
    std::uint32_t srcNode = 0;
    std::uint32_t dstNode = 0;
    std::uint32_t partition = 0;
    /** Trace context (meaningful iff flags has kFrameFlagTraced). */
    std::uint64_t traceId = 0;
    std::uint32_t spanId = 0;
    const std::uint8_t *payload = nullptr;
    std::uint64_t payloadLen = 0;

    bool hasTrace() const { return (flags & kFrameFlagTraced) != 0; }
};

/**
 * One frame on the simulated wire, split in two: the encoded header
 * (36 bytes, plus the 16-byte trace extension when present) held
 * inline, and the payload borrowed from its owner. The header bytes
 * followed by the payload bytes are exactly encodeFrame()'s bytes, and
 * size() is their sum, so the fabric times a WireFrame like the
 * contiguous frame it stands for while moving only the header.
 *
 * Lifetime: the payload's owner must outlive the frame's delivery.
 * The cluster simulator's payload is its NodeProfile; a dataflow
 * stage's batches live until the stage has drained the event queue.
 */
struct WireFrame
{
    /** Header bytes; only the first headerLen are meaningful. */
    std::array<std::uint8_t, kFrameHeaderBytes + kFrameTraceExtBytes>
        header{};
    std::uint32_t headerLen = 0;
    /** Borrowed payload bytes. */
    const std::uint8_t *payload = nullptr;
    std::uint64_t payloadLen = 0;

    /** Bytes this frame occupies on the wire. */
    std::uint64_t size() const { return headerLen + payloadLen; }
};

/**
 * Header view of a validated frame (zero-copy decode): all header
 * fields plus a pointer to the payload bytes. The stored checksum
 * is NOT recomputed — callers that already know the expected payload
 * checksum compare against it; hostile input goes through decodeFrame.
 */
struct FrameInfo
{
    std::uint8_t format = 0;
    std::uint16_t flags = 0;
    std::uint32_t srcNode = 0;
    std::uint32_t dstNode = 0;
    std::uint32_t partition = 0;
    /** Trace context (meaningful iff flags has kFrameFlagTraced). */
    std::uint64_t traceId = 0;
    std::uint32_t spanId = 0;
    /** Payload bytes, pointing into the decoded frame's storage. */
    const std::uint8_t *payload = nullptr;
    std::uint64_t payloadLen = 0;
    /** Checksum as stored in the header (not recomputed). */
    std::uint64_t checksum = 0;

    bool hasTrace() const { return (flags & kFrameFlagTraced) != 0; }
};

/** Printable serializer name of frame format id @p id ("?" if bad). */
const char *frameFormatName(std::uint8_t id);

/** FNV-1a 64-bit hash of @p data (the frame payload checksum). */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t n);

/** The header fields of @p f, with its payload borrowed. */
FrameRef frameRef(const Frame &f);

/** Encode @p f; a decoded frame re-encodes to identical bytes. */
std::vector<std::uint8_t> encodeFrame(const Frame &f);

/**
 * Encode the header of @p f and borrow its payload (the only header
 * encoder; encodeFrame() appends the payload to its bytes). @p checksum
 * must be fnv1a64 over the payload: callers cache it once per payload
 * instead of re-hashing hundreds of kilobytes per send.
 */
WireFrame encodeWireFrame(const FrameRef &f, std::uint64_t checksum);

/**
 * Decode one frame occupying the whole of @p bytes.
 *
 * Trailing bytes after the declared payload are an error (BadLength):
 * the fabric delivers exact frames, so slack means corruption.
 *
 * @throws DecodeError on any malformed input
 */
Frame decodeFrame(const std::vector<std::uint8_t> &bytes);

/** Exception-free decodeFrame(). */
DecodeResult<Frame> tryDecodeFrame(const std::vector<std::uint8_t> &bytes);

/**
 * Validate the header of @p frame and return a view of it.
 *
 * Performs every structural check decodeFrame() does (magic, version,
 * format id, reserved flags, trace extension) with the same typed
 * errors, and requires the header to end exactly where its bytes end
 * (stray header bytes are BadLength) and the declared payload length
 * to equal the carried one (shorter is Truncated, longer BadLength).
 * It neither reads the payload nor recomputes its checksum;
 * FrameInfo::checksum is the stored value for the caller to compare
 * against a known-good hash. The view borrows the frame's payload.
 */
DecodeResult<FrameInfo> tryDecodeFrameInfo(const WireFrame &frame);

} // namespace cereal

#endif // CEREAL_CLUSTER_FRAME_HH
