/**
 * @file
 * Length-prefixed binary framing of the serve protocol.
 *
 * Every message on an autofsm-serve connection is one frame:
 *
 *     byte 0      protocol version (kFrameVersion)
 *     byte 1      frame type (FrameType)
 *     bytes 2-5   payload length, u32 little-endian
 *     bytes 6-9   CRC32 (IEEE) of the payload, u32 little-endian
 *     bytes 10+   payload (JSON, flow/api.hh schema)
 *
 * The decoder rejects wrong versions, unknown types, oversized lengths
 * and CRC mismatches with a typed `FrameError` — a process boundary
 * validates before it trusts. A merely *incomplete* frame is not an
 * error: `next()` returns nullopt until more bytes arrive, so the
 * decoder drives a plain streaming socket read loop.
 */

#ifndef AUTOFSM_SERVE_FRAME_HH
#define AUTOFSM_SERVE_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace autofsm::serve
{

/** Protocol version carried in byte 0 of every frame. */
constexpr uint8_t kFrameVersion = 1;

/** Fixed header size: version, type, length, CRC32. */
constexpr size_t kFrameHeaderBytes = 10;

/** Default cap on one frame's payload (inline traces can be large). */
constexpr uint32_t kDefaultMaxPayloadBytes = 16u << 20;

/** What a frame carries. */
enum class FrameType : uint8_t
{
    DesignRequest = 1,   ///< client -> server: DesignRequest JSON
    DesignResponse = 2,  ///< server -> client: DesignResponse JSON
    MetricsRequest = 3,  ///< client -> server: empty payload
    MetricsResponse = 4, ///< server -> client: Prometheus text
    Error = 5,           ///< server -> client: protocol-level error text
    DebugRequest = 6,    ///< client -> server: empty payload
    DebugResponse = 7,   ///< server -> client: slow-request ring JSON
};

/** True when @p type is a defined FrameType value. */
bool frameTypeKnown(uint8_t type);

/** Stable lower-case name of @p type ("design-request", ...). */
const char *frameTypeName(FrameType type);

/** A malformed frame (wrong version, bad CRC, oversized, unknown type). */
class FrameError : public std::runtime_error
{
  public:
    explicit FrameError(const std::string &what)
        : std::runtime_error("frame: " + what)
    {
    }
};

/** One decoded frame. */
struct Frame
{
    FrameType type = FrameType::Error;
    std::string payload;
};

/** CRC32 (IEEE 802.3, reflected); crc32("123456789") == 0xCBF43926. */
uint32_t crc32(std::string_view bytes);

/** Encode one frame: header + payload, ready to write to a socket. */
std::string encodeFrame(FrameType type, std::string_view payload);

/**
 * Incremental frame decoder over a byte stream.
 *
 * Feed arbitrary chunks with `feed`, then drain complete frames with
 * `next` until it returns nullopt. Malformed input throws `FrameError`
 * and poisons the decoder (the connection is beyond resync once framing
 * is corrupt — the server drops it).
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(uint32_t max_payload = kDefaultMaxPayloadBytes)
        : maxPayload_(max_payload)
    {
    }

    /** Append @p bytes to the internal buffer. */
    void feed(std::string_view bytes);

    /**
     * Decode the next complete frame, or nullopt if more bytes are
     * needed.
     *
     * @throws FrameError on wrong version, unknown type, payload length
     *         over the cap, or CRC mismatch.
     */
    std::optional<Frame> next();

    /** Bytes buffered but not yet consumed by next(). */
    size_t buffered() const { return buffer_.size() - consumed_; }

  private:
    uint32_t maxPayload_;
    std::string buffer_;
    size_t consumed_ = 0;
};

} // namespace autofsm::serve

#endif // AUTOFSM_SERVE_FRAME_HH
