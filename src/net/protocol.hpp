// Binary wire protocol of the scale-out serving layer (docs/SERVICE.md).
//
// Every message is one length-prefixed frame: a fixed 20-byte header
// (magic, version, type, flags, payload length, correlation id) followed
// by a type-specific payload.  All integers and doubles are little-endian
// on the wire; encode/decode fold bytes explicitly, so the format is
// identical across host endiannesses (matching the endian-stable
// pattern_digest the front-end routes on).
//
// Design points:
//   * The pattern digest sits at byte 0 of every request payload, so the
//     front-end routes a frame to its shard by peeking 8 bytes -- it never
//     parses (or copies) the CSC body it proxies.
//   * Matrix ingestion is zero-copy into the mat/ CSC layout: the decoder
//     bulk-copies the wire arrays straight into the colptr/rowind/values
//     vectors a CscMatrix adopts -- no intermediate triplet or DTO form.
//   * Request frames carry an explicit trace context (trace id + parent
//     span id), threading the obs trace across the wire; 0 means "none".
//   * Responses carry the structured outcome (status + ErrorCode), the
//     serving shard's name, and the full RequestStats/RunStats surface as
//     a JSON document -- the same bytes `obs::to_json(RequestStats).dump()`
//     produces in-process.
//
// This header depends only on mat/csc.hpp and the common layer; no
// sockets, no event loop -- protocol robustness is testable in isolation
// (tests/test_net.cpp round-trips and malformed-input suites).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "mat/csc.hpp"

namespace spx::net {

/// Thrown by decoders on any malformed, truncated, or out-of-bounds
/// input.  Servers catch it and answer with an Error frame (they never
/// crash on hostile bytes; the ASan suite pins this).
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Wire magic: the bytes 'S' 'P' 'X' 'W' in order.
inline constexpr std::uint32_t kMagic = 0x57585053u;
/// Protocol version; a peer speaking a different version gets an Error
/// frame with code VersionMismatch and the connection is closed.
/// v2 added the optional per-frame CRC32C trailer (kFlagChecksum).
/// v3 added the refactorize opcodes (RefactorizeRequest/Response) -- a
/// v2 peer cannot express them, so the version gate is the skew defense
/// (tests/test_net.cpp exercises both directions).
inline constexpr std::uint8_t kProtocolVersion = 3;
/// Frame header size on the wire.
inline constexpr std::size_t kHeaderBytes = 20;
/// Default ceiling on payload size; larger length fields are rejected
/// before any allocation (slow-loris / memory-bomb defense).
inline constexpr std::size_t kDefaultMaxPayload = 256u << 20;

/// Header flag: the payload carries a 4-byte little-endian CRC32C
/// trailer computed over the payload bytes that precede it (the trailer
/// is included in `length`).  FrameParser verifies and strips it, so a
/// flipped bit surfaces as a ProtocolError instead of a decoded frame.
/// Opt-in per sender (see add_checksum); receivers always understand it.
inline constexpr std::uint16_t kFlagChecksum = 0x1;
/// Size of the CRC32C trailer kFlagChecksum announces.
inline constexpr std::size_t kChecksumBytes = 4;

enum class FrameType : std::uint8_t {
  FactorizeRequest = 1,
  SolveRequest = 2,
  FactorizeResponse = 3,
  SolveResponse = 4,
  Error = 5,
  Ping = 6,
  Pong = 7,
  RefactorizeRequest = 8,   ///< v3: numeric-only refresh of a live factor
  RefactorizeResponse = 9,  ///< v3: same body layout as FactorizeResponse
};

const char* to_string(FrameType t);

/// Protocol-level error codes carried by Error frames (distinct from the
/// service-level ErrorCode, which rides inside response frames).
enum class NetError : std::uint32_t {
  VersionMismatch = 1,  ///< peer speaks another protocol version
  Malformed = 2,        ///< frame failed to decode
  UnsupportedType = 3,  ///< frame type this endpoint does not handle
  Overloaded = 4,       ///< per-shard in-flight window full (retryable)
  Draining = 5,         ///< shard is draining; reroute (retryable)
  NoShard = 6,          ///< front-end has no live shard for the key
  UnknownFactor = 7,    ///< factor id not resident (re-factorize)
  Internal = 8,         ///< unexpected server-side failure
  DeadlineExceeded = 9,  ///< request deadline passed; retrying is useless
};

const char* to_string(NetError e);

/// True for protocol errors a client should absorb by retrying (possibly
/// against a rerouted shard) rather than surfacing.
bool retryable(NetError e);

struct FrameHeader {
  std::uint8_t version = kProtocolVersion;
  FrameType type = FrameType::Ping;
  std::uint16_t flags = 0;
  std::uint32_t length = 0;   ///< payload bytes following the header
  std::uint64_t corr_id = 0;  ///< echoed verbatim in the response
};

// ---- frame bodies -------------------------------------------------------

/// Trace context threaded across the wire (0/0 = no trace).
struct WireTrace {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
};

struct FactorizeRequestFrame {
  std::uint64_t pattern_digest = 0;  ///< byte 0 of the payload (routing key)
  WireTrace trace;
  Factorization kind = Factorization::LLT;
  std::string tenant;
  double deadline_s = 0;  ///< 0 = none
  /// Decoded matrix (decode only; encoding reads from `matrix_view`).
  std::shared_ptr<const CscMatrix<real_t>> matrix;
};

struct SolveRequestFrame {
  std::uint64_t pattern_digest = 0;  ///< routes to the factor's shard
  WireTrace trace;
  std::uint64_t factor_id = 0;  ///< from a FactorizeResponse
  std::string tenant;
  double deadline_s = 0;
  std::vector<real_t> rhs;
};

/// Numeric-only re-factorization of a resident factor: new values for the
/// pattern the factor was built from.  The prefix layout (digest, trace,
/// factor id, tenant, deadline) deliberately matches SolveRequestFrame,
/// so peek_deadline and the routing path treat both alike.  The shard
/// verifies `pattern_digest` against the factor before ingesting.
struct RefactorizeRequestFrame {
  std::uint64_t pattern_digest = 0;  ///< routes to the factor's shard
  WireTrace trace;
  std::uint64_t factor_id = 0;  ///< from a FactorizeResponse
  std::string tenant;
  double deadline_s = 0;
  std::vector<real_t> values;  ///< nnz new values, CSC storage order
};

struct FactorizeResponseFrame {
  std::uint8_t status = 0;  ///< service::RequestStatus
  std::uint8_t code = 0;    ///< service::ErrorCode
  bool degraded = false;
  std::uint64_t factor_id = 0;  ///< valid iff status == Done
  std::string shard;            ///< serving shard's name (affinity checks)
  std::string error;
  std::string stats_json;  ///< obs::to_json(RequestStats).dump() (+RunStats)
};

struct SolveResponseFrame {
  std::uint8_t status = 0;
  std::uint8_t code = 0;
  bool degraded = false;
  std::string shard;
  std::string error;
  std::string stats_json;
  std::vector<real_t> x;  ///< solution; empty unless status == Done
};

struct ErrorFrame {
  NetError code = NetError::Internal;
  std::string message;
};

// ---- encode -------------------------------------------------------------

/// Encodes a complete frame (header + payload) ready to write.
std::vector<std::uint8_t> encode_factorize_request(
    std::uint64_t corr_id, const FactorizeRequestFrame& f,
    const CscMatrix<real_t>& a);
std::vector<std::uint8_t> encode_solve_request(std::uint64_t corr_id,
                                               const SolveRequestFrame& f);
std::vector<std::uint8_t> encode_refactorize_request(
    std::uint64_t corr_id, const RefactorizeRequestFrame& f);
std::vector<std::uint8_t> encode_factorize_response(
    std::uint64_t corr_id, const FactorizeResponseFrame& f);
/// Same body layout as FactorizeResponse under the RefactorizeResponse
/// frame type (a refactorize outcome IS a factorize outcome).
std::vector<std::uint8_t> encode_refactorize_response(
    std::uint64_t corr_id, const FactorizeResponseFrame& f);
std::vector<std::uint8_t> encode_solve_response(
    std::uint64_t corr_id, const SolveResponseFrame& f);
std::vector<std::uint8_t> encode_error(std::uint64_t corr_id, NetError code,
                                       std::string_view message);
std::vector<std::uint8_t> encode_empty(FrameType type,
                                       std::uint64_t corr_id);

/// Assembles a frame from an explicit header and payload, trusting the
/// header fields verbatim (version included; length is taken from the
/// payload).  The front-end uses it to re-correlate proxied frames
/// without touching their bodies; tests use it to forge hostile headers.
/// When `header.flags` has kFlagChecksum set, a fresh CRC32C trailer is
/// appended (FrameParser strips trailers on receipt, so proxied payloads
/// arrive here bare and must be re-sealed).
std::vector<std::uint8_t> encode_raw_frame(
    const FrameHeader& header, std::span<const std::uint8_t> payload);

/// Seals an already-encoded frame with the optional integrity trailer:
/// appends CRC32C over the payload, sets kFlagChecksum, and fixes up the
/// header length.  Idempotent-unsafe (do not call twice on one frame).
void add_checksum(std::vector<std::uint8_t>& frame);

// ---- decode -------------------------------------------------------------

/// Decodes a header from exactly kHeaderBytes.  Throws ProtocolError on a
/// bad magic; version is NOT checked here (the caller decides whether to
/// answer VersionMismatch or close).
FrameHeader decode_header(std::span<const std::uint8_t> bytes);

FactorizeRequestFrame decode_factorize_request(
    std::span<const std::uint8_t> payload);
SolveRequestFrame decode_solve_request(std::span<const std::uint8_t> payload);
RefactorizeRequestFrame decode_refactorize_request(
    std::span<const std::uint8_t> payload);
FactorizeResponseFrame decode_factorize_response(
    std::span<const std::uint8_t> payload);
FactorizeResponseFrame decode_refactorize_response(
    std::span<const std::uint8_t> payload);
SolveResponseFrame decode_solve_response(
    std::span<const std::uint8_t> payload);
ErrorFrame decode_error(std::span<const std::uint8_t> payload);

/// Routing key of a request payload without decoding it: the pattern
/// digest every request type stores in its first 8 bytes.
std::uint64_t peek_pattern_digest(std::span<const std::uint8_t> payload);

/// Relative deadline of a request payload without decoding the body
/// (both request layouts keep it in a fixed-offset prefix).  Returns 0
/// ("no deadline") for non-request frames or a truncated prefix -- the
/// value is advisory (the shard re-decodes authoritatively), so peeking
/// never throws.
double peek_deadline(FrameType type, std::span<const std::uint8_t> payload);

// ---- stream assembly ----------------------------------------------------

/// Incremental frame assembler over a byte stream: feed whatever arrived,
/// take complete frames out.  Tolerates arbitrary fragmentation (a
/// slow-loris peer dribbling one byte at a time) and rejects oversized or
/// bad-magic input with ProtocolError before buffering the body.
class FrameParser {
 public:
  explicit FrameParser(std::size_t max_payload = kDefaultMaxPayload)
      : max_payload_(max_payload) {}

  /// One fully-assembled frame.
  struct Frame {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
  };

  /// Appends raw bytes from the stream.  Throws ProtocolError on bad
  /// magic or an oversized declared length (the connection should be
  /// closed; resynchronization is not attempted).
  void feed(std::span<const std::uint8_t> bytes);

  /// Pops the next complete frame, or nullopt when more bytes are needed.
  std::optional<Frame> next();

  /// Bytes currently buffered (tests: bounded under slow-loris).
  std::size_t buffered() const { return buf_.size(); }

 private:
  std::size_t max_payload_;
  std::vector<std::uint8_t> buf_;
  std::size_t consumed_ = 0;  ///< parsed-off prefix, compacted lazily
};

}  // namespace spx::net
