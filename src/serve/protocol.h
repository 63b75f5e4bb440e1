#ifndef TABLEGAN_SERVE_PROTOCOL_H_
#define TABLEGAN_SERVE_PROTOCOL_H_

#include <cstdint>
#include <optional>
#include <string>

#include "common/status.h"

namespace tablegan {
namespace serve {

/// Wire protocol of the synthesis daemon (DESIGN.md §13).
///
/// Every message is one length-prefixed frame:
///
///   [u32 magic "TGSv"][u32 body_len][body_len bytes]
///
/// all integers little-endian. A request body is
///
///   [u32 version][u8 format][u16 model_id_len][model_id bytes]
///   [u64 seed][i64 row_begin][i64 row_end]
///   [u8 has_label][f64 label]            (version 2 only)
///
/// Version 1 requests (no label trailer) are still accepted — an
/// unconditional client needs no upgrade — and an unconditional version
/// 2 request sets has_label = 0 with a zero label field. When has_label
/// is 1 the server samples rows of the requested label through
/// TableGan::SampleConditional; a label the model was not trained on
/// answers with kUnknownLabel.
///
/// A response body is
///
///   [u32 wire_status][payload bytes]
///
/// where the payload is CSV text on kOk and a human-readable error
/// message otherwise. Decoding is strict: bad magic, a body length over
/// the cap, version/format values out of range, truncated fields and
/// trailing garbage are all rejected — a malformed frame must never be
/// partially interpreted.
///
/// Determinism contract: the response to (model, seed, [i, j)) is the
/// byte-exact CSV of rows [i, j) of the model's logical sample table
/// for `seed` — the same rows, bit for bit, that a local
/// TableGan::Sample stream with that seed emits, at any thread count
/// and under any sharding of the range across requests or servers.

constexpr uint32_t kFrameMagic = 0x7653'4754u;  // "TGSv" little-endian
/// Highest request version this build speaks. Version 1 (no conditional
/// trailer) is still decoded, and EncodeRequest emits it whenever the
/// request carries no label, so unconditional traffic is byte-identical
/// to what a v1-only peer produces and expects.
constexpr uint32_t kProtocolVersion = 2;
constexpr uint32_t kMinProtocolVersion = 1;

/// Requests are small (a model id plus counters); responses carry whole
/// CSV payloads.
constexpr uint32_t kMaxRequestBody = 1u << 16;
constexpr uint32_t kMaxResponseBody = 1u << 30;
constexpr size_t kMaxModelIdLen = 256;

/// Response payload format requested by the client.
enum class Format : uint8_t {
  kCsv = 0,          // header row + data rows (WriteCsv layout)
  kCsvNoHeader = 1,  // data rows only, so sharded ranges concatenate
};

/// Status carried on the wire, kept separate from StatusCode so the
/// protocol can stay stable if the library's codes change.
enum class WireStatus : uint32_t {
  kOk = 0,
  kBusy = 1,           // admission queue full; retry later
  kUnknownModel = 2,   // model id not in the registry
  kBadRequest = 3,     // malformed frame or invalid field values
  kInternal = 4,       // sampling/encoding failed server-side
  kUnknownLabel = 5,   // conditional request for a label the model lacks
};

const char* WireStatusToString(WireStatus s);

struct SampleRequest {
  std::string model_id;
  uint64_t seed = 0;
  int64_t row_begin = 0;
  int64_t row_end = 0;
  Format format = Format::kCsv;
  /// Condition-by-label: when set, the server returns rows [row_begin,
  /// row_end) of the model's per-label sample stream for this label.
  std::optional<double> where_label;
};

struct SampleResponse {
  WireStatus status = WireStatus::kOk;
  /// CSV text (kOk) or error message (anything else).
  std::string payload;
};

/// Body codecs. Encode* produce the frame body only (no frame header);
/// Decode* validate every field and reject trailing bytes.
std::string EncodeRequest(const SampleRequest& req);
Result<SampleRequest> DecodeRequest(const std::string& body);
std::string EncodeResponse(const SampleResponse& resp);
Result<SampleResponse> DecodeResponse(const std::string& body);

/// Frame I/O, built on the EINTR-safe io:: helpers. WriteFrame needs a
/// connected socket: it sends header and body as one buffer with
/// MSG_NOSIGNAL, so a hung-up peer is an IOError, never SIGPIPE.
/// ReadFrame takes any readable fd and returns NotFound on clean EOF at
/// a frame boundary (the peer hung up between requests), IOError on a
/// mid-frame EOF or transport error, and InvalidArgument on bad magic
/// or an oversized length prefix.
///
/// Failpoint sites, used by tests to force every malformed-frame shape
/// onto a live connection: serve.frame.corrupt_magic (outgoing magic
/// scrambled), serve.frame.truncate (only half the declared body is
/// sent), serve.frame.oversize (length prefix claims more than
/// max_body), serve.frame.read (incoming frame read fails).
Status WriteFrame(int fd, const std::string& body);
Result<std::string> ReadFrame(int fd, uint32_t max_body);

}  // namespace serve
}  // namespace tablegan

#endif  // TABLEGAN_SERVE_PROTOCOL_H_
