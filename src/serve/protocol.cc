#include "serve/protocol.h"

#include <cstring>

#include "common/failpoint.h"
#include "common/io_retry.h"

namespace tablegan {
namespace serve {
namespace {

// --- little-endian primitive append/read over std::string bodies.

template <typename T>
void Append(std::string* out, T v) {
  char buf[sizeof(T)];
  std::memcpy(buf, &v, sizeof(T));
  out->append(buf, sizeof(T));
}

/// Cursor over a frame body; every Read checks bounds.
struct Reader {
  const std::string& body;
  size_t pos = 0;

  template <typename T>
  bool Read(T* v) {
    if (body.size() - pos < sizeof(T)) return false;
    std::memcpy(v, body.data() + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }

  bool ReadBytes(size_t n, std::string* out) {
    if (body.size() - pos < n) return false;
    out->assign(body.data() + pos, n);
    pos += n;
    return true;
  }

  bool AtEnd() const { return pos == body.size(); }
};

}  // namespace

const char* WireStatusToString(WireStatus s) {
  switch (s) {
    case WireStatus::kOk: return "OK";
    case WireStatus::kBusy: return "BUSY";
    case WireStatus::kUnknownModel: return "UNKNOWN_MODEL";
    case WireStatus::kBadRequest: return "BAD_REQUEST";
    case WireStatus::kInternal: return "INTERNAL";
    case WireStatus::kUnknownLabel: return "UNKNOWN_LABEL";
  }
  return "INVALID";
}

std::string EncodeRequest(const SampleRequest& req) {
  std::string body;
  // Unconditional requests stay on version 1: byte-identical to what a
  // pre-conditional client emits, so old servers keep serving them.
  Append<uint32_t>(&body, req.where_label.has_value() ? kProtocolVersion
                                                      : kMinProtocolVersion);
  Append<uint8_t>(&body, static_cast<uint8_t>(req.format));
  Append<uint16_t>(&body, static_cast<uint16_t>(req.model_id.size()));
  body.append(req.model_id);
  Append<uint64_t>(&body, req.seed);
  Append<int64_t>(&body, req.row_begin);
  Append<int64_t>(&body, req.row_end);
  if (req.where_label.has_value()) {
    Append<uint8_t>(&body, 1);
    Append<double>(&body, *req.where_label);
  }
  return body;
}

Result<SampleRequest> DecodeRequest(const std::string& body) {
  Reader r{body};
  uint32_t version = 0;
  uint8_t format = 0;
  uint16_t id_len = 0;
  SampleRequest req;
  if (!r.Read(&version)) {
    return Status::InvalidArgument("request truncated before version");
  }
  if (version < kMinProtocolVersion || version > kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!r.Read(&format) || !r.Read(&id_len)) {
    return Status::InvalidArgument("request truncated in header");
  }
  if (format > static_cast<uint8_t>(Format::kCsvNoHeader)) {
    return Status::InvalidArgument("unknown format code " +
                                   std::to_string(format));
  }
  req.format = static_cast<Format>(format);
  if (id_len == 0 || id_len > kMaxModelIdLen) {
    return Status::InvalidArgument("model id length " +
                                   std::to_string(id_len) +
                                   " outside [1, " +
                                   std::to_string(kMaxModelIdLen) + "]");
  }
  if (!r.ReadBytes(id_len, &req.model_id)) {
    return Status::InvalidArgument("request truncated in model id");
  }
  if (!r.Read(&req.seed) || !r.Read(&req.row_begin) || !r.Read(&req.row_end)) {
    return Status::InvalidArgument("request truncated in range fields");
  }
  if (version >= 2) {
    uint8_t has_label = 0;
    double label = 0.0;
    if (!r.Read(&has_label) || !r.Read(&label)) {
      return Status::InvalidArgument("request truncated in label trailer");
    }
    if (has_label > 1) {
      return Status::InvalidArgument("invalid has_label flag " +
                                     std::to_string(has_label));
    }
    if (has_label == 1) req.where_label = label;
  }
  if (!r.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after request");
  }
  if (req.row_begin < 0 || req.row_end < req.row_begin) {
    return Status::InvalidArgument(
        "invalid row range [" + std::to_string(req.row_begin) + ", " +
        std::to_string(req.row_end) + ")");
  }
  return req;
}

std::string EncodeResponse(const SampleResponse& resp) {
  std::string body;
  Append<uint32_t>(&body, static_cast<uint32_t>(resp.status));
  body.append(resp.payload);
  return body;
}

Result<SampleResponse> DecodeResponse(const std::string& body) {
  Reader r{body};
  uint32_t status = 0;
  if (!r.Read(&status)) {
    return Status::InvalidArgument("response truncated before status");
  }
  if (status > static_cast<uint32_t>(WireStatus::kUnknownLabel)) {
    return Status::InvalidArgument("unknown wire status " +
                                   std::to_string(status));
  }
  SampleResponse resp;
  resp.status = static_cast<WireStatus>(status);
  resp.payload = body.substr(r.pos);
  return resp;
}

Status WriteFrame(int fd, const std::string& body) {
  uint32_t magic = kFrameMagic;
  if (TABLEGAN_FAILPOINT("serve.frame.corrupt_magic")) magic ^= 0x00FF0000u;
  uint32_t len = static_cast<uint32_t>(body.size());
  if (TABLEGAN_FAILPOINT("serve.frame.oversize")) {
    len = kMaxResponseBody + 1;
  }
  size_t send = body.size();
  if (TABLEGAN_FAILPOINT("serve.frame.truncate")) send /= 2;
  // Header and body leave in one send. As two writes, the body sat in
  // Nagle's buffer until the peer's delayed ACK of the header, which
  // made every request round trip ~88 ms; the body copy costs
  // microseconds.
  std::string frame;
  frame.reserve(2 * sizeof(uint32_t) + send);
  Append<uint32_t>(&frame, magic);
  Append<uint32_t>(&frame, len);
  frame.append(body, 0, send);
  TABLEGAN_RETURN_NOT_OK(io::SendFull(fd, frame.data(), frame.size()));
  if (send != body.size()) {
    // The injected truncation: the peer now sees a mid-frame EOF once
    // this end closes. Report the short write locally too.
    return Status::IOError("short frame write (injected)");
  }
  return Status::OK();
}

Result<std::string> ReadFrame(int fd, uint32_t max_body) {
  if (TABLEGAN_FAILPOINT("serve.frame.read")) {
    return Status::IOError("injected failure: serve.frame.read");
  }
  uint32_t header[2] = {0, 0};
  TABLEGAN_ASSIGN_OR_RETURN(size_t got,
                            io::ReadFull(fd, header, sizeof(header)));
  if (got == 0) {
    // Clean hangup at a frame boundary — the "no more requests" signal.
    return Status::NotFound("connection closed");
  }
  if (got < sizeof(header)) {
    return Status::IOError("connection closed mid-frame header");
  }
  if (header[0] != kFrameMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  const uint32_t len = header[1];
  if (len > max_body) {
    return Status::InvalidArgument("frame body of " + std::to_string(len) +
                                   " bytes exceeds cap of " +
                                   std::to_string(max_body));
  }
  std::string body(len, '\0');
  if (len > 0) {
    TABLEGAN_ASSIGN_OR_RETURN(size_t body_got,
                              io::ReadFull(fd, body.data(), len));
    if (body_got < len) {
      return Status::IOError("connection closed mid-frame body");
    }
  }
  return body;
}

}  // namespace serve
}  // namespace tablegan
