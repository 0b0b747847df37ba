#include "server/wire.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <type_traits>

namespace poolnet::server {

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::ParseError: return "parse-error";
    case ErrorCode::TooManyInFlight: return "too-many-in-flight";
    case ErrorCode::ServerBusy: return "server-busy";
    case ErrorCode::ShuttingDown: return "shutting-down";
    case ErrorCode::BadFrame: return "bad-frame";
  }
  return "?";
}

namespace {

/// Stores `v` little-endian at `p` and returns the byte past it: one
/// memcpy on little-endian hosts, a byte loop elsewhere.
template <typename T>
std::uint8_t* store_le(std::uint8_t* p, T v) {
  static_assert(std::is_unsigned_v<T>);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(p, &v, sizeof(v));
  } else {
    for (std::size_t i = 0; i < sizeof(v); ++i)
      p[i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
  return p + sizeof(v);
}

std::uint8_t* store_f64(std::uint8_t* p, double v) {
  return store_le(p, std::bit_cast<std::uint64_t>(v));
}

template <typename T>
void put_le(std::vector<std::uint8_t>& out, T v) {
  const std::size_t at = out.size();
  out.resize(at + sizeof(v));
  store_le(out.data() + at, v);
}

// Result frame header: u32 length, u8 type, u64 request id, u8 kind.
constexpr std::size_t kResultHeaderBytes = 4 + 1 + 8 + 1;
// Per event: u64 id, u32 source, u8 dims, then dims + 1 f64 fields.
constexpr std::size_t kEventFixedBytes = 8 + 4 + 1 + 8;

std::size_t events_bytes(const std::vector<storage::Event>& events) {
  std::size_t n = 4;
  for (const storage::Event& e : events)
    n += kEventFixedBytes + 8 * e.values.size();
  return n;
}

/// Writes the encode_events layout at `p`, which must hold
/// events_bytes(events) bytes.
void store_events(std::uint8_t* p, const std::vector<storage::Event>& events) {
  p = store_le(p, static_cast<std::uint32_t>(events.size()));
  for (const storage::Event& e : events) {
    p = store_le(p, e.id);
    p = store_le(p, static_cast<std::uint32_t>(e.source));
    *p++ = static_cast<std::uint8_t>(e.values.size());
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t n = 8 * e.values.size();
      if (n != 0) std::memcpy(p, e.values.begin(), n);
      p += n;
    } else {
      for (const double v : e.values) p = store_f64(p, v);
    }
    p = store_f64(p, e.detected_at);
  }
}

/// A Result frame with its header filled in and room for `body_bytes`
/// body bytes, which start at kResultHeaderBytes.
std::vector<std::uint8_t> result_frame(std::uint64_t request_id,
                                       ResultKind kind,
                                       std::size_t body_bytes) {
  std::vector<std::uint8_t> frame(kResultHeaderBytes + body_bytes);
  std::uint8_t* p = frame.data();
  p = store_le(p, static_cast<std::uint32_t>(frame.size() - 4));
  *p++ = static_cast<std::uint8_t>(FrameType::Result);
  p = store_le(p, request_id);
  *p = static_cast<std::uint8_t>(kind);
  return frame;
}

}  // namespace

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  put_le(out, v);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_le(out, v);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_le(out, v);
}

void put_f64(std::vector<std::uint8_t>& out, double v) {
  put_le(out, std::bit_cast<std::uint64_t>(v));
}

void put_text(std::vector<std::uint8_t>& out, const std::string& text) {
  out.insert(out.end(), text.begin(), text.end());
}

const std::uint8_t* PayloadReader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return nullptr;
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t PayloadReader::u8() {
  const auto* p = take(1);
  return p ? *p : 0;
}

std::uint16_t PayloadReader::u16() {
  const auto* p = take(2);
  if (!p) return 0;
  return static_cast<std::uint16_t>(p[0] | (p[1] << 8));
}

std::uint32_t PayloadReader::u32() {
  const auto* p = take(4);
  if (!p) return 0;
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t PayloadReader::u64() {
  const auto* p = take(8);
  if (!p) return 0;
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

double PayloadReader::f64() {
  const std::uint64_t bits = u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string PayloadReader::rest_text() {
  if (!ok_) return {};
  std::string text(reinterpret_cast<const char*>(data_ + pos_),
                   size_ - pos_);
  pos_ = size_;
  return text;
}

void append_frame(std::vector<std::uint8_t>& out, FrameType type,
                  const std::vector<std::uint8_t>& payload) {
  put_u32(out, static_cast<std::uint32_t>(payload.size() + 1));
  out.push_back(static_cast<std::uint8_t>(type));
  out.insert(out.end(), payload.begin(), payload.end());
}

std::vector<std::uint8_t> encode_request(FrameType type,
                                         std::uint64_t request_id,
                                         const std::string& statement) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, request_id);
  put_text(payload, statement);
  std::vector<std::uint8_t> frame;
  append_frame(frame, type, payload);
  return frame;
}

std::vector<std::uint8_t> encode_result(
    std::uint64_t request_id, ResultKind kind,
    const std::vector<std::uint8_t>& body) {
  std::vector<std::uint8_t> frame = result_frame(request_id, kind, body.size());
  std::copy(body.begin(), body.end(), frame.begin() + kResultHeaderBytes);
  return frame;
}

std::vector<std::uint8_t> encode_query_result(
    std::uint64_t request_id, const std::vector<storage::Event>& events) {
  std::vector<std::uint8_t> frame =
      result_frame(request_id, ResultKind::Query, events_bytes(events));
  store_events(frame.data() + kResultHeaderBytes, events);
  return frame;
}

std::vector<std::uint8_t> encode_error(std::uint64_t request_id,
                                       ErrorCode code,
                                       const std::string& message) {
  std::vector<std::uint8_t> payload;
  put_u64(payload, request_id);
  put_u16(payload, static_cast<std::uint16_t>(code));
  put_text(payload, message);
  std::vector<std::uint8_t> frame;
  append_frame(frame, FrameType::Error, payload);
  return frame;
}

std::vector<std::uint8_t> encode_events(
    const std::vector<storage::Event>& events) {
  std::vector<std::uint8_t> body(events_bytes(events));
  store_events(body.data(), events);
  return body;
}

bool decode_events(const std::vector<std::uint8_t>& body,
                   std::vector<storage::Event>* out) {
  out->clear();
  PayloadReader r(body);
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i) {
    storage::Event e;
    e.id = r.u64();
    e.source = static_cast<net::NodeId>(r.u32());
    const std::uint8_t dims = r.u8();
    if (dims > storage::kMaxDims) return false;
    for (std::uint8_t d = 0; d < dims; ++d) e.values.push_back(r.f64());
    e.detected_at = r.f64();
    if (r.ok()) out->push_back(std::move(e));
  }
  return r.ok() && r.remaining() == 0;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t n) {
  // Compact once the consumed prefix dominates, keeping the buffer from
  // growing with total stream volume.
  if (consumed_ > 4096 && consumed_ * 2 > buf_.size()) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + n);
}

bool FrameDecoder::next(Frame* out) {
  if (corrupt_) return false;
  const std::size_t avail = buf_.size() - consumed_;
  if (avail < 4) return false;
  PayloadReader header(buf_.data() + consumed_, 4);
  const std::uint32_t length = header.u32();
  if (length == 0 || length > kMaxFrameBytes) {
    corrupt_ = true;
    return false;
  }
  if (avail < 4 + static_cast<std::size_t>(length)) return false;
  const std::uint8_t* frame = buf_.data() + consumed_ + 4;
  out->type = static_cast<FrameType>(frame[0]);
  out->payload.assign(frame + 1, frame + length);
  consumed_ += 4 + length;
  return true;
}

}  // namespace poolnet::server
