#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace m2::net {

/// Encoded length in bytes of `v` as a LEB128 varint (1..10).
constexpr std::size_t varint_len(std::uint64_t v) {
  std::size_t n = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++n;
  }
  return n;
}

/// Minimal binary wire format used for message serialization (net::serde,
/// whose field codecs in net/wire.hpp write through a Writer and count
/// sizes through the Counter below), envelope framing, and the harness
/// snapshot/trace files. Round-trip
/// behaviour is unit tested, including varint boundaries and malformed
/// input.
///
/// A default-constructed Writer owns its buffer; the pointer constructor
/// appends into a caller-provided vector instead, so hot paths can reuse
/// one scratch buffer's capacity across messages instead of growing a
/// fresh allocation per encode.
class Writer {
 public:
  Writer() : buf_(&own_) {}
  /// Appends into `*out` (which is not cleared — callers own its prior
  /// contents). `*out` must outlive the Writer.
  explicit Writer(std::vector<std::uint8_t>* out) : buf_(out) {}
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) { buf_->push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  /// LEB128 variable-length unsigned integer.
  void varint(std::uint64_t v);
  void bytes(const void* data, std::size_t n);
  void str(const std::string& s);
  /// Appends `n` zero bytes — materializes modeled payload bytes (e.g. a
  /// command's opaque application payload) on a real wire.
  void pad(std::size_t n) { buf_->resize(buf_->size() + n, 0); }

  const std::vector<std::uint8_t>& data() const { return *buf_; }
  std::size_t size() const { return buf_->size(); }

 private:
  std::vector<std::uint8_t> own_;
  std::vector<std::uint8_t>* buf_;
};

/// The Writer interface without the bytes: adds up what a Writer would
/// append. Encoding into a Counter is how every message's wire_size() is
/// counted (net/wire.hpp), so the size can never drift from the encoding.
class Counter {
 public:
  void u8(std::uint8_t) { n_ += 1; }
  void u32(std::uint32_t) { n_ += 4; }
  void u64(std::uint64_t) { n_ += 8; }
  void varint(std::uint64_t v) { n_ += varint_len(v); }
  void bytes(const void*, std::size_t n) { n_ += n; }
  void pad(std::size_t n) { n_ += n; }

  std::size_t size() const { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Reader over a byte span; every accessor returns nullopt on underflow or
/// malformed input instead of throwing, so frames from a faulty peer cannot
/// crash the process.
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t n) : data_(data), end_(data + n) {}
  explicit Reader(const std::vector<std::uint8_t>& v)
      : Reader(v.data(), v.size()) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();
  std::optional<std::uint64_t> varint();
  std::optional<std::string> str();
  /// Discards `n` bytes (padding); false on underflow.
  bool skip(std::size_t n) {
    if (remaining() < n) return false;
    data_ += n;
    return true;
  }

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - data_); }

 private:
  const std::uint8_t* data_;
  const std::uint8_t* end_;
};

/// Frame header preceding every batch on a real wire: magic, version,
/// sender, message count, byte length, checksum.
struct FrameHeader {
  std::uint32_t sender = 0;
  std::uint32_t message_count = 0;
  std::uint64_t body_bytes = 0;
  std::uint32_t checksum = 0;

  static constexpr std::uint32_t kMagic = 0x4d32'5058;  // "M2PX"
  static constexpr std::uint8_t kVersion = 1;
  /// Encoded size: magic u32 + version u8 + sender u32 + count u32 +
  /// body u64 + checksum u32. Socket readers read exactly this much.
  static constexpr std::size_t kEncodedSize = 25;

  std::vector<std::uint8_t> encode() const;
  /// Writes the header into `out[0..kEncodedSize)` without allocating —
  /// the frame-buffer path patches headers in place.
  void encode_into(std::uint8_t* out) const;
  static std::optional<FrameHeader> decode(const std::uint8_t* data,
                                           std::size_t n);
};

/// CRC32C (Castagnoli) over `data`, hardware-accelerated where the CPU
/// supports it: runtime dispatch to SSE4.2 _mm_crc32_u64 on x86-64 (or the
/// ARMv8 CRC32 extension when compiled for it), otherwise a table-driven
/// software implementation. All paths compute the identical function
/// (cross-checked in tests against the RFC 3720 vectors).
std::uint32_t crc32c(const void* data, std::size_t n);

/// The software (table-driven) path, unconditionally. Exposed so tests can
/// cross-check the dispatched implementation against it.
std::uint32_t crc32c_sw(const void* data, std::size_t n);

/// True when crc32c() dispatches to a hardware implementation here.
bool crc32c_hw_available();

}  // namespace m2::net
