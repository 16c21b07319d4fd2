#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/command.hpp"
#include "net/codec.hpp"
#include "net/payload.hpp"
#include "net/wire.hpp"

namespace m2::net {

/// Real wire serialization for every protocol message in the repository.
///
/// The simulator moves payloads by pointer and charges each one its
/// wire_size(); the threaded runtime encodes and decodes for real. Both
/// come from one description per message: its field list (net/wire.hpp),
/// from which encoding, decoding and wire_size() are derived, so the
/// modeled size is the encoded size by construction. A frame body is the
/// kind varint followed by the fields. Malformed input yields nullptr,
/// never UB: every read is bounds-checked (tests/serde_test.cpp,
/// tests/serde_exhaustive_test.cpp).
///
/// Kinds are the Payload::kind() values; field order is fixed per message.
/// FrameHeader (net/codec.hpp) provides the outer framing and checksum.
std::vector<std::uint8_t> encode_payload(const Payload& payload);

/// Encodes into `out` (cleared first), reusing its capacity — the hot-path
/// form: a sender encoding into a per-thread scratch buffer performs zero
/// allocations once the buffer has grown to the largest message size.
void encode_payload_into(const Payload& payload,
                         std::vector<std::uint8_t>& out);

/// Decodes exactly one message spanning all `n` bytes: bytes left over
/// after it make the input malformed.
///
/// Decoded payloads (and the commands they carry) are allocated from the
/// thread-safe wire arena (net/arena.hpp): transports decode on reader
/// threads while node threads release after handling, and the recycled
/// size classes make the steady-state decode path allocation-free.
PayloadPtr decode_payload(const std::uint8_t* data, std::size_t n);
inline PayloadPtr decode_payload(const std::vector<std::uint8_t>& bytes) {
  return decode_payload(bytes.data(), bytes.size());
}

/// Decodes the next message of a multi-message frame body, advancing `r`
/// past exactly the bytes it consumed; nullptr on malformed input.
PayloadPtr decode_next(Reader& r);

/// Command <-> bytes, as every message carries commands.
inline void write_command(Writer& w, const core::Command& c) {
  Codec<core::Command>::put(w, c);
}
std::optional<core::Command> read_command(Reader& r);

}  // namespace m2::net
