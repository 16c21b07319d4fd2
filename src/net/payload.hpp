#pragma once

#include <cstdint>
#include <memory>

#include "core/time.hpp"

namespace m2 {

/// Identity of a node in the cluster, 0..N-1.
using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = UINT32_MAX;

}  // namespace m2

namespace m2::net {

/// Base class of every message body exchanged between replicas.
///
/// The simulator does not serialize messages; instead every payload reports
/// its wire size, which drives bandwidth, batching, and CPU per-byte
/// costs. This is what lets the EPaxos dependency lists and the
/// Generalized Paxos c-structs "weigh" more than M²Paxos messages, exactly
/// as the paper argues (§VI-A). The threaded runtime serializes for real
/// through net::serde. Protocol messages implement this interface through
/// net::Message (net/wire.hpp): each declares its fields once, and kind(),
/// name(), wire_size() and its encoding all come from that declaration.
struct Payload {
  virtual ~Payload() = default;

  /// Message type tag, unique across all protocols (see kind ranges below).
  virtual std::uint32_t kind() const = 0;

  /// Exact bytes this message occupies on the wire: net::encode_payload
  /// (*this).size() (the kind tag plus the body, excluding the
  /// FrameHeader). Protocol messages count it by running their encoder
  /// over a net::Counter.
  virtual std::size_t wire_size() const = 0;

  /// Human-readable type name for traces and counters.
  virtual const char* name() const = 0;
};

using PayloadPtr = std::shared_ptr<const Payload>;

/// Kind ranges, one block per protocol, so a kind identifies both the
/// protocol and the message type.
inline constexpr std::uint32_t kKindCommon = 0;      // heartbeats etc.
inline constexpr std::uint32_t kKindMultiPaxos = 100;
inline constexpr std::uint32_t kKindGenPaxos = 200;
inline constexpr std::uint32_t kKindEPaxos = 300;
inline constexpr std::uint32_t kKindM2Paxos = 400;

/// A payload in flight together with its routing metadata.
struct Envelope {
  NodeId from = kNoNode;
  NodeId to = kNoNode;
  PayloadPtr payload;
  core::Time sent_at = 0;
};

/// Convenience for constructing immutable payloads.
template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args) {
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace m2::net
