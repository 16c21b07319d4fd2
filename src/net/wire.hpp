#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/command.hpp"
#include "core/small_vec.hpp"
#include "net/codec.hpp"
#include "net/payload.hpp"

namespace m2::net {

/// One description per wire message.
///
/// A message lists its fields once, in wire order:
///
///   struct Accept final : net::Message<Accept, kKindMultiPaxos + 4> {
///     static constexpr const char* kName = "MP.Accept";
///     ...members...
///     static auto fields(auto& m, auto& v) {
///       return v(m.ballot, m.slot, net::batched(m.cmd, m.batch));
///     }
///   };
///
/// and visitors derive everything else from that list: Encoder over a
/// Writer encodes, Encoder over a Counter gives wire_size() (counted, never
/// by encoding into scratch), Decoder reads the fields back with every read
/// bounds-checked, and MinBytes gives the smallest encoding. `fields`
/// returns what the visitor returns: the decoder's success, or MinBytes's
/// compile-time sum.
///
/// Each field type has one Codec: put(Out&, const T&) for both sinks,
/// get(Reader&, T&) returning false on malformed input, and kMinBytes, the
/// fewest bytes any encoding of the type takes, which bounds list counts.
/// To add a message: derive it from Message, declare kName and `fields`,
/// and add it to the message list in net/serde.cpp.
template <typename T>
struct Codec;

/// Sums the fields' smallest encodings; only its return type is used.
struct MinBytes {
  template <typename... F>
  auto operator()(const F&...) const
      -> std::integral_constant<std::size_t,
                                (std::size_t{0} + ... + Codec<F>::kMinBytes)>;
};

/// Writes (Out = Writer) or counts (Out = Counter) each field in order.
template <typename Out>
struct Encoder {
  Out& out;
  template <typename... F>
  void operator()(const F&... f) const { (Codec<F>::put(out, f), ...); }
};

/// Reads each field in order; stops at the first malformed one.
struct Decoder {
  Reader& r;
  template <typename... F>
  bool operator()(F&&... f) const {
    return (Codec<std::remove_cvref_t<F>>::get(r, f) && ...);
  }
};

/// A struct that lists its own fields (messages and list elements).
template <typename T>
concept HasFields = requires(T& t, const Decoder& d) { T::fields(t, d); };

template <HasFields T>
struct Codec<T> {
  static constexpr std::size_t kMinBytes = decltype(T::fields(
      std::declval<T&>(), std::declval<const MinBytes&>()))::value;
  template <typename Out>
  static void put(Out& o, const T& v) {
    const Encoder<Out> e{o};
    T::fields(v, e);
  }
  static bool get(Reader& r, T& v) {
    const Decoder d{r};
    return T::fields(v, d);
  }
};

// ---------------------------------------------------------------------
// Scalars: fixed-width little-endian, bool as one byte (nonzero = true).
// ---------------------------------------------------------------------

/// Stores a successful read into `v`; false on a failed one.
template <typename T, typename U>
bool read_into(const std::optional<U>& x, T& v) {
  if (!x) return false;
  v = static_cast<T>(*x);
  return true;
}

template <>
struct Codec<bool> {
  static constexpr std::size_t kMinBytes = 1;
  template <typename Out>
  static void put(Out& o, bool v) { o.u8(v ? 1 : 0); }
  static bool get(Reader& r, bool& v) { return read_into(r.u8(), v); }
};

template <>
struct Codec<std::uint32_t> {
  static constexpr std::size_t kMinBytes = 4;
  template <typename Out>
  static void put(Out& o, std::uint32_t v) { o.u32(v); }
  static bool get(Reader& r, std::uint32_t& v) { return read_into(r.u32(), v); }
};

template <>
struct Codec<std::uint64_t> {
  static constexpr std::size_t kMinBytes = 8;
  template <typename Out>
  static void put(Out& o, std::uint64_t v) { o.u64(v); }
  static bool get(Reader& r, std::uint64_t& v) { return read_into(r.u64(), v); }
};

template <>
struct Codec<core::CommandId> {
  static constexpr std::size_t kMinBytes = 8;
  template <typename Out>
  static void put(Out& o, core::CommandId id) { o.u64(id.value); }
  static bool get(Reader& r, core::CommandId& id) {
    return Codec<std::uint64_t>::get(r, id.value);
  }
};

template <typename A, typename B>
struct Codec<std::pair<A, B>> {
  static constexpr std::size_t kMinBytes =
      Codec<A>::kMinBytes + Codec<B>::kMinBytes;
  template <typename Out>
  static void put(Out& o, const std::pair<A, B>& p) {
    Codec<A>::put(o, p.first);
    Codec<B>::put(o, p.second);
  }
  static bool get(Reader& r, std::pair<A, B>& p) {
    return Codec<A>::get(r, p.first) && Codec<B>::get(r, p.second);
  }
};

// ---------------------------------------------------------------------
// Counted lists: varint count, then the elements.
// ---------------------------------------------------------------------

/// Reads a list's element count, rejecting one the rest of the frame cannot
/// hold at `min_bytes` per element: a hostile count must fail before it
/// sizes any buffer, so a frame can only make the decoder allocate what its
/// own bytes back.
inline std::optional<std::uint64_t> read_count(Reader& r,
                                               std::size_t min_bytes) {
  const auto n = r.varint();
  if (!n || *n > r.remaining() / min_bytes) return std::nullopt;
  return n;
}

template <typename List>
struct ListCodec {
  using Elem = typename List::value_type;
  static constexpr std::size_t kMinBytes = 1;
  template <typename Out>
  static void put(Out& o, const List& list) {
    o.varint(list.size());
    for (const Elem& e : list) Codec<Elem>::put(o, e);
  }
  static bool get(Reader& r, List& list) {
    const auto n = read_count(r, Codec<Elem>::kMinBytes);
    if (!n) return false;
    list.reserve(*n);
    for (std::uint64_t i = 0; i < *n; ++i)
      if (!Codec<Elem>::get(r, list.emplace_back())) return false;
    return true;
  }
};

template <typename T, typename A>
struct Codec<std::vector<T, A>> : ListCodec<std::vector<T, A>> {};
template <typename T, std::size_t N>
struct Codec<core::SmallVec<T, N>> : ListCodec<core::SmallVec<T, N>> {};

// ---------------------------------------------------------------------
// Commands
// ---------------------------------------------------------------------

/// Command layout:
///   u64 id | u32 payload_bytes | u8 flags | varint n_objects | u64*n
///   then either varint body_len + body bytes      (flags & kHasBody)
///   or payload_bytes of zero padding              (no attached body).
/// The padding materializes the modeled opaque application payload on a
/// real wire; decode restores body == nullptr for that case, so encode and
/// decode are exact inverses. kRef marks an M²Paxos head back-reference
/// (m2p::HeadIndex), which only a head list accepts.
template <>
struct Codec<core::Command> {
  static constexpr std::uint8_t kNoop = 1u << 0;
  static constexpr std::uint8_t kHasBody = 1u << 1;
  static constexpr std::uint8_t kRef = 1u << 2;
  /// id, payload_bytes, flags, empty object list.
  static constexpr std::size_t kMinBytes = 8 + 4 + 1 + 1;

  template <typename Out>
  static void put(Out& o, const core::Command& c) {
    o.u64(c.id.value);
    o.u32(c.payload_bytes);
    o.u8(static_cast<std::uint8_t>((c.noop ? kNoop : 0) |
                                   (c.body != nullptr ? kHasBody : 0)));
    o.varint(c.objects.size());
    for (const core::ObjectId l : c.objects) o.u64(l);
    if (c.body != nullptr) {
      o.varint(c.body->size());
      o.bytes(c.body->data(), c.body->size());
    } else {
      o.pad(c.payload_bytes);
    }
  }
  static bool get(Reader& r, core::Command& c);  // net/serde.cpp
};

/// A slot value: the head command, then the batch tail. The tail is a
/// varint member count (0 for a plain single-command value) followed by
/// the members after the head; decode rebuilds the whole CommandBatch with
/// the head as its first member. The same codec carries Multi-Paxos slot
/// values and, through m2p::HeadList, M²Paxos slots and votes.
template <typename Head, typename Batch>
struct Batched {
  Head& head;    // core::CommandPtr, possibly const
  Batch& batch;  // core::CommandBatchPtr, possibly const
};

template <typename Head, typename Batch>
Batched<Head, Batch> batched(Head& head, Batch& batch) {
  return {head, batch};
}

template <typename Out>
void put_tail(Out& o, const core::CommandBatchPtr& batch) {
  if (batch == nullptr || batch->cmds.size() <= 1) {
    o.varint(0);
    return;
  }
  o.varint(batch->cmds.size() - 1);
  for (std::size_t i = 1; i < batch->cmds.size(); ++i)
    Codec<core::Command>::put(o, *batch->cmds[i]);
}

/// Reads a batch tail behind `head`; null batch for a plain value.
bool get_tail(Reader& r, const core::CommandPtr& head,
              core::CommandBatchPtr& batch);  // net/serde.cpp
/// Reads a full command into a fresh wire-arena handle.
bool get_command_ptr(Reader& r, core::CommandPtr& c);  // net/serde.cpp

template <typename Head, typename Batch>
struct Codec<Batched<Head, Batch>> {
  /// A lower bound in every context: a head back-reference (13 bytes, one
  /// less than the smallest command) and an empty tail.
  static constexpr std::size_t kMinBytes = Codec<core::Command>::kMinBytes;
  template <typename Out>
  static void put(Out& o, const Batched<Head, Batch>& v) {
    Codec<core::Command>::put(o, *v.head);
    put_tail(o, v.batch);
  }
  static bool get(Reader& r, Batched<Head, Batch> v) {
    return get_command_ptr(r, v.head) && get_tail(r, v.head, v.batch);
  }
};

/// Bytes of zero padding whose length is an earlier field (the modeled
/// Generalized Paxos c-struct suffix).
template <typename N>
struct Padding {
  N& bytes;
};

template <typename N>
Padding<N> padding(N& bytes) {
  return {bytes};
}

template <typename N>
struct Codec<Padding<N>> {
  static constexpr std::size_t kMinBytes = 0;
  template <typename Out>
  static void put(Out& o, const Padding<N>& p) { o.pad(p.bytes); }
  static bool get(Reader& r, Padding<N> p) { return r.skip(p.bytes); }
};

// ---------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------

/// Base of every protocol message: kind() and name() come from the
/// template arguments and T::kName, wire_size() is counted from
/// T::fields. Messages with slot or vote lists count once and cache
/// (`kCacheSize`): the simulator asks on every send and every receive,
/// and a payload is immutable once sent.
template <typename T, std::uint32_t Kind, bool kCacheSize = false>
struct Message : Payload {
  static constexpr std::uint32_t kKind = Kind;

  std::uint32_t kind() const final { return Kind; }
  const char* name() const final { return T::kName; }
  std::size_t wire_size() const override {
    if constexpr (kCacheSize) {
      if (cached_size_.bytes == SIZE_MAX) cached_size_.bytes = count();
      return cached_size_.bytes;
    } else {
      return count();
    }
  }

  /// Kind tag, then the fields.
  template <typename Out>
  static void encode(Out& o, const T& m) {
    o.varint(Kind);
    Codec<T>::put(o, m);
  }

 private:
  std::size_t count() const {
    Counter n;
    encode(n, static_cast<const T&>(*this));
    return n.size();
  }

  struct SizeCache {
    std::size_t bytes = SIZE_MAX;
  };
  struct NoCache {};
  [[no_unique_address]] mutable std::conditional_t<kCacheSize, SizeCache,
                                                   NoCache>
      cached_size_;
};

}  // namespace m2::net
