#include "net/serde.hpp"

#include <algorithm>
#include <array>
#include <tuple>

#include "core/failure_detector.hpp"
#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "m2paxos/messages.hpp"
#include "multipaxos/multipaxos.hpp"
#include "net/arena.hpp"

namespace m2::net {

bool Codec<core::Command>::get(Reader& r, core::Command& c) {
  const auto id = r.u64();
  const auto payload_bytes = r.u32();
  const auto flags = r.u8();
  const auto n_objects = read_count(r, 8);
  if (!id || !payload_bytes || !flags || !n_objects ||
      (*flags & ~(kNoop | kHasBody)) != 0)
    return false;
  core::ObjectList objects;
  objects.reserve(*n_objects);
  for (std::uint64_t i = 0; i < *n_objects; ++i)
    objects.push_back(*r.u64());  // read_count checked the bytes are there
  c = core::Command(core::CommandId{*id}, std::move(objects), *payload_bytes);
  c.noop = (*flags & kNoop) != 0;
  if ((*flags & kHasBody) == 0) return r.skip(*payload_bytes);
  const auto body_len = r.varint();
  if (!body_len || *body_len > r.remaining()) return false;
  std::vector<std::uint8_t> body(*body_len);
  for (auto& b : body) b = *r.u8();
  c.set_body(std::move(body));
  c.payload_bytes = *payload_bytes;  // set_body resets it to the body size
  return true;
}

bool get_command_ptr(Reader& r, core::CommandPtr& c) {
  core::Command cmd;
  if (!Codec<core::Command>::get(r, cmd)) return false;
  // Decoded commands are released by whichever thread consumes the
  // message, so they come from the thread-safe wire arena.
  c = arena_make_shared<const core::Command>(std::move(cmd));
  return true;
}

bool get_tail(Reader& r, const core::CommandPtr& head,
              core::CommandBatchPtr& batch) {
  const auto n = r.varint();
  if (!n || *n >= core::CommandBatch::kCapacity) return false;
  if (*n == 0) {
    batch = nullptr;
    return true;
  }
  auto b = arena_make_shared<core::CommandBatch>();
  b->cmds.push_back(head);
  for (std::uint64_t i = 0; i < *n; ++i)
    if (!get_command_ptr(r, b->cmds.emplace_back())) return false;
  batch = std::move(b);
  return true;
}

std::optional<core::Command> read_command(Reader& r) {
  core::Command c;
  if (!Codec<core::Command>::get(r, c)) return std::nullopt;
  return c;
}

namespace {

/// Every message on the wire. Encode and decode dispatch through this one
/// list; a new message needs its field list and an entry here.
template <typename... Ts>
struct MessageList {};
using AllMessages = MessageList<
    core::Heartbeat,
    mp::ClientPropose, mp::Prepare, mp::Promise, mp::Accept, mp::Accepted,
    mp::Commit,
    gp::FastPropose, gp::FastAck, gp::CommitNotify, gp::ResolveReq,
    gp::SlowAccept, gp::SlowAck, gp::Sequence,
    ep::PreAccept, ep::PreAcceptReply, ep::AcceptMsg, ep::AcceptReply,
    ep::CommitMsg,
    m2p::Propose, m2p::Accept, m2p::AckAccept, m2p::Decide, m2p::Prepare,
    m2p::AckPrepare, m2p::SyncRequest, m2p::SyncReply>;

using EncodeFn = void (*)(const Payload&, Writer&);
using DecodeFn = PayloadPtr (*)(Reader&);

template <typename T>
void encode_as(const Payload& p, Writer& w) {
  T::encode(w, static_cast<const T&>(p));
}

/// Decoded messages are built on transport reader (or sender) threads and
/// released by the consuming node thread, so they come from the
/// thread-safe wire arena — never from a replica's single-threaded pool,
/// and, once the size classes have warmed up, never from the heap.
template <typename T>
PayloadPtr decode_as(Reader& r) {
  auto m = arena_make_shared<T>();
  if (!Codec<T>::get(r, *m)) return nullptr;
  return m;
}

/// Per-kind dispatch tables, indexed by kind. Building them at compile
/// time also rejects two messages sharing a kind.
template <typename... Ts>
constexpr std::uint32_t max_kind(MessageList<Ts...>) {
  return std::max({Ts::kKind...});
}
constexpr std::size_t kKinds = max_kind(AllMessages{}) + 1;

template <typename... Ts>
constexpr auto make_tables(MessageList<Ts...>) {
  std::pair<std::array<EncodeFn, kKinds>, std::array<DecodeFn, kKinds>> t{};
  for (const auto& [kind, enc, dec] :
       {std::tuple{Ts::kKind, &encode_as<Ts>, &decode_as<Ts>}...}) {
    if (t.first[kind] != nullptr) throw "two messages share a kind";
    t.first[kind] = enc;
    t.second[kind] = dec;
  }
  return t;
}
constexpr auto kTables = make_tables(AllMessages{});

}  // namespace

std::vector<std::uint8_t> encode_payload(const Payload& payload) {
  std::vector<std::uint8_t> out;
  encode_payload_into(payload, out);
  return out;
}

void encode_payload_into(const Payload& payload,
                         std::vector<std::uint8_t>& out) {
  out.clear();
  Writer w(&out);
  const std::uint32_t kind = payload.kind();
  if (kind < kKinds && kTables.first[kind] != nullptr) {
    kTables.first[kind](payload, w);
  } else {
    w.varint(kind);  // a kind with no field list encodes as an empty body
  }
}

PayloadPtr decode_next(Reader& r) {
  const auto kind = r.varint();
  if (!kind || *kind >= kKinds || kTables.second[*kind] == nullptr)
    return nullptr;
  return kTables.second[*kind](r);
}

PayloadPtr decode_payload(const std::uint8_t* data, std::size_t n) {
  Reader r(data, n);
  PayloadPtr p = decode_next(r);
  return r.remaining() == 0 ? p : nullptr;
}

}  // namespace m2::net
