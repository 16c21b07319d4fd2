// Exhaustive serde round-trip coverage: every net::Payload kind, filled
// with seeded-random content (plus hand-picked edge variants: empty lists,
// zero/max-length bodies, batched slot values, max-u64 fields, M²Paxos
// slot and vote lists that repeat head commands), must
// satisfy
//   (1) encode_payload(p).size() == p.wire_size()          (byte-exact model)
//   (2) decode_payload(encode_payload(p)) != nullptr        (round-trips)
//   (3) encode_payload(decode(encode(p))) == encode(p)      (decode is exact
//       inverse — re-encoding reproduces the identical byte string)
//   (4) decoded->wire_size() == encoded size                (model survives
//       the trip)
// Property (3) is the deep-equality check: two payloads that encode to the
// same bytes carry the same field values, without needing operator== on
// every message struct.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "core/failure_detector.hpp"
#include "epaxos/epaxos.hpp"
#include "genpaxos/genpaxos.hpp"
#include "m2paxos/messages.hpp"
#include "multipaxos/multipaxos.hpp"
#include "net/serde.hpp"
#include "sim/rng.hpp"

namespace m2::net {
namespace {

// Variants: 0 = minimal/empty, 1..2 = random typical, 3 = big/edge values,
// 4 = M²Paxos lists whose heads repeat (head back-references).
constexpr int kVariants = 5;

core::Command rand_cmd(sim::Rng& rng, int variant) {
  core::ObjectList objects;
  std::size_t n_objects = 0;
  switch (variant) {
    case 0: n_objects = 0; break;                     // empty object set
    case 3: n_objects = 130; break;                   // 2-byte varint count
    default: n_objects = 1 + rng.uniform(4); break;
  }
  for (std::size_t i = 0; i < n_objects; ++i)
    objects.push_back(variant == 3 && i == 0 ? UINT64_MAX : rng.next());
  const std::uint32_t payload =
      variant == 0 ? 0 : static_cast<std::uint32_t>(rng.uniform(64));
  core::Command c(core::CommandId{variant == 3 ? UINT64_MAX : rng.next()},
                  std::move(objects), payload);
  c.noop = rng.chance(0.2);
  if (variant == 2) {
    // Attached body, including the zero-length edge.
    std::vector<std::uint8_t> body(rng.uniform(3) == 0 ? 0 : rng.uniform(200));
    for (auto& b : body) b = static_cast<std::uint8_t>(rng.next());
    c.set_body(std::move(body));
  }
  return c;
}

core::CommandPtr rand_cmd_ptr(sim::Rng& rng, int variant) {
  return std::make_shared<const core::Command>(rand_cmd(rng, variant));
}

/// Batch tail behind a slot head: null for plain slots; variant 3 fills the
/// batch to capacity (decode rejects counts >= kCapacity, so capacity
/// itself must survive).
core::CommandBatchPtr rand_batch(sim::Rng& rng, int variant,
                                 const core::CommandPtr& head) {
  if (variant == 0 || (variant != 3 && rng.chance(0.4))) return nullptr;
  const std::size_t members =
      variant == 3 ? core::CommandBatch::kCapacity : 2 + rng.uniform(3);
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(head);
  for (std::size_t i = 1; i < members; ++i)
    batch->cmds.push_back(rand_cmd_ptr(rng, static_cast<int>(rng.uniform(3))));
  return batch;
}

/// Members of a Multi-Paxos batch after its head (none for variant 0).
std::vector<core::CommandPtr> rand_tail(sim::Rng& rng, int variant) {
  std::vector<core::CommandPtr> tail;
  const std::size_t n = variant == 0 ? 0 : rng.uniform(4);
  for (std::size_t i = 0; i < n; ++i)
    tail.push_back(rand_cmd_ptr(rng, static_cast<int>(rng.uniform(3))));
  return tail;
}

/// The batch `head` + `tail`, or null (a plain value) for an empty tail.
core::CommandBatchPtr with_tail(const core::CommandPtr& head,
                                const std::vector<core::CommandPtr>& tail) {
  if (tail.empty()) return nullptr;
  auto batch = std::make_shared<core::CommandBatch>();
  batch->cmds.push_back(head);
  for (const auto& c : tail) batch->cmds.push_back(c);
  return batch;
}

/// Variant 4 head: mostly a command already used earlier in the list,
/// sometimes as a separate copy with the same id, so most heads encode as
/// references to an earlier one.
core::CommandPtr shared_head(sim::Rng& rng,
                             std::vector<core::CommandPtr>& used) {
  if (used.empty() || rng.chance(0.2)) {
    used.push_back(rand_cmd_ptr(rng, 1));
    return used.back();
  }
  const auto& c = used[rng.uniform(used.size())];
  return rng.chance(0.3) ? std::make_shared<const core::Command>(*c) : c;
}

/// Length of a slot or vote list; variant 4 runs past the head index's
/// inline scan (16) into its hashed form.
std::size_t rand_list_len(sim::Rng& rng, int variant, std::size_t typical) {
  if (variant == 0) return 0;
  return variant == 4 ? 2 + rng.uniform(39) : 1 + rng.uniform(typical);
}

m2p::SlotList rand_slots(sim::Rng& rng, int variant) {
  m2p::SlotList slots;
  std::vector<core::CommandPtr> used;
  const std::size_t n = rand_list_len(rng, variant, 4);
  for (std::size_t i = 0; i < n; ++i) {
    auto head = variant == 4
                    ? shared_head(rng, used)
                    : rand_cmd_ptr(rng, variant == 3 && i == 0 ? 3 : 1);
    auto batch = rand_batch(rng, variant, head);
    const auto epoch = rng.next();
    const auto instance = rng.next();
    const auto object = rng.next();
    slots.emplace_back(object, instance, epoch, std::move(head),
                       std::move(batch));
  }
  return slots;
}

std::vector<m2p::ViewHint> rand_hints(sim::Rng& rng, int variant) {
  std::vector<m2p::ViewHint> hints;
  const std::size_t n = variant == 0 ? 0 : rng.uniform(5);
  for (std::size_t i = 0; i < n; ++i)
    hints.push_back({rng.next(), rng.next(),
                     static_cast<NodeId>(rng.uniform(UINT32_MAX))});
  return hints;
}

ep::Attrs rand_attrs(sim::Rng& rng, int variant) {
  ep::Attrs attrs;
  attrs.seq = variant == 3 ? UINT64_MAX : rng.next();
  const std::size_t n = variant == 0 ? 0 : rng.uniform(30);
  for (std::size_t i = 0; i < n; ++i) attrs.deps.push_back(rng.next());
  return attrs;
}

using Factory = std::function<PayloadPtr(sim::Rng&, int)>;

// Every factory draws from the RNG in a fixed order: values that are
// arguments of one call are drawn into locals first (last argument first),
// because argument evaluation order is unspecified and the corpus, and so
// its pinned digest, must be the same under every compiler.

std::vector<Factory> all_factories() {
  std::vector<Factory> f;
  // --- common ---------------------------------------------------------
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<core::Heartbeat>(
        v == 3 ? UINT32_MAX : static_cast<NodeId>(rng.uniform(1024)));
  });
  // --- Multi-Paxos ----------------------------------------------------
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<mp::ClientPropose>(rand_cmd(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    const auto from = rng.next();
    const auto ballot = v == 3 ? UINT64_MAX : rng.next();
    return make_payload<mp::Prepare>(ballot, from);
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<mp::Promise>();
    m->ballot = rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    m->ack = rng.chance(0.5);
    m->first_undelivered = rng.next();
    const std::size_t n = v == 0 ? 0 : 1 + rng.uniform(3);
    for (std::size_t i = 0; i < n; ++i) {
      const auto slot = rng.next();
      const auto vballot = rng.next();
      auto head = rand_cmd_ptr(rng, v);
      m->votes.push_back(
          {slot, vballot, head, with_tail(head, rand_tail(rng, v))});
    }
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    const auto tail = rand_tail(rng, v);
    const auto head = rand_cmd_ptr(rng, v);
    const auto slot = rng.next();
    const auto ballot = rng.next();
    return make_payload<mp::Accept>(ballot, slot, head, with_tail(head, tail));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<mp::Accepted>();
    m->ballot = v == 3 ? UINT64_MAX : rng.next();
    m->slot = rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    m->ack = rng.chance(0.5);
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    const auto tail = rand_tail(rng, v);
    const auto head = rand_cmd_ptr(rng, v);
    const auto slot = rng.next();
    return make_payload<mp::Commit>(slot, head, with_tail(head, tail));
  });
  // --- Generalized Paxos ----------------------------------------------
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<gp::FastPropose>(rand_cmd(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<gp::FastAck>();
    m->cmd_id = core::CommandId{rng.next()};
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    // The modeled c-struct suffix materializes as padding on the wire.
    m->cstruct_bytes =
        v == 0 ? 0 : static_cast<std::uint32_t>(rng.uniform(4096));
    const std::size_t n = v == 0 ? 0 : 1 + rng.uniform(4);
    for (std::size_t i = 0; i < n; ++i)
      m->preds.push_back({rng.next(), core::CommandId{rng.next()}});
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<gp::CommitNotify>(rand_cmd(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<gp::ResolveReq>(rand_cmd(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto cmd = rand_cmd(rng, v);
    return make_payload<gp::SlowAccept>(rng.next(), std::move(cmd));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<gp::SlowAck>();
    m->ballot = v == 3 ? UINT64_MAX : rng.next();
    m->cmd_id = core::CommandId{rng.next()};
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto cmd = rand_cmd(rng, v);
    return make_payload<gp::Sequence>(rng.next(), std::move(cmd));
  });
  // --- EPaxos ---------------------------------------------------------
  f.push_back([](sim::Rng& rng, int v) {
    auto attrs = rand_attrs(rng, v);
    auto cmd = rand_cmd(rng, v);
    return make_payload<ep::PreAccept>(rng.next(), std::move(cmd),
                                       std::move(attrs));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<ep::PreAcceptReply>();
    m->inst = rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    m->changed = rng.chance(0.5);
    m->attrs = rand_attrs(rng, v);
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto attrs = rand_attrs(rng, v);
    auto cmd = rand_cmd(rng, v);
    return make_payload<ep::AcceptMsg>(rng.next(), std::move(cmd),
                                       std::move(attrs));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<ep::AcceptReply>();
    m->inst = v == 3 ? UINT64_MAX : rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto attrs = rand_attrs(rng, v);
    auto cmd = rand_cmd(rng, v);
    return make_payload<ep::CommitMsg>(rng.next(), std::move(cmd),
                                       std::move(attrs));
  });
  // --- M²Paxos --------------------------------------------------------
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<m2p::Propose>(rand_cmd(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto slots = rand_slots(rng, v);
    return make_payload<m2p::Accept>(rng.next(), std::move(slots));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<m2p::AckAccept>();
    m->req_id = rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    m->ack = rng.chance(0.5);
    m->hints = rand_hints(rng, v);
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<m2p::Decide>(rand_slots(rng, v));
  });
  f.push_back([](sim::Rng& rng, int v) {
    std::vector<m2p::Prepare::Entry> entries;
    const std::size_t n = v == 0 ? 0 : 1 + rng.uniform(5);
    for (std::size_t i = 0; i < n; ++i)
      entries.push_back({rng.next(), rng.next(), rng.next()});
    return make_payload<m2p::Prepare>(rng.next(), std::move(entries));
  });
  f.push_back([](sim::Rng& rng, int v) {
    auto m = std::make_shared<m2p::AckPrepare>();
    m->req_id = rng.next();
    m->acceptor = static_cast<NodeId>(rng.uniform(1024));
    m->ack = rng.chance(0.5);
    std::vector<core::CommandPtr> used;
    const std::size_t n = rand_list_len(rng, v, 3);
    for (std::size_t i = 0; i < n; ++i) {
      auto head = v == 4 ? shared_head(rng, used) : rand_cmd_ptr(rng, v);
      m->votes.push_back({rng.next(), rng.next(), rng.next(),
                          rng.chance(0.5), head});
      m->votes.back().batch = rand_batch(rng, v, head);
    }
    const std::size_t nf = v == 0 ? 0 : rng.uniform(4);
    for (std::size_t i = 0; i < nf; ++i) {
      const auto floor = rng.next();
      const auto object = rng.next();
      m->delivered_floors.emplace_back(object, floor);
    }
    m->hints = rand_hints(rng, v);
    return m;
  });
  f.push_back([](sim::Rng& rng, int v) {
    m2p::SyncRequest::EntryList entries;
    const std::size_t n = v == 0 ? 0 : 1 + rng.uniform(20);
    for (std::size_t i = 0; i < n; ++i)
      entries.push_back({rng.next(), rng.next()});
    return make_payload<m2p::SyncRequest>(std::move(entries));
  });
  f.push_back([](sim::Rng& rng, int v) {
    return make_payload<m2p::SyncReply>(rand_slots(rng, v));
  });
  return f;
}

/// Visits the corpus: every kind, seeds 1..5, every variant (675 payloads).
template <typename Visit>
void for_each_corpus_payload(Visit visit) {
  const auto factories = all_factories();
  // 27 payload kinds exist today; a new message type must be added here.
  ASSERT_EQ(factories.size(), 27u);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (std::size_t fi = 0; fi < factories.size(); ++fi) {
      for (int variant = 0; variant < kVariants; ++variant) {
        sim::Rng rng(seed * 1000 + fi * kVariants + variant);
        const PayloadPtr p = factories[fi](rng, variant);
        ASSERT_NE(p, nullptr);
        visit(*p, std::string(p->name()) + " seed " + std::to_string(seed) +
                      " variant " + std::to_string(variant));
      }
    }
  }
}

TEST(SerdeExhaustive, EveryKindRoundTripsByteExactly) {
  for_each_corpus_payload([](const Payload& p, const std::string& label) {
    const auto bytes = encode_payload(p);
    EXPECT_EQ(bytes.size(), p.wire_size()) << label;
    const PayloadPtr back = decode_payload(bytes);
    ASSERT_NE(back, nullptr) << label;
    EXPECT_EQ(back->kind(), p.kind());
    const auto bytes2 = encode_payload(*back);
    EXPECT_EQ(bytes2, bytes)
        << label << ": re-encoding the decoded payload changed the bytes";
    EXPECT_EQ(back->wire_size(), bytes.size()) << label;
  });
}

TEST(SerdeExhaustive, CorpusEncodingsArePinned) {
  // 64-bit FNV-1a over the concatenated corpus encodings, in visiting
  // order. Any change to any message's bytes changes it: a wire-format
  // change must update this value on purpose.
  std::uint64_t digest = 0xcbf29ce484222325ULL;
  std::size_t total = 0;
  for_each_corpus_payload([&](const Payload& p, const std::string&) {
    for (const std::uint8_t b : encode_payload(p)) {
      digest = (digest ^ b) * 0x100000001b3ULL;
      ++total;
    }
  });
  EXPECT_EQ(total, 348866u);
  EXPECT_EQ(digest, 0x846a14cc302a1e31ULL);
}

TEST(SerdeExhaustive, EveryStrictPrefixFailsToDecode) {
  for_each_corpus_payload([](const Payload& p, const std::string& label) {
    const auto bytes = encode_payload(p);
    for (std::size_t n = 0; n < bytes.size(); ++n)
      ASSERT_EQ(decode_payload(bytes.data(), n), nullptr)
          << label << ": " << n << " of " << bytes.size() << " bytes";
  });
}

TEST(SerdeExhaustive, KindCoverageMatchesDecoder) {
  // Every kind the factories produce is distinct, and collectively they
  // cover all ranges the decoder dispatches on (spot-checked by count per
  // block: 1 common + 6 MP + 7 GP + 5 EP + 8 M2).
  const auto factories = all_factories();
  std::vector<std::uint32_t> kinds;
  for (const auto& make : factories) {
    sim::Rng rng(7);
    kinds.push_back(make(rng, 1)->kind());
  }
  std::sort(kinds.begin(), kinds.end());
  EXPECT_EQ(std::adjacent_find(kinds.begin(), kinds.end()), kinds.end());
  const auto in_range = [&](std::uint32_t lo, std::uint32_t hi) {
    return std::count_if(kinds.begin(), kinds.end(), [&](std::uint32_t k) {
      return k >= lo && k < hi;
    });
  };
  EXPECT_EQ(in_range(kKindCommon, kKindMultiPaxos), 1);
  EXPECT_EQ(in_range(kKindMultiPaxos, kKindGenPaxos), 6);
  EXPECT_EQ(in_range(kKindGenPaxos, kKindEPaxos), 7);
  EXPECT_EQ(in_range(kKindEPaxos, kKindM2Paxos), 5);
  EXPECT_EQ(in_range(kKindM2Paxos, kKindM2Paxos + 100), 8);
}

}  // namespace
}  // namespace m2::net
