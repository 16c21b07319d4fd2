#include <gtest/gtest.h>

#include "core/command.hpp"
#include "core/config.hpp"
#include "core/cstruct.hpp"
#include "test_util.hpp"

namespace m2::core {
namespace {

using test::cmd;

// ---------------------------------------------------------------------
// CommandId / Command
// ---------------------------------------------------------------------

TEST(CommandId, EncodesProposerAndSeq) {
  const CommandId id = CommandId::make(37, 123456789);
  EXPECT_EQ(id.proposer(), 37u);
  EXPECT_EQ(id.seq(), 123456789u);
  EXPECT_TRUE(id.valid());
  EXPECT_FALSE(CommandId{}.valid());
}

TEST(Command, ObjectsSortedAndDeduped) {
  const Command c = cmd(0, 1, {5, 3, 5, 1, 3});
  EXPECT_EQ(c.objects, (core::ObjectList{1, 3, 5}));
}

TEST(Command, ConflictDetection) {
  const Command a = cmd(0, 1, {1, 2, 3});
  const Command b = cmd(1, 1, {3, 4});
  const Command c = cmd(2, 1, {4, 5});
  EXPECT_TRUE(a.conflicts_with(b));
  EXPECT_TRUE(b.conflicts_with(a));
  EXPECT_TRUE(b.conflicts_with(c));
  EXPECT_FALSE(a.conflicts_with(c));
  EXPECT_FALSE(c.conflicts_with(a));
}

TEST(Command, WireSizeGrowsWithObjectsAndPayload) {
  const Command small = cmd(0, 1, {1}, 16);
  const Command big = cmd(0, 2, {1, 2, 3, 4}, 160);
  EXPECT_GT(big.wire_size(), small.wire_size());
  EXPECT_EQ(big.wire_size() - small.wire_size(), 3 * 8 + 144);
}

// ---------------------------------------------------------------------
// ClusterConfig quorums
// ---------------------------------------------------------------------

TEST(ClusterConfig, ClassicQuorumIsMajority) {
  ClusterConfig cfg;
  for (int n : {1, 3, 5, 7, 11, 25, 49}) {
    cfg.n_nodes = n;
    EXPECT_EQ(cfg.classic_quorum(), n / 2 + 1);
    // Two classic quorums always intersect.
    EXPECT_GT(2 * cfg.classic_quorum(), n);
  }
}

TEST(ClusterConfig, FastQuorumMatchesPaperFormula) {
  ClusterConfig cfg;
  cfg.n_nodes = 3;
  EXPECT_EQ(cfg.fast_quorum(), 3);  // floor(2*3/3)+1
  cfg.n_nodes = 9;
  EXPECT_EQ(cfg.fast_quorum(), 7);
  cfg.n_nodes = 49;
  EXPECT_EQ(cfg.fast_quorum(), 33);
}

TEST(ClusterConfig, EPaxosFastQuorum) {
  ClusterConfig cfg;
  cfg.n_nodes = 5;  // f=2 -> 2 + 1 = 3 (equal to classic at N=5)
  EXPECT_EQ(cfg.epaxos_fast_quorum(), 3);
  cfg.n_nodes = 7;  // f=3 -> 3 + 2 = 5 > classic 4
  EXPECT_EQ(cfg.epaxos_fast_quorum(), 5);
  EXPECT_GT(cfg.epaxos_fast_quorum(), cfg.classic_quorum());
  cfg.n_nodes = 49;  // f=24 -> 24+12 = 36
  EXPECT_EQ(cfg.epaxos_fast_quorum(), 36);
}

// ---------------------------------------------------------------------
// Batching knobs
// ---------------------------------------------------------------------

TEST(Batching, DefaultsAreOffAndValid) {
  const ClusterConfig cfg;
  EXPECT_FALSE(cfg.batching.enabled);
  EXPECT_TRUE(cfg.batching.valid());
  // Fig. 2 latency runs depend on batching defaulting off; normalization
  // of a default config changes nothing.
  const auto n = cfg.batching.normalized();
  EXPECT_EQ(n.batch_max_commands, cfg.batching.batch_max_commands);
  EXPECT_EQ(n.pipeline_depth, cfg.batching.pipeline_depth);
}

TEST(Batching, RejectsZeroMaxCommands) {
  ClusterConfig::Batching b;
  b.batch_max_commands = 0;
  EXPECT_FALSE(b.valid());
  // normalized() still yields something usable (the validate() assert is
  // the configuration error; normalization is the belt to its suspenders).
  EXPECT_EQ(b.normalized().batch_max_commands, 1u);
}

TEST(Batching, NormalizationClamps) {
  ClusterConfig::Batching b;
  b.pipeline_depth = 0;
  b.batch_max_commands = 1000;
  const auto n = b.normalized();
  EXPECT_EQ(n.pipeline_depth, 1);
  EXPECT_EQ(n.batch_max_commands, ClusterConfig::Batching::kMaxBatchCommands);
  b.pipeline_depth = -3;
  EXPECT_EQ(b.normalized().pipeline_depth, 1);
}

// ---------------------------------------------------------------------
// CStruct and the consistency checkers
// ---------------------------------------------------------------------

TEST(CStruct, AppendIsExactlyOnce) {
  CStruct cs;
  const Command a = cmd(0, 1, {1});
  EXPECT_TRUE(cs.append(a));
  EXPECT_FALSE(cs.append(a));
  EXPECT_EQ(cs.size(), 1u);
  EXPECT_TRUE(cs.contains(a.id));
  EXPECT_EQ(cs.position_of(a.id), 0u);
  EXPECT_EQ(cs.position_of(CommandId::make(9, 9)), SIZE_MAX);
}

TEST(ConsistencyCheck, AcceptsAgreeingOrders) {
  const Command a = cmd(0, 1, {1});
  const Command b = cmd(1, 1, {1});
  const Command c = cmd(2, 1, {2});
  CStruct n0, n1;
  n0.append(a);
  n0.append(b);
  n0.append(c);
  // n1 reorders only the non-conflicting command c.
  n1.append(c);
  n1.append(a);
  n1.append(b);
  const auto report = check_pairwise_consistency({n0, n1});
  EXPECT_TRUE(report.ok) << report.violation;
}

TEST(ConsistencyCheck, RejectsConflictingReorder) {
  const Command a = cmd(0, 1, {1});
  const Command b = cmd(1, 1, {1});
  CStruct n0, n1;
  n0.append(a);
  n0.append(b);
  n1.append(b);
  n1.append(a);
  const auto report = check_pairwise_consistency({n0, n1});
  EXPECT_FALSE(report.ok);
  EXPECT_NE(report.violation.find("opposite orders"), std::string::npos);
}

TEST(ConsistencyCheck, MultiObjectConflictReorderRejected) {
  const Command a = cmd(0, 1, {1, 2});
  const Command b = cmd(1, 1, {2, 3});
  CStruct n0, n1;
  n0.append(a);
  n0.append(b);
  n1.append(b);
  n1.append(a);
  EXPECT_FALSE(check_pairwise_consistency({n0, n1}).ok);
}

TEST(ConsistencyCheck, PrefixesAreConsistent) {
  const Command a = cmd(0, 1, {1});
  const Command b = cmd(1, 1, {1});
  CStruct n0, n1;
  n0.append(a);
  n0.append(b);
  n1.append(a);  // n1 is behind, that's fine
  EXPECT_TRUE(check_pairwise_consistency({n0, n1}).ok);
}

TEST(NontrivialityCheck, FlagsUnproposedCommands) {
  const Command a = cmd(0, 1, {1});
  CStruct n0;
  n0.append(a);
  std::unordered_set<std::uint64_t> proposed;
  EXPECT_FALSE(check_nontriviality({n0}, proposed).ok);
  proposed.insert(a.id.value);
  EXPECT_TRUE(check_nontriviality({n0}, proposed).ok);
}

TEST(TotalOrderCheck, AcceptsPrefixes) {
  const Command a = cmd(0, 1, {1});
  const Command b = cmd(1, 1, {2});
  CStruct n0, n1;
  n0.append(a);
  n0.append(b);
  n1.append(a);
  EXPECT_TRUE(check_total_order({n0, n1}).ok);
}

TEST(TotalOrderCheck, RejectsDivergence) {
  const Command a = cmd(0, 1, {1});
  const Command b = cmd(1, 1, {2});
  CStruct n0, n1;
  n0.append(a);
  n1.append(b);
  EXPECT_FALSE(check_total_order({n0, n1}).ok);
}

}  // namespace
}  // namespace m2::core
