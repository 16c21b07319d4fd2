// Executable claims: statements of the paper's §VI that the quick-mode
// figures reproduce, asserted on the grid the figure driver returns (the
// numbers `m2bench --figure NAME` prints). Bands come from the quick and
// full runs recorded in EXPERIMENTS.md; a figure whose quick sweep does not
// represent its claim (Fig. 1 reads 0.97x against EPaxos at 3 nodes) has no
// test here.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "figures.hpp"

namespace m2::bench {
namespace {

Panel quick_panel(const std::string& name) {
  const auto figure = find_figure(name, /*quick=*/true);
  if (!figure) ADD_FAILURE() << "no figure " << name;
  const Grid grid = figure ? run_figure(*figure) : Grid{};
  return grid.empty() ? Panel{} : grid.front();
}

std::size_t series(const Panel& p, const std::string& label) {
  const auto it = std::find(p.series.begin(), p.series.end(), label);
  EXPECT_NE(it, p.series.end()) << "no series " << label;
  return static_cast<std::size_t>(it - p.series.begin());
}

double median_us(const harness::ExperimentResult& r) {
  return static_cast<double>(r.commit_latency.median()) / 1e3;
}

// Fig. 2 (no batching, light load): M²Paxos has the lowest median latency
// at every N, at least 40 % below Multi-Paxos, and its lead over EPaxos is
// positive and does not shrink as N grows.
TEST(PaperClaims, Fig2M2PaxosHasTheLowestMedianLatencyAtEveryN) {
  const Panel p = quick_panel("fig2");
  ASSERT_EQ(p.runs.size(), p.rows.size());
  ASSERT_FALSE(p.rows.empty());
  const std::size_t m2 = series(p, "M2Paxos");
  const std::size_t mp = series(p, "MultiPaxos");
  const std::size_t ep = series(p, "EPaxos");
  double prev_lead_over_ep = 0;
  for (std::size_t r = 0; r < p.rows.size(); ++r) {
    SCOPED_TRACE("nodes=" + p.rows[r]);
    const auto& row = p.runs[r];
    const double m2_us = median_us(row[m2]);
    ASSERT_GT(m2_us, 0);
    for (std::size_t s = 0; s < row.size(); ++s) {
      if (s == m2) continue;
      EXPECT_LT(m2_us, median_us(row[s])) << p.series[s];
    }
    EXPECT_GE(1.0 - m2_us / median_us(row[mp]), 0.40);
    const double lead_over_ep = 1.0 - m2_us / median_us(row[ep]);
    EXPECT_GT(lead_over_ep, 0);
    EXPECT_GE(lead_over_ep, prev_lead_over_ep);
    prev_lead_over_ep = lead_over_ep;
  }
}

// Fig. 3 (64 clients per node, 5 ms think time): M²Paxos commits the whole
// offered load, 64 x 200/s = 12.8k/s per node, at every N (within the
// printed 0.1k/s).
TEST(PaperClaims, Fig3M2PaxosCommitsTheOfferedLoadAtEveryN) {
  const Panel p = quick_panel("fig3");
  ASSERT_EQ(p.runs.size(), p.rows.size());
  ASSERT_FALSE(p.rows.empty());
  const std::size_t m2 = series(p, "M2Paxos");
  for (std::size_t r = 0; r < p.rows.size(); ++r) {
    SCOPED_TRACE("nodes=" + p.rows[r]);
    const double per_node =
        p.runs[r][m2].committed_per_sec / std::stod(p.rows[r]);
    EXPECT_NEAR(per_node, 12800.0, 50.0);
  }
}

}  // namespace
}  // namespace m2::bench
