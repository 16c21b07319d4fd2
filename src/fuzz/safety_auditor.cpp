#include "fuzz/safety_auditor.hpp"

#include <sstream>

namespace m2::fuzz {

LivenessChecks default_checks(core::Protocol protocol) {
  LivenessChecks checks;
  switch (protocol) {
    case core::Protocol::kM2Paxos:
      // Anti-entropy sync catches recovered/lagging replicas up, so the
      // full guarantees hold for correct nodes.
      checks.eventual_delivery = true;
      checks.convergence = true;
      checks.delivery_at_reporter = true;
      break;
    case core::Protocol::kMultiPaxos:
    case core::Protocol::kGenPaxos:
      // Proposers retry until their own command delivers locally, but
      // followers have no catch-up: a dropped commit leaves a permanent
      // hole at that follower.
      checks.delivery_at_reporter = true;
      break;
    case core::Protocol::kEPaxos:
      // No recovery/retry machinery at all; safety checks only.
      break;
  }
  return checks;
}

SafetyAuditor::SafetyAuditor(core::Protocol protocol, int n_nodes)
    : protocol_(protocol),
      n_nodes_(n_nodes),
      delivered_(static_cast<std::size_t>(n_nodes)) {}

void SafetyAuditor::violation(core::Time at, std::string what) {
  std::ostringstream os;
  os << "t=" << at / core::kMicrosecond << "us: " << what;
  violations_.push_back(os.str());
}

void SafetyAuditor::on_propose(core::Time /*at*/, NodeId /*n*/,
                               const core::Command& c) {
  const std::lock_guard<std::mutex> lock(mu_);
  proposed_.insert(c.id);
}

void SafetyAuditor::on_decided(core::Time at, NodeId n, core::ObjectId l,
                               core::Instance in, const core::Command& c) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++decisions_seen_;
  const auto key = std::make_pair(l, in);
  const auto [it, inserted] = decisions_.try_emplace(key, SlotDecision{c.id, n});
  if (!inserted && it->second.cmd != c.id) {
    std::ostringstream os;
    os << "decided-slot stability violated: slot <obj " << l << ", in " << in
       << "> decided as cmd " << std::hex << it->second.cmd.value
       << " (first at n" << std::dec << it->second.first_node
       << ") but rebound to cmd " << std::hex << c.id.value << std::dec
       << " at n" << n;
    violation(at, os.str());
  }
}

void SafetyAuditor::on_ownership(core::Time at, NodeId n, core::ObjectId l,
                                 core::Epoch e, NodeId owner, bool acquired) {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = epochs_.try_emplace(std::make_pair(n, l), e);
  if (!inserted) {
    if (e < it->second) {
      std::ostringstream os;
      os << "epoch monotonicity violated: n" << n << " observed obj " << l
         << " at epoch " << e << " after epoch " << it->second;
      violation(at, os.str());
    } else {
      it->second = e;
    }
  }
  if (acquired) {
    const auto [ait, ainserted] =
        acquirers_.try_emplace(std::make_pair(l, e), owner);
    if (!ainserted && ait->second != owner) {
      std::ostringstream os;
      os << "unique acquisition violated: obj " << l << " epoch " << e
         << " acquired by both n" << ait->second << " and n" << owner;
      violation(at, os.str());
    }
  }
}

void SafetyAuditor::on_deliver(core::Time at, NodeId n,
                               const core::Command& c) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++deliveries_seen_;
  if (!c.noop && proposed_.count(c.id) == 0) {
    std::ostringstream os;
    os << "nontriviality violated: n" << n << " delivered cmd " << std::hex
       << c.id.value << std::dec << " that was never proposed";
    violation(at, os.str());
  }
  if (!delivered_[n].append(c)) {
    std::ostringstream os;
    os << "exactly-once delivery violated: n" << n << " delivered cmd "
       << std::hex << c.id.value << std::dec << " twice";
    violation(at, os.str());
  }
}

void SafetyAuditor::on_committed(core::Time /*at*/, NodeId n,
                                 const core::Command& c) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!c.noop) committed_.try_emplace(c.id, n);
}

void SafetyAuditor::on_crash(core::Time /*at*/, NodeId n) {
  const std::lock_guard<std::mutex> lock(mu_);
  ever_crashed_.insert(n);
}

void SafetyAuditor::on_recover(core::Time /*at*/, NodeId /*n*/) {}

bool SafetyAuditor::finalize(const LivenessChecks& checks) {
  if (finalized_) return ok();
  finalized_ = true;

  // Correct (never-crashed) nodes only: a crashed node loses its volatile
  // rounds, and the paper's guarantees are stated for correct processes.
  std::vector<NodeId> correct;
  std::vector<core::CStruct> correct_structs;
  for (NodeId n = 0; n < static_cast<NodeId>(n_nodes_); ++n) {
    if (ever_crashed_.count(n) != 0) continue;
    correct.push_back(n);
    correct_structs.push_back(delivered_[n]);
  }

  // Consistency: conflicting commands in the same relative order on every
  // pair of correct nodes.
  const auto consistency = core::check_pairwise_consistency(correct_structs);
  if (!consistency.ok)
    violations_.push_back("consistency violated: " + consistency.violation);

  // Multi-Paxos decides a single totally ordered log.
  if (protocol_ == core::Protocol::kMultiPaxos) {
    const auto total = core::check_total_order(correct_structs);
    if (!total.ok)
      violations_.push_back("total order violated: " + total.violation);
  }

  // Eventual delivery: after all faults heal and the run drains, every
  // command that was acknowledged as committed must have been delivered at
  // every correct node. Commits reported by nodes that later crashed are
  // exempt (see committed_).
  if (checks.eventual_delivery) {
    for (const auto& [id, reporter] : committed_) {
      if (ever_crashed_.count(reporter) != 0) continue;
      for (std::size_t i = 0; i < correct.size(); ++i) {
        if (!correct_structs[i].contains(id)) {
          std::ostringstream os;
          os << "eventual delivery violated: cmd " << std::hex << id.value
             << std::dec << " was committed but never delivered at correct n"
             << correct[i];
          violations_.push_back(os.str());
        }
      }
    }
  } else if (checks.delivery_at_reporter) {
    // Weaker form: the node that acknowledged the commit must at least
    // deliver it itself (it keeps retrying until it does).
    for (const auto& [id, reporter] : committed_) {
      if (ever_crashed_.count(reporter) != 0) continue;
      if (!delivered_[reporter].contains(id)) {
        std::ostringstream os;
        os << "delivery-at-reporter violated: cmd " << std::hex << id.value
           << std::dec << " was committed at n" << reporter
           << " but never delivered there";
        violations_.push_back(os.str());
      }
    }
  }

  // Convergence: correct nodes hold identical delivered command sets once
  // the cluster is healed and drained.
  if (!checks.convergence) return ok();
  for (std::size_t i = 1; i < correct.size(); ++i) {
    const auto &a = correct_structs[0], &b = correct_structs[i];
    if (a.size() != b.size()) {
      std::ostringstream os;
      os << "convergence violated: n" << correct[0] << " delivered "
         << a.size() << " commands but n" << correct[i] << " delivered "
         << b.size();
      violations_.push_back(os.str());
      continue;
    }
    for (const auto& c : a.sequence()) {
      if (!b.contains(c.id)) {
        std::ostringstream os;
        os << "convergence violated: cmd " << std::hex << c.id.value
           << std::dec << " delivered at n" << correct[0] << " but not at n"
           << correct[i];
        violations_.push_back(os.str());
        break;
      }
    }
  }

  return ok();
}

}  // namespace m2::fuzz
