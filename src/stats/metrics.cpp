#include "stats/metrics.hpp"

namespace m2::stats {

const char* metric_name(Counter c) {
  switch (c) {
    case Counter::kCommittedFast: return "committed_fast";
    case Counter::kCommittedSlow: return "committed_slow";
    case Counter::kCommittedForwarded: return "committed_forwarded";
    case Counter::kDelivered: return "delivered";
    case Counter::kDecidedSlots: return "decided_slots";
    case Counter::kForwarded: return "forwarded";
    case Counter::kFastPathRounds: return "fast_path_rounds";
    case Counter::kAcquisitions: return "acquisitions";
    case Counter::kRepairRounds: return "repair_rounds";
    case Counter::kAcceptNacks: return "accept_nacks";
    case Counter::kPrepareNacks: return "prepare_nacks";
    case Counter::kRetries: return "retries";
    case Counter::kTimeouts: return "timeouts";
    case Counter::kNoopsFilled: return "noops_filled";
    case Counter::kFallbacks: return "fallbacks";
    case Counter::kRetransmissions: return "retransmissions";
    case Counter::kLeaderChanges: return "leader_changes";
    case Counter::kCollisions: return "collisions";
    case Counter::kExecBlocked: return "exec_blocked";
    case Counter::kDepBytesSent: return "dep_bytes_sent";
    case Counter::kSyncProbes: return "sync_probes";
    case Counter::kSyncSlotsLearned: return "sync_slots_learned";
    case Counter::kGcTruncatedSlots: return "gc_truncated_slots";
    case Counter::kCrossingChecks: return "crossing_checks";
    case Counter::kCrossingHeadsVisited: return "crossing_heads_visited";
    case Counter::kCrossingDelivered: return "crossing_delivered";
    case Counter::kBatchedRounds: return "batched_rounds";
    case Counter::kBatchedCommands: return "batched_commands";
    case Counter::kBatchFlushFull: return "batch_flush_full";
    case Counter::kBatchFlushBytes: return "batch_flush_bytes";
    case Counter::kBatchFlushWindow: return "batch_flush_window";
    case Counter::kBatchFlushPipeline: return "batch_flush_pipeline";
    case Counter::kRuntimeTxDropped: return "runtime_tx_dropped";
    case Counter::kRuntimeReconnects: return "runtime_reconnects";
    case Counter::kRuntimeConnectFailures: return "runtime_connect_failures";
    case Counter::kRuntimePeerStateChanges:
      return "runtime_peer_state_changes";
    case Counter::kChaosDropped: return "chaos_dropped";
    case Counter::kChaosDelayed: return "chaos_delayed";
    case Counter::kChaosDuplicated: return "chaos_duplicated";
    case Counter::kChaosCorrupted: return "chaos_corrupted";
    case Counter::kChaosResets: return "chaos_resets";
    case Counter::kCount: break;
  }
  return "?counter";
}

const char* metric_name(Gauge g) {
  switch (g) {
    case Gauge::kEventQueueDepth: return "event_queue_depth";
    case Gauge::kPendingCommands: return "pending_commands";
    case Gauge::kCount: break;
  }
  return "?gauge";
}

const char* metric_name(Histo h) {
  switch (h) {
    case Histo::kCommitFastNs: return "commit_fast_ns";
    case Histo::kCommitSlowNs: return "commit_slow_ns";
    case Histo::kCommitForwardedNs: return "commit_forwarded_ns";
    case Histo::kDeliverFastNs: return "deliver_fast_ns";
    case Histo::kDeliverSlowNs: return "deliver_slow_ns";
    case Histo::kDeliverForwardedNs: return "deliver_forwarded_ns";
    case Histo::kAcquisitionNs: return "acquisition_ns";
    case Histo::kBatchOccupancy: return "batch_occupancy";
    case Histo::kSlotLogDepth: return "slot_log_depth";
    case Histo::kCount: break;
  }
  return "?histogram";
}

}  // namespace m2::stats
