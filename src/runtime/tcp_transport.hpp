#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hpp"
#include "net/payload.hpp"
#include "runtime/peer_health.hpp"
#include "runtime/transport.hpp"

namespace m2::runtime {

/// An unused localhost TCP port: binds port 0, reads the kernel's choice
/// back and releases it; 0 when no port could be had. Another process can
/// take the port before the caller binds it, which then fails that bind
/// (tests, soaks and benches report it).
std::uint16_t free_port();

/// Real-socket transport: one TCP listener per locally attached node, one
/// outbound stream per remote peer owned by a dedicated writer thread.
///
/// Send path: the sending node thread encodes the payload once into a
/// per-thread scratch buffer, copies header+body into a pooled flat frame
/// (net::ByteArena — recycled by size class, so the steady state allocates
/// nothing), and pushes the frame onto the peer's lock-free MPSC queue.
/// The peer's writer thread drains the queue and coalesces pending frames
/// into a single sendmsg(iovec[]) bounded by max_coalesce_bytes — one
/// syscall covers many messages, and no node thread ever blocks on a
/// socket. Broadcast encodes and checksums once for all recipients.
///
/// Wire format per frame: a net::FrameHeader (magic "M2PX", version,
/// sender, message_count=1, body_bytes, CRC32C of the body) followed by
/// body_bytes of net::encode_payload output. A reader thread per accepted
/// connection recv()s into a buffer, parses every complete frame per
/// syscall, validates magic/version/CRC, and pushes decoded payloads onto
/// the target node's inbox; corrupt or truncated frames close the
/// connection (the peer reconnects on its next send).
///
/// Delivery semantics match what consensus needs from TCP: in-order per
/// connection, messages dropped on connection failure or queue overflow
/// (protocol retries and anti-entropy recover them) — never duplicated,
/// never corrupted.
class TcpTransport final : public Transport {
 public:
  /// `endpoints[i]` is node i's listen address; the cluster size is
  /// endpoints.size(). Local nodes are the ones later attach()ed.
  explicit TcpTransport(std::vector<core::NodeAddress> endpoints,
                        core::TransportOptions options = {});
  ~TcpTransport() override;

  void attach(NodeId node, Inbox* inbox) override;

  /// Binds and listens for every attached node, spawning accept threads
  /// and one writer thread per remote peer. Returns via error() whether
  /// any listener could not bind.
  void start() override;
  void stop() override;

  void send(NodeId from, NodeId to, const net::Payload& payload) override;
  void broadcast(NodeId from, const net::Payload& payload,
                 bool include_self) override;

  /// Non-empty when start() failed to bind a listener (the error text).
  const std::string& error() const { return error_; }
  std::string start_error() const override { return error_; }

  /// Chaos hooks: tear down the live connection to `to` / corrupt the next
  /// frame written to it (after its CRC is computed, so the receiver's
  /// checksum-failure teardown path fires). Wired to runtime::ChaosTransport.
  bool chaos_reset(NodeId to) override;
  bool chaos_corrupt_next(NodeId to) override;

  /// Published health state of the outbound link to `to` (always kUp for
  /// locally attached nodes, which bypass the socket path).
  PeerState peer_state(NodeId to) const;

  /// Number of sendmsg() flushes issued across all peer writers. With N
  /// messages sent and F flushes, N/F is the achieved coalescing factor
  /// (tests assert F can be far below N under bursts).
  std::uint64_t tx_flushes() const {
    return tx_flushes_.load(std::memory_order_relaxed);
  }

 private:
  /// Pooled flat wire frame: FrameHeader + body contiguous in one
  /// ByteArena block, intrusively linked for the MPSC queue.
  struct Frame;
  struct Peer;
  struct Listener {
    NodeId node = kNoNode;
    /// Atomic: stop() claims and closes it while accept_loop reads it.
    std::atomic<int> fd{-1};
    std::thread accept_thread;
  };

  void deliver_local(NodeId from, NodeId to,
                     const std::vector<std::uint8_t>& bytes);
  /// Frames one message and enqueues it on `to`'s writer (dropping it if
  /// the peer queue is over its byte cap). `crc` is the body's CRC32C,
  /// computed once by the caller even when fanning out to many peers.
  void wire_enqueue(NodeId from, NodeId to,
                    const std::vector<std::uint8_t>& body, std::uint32_t crc);
  void writer_loop(Peer& peer, NodeId to);
  /// Writes the batch, (re)connecting as gated by the peer's health state:
  /// backoff between retries, probe cadence when down, never more than one
  /// dial per flush. Returns false when the batch was dropped.
  bool flush_batch(Peer& peer, NodeId to, const std::vector<Frame*>& batch);
  /// One bounded connect attempt (non-blocking connect + poll with
  /// options_.connect_timeout). Returns the fd, or -1.
  int connect_to(const core::NodeAddress& ep);
  /// Dials `to` and records the outcome in its health machine, publishing
  /// the fd and counters. Returns true when connected.
  bool try_connect(Peer& peer, NodeId to);
  void accept_loop(Listener* listener);
  void reader_loop(int fd, NodeId target);

  std::vector<core::NodeAddress> endpoints_;
  core::TransportOptions options_;
  std::vector<Inbox*> inboxes_;  // nullptr for remote nodes
  std::vector<std::unique_ptr<Peer>> peers_;
  std::vector<std::unique_ptr<Listener>> listeners_;
  std::mutex readers_mu_;
  std::vector<std::thread> reader_threads_;  // guarded by readers_mu_
  std::vector<int> reader_fds_;              // guarded by readers_mu_
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> tx_flushes_{0};
  std::string error_;
};

}  // namespace m2::runtime
