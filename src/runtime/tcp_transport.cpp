#include "runtime/tcp_transport.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <new>

#include "net/arena.hpp"
#include "net/codec.hpp"
#include "net/serde.hpp"
#include "runtime/peer_health.hpp"

namespace m2::runtime {

namespace {

/// Upper bound on a frame body a reader will buffer for; a header claiming
/// more is treated as corruption.
constexpr std::uint64_t kMaxBodyBytes = 64ull << 20;

/// Cap on iovec entries per sendmsg flush (well under IOV_MAX); the byte
/// bound (max_coalesce_bytes) is usually what limits a batch.
constexpr std::size_t kMaxIovPerFlush = 64;

/// Per-thread encode scratch: sends from different node threads encode
/// concurrently, each into its own buffer, capacity recycled per message.
std::vector<std::uint8_t>& encode_to_scratch(const net::Payload& payload) {
  static thread_local std::vector<std::uint8_t> scratch;
  net::encode_payload_into(payload, scratch);
  return scratch;
}

/// Monotonic wall time in core::Time units — drives the per-peer backoff
/// and probe deadlines (immune to system clock steps).
core::Time mono_now() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class WriteResult {
  kOk,
  kFailedClean,    // nothing consumed: safe to retry the batch on a new fd
  kFailedPartial,  // stream position lost mid-batch: drop it
};

/// Writes every iovec fully, advancing entries across partial writes.
/// MSG_NOSIGNAL: a dead peer yields EPIPE, not a process signal.
WriteResult sendmsg_all(int fd, std::vector<iovec>& iov) {
  std::size_t idx = 0;
  bool wrote = false;
  while (idx < iov.size()) {
    msghdr msg{};
    msg.msg_iov = iov.data() + idx;
    msg.msg_iovlen = iov.size() - idx;
    const ssize_t put = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (put < 0) {
      if (errno == EINTR) continue;
      return wrote ? WriteResult::kFailedPartial : WriteResult::kFailedClean;
    }
    if (put > 0) wrote = true;
    auto n = static_cast<std::size_t>(put);
    while (idx < iov.size() && n >= iov[idx].iov_len) {
      n -= iov[idx].iov_len;
      ++idx;
    }
    if (idx < iov.size() && n > 0) {
      iov[idx].iov_base = static_cast<std::uint8_t*>(iov[idx].iov_base) + n;
      iov[idx].iov_len -= n;
    }
  }
  return WriteResult::kOk;
}

}  // namespace

/// Pooled flat wire frame: header + body contiguous right after the struct,
/// all in one ByteArena block recycled by size class. The intrusive `next`
/// makes the frame its own queue node — no separate list allocation.
struct TcpTransport::Frame {
  std::atomic<Frame*> next{nullptr};
  std::uint32_t len = 0;          // wire bytes at data(): header + body
  std::uint32_t alloc_bytes = 0;  // exact size handed to the arena

  std::uint8_t* data() { return reinterpret_cast<std::uint8_t*>(this + 1); }

  static Frame* alloc(std::size_t wire_bytes) {
    const std::size_t total = sizeof(Frame) + wire_bytes;
    void* mem = net::ByteArena::wire().allocate(total);
    auto* f = new (mem) Frame();
    f->len = static_cast<std::uint32_t>(wire_bytes);
    f->alloc_bytes = static_cast<std::uint32_t>(total);
    return f;
  }
  static void release(Frame* f) {
    const std::size_t bytes = f->alloc_bytes;
    f->~Frame();
    net::ByteArena::wire().deallocate(f, bytes);
  }
};

/// One outbound stream: an intrusive MPSC frame queue (Vyukov scheme — any
/// node thread pushes, only the writer thread pops) plus the writer thread
/// that owns the socket. The data path takes no lock: producers exchange
/// the tail pointer, the writer follows next links.
struct TcpTransport::Peer {
  std::atomic<Frame*> tail;
  Frame* head;  // writer-thread only
  Frame stub;   // dummy node breaking the empty-queue case; never freed

  /// Bytes sitting in the queue. seq_cst on purpose: paired with `sleeping`
  /// it forms the Dekker handshake that makes writer sleep vs producer
  /// wakeup race-free (see writer_loop).
  std::atomic<std::size_t> queued_bytes{0};

  std::atomic<bool> sleeping{false};
  std::mutex wake_mu;
  std::condition_variable wake_cv;
  bool wake_pending = false;  // guarded by wake_mu

  std::thread writer;

  /// Socket fd, owned by the writer thread. fd_mu only orders stop()'s
  /// (and chaos_reset()'s) shutdown() against the writer's close/reconnect,
  /// so neither can ever shut down a recycled fd number.
  std::mutex fd_mu;
  int fd = -1;

  /// Connect-history state machine, owned by the writer thread; the
  /// published mirror lets producer threads drop sends to a down peer at
  /// enqueue time without touching writer state.
  std::unique_ptr<PeerHealth> health;
  std::atomic<PeerState> published_state{PeerState::kUp};
  bool ever_connected = false;  // writer-thread only; gates `reconnects`

  /// Chaos hook: when set, the next flushed frame has one body byte
  /// flipped after its CRC was computed.
  std::atomic<bool> corrupt_next{false};

  Peer() : tail(&stub), head(&stub) {}

  void push(Frame* f) {
    f->next.store(nullptr, std::memory_order_relaxed);
    Frame* prev = tail.exchange(f, std::memory_order_acq_rel);
    prev->next.store(f, std::memory_order_release);
  }

  /// Returns the next frame, or nullptr when the queue is empty *or* a
  /// producer is mid-push (tail swung, next link not yet stored). The
  /// caller distinguishes the two via queued_bytes and retries after a
  /// yield — a producer always completes its two-store push promptly.
  Frame* pop() {
    Frame* h = head;
    Frame* next = h->next.load(std::memory_order_acquire);
    if (h == &stub) {
      if (next == nullptr) return nullptr;
      head = next;
      h = next;
      next = h->next.load(std::memory_order_acquire);
    }
    if (next != nullptr) {
      head = next;
      return h;
    }
    if (h != tail.load(std::memory_order_acquire)) return nullptr;
    // Single element: re-insert the stub so the tail moves off `h`.
    push(&stub);
    next = h->next.load(std::memory_order_acquire);
    if (next != nullptr) {
      head = next;
      return h;
    }
    return nullptr;
  }
};

std::uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  std::uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
      port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

TcpTransport::TcpTransport(std::vector<core::NodeAddress> endpoints,
                           core::TransportOptions options)
    : endpoints_(std::move(endpoints)),
      options_(options),
      inboxes_(endpoints_.size(), nullptr) {
  peers_.reserve(endpoints_.size());
  PeerHealth::Options hopts;
  hopts.backoff_base = options_.backoff_base;
  hopts.backoff_cap = options_.backoff_cap;
  hopts.suspect_after = options_.suspect_after;
  hopts.down_after = options_.down_after;
  hopts.probe_interval = options_.probe_interval;
  for (std::size_t i = 0; i < endpoints_.size(); ++i) {
    auto p = std::make_unique<Peer>();
    // Distinct jitter streams per peer so concurrent reconnectors spread
    // out; the seed only shapes jitter, determinism is not required here.
    p->health = std::make_unique<PeerHealth>(
        hopts, 0x7463705f70656572ull ^ (0x9E3779B97F4A7C15ull * (i + 1)));
    peers_.push_back(std::move(p));
  }
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::attach(NodeId node, Inbox* inbox) {
  inboxes_.at(node) = inbox;
}

void TcpTransport::start() {
  running_.store(true, std::memory_order_release);
  // One writer per remote peer (local nodes short-circuit via
  // deliver_local and never queue frames).
  for (NodeId n = 0; n < static_cast<NodeId>(inboxes_.size()); ++n) {
    if (inboxes_[n] != nullptr) continue;
    Peer* p = peers_[n].get();
    p->writer = std::thread([this, p, n] { writer_loop(*p, n); });
  }
  for (NodeId n = 0; n < static_cast<NodeId>(inboxes_.size()); ++n) {
    if (inboxes_[n] == nullptr) continue;  // remote node, not served here
    const core::NodeAddress& ep = endpoints_[n];
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      error_ = "socket(): " + std::string(std::strerror(errno));
      return;
    }
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0 ||
        ::listen(fd, 64) < 0) {
      error_ = "bind/listen port " + std::to_string(ep.port) + ": " +
               std::strerror(errno);
      ::close(fd);
      return;
    }
    auto listener = std::make_unique<Listener>();
    listener->node = n;
    listener->fd.store(fd, std::memory_order_release);
    Listener* raw = listener.get();
    listener->accept_thread = std::thread([this, raw] { accept_loop(raw); });
    listeners_.push_back(std::move(listener));
  }
}

void TcpTransport::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // Wake every writer (it observes running_ == false, drains its queue into
  // the dropped count, and closes its fd) and shut down any connected
  // socket so a writer blocked in sendmsg — peer alive but not reading —
  // errors out instead of hanging the join.
  for (auto& p : peers_) {
    {
      std::lock_guard<std::mutex> lock(p->wake_mu);
      p->wake_pending = true;
    }
    p->wake_cv.notify_one();
    std::lock_guard<std::mutex> lock(p->fd_mu);
    if (p->fd >= 0) ::shutdown(p->fd, SHUT_RDWR);
  }
  for (auto& p : peers_) {
    if (p->writer.joinable()) p->writer.join();
  }
  for (auto& l : listeners_) {
    const int fd = l->fd.exchange(-1, std::memory_order_acq_rel);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);
      ::close(fd);
    }
  }
  for (auto& l : listeners_) {
    if (l->accept_thread.joinable()) l->accept_thread.join();
  }
  listeners_.clear();
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const int fd : reader_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  std::vector<std::thread> readers;
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    readers.swap(reader_threads_);
  }
  for (auto& t : readers) {
    if (t.joinable()) t.join();
  }
  {
    std::lock_guard<std::mutex> lock(readers_mu_);
    for (const int fd : reader_fds_) ::close(fd);
    reader_fds_.clear();
  }
}

void TcpTransport::accept_loop(Listener* listener) {
  while (running_.load(std::memory_order_acquire)) {
    const int lfd = listener->fd.load(std::memory_order_acquire);
    if (lfd < 0) return;  // claimed and closed by stop()
    const int conn = ::accept(lfd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    const NodeId target = listener->node;
    std::lock_guard<std::mutex> lock(readers_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(conn);
      return;
    }
    reader_fds_.push_back(conn);
    reader_threads_.emplace_back(
        [this, conn, target] { reader_loop(conn, target); });
  }
}

void TcpTransport::reader_loop(int fd, NodeId target) {
  constexpr std::size_t kHeader = net::FrameHeader::kEncodedSize;
  // One recv can deliver many coalesced frames; parse them all, then
  // compact the partial tail to the front. The buffer grows (and stays)
  // at the largest frame seen, so steady state is allocation-free.
  std::vector<std::uint8_t> buf(64 * 1024);
  std::size_t have = 0;
  std::vector<net::PayloadPtr> staged;  // one frame's decoded messages
  while (running_.load(std::memory_order_acquire)) {
    if (have == buf.size()) buf.resize(buf.size() * 2);  // frame > buffer
    const ssize_t got = ::recv(fd, buf.data() + have, buf.size() - have, 0);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) continue;
      return;
    }
    have += static_cast<std::size_t>(got);
    std::size_t pos = 0;
    while (have - pos >= kHeader) {
      const auto h = net::FrameHeader::decode(buf.data() + pos, kHeader);
      if (!h.has_value() || h->body_bytes > kMaxBodyBytes) {
        counters_.decode_failures.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
        return;  // bad magic/version/length: stream is garbage, drop it
      }
      const std::size_t frame = kHeader + static_cast<std::size_t>(h->body_bytes);
      if (have - pos < frame) break;  // tail frame incomplete; recv more
      const std::uint8_t* body = buf.data() + pos + kHeader;
      if (net::crc32c(body, h->body_bytes) != h->checksum) {
        counters_.decode_failures.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
        return;  // corrupt body: drop the connection, never deliver
      }

      Inbox* inbox = inboxes_.at(target);
      if (inbox == nullptr) return;
      // Messages follow each other back to back: each decode advances by
      // the bytes it consumed, and the last must end exactly at the body's
      // end. A message that fails to decode, or bytes left over, mean the
      // framing is lost: like a CRC failure, drop the connection and
      // deliver nothing of the frame.
      net::Reader messages(body, h->body_bytes);
      staged.clear();
      while (staged.size() < h->message_count) {
        net::PayloadPtr decoded = net::decode_next(messages);
        if (decoded == nullptr) break;
        staged.push_back(std::move(decoded));
      }
      if (staged.size() != h->message_count || messages.remaining() != 0) {
        counters_.decode_failures.fetch_add(1, std::memory_order_relaxed);
        ::shutdown(fd, SHUT_RDWR);
        return;
      }
      counters_.messages_received.fetch_add(staged.size(),
                                            std::memory_order_relaxed);
      for (net::PayloadPtr& p : staged)
        inbox->push(Event::message(h->sender, std::move(p)));
      counters_.bytes_received.fetch_add(frame, std::memory_order_relaxed);
      pos += frame;
    }
    if (pos > 0) {
      std::memmove(buf.data(), buf.data() + pos, have - pos);
      have -= pos;
    }
  }
}

int TcpTransport::connect_to(const core::NodeAddress& ep) {
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  if (::getaddrinfo(ep.host.c_str(), std::to_string(ep.port).c_str(), &hints,
                    &res) != 0 ||
      res == nullptr)
    return -1;
  int fd = -1;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    // Non-blocking dial bounded by poll: a black-holed peer costs at most
    // options_.connect_timeout, never the kernel's minutes-long default.
    const int flags = ::fcntl(fd, F_GETFL, 0);
    ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
    bool connected = ::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0;
    if (!connected && errno == EINPROGRESS) {
      pollfd pfd{fd, POLLOUT, 0};
      const int timeout_ms = static_cast<int>(
          std::max<core::Time>(1, options_.connect_timeout / core::kMillisecond));
      int pr;
      do {
        pr = ::poll(&pfd, 1, timeout_ms);
      } while (pr < 0 && errno == EINTR);
      if (pr == 1) {
        int err = 0;
        socklen_t len = sizeof(err);
        connected = ::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) == 0 &&
                    err == 0;
      }
    }
    if (connected) {
      ::fcntl(fd, F_SETFL, flags);  // back to blocking for sendmsg_all
      break;
    }
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd >= 0) {
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return fd;
}

bool TcpTransport::try_connect(Peer& peer, NodeId to) {
  const int fd = connect_to(endpoints_[to]);
  if (fd < 0) {
    counters_.connect_failures.fetch_add(1, std::memory_order_relaxed);
    if (peer.health->on_failure(mono_now())) {
      counters_.peer_state_changes.fetch_add(1, std::memory_order_relaxed);
      peer.published_state.store(peer.health->state(),
                                 std::memory_order_relaxed);
    }
    return false;
  }
  {
    std::lock_guard<std::mutex> lock(peer.fd_mu);
    peer.fd = fd;
    // stop() may have run its shutdown pass before we published the fd;
    // re-check under fd_mu so we never write into a post-stop socket.
    if (!running_.load(std::memory_order_acquire)) {
      ::close(peer.fd);
      peer.fd = -1;
      return false;
    }
  }
  if (peer.health->on_connect_success()) {
    counters_.peer_state_changes.fetch_add(1, std::memory_order_relaxed);
    peer.published_state.store(peer.health->state(),
                               std::memory_order_relaxed);
  }
  if (peer.ever_connected)
    counters_.reconnects.fetch_add(1, std::memory_order_relaxed);
  peer.ever_connected = true;
  return true;
}

PeerState TcpTransport::peer_state(NodeId to) const {
  return peers_.at(to)->published_state.load(std::memory_order_relaxed);
}

bool TcpTransport::chaos_reset(NodeId to) {
  Peer& peer = *peers_.at(to);
  std::lock_guard<std::mutex> lock(peer.fd_mu);
  if (peer.fd < 0) return false;
  // Same pattern as stop(): shutdown under fd_mu, the owning writer sees
  // the write error and closes/reconnects through the backoff path.
  ::shutdown(peer.fd, SHUT_RDWR);
  return true;
}

bool TcpTransport::chaos_corrupt_next(NodeId to) {
  Peer& peer = *peers_.at(to);
  if (inboxes_.at(to) != nullptr) return false;  // local delivery: no wire
  peer.corrupt_next.store(true, std::memory_order_relaxed);
  return true;
}

void TcpTransport::deliver_local(NodeId from, NodeId to,
                                 const std::vector<std::uint8_t>& bytes) {
  Inbox* inbox = inboxes_.at(to);
  if (inbox == nullptr) return;
  net::PayloadPtr decoded = net::decode_payload(bytes);
  if (decoded == nullptr) {
    counters_.decode_failures.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  counters_.messages_received.fetch_add(1, std::memory_order_relaxed);
  counters_.bytes_received.fetch_add(bytes.size(), std::memory_order_relaxed);
  inbox->push(Event::message(from, std::move(decoded)));
}

void TcpTransport::wire_enqueue(NodeId from, NodeId to,
                                const std::vector<std::uint8_t>& body,
                                std::uint32_t crc) {
  Peer& peer = *peers_.at(to);
  const std::size_t wire_bytes = net::FrameHeader::kEncodedSize + body.size();
  // Soft byte cap: concurrent producers can each overshoot by one frame,
  // which is fine — the cap bounds memory, it is not exact accounting.
  // Sends outside the started window have no writer to drain them. A peer
  // published as down drops here too: its queue would only rot until the
  // prober revives it, and dropping at enqueue keeps dead-peer broadcasts
  // free of frame allocation entirely.
  if (!running_.load(std::memory_order_acquire) ||
      peer.published_state.load(std::memory_order_relaxed) ==
          PeerState::kDown ||
      peer.queued_bytes.load(std::memory_order_relaxed) + wire_bytes >
          options_.max_queue_bytes) {
    counters_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Frame* f = Frame::alloc(wire_bytes);
  net::FrameHeader h;
  h.sender = from;
  h.message_count = 1;
  h.body_bytes = body.size();
  h.checksum = crc;
  h.encode_into(f->data());
  std::memcpy(f->data() + net::FrameHeader::kEncodedSize, body.data(),
              body.size());

  // Dekker handshake with the writer: bump queued_bytes (seq_cst), push,
  // then check sleeping (seq_cst). The writer stores sleeping (seq_cst)
  // then re-checks queued_bytes (seq_cst) before blocking — so either we
  // see sleeping == true and notify, or the writer sees our bytes and
  // never blocks. No wakeup is ever lost.
  peer.queued_bytes.fetch_add(wire_bytes, std::memory_order_seq_cst);
  peer.push(f);
  if (peer.sleeping.load(std::memory_order_seq_cst)) {
    {
      std::lock_guard<std::mutex> lock(peer.wake_mu);
      peer.wake_pending = true;
    }
    peer.wake_cv.notify_one();
  }
}

void TcpTransport::writer_loop(Peer& peer, NodeId to) {
  std::vector<Frame*> batch;
  batch.reserve(kMaxIovPerFlush);
  while (true) {
    if (peer.queued_bytes.load(std::memory_order_seq_cst) == 0) {
      if (!running_.load(std::memory_order_acquire)) break;
      peer.sleeping.store(true, std::memory_order_seq_cst);
      if (peer.queued_bytes.load(std::memory_order_seq_cst) == 0) {
        // Bound the idle wait by the pending dial deadline (backoff retry
        // or down-state probe) so a disconnected peer is redialed even
        // when no traffic arrives. next_attempt() == 0 means connected or
        // never failed: nothing to probe, sleep until woken.
        const core::Time next =
            peer.fd < 0 ? peer.health->next_attempt() : core::Time{0};
        std::unique_lock<std::mutex> lock(peer.wake_mu);
        if (next == 0) {
          peer.wake_cv.wait(lock, [&] { return peer.wake_pending; });
        } else {
          const core::Time now = mono_now();
          if (next > now)
            peer.wake_cv.wait_for(lock, std::chrono::nanoseconds(next - now),
                                  [&] { return peer.wake_pending; });
        }
        peer.wake_pending = false;
      }
      peer.sleeping.store(false, std::memory_order_relaxed);
      // Probe: disconnected with the attempt window open and still no
      // queued traffic — dial now so a down peer is revived (and its
      // published state lifted, re-opening enqueue) without a send.
      if (running_.load(std::memory_order_acquire) && peer.fd < 0 &&
          peer.health->next_attempt() > 0 &&
          peer.health->attempt_due(mono_now()))
        try_connect(peer, to);
      continue;  // re-check running_ and the queue
    }
    // Collect pending frames up to the coalescing bound: under load one
    // sendmsg covers the whole burst instead of two syscalls per message.
    batch.clear();
    std::size_t bytes = 0;
    while (bytes < options_.max_coalesce_bytes &&
           batch.size() < kMaxIovPerFlush) {
      Frame* f = peer.pop();
      if (f == nullptr) {
        if (!batch.empty()) break;
        std::this_thread::yield();  // producer mid-push; bytes are coming
        continue;
      }
      peer.queued_bytes.fetch_sub(f->len, std::memory_order_seq_cst);
      batch.push_back(f);
      bytes += f->len;
    }
    if (batch.empty()) continue;
    if (flush_batch(peer, to, batch)) {
      counters_.messages_sent.fetch_add(batch.size(),
                                        std::memory_order_relaxed);
      counters_.bytes_sent.fetch_add(bytes, std::memory_order_relaxed);
      tx_flushes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      // Peer unreachable even after a reconnect attempt: the batch is
      // dropped; protocol retries and anti-entropy recover the loss.
      counters_.messages_dropped.fetch_add(batch.size(),
                                           std::memory_order_relaxed);
    }
    for (Frame* f : batch) Frame::release(f);
  }
  // Shutdown drain: whatever is still queued is dropped and recycled.
  for (;;) {
    Frame* f = peer.pop();
    if (f == nullptr) {
      if (peer.queued_bytes.load(std::memory_order_seq_cst) == 0) break;
      std::this_thread::yield();
      continue;
    }
    peer.queued_bytes.fetch_sub(f->len, std::memory_order_seq_cst);
    counters_.messages_dropped.fetch_add(1, std::memory_order_relaxed);
    Frame::release(f);
  }
  std::lock_guard<std::mutex> lock(peer.fd_mu);
  if (peer.fd >= 0) {
    ::close(peer.fd);
    peer.fd = -1;
  }
}

bool TcpTransport::flush_batch(Peer& peer, NodeId to,
                               const std::vector<Frame*>& batch) {
  // Writer-thread local; rebuilt per flush, capacity reused.
  static thread_local std::vector<iovec> iov;
  iov.clear();
  for (Frame* f : batch) iov.push_back(iovec{f->data(), f->len});

  if (peer.fd < 0) {
    if (!running_.load(std::memory_order_acquire)) return false;
    // Backoff gate: while a retry or probe window is pending, the batch is
    // dropped without a dial — a down peer never costs more than one
    // bounded connect attempt per window, no matter the send rate.
    if (!peer.health->attempt_due(mono_now())) return false;
    if (!try_connect(peer, to)) return false;
  }
  if (peer.corrupt_next.exchange(false, std::memory_order_relaxed)) {
    // Chaos hook: flip one body byte *after* the CRC went into the header.
    // The receiver's checksum check fails and it tears the connection down
    // — the exact corruption path a flaky NIC or middlebox would exercise.
    Frame* f = batch.front();
    if (f->len > net::FrameHeader::kEncodedSize)
      f->data()[net::FrameHeader::kEncodedSize] ^= 0xFF;
  }
  const WriteResult res = sendmsg_all(peer.fd, iov);
  if (res == WriteResult::kOk) return true;
  {
    std::lock_guard<std::mutex> lock(peer.fd_mu);
    ::close(peer.fd);
    peer.fd = -1;
  }
  // Losing an established stream counts as a failure: the next dial waits
  // out the backoff window instead of reconnecting inline. A partial write
  // already put a frame prefix on the old stream; the receiver discards it
  // at EOF, and either way this batch is spent.
  if (peer.health->on_failure(mono_now())) {
    counters_.peer_state_changes.fetch_add(1, std::memory_order_relaxed);
    peer.published_state.store(peer.health->state(),
                               std::memory_order_relaxed);
  }
  return false;
}

void TcpTransport::send(NodeId from, NodeId to, const net::Payload& payload) {
  const std::vector<std::uint8_t>& bytes = encode_to_scratch(payload);
  if (inboxes_.at(to) != nullptr) {
    counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
    deliver_local(from, to, bytes);
    return;
  }
  wire_enqueue(from, to, bytes, net::crc32c(bytes.data(), bytes.size()));
}

void TcpTransport::broadcast(NodeId from, const net::Payload& payload,
                             bool include_self) {
  // One encode and (for remotes) one checksum for the whole fan-out: local
  // recipients share a single decode of the scratch bytes (the decoded
  // tree is immutable and arena-backed, so it may cross threads), remote
  // ones get the same bytes memcpy'd into their pooled frames.
  const std::vector<std::uint8_t>& bytes = encode_to_scratch(payload);
  std::uint32_t crc = 0;
  bool have_crc = false;
  net::PayloadPtr decoded;
  bool decode_failed = false;
  for (NodeId to = 0; to < static_cast<NodeId>(endpoints_.size()); ++to) {
    if (to == from && !include_self) continue;
    if (inboxes_.at(to) != nullptr) {
      if (decoded == nullptr && !decode_failed) {
        decoded = net::decode_payload(bytes);
        if (decoded == nullptr) {
          counters_.decode_failures.fetch_add(1, std::memory_order_relaxed);
          decode_failed = true;
        }
      }
      if (decode_failed) continue;
      counters_.messages_sent.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_sent.fetch_add(bytes.size(), std::memory_order_relaxed);
      counters_.messages_received.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_received.fetch_add(bytes.size(),
                                         std::memory_order_relaxed);
      inboxes_.at(to)->push(Event::message(from, decoded));
    } else {
      if (!have_crc) {
        crc = net::crc32c(bytes.data(), bytes.size());
        have_crc = true;
      }
      wire_enqueue(from, to, bytes, crc);
    }
  }
}

}  // namespace m2::runtime
