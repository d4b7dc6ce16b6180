#include "src/net/collection_service.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "src/metrics/metrics.h"

namespace ntrace {

namespace {

int64_t NowMicros() {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  return flags >= 0 && fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void SetRecvTimeout(int fd, double ms) {
  timeval tv;
  tv.tv_sec = static_cast<time_t>(ms / 1000.0);
  tv.tv_usec = static_cast<suseconds_t>(static_cast<int64_t>(ms * 1000.0) % 1000000);
  setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

// Session segments flush every frame, so the durable watermark tracks the
// ack watermark exactly: an acked frame is never lost to a server crash.
constexpr size_t kSessionFlushBytes = 0;

// Ingest counters (DESIGN.md §8/§11), per shard plus service-wide.
struct NetMetrics {
  Counter& frames;
  Counter& records;
  Counter& dup_frames;
  Counter& ooo_frames;
  Counter& backpressure;
  Counter& evictions;
  Counter& crashes;
  Counter& sessions_restored;

  static NetMetrics& Get() {
    static NetMetrics m = [] {
      MetricsRegistry& r = MetricsRegistry::Global();
      return NetMetrics{
          r.GetCounter("ntrace_net_frames_delivered_total",
                       "Data frames delivered in order to collection sessions"),
          r.GetCounter("ntrace_net_records_delivered_total",
                       "Trace records delivered over the collection socket"),
          r.GetCounter("ntrace_net_duplicate_frames_total",
                       "Transport-duplicate frames absorbed by the session layer"),
          r.GetCounter("ntrace_net_out_of_order_frames_total",
                       "Frames parked in the reorder buffer before delivery"),
          r.GetCounter("ntrace_net_backpressure_signals_total",
                       "Acks sent carrying a BUSY or SHED status"),
          r.GetCounter("ntrace_net_evictions_total",
                       "Connections closed by the slow-client eviction deadline"),
          r.GetCounter("ntrace_net_server_crashes_total",
                       "Injected collection-service crashes"),
          r.GetCounter("ntrace_net_sessions_restored_total",
                       "Sessions rebuilt from durable spool segments after a restart"),
      };
    }();
    return m;
  }
};

Counter& ShardCounter(const char* what, int shard, const char* help) {
  return MetricsRegistry::Global().GetCounter(
      "ntrace_net_shard" + std::to_string(shard) + "_" + what + "_total", help);
}

}  // namespace

// An out-of-order frame parked until the gap before it fills.
struct Parked {
  uint16_t inner_type = 0;
  std::vector<uint8_t> inner;
};

struct CollectionService::Session {
  uint32_t agent_id = 0;
  uint64_t expected_seq = 0;  // Next in-order seq; everything below is delivered.
  uint64_t durable_seq = 0;   // Everything below is flushed to the spool.
  CollectionServer server;
  SpoolWriter spool;
  std::map<uint64_t, Parked> parked;
  bool shed_flag = false;  // A frame was dropped since the last ack.
  bool sealed = false;
  bool restored = false;
  uint64_t frames_delivered = 0;
  uint64_t records_delivered = 0;
  uint64_t dup_frames = 0;
  uint64_t ooo_frames = 0;
  uint64_t dropped_frames = 0;
};

struct CollectionService::Connection {
  int fd = -1;
  uint32_t agent_id = 0;
  NetFrameAssembler assembler;
  int64_t last_activity_us = 0;
  std::vector<uint8_t> out;
  size_t out_pos = 0;
  bool ack_pending = false;  // Deliveries since the last queued ack.
  bool dead = false;
};

struct CollectionService::Shard {
  int index = 0;
  int wake_fds[2] = {-1, -1};
  std::thread thread;

  struct Incoming {
    int fd = -1;
    NetHello hello;
    std::vector<uint8_t> leftover;  // Bytes read past the hello frame.
  };
  std::mutex mailbox_mu;
  std::vector<Incoming> mailbox;

  std::vector<Connection> conns;
  std::unordered_map<uint32_t, std::unique_ptr<Session>> sessions;
  NetServiceStats local;  // Folded into the service totals at thread exit.

  Counter* frames_metric = nullptr;
  Counter* backpressure_metric = nullptr;
  Counter* evict_metric = nullptr;
};

CollectionService::CollectionService(Options options) : options_(std::move(options)) {
  if (options_.config.shards < 1) {
    options_.config.shards = 1;
  }
  next_crash_at_ = options_.config.crash_after_frames;
}

CollectionService::~CollectionService() {
  stopping_.store(true, std::memory_order_release);
  dying_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    if (sh->wake_fds[1] >= 0) {
      (void)!write(sh->wake_fds[1], "x", 1);
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) {
      sh->thread.join();
    }
    for (Connection& c : sh->conns) {
      if (c.fd >= 0) {
        close(c.fd);
      }
    }
    for (auto& [id, s] : sh->sessions) {
      s->spool.Close();
    }
    for (int fd : sh->wake_fds) {
      if (fd >= 0) {
        close(fd);
      }
    }
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
  }
}

bool CollectionService::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return false;
  }
  listen_fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return false;
  }
  int one = 1;
  setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port_);
  if (bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd_, 64) != 0) {
    close(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  if (port_ == 0) {
    socklen_t len = sizeof(addr);
    getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
  }

  shards_.clear();
  for (int i = 0; i < options_.config.shards; ++i) {
    auto sh = std::make_unique<Shard>();
    sh->index = i;
    if (pipe(sh->wake_fds) != 0) {
      close(listen_fd_);
      listen_fd_ = -1;
      shards_.clear();
      return false;
    }
    SetNonBlocking(sh->wake_fds[0]);
    SetNonBlocking(sh->wake_fds[1]);
    sh->frames_metric =
        &ShardCounter("frames_delivered", i, "Data frames delivered by this ingest shard");
    sh->backpressure_metric =
        &ShardCounter("backpressure_signals", i, "BUSY/SHED acks sent by this ingest shard");
    sh->evict_metric =
        &ShardCounter("evictions", i, "Slow clients evicted by this ingest shard");
    shards_.push_back(std::move(sh));
  }
  stopping_.store(false, std::memory_order_release);
  dying_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& sh : shards_) {
    Shard* p = sh.get();
    p->thread = std::thread([this, p] { ShardLoop(p); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void CollectionService::TearDown(bool abandon_spools) {
  for (auto& sh : shards_) {
    if (sh->wake_fds[1] >= 0) {
      (void)!write(sh->wake_fds[1], "x", 1);
    }
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }
  for (auto& sh : shards_) {
    if (sh->thread.joinable()) {
      sh->thread.join();
    }
    // The shard loop closes its sockets on the way out; anything still in
    // the mailbox never made it to a loop iteration.
    std::lock_guard<std::mutex> lock(sh->mailbox_mu);
    for (Shard::Incoming& in : sh->mailbox) {
      if (in.fd >= 0) {
        close(in.fd);
      }
    }
    sh->mailbox.clear();
    for (auto& [id, s] : sh->sessions) {
      if (abandon_spools) {
        s->spool.Abandon();
      } else {
        s->spool.Close();
      }
    }
  }
  if (listen_fd_ >= 0) {
    close(listen_fd_);
    listen_fd_ = -1;
  }
  running_.store(false, std::memory_order_release);
}

void CollectionService::Stop() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  stopping_.store(true, std::memory_order_release);
  TearDown(/*abandon_spools=*/false);
}

void CollectionService::Kill() {
  if (!running_.load(std::memory_order_acquire)) {
    return;
  }
  dying_.store(true, std::memory_order_release);
  TearDown(/*abandon_spools=*/true);
}

bool CollectionService::Restart() {
  dying_.store(true, std::memory_order_release);
  TearDown(/*abandon_spools=*/true);
  // Sessions died with the process; returning agents are resumed from
  // their spool segments on their next hello.
  for (auto& sh : shards_) {
    sh->sessions.clear();
    sh->conns.clear();
  }
  crashed_.store(false, std::memory_order_release);
  return Start();
}

bool CollectionService::TakeSession(uint32_t agent_id, NetSessionResult* out) {
  for (auto& sh : shards_) {
    auto it = sh->sessions.find(agent_id);
    if (it == sh->sessions.end()) {
      continue;
    }
    Session& s = *it->second;
    out->server = std::move(s.server);
    out->frames_delivered = s.frames_delivered;
    out->records_delivered = s.records_delivered;
    out->net_duplicate_frames = s.dup_frames;
    out->net_out_of_order_frames = s.ooo_frames;
    out->net_frames_dropped = s.dropped_frames;
    out->restored = s.restored;
    out->sealed = s.sealed;
    sh->sessions.erase(it);
    return true;
  }
  return false;
}

NetServiceStats CollectionService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return stats_;
}

void CollectionService::AcceptLoop() {
  while (!stopping_.load(std::memory_order_acquire) &&
         !dying_.load(std::memory_order_acquire)) {
    pollfd p{listen_fd_, POLLIN, 0};
    if (poll(&p, 1, 50) <= 0) {
      continue;
    }
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      continue;
    }
    SetNoDelay(fd);
    SetRecvTimeout(fd, kNetConnectTimeoutMs);

    // The first frame must be the hello; it routes the connection to its
    // shard. Handled here so shard loops only ever see bound connections.
    NetFrameAssembler assembler;
    NetHello hello;
    bool got = false, bad = false;
    const int64_t deadline =
        NowMicros() + static_cast<int64_t>(kNetConnectTimeoutMs * 1000.0);
    while (!got && !bad && NowMicros() < deadline) {
      uint8_t buf[512];
      const ssize_t n = recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        bad = true;
        break;
      }
      assembler.Append(buf, static_cast<size_t>(n));
      SpoolFrameView view;
      bool corrupt = false;
      if (assembler.Next(&view, &corrupt)) {
        got = view.type == static_cast<uint16_t>(NetFrameType::kHello) &&
              DecodeHello(view.payload, view.payload_size, &hello);
        bad = !got;
      } else if (corrupt) {
        bad = true;
      }
    }
    if (!got || hello.config_fingerprint != options_.config_fingerprint) {
      close(fd);
      continue;
    }
    SetNonBlocking(fd);
    {
      std::lock_guard<std::mutex> lock(stats_mu_);
      ++stats_.connections_accepted;
    }
    Shard* shard = shards_[hello.agent_id % shards_.size()].get();
    {
      std::lock_guard<std::mutex> lock(shard->mailbox_mu);
      Shard::Incoming in;
      in.fd = fd;
      in.hello = hello;
      // Bytes the hello read pulled in past the hello frame belong to the
      // shard: data frames often ride the same packet.
      in.leftover = assembler.TakeBuffered();
      shard->mailbox.push_back(std::move(in));
    }
    (void)!write(shard->wake_fds[1], "x", 1);
  }
}

CollectionService::Session* CollectionService::FindOrCreateSession(Shard* shard,
                                                                   uint32_t agent_id) {
  auto it = shard->sessions.find(agent_id);
  if (it != shard->sessions.end()) {
    return it->second.get();
  }
  auto session = std::make_unique<Session>();
  session->agent_id = agent_id;
  if (!options_.spool_dir.empty()) {
    const std::string path = options_.spool_dir + "/" + SpoolSegmentName(agent_id);
    CollectionServer replayed;
    const SpoolReadResult r = SpoolReader::Read(path, &replayed);
    if (r.frames_valid > 0 && r.Matches(agent_id, options_.config_fingerprint)) {
      // Rebuilt from the segment's valid prefix; the count of data frames
      // in the prefix IS the resume watermark (one spool frame per data
      // frame: DeliverInOrder persists each payload as it came; a seal, if
      // present, is not a data frame).
      session->server = std::move(replayed);
      session->expected_seq = r.frames_valid - (r.sealed ? 1 : 0);
      session->durable_seq = session->expected_seq;
      session->restored = true;
      ++shard->local.sessions_restored;
      NetMetrics::Get().sessions_restored.Inc();
      if (r.sealed) {
        // The crash landed between the seal and the bye-ack: the stream is
        // complete on disk. Leave the segment untouched; the agent's retried
        // bye gets its ack from the replayed server state.
        session->sealed = true;
        session->server.Finish();
      }
    }
    if (!session->sealed) {
      // Continues exactly where the valid prefix ends (a damaged tail is
      // truncated first); a segment of another run starts over.
      session->spool.OpenAppend(path, agent_id, options_.config_fingerprint);
    }
    session->spool.set_flush_threshold(kSessionFlushBytes);
  }
  Session* raw = session.get();
  shard->sessions.emplace(agent_id, std::move(session));
  return raw;
}

void CollectionService::DeliverInOrder(Shard* shard, Session* s, uint16_t inner_type,
                                       const uint8_t* inner, size_t inner_size) {
  NetMetrics& metrics = NetMetrics::Get();
  uint64_t record_count = 0;
  // Every well-formed payload is persisted as it came off the wire: the
  // completion blob is not collection state, but persisting it makes the
  // sealed segment resumable by the fleet's checkpoint pass, and an unknown
  // type from a future agent is kept, not interpreted.
  if (SpoolDeliverFrame(inner_type, inner, inner_size, &s->server, &record_count) &&
      s->spool.ok()) {
    const bool completion = inner_type == static_cast<uint16_t>(SpoolFrameType::kCompletion);
    s->spool.AppendRawFrame(inner_type, inner, inner_size, /*checkpoint=*/completion, record_count);
  }
  ++s->expected_seq;
  // Durable watermark: without a spool, an acked frame is as safe as it
  // will ever get; with one, the frame is durable once the writer's buffer
  // has drained to the OS.
  if (!s->spool.ok() || s->spool.buffered_bytes() == 0) {
    s->durable_seq = s->expected_seq;
  }
  ++s->frames_delivered;
  s->records_delivered += record_count;
  ++shard->local.frames_delivered;
  shard->local.records_delivered += record_count;
  shard->frames_metric->Inc();
  metrics.frames.Inc();
  metrics.records.Inc(record_count);

  if (options_.config.crash_after_frames > 0) {
    const uint64_t n = frames_delivered_total_.fetch_add(1, std::memory_order_relaxed) + 1;
    std::lock_guard<std::mutex> lock(stats_mu_);
    if (crashes_fired_.load(std::memory_order_relaxed) < options_.config.max_crashes &&
        n >= next_crash_at_) {
      crashes_fired_.fetch_add(1, std::memory_order_relaxed);
      next_crash_at_ += options_.config.crash_after_frames;
      ++stats_.crashes;
      NetMetrics::Get().crashes.Inc();
      crashed_.store(true, std::memory_order_release);
      dying_.store(true, std::memory_order_release);
      for (auto& other : shards_) {
        if (other->wake_fds[1] >= 0) {
          (void)!write(other->wake_fds[1], "x", 1);
        }
      }
    }
  } else {
    frames_delivered_total_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CollectionService::HandleFrame(Shard* shard, Connection* conn, const SpoolFrameView& view) {
  NetMetrics& metrics = NetMetrics::Get();
  switch (static_cast<NetFrameType>(view.type)) {
    case NetFrameType::kData: {
      NetDataHead head;
      const uint8_t* inner = nullptr;
      size_t inner_size = 0;
      if (!DecodeDataHead(view.payload, view.payload_size, &head, &inner, &inner_size)) {
        conn->dead = true;
        return;
      }
      auto it = shard->sessions.find(head.agent_id);
      if (it == shard->sessions.end()) {
        return;  // Data before hello: drop; the client will resend after one.
      }
      Session* s = it->second.get();
      conn->ack_pending = true;
      if (head.net_seq < s->expected_seq) {
        ++s->dup_frames;
        ++shard->local.duplicate_frames;
        metrics.dup_frames.Inc();
        return;
      }
      if (head.net_seq == s->expected_seq) {
        DeliverInOrder(shard, s, head.inner_type, inner, inner_size);
        // Drain everything the gap was holding back.
        auto next = s->parked.find(s->expected_seq);
        while (next != s->parked.end()) {
          DeliverInOrder(shard, s, next->second.inner_type, next->second.inner.data(),
                         next->second.inner.size());
          s->parked.erase(next);
          next = s->parked.find(s->expected_seq);
        }
        return;
      }
      // A gap: park the frame (bounded) or drop it and say so.
      if (s->parked.size() >= kNetReorderLimit) {
        ++s->dropped_frames;
        ++shard->local.frames_dropped;
        s->shed_flag = true;
        return;
      }
      if (s->parked.find(head.net_seq) == s->parked.end()) {
        Parked p;
        p.inner_type = head.inner_type;
        p.inner.assign(inner, inner + inner_size);
        s->parked.emplace(head.net_seq, std::move(p));
        ++s->ooo_frames;
        ++shard->local.out_of_order_frames;
        metrics.ooo_frames.Inc();
      } else {
        ++s->dup_frames;
        ++shard->local.duplicate_frames;
        metrics.dup_frames.Inc();
      }
      return;
    }
    case NetFrameType::kBye: {
      NetBye bye;
      if (!DecodeBye(view.payload, view.payload_size, &bye)) {
        conn->dead = true;
        return;
      }
      auto it = shard->sessions.find(conn->agent_id);
      if (it == shard->sessions.end()) {
        conn->dead = true;
        return;
      }
      Session* s = it->second.get();
      if (s->expected_seq >= bye.frames_sent) {
        if (!s->sealed) {
          s->sealed = true;
          // Sort on the shard thread, so the fleet's drain finds the
          // stream sorted.
          s->server.Finish();
          if (s->spool.ok()) {
            s->spool.Seal(s->server.set().records.size());
          }
          s->durable_seq = s->expected_seq;
        }
        NetByeAck ack;
        ack.records_collected = s->server.set().records.size();
        EncodeByeAckFrame(&conn->out, ack);
      } else {
        // Gaps outstanding (a crash rewound us past what the agent thinks
        // it sent): the cumulative ack tells it what to resend.
        conn->ack_pending = true;
      }
      return;
    }
    case NetFrameType::kHello: {
      // Re-hello on an established connection: answer idempotently.
      NetHello hello;
      if (DecodeHello(view.payload, view.payload_size, &hello)) {
        Session* s = FindOrCreateSession(shard, hello.agent_id);
        conn->agent_id = hello.agent_id;
        NetHelloAck ack;
        ack.resume_seq = s->expected_seq;
        ack.credit = static_cast<uint32_t>(options_.config.window);
        ack.status = static_cast<uint8_t>(NetStatus::kOk);
        EncodeHelloAckFrame(&conn->out, ack);
      }
      return;
    }
    default:
      return;  // Unknown control frame: ignore (forward compatibility).
  }
}

void CollectionService::QueueAck(Shard* shard, Connection* conn, Session* s) {
  NetAck ack;
  ack.agent_id = s->agent_id;
  ack.ack_seq = s->expected_seq;
  ack.durable_seq = s->durable_seq;
  const size_t parked = s->parked.size();
  ack.credit = static_cast<uint32_t>(
      options_.config.window > static_cast<int>(parked)
          ? static_cast<size_t>(options_.config.window) - parked
          : 0);
  if (s->shed_flag) {
    ack.status = static_cast<uint8_t>(NetStatus::kShed);
    s->shed_flag = false;
    ++shard->local.shed_signals;
    shard->backpressure_metric->Inc();
    NetMetrics::Get().backpressure.Inc();
  } else if (static_cast<int>(parked) >= options_.config.busy_watermark) {
    ack.status = static_cast<uint8_t>(NetStatus::kBusy);
    ++shard->local.busy_signals;
    shard->backpressure_metric->Inc();
    NetMetrics::Get().backpressure.Inc();
  } else {
    ack.status = static_cast<uint8_t>(NetStatus::kOk);
  }
  EncodeAckFrame(&conn->out, ack);
}

void CollectionService::ShardLoop(Shard* shard) {
  std::vector<pollfd> pfds;
  std::vector<uint8_t> rdbuf(64 << 10);
  const int64_t evict_us = static_cast<int64_t>(options_.config.evict_idle_ms * 1000.0);

  auto process_input = [&](Connection& conn) {
    // Drain the socket, then the assembler.
    for (;;) {
      const ssize_t n = recv(conn.fd, rdbuf.data(), rdbuf.size(), 0);
      if (n > 0) {
        conn.assembler.Append(rdbuf.data(), static_cast<size_t>(n));
        conn.last_activity_us = NowMicros();
        if (static_cast<size_t>(n) < rdbuf.size()) {
          break;
        }
        continue;
      }
      if (n == 0) {
        conn.dead = true;  // Orderly close (or a torn frame's end).
        break;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        break;
      }
      conn.dead = true;  // ECONNRESET and friends.
      break;
    }
    SpoolFrameView view;
    bool corrupt = false;
    while (!dying_.load(std::memory_order_acquire) && conn.assembler.Next(&view, &corrupt)) {
      HandleFrame(shard, &conn, view);
    }
    if (corrupt) {
      conn.dead = true;
    }
  };

  auto flush_output = [&](Connection& conn) {
    while (conn.out_pos < conn.out.size()) {
      const ssize_t n = send(conn.fd, conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
      if (n > 0) {
        conn.out_pos += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return;  // POLLOUT will resume.
      }
      conn.dead = true;
      return;
    }
    conn.out.clear();
    conn.out_pos = 0;
  };

  for (;;) {
    if (dying_.load(std::memory_order_acquire)) {
      // Crash semantics: sockets die where they stand, nothing flushes.
      for (Connection& c : shard->conns) {
        if (c.fd >= 0) {
          close(c.fd);
          c.fd = -1;
        }
      }
      shard->conns.clear();
      break;
    }
    if (stopping_.load(std::memory_order_acquire)) {
      // Graceful drain: push out pending acks, then close.
      for (Connection& c : shard->conns) {
        if (c.fd >= 0) {
          flush_output(c);
          close(c.fd);
          c.fd = -1;
        }
      }
      shard->conns.clear();
      break;
    }

    pfds.clear();
    pfds.push_back({shard->wake_fds[0], POLLIN, 0});
    for (Connection& c : shard->conns) {
      short events = POLLIN;
      if (c.out_pos < c.out.size()) {
        events |= POLLOUT;
      }
      pfds.push_back({c.fd, events, 0});
    }
    poll(pfds.data(), pfds.size(), 25);

    if (pfds[0].revents & POLLIN) {
      uint8_t drain[64];
      while (read(shard->wake_fds[0], drain, sizeof(drain)) > 0) {
      }
      std::vector<Shard::Incoming> incoming;
      {
        std::lock_guard<std::mutex> lock(shard->mailbox_mu);
        incoming.swap(shard->mailbox);
      }
      for (Shard::Incoming& in : incoming) {
        Connection conn;
        conn.fd = in.fd;
        conn.agent_id = in.hello.agent_id;
        conn.last_activity_us = NowMicros();
        Session* s = FindOrCreateSession(shard, in.hello.agent_id);
        NetHelloAck ack;
        ack.resume_seq = s->expected_seq;
        ack.credit = static_cast<uint32_t>(options_.config.window);
        ack.status = static_cast<uint8_t>(NetStatus::kOk);
        EncodeHelloAckFrame(&conn.out, ack);
        if (!in.leftover.empty()) {
          conn.assembler.Append(in.leftover.data(), in.leftover.size());
          SpoolFrameView view;
          bool corrupt = false;
          while (conn.assembler.Next(&view, &corrupt)) {
            HandleFrame(shard, &conn, view);
          }
          if (corrupt) {
            conn.dead = true;
          }
        }
        shard->conns.push_back(std::move(conn));
      }
    }

    for (size_t i = 1; i < pfds.size() && i - 1 < shard->conns.size(); ++i) {
      Connection& conn = shard->conns[i - 1];
      if (conn.dead || conn.fd < 0) {
        continue;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        process_input(conn);
      }
    }

    // Acks for every session touched this iteration, then write-out.
    const int64_t now = NowMicros();
    for (Connection& conn : shard->conns) {
      if (conn.fd < 0) {
        continue;
      }
      if (conn.dead) {
        close(conn.fd);
        conn.fd = -1;
        continue;
      }
      if (conn.ack_pending) {
        conn.ack_pending = false;
        auto it = shard->sessions.find(conn.agent_id);
        if (it != shard->sessions.end()) {
          QueueAck(shard, &conn, it->second.get());
        }
      }
      flush_output(conn);
      if (conn.fd >= 0 && !conn.dead && evict_us > 0 &&
          now - conn.last_activity_us > evict_us) {
        // Slow-client eviction: the socket has shown nothing readable for
        // the whole deadline. The agent finds out on its next I/O and
        // reconnects.
        close(conn.fd);
        conn.fd = -1;
        ++shard->local.evictions;
        shard->evict_metric->Inc();
        NetMetrics::Get().evictions.Inc();
      }
      if (conn.dead && conn.fd >= 0) {
        close(conn.fd);
        conn.fd = -1;
      }
    }
    shard->conns.erase(std::remove_if(shard->conns.begin(), shard->conns.end(),
                                      [](const Connection& c) { return c.fd < 0; }),
                       shard->conns.end());
  }

  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_.frames_delivered += shard->local.frames_delivered;
  stats_.records_delivered += shard->local.records_delivered;
  stats_.duplicate_frames += shard->local.duplicate_frames;
  stats_.out_of_order_frames += shard->local.out_of_order_frames;
  stats_.frames_dropped += shard->local.frames_dropped;
  stats_.busy_signals += shard->local.busy_signals;
  stats_.shed_signals += shard->local.shed_signals;
  stats_.evictions += shard->local.evictions;
  stats_.sessions_restored += shard->local.sessions_restored;
  shard->local = NetServiceStats{};
}

}  // namespace ntrace
