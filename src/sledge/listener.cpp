#include "sledge/listener.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cstring>

#include "common/clock.hpp"
#include "common/log.hpp"
#include "sledge/runtime.hpp"

namespace sledge::runtime {

namespace {

// Malformed request: terse 400 and hang up.
const char k400[] =
    "HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\nConnection: "
    "close\r\n\r\n";

// Bound on the blocking pre-admission flush (parked response bytes must hit
// the socket before a worker takes over the fd, or response order breaks).
constexpr uint64_t kFlushTimeoutNs = 2'000'000'000;

// How long accept stays disarmed after an unshedable EMFILE (no reserve fd
// could be reclaimed): long enough to stop the 100%-CPU accept spin, short
// enough that recovery after fds free up is prompt.
constexpr uint64_t kAcceptBackoffNs = 10'000'000;  // 10 ms

// Single sendmsg of header+body iovecs starting at logical offset `off`
// into the concatenation. Returns sendmsg's result.
ssize_t send_iovecs(int fd, const std::string& header, const void* body,
                    size_t body_len, size_t off) {
  iovec iov[2];
  int cnt = 0;
  if (off < header.size()) {
    iov[cnt].iov_base = const_cast<char*>(header.data()) + off;
    iov[cnt].iov_len = header.size() - off;
    ++cnt;
    if (body_len != 0) {
      iov[cnt].iov_base = const_cast<void*>(body);
      iov[cnt].iov_len = body_len;
      ++cnt;
    }
  } else {
    size_t boff = off - header.size();
    iov[cnt].iov_base = static_cast<char*>(const_cast<void*>(body)) + boff;
    iov[cnt].iov_len = body_len - boff;
    ++cnt;
  }
  msghdr msg{};
  msg.msg_iov = iov;
  msg.msg_iovlen = static_cast<size_t>(cnt);
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

}  // namespace

Listener::Listener(Runtime* rt, int shard) : rt_(rt), shard_(shard) {}

Listener::~Listener() {
  join();
  // The loop stopped pumping the return/discard queues the moment
  // running() flipped, but workers may have queued entries right up to
  // their own exit. Returned fds are open keep-alive connections nobody
  // owns anymore — close them here or they leak for the process lifetime.
  // (Queues are quiet now: workers and this thread are joined.)
  {
    std::lock_guard<std::mutex> lock(ret_mu_);
    for (const auto& [fd, gen] : returned_) {
      auto it = loaned_.find(fd);
      if (it != loaned_.end() && it->second->gen == gen) loaned_.erase(it);
      ::close(fd);
    }
    returned_.clear();
    discarded_.clear();  // fds already closed worker-side; just drop state
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (event_fd_ >= 0) ::close(event_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
  for (auto& [fd, conn] : conns_) ::close(fd);
  // Remaining loaned_ fds belong to workers (already closed worker-side by
  // now); closing them here could hit a recycled descriptor.
}

Status Listener::init(uint16_t port, uint16_t* bound_port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (listen_fd_ < 0) return Status::error("socket() failed");
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  // Every shard binds the same port; the kernel hashes incoming 4-tuples
  // across the REUSEPORT group so each connection lands on exactly one
  // shard's accept queue.
  if (::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEPORT, &one, sizeof(one)) <
      0) {
    return Status::error("setsockopt(SO_REUSEPORT) failed: " +
                         std::string(strerror(errno)));
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    return Status::error("bind() failed: " + std::string(strerror(errno)));
  }
  if (::listen(listen_fd_, 1024) < 0) return Status::error("listen() failed");

  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  *bound_port = ntohs(addr.sin_port);

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return Status::error("epoll_create1 failed");
  event_fd_ = ::eventfd(0, EFD_NONBLOCK);
  if (event_fd_ < 0) return Status::error("eventfd failed");
  // EMFILE headroom: one reserved fd this shard can burn to accept-and-
  // close when the process fd table is full (see shed_one_accept).
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev);
  ev.data.fd = event_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, event_fd_, &ev);
  return Status::ok();
}

void Listener::start() {
  thread_ = std::thread([this] { thread_main(); });
}

void Listener::join() {
  if (thread_.joinable()) thread_.join();
}

void Listener::wake() {
  if (event_fd_ >= 0) {
    uint64_t one = 1;
    [[maybe_unused]] ssize_t n = ::write(event_fd_, &one, sizeof(one));
  }
}

void Listener::return_connection(int fd, uint64_t gen) {
  {
    std::lock_guard<std::mutex> lock(ret_mu_);
    returned_.emplace_back(fd, gen);
  }
  wake();
}

void Listener::discard_connection(int fd, uint64_t gen) {
  {
    std::lock_guard<std::mutex> lock(ret_mu_);
    discarded_.emplace_back(fd, gen);
  }
  wake();
}

void Listener::drain_returned() {
  uint64_t junk;
  while (::read(event_fd_, &junk, sizeof(junk)) > 0) {
  }
  std::vector<std::pair<int, uint64_t>> fds;
  std::vector<std::pair<int, uint64_t>> gone;
  {
    std::lock_guard<std::mutex> lock(ret_mu_);
    fds.swap(returned_);
    gone.swap(discarded_);
  }
  // Discards first: a stale loaned entry must never shadow a reattach.
  // The generation check makes "stale" precise in the other direction too:
  // after a worker closes fd N and queues this discard, the kernel may
  // recycle N into a brand-new connection that gets admitted (and loaned)
  // before the discard is processed — erasing by fd alone would destroy
  // the NEW loan's parked state. A discard only lands on the exact loan
  // generation it was issued for.
  for (const auto& [fd, gen] : gone) {
    auto it = loaned_.find(fd);
    if (it != loaned_.end() && it->second->gen == gen) {
      loaned_.erase(it);
      loaned_conns_.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  for (const auto& [fd, gen] : fds) reattach_connection(fd, gen);
}

void Listener::add_connection(int fd) {
  auto conn = std::make_unique<Conn>();
  conn->fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  conns_[fd] = std::move(conn);
  open_conns_.fetch_add(1, std::memory_order_relaxed);
}

void Listener::reattach_connection(int fd, uint64_t gen) {
  std::unique_ptr<Conn> conn;
  auto it = loaned_.find(fd);
  if (it != loaned_.end() && it->second->gen == gen) {
    conn = std::move(it->second);
    loaned_.erase(it);
    loaned_conns_.fetch_sub(1, std::memory_order_relaxed);
  } else {
    conn = std::make_unique<Conn>();
    conn->fd = fd;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = fd;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
    ::close(fd);
    return;
  }
  Conn* c = conn.get();
  conns_[fd] = std::move(conn);
  open_conns_.fetch_add(1, std::memory_order_relaxed);
  // Replay bytes that arrived pipelined behind the request the worker just
  // answered; any bytes still in the kernel buffer will level-trigger
  // EPOLLIN on their own.
  if (!c->stash.empty()) {
    std::string bytes;
    bytes.swap(c->stash);
    (void)process_bytes(c, bytes.data(), bytes.size());
  }
}

void Listener::detach_to_loaned(Conn* conn) {
  int fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  auto it = conns_.find(fd);
  loaned_[fd] = std::move(it->second);
  conns_.erase(it);
  open_conns_.fetch_sub(1, std::memory_order_relaxed);
  loaned_conns_.fetch_add(1, std::memory_order_relaxed);
}

void Listener::drop_connection(int fd) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  open_conns_.fetch_sub(static_cast<int64_t>(conns_.erase(fd)),
                        std::memory_order_relaxed);
  ::close(fd);
}

void Listener::set_events(Conn* conn, uint32_t events) {
  epoll_event ev{};
  ev.events = events;
  ev.data.fd = conn->fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn->fd, &ev);
}

bool Listener::shed_one_accept() {
  accept_errors_.fetch_add(1, std::memory_order_relaxed);
  // Free one fd slot, take the pending connection, hang up on it, retake
  // the slot. Each round retires one queued connection, so the accept
  // backlog drains (slowly, with connection resets) instead of wedging the
  // shard in a 100%-CPU accept/EMFILE spin on the level-triggered EPOLLIN.
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void Listener::disarm_accept() {
  epoll_event ev{};
  ev.events = 0;  // keep registered, deliver nothing
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accept_rearm_at_ns_ = now_ns() + kAcceptBackoffNs;
}

void Listener::rearm_accept_if_due(uint64_t now) {
  if (accept_rearm_at_ns_ == 0 || now < accept_rearm_at_ns_) return;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &ev);
  accept_rearm_at_ns_ = 0;
}

void Listener::accept_new() {
  while (true) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd pressure: shed via the reserve fd. If even that made no
        // progress (reserve already gone), back off instead of spinning.
        if (!shed_one_accept()) {
          disarm_accept();
          return;
        }
        continue;
      }
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    add_connection(fd);
  }
}

bool Listener::conn_send(Conn* conn, const std::string& header,
                         const void* body, size_t body_len,
                         bool close_after) {
  if (!conn->outbuf.empty()) {
    // Earlier response still draining: append to keep socket order.
    conn->outbuf += header;
    if (body_len != 0) {
      conn->outbuf.append(static_cast<const char*>(body), body_len);
    }
    conn->close_after_write = conn->close_after_write || close_after;
    return true;
  }
  const size_t total = header.size() + body_len;
  size_t off = 0;
  while (off < total) {
    ssize_t n = send_iovecs(conn->fd, header, body, body_len, off);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Short write: park the remainder (the only copy on this path) and
      // let EPOLLOUT finish the job.
      if (off < header.size()) {
        conn->outbuf.assign(header, off, std::string::npos);
        if (body_len != 0) {
          conn->outbuf.append(static_cast<const char*>(body), body_len);
        }
      } else {
        conn->outbuf.assign(static_cast<const char*>(body) +
                                (off - header.size()),
                            body_len - (off - header.size()));
      }
      conn->outoff = 0;
      conn->close_after_write = close_after;
      set_events(conn, EPOLLOUT | (close_after ? 0u : EPOLLIN));
      return true;
    }
    drop_connection(conn->fd);  // peer went away
    return false;
  }
  if (close_after) {
    drop_connection(conn->fd);
    return false;
  }
  return true;
}

bool Listener::handle_writable(Conn* conn) {
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outoff,
                       conn->outbuf.size() - conn->outoff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    drop_connection(conn->fd);
    return false;
  }
  conn->outbuf.clear();
  conn->outoff = 0;
  if (conn->close_after_write) {
    drop_connection(conn->fd);
    return false;
  }
  set_events(conn, EPOLLIN);
  return true;
}

bool Listener::flush_outbuf_blocking(Conn* conn) {
  uint64_t deadline = now_ns() + kFlushTimeoutNs;
  while (conn->outoff < conn->outbuf.size()) {
    ssize_t n = ::send(conn->fd, conn->outbuf.data() + conn->outoff,
                       conn->outbuf.size() - conn->outoff, MSG_NOSIGNAL);
    if (n > 0) {
      conn->outoff += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (now_ns() >= deadline) return false;
      pollfd pfd{conn->fd, POLLOUT, 0};
      ::poll(&pfd, 1, 50);
      continue;
    }
    return false;
  }
  conn->outbuf.clear();
  conn->outoff = 0;
  return true;
}

void Listener::flush_admitted() {
  if (pending_admits_.empty()) return;
  rt_->dispatcher().push_batch(pending_admits_.data(),
                               pending_admits_.size());
  pending_admits_.clear();
  rt_->notify_workers();  // one wake per tick, not per request
}

Listener::Consume Listener::process_bytes(Conn* conn, const char* data,
                                          size_t n) {
  size_t off = 0;
  while (off < n) {
    int used = conn->parser.feed(data + off, n - off);
    if (used < 0) {
      (void)conn_send(conn, std::string(k400, sizeof(k400) - 1), true);
      return Consume::kStop;
    }
    off += static_cast<size_t>(used);
    if (!conn->parser.done()) continue;

    http::Request& req = conn->parser.request();
    bool keep_alive = req.keep_alive();

    // Chunked transfer encoding is not implemented; the parser consumed the
    // chunk framing (body discarded) so the stream is positioned at the
    // next request boundary — answer 501 and keep the connection usable.
    if (conn->parser.chunked()) {
      std::string header = http::serialize_response_header(
          501, "Not Implemented", 0, keep_alive, "text/plain");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    // Live observability endpoints, answered on the listener thread from
    // brief lock-free/per-module-lock snapshots (no global pause).
    if (rt_->config().admin_endpoint &&
        req.target.compare(0, 7, "/admin/") == 0) {
      std::string body;
      std::string content_type;
      if (req.target == "/admin/stats") {
        body = rt_->stats_json();
        content_type = "application/json";
      } else if (req.target == "/admin/metrics") {
        body = rt_->stats_prometheus();
        content_type = "text/plain; version=0.0.4";
      }
      std::string header =
          body.empty()
              ? http::serialize_response_header(404, "Not Found", 0,
                                                keep_alive, "text/plain")
              : http::serialize_response_header(200, "OK", body.size(),
                                                keep_alive, content_type);
      if (!conn_send(conn, header, body.data(), body.size(), !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    std::string name =
        req.target.empty() || req.target[0] != '/' ? req.target
                                                   : req.target.substr(1);
    LoadedModule* mod = rt_->find_module(name);
    if (!mod) {
      std::string header = http::serialize_response_header(
          404, "Not Found", 0, keep_alive, "text/plain");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }

    // Admission control, all without building a sandbox: graceful drain
    // (503, longer Retry-After — this process is going away), overload /
    // fair-share / queue-slack shedding (503, short Retry-After — backoff
    // and retry likely succeeds), and the unmeetable-deadline gate
    // (504-early: even an empty queue cannot run this module inside its
    // deadline). All responses honor keep-alive so the client can reuse
    // the parked connection for the retry.
    if (rt_->draining()) {
      rt_->note_shed(mod);
      std::string header = http::serialize_response_header(
          503, "Draining", 0, keep_alive, "text/plain", "Retry-After: 5\r\n");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }
    switch (rt_->admission_check(mod)) {
      case AdmitVerdict::kAdmit:
        break;
      case AdmitVerdict::kShedOverload: {
        rt_->note_shed(mod);
        std::string header = http::serialize_response_header(
            503, "Overloaded", 0, keep_alive, "text/plain",
            "Retry-After: 1\r\n");
        if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
          return Consume::kStop;
        }
        conn->parser.reset();
        continue;
      }
      case AdmitVerdict::kShedDeadline: {
        rt_->note_shed_deadline(mod);
        std::string header = http::serialize_response_header(
            504, "Deadline Unmeetable", 0, keep_alive, "text/plain",
            "Retry-After: 1\r\n");
        if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
          return Consume::kStop;
        }
        conn->parser.reset();
        continue;
      }
    }

    // Admission: the worker writes this request's response itself, so any
    // parked listener-side bytes must flush first to keep socket order.
    // The blocking flush can stall this shard, so hand off the sandboxes
    // already admitted this tick before entering it.
    if (!conn->outbuf.empty()) {
      flush_admitted();
      if (!flush_outbuf_blocking(conn)) {
        drop_connection(conn->fd);
        return Consume::kStop;
      }
    }

    std::vector<uint8_t> body = std::move(req.body);
    std::unique_ptr<Sandbox> sb =
        Sandbox::create(&mod->module, std::move(body), conn->fd, keep_alive,
                        rt_->config().instantiation);
    if (!sb) {
      rt_->note_shed(mod);
      std::string header = http::serialize_response_header(
          503, "Overloaded", 0, keep_alive, "text/plain",
          "Retry-After: 1\r\n");
      if (!conn_send(conn, header, nullptr, 0, !keep_alive)) {
        return Consume::kStop;
      }
      conn->parser.reset();
      continue;
    }
    sb->user_tag = mod;
    sb->set_conn_shard(shard_);  // workers return the fd to this shard
    // New loan generation: the worker echoes it in return/discard so a
    // recycled fd number can never alias a newer loan (see drain_returned).
    conn->gen = ++loan_gen_;
    sb->set_conn_gen(conn->gen);

    // Resolve limits: per-module override, else runtime default.
    const RuntimeConfig& rc = rt_->config();
    uint64_t budget = mod->limits.execution_budget_ns != 0
                          ? mod->limits.execution_budget_ns
                          : rc.execution_budget_ns;
    uint64_t deadline = mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                                     : rc.deadline_ns;
    sb->set_limits(budget, deadline != 0 ? sb->created_ns() + deadline : 0);
    // Async host I/O: the runtime brokers sb_invoke children; top-level
    // requests start at chain depth 0.
    sb->set_io_config(rt_, static_cast<uint32_t>(rc.max_sandbox_fds),
                      /*depth=*/0,
                      static_cast<uint32_t>(rc.max_invoke_depth));
    // Top-level requests seed the inter-function dataplane for any
    // sb_invoke chain they start.
    sb->set_invoke_shm(rt_->invoke_shm());

    {
      std::lock_guard<std::mutex> lock(mod->stats.mu);
      mod->stats.requests++;
      mod->stats.startup.record(sb->startup_cost_ns());
      (sb->pooled() ? mod->stats.startup_pooled : mod->stats.startup_cold)
          .record(sb->startup_cost_ns());
    }

    // Stash already-received bytes of the next pipelined request; they are
    // replayed when the worker returns the connection (the old path
    // silently dropped them, hanging pipelining keep-alive clients).
    conn->parser.reset();
    conn->stash.assign(data + off, n - off);
    detach_to_loaned(conn);

    rt_->note_admitted(mod);
    // Batched admission: the sandbox joins this tick's batch and reaches
    // the dispatcher via one push_batch/notify_workers at tick end.
    pending_admits_.push_back(sb.release());
    return Consume::kStop;  // fd now belongs to the worker side
  }
  return Consume::kContinue;
}

void Listener::handle_readable(Conn* conn) {
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
    if (n == 0) {
      drop_connection(conn->fd);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      drop_connection(conn->fd);
      return;
    }
    if (process_bytes(conn, buf, static_cast<size_t>(n)) == Consume::kStop) {
      return;  // conn dropped, loaned out, or draining a close response
    }
  }
}

void Listener::thread_main() {
  epoll_event events[128];
  while (rt_->running()) {
    int n = ::epoll_wait(epoll_fd_, events, 128, 50);
    if (n < 0) {
      if (errno == EINTR) continue;
      SLEDGE_LOG_ERROR("listener[%d] epoll_wait failed: %s", shard_,
                       strerror(errno));
      break;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      if (fd == listen_fd_) {
        accept_new();
        continue;
      }
      if (fd == event_fd_) {
        drain_returned();
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (events[i].events & EPOLLOUT) {
        if (!handle_writable(conn)) continue;  // conn dropped
      }
      if (events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) {
        handle_readable(conn);
      }
    }
    // One dispatcher hand-off and one worker wake for the whole tick.
    flush_admitted();
    rearm_accept_if_due(now_ns());
  }
  flush_admitted();  // shutdown: nothing admitted may be stranded here
}

}  // namespace sledge::runtime
