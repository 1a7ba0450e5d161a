#include "sledge/front_door.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>

#include "common/clock.hpp"
#include "sledge/runtime.hpp"
#include "sledge/worker.hpp"

namespace sledge::runtime {

namespace {

// How long accept stays disarmed after an unshedable EMFILE (no reserve fd
// could be reclaimed): long enough to stop the 100%-CPU accept spin, short
// enough that recovery after fds free up is prompt.
constexpr uint64_t kAcceptBackoffNs = 10'000'000;  // 10 ms

// Connections accepted per take of the listen socket; the holder then
// re-arms it, so a connect storm is spread over every idle worker instead
// of stalling one worker's scheduling loop.
constexpr int kAcceptBatch = 64;

}  // namespace

FrontDoor::FrontDoor(Runtime* rt) : rt_(rt) {}

FrontDoor::~FrontDoor() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  if (reserve_fd_ >= 0) ::close(reserve_fd_);
}

Status FrontDoor::init(uint16_t port, uint16_t* bound_port) {
  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) return Status::error("socket() failed");
  listen_conn_.fd = listen_fd_;
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

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

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) return Status::error("epoll_create1 failed");
  // EMFILE headroom: one reserved fd the accept holder can burn to
  // accept-and-close when the process fd table is full.
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return Status::ok();
}

void FrontDoor::open() { arm(&listen_conn_, EPOLL_CTL_ADD); }

void FrontDoor::arm(Connection* c, int op) {
  const int fd = c->fd;
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLONESHOT;
  ev.data.ptr = c;
  // From the epoll_ctl on, the next holder may already be using (or
  // closing) `c`: it is not touched again here.
#if defined(__SANITIZE_THREAD__)
  // ThreadSanitizer orders an epoll hand-off only from EPOLL_CTL_ADD to
  // the epoll_wait that returns the fd, so a MOD re-arm would look like a
  // race with the next holder's close(). Sanitized builds re-arm as DEL +
  // ADD; the kernel orders both forms the same way.
  if (op == EPOLL_CTL_MOD) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
    op = EPOLL_CTL_ADD;
  }
#endif
  ::epoll_ctl(epoll_fd_, op, fd, &ev);
}

bool FrontDoor::serve_one(Worker* w) {
  epoll_event ev{};
  if (::epoll_wait(epoll_fd_, &ev, 1, 0) != 1) return false;
  auto* c = static_cast<Connection*>(ev.data.ptr);
  if (c == &listen_conn_) {
    accept_new();
  } else {
    serve(c, w);
  }
  return true;
}

void FrontDoor::finish(int fd, bool keep_open, Worker* w) {
  Connection* c = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = conns_.find(fd);
    if (it != conns_.end()) c = it->second.get();
  }
  if (c == nullptr) return;  // not a front-door connection
  if (c->loaned) {
    c->loaned = false;
    loaned_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (!keep_open) {
    close(c);
  } else if (c->pending_off < c->pending.size()) {
    serve(c, w);  // the next request is (partly) buffered already
  } else {
    arm(c, EPOLL_CTL_MOD);
  }
}

void FrontDoor::close(Connection* c) {
  const int fd = c->fd;
  {
    std::lock_guard<std::mutex> lock(mu_);
    conns_.erase(fd);
  }
  open_.fetch_sub(1, std::memory_order_relaxed);
  ::close(fd);  // also leaves the ready set
}

bool FrontDoor::shed_one_accept() {
  accept_errors_.fetch_add(1, std::memory_order_relaxed);
  // Free one fd slot, take the pending connection, hang up on it, retake
  // the slot. Each round retires one queued connection, so the accept
  // backlog drains (with connection resets) instead of wedging the holder
  // in a 100%-CPU accept/EMFILE spin.
  if (reserve_fd_ >= 0) {
    ::close(reserve_fd_);
    reserve_fd_ = -1;
  }
  int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK);
  if (fd >= 0) ::close(fd);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
  return fd >= 0;
}

void FrontDoor::rearm_accept_if_due(uint64_t now) {
  uint64_t at = accept_rearm_at_ns_.load(std::memory_order_relaxed);
  if (at == 0 || now < at) return;
  // The CAS winner holds the listen socket until it re-arms it.
  if (!accept_rearm_at_ns_.compare_exchange_strong(at, 0)) return;
  arm(&listen_conn_, EPOLL_CTL_MOD);
}

void FrontDoor::accept_new() {
  for (int i = 0; i < kAcceptBatch; ++i) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // fd pressure: shed via the reserve fd. If even that made no
        // progress, leave the listen socket disarmed for a backoff instead
        // of spinning (rearm_accept_if_due brings it back).
        if (!shed_one_accept()) {
          accept_rearm_at_ns_.store(now_ns() + kAcceptBackoffNs);
          return;
        }
        continue;
      }
      accept_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    auto conn = std::make_unique<Connection>();
    conn->fd = fd;
    Connection* c = conn.get();
    {
      std::lock_guard<std::mutex> lock(mu_);
      conns_[fd] = std::move(conn);
    }
    open_.fetch_add(1, std::memory_order_relaxed);
    arm(c, EPOLL_CTL_ADD);  // from here on any worker may take it
  }
  arm(&listen_conn_, EPOLL_CTL_MOD);
}

int FrontDoor::feed(Connection* c, const char* data, size_t n,
                    size_t* used) {
  size_t off = 0;
  while (off < n) {
    int k = c->parser.feed(data + off, n - off);
    if (k < 0) return -1;
    off += static_cast<size_t>(k);
    if (c->parser.done()) {
      *used = off;
      return 1;
    }
  }
  *used = off;
  return 0;
}

void FrontDoor::serve(Connection* c, Worker* w) {
  if (c->pending_off < c->pending.size()) {
    size_t used = 0;
    int r = feed(c, c->pending.data() + c->pending_off,
                 c->pending.size() - c->pending_off, &used);
    c->pending_off += used;
    if (c->pending_off == c->pending.size()) {
      c->pending.clear();
      c->pending_off = 0;
    }
    if (r != 0) {
      r > 0 ? act(c, w) : respond(c, w, 400, "Bad Request", false);
      return;
    }
  }
  char buf[65536];
  while (true) {
    ssize_t n = ::recv(c->fd, buf, sizeof(buf), 0);
    if (n > 0) {
      size_t used = 0;
      int r = feed(c, buf, static_cast<size_t>(n), &used);
      if (r > 0) {
        c->pending.assign(buf + used, static_cast<size_t>(n) - used);
        c->pending_off = 0;
        act(c, w);
        return;
      }
      if (r < 0) {
        // The stream position is unknowable: answer and hang up.
        respond(c, w, 400, "Bad Request", false);
        return;
      }
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      arm(c, EPOLL_CTL_MOD);
      return;
    }
    close(c);  // peer closed or the socket failed
    return;
  }
}

void FrontDoor::respond(Connection* c, Worker* w, int status,
                        const char* reason, bool keep_alive,
                        const char* extra, std::string body,
                        const char* content_type) {
  std::string header = http::serialize_response_header(
      status, reason, body.size(), keep_alive, content_type, extra);
  c->parser.reset();
  w->respond(c->fd, std::move(header),
             std::vector<uint8_t>(body.begin(), body.end()), keep_alive);
}

void FrontDoor::act(Connection* c, Worker* w) {
  http::Request& req = c->parser.request();
  const bool keep_alive = req.keep_alive();

  // Chunked transfer encoding is not implemented; the parser consumed the
  // chunk framing (body discarded) so the stream is positioned at the next
  // request boundary — answer 501 and keep the connection usable.
  if (c->parser.chunked()) {
    respond(c, w, 501, "Not Implemented", keep_alive);
    return;
  }

  // Live observability endpoints, answered by the holder from brief
  // lock-free/per-module-lock snapshots (no global pause).
  if (rt_->config().admin_endpoint &&
      req.target.compare(0, 7, "/admin/") == 0) {
    if (req.target == "/admin/stats") {
      respond(c, w, 200, "OK", keep_alive, "", rt_->stats_json(),
              "application/json");
    } else if (req.target == "/admin/metrics") {
      respond(c, w, 200, "OK", keep_alive, "", rt_->stats_prometheus(),
              "text/plain; version=0.0.4");
    } else {
      respond(c, w, 404, "Not Found", keep_alive);
    }
    return;
  }

  std::string name = req.target.empty() || req.target[0] != '/'
                         ? req.target
                         : req.target.substr(1);
  LoadedModule* mod = rt_->find_module(name);
  if (!mod) {
    respond(c, w, 404, "Not Found", keep_alive);
    return;
  }

  // Admission control, all without building a sandbox: graceful drain
  // (503, longer Retry-After — this process is going away), overload /
  // fair-share / queue-slack shedding (503, short Retry-After — backoff
  // and retry likely succeeds), and the unmeetable-deadline gate
  // (504-early: even an empty queue cannot run this module inside its
  // deadline). All answers honor keep-alive so the client can retry on
  // the same connection.
  if (rt_->draining()) {
    rt_->note_shed(mod);
    respond(c, w, 503, "Draining", keep_alive, "Retry-After: 5\r\n");
    return;
  }
  switch (rt_->admission_check(mod)) {
    case AdmitVerdict::kAdmit:
      break;
    case AdmitVerdict::kShedOverload:
      rt_->note_shed(mod);
      respond(c, w, 503, "Overloaded", keep_alive, "Retry-After: 1\r\n");
      return;
    case AdmitVerdict::kShedDeadline:
      rt_->note_shed_deadline(mod);
      respond(c, w, 504, "Deadline Unmeetable", keep_alive,
              "Retry-After: 1\r\n");
      return;
  }

  std::unique_ptr<Sandbox> sb =
      Sandbox::create(&mod->module, std::move(req.body), c->fd, keep_alive,
                      rt_->config().instantiation);
  if (!sb) {
    rt_->note_shed(mod);
    respond(c, w, 503, "Overloaded", keep_alive, "Retry-After: 1\r\n");
    return;
  }
  sb->user_tag = mod;

  // Resolve limits: per-module override, else runtime default.
  const RuntimeConfig& rc = rt_->config();
  uint64_t budget = mod->limits.execution_budget_ns != 0
                        ? mod->limits.execution_budget_ns
                        : rc.execution_budget_ns;
  uint64_t deadline = mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                                   : rc.deadline_ns;
  sb->set_limits(budget, deadline != 0 ? sb->created_ns() + deadline : 0);
  // Async host I/O: the runtime brokers sb_invoke children; top-level
  // requests start at chain depth 0 and seed the inter-function dataplane
  // for any chain they start.
  sb->set_io_config(rt_, static_cast<uint32_t>(rc.max_sandbox_fds),
                    /*depth=*/0, static_cast<uint32_t>(rc.max_invoke_depth));
  sb->set_invoke_shm(rt_->invoke_shm());

  {
    std::lock_guard<std::mutex> lock(mod->stats.mu);
    mod->stats.requests++;
    mod->stats.startup.record(sb->startup_cost_ns());
    (sb->pooled() ? mod->stats.startup_pooled : mod->stats.startup_cold)
        .record(sb->startup_cost_ns());
  }
  c->parser.reset();
  c->loaned = true;
  loaned_.fetch_add(1, std::memory_order_relaxed);
  rt_->note_admitted(mod);
  // The sandbox now holds the connection; whoever writes its response's
  // last byte carries on with `c`.
  w->admit(sb.release());
}

}  // namespace sledge::runtime
