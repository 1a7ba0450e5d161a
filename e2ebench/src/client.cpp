#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <fcntl.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstring>

#include "common/clock.hpp"

namespace e2e {

namespace {

constexpr uint32_t kTimerTag = 0xffffffffu;

bool iequals_prefix(const uint8_t* p, const char* lit, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (std::tolower(p[i]) != lit[i]) return false;
  }
  return true;
}

// Parses "HTTP/1.1 NNN ...\r\n...\r\n\r\n" at data[0, len). Returns the
// header length (incl. the blank line) and fills status/content_length, 0
// when the header is incomplete, -1 when malformed.
long parse_response_header(const uint8_t* data, size_t len, int* status,
                           size_t* content_length) {
  const uint8_t* end = nullptr;
  for (size_t i = 3; i < len; ++i) {
    if (data[i] == '\n' && data[i - 1] == '\r' && data[i - 2] == '\n' &&
        data[i - 3] == '\r') {
      end = data + i + 1;
      break;
    }
  }
  if (!end) return 0;
  size_t hlen = static_cast<size_t>(end - data);
  if (hlen < 12 || std::memcmp(data, "HTTP/1.", 7) != 0) return -1;
  *status = (data[9] - '0') * 100 + (data[10] - '0') * 10 + (data[11] - '0');
  *content_length = 0;
  static const char kCl[] = "content-length:";
  const size_t kn = sizeof(kCl) - 1;
  for (size_t i = 0; i + kn < hlen; ++i) {
    if ((i == 0 || data[i - 1] == '\n') && iequals_prefix(data + i, kCl, kn)) {
      size_t j = i + kn;
      while (j < hlen && data[j] == ' ') ++j;
      size_t v = 0;
      while (j < hlen && data[j] >= '0' && data[j] <= '9') {
        v = v * 10 + static_cast<size_t>(data[j] - '0');
        ++j;
      }
      *content_length = v;
      break;
    }
  }
  return static_cast<long>(hlen);
}

}  // namespace

std::unique_ptr<LoopbackClient> LoopbackClient::connect(uint16_t port,
                                                        int conns,
                                                        std::string* err) {
  std::unique_ptr<LoopbackClient> c(new LoopbackClient());
  c->port_ = port;
  c->epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  c->timer_fd_ = ::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC);
  if (c->epfd_ < 0 || c->timer_fd_ < 0) {
    *err = "epoll/timerfd: " + std::string(std::strerror(errno));
    return nullptr;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = kTimerTag;
  ::epoll_ctl(c->epfd_, EPOLL_CTL_ADD, c->timer_fd_, &ev);
  c->conns_.resize(static_cast<size_t>(conns));
  for (size_t i = 0; i < c->conns_.size(); ++i) {
    if (!c->open_conn(i, err)) return nullptr;
  }
  return c;
}

LoopbackClient::~LoopbackClient() {
  for (size_t i = 0; i < conns_.size(); ++i) close_conn(i);
  if (timer_fd_ >= 0) ::close(timer_fd_);
  if (epfd_ >= 0) ::close(epfd_);
}

bool LoopbackClient::open_conn(size_t i, std::string* err) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    *err = "socket: " + std::string(std::strerror(errno));
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    *err = "connect: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK) < 0) {
    *err = "fcntl: " + std::string(std::strerror(errno));
    ::close(fd);
    return false;
  }
  Conn& c = conns_[i];
  c = Conn{};
  c.fd = fd;
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u32 = static_cast<uint32_t>(i);
  ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  return true;
}

void LoopbackClient::close_conn(size_t i) {
  Conn& c = conns_[i];
  if (c.fd >= 0) {
    ::epoll_ctl(epfd_, EPOLL_CTL_DEL, c.fd, nullptr);
    ::close(c.fd);
    c.fd = -1;
  }
}

void LoopbackClient::set_want_out(size_t i, bool on) {
  Conn& c = conns_[i];
  if (c.want_out == on || c.fd < 0) return;
  c.want_out = on;
  epoll_event ev{};
  ev.events = EPOLLIN | (on ? EPOLLOUT : 0u);
  ev.data.u32 = static_cast<uint32_t>(i);
  ::epoll_ctl(epfd_, EPOLL_CTL_MOD, c.fd, &ev);
}

void LoopbackClient::issue(size_t i, const Inflight& f) {
  Conn& c = conns_[i];
  c.inflight.push_back(f);
  if (c.out_off == c.out.size()) {
    c.out.clear();
    c.out_off = 0;
  }
  c.out.append(f.req->bytes);
  flush(i);
}

void LoopbackClient::flush(size_t i) {
  Conn& c = conns_[i];
  while (c.fd >= 0 && c.out_off < c.out.size()) {
    ssize_t n = ::send(c.fd, c.out.data() + c.out_off, c.out.size() - c.out_off,
                       MSG_NOSIGNAL);
    if (n > 0) {
      c.out_off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      set_want_out(i, true);
      return;
    }
    return;  // hard error: the read side reports the loss
  }
  set_want_out(i, false);
}

void LoopbackClient::score(const Checker& check, const Reply& r, Tally* t,
                           bool* ok) {
  *ok = false;
  t->status_counts[r.status] += 1;
  if (r.status == 0) {
    ++t->no_response;
  } else if (r.status != 200) {
    ++t->bad_status;
  } else {
    t->http200_by_kind[r.req.req->kind] += 1;
    if (check(*r.req.req, r.status, r.body, r.len)) {
      ++t->ok;
      *ok = true;
    } else {
      ++t->wrong_body;
    }
  }
}

void LoopbackClient::fail_conn(size_t i, const OnReply& on_reply) {
  Conn& c = conns_[i];
  std::deque<Inflight> lost;
  lost.swap(c.inflight);
  close_conn(i);
  std::string err;
  open_conn(i, &err);  // a failed reconnect leaves fd = -1: sends are lost
  uint64_t now = sledge::now_ns();
  for (const Inflight& f : lost) {
    Reply r;
    r.req = f;
    r.done_ns = now;
    on_reply(i, r);
  }
}

void LoopbackClient::on_readable(size_t i, const OnReply& on_reply) {
  for (;;) {
    Conn& c = conns_[i];
    if (c.fd < 0) return;
    // Drop parsed replies; what stays is at most one partial reply.
    c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(c.in_off));
    c.in_off = 0;
    ssize_t n = ::recv(c.fd, scratch_.data(), scratch_.size(), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      fail_conn(i, on_reply);
      return;
    }
    c.in.insert(c.in.end(), scratch_.data(), scratch_.data() + n);
    // Deliver every complete reply in the buffer.
    for (;;) {
      Conn& cc = conns_[i];
      int status = 0;
      size_t clen = 0;
      long h = parse_response_header(cc.in.data() + cc.in_off,
                                     cc.in.size() - cc.in_off, &status, &clen);
      if (h < 0 || (h > 0 && cc.inflight.empty())) {
        fail_conn(i, on_reply);  // garbage, or a reply nobody asked for
        return;
      }
      if (h == 0) break;
      size_t total = static_cast<size_t>(h) + clen;
      if (cc.in.size() - cc.in_off < total) break;
      Reply r;
      r.req = cc.inflight.front();
      cc.inflight.pop_front();
      r.status = status;
      r.body = cc.in.data() + cc.in_off + static_cast<size_t>(h);
      r.len = clen;
      r.done_ns = sledge::now_ns();
      cc.in_off += total;
      on_reply(i, r);  // may issue more on this connection
    }
    if (static_cast<size_t>(n) < scratch_.size()) return;
  }
}

void LoopbackClient::poll_once(int timeout_ms, const OnReply& on_reply) {
  epoll_event evs[16];
  int n = ::epoll_wait(epfd_, evs, 16, timeout_ms);
  for (int k = 0; k < n; ++k) {
    uint32_t tag = evs[k].data.u32;
    if (tag == kTimerTag) {
      uint64_t expirations;
      while (::read(timer_fd_, &expirations, sizeof(expirations)) > 0) {
      }
      continue;
    }
    size_t i = tag;
    if (evs[k].events & EPOLLOUT) flush(i);
    if (evs[k].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) on_readable(i, on_reply);
  }
}

size_t LoopbackClient::outstanding() const {
  size_t n = 0;
  for (const Conn& c : conns_) n += c.inflight.size();
  return n;
}

size_t LoopbackClient::least_loaded() {
  size_t best = SIZE_MAX;
  size_t best_load = SIZE_MAX;
  for (size_t k = 0; k < conns_.size(); ++k) {
    size_t i = (rr_ + k) % conns_.size();
    if (conns_[i].fd >= 0 && conns_[i].inflight.size() < best_load) {
      best = i;
      best_load = conns_[i].inflight.size();
    }
  }
  rr_ = (rr_ + 1) % conns_.size();
  return best == SIZE_MAX ? 0 : best;
}

void LoopbackClient::drain(uint64_t deadline_ns, const OnReply& on_reply) {
  while (outstanding() > 0 && sledge::now_ns() < deadline_ns) {
    poll_once(10, on_reply);
  }
  for (size_t i = 0; i < conns_.size(); ++i) {
    if (!conns_[i].inflight.empty()) fail_conn(i, on_reply);
  }
}

ClosedResult LoopbackClient::closed_loop(uint64_t duration_ns,
                                         const NextRequest& next,
                                         const Checker& check,
                                         std::vector<ClientSpan>* spans,
                                         uint64_t max_requests) {
  ClosedResult res;
  const uint64_t t0 = sledge::now_ns();
  const uint64_t end = t0 + duration_ns;
  uint64_t last_done = t0;
  auto send_next = [&](size_t i) {
    Inflight f;
    f.req = &next();
    f.start_ns = sledge::now_ns();
    f.id = next_id_++;
    ++res.tally.attempted;
    issue(i, f);
  };
  OnReply on_reply = [&](size_t i, const Reply& r) {
    bool ok = false;
    score(check, r, &res.tally, &ok);
    if (ok) {
      res.latency_ms.push_back(static_cast<double>(r.done_ns - r.req.start_ns) /
                               1e6);
    }
    if (spans) {
      spans->push_back(ClientSpan{r.req.id, r.req.req->kind, r.req.start_ns,
                                  r.done_ns, r.status});
    }
    last_done = std::max(last_done, r.done_ns);
    if (r.done_ns < end &&
        (max_requests == 0 || res.tally.attempted < max_requests)) {
      send_next(i);
    }
  };
  for (size_t i = 0; i < conns_.size(); ++i) send_next(i);
  while (sledge::now_ns() < end && outstanding() > 0) poll_once(10, on_reply);
  drain(sledge::now_ns() + kDrainTimeoutNs, on_reply);
  res.duration_s = static_cast<double>(last_done - t0) / 1e9;
  return res;
}

OpenResult LoopbackClient::open_loop(double rate_rps, uint64_t duration_ns,
                                     const NextRequest& next,
                                     const Checker& check,
                                     size_t max_outstanding) {
  OpenResult res;
  const uint64_t total = static_cast<uint64_t>(
      static_cast<double>(duration_ns) / 1e9 * rate_rps);
  res.records.reserve(total);
  const uint64_t t0 = sledge::now_ns() + 1'000'000;  // first due in 1 ms
  OnReply on_reply = [&](size_t, const Reply& r) {
    bool ok = false;
    score(check, r, &res.tally, &ok);
    OpenRecord& rec = res.records[r.req.open_index];
    rec.done_ns = r.status == 0 ? 0 : r.done_ns;
    rec.ok = ok;
  };
  uint64_t i = 0;
  while (i < total && !res.aborted) {
    uint64_t now = sledge::now_ns();
    while (i < total && due_time_ns(t0, rate_rps, i) <= now) {
      if (outstanding() >= max_outstanding) {
        res.aborted = true;
        break;
      }
      Inflight f;
      f.req = &next();
      f.start_ns = due_time_ns(t0, rate_rps, i);
      f.open_index = res.records.size();
      f.id = next_id_++;
      OpenRecord rec;
      rec.due_ns = f.start_ns;
      rec.sent_ns = sledge::now_ns();
      res.records.push_back(rec);
      ++res.tally.attempted;
      issue(least_loaded(), f);
      ++i;
    }
    if (i >= total || res.aborted) break;
    // Sleep until the next due time on the timerfd (no slack), or poll
    // when it is closer than a wake-up costs.
    uint64_t due = due_time_ns(t0, rate_rps, i);
    now = sledge::now_ns();
    if (due > now + 20'000) {
      itimerspec its{};
      its.it_value.tv_sec = static_cast<time_t>(due / 1'000'000'000ull);
      its.it_value.tv_nsec = static_cast<long>(due % 1'000'000'000ull);
      ::timerfd_settime(timer_fd_, TFD_TIMER_ABSTIME, &its, nullptr);
      poll_once(-1, on_reply);
    } else {
      poll_once(0, on_reply);
    }
  }
  drain(sledge::now_ns() + kDrainTimeoutNs, on_reply);
  return res;
}

bool LoopbackClient::request_once(const WireRequest& req, uint64_t timeout_ns,
                                  int* status, std::vector<uint8_t>* body) {
  bool got = false;
  OnReply on_reply = [&](size_t, const Reply& r) {
    got = true;
    *status = r.status;
    body->assign(r.body, r.body + r.len);
  };
  Inflight f;
  f.req = &req;
  f.start_ns = sledge::now_ns();
  f.id = next_id_++;
  issue(0, f);
  drain(sledge::now_ns() + timeout_ns, on_reply);
  return got && *status != 0;
}

}  // namespace e2e
