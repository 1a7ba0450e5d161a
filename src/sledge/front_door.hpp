// The Sledge front door (paper §4's epoll listener), folded into the
// workers: one runtime-wide ready set — an epoll instance holding the
// listen socket and every client connection with EPOLLONESHOT — nested in
// each worker's IoLoop. There is no listener thread.
//
// One-holder rule: at any moment a connection has exactly one holder.
//   * A worker between dispatches takes the next ready fd from the set
//     (serve_one) and becomes its holder: it accepts, or reads and parses.
//   * A control-path answer (400/404/501, 503 drain/overload, 504-early,
//     /admin/*) is queued on that worker's response writer; an admitted
//     request becomes a sandbox and travels through the Distributor, taking
//     the connection with it (a sb_invoke_stream child inherits it too).
//   * Whoever writes a response's last byte serves the next request on the
//     connection (finish): bytes of it already buffered are parsed in
//     place; otherwise one EPOLL_CTL_MOD re-arms the fd in the set.
//   * Only the holder closes the connection.
// EPOLLONESHOT makes the kernel's ready list the hand-out queue: a ready
// connection is delivered to one worker and stays disarmed until its
// holder re-arms it, so no two threads ever touch one connection at once.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "common/status.hpp"
#include "http/http.hpp"

namespace sledge::runtime {

class Runtime;
class Worker;

class FrontDoor {
 public:
  explicit FrontDoor(Runtime* rt);
  // Closes every connection still open (the workers are gone by then).
  ~FrontDoor();

  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  // Binds and listens on loopback `port` (0 = kernel-picked) and creates
  // the ready set; the listen socket joins the set at open().
  Status init(uint16_t port, uint16_t* bound_port);
  // Arms the listen socket: connections are accepted from here on.
  void open();
  // The ready set's epoll fd, nested (EPOLLIN) in every worker's IoLoop.
  int ready_fd() const { return epoll_fd_; }

  // Takes at most one ready fd from the set and serves it on the calling
  // worker: accepts pending connections, or reads and acts on the next
  // request. Returns false when nothing was ready.
  bool serve_one(Worker* w);
  // The last byte of a response on `fd` was written (`keep_open`) or the
  // write failed / the response closes the connection (!keep_open). The
  // caller held the connection; it serves the next request or closes.
  void finish(int fd, bool keep_open, Worker* w);
  // Re-arms the listen socket once an EMFILE backoff has run out.
  void rearm_accept_if_due(uint64_t now);

  // ---- Live counters (the /admin observability plane) ----
  uint64_t accepted() const {
    return accepted_.load(std::memory_order_relaxed);
  }
  // Failed accepts: fd-pressure sheds (EMFILE/ENFILE accept-and-close via
  // the reserve fd) plus unexpected accept errno.
  uint64_t accept_errors() const {
    return accept_errors_.load(std::memory_order_relaxed);
  }
  int64_t open_conns() const {
    return open_.load(std::memory_order_relaxed);
  }
  // Connections whose admitted request a sandbox holds (until its
  // response is written); the rest are armed in the ready set or being
  // answered by the front door itself.
  int64_t loaned_conns() const {
    return loaned_.load(std::memory_order_relaxed);
  }

 private:
  struct Connection {
    int fd = -1;
    http::RequestParser parser;
    // Received bytes past the last complete request (pipelined successors);
    // parsed in place when that request's response is written.
    std::string pending;
    size_t pending_off = 0;
    bool loaned = false;  // a sandbox holds the current request
  };

  // Adds (EPOLL_CTL_ADD) or re-arms (EPOLL_CTL_MOD) `c` in the ready set;
  // the caller gives up `c` with it.
  void arm(Connection* c, int op);
  void accept_new();
  // EMFILE/ENFILE shed: close the reserve fd, accept-and-close one pending
  // connection, retake the reserve. False if no progress was possible.
  bool shed_one_accept();
  // Reads and parses until one request is complete (then acts on it), the
  // socket runs dry (re-arm) or the peer is gone (close).
  void serve(Connection* c, Worker* w);
  // Runs the parser over `n` bytes; *used is how many it consumed. Returns
  // 1 when a request is complete, 0 when all bytes went in, -1 on a
  // malformed request.
  int feed(Connection* c, const char* data, size_t n, size_t* used);
  // Acts on the parsed request: a control-path answer through the worker's
  // writer, or a sandbox through the Distributor. Either way the connection
  // moves on to a new holder, so `c` must not be touched afterwards.
  void act(Connection* c, Worker* w);
  void respond(Connection* c, Worker* w, int status, const char* reason,
               bool keep_alive, const char* extra = "",
               std::string body = {}, const char* content_type =
                                          "text/plain");
  void close(Connection* c);

  Runtime* rt_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  // Reserved dummy fd (EMFILE headroom): closed to free a slot, used to
  // accept-and-close under fd pressure, then reopened. Only the listen
  // socket's holder touches it.
  int reserve_fd_ = -1;
  // The listen socket's slot in the ready set (fd = listen_fd_; never in
  // conns_), so accepting follows the same one-holder rule.
  Connection listen_conn_;
  // 0 = accept armed or held; else the earliest ns the disarmed listen
  // socket may be re-armed after an unshedable EMFILE.
  std::atomic<uint64_t> accept_rearm_at_ns_{0};
  std::mutex mu_;  // guards conns_ (accept, finish lookup, close)
  std::unordered_map<int, std::unique_ptr<Connection>> conns_;
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> accept_errors_{0};
  std::atomic<int64_t> open_{0};
  std::atomic<int64_t> loaned_{0};
};

}  // namespace sledge::runtime
