// Host-function ABI between sandboxed Wasm code and the Sledge runtime.
//
// Modules import functions from the "env" namespace; the runtime resolves
// them against a HostRegistry at instantiation. Host functions receive a
// view of the sandbox's linear memory and a user pointer (the per-request
// serverless context). Pointer/length arguments coming from the sandbox are
// validated against the memory view — a bad pointer raises an
// out-of-bounds trap exactly like a bad load would.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "engine/trap.hpp"
#include "engine/value.hpp"
#include "wasm/types.hpp"

namespace sledge::engine {

// Bounds-checked view of a sandbox's linear memory handed to host functions.
struct MemView {
  uint8_t* base = nullptr;
  uint64_t size = 0;

  // Validates [ptr, ptr+len) and returns a raw pointer, or traps.
  //
  // Zero-length ranges: `ptr` must still lie within [0, size] — a len==0
  // call with ptr > size traps rather than fabricating an out-of-range
  // pointer. The returned pointer may be one-past-the-end (ptr == size);
  // callers never dereference it for an empty range, but must not assume it
  // points at mapped guard-free memory either.
  uint8_t* check_range(uint32_t ptr, uint32_t len) const {
    if (static_cast<uint64_t>(ptr) + len > size) {
      raise_trap(TrapCode::kOutOfBoundsMemory);
    }
    return base + ptr;
  }
};

// Engine->host call depth of one AoT instance: the number of host frames on
// top of its guest code (the interpreters keep none: they allocate inside
// guest code, so they are never preempted). The runtime's quantum handler
// reads it from a SIGALRM handler on the same thread and preempts only at
// 0, i.e. inside guest code; host code may hold a lock the scheduler takes
// next (malloc's, the Distributor's queue mutex). It rests at 1: outside
// guest code, the engine's own call wrapper included, everything is host
// code.
class HostDepth {
 public:
  bool in_host() const { return depth_ != 0; }
  // Top-level call, around guest code. A reset, not a decrement: a trap's
  // longjmp skips the Call destructors below it.
  void enter_guest() { set(0); }
  void leave_guest() { set(1); }

  // Brackets one engine->host call (a binding, or AoT memory.grow).
  class Call {
   public:
    explicit Call(HostDepth& d) : d_(d) { d_.set(d_.depth_ + 1); }
    ~Call() { d_.set(d_.depth_ - 1); }
    Call(const Call&) = delete;
    Call& operator=(const Call&) = delete;

   private:
    HostDepth& d_;
  };

 private:
  // The reader is a signal handler on this thread: keep the store where
  // the program order puts it.
  void set(int v) {
    std::atomic_signal_fence(std::memory_order_seq_cst);
    depth_ = v;
    std::atomic_signal_fence(std::memory_order_seq_cst);
  }
  int depth_ = 1;
};

struct HostCallCtx {
  MemView mem;
  void* user = nullptr;  // per-request context (e.g. ServerlessEnv)
};

// Host functions execute inside the caller's TrapScope: they may raise_trap.
// `args` has one Slot per declared parameter; the return Slot is ignored for
// void signatures.
using HostFunc = std::function<Slot(HostCallCtx&, const Slot* args)>;

struct HostBinding {
  wasm::FuncType type;
  HostFunc fn;
};

class HostRegistry {
 public:
  void register_fn(const std::string& module, const std::string& field,
                   wasm::FuncType type, HostFunc fn) {
    bindings_[module + "." + field] = {std::move(type), std::move(fn)};
  }

  const HostBinding* lookup(const std::string& module,
                            const std::string& field) const {
    auto it = bindings_.find(module + "." + field);
    return it == bindings_.end() ? nullptr : &it->second;
  }

  size_t size() const { return bindings_.size(); }

 private:
  std::map<std::string, HostBinding> bindings_;
};

// Error codes shared by the async host-I/O hostcalls (sb_connect /
// sb_send / sb_recv / sb_close / sb_invoke). Returned to the sandbox as
// negative i32 values; 0/positive is a byte count or descriptor.
enum SbIoError : int32_t {
  kSbErrUnsupported = -1,  // no scheduler hook installed (standalone run)
  kSbErrBadFd = -2,        // descriptor not in this sandbox's fd table
  kSbErrFdLimit = -3,      // per-sandbox open-fd cap reached
  kSbErrConnect = -4,      // resolve/connect failure
  kSbErrIo = -5,           // send/recv error (peer reset, ...)
  kSbErrNoModule = -6,     // sb_invoke: target module not registered
  kSbErrOverload = -7,     // sb_invoke: child admission shed (503 analogue)
  kSbErrDepth = -8,        // sb_invoke: invoke-chain depth cap (cycle guard)
  kSbErrChildFailed = -9,  // sb_invoke: child trapped / was killed
  kSbErrNoChannel = -10,   // sb_invoke_stream: caller has no response
                           // channel (conn or join) left to hand off
};

// The serverless request/response environment backing the standard "env"
// ABI (req_len / req_read / resp_write / ...). One per sandbox execution.
struct ServerlessEnv {
  std::vector<uint8_t> request;
  std::vector<uint8_t> response;

  // ---- Zero-copy invoke dataplane views ----
  //
  // When a sandbox is an invoke child on the shm dataplane, its request
  // bytes live in a pooled TransferBuffer rather than `request`
  // (`req_view`), and its response bytes append into the transfer buffer's
  // response region (`resp_sink`) so the parent reads them without a heap
  // hop. The sink spills into `response` on overflow — `resp_append` copies
  // the sink prefix across first, so byte order is always preserved and
  // the copy/shm dataplanes stay byte-identical.
  const uint8_t* req_view = nullptr;
  size_t req_view_len = 0;
  uint8_t* resp_sink = nullptr;
  size_t resp_sink_cap = 0;
  size_t resp_sink_len = 0;

  const uint8_t* req_data() const {
    return req_view ? req_view : request.data();
  }
  size_t req_size() const { return req_view ? req_view_len : request.size(); }
  size_t resp_size() const { return resp_sink_len + response.size(); }
  void resp_append(const void* p, size_t n) {
    if (resp_sink) {
      if (resp_sink_len + n <= resp_sink_cap) {
        std::memcpy(resp_sink + resp_sink_len, p, n);
        resp_sink_len += n;
        return;
      }
      // Overflow: move what the sink holds into the heap vector and retire
      // the sink for the rest of this response.
      response.insert(response.end(), resp_sink, resp_sink + resp_sink_len);
      resp_sink = nullptr;
      resp_sink_len = 0;
    }
    const uint8_t* bytes = static_cast<const uint8_t*>(p);
    response.insert(response.end(), bytes, bytes + n);
  }
  // Optional cooperative-yield hook installed by the Sledge scheduler so a
  // sandbox can block (e.g. env.sleep_ms) without holding its worker core.
  std::function<void(uint64_t ns)> sleep_hook;

  // ---- Async host-I/O hooks (sb_* hostcalls) ----
  //
  // Installed by the Sledge sandbox before entering Wasm; absent hooks make
  // the corresponding hostcall return kSbErrUnsupported. All descriptors are
  // sandbox-virtual (indices into a per-sandbox fd table), never raw OS fds.
  // Hooks may block cooperatively (yield the worker core) and may raise a
  // deadline trap on resume, so they must only be called inside a TrapScope.
  std::function<int32_t(const uint8_t* host, uint32_t host_len,
                        uint32_t port)>
      connect_hook;
  std::function<int32_t(int32_t fd, const uint8_t* data, uint32_t len)>
      send_hook;
  std::function<int32_t(int32_t fd, uint8_t* buf, uint32_t cap)> recv_hook;
  std::function<int32_t(int32_t fd)> close_hook;
  // sb_invoke: run another registered module on `req` and copy its response
  // into `resp` (truncated to `resp_cap`); returns bytes copied or an error.
  std::function<int32_t(const uint8_t* name, uint32_t name_len,
                        const uint8_t* req, uint32_t req_len, uint8_t* resp,
                        uint32_t resp_cap)>
      invoke_hook;
  // sb_invoke_stream: hand the caller's response channel (HTTP connection
  // or upstream InvokeJoin) to a child of `name` running on `req`, without
  // a stop-and-wait join. Returns 0 on hand-off or a negative SbIoError;
  // after success the caller's own response bytes are discarded.
  std::function<int32_t(const uint8_t* name, uint32_t name_len,
                        const uint8_t* req, uint32_t req_len)>
      invoke_stream_hook;
};

// Registers the standard Sledge serverless ABI plus libm-style math imports
// (exp/log/pow/...; see DESIGN.md). Host user pointer must be ServerlessEnv*.
void register_serverless_abi(HostRegistry& registry);

// The default registry shared by engines that don't need custom hosts.
const HostRegistry& default_host_registry();

}  // namespace sledge::engine
