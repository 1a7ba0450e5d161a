// The Sledge single-process serverless runtime (paper §3.3–§3.5, §4).
//
// N worker threads and nothing else: between dispatches a worker takes the
// next ready client connection from the front door's shared ready set,
// parses the HTTP request and instantiates its sandbox; the Distributor
// (a global Chase–Lev deque by default) hands sandboxes out across the
// workers; each worker runs a preemptive round-robin scheduler over
// user-level sandbox contexts with a configurable quantum (paper default
// 5 ms). Request routing is by path: POST /<module-name>.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/status.hpp"
#include "engine/engine.hpp"
#include "sledge/admission.hpp"
#include "sledge/dispatcher.hpp"  // RuntimeConfig::dispatcher (shim)
#include "sledge/distributor.hpp"
#include "sledge/resource_pool.hpp"
#include "sledge/sandbox.hpp"

namespace sledge::runtime {

class Worker;
class FrontDoor;

// How sb_invoke / sb_invoke_stream payloads travel between parent and
// child sandboxes:
//   kCopy — request and response are copied through per-request heap
//           vectors (the PR 4 baseline; the network-shaped path).
//   kShm  — payloads ride pooled TransferBuffers: the parent writes its
//           request into a loaned buffer the child reads directly, and the
//           child's response comes back in the same buffer (CWASI-style
//           zero-copy for co-located function-to-function calls).
enum class InvokeDataplane : uint8_t { kCopy, kShm };

const char* to_string(InvokeDataplane d);

// Per-worker scheduling over one FIFO run queue (paper §3.4). The two
// policies differ only in whether the quantum timer may fire:
//   kRoundRobin          — the paper's default: the timer is armed, and a
//                          preempted sandbox rotates to the queue's tail.
//   kFifoRunToCompletion — admission order, no preemption ever: a
//                          dispatched sandbox keeps the core until it
//                          completes, blocks, or traps.
enum class SchedPolicy : uint8_t {
  kRoundRobin = 0,
  kFifoRunToCompletion = 1,
};

const char* to_string(SchedPolicy p);

struct RuntimeConfig {
  uint16_t port = 0;  // 0 = pick a free port (see Runtime::bound_port)
  int workers = 3;
  uint64_t quantum_us = 5000;  // paper's 5 ms time slice
  // How admitted sandboxes are handed out across workers (the §3.4 queue
  // ablation; the Distributor serves all three).
  DistPolicy policy = DistPolicy::kWorkStealing;
  // Not settable: the end-to-end benchmark still names it (dispatcher.hpp).
  static constexpr DispatchPolicy dispatcher = DispatchPolicy::kWorkStealing;
  // Per-worker scheduling over the local run queue (the cross-worker
  // handoff above stays as configured by `policy`). It alone arms the
  // quantum timer; kFifoRunToCompletion never preempts.
  SchedPolicy sched = SchedPolicy::kRoundRobin;
  // Tier and bounds strategy of every module. The runtime serves the AoT
  // tiers only: register_module refuses an interpreter tier.
  engine::WasmModule::Config engine;
  // Startup tier for sandbox instantiation: cold = fresh memory and stack
  // per request, returned to the OS at teardown (the cold-start ablation),
  // pooled = recycled zeroed memory and stack off the SandboxResourcePool.
  InstantiationMode instantiation = InstantiationMode::kPooled;

  // ---- Deadline enforcement & overload defaults (0 = unlimited) ----
  // Per-request CPU budget across preemptions; over-budget sandboxes are
  // killed and answered with 504. Needs a preemptive `sched` mid-run.
  uint64_t execution_budget_ns = 0;
  // Wall-clock deadline measured from admission (also covers time spent
  // queued or cooperatively blocked).
  uint64_t deadline_ns = 0;
  // Admission control: when > 0, new requests are shed with 503 once this
  // many sandboxes are in flight (queued + running + blocked).
  int64_t max_pending = 0;
  // Admission policy: kQueueDepth sheds purely on the cap above;
  // kExpectedSlack adds the predicted-slack gate (503/504-early from live
  // per-module p99s) and per-tenant weighted fair shares of max_pending.
  AdmissionPolicy admission = AdmissionPolicy::kQueueDepth;
  // stop() drains in-flight sandboxes for at most this long before
  // abandoning them.
  uint64_t drain_grace_ns = 2'000'000'000;

  // ---- Async host I/O (sb_connect/sb_send/sb_recv/sb_invoke) ----
  // Per-sandbox cap on concurrently open outbound sockets (tenant
  // isolation: one function cannot exhaust the process fd table).
  int max_sandbox_fds = 8;
  // Maximum sb_invoke chain depth (top-level request = depth 0); bounds
  // fan-out loops and recursive self-invocation.
  int max_invoke_depth = 4;
  // Inter-function payload path: zero-copy pooled transfer buffers (kShm,
  // default) or the per-request vector copies of the baseline (kCopy).
  InvokeDataplane invoke_dataplane = InvokeDataplane::kShm;

  // ---- Observability plane ----
  // Serve GET /admin/stats (JSON) and GET /admin/metrics (Prometheus text)
  // on the worker holding the connection, off lock-free/briefly-locked
  // snapshots.
  bool admin_endpoint = true;
  // Structured access log: one JSON line per completed function request
  // (module, status, bytes, phase breakdown, worker id, dispatch/preempt
  // counts). Empty = disabled. Workers buffer lines and flush off the hot
  // path, so the log is rate-safe under load.
  std::string access_log_path;
};

// Per-module overrides for the RuntimeConfig-wide limits (0 = inherit).
struct ModuleLimits {
  uint64_t execution_budget_ns = 0;
  uint64_t deadline_ns = 0;
  // Weighted fair share of the admission window (admission = slack only);
  // 0 inherits the default weight of 1.
  uint32_t tenant_weight = 0;
};

struct ModuleStats {
  std::mutex mu;
  uint64_t requests = 0;
  uint64_t failures = 0;
  uint64_t kills = 0;  // deadline/budget terminations (504s)
  uint64_t shed = 0;   // admission 503s (depth / fair share / queue slack)
  uint64_t shed_deadline = 0;  // admission 504-earlys (unmeetable deadline)
  uint64_t preemptions = 0;       // quantum expiries across all requests
  uint64_t response_bytes = 0;    // HTTP bytes written (incl. headers)
  // Inter-function dataplane: children of this module placed on their
  // parent's worker (locality hint honored at inject), and children whose
  // request rode a zero-copy transfer buffer instead of a heap copy.
  uint64_t invoke_local = 0;
  uint64_t invoke_zerocopy = 0;
  LatencyHistogram end_to_end;  // sandbox creation -> completion
  LatencyHistogram startup;     // sandbox allocation cost (all requests)
  // Startup-tier split of `startup`: warm starts (every resource off a
  // pool free list) and starts that paid at least one fresh allocation.
  LatencyHistogram startup_pooled;
  LatencyHistogram startup_cold;
  // Phase breakdown (paper §5's latency splits, live instead of post-hoc):
  // admission->first-dispatch wait, CPU consumed across slices, and
  // response flush (completion -> last byte handed to the kernel).
  LatencyHistogram queue_wait;
  LatencyHistogram exec_cpu;
  LatencyHistogram response_write;
  // Wall time spent blocked on I/O wake conditions (outbound sockets,
  // sleeps, child invocations) — the overlap the event loop buys.
  LatencyHistogram io_wait;
  // sb_invoke child hand-off: admission (parent hostcall) -> first dispatch
  // on a worker. The latency the locality hint exists to shrink.
  LatencyHistogram invoke_handoff;
  // Sliding-window queue_wait/exec_cpu p99 predictor feeding expected-slack
  // admission (record() under `mu`; reads are lock-free).
  SlackPredictor predictor;
};

struct LoadedModule {
  std::string name;
  engine::WasmModule module;
  ModuleLimits limits;
  ModuleStats stats;
  // In-flight slots this module holds (admitted, not yet retired) — the
  // fair-share accounting input. Touched by every worker.
  std::atomic<int64_t> inflight{0};
};

class Runtime : public InvokeBroker {
 public:
  explicit Runtime(RuntimeConfig config);
  ~Runtime() override;

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  // Heavyweight module registration (decode/validate/AoT-compile/dlopen);
  // never on the request path. Optional per-module limit overrides
  // (ModuleLimits fields left 0 inherit the RuntimeConfig). Fails when
  // `config().engine.tier` is an interpreter tier: those allocate inside
  // guest code, where the quantum timer may preempt.
  //
  // Before start(), registration returns once the module's AoT compiler is
  // forked, so the compilers of all modules run side by side (at most
  // hardware_concurrency() at once: past that, the oldest is reaped
  // first). Decode, validation and import errors are still reported here;
  // a module that does not compile makes start() fail with its name.
  // After start(), registration compiles and loads in full before
  // returning.
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes);
  Status register_module(const std::string& name,
                         const std::vector<uint8_t>& wasm_bytes,
                         const ModuleLimits& limits);

  // Reaps every pending compile, then opens the front door and starts the
  // worker threads. Modules can still be registered afterwards, but
  // typically are not (the paper loads modules at startup).
  Status start();
  void stop();

  uint16_t bound_port() const { return bound_port_; }
  // Reaps pending compiles first, so a module registered before start() is
  // found once it has loaded.
  LoadedModule* find_module(const std::string& name);
  // Replaces a registered module's limit overrides (deadline, budget,
  // tenant weight). Quiescent-use only: callers must ensure no request for
  // the module is in flight (tests warm the slack predictor under one set
  // of limits, then tighten the deadline).
  Status update_module_limits(const std::string& name,
                              const ModuleLimits& limits);

  // True when sb_invoke payloads ride pooled transfer buffers.
  bool invoke_shm() const {
    return config_.invoke_dataplane == InvokeDataplane::kShm;
  }

  const RuntimeConfig& config() const { return config_; }
  Distributor& distributor() { return distributor_; }
  FrontDoor& front_door() { return *front_door_; }
  bool running() const { return running_.load(std::memory_order_acquire); }
  // True while stop() is letting in-flight sandboxes finish; the front
  // door sheds new requests with 503.
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  // ---- Async host I/O (InvokeBroker) ----
  // sb_invoke: admits a child sandbox of module `name` through the normal
  // dispatch path (depth/limit checks happen in the hostcall). Called from
  // worker threads.
  bool invoke_child(Sandbox* parent, const std::string& name,
                    std::vector<uint8_t> request,
                    std::shared_ptr<InvokeJoin> join, int32_t* err) override;
  // sb_invoke_stream: admits a child that inherits the parent's response
  // channel (HTTP connection or upstream join) instead of rendezvousing —
  // pipelined chains pay one hand-off per stage, not a join per stage.
  bool invoke_stream_child(Sandbox* parent, const std::string& name,
                           std::vector<uint8_t> request,
                           std::shared_ptr<TransferLoan> loan, size_t req_len,
                           int32_t* err) override;
  // Pings one worker's event loop: bound work, child completion, or stop.
  // Out-of-range index = no-op.
  void notify_worker(int index);
  // The wake rule after placing a sandbox (`bound` = the worker a placement
  // policy bound it to, -1 = any worker may fetch it): wake the bound
  // worker unless it is the placer; for unbound work, wake one idle worker
  // only when the placer will not fetch it next (it is busy, or older work
  // is queued ahead). Never a broadcast.
  void wake_for(int bound, int placer, bool placer_busy);

  // Worker -> runtime: per-module latency/failure/kill accounting. Also
  // retires the sandbox from the in-flight count.
  void record_completion(Sandbox* sb, SandboxState final_state);
  // Worker -> runtime: response flush finished for a request of `mod`
  // (`write_ns` = completion -> last byte accepted by the kernel).
  void record_response_write(LoadedModule* mod, uint64_t write_ns,
                             size_t bytes);

  // ---- Structured access log (one JSON line per function request) ----
  bool access_log_enabled() const { return access_log_fd_ >= 0; }
  // Appends a pre-formatted block of lines (workers buffer and flush off
  // the hot path; a single O_APPEND write keeps lines whole).
  void access_log_write(const std::string& block);

  // ---- Admission control ----
  // The full admit decision for one request of `mod` (global depth, fair
  // share, expected slack). Called on worker threads (front door and
  // sb_invoke children).
  AdmitVerdict admission_check(const LoadedModule* mod) const;
  const AdmissionController& admission() const { return admission_; }
  // Sum of tenant weights over registered modules (fair-share denominator).
  uint64_t total_weight() const {
    return total_weight_.load(std::memory_order_acquire);
  }

  // ---- In-flight accounting (admission control + graceful drain) ----
  void note_admitted(LoadedModule* mod) {
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    if (mod) mod->inflight.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_retired(LoadedModule* mod) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
    if (mod) mod->inflight.fetch_sub(1, std::memory_order_acq_rel);
  }
  void note_shed(LoadedModule* mod) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    if (mod) {
      std::lock_guard<std::mutex> lock(mod->stats.mu);
      ++mod->stats.shed;
    }
  }
  // 504-early: deadline unmeetable per the predictor; no sandbox was built.
  void note_shed_deadline(LoadedModule* mod) {
    shed_deadline_.fetch_add(1, std::memory_order_relaxed);
    if (mod) {
      std::lock_guard<std::mutex> lock(mod->stats.mu);
      ++mod->stats.shed_deadline;
    }
  }
  void note_write_queued() {
    pending_writes_.fetch_add(1, std::memory_order_acq_rel);
  }
  void note_write_done() {
    pending_writes_.fetch_sub(1, std::memory_order_acq_rel);
  }
  int64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }
  bool overloaded() const {
    return config_.max_pending > 0 && inflight() >= config_.max_pending;
  }

  // Aggregate counters (summed over workers on demand).
  struct Totals {
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t killed = 0;   // deadline/budget terminations (504)
    uint64_t drained = 0;  // abandoned at shutdown after the grace period
    uint64_t shed = 0;     // rejected with 503 (overload or draining)
    uint64_t shed_deadline = 0;  // rejected 504-early (slack admission)
    uint64_t preemptions = 0;
    uint64_t steals = 0;
    uint64_t pool_hits = 0;    // warm starts (all resources pooled)
    uint64_t pool_misses = 0;  // cold starts
    uint64_t blocked = 0;      // sandboxes parked on an I/O wake condition
    uint64_t woken = 0;        // wakes delivered by worker event loops
    uint64_t invokes = 0;      // child sandboxes admitted via sb_invoke
    uint64_t accepted = 0;       // connections accepted
    uint64_t accept_errors = 0;  // failed accepts incl. EMFILE sheds
  };
  Totals totals() const;

  // ---- Live stats snapshots (the /admin observability plane) ----
  //
  // Consistency model: worker counters are lock-free atomic reads; module
  // histograms are digested under that module's mutex one module at a time
  // (no global pause, so counters from different modules may be skewed by
  // in-flight requests — each counter is individually monotone).
  struct ModuleSnapshot {
    std::string name;
    uint64_t requests = 0;
    uint64_t failures = 0;
    uint64_t kills = 0;
    uint64_t shed = 0;
    uint64_t shed_deadline = 0;
    uint64_t preemptions = 0;
    uint64_t response_bytes = 0;
    uint64_t invoke_local = 0;
    uint64_t invoke_zerocopy = 0;
    int64_t inflight = 0;
    uint32_t tenant_weight = 1;
    // Live predictor state (what the admission gate sees).
    uint64_t predicted_queue_p99_ns = 0;
    uint64_t predicted_exec_p99_ns = 0;
    LatencyHistogram::Summary end_to_end;
    LatencyHistogram::Summary startup;
    LatencyHistogram::Summary startup_pooled;
    LatencyHistogram::Summary startup_cold;
    LatencyHistogram::Summary queue_wait;
    LatencyHistogram::Summary exec_cpu;
    LatencyHistogram::Summary response_write;
    LatencyHistogram::Summary io_wait;
    LatencyHistogram::Summary invoke_handoff;
  };
  struct WorkerSnapshot {
    int id = 0;
    uint64_t dispatches = 0;
    uint64_t preemptions = 0;
    uint64_t steals = 0;
    uint64_t completed = 0;
    uint64_t failed = 0;
    uint64_t killed = 0;
    uint64_t blocked = 0;
    uint64_t woken = 0;
  };
  // The front door's row (one, id 0).
  struct ListenerSnapshot {
    int id = 0;
    uint64_t accepted = 0;
    uint64_t accept_errors = 0;
    int64_t open_conns = 0;    // open, no admitted request in flight
    int64_t loaned_conns = 0;  // a sandbox holds the connection's request
  };
  struct StatsSnapshot {
    uint64_t uptime_ns = 0;
    int64_t inflight = 0;
    Totals totals;
    // Process-wide resource-pool counters.
    SandboxResourcePool::Counters pool;
    std::vector<ListenerSnapshot> listeners;
    std::vector<WorkerSnapshot> workers;
    std::vector<ModuleSnapshot> modules;
  };
  StatsSnapshot snapshot() const;

  // JSON (`GET /admin/stats`), Prometheus (`GET /admin/metrics`) and
  // shutdown-report renderings of snapshot(); all three render every row of
  // the one metrics table (sledge/metrics.hpp).
  std::string stats_json() const;
  std::string stats_prometheus() const;
  std::string stats_report() const;

 private:
  friend class Worker;

  // A module registered before start() whose compiler may still run.
  struct PendingModule {
    std::string name;
    ModuleLimits limits;
    engine::WasmModule::PendingLoad load;
  };
  // Moves a loaded module into the registry.
  void add_module(const std::string& name, engine::WasmModule module,
                  const ModuleLimits& limits);
  // Reaps the oldest pending compile; a failure is kept for start().
  void settle_oldest();
  void settle_all() {
    while (!pending_.empty()) settle_oldest();
  }

  // Shared front half of sb_invoke / sb_invoke_stream admission: resolves
  // the module and applies the same admission control as HTTP requests.
  // nullptr = shed (err set); counters already recorded.
  LoadedModule* admit_invoke_module(const std::string& name, int32_t* err);
  // Front-door and per-core rows of snapshot(), read from the live objects.
  std::vector<ListenerSnapshot> listener_snapshots() const;
  std::vector<WorkerSnapshot> worker_snapshots() const;
  // Budget/deadline clipping + I/O config + dataplane flags for an admitted
  // invoke child.
  void configure_invoke_child(Sandbox* parent, LoadedModule* mod,
                              Sandbox* child);
  // Back half: stats, locality-hinted dispatch, worker notification.
  void place_invoke_child(Sandbox* parent, LoadedModule* mod,
                          std::unique_ptr<Sandbox> child, bool zerocopy);

  RuntimeConfig config_;
  std::map<std::string, std::unique_ptr<LoadedModule>> modules_;
  // Oldest first; empty while running (see register_module).
  std::deque<PendingModule> pending_;
  std::string build_errors_;  // failed pending compiles, for start()
  Distributor distributor_;
  AdmissionController admission_;
  std::unique_ptr<FrontDoor> front_door_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int64_t> inflight_{0};       // admitted, not yet retired
  std::atomic<int64_t> pending_writes_{0}; // responses not yet flushed
  std::atomic<uint64_t> shed_{0};          // 503s (overload / draining)
  std::atomic<uint64_t> shed_deadline_{0}; // 504-earlys (slack admission)
  std::atomic<uint64_t> total_weight_{0};  // sum of module tenant weights
  std::atomic<uint64_t> invokes_{0};       // sb_invoke children admitted
  uint16_t bound_port_ = 0;
  uint64_t start_ns_ = 0;  // stamped by start(); uptime anchor
  int access_log_fd_ = -1;
  Totals retired_totals_;  // accumulated from workers at stop()
  // Last front-door/worker rows, kept at stop() for the shutdown report.
  std::vector<ListenerSnapshot> stopped_listeners_;
  std::vector<WorkerSnapshot> stopped_workers_;
};

// Runs a sandbox to completion on the calling thread (no server needed):
// the unit-test / churn-benchmark path. Handles cooperative blocking.
Status run_sandbox_inline(Sandbox* sandbox);

}  // namespace sledge::runtime
