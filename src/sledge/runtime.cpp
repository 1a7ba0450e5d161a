#include "sledge/runtime.hpp"

#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>
#include <utility>

#include "common/log.hpp"
#include "engine/host.hpp"
#include "sledge/front_door.hpp"
#include "sledge/metrics.hpp"
#include "sledge/worker.hpp"

namespace sledge::runtime {

const char* to_string(InvokeDataplane d) {
  switch (d) {
    case InvokeDataplane::kCopy: return "copy";
    case InvokeDataplane::kShm: return "shm";
  }
  return "?";
}

const char* to_string(SchedPolicy p) {
  switch (p) {
    case SchedPolicy::kRoundRobin: return "round_robin";
    case SchedPolicy::kFifoRunToCompletion: return "fifo";
  }
  return "?";
}

namespace {

// A hinted child only lands on the parent's worker when that worker's
// runnable backlog is at most this deep — beyond it, the chain would
// serialize behind unrelated work and global placement wins.
constexpr uint32_t kInvokeLocalitySlack = 2;

RuntimeConfig clamp_workers(RuntimeConfig config) {
  if (config.workers < 1) config.workers = 1;
  return config;
}

}  // namespace

// ---- Runtime ----------------------------------------------------------

Runtime::Runtime(RuntimeConfig config)
    : config_(clamp_workers(config)),
      distributor_(config_.policy, config_.workers),
      admission_(config.admission, config.max_pending) {}

Runtime::~Runtime() { stop(); }

Status Runtime::register_module(const std::string& name,
                                const std::vector<uint8_t>& wasm_bytes) {
  return register_module(name, wasm_bytes, ModuleLimits{});
}

Status Runtime::register_module(const std::string& name,
                                const std::vector<uint8_t>& wasm_bytes,
                                const ModuleLimits& limits) {
  // The interpreters allocate inside guest code, where a quantum tick may
  // switch away holding the allocator's lock.
  if (!engine::tier_needs_cc(config_.engine.tier)) {
    return Status::error("module '" + name + "': tier " +
                         engine::to_string(config_.engine.tier) +
                         " is not served (the runtime serves aot tiers only)");
  }
  if (modules_.count(name) ||
      std::any_of(pending_.begin(), pending_.end(),
                  [&](const PendingModule& p) { return p.name == name; })) {
    return Status::error("module '" + name + "' already registered");
  }
  if (running()) {
    // Workers may look the module up as soon as it is in the registry.
    Result<engine::WasmModule> mod =
        engine::WasmModule::load(wasm_bytes, config_.engine);
    if (!mod.ok()) {
      return Status::error("module '" + name + "': " + mod.error_message());
    }
    add_module(name, mod.take(), limits);
    return Status::ok();
  }
  // The compilers are separate processes, so the OS runs them side by side;
  // one per core keeps them from contending.
  const size_t max_compiles =
      std::max(1u, std::thread::hardware_concurrency());
  if (pending_.size() >= max_compiles) settle_oldest();
  Result<engine::WasmModule::PendingLoad> load =
      engine::WasmModule::begin_load(wasm_bytes, config_.engine);
  if (!load.ok()) {
    return Status::error("module '" + name + "': " + load.error_message());
  }
  pending_.push_back(PendingModule{name, limits, load.take()});
  return Status::ok();
}

void Runtime::add_module(const std::string& name, engine::WasmModule module,
                         const ModuleLimits& limits) {
  auto loaded = std::make_unique<LoadedModule>();
  loaded->name = name;
  loaded->module = std::move(module);
  loaded->limits = limits;
  total_weight_.fetch_add(limits.tenant_weight == 0 ? 1 : limits.tenant_weight,
                          std::memory_order_acq_rel);
  modules_[name] = std::move(loaded);
}

void Runtime::settle_oldest() {
  PendingModule p = std::move(pending_.front());
  pending_.pop_front();
  Result<engine::WasmModule> mod = std::move(p.load).finish();
  if (!mod.ok()) {
    if (!build_errors_.empty()) build_errors_ += "; ";
    build_errors_ += "module '" + p.name + "': " + mod.error_message();
    return;
  }
  add_module(p.name, mod.take(), p.limits);
}

LoadedModule* Runtime::find_module(const std::string& name) {
  if (!pending_.empty()) settle_all();
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.get();
}

Status Runtime::update_module_limits(const std::string& name,
                                     const ModuleLimits& limits) {
  LoadedModule* mod = find_module(name);
  if (!mod) return Status::error("module '" + name + "' not registered");
  uint64_t old_w = mod->limits.tenant_weight == 0 ? 1
                                                  : mod->limits.tenant_weight;
  uint64_t new_w = limits.tenant_weight == 0 ? 1 : limits.tenant_weight;
  mod->limits = limits;
  total_weight_.fetch_add(new_w - old_w, std::memory_order_acq_rel);
  return Status::ok();
}

Status Runtime::start() {
  if (running_.load()) return Status::error("already running");
  // Every module is loaded before any worker exists. A module that did not
  // build is left out of the registry, and start() reports it.
  settle_all();
  if (!build_errors_.empty()) {
    return Status::error(std::exchange(build_errors_, std::string()));
  }
  stopped_listeners_.clear();
  stopped_workers_.clear();
  front_door_ = std::make_unique<FrontDoor>(this);
  Status s = front_door_->init(config_.port, &bound_port_);
  if (!s.is_ok()) {
    front_door_.reset();
    return s;
  }

  if (!config_.access_log_path.empty()) {
    access_log_fd_ = ::open(config_.access_log_path.c_str(),
                            O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (access_log_fd_ < 0) {
      front_door_.reset();
      return Status::error("access log open failed: " +
                           config_.access_log_path);
    }
  }

  start_ns_ = now_ns();
  running_.store(true, std::memory_order_release);
  // Every worker exists before any starts (a worker may wake another as
  // soon as it runs), and the listen socket is armed only once they all
  // run.
  for (int i = 0; i < config_.workers; ++i) {
    workers_.push_back(std::make_unique<Worker>(this, i));
  }
  for (auto& w : workers_) {
    s = w->start();
    if (!s.is_ok()) {
      SLEDGE_LOG_ERROR("worker start failed: %s", s.message().c_str());
      stop();
      return s;
    }
  }
  front_door_->open();
  SLEDGE_LOG_INFO(
      "sledge runtime on port %u (%d workers, quantum %lu us, "
      "%s, sched=%s, admission=%s, instantiation=%s, dataplane=%s)",
      bound_port_, config_.workers,
      static_cast<unsigned long>(config_.quantum_us),
      to_string(config_.policy),
      to_string(config_.sched), to_string(config_.admission),
      to_string(config_.instantiation), to_string(config_.invoke_dataplane));
  return Status::ok();
}

AdmitVerdict Runtime::admission_check(const LoadedModule* mod) const {
  AdmitRequest in;
  in.inflight = inflight();
  if (mod) {
    in.module_inflight = mod->inflight.load(std::memory_order_acquire);
    in.tenant_weight =
        mod->limits.tenant_weight == 0 ? 1 : mod->limits.tenant_weight;
    in.deadline_rel_ns = mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                                      : config_.deadline_ns;
    in.queue_wait_p99_ns = mod->stats.predictor.queue_wait_p99_ns();
    in.exec_cpu_p99_ns = mod->stats.predictor.exec_cpu_p99_ns();
    in.predictor_ready = mod->stats.predictor.ready();
  }
  in.total_weight = total_weight();
  return admission_.check(in);
}

void Runtime::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  // Graceful drain: stop admitting (the front door sheds with 503 while
  // draining) and give in-flight sandboxes and unflushed responses a
  // bounded grace period to finish. Runaway sandboxes that outlive the
  // grace period are abandoned and counted as drained by their workers.
  if (!draining_.exchange(true)) {
    uint64_t deadline = now_ns() + config_.drain_grace_ns;
    while (now_ns() < deadline &&
           (inflight_.load(std::memory_order_acquire) > 0 ||
            pending_writes_.load(std::memory_order_acquire) > 0)) {
      ::usleep(500);
    }
  }
  if (!running_.exchange(false)) return;
  for (auto& w : workers_) w->notify();  // interrupt idle epoll sleeps
  for (auto& w : workers_) w->join();
  // A worker may place a sandbox for another one that had already exited.
  // Drain them here — the same bookkeeping as a worker abandon — so
  // shutdown leaks neither sandboxes nor their connections.
  Sandbox* orphan = nullptr;
  for (int i = 0; i < config_.workers; ++i) {
    while (distributor_.fetch(i, &orphan)) {
      retired_totals_.drained++;
      note_retired(static_cast<LoadedModule*>(orphan->user_tag));
      if (const auto& join = orphan->result_join()) {
        join->status = engine::kSbErrChildFailed;
        join->done.store(true, std::memory_order_release);
      }
      if (orphan->conn_fd() >= 0) {
        front_door_->finish(orphan->conn_fd(), /*keep_open=*/false, nullptr);
      }
      delete orphan;
    }
  }
  // Fold worker counters into the retired totals before tearing down.
  for (const auto& w : workers_) {
    retired_totals_.completed +=
        w->stats().completed.load(std::memory_order_relaxed);
    retired_totals_.failed += w->stats().failed.load(std::memory_order_relaxed);
    retired_totals_.killed += w->stats().killed.load(std::memory_order_relaxed);
    retired_totals_.drained +=
        w->stats().drained.load(std::memory_order_relaxed);
    retired_totals_.preemptions +=
        w->stats().preemptions.load(std::memory_order_relaxed);
    retired_totals_.steals += w->stats().steals.load(std::memory_order_relaxed);
    retired_totals_.pool_hits +=
        w->stats().pool_hits.load(std::memory_order_relaxed);
    retired_totals_.pool_misses +=
        w->stats().pool_misses.load(std::memory_order_relaxed);
    retired_totals_.blocked +=
        w->stats().blocked.load(std::memory_order_relaxed);
    retired_totals_.woken += w->stats().woken.load(std::memory_order_relaxed);
  }
  if (front_door_) {
    retired_totals_.accepted += front_door_->accepted();
    retired_totals_.accept_errors += front_door_->accept_errors();
  }
  stopped_listeners_ = listener_snapshots();
  stopped_workers_ = worker_snapshots();
  workers_.clear();
  front_door_.reset();  // closes the connections nobody holds
  if (access_log_fd_ >= 0) {
    ::close(access_log_fd_);  // workers flushed their buffers before join
    access_log_fd_ = -1;
  }
}

LoadedModule* Runtime::admit_invoke_module(const std::string& name,
                                           int32_t* err) {
  LoadedModule* mod = find_module(name);
  if (!mod) {
    *err = engine::kSbErrNoModule;
    return nullptr;
  }
  // Children obey the same admission control as HTTP requests: a
  // draining or saturated runtime sheds the invoke instead of queueing it.
  if (!running() || draining()) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return nullptr;
  }
  switch (admission_check(mod)) {
    case AdmitVerdict::kAdmit:
      break;
    case AdmitVerdict::kShedOverload:
      note_shed(mod);
      *err = engine::kSbErrOverload;
      return nullptr;
    case AdmitVerdict::kShedDeadline:
      // The child's deadline is unmeetable per the predictor; the parent
      // sees the same overload error either way (no HTTP status here).
      note_shed_deadline(mod);
      *err = engine::kSbErrOverload;
      return nullptr;
  }
  return mod;
}

void Runtime::configure_invoke_child(Sandbox* parent, LoadedModule* mod,
                                     Sandbox* child) {
  // The child gets its module's budget, but its wall deadline is clipped to
  // the parent's: when a blocked parent is killed at its deadline (504),
  // the child dies at the same wall instant on its own — no cross-thread
  // kill pointer that could dangle.
  uint64_t budget = mod->limits.execution_budget_ns != 0
                        ? mod->limits.execution_budget_ns
                        : config_.execution_budget_ns;
  uint64_t deadline_rel =
      mod->limits.deadline_ns != 0 ? mod->limits.deadline_ns
                                   : config_.deadline_ns;
  uint64_t deadline_abs =
      deadline_rel != 0 ? child->created_ns() + deadline_rel : 0;
  if (parent->deadline_at_ns() != 0 &&
      (deadline_abs == 0 || parent->deadline_at_ns() < deadline_abs)) {
    deadline_abs = parent->deadline_at_ns();
  }
  child->set_limits(budget, deadline_abs);
  child->set_io_config(this, static_cast<uint32_t>(config_.max_sandbox_fds),
                       parent->invoke_depth() + 1,
                       static_cast<uint32_t>(config_.max_invoke_depth));
  child->set_invoke_shm(invoke_shm());
  child->mark_invoke_child();
}

void Runtime::place_invoke_child(Sandbox* parent, LoadedModule* mod,
                                 std::unique_ptr<Sandbox> child,
                                 bool zerocopy) {
  // Locality: prefer the parent's worker when its runnable backlog has
  // slack — the child starts on warm caches and the join wake is zero-hop.
  // Every DistPolicy honours the hint, so invoke_local counts placements
  // actually requested.
  int hint = -1;
  const int pw = parent->owner_worker();
  if (pw >= 0 && pw < static_cast<int>(workers_.size()) &&
      workers_[pw]->backlog_hint() <= kInvokeLocalitySlack) {
    hint = pw;
  }
  {
    std::lock_guard<std::mutex> lock(mod->stats.mu);
    mod->stats.requests++;
    mod->stats.startup.record(child->startup_cost_ns());
    (child->pooled() ? mod->stats.startup_pooled : mod->stats.startup_cold)
        .record(child->startup_cost_ns());
    if (hint >= 0) ++mod->stats.invoke_local;
    if (zerocopy) ++mod->stats.invoke_zerocopy;
  }
  invokes_.fetch_add(1, std::memory_order_relaxed);
  note_admitted(mod);
  child->set_placer(parent->owner_worker());
  int bound = distributor_.inject(child.release(), hint);
  // The parent is still running on its worker, so unbound children may
  // need an idle worker.
  wake_for(bound, parent->owner_worker(), /*placer_busy=*/true);
}

bool Runtime::invoke_child(Sandbox* parent, const std::string& name,
                           std::vector<uint8_t> request,
                           std::shared_ptr<InvokeJoin> join, int32_t* err) {
  LoadedModule* mod = admit_invoke_module(name, err);
  if (!mod) return false;
  // Zero-copy dataplane: the parent staged its request in a transfer
  // buffer — the child reads it in place and writes its response into the
  // buffer's response region, so neither payload crosses a heap copy.
  //
  // Copy dataplane: heap ownership does not cross sandbox boundaries — the
  // child gets its own copy of the request bytes, as any hand-off through
  // a socket, pipe, or process boundary would (these boundary copies are
  // precisely what the transfer-buffer plane eliminates).
  const bool zerocopy = join && join->xfer != nullptr;
  std::unique_ptr<Sandbox> child = Sandbox::create(
      &mod->module,
      zerocopy ? std::vector<uint8_t>() : std::vector<uint8_t>(request), -1,
      false, config_.instantiation);
  if (!child) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return false;
  }
  child->user_tag = mod;
  if (zerocopy) {
    child->adopt_request_view(join->xfer, join->xfer->get()->len);
  }
  child->set_result_join(std::move(join));
  if (zerocopy) child->wire_result_sink();
  configure_invoke_child(parent, mod, child.get());
  place_invoke_child(parent, mod, std::move(child), zerocopy);
  return true;
}

bool Runtime::invoke_stream_child(Sandbox* parent, const std::string& name,
                                  std::vector<uint8_t> request,
                                  std::shared_ptr<TransferLoan> loan,
                                  size_t req_len, int32_t* err) {
  LoadedModule* mod = admit_invoke_module(name, err);
  if (!mod) return false;
  // Same boundary semantics as invoke_child: the copy dataplane hands the
  // child its own copy of the request bytes.
  const bool zerocopy = loan != nullptr;
  std::unique_ptr<Sandbox> child = Sandbox::create(
      &mod->module,
      zerocopy ? std::vector<uint8_t>() : std::vector<uint8_t>(request), -1,
      false, config_.instantiation);
  if (!child) {
    note_shed(mod);
    *err = engine::kSbErrOverload;
    return false;
  }
  child->user_tag = mod;
  if (zerocopy) child->adopt_request_view(std::move(loan), req_len);
  configure_invoke_child(parent, mod, child.get());
  // Channel transfer happens last — after every failure path above — so a
  // shed invoke leaves the parent still owning its response channel and
  // able to answer the error itself. The child inherits either the
  // parent's HTTP connection (top-level parent) or the parent's upstream
  // join (parent is itself an invoke child); the hostcall already refused
  // parents with neither.
  if (parent->conn_fd() >= 0) {
    child->adopt_connection(parent->conn_fd(), parent->keep_alive());
    parent->release_connection();
  } else {
    child->set_result_join(parent->take_result_join());
    child->wire_result_sink();
  }
  place_invoke_child(parent, mod, std::move(child), zerocopy);
  return true;
}

void Runtime::notify_worker(int index) {
  if (index >= 0 && index < static_cast<int>(workers_.size())) {
    workers_[index]->notify();
  }
}

void Runtime::wake_for(int bound, int placer, bool placer_busy) {
  if (bound >= 0) {
    if (bound != placer) notify_worker(bound);
    return;
  }
  if (!placer_busy && distributor_.backlog_estimate() <= 1) return;
  // Pairs with the worker's idle flag: it publishes idle, then re-checks
  // the backlog before sleeping.
  std::atomic_thread_fence(std::memory_order_seq_cst);
  for (auto& w : workers_) {
    if (w->idle()) {
      w->notify();
      return;
    }
  }
}

void Runtime::record_completion(Sandbox* sb, SandboxState final_state) {
  auto* mod = static_cast<LoadedModule*>(sb->user_tag);
  note_retired(mod);
  if (!mod) return;
  std::lock_guard<std::mutex> lock(mod->stats.mu);
  if (final_state == SandboxState::kKilled) {
    mod->stats.kills++;
  } else if (final_state != SandboxState::kComplete) {
    mod->stats.failures++;
  }
  mod->stats.end_to_end.record(sb->done_ns() - sb->created_ns());
  mod->stats.queue_wait.record(sb->queue_wait_ns());
  mod->stats.exec_cpu.record(sb->cpu_ns());
  // Feed the slack predictor (killed requests included: their truncated
  // exec and full queue_wait are the congestion signal the gate wants).
  mod->stats.predictor.record(sb->queue_wait_ns(), sb->cpu_ns());
  if (sb->io_wait_ns() != 0) mod->stats.io_wait.record(sb->io_wait_ns());
  mod->stats.preemptions += sb->preempt_count();
  if (sb->is_invoke_child() && sb->first_run_ns() != 0) {
    // Admission (parent hostcall) -> first dispatch: the hand-off latency
    // the locality hint exists to shrink.
    mod->stats.invoke_handoff.record(sb->first_run_ns() - sb->created_ns());
  }
}

void Runtime::record_response_write(LoadedModule* mod, uint64_t write_ns,
                                    size_t bytes) {
  if (!mod) return;
  std::lock_guard<std::mutex> lock(mod->stats.mu);
  mod->stats.response_write.record(write_ns);
  mod->stats.response_bytes += bytes;
}

void Runtime::access_log_write(const std::string& block) {
  if (access_log_fd_ < 0 || block.empty()) return;
  // O_APPEND: one write per flushed block keeps lines whole without a lock.
  [[maybe_unused]] ssize_t n =
      ::write(access_log_fd_, block.data(), block.size());
}

Runtime::Totals Runtime::totals() const {
  Totals t = retired_totals_;
  t.shed += shed_.load(std::memory_order_relaxed);
  t.shed_deadline += shed_deadline_.load(std::memory_order_relaxed);
  t.invokes += invokes_.load(std::memory_order_relaxed);
  for (const auto& w : workers_) {
    t.completed += w->stats().completed.load(std::memory_order_relaxed);
    t.failed += w->stats().failed.load(std::memory_order_relaxed);
    t.killed += w->stats().killed.load(std::memory_order_relaxed);
    t.drained += w->stats().drained.load(std::memory_order_relaxed);
    t.preemptions += w->stats().preemptions.load(std::memory_order_relaxed);
    t.steals += w->stats().steals.load(std::memory_order_relaxed);
    t.pool_hits += w->stats().pool_hits.load(std::memory_order_relaxed);
    t.pool_misses += w->stats().pool_misses.load(std::memory_order_relaxed);
    t.blocked += w->stats().blocked.load(std::memory_order_relaxed);
    t.woken += w->stats().woken.load(std::memory_order_relaxed);
  }
  if (front_door_) {
    t.accepted += front_door_->accepted();
    t.accept_errors += front_door_->accept_errors();
  }
  return t;
}

std::vector<Runtime::ListenerSnapshot> Runtime::listener_snapshots() const {
  std::vector<ListenerSnapshot> out;
  if (front_door_) {
    ListenerSnapshot ls;
    ls.accepted = front_door_->accepted();
    ls.accept_errors = front_door_->accept_errors();
    // One read of each, so the two add up to the open connections.
    const int64_t loaned = front_door_->loaned_conns();
    ls.open_conns = front_door_->open_conns() - loaned;
    ls.loaned_conns = loaned;
    out.push_back(ls);
  }
  return out;
}

std::vector<Runtime::WorkerSnapshot> Runtime::worker_snapshots() const {
  std::vector<WorkerSnapshot> out;
  for (size_t i = 0; i < workers_.size(); ++i) {
    const Worker::Stats& w = workers_[i]->stats();
    WorkerSnapshot ws;
    ws.id = static_cast<int>(i);
    ws.dispatches = w.dispatches.load(std::memory_order_relaxed);
    ws.preemptions = w.preemptions.load(std::memory_order_relaxed);
    ws.steals = w.steals.load(std::memory_order_relaxed);
    ws.completed = w.completed.load(std::memory_order_relaxed);
    ws.failed = w.failed.load(std::memory_order_relaxed);
    ws.killed = w.killed.load(std::memory_order_relaxed);
    ws.blocked = w.blocked.load(std::memory_order_relaxed);
    ws.woken = w.woken.load(std::memory_order_relaxed);
    out.push_back(ws);
  }
  return out;
}

Runtime::StatsSnapshot Runtime::snapshot() const {
  StatsSnapshot s;
  s.uptime_ns = start_ns_ != 0 ? now_ns() - start_ns_ : 0;
  s.inflight = inflight();
  s.totals = totals();
  s.pool = SandboxResourcePool::instance().counters();
  // After stop() the front door and workers are gone; their last values
  // stay.
  s.listeners = front_door_ ? listener_snapshots() : stopped_listeners_;
  s.workers = workers_.empty() ? stopped_workers_ : worker_snapshots();
  for (const auto& [name, mod] : modules_) {
    ModuleSnapshot ms;
    ms.name = name;
    ms.inflight = mod->inflight.load(std::memory_order_acquire);
    ms.tenant_weight =
        mod->limits.tenant_weight == 0 ? 1 : mod->limits.tenant_weight;
    ms.predicted_queue_p99_ns = mod->stats.predictor.queue_wait_p99_ns();
    ms.predicted_exec_p99_ns = mod->stats.predictor.exec_cpu_p99_ns();
    std::lock_guard<std::mutex> lock(mod->stats.mu);
    ms.requests = mod->stats.requests;
    ms.failures = mod->stats.failures;
    ms.kills = mod->stats.kills;
    ms.shed = mod->stats.shed;
    ms.shed_deadline = mod->stats.shed_deadline;
    ms.preemptions = mod->stats.preemptions;
    ms.response_bytes = mod->stats.response_bytes;
    ms.invoke_local = mod->stats.invoke_local;
    ms.invoke_zerocopy = mod->stats.invoke_zerocopy;
    ms.end_to_end = mod->stats.end_to_end.summary();
    ms.startup = mod->stats.startup.summary();
    ms.startup_pooled = mod->stats.startup_pooled.summary();
    ms.startup_cold = mod->stats.startup_cold.summary();
    ms.queue_wait = mod->stats.queue_wait.summary();
    ms.exec_cpu = mod->stats.exec_cpu.summary();
    ms.response_write = mod->stats.response_write.summary();
    ms.io_wait = mod->stats.io_wait.summary();
    ms.invoke_handoff = mod->stats.invoke_handoff.summary();
    s.modules.push_back(std::move(ms));
  }
  return s;
}

std::string Runtime::stats_json() const {
  return metrics::render_json(snapshot(), config_);
}
std::string Runtime::stats_prometheus() const {
  return metrics::render_prometheus(snapshot(), config_);
}
std::string Runtime::stats_report() const {
  return metrics::render_report(snapshot(), config_);
}

Status run_sandbox_inline(Sandbox* sandbox) {
  Context here;
  while (true) {
    SandboxState st = sandbox->state();
    if (st == SandboxState::kComplete) return Status::ok();
    if (st == SandboxState::kFailed || st == SandboxState::kKilled) {
      return Status::error(sandbox->outcome().describe());
    }
    if (st == SandboxState::kBlocked) {
      // Inline runner: honor each wake condition synchronously (no event
      // loop on this thread). kChild never appears — there is no broker.
      switch (sandbox->wake_kind()) {
        case WakeKind::kFdRead:
        case WakeKind::kFdWrite: {
          pollfd p{};
          p.fd = sandbox->wake_os_fd();
          p.events =
              sandbox->wake_kind() == WakeKind::kFdRead ? POLLIN : POLLOUT;
          ::poll(&p, 1, 100);  // spurious wakes just re-block
          break;
        }
        case WakeKind::kChild:
          return Status::error(
              "sandbox blocked on sb_invoke outside a runtime");
        default: {
          uint64_t now = now_ns();
          if (sandbox->wake_at_ns() > now) {
            ::usleep(static_cast<useconds_t>(
                (sandbox->wake_at_ns() - now) / 1000 + 1));
          }
          break;
        }
      }
      sandbox->set_state(SandboxState::kRunnable);
    }
    sandbox->dispatch(&here);
  }
}

}  // namespace sledge::runtime
