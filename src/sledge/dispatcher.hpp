// Compatibility shim for the end-to-end benchmark only. The dispatcher
// layer is gone: the runtime hands work out through the Distributor
// (sledge/distributor.hpp) and its DistPolicy queue ablation, and nothing
// else. e2ebench/src/replay.cpp still builds its dispatch probe with
// `Dispatcher::make(cfg.dispatcher, cfg.policy, cfg.workers)`, so the
// one-value DispatchPolicy, this Distributor alias and the constant
// `RuntimeConfig::dispatcher` stay. Nothing under src/, tests/ or bench/
// uses them; they go together in the next change to the benchmark.
#pragma once

#include <cstdint>
#include <memory>

#include "sledge/distributor.hpp"

namespace sledge::runtime {

enum class DispatchPolicy : uint8_t { kWorkStealing };

class Dispatcher : public Distributor {
 public:
  using Distributor::Distributor;

  static std::unique_ptr<Dispatcher> make(DispatchPolicy, DistPolicy dist,
                                          int workers) {
    return std::make_unique<Dispatcher>(dist, workers);
  }
};

}  // namespace sledge::runtime
