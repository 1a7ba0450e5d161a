// Compatibility shim for the end-to-end benchmark only. The snapshot/COW
// startup tier is gone: `cold | pooled` is the whole startup choice
// (InstantiationMode). e2ebench/src/main.cpp still reports
// `snapshot.hit_ratio` from these counters, so they stay here and always
// read zero. Nothing under src/, tests/ or bench/ includes this header; it
// goes together with that metric in the next change to the benchmark.
#pragma once

#include <cstdint>

namespace sledge::runtime {

class SnapshotRegistry {
 public:
  struct Counters {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  static SnapshotRegistry& instance() {
    static SnapshotRegistry registry;
    return registry;
  }

  Counters counters() const { return {}; }
};

}  // namespace sledge::runtime
