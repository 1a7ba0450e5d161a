// Linear memory with the paper's four configurable bounds-check strategies
// (§3.2 of the paper):
//
//   kNone     — no checks (breaks the sandbox; for overhead studies only)
//   kSoftware — explicit compare-and-branch on every access
//   kMpxSim   — bounds-directory load + two compares per access, modelling
//               Intel MPX's bndldx/bndcl/bndcu cost profile (MPX silicon is
//               deprecated/unavailable; see DESIGN.md substitutions)
//   kVmGuard  — the "4 GiB aligned span" trick: the full 32-bit index space
//               plus a slack for static offsets is reserved PROT_NONE and
//               only the committed prefix is accessible, so out-of-bounds
//               accesses fault and are converted to traps.
//
// All strategies reserve the address range up-front so base() is stable
// across memory.grow — the AoT ABI and the interpreters cache the base.
#pragma once

#include <cstdint>
#include <memory>

#include "common/status.hpp"
#include "wasm/module.hpp"

namespace sledge::engine {

enum class BoundsStrategy : uint8_t {
  kNone = 0,
  kSoftware = 1,
  kMpxSim = 2,
  kVmGuard = 3,
};

const char* to_string(BoundsStrategy s);

// mpx-sim bounds directory entry; mirrored in the generated-C ABI.
struct BoundsDirEntry {
  uint64_t lo = 0;
  uint64_t hi = 0;
};
constexpr int kBoundsDirEntries = 64;

class LinearMemory {
 public:
  LinearMemory() = default;
  ~LinearMemory();
  LinearMemory(LinearMemory&& o) noexcept { *this = std::move(o); }
  LinearMemory& operator=(LinearMemory&& o) noexcept;
  LinearMemory(const LinearMemory&) = delete;
  LinearMemory& operator=(const LinearMemory&) = delete;

  // max_pages: hard growth ceiling (also the reservation size for non-guard
  // strategies). Callers should pass the module's declared max, or a policy
  // cap for modules without one.
  static Result<LinearMemory> create(BoundsStrategy strategy,
                                     uint32_t min_pages, uint32_t max_pages);

  // Address-space reservation a create() with these parameters would make.
  // Resource pools bucket reusable regions by (strategy, reservation).
  static uint64_t reservation_bytes(BoundsStrategy strategy,
                                    uint32_t max_pages);

  uint8_t* base() const { return base_; }
  uint64_t size_bytes() const { return size_bytes_; }
  uint32_t pages() const {
    return static_cast<uint32_t>(size_bytes_ / wasm::kPageSize);
  }
  uint32_t max_pages() const { return max_pages_; }
  BoundsStrategy strategy() const { return strategy_; }
  bool valid() const { return base_ != nullptr; }

  // Returns previous size in pages, or -1 on failure (per wasm semantics).
  int32_t grow(uint32_t delta_pages);

  // ---- Pooled reuse (warm-start path) ----
  //
  // recycle() quiesces the region for pooling and zeroes it — the
  // cross-tenant isolation property pooling depends on — without touching
  // a page-table entry. It reads the committed prefix's page flags from
  // /proc/self/pagemap: present pages are memset to zero, swapped-out pages
  // are discarded (MADV_DONTNEED on a non-present PTE needs no TLB
  // shootdown), and absent pages already read as zero. The prefix stays
  // read/write and resident while pooled (committed_bytes()), so the next
  // tenant neither remaps nor refaults it. pagemap, not mincore: mincore
  // reports swapped-out anonymous pages as non-resident, so their stale
  // bytes would come back on the next touch.
  //
  // Fallback: when pagemap cannot be opened or read, the prefix is
  // discarded (MADV_DONTNEED) and decommitted (PROT_NONE) instead, so the
  // kernel zero-fills it on the next commit. The reservation, guard
  // registration and bounds directory allocation are kept either way,
  // which is exactly what makes reuse cheaper than a fresh create().
  bool recycle();

  // reset() re-arms a recycled region for its next request: commits
  // min_pages and installs the new growth ceiling. Only the difference
  // between the kept prefix and min_pages is mprotect'ed, so a same-size
  // reuse makes no syscall; a smaller size decommits the excess, so exactly
  // [0, size_bytes()) is accessible and vm_guard out-of-bounds accesses
  // still fault. Fails (false) if the ceiling would not fit the existing
  // reservation — the caller must then fall back to create(). Memory
  // contents after reset() are all-zero.
  bool reset(uint32_t min_pages, uint32_t max_pages);

  // Length of the read/write prefix at base(): size_bytes() while in use;
  // while pooled, the zeroed prefix recycle() kept committed (0 after the
  // fallback path). These pages stay resident, which is the RSS cost of
  // in-place recycling; the pool's reclaim watermark bounds it.
  uint64_t committed_bytes() const { return committed_bytes_; }

  // Test-only fault injection: when set and returning true, recycle()
  // behaves as if /proc/self/pagemap were unavailable and takes the
  // madvise+mprotect fallback.
  using PagemapFaultHook = bool (*)();
  static void set_pagemap_fault_hook(PagemapFaultHook hook);

  uint64_t reserved_bytes() const { return reserved_bytes_; }

  // Software check used by the interpreter tiers (AoT code inlines its own
  // per-strategy checks).
  bool in_bounds(uint64_t addr, uint32_t width) const {
    return addr + width <= size_bytes_;
  }

  BoundsDirEntry* bounds_dir() { return bounds_dir_.get(); }

 private:
  void release();

  BoundsStrategy strategy_ = BoundsStrategy::kSoftware;
  uint8_t* base_ = nullptr;
  uint64_t size_bytes_ = 0;
  uint64_t committed_bytes_ = 0;
  uint64_t reserved_bytes_ = 0;
  uint32_t max_pages_ = 0;
  int guard_id_ = -1;
  std::unique_ptr<BoundsDirEntry[]> bounds_dir_;
};

}  // namespace sledge::engine
