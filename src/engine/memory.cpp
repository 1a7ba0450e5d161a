#include "engine/memory.hpp"

#include <fcntl.h>
#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <utility>

#include "engine/trap.hpp"

namespace sledge::engine {

namespace {
// vm_guard reserves the whole 32-bit index space plus slack so that
// `base + u32_index + static_offset` always lands inside the reservation.
constexpr uint64_t kGuardSlack = 16ull << 20;  // covers static offsets
constexpr uint64_t kGuardReservation = (4ull << 30) + kGuardSlack;

// /proc/self/pagemap holds one 64-bit entry per OS page
// (Documentation/admin-guide/mm/pagemap.rst). The flag bits are readable
// without privileges; only the frame number is hidden.
constexpr uint64_t kPagemapPresent = 1ull << 63;
constexpr uint64_t kPagemapSwapped = 1ull << 62;
constexpr uint64_t kPagemapExclusive = 1ull << 56;
constexpr size_t kPagemapBatch = 512;  // entries per pread (4 KiB)

std::atomic<LinearMemory::PagemapFaultHook> g_pagemap_fault_hook{nullptr};

std::atomic<bool> g_forked_child{false};

// Opened once per process; -1 when unavailable. The descriptor names the
// address space that opened it, so a forked child must not trust it (it
// would report the parent's pages): the child takes the fallback path.
int pagemap_fd() {
  static const int fd = [] {
    ::pthread_atfork(nullptr, nullptr, +[] {
      g_forked_child.store(true, std::memory_order_relaxed);
    });
    return ::open("/proc/self/pagemap", O_RDONLY | O_CLOEXEC);
  }();
  return g_forked_child.load(std::memory_order_relaxed) ? -1 : fd;
}

bool page_is_zero(const uint8_t* p, size_t len) {
  return p[0] == 0 && std::memcmp(p, p + 1, len - 1) == 0;
}

// Zeroes [base, base + bytes) in place, leaving every present PTE as it
// is: present pages are memset, swapped-out pages discarded (no present
// PTE, so no TLB shootdown), absent pages already read as zero. A page
// that is present but not exclusively ours (the shared zero page after a
// read-only touch, or a page still shared with a forked child) is only
// written when it is non-zero, so a read-only page is not COW-faulted in
// just to be zeroed. False when pagemap is unavailable; the caller then
// discards the whole range instead.
bool zero_in_place(uint8_t* base, uint64_t bytes) {
  if (LinearMemory::PagemapFaultHook hook =
          g_pagemap_fault_hook.load(std::memory_order_acquire);
      hook && hook()) {
    return false;  // injected "pagemap unavailable" (tests)
  }
  const int fd = pagemap_fd();
  if (fd < 0) return false;
  static const uint64_t os_page = static_cast<uint64_t>(::sysconf(_SC_PAGESIZE));
  const uint64_t first_page = reinterpret_cast<uintptr_t>(base) / os_page;
  const uint64_t npages = bytes / os_page;
  uint64_t entries[kPagemapBatch];
  for (uint64_t done = 0; done < npages;) {
    const size_t n =
        static_cast<size_t>(std::min<uint64_t>(kPagemapBatch, npages - done));
    const ssize_t want = static_cast<ssize_t>(n * sizeof(uint64_t));
    if (::pread(fd, entries, static_cast<size_t>(want),
                static_cast<off_t>((first_page + done) * sizeof(uint64_t))) !=
        want) {
      return false;
    }
    for (size_t i = 0; i < n; ++i) {
      uint8_t* page = base + (done + i) * os_page;
      if (entries[i] & kPagemapPresent) {
        if ((entries[i] & kPagemapExclusive) || !page_is_zero(page, os_page)) {
          std::memset(page, 0, os_page);
        }
      } else if (entries[i] & kPagemapSwapped) {
        if (::madvise(page, os_page, MADV_DONTNEED) != 0) return false;
      }
    }
    done += n;
  }
  return true;
}

// Makes [from, to) of the reservation read/write (growing) or inaccessible
// (shrinking); a no-op when the bounds match.
bool set_committed(uint8_t* base, uint64_t from, uint64_t to) {
  if (to > from) {
    return ::mprotect(base + from, to - from, PROT_READ | PROT_WRITE) == 0;
  }
  if (to < from) return ::mprotect(base + to, from - to, PROT_NONE) == 0;
  return true;
}
}  // namespace

const char* to_string(BoundsStrategy s) {
  switch (s) {
    case BoundsStrategy::kNone: return "none";
    case BoundsStrategy::kSoftware: return "software";
    case BoundsStrategy::kMpxSim: return "mpx_sim";
    case BoundsStrategy::kVmGuard: return "vm_guard";
  }
  return "?";
}

uint64_t LinearMemory::reservation_bytes(BoundsStrategy strategy,
                                         uint32_t max_pages) {
  uint64_t bytes = strategy == BoundsStrategy::kVmGuard
                       ? kGuardReservation
                       : static_cast<uint64_t>(max_pages) * wasm::kPageSize;
  return bytes == 0 ? wasm::kPageSize : bytes;
}

void LinearMemory::set_pagemap_fault_hook(PagemapFaultHook hook) {
  g_pagemap_fault_hook.store(hook, std::memory_order_release);
}

LinearMemory::~LinearMemory() { release(); }

LinearMemory& LinearMemory::operator=(LinearMemory&& o) noexcept {
  if (this != &o) {
    release();
    strategy_ = o.strategy_;
    base_ = std::exchange(o.base_, nullptr);
    size_bytes_ = std::exchange(o.size_bytes_, 0);
    committed_bytes_ = std::exchange(o.committed_bytes_, 0);
    reserved_bytes_ = std::exchange(o.reserved_bytes_, 0);
    file_mapped_bytes_ = std::exchange(o.file_mapped_bytes_, 0);
    max_pages_ = o.max_pages_;
    guard_id_ = std::exchange(o.guard_id_, -1);
    bounds_dir_ = std::move(o.bounds_dir_);
  }
  return *this;
}

void LinearMemory::release() {
  if (guard_id_ >= 0) {
    unregister_guard_region(guard_id_);
    guard_id_ = -1;
  }
  if (base_) {
    ::munmap(base_, reserved_bytes_);
    base_ = nullptr;
  }
  size_bytes_ = 0;
  committed_bytes_ = 0;
  reserved_bytes_ = 0;
  file_mapped_bytes_ = 0;
}

Result<LinearMemory> LinearMemory::create(BoundsStrategy strategy,
                                          uint32_t min_pages,
                                          uint32_t max_pages) {
  if (max_pages < min_pages) max_pages = min_pages;
  if (max_pages > wasm::kMaxPages) {
    return Result<LinearMemory>::error("memory max exceeds 4GiB");
  }

  LinearMemory mem;
  mem.strategy_ = strategy;
  mem.max_pages_ = max_pages;
  mem.reserved_bytes_ = reservation_bytes(strategy, max_pages);

  void* p = ::mmap(nullptr, mem.reserved_bytes_, PROT_NONE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    return Result<LinearMemory>::error("mmap reservation failed");
  }
  mem.base_ = static_cast<uint8_t*>(p);
  mem.size_bytes_ = static_cast<uint64_t>(min_pages) * wasm::kPageSize;

  if (!set_committed(mem.base_, 0, mem.size_bytes_)) {
    ::munmap(p, mem.reserved_bytes_);
    mem.base_ = nullptr;
    return Result<LinearMemory>::error("mprotect commit failed");
  }
  mem.committed_bytes_ = mem.size_bytes_;

  if (strategy == BoundsStrategy::kVmGuard) {
    install_trap_signal_handler();
    mem.guard_id_ = register_guard_region(mem.base_, mem.reserved_bytes_);
  }

  if (strategy == BoundsStrategy::kMpxSim) {
    mem.bounds_dir_ = std::make_unique<BoundsDirEntry[]>(kBoundsDirEntries);
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      mem.bounds_dir_[i] = {0, mem.size_bytes_};
    }
  }

  return Result<LinearMemory>(std::move(mem));
}

bool LinearMemory::recycle() {
  if (!base_) return false;
  if (file_mapped_bytes_ > 0) {
    // A private *file* mapping does not zero under MADV_DONTNEED — the next
    // touch re-reads the template — and memsetting it would dirty a COW
    // copy of every page. Replace the whole committed prefix with an
    // anonymous PROT_NONE mapping so pooled reuse keeps its zero-on-reuse
    // cross-tenant guarantee.
    void* p = ::mmap(base_, committed_bytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED,
                     -1, 0);
    if (p == MAP_FAILED) return false;
    file_mapped_bytes_ = 0;
    size_bytes_ = 0;
    committed_bytes_ = 0;
    return true;
  }
  // While in use the committed prefix is exactly [0, size_bytes_). Zero it
  // in place and keep it committed; only if pagemap is unavailable fall
  // back to discarding the pages (MADV_DONTNEED on private anonymous
  // memory: the next touch is a fresh zero page) and decommitting them.
  if (size_bytes_ > 0 && !zero_in_place(base_, size_bytes_)) {
    if (::madvise(base_, size_bytes_, MADV_DONTNEED) != 0) return false;
    if (!set_committed(base_, size_bytes_, 0)) return false;
    committed_bytes_ = 0;
  }
  size_bytes_ = 0;
  return true;
}

bool LinearMemory::reset(uint32_t min_pages, uint32_t max_pages) {
  if (!base_ || size_bytes_ != 0) return false;  // must be recycled first
  if (max_pages < min_pages) max_pages = min_pages;
  if (static_cast<uint64_t>(max_pages) * wasm::kPageSize > reserved_bytes_ ||
      max_pages > wasm::kMaxPages) {
    return false;
  }
  uint64_t bytes = static_cast<uint64_t>(min_pages) * wasm::kPageSize;
  // The kept prefix is already zero; only the difference changes access.
  if (!set_committed(base_, committed_bytes_, bytes)) return false;
  size_bytes_ = bytes;
  committed_bytes_ = bytes;
  max_pages_ = max_pages;
  if (bounds_dir_) {
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      bounds_dir_[i] = {0, size_bytes_};
    }
  }
  return true;
}

bool LinearMemory::map_template(int fd, uint64_t content_bytes,
                                uint32_t max_pages) {
  if (!base_ || size_bytes_ != 0 || fd < 0) return false;
  if (content_bytes == 0 || content_bytes % wasm::kPageSize != 0) return false;
  if (max_pages > wasm::kMaxPages) return false;
  uint64_t ceiling = static_cast<uint64_t>(max_pages) * wasm::kPageSize;
  if (content_bytes > ceiling || ceiling > reserved_bytes_) return false;

  // Nothing past the image may stay accessible: decommit whatever part of a
  // kept prefix the file mapping will not cover.
  if (committed_bytes_ > content_bytes) {
    if (!set_committed(base_, committed_bytes_, content_bytes)) return false;
    committed_bytes_ = content_bytes;
  }
  void* p = ::mmap(base_, content_bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_FIXED | MAP_NORESERVE, fd, 0);
  if (p == MAP_FAILED) return false;

  size_bytes_ = content_bytes;
  committed_bytes_ = content_bytes;
  file_mapped_bytes_ = content_bytes;
  max_pages_ = max_pages;
  if (bounds_dir_) {
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      bounds_dir_[i] = {0, size_bytes_};
    }
  }
  return true;
}

bool LinearMemory::remap_template(int fd) {
  if (!base_ || file_mapped_bytes_ == 0 || fd < 0) return false;
  // Restore the pristine template view in place: a fresh private file
  // mapping discards every COW page the departing tenant dirtied, and any
  // grown tail above the image returns to the uncommitted reservation.
  void* p = ::mmap(base_, file_mapped_bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_FIXED | MAP_NORESERVE, fd, 0);
  if (p == MAP_FAILED) return false;
  if (size_bytes_ > file_mapped_bytes_) {
    void* q = ::mmap(base_ + file_mapped_bytes_,
                     size_bytes_ - file_mapped_bytes_, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_FIXED,
                     -1, 0);
    if (q == MAP_FAILED) return false;
  }
  size_bytes_ = file_mapped_bytes_;
  committed_bytes_ = file_mapped_bytes_;
  if (bounds_dir_) {
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      bounds_dir_[i] = {0, size_bytes_};
    }
  }
  return true;
}

int32_t LinearMemory::grow(uint32_t delta_pages) {
  uint32_t old_pages = pages();
  uint64_t new_pages = static_cast<uint64_t>(old_pages) + delta_pages;
  if (new_pages > max_pages_) return -1;
  uint64_t new_size = new_pages * wasm::kPageSize;
  if (new_size > reserved_bytes_) return -1;
  if (!set_committed(base_, size_bytes_, new_size)) return -1;
  size_bytes_ = new_size;
  committed_bytes_ = new_size;
  if (bounds_dir_) {
    for (int i = 0; i < kBoundsDirEntries; ++i) {
      bounds_dir_[i].hi = size_bytes_;
    }
  }
  return static_cast<int32_t>(old_pages);
}

}  // namespace sledge::engine
