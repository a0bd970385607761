// fgdsm-bench: one binary for every sweep (see bench/driver.h).
//
// The counting allocator lives here, in its own translation unit, so it
// replaces the global operator new of this binary only (never the
// library's), and no container code is inlined against it.
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#include "bench/driver.h"

namespace {

void* counted_alloc(std::size_t n, std::size_t align) {
  // Relaxed: the engine's worker threads allocate concurrently, and the
  // count is read only between runs, after they join.
  fgdsm::bench::g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n ? n : 1)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 1); }
void* operator new[](std::size_t n) { return counted_alloc(n, 1); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

int main(int argc, char** argv) { return fgdsm::bench::main(argc, argv); }
