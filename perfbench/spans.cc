#include "perfbench/spans.h"

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <new>

#include "src/util/json.h"

// ---------------------------------------------------------------------------
// Counting allocator hook: every operator new in the process bumps one
// counter. It lives in the benchmark binary only; the library never
// replaces the global allocator.
// ---------------------------------------------------------------------------
namespace {
// Atomic: the engine's worker crew (paper8_st4) allocates concurrently.
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t align = static_cast<std::size_t>(a);
  if (void* p = std::aligned_alloc(align, (n + align - 1) / align * align))
    return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return ::operator new(n, a);
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

namespace perfbench {

std::uint64_t allocs_so_far() {
  return g_allocs.load(std::memory_order_relaxed);
}

Spans::Scope Spans::open(std::string name, std::string tag) {
  if (!enabled_) return Scope(nullptr, -1);
  Span& s = spans_.emplace_back();
  s.name = std::move(name);
  s.tag = std::move(tag);
  s.parent = open_.empty() ? -1 : open_.back();
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  // Read the clocks last, so the recorder's own allocations stay outside.
  s.allocs_start = allocs_so_far();
  s.start = Clock::now();
  return Scope(this, index);
}

void Spans::close(int index) {
  const Clock::time_point end = Clock::now();
  const std::uint64_t allocs_end = allocs_so_far();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = end;
  s.allocs_end = allocs_end;
  // Scopes nest lexically, so the closing span is always the innermost.
  open_.pop_back();
}

std::vector<double> Spans::self_seconds() const {
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].seconds();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds();
  return self;
}

std::vector<std::uint64_t> Spans::self_allocs() const {
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].allocs();
  for (const Span& s : spans_)
    if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.allocs();
  return self;
}

std::map<std::string, LayerTotals> Spans::layer_totals() const {
  const std::vector<double> self = self_seconds();
  const std::vector<std::uint64_t> self_a = self_allocs();
  std::map<std::string, LayerTotals> by_name;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    LayerTotals& t = by_name[spans_[i].name];
    ++t.count;
    t.seconds += spans_[i].seconds();
    t.self_seconds += self[i];
    t.self_allocs += self_a[i];
  }
  return by_name;
}

bool Spans::write_json(const std::string& path,
                       const std::vector<std::string>& notes) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::vector<double> self = self_seconds();
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  const auto us_since_origin = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  fgdsm::util::JsonWriter w(f);
  w.begin_object();
  w.kv("schema", "fgdsm-perfbench-spans-v1");
  w.key("notes");
  w.begin_array();
  for (const std::string& n : notes) w.value(n);
  w.end_array();
  w.key("layers");
  w.begin_object();
  for (const auto& [name, t] : layer_totals()) {
    w.key(name);
    w.begin_object();
    w.kv("count", t.count);
    w.kv("seconds", t.seconds);
    w.kv("self_seconds", t.self_seconds);
    w.kv("self_allocs", t.self_allocs);
    w.end_object();
  }
  w.end_object();
  w.key("spans");
  w.begin_array();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    w.begin_object();
    w.kv("name", s.name);
    if (!s.tag.empty()) w.kv("tag", s.tag);
    w.kv("parent", s.parent);
    w.kv("start_us", us_since_origin(s.start));
    w.kv("end_us", us_since_origin(s.end));
    w.kv("self_us", self[i] * 1e6);
    w.kv("allocs", s.allocs());
    w.end_object();
  }
  w.end_array();
  w.end_object();
  f << '\n';
  return static_cast<bool>(f);
}

}  // namespace perfbench
