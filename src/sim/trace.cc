#include "src/sim/trace.h"

#include <cstdio>
#include <fstream>

#include "src/util/json.h"

namespace fgdsm::sim {

namespace {
// Virtual ns -> trace microseconds, at full ns resolution.
std::string us(Time t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(t / 1000),
                static_cast<long long>(t % 1000));
  return buf;
}
}  // namespace

void Tracer::set_track_name(int tid, std::string name) {
  check_owner();
  track_names_[tid] = std::move(name);
}

void Tracer::span(int tid, const char* cat, const char* name, Time t0,
                  Time t1) {
  check_owner();
  events_.push_back(Event{Kind::kSpan, tid, cat, name, t0, t1, 0});
}

std::uint64_t Tracer::flow_begin(int tid, const char* cat, const char* name,
                                 Time t0, Time t1) {
  check_owner();
  const std::uint64_t id = next_flow_++;
  events_.push_back(Event{Kind::kFlowSrc, tid, cat, name, t0, t1, id});
  return id;
}

void Tracer::flow_end(std::uint64_t id, int tid, const char* cat,
                      const char* name, Time t0, Time t1) {
  check_owner();
  events_.push_back(Event{Kind::kFlowDst, tid, cat, name, t0, t1, id});
}

void Tracer::write(std::ostream& os) const {
  util::JsonWriter w(os);
  w.begin_object();
  w.key("traceEvents");
  w.begin_array();

  auto meta = [&](int tid, const char* what, auto&& emit_value) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("pid", 0);
    w.kv("tid", tid);
    w.kv("name", what);
    w.key("args");
    w.begin_object();
    emit_value();
    w.end_object();
    w.end_object();
  };
  for (const auto& [tid, name] : track_names_) {
    meta(tid, "thread_name", [&] { w.kv("name", name); });
    meta(tid, "thread_sort_index", [&] { w.kv("sort_index", tid); });
  }

  auto slice = [&](const Event& e) {
    w.begin_object();
    w.kv("ph", "X");
    w.kv("pid", 0);
    w.kv("tid", e.tid);
    w.kv("cat", e.cat);
    w.kv("name", e.name);
    w.key("ts");
    w.value_raw(us(e.t0));
    w.key("dur");
    w.value_raw(us(e.t1 - e.t0));
    w.end_object();
  };
  auto flow = [&](const Event& e, const char* ph, bool binding_end) {
    w.begin_object();
    w.kv("ph", ph);
    w.kv("pid", 0);
    w.kv("tid", e.tid);
    w.kv("cat", e.cat);
    w.kv("name", e.name);
    w.kv("id", static_cast<std::int64_t>(e.flow));
    if (binding_end) w.kv("bp", "e");
    w.key("ts");
    w.value_raw(us(e.t0));
    w.end_object();
  };

  for (const Event& e : events_) {
    switch (e.kind) {
      case Kind::kSpan:
        slice(e);
        break;
      case Kind::kFlowSrc:
        slice(e);
        flow(e, "s", false);
        break;
      case Kind::kFlowDst:
        slice(e);
        flow(e, "f", true);
        break;
    }
  }

  w.end_array();
  w.kv("displayTimeUnit", "ns");
  w.end_object();
  os << '\n';
}

bool Tracer::write_file(const std::string& path) const {
  std::ofstream f(path);
  if (!f) {
    std::fprintf(stderr, "fgdsm: cannot open trace file '%s'\n",
                 path.c_str());
    return false;
  }
  write(f);
  return static_cast<bool>(f);
}

}  // namespace fgdsm::sim
