// The benchmark's workloads and the correctness reference they are checked
// against. Workloads are built only from public calls: the apps::* program
// constructors, core::Options presets and the cluster/fault configuration
// that exec::run takes.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "src/exec/executor.h"
#include "src/hpf/ir.h"

namespace perfbench {

// "full" is what the benchmark measures; "tiny" shrinks every problem so the
// benchmark's own tests can run every workload in seconds.
enum class Size { kFull, kTiny };
const char* to_string(Size s);

// One simulation of a pass: a program under one configuration.
struct Sim {
  // "<app>/<config>@<nodes>": names the simulation in the reference and in
  // span tags. Fault injection and engine workers are not part of it: a
  // simulation must produce the same scalars with or without them.
  std::string key;
  const fgdsm::hpf::Program* prog = nullptr;
  fgdsm::exec::RunConfig cfg;

  bool msg_passing() const;
};

struct Workload {
  std::string name;
  int np = 0;  // cluster size of the planned simulations (replay phase)
  std::deque<fgdsm::hpf::Program> progs;  // stable addresses for Sim::prog
  std::vector<Sim> sims;
};

const std::vector<std::string>& workload_names();

class Reference;

// Builds the workload's programs and simulations. Only faults128 reads the
// seed (fault stream, crash victim and crash time); it also reads the
// reference's fault-free elapsed time of its simulation to place the crash
// inside the run. Returns false for an unknown name.
bool build_workload(const std::string& name, Size size, std::uint64_t seed,
                    const Reference& ref, Workload* out);

// The fault-free, single-worker twin of a simulation: the configuration
// whose results the reference records.
fgdsm::exec::RunConfig reference_config(const fgdsm::exec::RunConfig& cfg);

// Expected checksum scalars per (size, workload, simulation key), compared
// bit-exactly, plus the fault-free elapsed time of each simulation.
class Reference {
 public:
  bool load(const std::string& path, std::string* error);
  bool save(const std::string& path) const;

  void set(Size size, const std::string& workload, const std::string& key,
           const fgdsm::exec::RunResult& r);
  const std::map<std::string, double>* scalars(
      Size size, const std::string& workload, const std::string& key) const;
  std::int64_t elapsed_ns(Size size, const std::string& workload,
                          const std::string& key) const;

 private:
  struct Entry {
    std::map<std::string, double> scalars;
    std::int64_t elapsed_ns = 0;
  };
  static std::string id(Size size, const std::string& workload,
                        const std::string& key);
  std::map<std::string, Entry> entries_;  // ordered: stable file output
};

}  // namespace perfbench
