// The application suite of the paper's Table 2, re-implemented against the
// HPF IR. Every program is built once and runs unchanged under every
// execution mode (serial, transparent shared memory, compiler-directed
// coherence at each optimization level, message passing).
//
// Problem sizes: build(n, iters) gives full control; paper() uses the
// paper's Table 2 sizes; scaled(s) shrinks the linear dimension and the
// iteration count by s for quick runs. Each program ends by computing one
// or more checksum scalars through its own reductions, so runs can be
// compared across modes at any size without gathering arrays.
//
// Compute-cost calibration: each loop's cost_per_iter_ns approximates the
// per-element time of a 66 MHz HyperSPARC on that kernel, chosen so the
// 8-node per-node compute times land near the paper's Table 3 "Compute
// time" column at full problem size (see src/apps/costs.h).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "src/hpf/ir.h"

namespace fgdsm::apps {

// jacobi: 2048x2048 five-point relaxation, 100 sweeps (Table 2 row 6).
hpf::Program jacobi(std::int64_t n, std::int64_t sweeps);

// pde: Genesis PDE1 RELAX — 3-D 128^3 red/black relaxation, 40 iterations.
hpf::Program pde(std::int64_t n, std::int64_t iters);

// shallow: NCAR shallow-water benchmark, 1025x513 grid, 100 time steps.
hpf::Program shallow(std::int64_t nx, std::int64_t ny, std::int64_t steps);

// grav: Syracuse gravitational potential kernel — 129x129(x129) grids,
// SUM-reduction heavy, 5 iterations.
hpf::Program grav(std::int64_t n, std::int64_t iters);

// lu: 1024x1024 right-looking LU decomposition, CYCLIC columns.
hpf::Program lu(std::int64_t n);

// cg: CGNR on a synthetic 180x360 system; cap iterations (the paper's run
// converges in 630).
hpf::Program cg(std::int64_t nrows, std::int64_t ncols, std::int64_t iters);

// spmv: iterated normalized sparse matvec y = A x in ELL-style fixed-k
// storage — the irregular workload for the inspector–executor runtime.
// pattern 0 = banded indirection (gather intervals survive block trimming),
// pattern 1 = hashed (scattered; trims to the default protocol). Not in the
// registry: driven by fgdsm-bench irreg, not the paper-suite benches.
hpf::Program spmv(std::int64_t n, std::int64_t k, std::int64_t iters,
                  std::int64_t pattern);

// Registry for benches/examples.
struct AppInfo {
  std::string name;
  std::function<hpf::Program()> paper;            // Table 2 size
  std::function<hpf::Program(double)> scaled;     // shrunk by factor s
  double paper_memory_mb;                         // Table 2 "Memory" column
  std::string paper_problem;                      // Table 2 description
};
const std::vector<AppInfo>& registry();

}  // namespace fgdsm::apps
