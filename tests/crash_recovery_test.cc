// Fail-stop crashes with checkpoint/rollback recovery, end to end.
//
// The load-bearing properties:
//   - a run that loses a node mid-computation (scheduled or probabilistic
//     crash) detects the death through retry-budget exhaustion, rolls every
//     survivor back to the last barrier checkpoint, reincarnates the dead
//     node, and finishes with results BIT-IDENTICAL to a fault-free run;
//   - the same crash configuration reproduces the identical run (elapsed,
//     every counter) — crashes are counter-mode draws, not RNG state;
//   - checkpointing without crashes is result-passive: it costs simulated
//     time but cannot change any answer;
//   - a crash with checkpointing disabled is an unrecoverable, structured
//     failure: exit 87 naming the dead node, never a hang;
//   - the ReliableChannel detection edge (retry exhaustion, capped RTO
//     backoff) surfaces a structured dead-link diagnostic with the link
//     named and the unacked count — and the backoff cap bounds detection
//     latency to a computable constant.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/executor.h"
#include "src/sim/channel.h"
#include "src/sim/cost_model.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/sim/network.h"
#include "src/sim/task.h"
#include "src/sim/trace.h"

namespace fgdsm {
namespace {

// ---------------------------------------------------------------------------
// Crash spec parsing.

TEST(CrashSpec, ParsesScheduledAndProbabilisticCrashes) {
  std::string err;
  const sim::FaultConfig c =
      sim::FaultConfig::parse("crash=3@1000000,crash=0@2500000,crashp=0.01",
                              &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_TRUE(c.has_crashes());
  ASSERT_EQ(c.crashes.size(), 2u);
  EXPECT_EQ(c.crashes[0].first, 3);
  EXPECT_EQ(c.crashes[0].second, 1000000);
  EXPECT_EQ(c.crashes[1].first, 0);
  EXPECT_EQ(c.crashes[1].second, 2500000);
  EXPECT_DOUBLE_EQ(c.crashp, 0.01);
}

TEST(CrashSpec, TypoGetsLevenshteinSuggestionNotSilence) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse("crahsp=0.1", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("crahsp"), std::string::npos) << err;
  // Plain Levenshtein ties 'crash' and 'crashp' at distance 2; either is a
  // useful pointer at the crash family.
  EXPECT_NE(err.find("did you mean 'crash"), std::string::npos) << err;
}

TEST(CrashSpec, RejectsMalformedCrashSchedules) {
  std::string err;
  EXPECT_FALSE(sim::FaultConfig::parse("crash=3", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crash=@100", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crash=x@100", &err).enabled);
  EXPECT_FALSE(sim::FaultConfig::parse("crashp=1.5", &err).enabled);
}

TEST(CrashSpec, CrashDrawsAreDeterministicPerNodeAndEpoch) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.crashp = 0.2;
  cfg.seed = 17;
  const sim::FaultInjector a(cfg, 8, 1000);
  const sim::FaultInjector b(cfg, 8, 1000);
  int fired = 0;
  for (int node = 0; node < 8; ++node)
    for (std::uint64_t e = 1; e <= 50; ++e) {
      EXPECT_EQ(a.crash_at_barrier(node, e), b.crash_at_barrier(node, e));
      fired += a.crash_at_barrier(node, e) ? 1 : 0;
    }
  EXPECT_GT(fired, 0);    // 400 draws at p=.2: zero would be broken
  EXPECT_LT(fired, 400);
}

// ---------------------------------------------------------------------------
// End-to-end crash + recovery.

exec::RunConfig crash_cfg(const std::string& spec, int nodes,
                          int checkpoint_every) {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = false;
  c.cluster.checkpoint_every = checkpoint_every;
  if (!spec.empty()) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(spec, &err);
    EXPECT_TRUE(err.empty()) << err;
    c.cluster.watchdog_ns = 5'000'000'000;
  }
  return c;
}

void expect_scalars_identical(const exec::RunResult& a,
                              const exec::RunResult& b) {
  ASSERT_EQ(a.scalars.size(), b.scalars.size());
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

TEST(CrashRecovery, ScheduledCrashRecoversBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult clean = exec::run(prog, crash_cfg("", 4, 0));
  // Kill node 2 a third of the way through the fault-free timeline.
  const std::string spec =
      "crash=2@" + std::to_string(clean.stats.elapsed_ns / 3);
  const exec::RunResult rec = exec::run(prog, crash_cfg(spec, 4, 4));

  expect_scalars_identical(clean, rec);

  // The crash and the repair must actually have happened (non-vacuity).
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
  EXPECT_GT(t.checkpoints, 0u);
  EXPECT_GT(t.checkpoint_bytes, 0u);
  EXPECT_GT(t.rollback_ns, 0u);
  // Detection + rollback + replay cost simulated time.
  EXPECT_GT(rec.stats.elapsed_ns, clean.stats.elapsed_ns);
}

TEST(CrashRecovery, ProbabilisticCrashesRecoverBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult clean = exec::run(prog, crash_cfg("", 4, 0));
  const exec::RunResult rec =
      exec::run(prog, crash_cfg("crashp=0.04,seed=9", 4, 2));

  expect_scalars_identical(clean, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_GT(t.crashes, 0u);  // seed 9 must actually fire; else vacuous
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, SameCrashConfigIsBitIdenticalAcrossRuns) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunConfig cfg = crash_cfg("crashp=0.04,seed=9", 4, 2);
  const exec::RunResult a = exec::run(prog, cfg);
  const exec::RunResult b = exec::run(prog, cfg);
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns);
  expect_scalars_identical(a, b);
  for (std::size_t i = 0; i < a.stats.node.size(); ++i) {
    EXPECT_EQ(a.stats.node[i].crashes, b.stats.node[i].crashes) << i;
    EXPECT_EQ(a.stats.node[i].recoveries, b.stats.node[i].recoveries) << i;
    EXPECT_EQ(a.stats.node[i].rollback_ns, b.stats.node[i].rollback_ns) << i;
  }
}

TEST(CrashRecovery, CheckpointingWithoutCrashesIsResultPassive) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult base = exec::run(prog, crash_cfg("", 4, 0));
  const exec::RunResult ck = exec::run(prog, crash_cfg("", 4, 2));
  expect_scalars_identical(base, ck);
  util::NodeStats t;
  for (const auto& ns : ck.stats.node) t += ns;
  EXPECT_GT(t.checkpoints, 0u);
  EXPECT_EQ(t.crashes, 0u);
  EXPECT_EQ(t.recoveries, 0u);
  // The premium is real but bounded: checkpoint bytes are charged to the
  // cost model, so elapsed grows, monotonically with frequency.
  EXPECT_GE(ck.stats.elapsed_ns, base.stats.elapsed_ns);
}

// Each node counts the checkpoints it paid for, once: one per K-th barrier
// (the t=0 image is free), and checkpoint_bytes is the sum of the sizes its
// serialization charges were priced at — read back from the trace's
// checkpoint spans, each ckpt_base_ns + bytes * ckpt_ns_per_byte long.
TEST(CrashRecovery, CheckpointCountersMatchTheCharges) {
  constexpr int kNodes = 4;
  constexpr int kEvery = 3;
  const auto prog = apps::jacobi(96, 6);
  exec::RunConfig cfg = crash_cfg("", kNodes, kEvery);
  cfg.cluster.costs.ckpt_ns_per_byte = 1.0;  // span length - base = bytes
  const std::string path = ::testing::TempDir() + "fgdsm_ckpt_trace.json";
  cfg.trace_path = path;
  const exec::RunResult r = exec::run(prog, cfg);

  std::ifstream f(path);
  ASSERT_TRUE(f.good()) << path;
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string text = ss.str();
  std::remove(path.c_str());

  // Each span is {"ph", "pid", "tid": T, "cat": "ckpt", "name":
  // "checkpoint", "ts", "dur": D}, D in microseconds with three decimals.
  std::vector<std::uint64_t> spans(kNodes, 0), charged(kNodes, 0);
  const std::string name = "\"name\": \"checkpoint\"";
  for (std::size_t at = text.find(name); at != std::string::npos;
       at = text.find(name, at + 1)) {
    const std::size_t tid_at = text.rfind("\"tid\": ", at);
    const std::size_t dur_at = text.find("\"dur\": ", at);
    ASSERT_NE(tid_at, std::string::npos);
    ASSERT_NE(dur_at, std::string::npos);
    const int tid = std::stoi(text.substr(tid_at + 7));
    const int node = tid / 2;
    ASSERT_EQ(sim::Tracer::compute_track(node), tid);
    ASSERT_LT(node, kNodes);
    const std::size_t dot = text.find('.', dur_at);
    const std::int64_t dur_ns =
        std::stoll(text.substr(dur_at + 7, dot - dur_at - 7)) * 1000 +
        std::stoll(text.substr(dot + 1, 3));
    ++spans[static_cast<std::size_t>(node)];
    charged[static_cast<std::size_t>(node)] +=
        static_cast<std::uint64_t>(dur_ns - cfg.cluster.costs.ckpt_base_ns);
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    const util::NodeStats& ns = r.stats.node[i];
    EXPECT_GT(ns.checkpoints, 0u) << i;
    EXPECT_EQ(ns.checkpoints, ns.barriers / kEvery) << i;
    EXPECT_EQ(ns.checkpoints, spans[i]) << i;
    EXPECT_EQ(ns.checkpoint_bytes, charged[i]) << i;
  }
}

// cg stresses the state the tag-based capture predicate cannot see: its
// replicated vectors (x, p) bypass access control, so every node's replica
// lives in blocks whose tags stay kInvalid away from the block's home. A
// rollback that restores only tag-visible blocks leaves the doomed
// timeline's `x += alpha*p` in the surviving replicas — the residual
// trajectory reconverges (CG solves the same system) but ||x||^2 does not.
TEST(CrashRecovery, ReplicatedArraysRollBackWithTheRest) {
  const auto prog = apps::cg(64, 128, 60);
  for (const core::Options& opt :
       {core::shmem_opt_full(), core::shmem_unopt()}) {
    exec::RunConfig clean = crash_cfg("", 4, 0);
    clean.opt = opt;
    const exec::RunResult base = exec::run(prog, clean);
    exec::RunConfig cfg = crash_cfg(
        "crash=2@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
    cfg.opt = opt;
    const exec::RunResult rec = exec::run(prog, cfg);
    expect_scalars_identical(base, rec);
    util::NodeStats t;
    for (const auto& ns : rec.stats.node) t += ns;
    EXPECT_EQ(t.crashes, 1u);
    EXPECT_GT(t.recoveries, 0u);
  }
}

// In message-passing mode there is no protocol at all: every array's local
// copy is private storage with bootstrap tags, so the checkpoint must
// capture nodes' memory by explicit range, not by tag visibility.
TEST(CrashRecovery, MessagePassingReplaysPrivateMemoryExactly) {
  const auto prog = apps::cg(64, 128, 60);
  exec::RunConfig clean = crash_cfg("", 4, 0);
  clean.opt = core::msg_passing();
  const exec::RunResult base = exec::run(prog, clean);
  exec::RunConfig cfg =
      crash_cfg("crash=2@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
  cfg.opt = core::msg_passing();
  const exec::RunResult rec = exec::run(prog, cfg);
  expect_scalars_identical(base, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, MessagePassingModeRecoversToo) {
  const auto prog = apps::jacobi(96, 6);
  exec::RunConfig clean = crash_cfg("", 4, 0);
  clean.opt = core::msg_passing();
  const exec::RunResult base = exec::run(prog, clean);
  exec::RunConfig cfg =
      crash_cfg("crash=1@" + std::to_string(base.stats.elapsed_ns / 2), 4, 4);
  cfg.opt = core::msg_passing();
  const exec::RunResult rec = exec::run(prog, cfg);
  expect_scalars_identical(base, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

TEST(CrashRecovery, IrregularInspectorExecutorRecoversToo) {
  const auto prog = apps::spmv(512, 8, 4, /*pattern=*/0);
  const exec::RunResult clean = exec::run(prog, crash_cfg("", 4, 0));
  const std::string spec =
      "crash=3@" + std::to_string(clean.stats.elapsed_ns / 2);
  const exec::RunResult rec = exec::run(prog, crash_cfg(spec, 4, 4));
  expect_scalars_identical(clean, rec);
  util::NodeStats t;
  for (const auto& ns : rec.stats.node) t += ns;
  EXPECT_EQ(t.crashes, 1u);
  EXPECT_GT(t.recoveries, 0u);
}

// ---------------------------------------------------------------------------
// Unrecoverable: crash with checkpointing disabled.

TEST(CrashRecoveryDeathTest, CrashWithoutCheckpointsExits87NamingTheNode) {
  const auto prog = apps::jacobi(64, 4);
  EXPECT_EXIT(
      {
        try {
          exec::run(prog, crash_cfg("crash=1@200000", 4,
                                    /*checkpoint_every=*/0));
        } catch (const sim::CrashError& e) {
          sim::exit_crash(e);
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kCrashExitCode),
      "node 1 crashed with no checkpoint");
}

// ---------------------------------------------------------------------------
// The detection edge: ReliableChannel retry exhaustion and RTO backoff cap.

TEST(ChannelDetection, RetryExhaustionNamesLinkAndUnackedCount) {
  sim::Engine engine;
  sim::CostModel costs;
  sim::Network net(engine, costs, 2);
  sim::ChannelConfig ccfg;
  ccfg.rto_ns = 1000;
  ccfg.max_retries = 3;
  sim::ReliableChannel ch(engine, net, 2, ccfg);
  ch.attach(0, [](sim::Message&&, sim::Time) {});
  ch.attach(1, [](sim::Message&&, sim::Time) {});
  ch.set_down_probe([](int node) { return node == 1; });  // 1 never acks
  // An unfinished task keeps the engine from treating the silence as normal
  // end-of-run ack loss.
  sim::Task blocked(engine, "blocked", [](sim::Task& t) { t.block(); });
  blocked.start();

  sim::Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 7;
  ch.send(0, std::move(m));
  try {
    engine.run();
    FAIL() << "a dead peer must exhaust the retry budget";
  } catch (const sim::StallError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted on link 0->1"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("unacked on link"), std::string::npos) << what;
    EXPECT_NE(what.find("peer node 1 is unresponsive"), std::string::npos)
        << what;
  }
}

TEST(ChannelDetection, BackoffCapBoundsDetectionLatency) {
  sim::Engine engine;
  sim::CostModel costs;
  sim::Network net(engine, costs, 2);
  sim::ChannelConfig ccfg;
  ccfg.rto_ns = 1000;
  ccfg.max_retries = 10;  // well past the cap at shift 6
  sim::ReliableChannel ch(engine, net, 2, ccfg);
  ch.attach(0, [](sim::Message&&, sim::Time) {});
  ch.attach(1, [](sim::Message&&, sim::Time) {});
  ch.set_down_probe([](int node) { return node == 1; });
  sim::Task blocked(engine, "blocked", [](sim::Task& t) { t.block(); });
  blocked.start();

  sim::Message m;
  m.src = 0;
  m.dst = 1;
  m.type = 7;
  ch.send(0, std::move(m));
  // Attempt a's timer fires backoff(a) = rto << min(a, kBackoffCapShift)
  // after it is armed; the budget check fails at attempt max_retries. So
  // detection lands at exactly sum_{a=0..max_retries} backoff(a) — uncapped
  // doubling would instead take rto * (2^11 - 1), ~5.3x longer.
  sim::Time expected = 0;
  for (int a = 0; a <= ccfg.max_retries; ++a)
    expected +=
        ccfg.rto_ns << (a < sim::ReliableChannel::kBackoffCapShift
                            ? a
                            : sim::ReliableChannel::kBackoffCapShift);
  try {
    engine.run();
    FAIL() << "a dead peer must exhaust the retry budget";
  } catch (const sim::StallError&) {
    EXPECT_EQ(engine.now(), expected);
  }
}

}  // namespace
}  // namespace fgdsm
