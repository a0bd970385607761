// Chaos-mode networking: deterministic fault injection, the reliable
// transport channel, the stall watchdog, and strict flag parsing.
//
// The load-bearing properties:
//   - application results under faults are bit-identical to fault-free runs
//     (the channel hides drops/dups/delays/reordering completely);
//   - a given --faults seed reproduces the identical run at any host thread
//     count (counter-mode hashing, no RNG state);
//   - fault injection disabled is *passive*: every chaos counter stays zero
//     and the run is untouched;
//   - a dead link terminates the process with the documented exit code (86)
//     and a diagnostic naming the link, not a hang;
//   - unknown flags and unknown --app names exit 2 instead of running
//     something else (or nothing).
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "bench/driver.h"
#include "src/apps/apps.h"
#include "src/exec/batch.h"
#include "src/exec/executor.h"
#include "src/sim/engine.h"
#include "src/sim/fault.h"
#include "src/util/options.h"

namespace fgdsm {
namespace {

// ---------------------------------------------------------------------------
// FaultConfig parsing.

TEST(FaultConfig, ParsesFullSpec) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse(
      "drop=0.01,dup=0.002,delay=0.1,reorder=0.05,delay-ns=80000,"
      "rto-ns=150000,seed=7,retries=5",
      &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.drop, 0.01);
  EXPECT_DOUBLE_EQ(c.dup, 0.002);
  EXPECT_DOUBLE_EQ(c.delay, 0.1);
  EXPECT_DOUBLE_EQ(c.reorder, 0.05);
  EXPECT_EQ(c.delay_ns, 80000);
  EXPECT_EQ(c.rto_ns, 150000);
  EXPECT_EQ(c.seed, 7u);
  EXPECT_EQ(c.max_retries, 5);
}

TEST(FaultConfig, BareFlagEnablesChaosPlumbingWithZeroRates) {
  std::string err;
  const sim::FaultConfig c = sim::FaultConfig::parse("1", &err);
  EXPECT_TRUE(err.empty()) << err;
  EXPECT_TRUE(c.enabled);
  EXPECT_DOUBLE_EQ(c.drop, 0.0);
}

TEST(FaultConfig, RejectsUnknownKeyAndBadValues) {
  std::string err;
  sim::FaultConfig c = sim::FaultConfig::parse("dorp=0.01", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("dorp"), std::string::npos) << err;

  c = sim::FaultConfig::parse("drop=1.5", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_NE(err.find("drop"), std::string::npos) << err;

  c = sim::FaultConfig::parse("seed=abc", &err);
  EXPECT_FALSE(c.enabled);
  EXPECT_FALSE(err.empty());
}

// ---------------------------------------------------------------------------
// FaultInjector determinism.

TEST(FaultInjector, SameSeedSameVerdictsAnyCallOrder) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop = 0.2;
  cfg.dup = 0.1;
  cfg.delay = 0.3;
  cfg.seed = 99;
  sim::FaultInjector a(cfg, 4, 1000);
  sim::FaultInjector b(cfg, 4, 1000);
  // b interleaves an unrelated link's draws between a's — per-link counters
  // must make link (1,2)'s sequence independent of other links' traffic.
  std::vector<sim::FaultInjector::Decision> va, vb;
  for (int i = 0; i < 200; ++i) va.push_back(a.decide(1, 2));
  for (int i = 0; i < 200; ++i) {
    b.decide(0, 3);
    vb.push_back(b.decide(1, 2));
  }
  int dropped = 0;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(va[i].drop, vb[i].drop) << i;
    EXPECT_EQ(va[i].duplicate, vb[i].duplicate) << i;
    EXPECT_EQ(va[i].extra_delay, vb[i].extra_delay) << i;
    dropped += va[i].drop ? 1 : 0;
  }
  EXPECT_GT(dropped, 0);      // 200 draws at p=.2: zero would be broken
  EXPECT_LT(dropped, 200);
}

TEST(FaultInjector, DifferentSeedsDiffer) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop = 0.5;
  cfg.seed = 1;
  sim::FaultInjector a(cfg, 2, 1000);
  cfg.seed = 2;
  sim::FaultInjector b(cfg, 2, 1000);
  int differ = 0;
  for (int i = 0; i < 100; ++i)
    differ += a.decide(0, 1).drop != b.decide(0, 1).drop ? 1 : 0;
  EXPECT_GT(differ, 0);
}

TEST(FaultInjector, ZeroRatesNeverFault) {
  sim::FaultConfig cfg;
  cfg.enabled = true;
  sim::FaultInjector inj(cfg, 2, 1000);
  for (int i = 0; i < 100; ++i) {
    const auto d = inj.decide(0, 1);
    EXPECT_FALSE(d.drop);
    EXPECT_FALSE(d.duplicate);
    EXPECT_EQ(d.extra_delay, 0);
  }
}

// Engine partition workers call decide() concurrently, each for the sources
// it owns: per-source counter shards must keep that race-free (scripts/ci.sh
// tsan runs this under ThreadSanitizer) and every source's verdicts equal to
// a single-threaded run's.
TEST(FaultInjectorThreads, DisjointSourcesMatchSingleThreadedRun) {
  constexpr int kNodes = 256;
  constexpr int kThreads = 4;
  constexpr int kDraws = 64;
  sim::FaultConfig cfg;
  cfg.enabled = true;
  cfg.drop = 0.2;
  cfg.dup = 0.1;
  cfg.delay = 0.3;
  cfg.reorder = 0.1;
  cfg.seed = 5;
  // Each source sends to a spread of destinations, several times each.
  const auto draws = [&](sim::FaultInjector& inj, int src) {
    std::vector<sim::FaultInjector::Decision> out;
    for (int i = 0; i < kDraws; ++i)
      out.push_back(inj.decide(src, (src * 7 + i * 13) % kNodes));
    return out;
  };
  sim::FaultInjector serial(cfg, kNodes, 1000);
  std::vector<std::vector<sim::FaultInjector::Decision>> want(kNodes);
  for (int src = 0; src < kNodes; ++src) want[src] = draws(serial, src);

  sim::FaultInjector shared(cfg, kNodes, 1000);
  std::vector<std::vector<sim::FaultInjector::Decision>> got(kNodes);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int src = t; src < kNodes; src += kThreads)
        got[src] = draws(shared, src);
    });
  for (std::thread& w : workers) w.join();
  for (int src = 0; src < kNodes; ++src) {
    ASSERT_EQ(got[src].size(), want[src].size());
    for (int i = 0; i < kDraws; ++i) {
      EXPECT_EQ(got[src][i].drop, want[src][i].drop) << src << "/" << i;
      EXPECT_EQ(got[src][i].duplicate, want[src][i].duplicate) << src;
      EXPECT_EQ(got[src][i].extra_delay, want[src][i].extra_delay) << src;
      EXPECT_EQ(got[src][i].dup_delay, want[src][i].dup_delay) << src;
    }
  }
}

// ---------------------------------------------------------------------------
// Strict flag parsing.

TEST(OptionsStrict, ClosestMatchSuggestsPlausibleTyposOnly) {
  const std::vector<std::string> known = {"trace", "scale", "nodes",
                                          "check-coherence"};
  EXPECT_EQ(util::Options::closest_match("tarce", known), "trace");
  EXPECT_EQ(util::Options::closest_match("check-coherance", known),
            "check-coherence");
  EXPECT_EQ(util::Options::closest_match("zzzzzz", known), "");
  EXPECT_EQ(util::Options::closest_match("check-coherence-level", known),
            "check-coherence");
  EXPECT_EQ(util::Options::closest_match("nodesx", known), "nodes");
  EXPECT_EQ(util::Options::closest_match("traces-out", known), "");
}

TEST(OptionsStrictDeathTest, UnknownFlagExits2NamingFlagAndSuggestion) {
  const char* argv[] = {"bench", "--tarce=x.json"};
  util::Options o(2, argv);
  EXPECT_EXIT(o.check_known({"trace", "scale"}),
              ::testing::ExitedWithCode(2),
              "unknown option --tarce \\(did you mean --trace\\?\\)");
}

TEST(OptionsStrict, KnownFlagsPass) {
  const char* argv[] = {"bench", "--trace=x.json", "--scale=0.5"};
  util::Options o(3, argv);
  o.check_known({"trace", "scale"});  // must not exit
}

// The driver's parser (bench/driver.h): `fgdsm-bench <sweep> [flags]`.
bench::Args parse(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "fgdsm-bench");
  return bench::parse(static_cast<int>(argv.size()), argv.data());
}

// An --app that names no workload would filter out every run and print
// empty tables; it is rejected like an unknown flag.
TEST(OptionsStrictDeathTest, UnknownAppExits2WithSuggestion) {
  EXPECT_EXIT(parse({"table3", "--app=jacobo"}), ::testing::ExitedWithCode(2),
              "unknown --app=jacobo \\(did you mean --app=jacobi\\?\\)");
  EXPECT_EXIT(parse({"table3", "--app=xyzzy"}), ::testing::ExitedWithCode(2),
              "unknown --app=xyzzy \\(known: pde, .*spmv\\)");
}

TEST(OptionsStrict, KnownAppsPass) {
  for (const char* arg : {"--app=lu", "--app=spmv"})
    EXPECT_EQ(*parse({"table3", arg}).app, std::string(arg).substr(6));
}

TEST(OptionsStrictDeathTest, FlagTypoExits2WithSuggestion) {
  EXPECT_EXIT(parse({"paper", "--tarce=x.json"}), ::testing::ExitedWithCode(2),
              "unknown option --tarce \\(did you mean --trace\\?\\)");
  // A removed variant of a flag is rejected, not silently accepted.
  EXPECT_EXIT(parse({"paper", "--plan-cache-misses=8"}),
              ::testing::ExitedWithCode(2),
              "unknown option --plan-cache-misses \\(did you mean "
              "--plan-cache\\?\\)");
}

TEST(OptionsStrictDeathTest, BadFaultSpecExits2) {
  EXPECT_EXIT(parse({"table3", "--faults=dorp=0.01"}),
              ::testing::ExitedWithCode(2), "bad --faults spec: .*dorp");
}

TEST(DriverDeathTest, UnknownSweepExits2WithSuggestion) {
  EXPECT_EXIT(parse({"tabel3"}), ::testing::ExitedWithCode(2),
              "unknown sweep tabel3 \\(did you mean table3\\?\\)");
  EXPECT_EXIT(parse({}), ::testing::ExitedWithCode(2), "usage: fgdsm-bench");
}

// Each sweep accepts only its own extra flags.
TEST(DriverDeathTest, FlagOfAnotherSweepExits2) {
  EXPECT_EQ(parse({"irreg", "--pattern=band"}).flags.get("pattern"), "band");
  EXPECT_EXIT(parse({"table3", "--pattern=band"}),
              ::testing::ExitedWithCode(2), "unknown option --pattern");
  EXPECT_EXIT(parse({"selfperf", "--jobs=4"}), ::testing::ExitedWithCode(2),
              "unknown option --jobs");
}

// Run options live in the parsed value, so a second parse in the same
// process starts from the defaults.
TEST(Driver, ParsingTwiceLeaksNoState) {
  const bench::Args first =
      parse({"table3", "--trace=t.json", "--faults=drop=0.1,seed=3",
             "--sim-threads=4", "--plan-cache=0", "--check-coherence",
             "--collectives=binomial", "--checkpoint-every=4"});
  EXPECT_EQ(first.trace_path, "t.json");
  const hpf::Program prog = apps::jacobi(32, 1);
  const exec::RunConfig f = bench::make_spec(first, prog, "o2").config;
  EXPECT_TRUE(f.cluster.faults.enabled);
  EXPECT_GT(f.cluster.watchdog_ns, 0);
  EXPECT_EQ(f.cluster.sim_threads, 4);
  EXPECT_FALSE(f.opt.plan_cache);

  const bench::Args second = parse({"table3"});
  EXPECT_EQ(second.trace_path, "");
  const exec::RunConfig c = bench::make_spec(second, prog, "o2").config;
  EXPECT_FALSE(c.cluster.faults.enabled);
  EXPECT_EQ(c.cluster.watchdog_ns, 0);
  EXPECT_EQ(c.cluster.sim_threads, 1);
  EXPECT_EQ(c.cluster.checkpoint_every, 0);
  EXPECT_EQ(c.cluster.collectives, tempest::Collectives::kFlat);
  EXPECT_FALSE(c.cluster.check_coherence);
  EXPECT_TRUE(c.opt.plan_cache);
  EXPECT_EQ(c.trace_path, "");
  EXPECT_EQ(c.cluster.nnodes, 8);
  EXPECT_TRUE(c.cluster.dual_cpu);
}

// ---------------------------------------------------------------------------
// End-to-end chaos runs.

exec::RunConfig chaos_cfg(const std::string& spec, int nodes = 4) {
  exec::RunConfig c;
  c.cluster.nnodes = nodes;
  c.cluster.check_coherence = true;
  c.opt = core::shmem_opt_full();
  c.gather_arrays = false;
  if (!spec.empty()) {
    std::string err;
    c.cluster.faults = sim::FaultConfig::parse(spec, &err);
    EXPECT_TRUE(err.empty()) << err;
    c.cluster.watchdog_ns = 2'000'000'000;
  }
  return c;
}

TEST(Chaos, ApplicationResultsSurviveFaultsBitIdentically) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult clean = exec::run(prog, chaos_cfg(""));
  const exec::RunResult chaos = exec::run(
      prog, chaos_cfg("drop=0.03,dup=0.01,delay=0.1,reorder=0.05,seed=42"));

  // The channel must hide every fault: same answers, coherence clean.
  ASSERT_EQ(clean.scalars.size(), chaos.scalars.size());
  for (const auto& [name, v] : clean.scalars)
    EXPECT_EQ(v, chaos.scalars.at(name)) << name;

  // And the chaos must actually have happened (else the test is vacuous).
  util::NodeStats t;
  for (const auto& ns : chaos.stats.node) t += ns;
  EXPECT_GT(t.faults_dropped, 0u);
  EXPECT_GT(t.retransmits, 0u);
  // Timing shifts under chaos (it may move either way: delays also change
  // protocol race outcomes), but only timing — results matched above.
  EXPECT_NE(chaos.stats.elapsed_ns, clean.stats.elapsed_ns);
}

TEST(Chaos, SameSeedIsBitIdentical) {
  const auto prog = apps::jacobi(96, 6);
  const char* spec = "drop=0.05,dup=0.02,delay=0.2,reorder=0.1,seed=7";
  const exec::RunResult a = exec::run(prog, chaos_cfg(spec));
  const exec::RunResult b = exec::run(prog, chaos_cfg(spec));
  EXPECT_EQ(a.stats.elapsed_ns, b.stats.elapsed_ns);
  for (std::size_t i = 0; i < a.stats.node.size(); ++i)
    util::NodeStats::visit_fields(
        a.stats.node[i], [&](const char* name, auto v) {
          util::NodeStats::visit_fields(
              b.stats.node[i], [&](const char* name2, auto v2) {
                if (std::string(name) == name2) {
                  EXPECT_EQ(static_cast<double>(v), static_cast<double>(v2))
                      << name << " node " << i;
                }
              });
        });
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

TEST(Chaos, DifferentSeedsChangeTimingNotResults) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult a =
      exec::run(prog, chaos_cfg("drop=0.05,delay=0.2,seed=1"));
  const exec::RunResult b =
      exec::run(prog, chaos_cfg("drop=0.05,delay=0.2,seed=2"));
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
  EXPECT_NE(a.stats.elapsed_ns, b.stats.elapsed_ns);
}

TEST(Chaos, DisabledFaultsArePassive) {
  const auto prog = apps::jacobi(96, 6);
  const exec::RunResult r = exec::run(prog, chaos_cfg(""));
  for (const auto& ns : r.stats.node) {
    EXPECT_EQ(ns.retransmits, 0u);
    EXPECT_EQ(ns.channel_acks, 0u);
    EXPECT_EQ(ns.dup_suppressed, 0u);
    EXPECT_EQ(ns.faults_dropped, 0u);
    EXPECT_EQ(ns.faults_duplicated, 0u);
    EXPECT_EQ(ns.faults_delayed, 0u);
  }
}

TEST(Chaos, MessagePassingModeSurvivesFaultsToo) {
  const auto prog = apps::jacobi(96, 6);
  exec::RunConfig clean = chaos_cfg("");
  clean.opt = core::msg_passing();
  exec::RunConfig chaos = chaos_cfg("drop=0.03,dup=0.01,seed=11");
  chaos.opt = core::msg_passing();
  const exec::RunResult a = exec::run(prog, clean);
  const exec::RunResult b = exec::run(prog, chaos);
  for (const auto& [name, v] : a.scalars)
    EXPECT_EQ(v, b.scalars.at(name)) << name;
}

// ---------------------------------------------------------------------------
// Liveness failure: dead link.

TEST(ChaosDeathTest, DeadLinkExhaustsRetriesAndExitsWithStallCode) {
  const auto prog = apps::jacobi(64, 2);
  EXPECT_EXIT(
      {
        try {
          exec::run(prog, chaos_cfg("drop=1.0,retries=0,seed=3"));
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kStallExitCode),
      "retry budget exhausted on link [0-9]+->[0-9]+");
}

TEST(ChaosDeathTest, WatchdogFiresOnStallAndNamesBlockedTasks) {
  const auto prog = apps::jacobi(64, 2);
  EXPECT_EXIT(
      {
        exec::RunConfig c = chaos_cfg("drop=1.0,retries=30,seed=3");
        c.cluster.watchdog_ns = 1'000'000;  // 1 ms: fire before retries end
        try {
          exec::run(prog, c);
        } catch (const sim::StallError& e) {
          sim::exit_stall(e);
        }
      },
      ::testing::ExitedWithCode(sim::kStallExitCode),
      "watchdog: no compute-task progress");
}

TEST(Chaos, StallReportNamesLinkAndBlockedTasks) {
  const auto prog = apps::jacobi(64, 2);
  try {
    exec::run(prog, chaos_cfg("drop=1.0,retries=0,seed=3"));
    FAIL() << "a fully dead network must stall";
  } catch (const sim::StallError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("retry budget exhausted"), std::string::npos) << what;
    EXPECT_NE(what.find("blocked tasks:"), std::string::npos) << what;
    EXPECT_NE(what.find("node"), std::string::npos) << what;
    EXPECT_NE(what.find("channel state:"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace fgdsm
