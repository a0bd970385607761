#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "src/apps/apps.h"
#include "src/exec/executor.h"
#include "src/tempest/cluster.h"

namespace fgdsm::tempest {
namespace {

ClusterConfig cfg(int nnodes, Collectives topo, int group = 0) {
  ClusterConfig c;
  c.nnodes = nnodes;
  c.collectives = topo;
  c.collective_group = group;
  return c;
}

const Collectives kTreeShapes[] = {Collectives::kBinary,
                                   Collectives::kBinomial,
                                   Collectives::kTwoLevel};
const Collectives kAllShapes[] = {Collectives::kFlat, Collectives::kBinary,
                                  Collectives::kBinomial,
                                  Collectives::kTwoLevel};

// The old implementation was a binary tree while its comments claimed
// "binomial" — pin down both shapes explicitly at a non-power-of-two node
// count so the labels can never drift from the structure again.
TEST(TreeCollectives, BinaryShapeAtTwelveNodes) {
  const int n = 12;
  using V = std::vector<int>;
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinary, 0, n),
            (V{1, 2}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinary, 1, n),
            (V{3, 4}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinary, 4, n),
            (V{9, 10}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinary, 5, n),
            (V{11}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinary, 6, n), V{});
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinary, 11, n), 5);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinary, 9, n), 4);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinary, 2, n), 0);
  EXPECT_EQ(Cluster::collective_depth(Collectives::kBinary, n), 3);
}

TEST(TreeCollectives, BinomialShapeAtTwelveNodes) {
  const int n = 12;
  using V = std::vector<int>;
  // Root: every power of two below n. Node i: i | (1<<k) for bits below
  // i's lowest set bit. This is NOT the binary tree above.
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 0, n),
            (V{1, 2, 4, 8}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 2, n),
            (V{3}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 4, n),
            (V{5, 6}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 6, n),
            (V{7}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 8, n),
            (V{9, 10}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 10, n),
            (V{11}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kBinomial, 1, n), V{});
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinomial, 11, n), 10);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinomial, 10, n), 8);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinomial, 7, n), 6);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinomial, 6, n), 4);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kBinomial, 8, n), 0);
  EXPECT_EQ(Cluster::collective_depth(Collectives::kBinomial, n), 3);
}

TEST(TreeCollectives, TwoLevelShapeAtTenNodesGroupFour) {
  const int n = 10, g = 4;  // leaders 0, 4, 8
  using V = std::vector<int>;
  EXPECT_EQ(Cluster::collective_children(Collectives::kTwoLevel, 0, n, g),
            (V{1, 2, 3, 4, 8}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kTwoLevel, 4, n, g),
            (V{5, 6, 7}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kTwoLevel, 8, n, g),
            (V{9}));
  EXPECT_EQ(Cluster::collective_children(Collectives::kTwoLevel, 3, n, g),
            V{});
  EXPECT_EQ(Cluster::collective_parent(Collectives::kTwoLevel, 9, n, g), 8);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kTwoLevel, 4, n, g), 0);
  EXPECT_EQ(Cluster::collective_parent(Collectives::kTwoLevel, 3, n, g), 0);
  EXPECT_EQ(Cluster::collective_depth(Collectives::kTwoLevel, n, g), 2);
  // Auto group size: ceil(sqrt(n)).
  EXPECT_EQ(Cluster::resolve_group(10, 0), 4);
  EXPECT_EQ(Cluster::resolve_group(64, 0), 8);
  EXPECT_EQ(Cluster::resolve_group(10, 3), 3);
}

// Structural invariants every shape must satisfy at awkward node counts:
// parent/children are mutual inverses, children ascend, and the union of
// all child lists covers exactly nodes 1..n-1 (a spanning tree rooted at 0).
TEST(TreeCollectives, ShapesAreSpanningTrees) {
  for (Collectives topo : kTreeShapes) {
    for (int n : {2, 3, 5, 6, 7, 12, 13, 64, 100, 129}) {
      std::set<int> covered;
      for (int i = 0; i < n; ++i) {
        int prev = 0;
        for (int c : Cluster::collective_children(topo, i, n)) {
          EXPECT_GT(c, i) << to_string(topo) << " n=" << n;
          EXPECT_LT(c, n) << to_string(topo) << " n=" << n;
          EXPECT_GT(c, prev) << to_string(topo) << " n=" << n
                             << ": children not ascending";
          prev = c;
          EXPECT_EQ(Cluster::collective_parent(topo, c, n), i)
              << to_string(topo) << " n=" << n << " child " << c;
          EXPECT_TRUE(covered.insert(c).second)
              << to_string(topo) << " n=" << n << ": node " << c
              << " has two parents";
        }
      }
      EXPECT_EQ(static_cast<int>(covered.size()), n - 1)
          << to_string(topo) << " n=" << n << ": tree does not span";
    }
  }
}

TEST(TreeCollectives, BarrierSynchronizes) {
  for (Collectives topo : kAllShapes) {
    for (int nnodes : {2, 3, 5, 8}) {
      Cluster c(cfg(nnodes, topo));
      c.allocate("pad", 64);
      std::vector<sim::Time> before(nnodes), after(nnodes);
      c.run([&](Node& n, sim::Task& t) {
        for (int r = 0; r < 4; ++r) {
          t.charge(1000 * (n.id() + 1) * (r + 1));
          if (r == 2) before[n.id()] = t.now();
          n.barrier(t);
          if (r == 2) after[n.id()] = t.now();
        }
      });
      const sim::Time last = *std::max_element(before.begin(), before.end());
      for (int i = 0; i < nnodes; ++i)
        EXPECT_GE(after[i], last) << to_string(topo) << " nnodes=" << nnodes
                                  << " node " << i;
    }
  }
}

TEST(TreeCollectives, ReduceMatchesCentralized) {
  for (auto op : {Node::ReduceOp::kSum, Node::ReduceOp::kMax,
                  Node::ReduceOp::kMin}) {
    double central = 0;
    {
      Cluster c(cfg(7, Collectives::kFlat));
      c.allocate("pad", 64);
      std::vector<double> results(7);
      c.run([&](Node& n, sim::Task& t) {
        const double v = std::sin(1.7 * (n.id() + 1)) * 10.0;
        results[n.id()] = n.allreduce(t, v, op);
      });
      for (int i = 1; i < 7; ++i) EXPECT_EQ(results[i], results[0]);
      central = results[0];
    }
    for (Collectives topo : kTreeShapes) {
      Cluster c(cfg(7, topo));
      c.allocate("pad", 64);
      std::vector<double> results(7);
      c.run([&](Node& n, sim::Task& t) {
        const double v = std::sin(1.7 * (n.id() + 1)) * 10.0;
        results[n.id()] = n.allreduce(t, v, op);
      });
      for (int i = 1; i < 7; ++i)
        EXPECT_EQ(results[i], results[0]);  // same value everywhere
      EXPECT_NEAR(central, results[0], 1e-12 * (1.0 + std::abs(central)))
          << to_string(topo);
    }
  }
}

// The paper's coordinator reaches itself by loopback: under kFlat node 0
// sends its own arrival and contribution to itself and hears its own
// release and result, like every other node. Per collective it therefore
// sends 1 + n messages (its own, then one to each node), and the
// synchronization times below were recorded from the separate flat handler
// set this walk replaced.
TEST(TreeCollectives, FlatRootMessagesItself) {
  const int n = 8;
  Cluster c(cfg(n, Collectives::kFlat));
  c.allocate("pad", 64);
  std::vector<double> sums(n);
  const util::RunStats rs = c.run([&](Node& nd, sim::Task& t) {
    t.charge(1000 * (nd.id() + 1));
    nd.barrier(t);
    t.charge(500 * (n - nd.id()));
    sums[nd.id()] = nd.allreduce(t, nd.id() + 0.5);
  });
  EXPECT_EQ(rs.node[0].messages_sent, 2u * (1 + n));
  for (int i = 1; i < n; ++i) EXPECT_EQ(rs.node[i].messages_sent, 2u);
  const std::vector<std::int64_t> sync_ns = {169900, 156200, 159700, 163200,
                                            166700, 170200, 173700, 177200};
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(rs.node[i].sync_ns, sync_ns[i]) << "node " << i;
    EXPECT_EQ(sums[i], 32.0) << "node " << i;
  }
}

TEST(TreeCollectives, LatencyVsSerializationCrossover) {
  // The tree replaces the coordinator's serial release broadcast with extra
  // wire hops: on the paper's high-latency Myrinet (10 us hops) the
  // centralized barrier actually wins at 8 nodes; when the wire is cheap,
  // the tree's reduced serialization wins. Both regimes must hold.
  auto barrier_time = [&](Collectives topo, sim::Time wire) {
    ClusterConfig c8 = cfg(8, topo);
    c8.costs.wire_latency = wire;
    Cluster c(c8);
    c.allocate("pad", 64);
    sim::Time total = 0;
    c.run([&](Node& n, sim::Task& t) {
      for (int r = 0; r < 10; ++r) n.barrier(t);
      if (n.id() == 0) total = t.now();
    });
    return total;
  };
  EXPECT_GE(barrier_time(Collectives::kBinary, 10 * sim::kUs),
            barrier_time(Collectives::kFlat, 10 * sim::kUs));
  EXPECT_LE(barrier_time(Collectives::kBinary, 1 * sim::kUs),
            barrier_time(Collectives::kFlat, 1 * sim::kUs));
}

TEST(TreeCollectives, WholeAppAgrees) {
  // jacobi under every tree topology must produce the same arrays as the
  // centralized coordinator.
  const auto prog = apps::jacobi(64, 4);
  exec::RunConfig a;
  a.cluster.nnodes = 4;
  a.opt = core::shmem_opt_full();
  a.gather_arrays = true;
  const auto ra = exec::run(prog, a);
  for (Collectives topo : kTreeShapes) {
    exec::RunConfig b = a;
    b.cluster.collectives = topo;
    const auto rb = exec::run(prog, b);
    EXPECT_EQ(ra.arrays.at("u"), rb.arrays.at("u")) << to_string(topo);
    EXPECT_NEAR(ra.scalars.at("checksum"), rb.scalars.at("checksum"),
                1e-9 * std::abs(ra.scalars.at("checksum")))
        << to_string(topo);
  }
}

TEST(TreeCollectives, ParseFlag) {
  Collectives c = Collectives::kFlat;
  int g = 0;
  EXPECT_TRUE(parse_collectives("binomial", &c, &g));
  EXPECT_EQ(c, Collectives::kBinomial);
  EXPECT_TRUE(parse_collectives("twolevel:16", &c, &g));
  EXPECT_EQ(c, Collectives::kTwoLevel);
  EXPECT_EQ(g, 16);
  EXPECT_TRUE(parse_collectives("flat", &c, &g));
  EXPECT_EQ(c, Collectives::kFlat);
  EXPECT_FALSE(parse_collectives("binominal", &c, &g));
  EXPECT_FALSE(parse_collectives("twolevel:x", &c, &g));
}

}  // namespace
}  // namespace fgdsm::tempest
