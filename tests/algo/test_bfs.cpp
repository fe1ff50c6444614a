#include "algo/bfs.hpp"

#include <gtest/gtest.h>

namespace stamp::algo {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(Bfs, ValidatesArguments) {
  const Graph g = make_random_graph(8, 1, 0.5);
  BfsOptions opt;
  opt.processes = 9;
  EXPECT_THROW((void)bfs_distributed(g, kTopo, opt), std::invalid_argument);
  opt = BfsOptions{};
  opt.source = 8;
  EXPECT_THROW((void)bfs_distributed(g, kTopo, opt), std::invalid_argument);
}

TEST(Bfs, ReferenceOnHandBuiltChain) {
  // 0 -> 1 -> 2 -> 3, plus 3 -> 0 back edge; vertex 4 isolated.
  Graph g;
  g.n = 5;
  g.weight.assign(25, Graph::kInfinity);
  for (int i = 0; i < 5; ++i) g.weight[static_cast<std::size_t>(i) * 5 + i] = 0;
  g.weight[0 * 5 + 1] = 1;
  g.weight[1 * 5 + 2] = 1;
  g.weight[2 * 5 + 3] = 1;
  g.weight[3 * 5 + 0] = 1;
  const std::vector<int> d = bfs_reference(g, 0);
  EXPECT_EQ(d, (std::vector<int>{0, 1, 2, 3, -1}));
}

TEST(Bfs, DistributedMatchesReferenceSynchronous) {
  const Graph g = make_random_graph(12, 51, 0.25);
  BfsOptions opt;
  opt.processes = 6;
  opt.comm = CommMode::Synchronous;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_EQ(r.depth, bfs_reference(g, opt.source));
}

TEST(Bfs, DistributedMatchesReferenceAsynchronous) {
  const Graph g = make_random_graph(12, 53, 0.25);
  BfsOptions opt;
  opt.processes = 6;
  opt.comm = CommMode::Asynchronous;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.depth, bfs_reference(g, opt.source));
}

TEST(Bfs, ReportsWhetherItConverged) {
  // Chain 0 -> 1 -> 2 -> 3 from source 0: vertex 1 gets depth 1 on the first
  // sweep, so one round (synchronous) or one publishing sweep (asynchronous)
  // runs out before the depths settle.
  Graph g;
  g.n = 4;
  g.weight.assign(16, Graph::kInfinity);
  for (int i = 0; i < 4; ++i) g.weight[static_cast<std::size_t>(i) * 4 + i] = 0;
  for (int i = 0; i + 1 < 4; ++i)
    g.weight[static_cast<std::size_t>(i) * 4 + i + 1] = 1;
  BfsOptions opt;
  opt.processes = 2;
  opt.max_rounds = 1;
  for (const CommMode comm : {CommMode::Synchronous, CommMode::Asynchronous}) {
    opt.comm = comm;
    EXPECT_FALSE(bfs_distributed(g, kTopo, opt).converged) << comm;
  }
}

TEST(Bfs, UnreachableVerticesStayMinusOne) {
  Graph g;
  g.n = 6;
  g.weight.assign(36, Graph::kInfinity);
  for (int i = 0; i < 6; ++i) g.weight[static_cast<std::size_t>(i) * 6 + i] = 0;
  g.weight[0 * 6 + 1] = 1;  // only 0 -> 1
  BfsOptions opt;
  opt.processes = 3;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_EQ(r.depth[0], 0);
  EXPECT_EQ(r.depth[1], 1);
  for (int v = 2; v < 6; ++v) EXPECT_EQ(r.depth[static_cast<std::size_t>(v)], -1);
}

TEST(Bfs, NonDefaultSource) {
  const Graph g = make_random_graph(10, 57, 0.3);
  BfsOptions opt;
  opt.processes = 5;
  opt.source = 7;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_EQ(r.depth, bfs_reference(g, 7));
  EXPECT_EQ(r.depth[7], 0);
}

TEST(Bfs, SharedReadsAreCounted) {
  const Graph g = make_random_graph(8, 59, 0.4);
  BfsOptions opt;
  opt.processes = 4;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_GT(r.run.total_counters().shm_accesses(), 0);
}

class BfsSweep
    : public ::testing::TestWithParam<std::tuple<int, double, CommMode>> {};

TEST_P(BfsSweep, MatchesReference) {
  const auto [processes, density, comm] = GetParam();
  const Graph g = make_random_graph(13, 200 + processes, density);
  BfsOptions opt;
  opt.processes = processes;
  opt.comm = comm;
  const BfsResult r = bfs_distributed(g, kTopo, opt);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.depth, bfs_reference(g, opt.source))
      << "p=" << processes << " density=" << density;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 13),
                       ::testing::Values(0.1, 0.3, 0.7),
                       ::testing::Values(CommMode::Synchronous,
                                         CommMode::Asynchronous)));

}  // namespace
}  // namespace stamp::algo
