#include "algo/apsp.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace stamp::algo {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(Graph, GeneratorValidates) {
  EXPECT_THROW(make_random_graph(0, 1), std::invalid_argument);
  EXPECT_THROW(make_random_graph(4, 1, -0.5), std::invalid_argument);
  EXPECT_THROW(make_random_graph(4, 1, 0.5, 0.5), std::invalid_argument);
}

TEST(Graph, GeneratorDeterministicWithDiagonalZero) {
  const Graph a = make_random_graph(10, 5, 0.4);
  const Graph b = make_random_graph(10, 5, 0.4);
  EXPECT_EQ(a.weight, b.weight);
  for (int i = 0; i < a.n; ++i) EXPECT_DOUBLE_EQ(a.w(i, i), 0);
}

TEST(FloydWarshall, TinyGraphByHand) {
  // 0 -> 1 (5), 1 -> 2 (3), 0 -> 2 (20): best 0->2 is 8.
  Graph g;
  g.n = 3;
  g.weight = {0, 5, 20, Graph::kInfinity, 0, 3, Graph::kInfinity,
              Graph::kInfinity, 0};
  const std::vector<double> d = floyd_warshall(g);
  EXPECT_DOUBLE_EQ(d[0 * 3 + 2], 8);
  EXPECT_DOUBLE_EQ(d[0 * 3 + 1], 5);
  EXPECT_TRUE(std::isinf(d[1 * 3 + 0]));
}

TEST(FloydWarshall, TriangleInequalityHolds) {
  const Graph g = make_random_graph(12, 17, 0.5);
  const std::vector<double> d = floyd_warshall(g);
  const int n = g.n;
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      for (int k = 0; k < n; ++k)
        EXPECT_LE(d[static_cast<std::size_t>(i) * n + j],
                  d[static_cast<std::size_t>(i) * n + k] +
                      d[static_cast<std::size_t>(k) * n + j] + 1e-9);
}

TEST(ApspDistributed, SynchronousMatchesFloydWarshall) {
  const Graph g = make_random_graph(10, 23, 0.35);
  ApspOptions opt;
  opt.comm = CommMode::Synchronous;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  const std::vector<double> exact = floyd_warshall(g);
  ASSERT_EQ(r.distances.size(), exact.size());
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_DOUBLE_EQ(r.distances[i], exact[i]) << "index " << i;
}

TEST(ApspDistributed, AsynchronousMatchesFloydWarshall) {
  const Graph g = make_random_graph(10, 29, 0.35);
  ApspOptions opt;
  opt.comm = CommMode::Asynchronous;
  opt.max_rounds = 200;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  EXPECT_TRUE(r.converged);
  const std::vector<double> exact = floyd_warshall(g);
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_DOUBLE_EQ(r.distances[i], exact[i]) << "index " << i;
}

TEST(ApspDistributed, ReportsWhetherItConverged) {
  // Chain 0 -> 1 -> 2 -> 3: row 0 gains x_02 = 2 on its first sweep, so one
  // round (synchronous) or one publishing sweep (asynchronous) runs out
  // before the rows settle.
  Graph g;
  g.n = 4;
  g.weight.assign(16, Graph::kInfinity);
  for (int i = 0; i < 4; ++i) g.weight[static_cast<std::size_t>(i) * 4 + i] = 0;
  for (int i = 0; i + 1 < 4; ++i)
    g.weight[static_cast<std::size_t>(i) * 4 + i + 1] = 1;
  ApspOptions opt;
  opt.max_rounds = 1;
  for (const CommMode comm : {CommMode::Synchronous, CommMode::Asynchronous}) {
    opt.comm = comm;
    EXPECT_FALSE(apsp_distributed(g, kTopo, opt).converged) << comm;
  }
}

TEST(ApspDistributed, DisconnectedGraphKeepsInfinity) {
  Graph g;
  g.n = 4;
  g.weight.assign(16, Graph::kInfinity);
  for (int i = 0; i < 4; ++i) g.weight[static_cast<std::size_t>(i) * 4 + i] = 0;
  g.weight[0 * 4 + 1] = 2;  // only edge
  ApspOptions opt;
  opt.comm = CommMode::Synchronous;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  EXPECT_DOUBLE_EQ(r.distances[0 * 4 + 1], 2);
  EXPECT_TRUE(std::isinf(r.distances[1 * 4 + 0]));
  EXPECT_TRUE(std::isinf(r.distances[2 * 4 + 3]));
}

TEST(ApspDistributed, SharedAccessesAreCounted) {
  const int n = 6;
  const Graph g = make_random_graph(n, 31, 0.5);
  ApspOptions opt;
  opt.comm = CommMode::Synchronous;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  for (int p = 0; p < n; ++p) {
    const CostCounters t =
        r.run.recorders[static_cast<std::size_t>(p)].totals();
    const double rounds = r.rounds[static_cast<std::size_t>(p)];
    ASSERT_GT(rounds, 0);
    // Each round reads the whole matrix.
    EXPECT_DOUBLE_EQ(t.d_r_a + t.d_r_e, rounds * n * n);
    // Writes only when the row improved: bounded by rounds * n.
    EXPECT_LE(t.d_w_a + t.d_w_e, rounds * n);
  }
}

TEST(ApspDistributed, InterProcPlacementChargesMostReadsInter) {
  const int n = 6;
  const Graph g = make_random_graph(n, 37, 0.5);
  ApspOptions opt;
  opt.comm = CommMode::Synchronous;
  opt.distribution = Distribution::InterProc;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  const CostCounters t = r.run.recorders[0].totals();
  EXPECT_GT(t.d_r_e, t.d_r_a);  // only the own row is intra
}

TEST(ApspDistributed, SyncTerminatesWithinDiameterPlusOneRounds) {
  const Graph g = make_random_graph(12, 41, 0.6);  // dense: small diameter
  ApspOptions opt;
  opt.comm = CommMode::Synchronous;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  for (int rounds : r.rounds) {
    EXPECT_GT(rounds, 0);
    EXPECT_LE(rounds, g.n + 1);
  }
}

// Sweep density and size; both variants must agree with Floyd-Warshall.
class ApspSweep
    : public ::testing::TestWithParam<std::tuple<int, double, CommMode>> {};

TEST_P(ApspSweep, CorrectAcrossShapes) {
  const auto [n, density, comm] = GetParam();
  const Graph g = make_random_graph(n, 100 + n, density);
  ApspOptions opt;
  opt.comm = comm;
  opt.max_rounds = 40 * n;
  const ApspResult r = apsp_distributed(g, kTopo, opt);
  EXPECT_TRUE(r.converged);
  const std::vector<double> exact = floyd_warshall(g);
  for (std::size_t i = 0; i < exact.size(); ++i)
    EXPECT_DOUBLE_EQ(r.distances[i], exact[i]);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ApspSweep,
    ::testing::Combine(::testing::Values(2, 5, 9, 14),
                       ::testing::Values(0.1, 0.4, 0.9),
                       ::testing::Values(CommMode::Synchronous,
                                         CommMode::Asynchronous)));

}  // namespace
}  // namespace stamp::algo
