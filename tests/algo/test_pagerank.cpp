#include "algo/pagerank.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

namespace stamp::algo {
namespace {

const Topology kTopo{.chips = 1, .processors_per_chip = 8,
                     .threads_per_processor = 4};

TEST(PageRank, ValidatesArguments) {
  const Graph g = make_random_graph(8, 1, 0.5);
  PageRankOptions opt;
  opt.processes = 9;
  EXPECT_THROW((void)pagerank_distributed(g, kTopo, opt), std::invalid_argument);
  opt = PageRankOptions{};
  opt.damping = 1.5;
  EXPECT_THROW((void)pagerank_distributed(g, kTopo, opt), std::invalid_argument);
  opt = PageRankOptions{};
  opt.damping = 0;
  EXPECT_THROW((void)pagerank_distributed(g, kTopo, opt), std::invalid_argument);
}

TEST(PageRank, ReferenceSumsToOne) {
  const Graph g = make_random_graph(12, 61, 0.3);
  const std::vector<double> r = pagerank_reference(g, 0.85, 1e-12, 500);
  const double total = std::accumulate(r.begin(), r.end(), 0.0);
  EXPECT_NEAR(total, 1.0, 1e-6);
  for (double v : r) EXPECT_GT(v, 0);
}

TEST(PageRank, SynchronousMatchesReferenceClosely) {
  const Graph g = make_random_graph(10, 63, 0.35);
  PageRankOptions opt;
  opt.processes = 5;
  opt.comm = CommMode::Synchronous;
  opt.tolerance = 1e-12;
  opt.max_rounds = 500;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  const std::vector<double> expected =
      pagerank_reference(g, opt.damping, opt.tolerance, opt.max_rounds);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(r.ranks[i], expected[i], 1e-9) << "vertex " << i;
}

TEST(PageRank, AsynchronousConvergesToSameFixedPoint) {
  const Graph g = make_random_graph(10, 67, 0.35);
  PageRankOptions opt;
  opt.processes = 5;
  opt.comm = CommMode::Asynchronous;
  opt.tolerance = 1e-12;
  opt.max_rounds = 500;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  EXPECT_TRUE(r.converged);
  const std::vector<double> expected =
      pagerank_reference(g, opt.damping, 1e-13, 1000);
  // Chaotic iteration: same contraction fixed point, looser tolerance.
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(r.ranks[i], expected[i], 1e-6) << "vertex " << i;
}

// Every synchronous round reads exactly the previous iterate (no process
// publishes before all have read), so the run is the reference power
// iteration step for step: same update_vertex, same start, same stop rule,
// hence bit-identical ranks on every run.
TEST(PageRank, SynchronousEqualsTheReferenceExactly) {
  const Graph g = make_random_graph(10, 67, 0.35);
  PageRankOptions opt;
  opt.processes = 5;
  opt.comm = CommMode::Synchronous;
  opt.tolerance = 1e-12;
  opt.max_rounds = 500;
  const std::vector<double> expected =
      pagerank_reference(g, opt.damping, opt.tolerance, opt.max_rounds);
  for (int run = 0; run < 20; ++run) {
    const PageRankResult r = pagerank_distributed(g, kTopo, opt);
    ASSERT_TRUE(r.converged) << "run " << run;
    ASSERT_EQ(r.ranks, expected) << "run " << run;
  }
}

TEST(PageRank, ReportsWhetherItConverged) {
  const Graph g = make_random_graph(10, 67, 0.35);
  PageRankOptions opt;
  opt.processes = 5;
  opt.comm = CommMode::Synchronous;
  opt.tolerance = 1e-12;
  opt.max_rounds = 500;
  EXPECT_TRUE(pagerank_distributed(g, kTopo, opt).converged);

  // From the uniform start every process's first sweep is far above
  // tolerance, so one round (synchronous) or one publishing sweep per process
  // (asynchronous) always runs out before the ranks settle.
  opt.max_rounds = 1;
  for (const CommMode comm : {CommMode::Synchronous, CommMode::Asynchronous}) {
    opt.comm = comm;
    EXPECT_FALSE(pagerank_distributed(g, kTopo, opt).converged) << comm;
  }
}

TEST(PageRank, MassConservedDistributed) {
  const Graph g = make_random_graph(12, 71, 0.3);
  PageRankOptions opt;
  opt.processes = 6;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  EXPECT_NEAR(std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0), 1.0, 1e-6);
}

TEST(PageRank, DanglingVerticesHandled) {
  // A sink vertex (no out-edges) must not leak rank mass.
  Graph g;
  g.n = 4;
  g.weight.assign(16, Graph::kInfinity);
  for (int i = 0; i < 4; ++i) g.weight[static_cast<std::size_t>(i) * 4 + i] = 0;
  g.weight[0 * 4 + 1] = 1;
  g.weight[1 * 4 + 2] = 1;
  g.weight[2 * 4 + 3] = 1;  // 3 is dangling
  PageRankOptions opt;
  opt.processes = 4;
  opt.max_rounds = 300;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  EXPECT_NEAR(std::accumulate(r.ranks.begin(), r.ranks.end(), 0.0), 1.0, 1e-6);
  // Downstream of the chain accumulates more rank than the head.
  EXPECT_GT(r.ranks[3], r.ranks[0]);
}

TEST(PageRank, CountersShowFpHeavyRounds) {
  const Graph g = make_random_graph(8, 73, 0.4);
  PageRankOptions opt;
  opt.processes = 4;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  const CostCounters t = r.run.total_counters();
  EXPECT_GT(t.c_fp, 0);
  EXPECT_GT(t.shm_accesses(), 0);
}

class PageRankSweep
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(PageRankSweep, SynchronousCorrectAcrossShapes) {
  const auto [processes, damping] = GetParam();
  const Graph g = make_random_graph(11, 300 + processes, 0.3);
  PageRankOptions opt;
  opt.processes = processes;
  opt.damping = damping;
  opt.tolerance = 1e-12;
  opt.max_rounds = 600;
  const PageRankResult r = pagerank_distributed(g, kTopo, opt);
  const std::vector<double> expected =
      pagerank_reference(g, damping, opt.tolerance, opt.max_rounds);
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_NEAR(r.ranks[i], expected[i], 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PageRankSweep,
    ::testing::Combine(::testing::Values(1, 2, 5, 11),
                       ::testing::Values(0.5, 0.85, 0.95)));

}  // namespace
}  // namespace stamp::algo
