#pragma once
/// \file apsp.hpp
/// \brief The paper's third example: all-pairs shortest paths as a
///        distributed STAMP algorithm with attributes
///        [inter_proc, async_exec, async_comm].
///
/// The shared n x n distance matrix is single-writer multiple-reader: process
/// i owns row i, reads the whole matrix each round, relaxes its row with the
/// min-plus update x_ij = min_k (x_ik + x_kj), and writes the row back — no
/// synchronization required. The synchronous variant adds a barrier per round
/// for comparison (the paper's argument is that the asynchronous version can
/// converge in fewer rounds on heterogeneous machines).

#include "core/attributes.hpp"
#include "core/params.hpp"
#include "runtime/executor.hpp"

#include <cstdint>
#include <limits>
#include <vector>

namespace stamp::algo {

/// A dense weighted digraph; missing edges hold `kInfinity`.
struct Graph {
  static constexpr double kInfinity = std::numeric_limits<double>::infinity();

  int n = 0;
  std::vector<double> weight;  ///< row-major n x n; diagonal 0

  [[nodiscard]] double w(int i, int j) const {
    return weight[static_cast<std::size_t>(i) * n + j];
  }
};

/// Random digraph: each ordered pair (i != j) has an edge with probability
/// `density`, weight uniform in [1, max_weight]. Diagonal is 0.
[[nodiscard]] Graph make_random_graph(int n, std::uint64_t seed,
                                      double density = 0.3,
                                      double max_weight = 10.0);

/// Sequential Floyd–Warshall baseline (exact answer).
[[nodiscard]] std::vector<double> floyd_warshall(const Graph& g);

struct ApspOptions {
  CommMode comm = CommMode::Asynchronous;  ///< the paper uses async_comm
  Distribution distribution = Distribution::InterProc;
  int max_rounds = 0;  ///< 0 = 4n + 8 (min-plus converges in <= n-1 rounds)
};

struct ApspResult {
  std::vector<double> distances;  ///< row-major n x n
  std::vector<int> rounds;        ///< per-process rounds executed
  /// Synchronous: no row changed in the last round. Asynchronous: the run
  /// reached quiescence rather than a process running out of max_rounds.
  bool converged = false;
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

/// Distributed STAMP APSP with n processes (one per row). Requires
/// n <= total hardware threads of `topology`.
[[nodiscard]] ApspResult apsp_distributed(const Graph& g,
                                          const Topology& topology,
                                          const ApspOptions& options);

}  // namespace stamp::algo
