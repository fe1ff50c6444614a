#pragma once
/// \file pagerank.hpp
/// \brief PageRank-style damped iteration — a second iterative-fixed-point
///        workload (after Jacobi/APSP) exercising the SWMR shared-memory
///        pattern with floating-point convergence.
///
/// Process i owns a block of rank entries. Synchronous variant: barriered
/// power iteration (every round sees exactly the previous iterate, like the
/// paper's Jacobi). Asynchronous variant: chaotic iteration — processes sweep
/// at their own pace reading whatever ranks are published; the damped
/// iteration is a contraction, so it still converges to the same fixed point
/// (within tolerance rather than bitwise). Either variant can run out of its
/// round budget first; `PageRankResult::converged` is false when it does.

#include "algo/apsp.hpp"  // Graph
#include "core/attributes.hpp"
#include "core/params.hpp"
#include "runtime/executor.hpp"

#include <vector>

namespace stamp::algo {

struct PageRankOptions {
  int processes = 8;
  double damping = 0.85;
  double tolerance = 1e-10;  ///< max |r_v(t+1) - r_v(t)| termination
  /// Synchronous: the number of barriered rounds. Asynchronous: each process
  /// may publish `processes × max_rounds` sweeps (quiet re-sweeps are not
  /// counted); a process that runs out abandons the whole run. The budget
  /// scales with the process count because a chaotic sweep republishes
  /// whenever any of the p−1 peers' publications moved its block, so one
  /// synchronous round's worth of progress can cost up to p publications.
  int max_rounds = 200;
  CommMode comm = CommMode::Synchronous;
  Distribution distribution = Distribution::InterProc;
};

struct PageRankResult {
  std::vector<double> ranks;
  std::vector<int> rounds;
  /// Synchronous: the last round had every process under tolerance.
  /// Asynchronous: the run reached quiescence rather than a process running
  /// out of its publishing budget.
  bool converged = false;
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

/// Distributed PageRank over g's finite-weight edges (weights ignored;
/// dangling vertices redistribute uniformly).
[[nodiscard]] PageRankResult pagerank_distributed(const Graph& g,
                                                  const Topology& topology,
                                                  const PageRankOptions& options);

/// Sequential reference power iteration with the same parameters.
[[nodiscard]] std::vector<double> pagerank_reference(const Graph& g,
                                                     double damping,
                                                     double tolerance,
                                                     int max_rounds);

}  // namespace stamp::algo
