#pragma once
/// \file bfs.hpp
/// \brief Level-synchronous and asynchronous parallel BFS over the
///        single-writer multi-reader shared-memory pattern.
///
/// Vertices are block-distributed; process i owns the distance entries of its
/// block (one SWMR row per process). The synchronous variant advances one
/// frontier level per barrier-separated round; the asynchronous variant
/// sweeps without barriers (label-correcting), which is correct because
/// distances only decrease — the same monotonicity argument as the paper's
/// APSP example. Attributes: [inter_proc, async_exec, synch_comm|async_comm].

#include "algo/apsp.hpp"  // Graph
#include "core/attributes.hpp"
#include "core/params.hpp"
#include "runtime/executor.hpp"

#include <vector>

namespace stamp::algo {

struct BfsOptions {
  int processes = 8;
  int source = 0;
  CommMode comm = CommMode::Synchronous;
  Distribution distribution = Distribution::InterProc;
  int max_rounds = 0;  ///< 0 = derive from n
};

struct BfsResult {
  std::vector<int> depth;  ///< hop distance from source; -1 = unreachable
  std::vector<int> rounds;
  /// Synchronous: no depth changed in the last round. Asynchronous: the run
  /// reached quiescence rather than a process running out of max_rounds.
  bool converged = false;
  runtime::RunResult run;
  runtime::PlacementMap placement;
};

/// Hop-count BFS treating g's finite-weight edges as unit edges.
[[nodiscard]] BfsResult bfs_distributed(const Graph& g, const Topology& topology,
                                        const BfsOptions& options);

/// Sequential reference BFS.
[[nodiscard]] std::vector<int> bfs_reference(const Graph& g, int source);

}  // namespace stamp::algo
