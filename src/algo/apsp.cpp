#include "algo/apsp.hpp"

#include "runtime/barrier.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/instrument.hpp"
#include "shm/swmr_matrix.hpp"

#include <algorithm>
#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>

namespace stamp::algo {

Graph make_random_graph(int n, std::uint64_t seed, double density,
                        double max_weight) {
  if (n < 1) throw std::invalid_argument("graph must have >= 1 vertex");
  if (density < 0 || density > 1)
    throw std::invalid_argument("density must be in [0, 1]");
  if (max_weight < 1) throw std::invalid_argument("max_weight must be >= 1");
  Graph g;
  g.n = n;
  g.weight.assign(static_cast<std::size_t>(n) * n, Graph::kInfinity);
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::uniform_real_distribution<double> wdist(1.0, max_weight);
  for (int i = 0; i < n; ++i) {
    g.weight[static_cast<std::size_t>(i) * n + i] = 0;
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      if (coin(rng) < density)
        g.weight[static_cast<std::size_t>(i) * n + j] = wdist(rng);
    }
  }
  return g;
}

std::vector<double> floyd_warshall(const Graph& g) {
  std::vector<double> d = g.weight;
  const int n = g.n;
  for (int k = 0; k < n; ++k)
    for (int i = 0; i < n; ++i) {
      const double dik = d[static_cast<std::size_t>(i) * n + k];
      if (dik == Graph::kInfinity) continue;
      for (int j = 0; j < n; ++j) {
        const double cand = dik + d[static_cast<std::size_t>(k) * n + j];
        double& dij = d[static_cast<std::size_t>(i) * n + j];
        if (cand < dij) dij = cand;
      }
    }
  return d;
}

namespace {

/// Min-plus relaxation of one row over a full snapshot: row_j = min_k
/// (row_k + snapshot_kj), using the process's own (freshest) row for x_ik.
/// Returns true if any entry improved. Charges n additions (fp) and n-1
/// comparisons + 1 assignment (int) per entry, matching
/// analysis::apsp_round_counters.
bool relax_row(runtime::Context& ctx, int n,
               const std::vector<double>& snapshot, std::vector<double>& row) {
  bool changed = false;
  for (int j = 0; j < n; ++j) {
    double best = row[static_cast<std::size_t>(j)];
    for (int k = 0; k < n; ++k) {
      const double cand = row[static_cast<std::size_t>(k)] +
                          snapshot[static_cast<std::size_t>(k) * n + j];
      if (cand < best) best = cand;
    }
    if (best < row[static_cast<std::size_t>(j)]) {
      row[static_cast<std::size_t>(j)] = best;
      changed = true;
    }
  }
  ctx.fp_ops(static_cast<double>(n) * n);
  ctx.int_ops(static_cast<double>(n) * (n - 1) + n);
  return changed;
}

}  // namespace

ApspResult apsp_distributed(const Graph& g, const Topology& topology,
                            const ApspOptions& options) {
  const int n = g.n;
  const int max_rounds = options.max_rounds > 0 ? options.max_rounds : 4 * n + 8;

  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(topology, n,
                                              options.distribution);

  shm::SwmrMatrix<double> x(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j) x.poke(i, j, g.w(i, j));

  // Synchronous variant: per-round change flags (no reset protocol needed).
  std::vector<std::atomic<int>> round_changed(
      static_cast<std::size_t>(max_rounds) + 1);
  for (auto& f : round_changed) f.store(0, std::memory_order_relaxed);
  runtime::PhaseBarrier barrier(n);

  // Asynchronous variant: publication-counter quiescence detection.
  runtime::QuiescenceDetector quiescence(n);

  std::vector<int> rounds_done(static_cast<std::size_t>(n), 0);

  runtime::RunResult run = runtime::run_processes(placement, [&](runtime::Context&
                                                                     ctx) {
    const int i = ctx.id();
    std::vector<double> row(static_cast<std::size_t>(n));
    for (int j = 0; j < n; ++j) row[static_cast<std::size_t>(j)] = g.w(i, j);

    if (options.comm == CommMode::Synchronous) {
      for (int t = 0; t < max_rounds; ++t) {
        const runtime::UnitScope unit(ctx.recorder());
        ctx.int_ops(1);  // while-condition
        bool changed = false;
        {
          const runtime::RoundScope round(ctx.recorder());
          const std::vector<double> snapshot = x.read_all(ctx);
          changed = relax_row(ctx, n, snapshot, row);
          if (changed) x.write_row(ctx, i, row);
        }
        if (changed)
          round_changed[static_cast<std::size_t>(t)].store(
              1, std::memory_order_release);
        barrier.arrive_and_wait();
        rounds_done[static_cast<std::size_t>(i)] = t + 1;
        ctx.int_ops(2);  // termination test
        if (round_changed[static_cast<std::size_t>(t)].load(
                std::memory_order_acquire) == 0)
          break;
      }
      return;
    }

    // Asynchronous: sweep until globally quiescent. Publishing sweeps are
    // bounded by max_rounds (monotone min-plus needs at most n-1); quiet
    // re-sweeps while waiting for peers are not counted against the bound.
    rounds_done[static_cast<std::size_t>(i)] = runtime::run_to_quiescence(
        quiescence, i,
        [&] {
          const runtime::UnitScope unit(ctx.recorder());
          ctx.int_ops(1);
          bool changed = false;
          {
            const runtime::RoundScope round(ctx.recorder());
            const std::vector<double> snapshot = x.read_all(ctx);
            changed = relax_row(ctx, n, snapshot, row);
            if (changed) x.write_row(ctx, i, row);
          }
          ctx.int_ops(2);
          return changed;
        },
        max_rounds);
  });

  // Synchronous: the barrier keeps every process on the same round count, so
  // the last round's change flag decides. Asynchronous: only a budget abort
  // stops short of quiescence.
  const bool converged =
      options.comm == CommMode::Synchronous
          ? round_changed[static_cast<std::size_t>(rounds_done[0] - 1)].load(
                std::memory_order_acquire) == 0
          : !quiescence.aborted();

  ApspResult result{.distances = std::vector<double>(
                        static_cast<std::size_t>(n) * n),
                    .rounds = rounds_done,
                    .converged = converged,
                    .run = std::move(run),
                    .placement = placement};
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      result.distances[static_cast<std::size_t>(i) * n + j] = x.peek(i, j);
  return result;
}

}  // namespace stamp::algo
