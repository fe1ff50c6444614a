#include "algo/bfs.hpp"

#include "runtime/barrier.hpp"
#include "runtime/quiescence.hpp"
#include "runtime/instrument.hpp"
#include "shm/swmr_matrix.hpp"

#include <atomic>
#include <deque>
#include <stdexcept>

namespace stamp::algo {
namespace {

struct Block {
  int begin = 0;
  int end = 0;
};

Block block_of(int n, int p, int rank) {
  const int base = n / p;
  const int extra = n % p;
  Block b;
  b.begin = rank * base + std::min(rank, extra);
  b.end = b.begin + base + (rank < extra ? 1 : 0);
  return b;
}

constexpr int kUnreached = 1 << 29;

}  // namespace

std::vector<int> bfs_reference(const Graph& g, int source) {
  std::vector<int> depth(static_cast<std::size_t>(g.n), -1);
  std::deque<int> frontier{source};
  depth[static_cast<std::size_t>(source)] = 0;
  while (!frontier.empty()) {
    const int u = frontier.front();
    frontier.pop_front();
    for (int v = 0; v < g.n; ++v) {
      if (u == v || g.w(u, v) == Graph::kInfinity) continue;
      if (depth[static_cast<std::size_t>(v)] < 0) {
        depth[static_cast<std::size_t>(v)] = depth[static_cast<std::size_t>(u)] + 1;
        frontier.push_back(v);
      }
    }
  }
  return depth;
}

BfsResult bfs_distributed(const Graph& g, const Topology& topology,
                          const BfsOptions& options) {
  const int n = g.n;
  const int p = options.processes;
  if (p < 1 || p > n) throw std::invalid_argument("bfs: need 1 <= processes <= n");
  if (options.source < 0 || options.source >= n)
    throw std::invalid_argument("bfs: source out of range");
  const int max_rounds =
      options.max_rounds > 0 ? options.max_rounds : 4 * n + 8;

  const runtime::PlacementMap placement =
      runtime::PlacementMap::for_distribution(topology, p,
                                              options.distribution);

  // depth[v] lives in the row of v's owner: row r spans that block's
  // vertices. One row per process, width = widest block.
  std::vector<Block> blocks(static_cast<std::size_t>(p));
  int widest = 0;
  for (int r = 0; r < p; ++r) {
    blocks[static_cast<std::size_t>(r)] = block_of(n, p, r);
    widest = std::max(widest, blocks[static_cast<std::size_t>(r)].end -
                                  blocks[static_cast<std::size_t>(r)].begin);
  }
  shm::SwmrMatrix<int> depth(p, std::max(widest, 1), kUnreached);

  auto owner_of = [&](int v) {
    for (int r = 0; r < p; ++r)
      if (v >= blocks[static_cast<std::size_t>(r)].begin &&
          v < blocks[static_cast<std::size_t>(r)].end)
        return r;
    return p - 1;
  };
  const int source_owner = owner_of(options.source);
  depth.poke(source_owner,
             options.source - blocks[static_cast<std::size_t>(source_owner)].begin,
             0);

  runtime::PhaseBarrier barrier(p);
  std::vector<std::atomic<int>> round_changed(static_cast<std::size_t>(max_rounds));
  for (auto& f : round_changed) f.store(0, std::memory_order_relaxed);
  runtime::QuiescenceDetector quiescence(p);

  std::vector<int> rounds_done(static_cast<std::size_t>(p), 0);

  runtime::RunResult run = runtime::run_processes(placement, [&](runtime::Context&
                                                                     ctx) {
    const int me = ctx.id();
    const Block block = blocks[static_cast<std::size_t>(me)];
    const int width = block.end - block.begin;

    // One relaxation sweep of the owned block: depth[v] = min over in-edges
    // (u, v) of depth[u] + 1. Returns true if any entry improved.
    auto sweep = [&](std::vector<int>& local) {
      // Snapshot all owners' rows (instrumented reads).
      const std::vector<int> snapshot = depth.read_all(ctx);
      auto snap_depth = [&](int v) {
        const int r = owner_of(v);
        return snapshot[static_cast<std::size_t>(r) * depth.cols() +
                        (v - blocks[static_cast<std::size_t>(r)].begin)];
      };
      bool changed = false;
      for (int v = block.begin; v < block.end; ++v) {
        int best = local[static_cast<std::size_t>(v - block.begin)];
        for (int u = 0; u < n; ++u) {
          if (u == v || g.w(u, v) == Graph::kInfinity) continue;
          const int cand = snap_depth(u) + 1;
          if (cand < best) best = cand;
        }
        if (best < local[static_cast<std::size_t>(v - block.begin)]) {
          local[static_cast<std::size_t>(v - block.begin)] = best;
          changed = true;
        }
      }
      ctx.int_ops(static_cast<double>(width) * n);
      return changed;
    };

    std::vector<int> local(static_cast<std::size_t>(std::max(width, 1)),
                           kUnreached);
    for (int v = block.begin; v < block.end; ++v)
      local[static_cast<std::size_t>(v - block.begin)] =
          depth.peek(me, v - block.begin);

    if (options.comm == CommMode::Synchronous) {
      for (int t = 0; t < max_rounds; ++t) {
        const runtime::UnitScope unit(ctx.recorder());
        ctx.int_ops(1);
        bool changed = false;
        {
          const runtime::RoundScope round(ctx.recorder());
          changed = sweep(local);
          if (changed) {
            for (int v = block.begin; v < block.end; ++v)
              depth.write(ctx, me, v - block.begin,
                          local[static_cast<std::size_t>(v - block.begin)]);
          }
        }
        if (changed)
          round_changed[static_cast<std::size_t>(t)].store(
              1, std::memory_order_release);
        barrier.arrive_and_wait();
        rounds_done[static_cast<std::size_t>(me)] = t + 1;
        ctx.int_ops(2);
        if (round_changed[static_cast<std::size_t>(t)].load(
                std::memory_order_acquire) == 0)
          break;
      }
      return;
    }

    // Asynchronous label-correcting sweeps with quiescence detection.
    rounds_done[static_cast<std::size_t>(me)] = runtime::run_to_quiescence(
        quiescence, me,
        [&] {
          const runtime::UnitScope unit(ctx.recorder());
          ctx.int_ops(1);
          bool changed = false;
          {
            const runtime::RoundScope round(ctx.recorder());
            changed = sweep(local);
            if (changed) {
              for (int v = block.begin; v < block.end; ++v)
                depth.write(ctx, me, v - block.begin,
                            local[static_cast<std::size_t>(v - block.begin)]);
            }
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

  BfsResult result{.depth = std::vector<int>(static_cast<std::size_t>(n), -1),
                   .rounds = rounds_done,
                   .converged = converged,
                   .run = std::move(run),
                   .placement = placement};
  for (int r = 0; r < p; ++r) {
    const Block block = blocks[static_cast<std::size_t>(r)];
    for (int v = block.begin; v < block.end; ++v) {
      const int d = depth.peek(r, v - block.begin);
      result.depth[static_cast<std::size_t>(v)] = d >= kUnreached ? -1 : d;
    }
  }
  return result;
}

}  // namespace stamp::algo
