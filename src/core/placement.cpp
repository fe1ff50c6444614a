#include "core/placement.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace stamp {

Cost process_cost_in_group(const ProcessProfile& prof, int group_size,
                           int total, const MachineModel& machine) noexcept {
  const int peers = total - 1;
  const double intra_fraction =
      peers > 0 ? static_cast<double>(group_size - 1) / peers : 0.0;
  const CostCounters per_unit = prof.split(intra_fraction);
  ProcessCounts pc;
  pc.intra = group_size - 1;
  pc.inter = total - group_size;
  return s_round_cost(per_unit, machine.params, machine.energy, pc)
      .scaled(prof.units);
}

namespace {

/// Shorthand for the public kernel (kept: the call sites below predate it).
Cost cost_in_group(const ProcessProfile& prof, int group_size, int total,
                   const MachineModel& machine) {
  return process_cost_in_group(prof, group_size, total, machine);
}

PlacementResult finish(std::span<const ProcessProfile> profiles,
                       Placement placement, const MachineModel& machine,
                       Objective objective, std::string strategy,
                       long long examined) {
  PlacementResult r;
  r.eval = evaluate_placement(profiles, placement, machine, objective);
  r.strategy = std::move(strategy);
  r.placements_examined = examined;
  return r;
}

bool uniform(std::span<const ProcessProfile> profiles) {
  return std::adjacent_find(profiles.begin(), profiles.end(),
                            std::not_equal_to<>{}) == profiles.end();
}

}  // namespace

CostCounters ProcessProfile::split(double intra_fraction) const noexcept {
  const double f = std::clamp(intra_fraction, 0.0, 1.0);
  CostCounters c;
  c.c_fp = c_fp;
  c.c_int = c_int;
  c.d_r_a = d_r * f;
  c.d_r_e = d_r * (1 - f);
  c.d_w_a = d_w * f;
  c.d_w_e = d_w * (1 - f);
  c.m_s_a = m_s * f;
  c.m_s_e = m_s * (1 - f);
  c.m_r_a = m_r * f;
  c.m_r_e = m_r * (1 - f);
  c.kappa = kappa;
  return c;
}

int Placement::group_size(int processor) const noexcept {
  return static_cast<int>(
      std::count(processor_of.begin(), processor_of.end(), processor));
}

int Placement::processors_used() const noexcept {
  std::vector<int> sorted = processor_of;
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int>(
      std::unique(sorted.begin(), sorted.end()) - sorted.begin());
}

PlacementEvaluation evaluate_placement(std::span<const ProcessProfile> profiles,
                                       const Placement& placement,
                                       const MachineModel& machine,
                                       Objective objective) {
  if (profiles.size() != placement.processor_of.size())
    throw std::invalid_argument("evaluate_placement: size mismatch");

  const int total = static_cast<int>(profiles.size());
  const int procs = machine.topology.total_processors();

  std::vector<int> group_sizes(static_cast<std::size_t>(procs), 0);
  for (int p : placement.processor_of) {
    if (p < 0 || p >= procs)
      throw std::invalid_argument("evaluate_placement: processor out of range");
    ++group_sizes[static_cast<std::size_t>(p)];
  }
  if (machine.topology.threads_per_processor > 0) {
    for (int g : group_sizes)
      if (g > machine.topology.threads_per_processor)
        throw std::invalid_argument(
            "evaluate_placement: group exceeds hardware threads per processor");
  }

  PlacementEvaluation eval;
  eval.placement = placement;
  eval.process_costs.reserve(profiles.size());

  std::vector<double> powers;
  powers.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const int g =
        group_sizes[static_cast<std::size_t>(placement.processor_of[i])];
    const Cost c = cost_in_group(profiles[i], g, total, machine);
    eval.process_costs.push_back(c);
    powers.push_back(c.power());
    eval.total.time = std::max(eval.total.time, c.time);
    eval.total.energy += c.energy;
  }
  eval.objective = metric_value(eval.total, objective);
  eval.envelope = check_system(powers, placement.processor_of, machine.topology,
                               machine.envelope);
  eval.feasible = eval.envelope.feasible;
  return eval;
}

PlacementResult place_fill_first(std::span<const ProcessProfile> profiles,
                                 const MachineModel& machine,
                                 Objective objective) {
  const int tpp = machine.topology.threads_per_processor;
  if (static_cast<int>(profiles.size()) >
      machine.topology.total_processors() * tpp)
    throw ParamError("place_fill_first: more processes than hardware threads");
  Placement pl;
  pl.processor_of.resize(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i)
    pl.processor_of[i] = static_cast<int>(i) / tpp;
  return finish(profiles, std::move(pl), machine, objective, "fill-first", 1);
}

PlacementResult place_round_robin(std::span<const ProcessProfile> profiles,
                                  const MachineModel& machine,
                                  Objective objective) {
  const int procs = machine.topology.total_processors();
  const int tpp = machine.topology.threads_per_processor;
  if (static_cast<int>(profiles.size()) > procs * tpp)
    throw ParamError("place_round_robin: more processes than hardware threads");
  Placement pl;
  pl.processor_of.resize(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i)
    pl.processor_of[i] = static_cast<int>(i) % procs;
  return finish(profiles, std::move(pl), machine, objective, "round-robin", 1);
}

PlacementResult place_greedy(std::span<const ProcessProfile> profiles,
                             const MachineModel& machine, Objective objective) {
  const int total = static_cast<int>(profiles.size());
  const int procs = machine.topology.total_processors();
  const int tpp = machine.topology.threads_per_processor;
  if (total > procs * tpp)
    throw ParamError("place_greedy: more processes than hardware threads");

  // First-fit by descending solo power; adding a process to a group changes
  // every member's power (co-location raises the intra fraction), so each
  // candidate addition re-evaluates the whole group.
  std::vector<std::size_t> order(profiles.size());
  std::iota(order.begin(), order.end(), 0u);
  std::vector<double> solo_power(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i)
    solo_power[i] = cost_in_group(profiles[i], 1, total, machine).power();
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return solo_power[a] > solo_power[b];
  });

  std::vector<std::vector<std::size_t>> groups(static_cast<std::size_t>(procs));
  std::vector<int> proc_of(profiles.size(), -1);
  long long examined = 0;

  auto group_feasible = [&](const std::vector<std::size_t>& members) {
    if (machine.envelope.per_processor <= 0) return true;
    double demand = 0;
    for (std::size_t m : members)
      demand += cost_in_group(profiles[m], static_cast<int>(members.size()),
                              total, machine)
                    .power();
    return demand <= machine.envelope.per_processor;
  };

  for (std::size_t idx : order) {
    bool placed = false;
    for (int p = 0; p < procs && !placed; ++p) {
      auto& g = groups[static_cast<std::size_t>(p)];
      if (static_cast<int>(g.size()) >= tpp) continue;
      g.push_back(idx);
      ++examined;
      if (group_feasible(g)) {
        proc_of[idx] = p;
        placed = true;
      } else {
        g.pop_back();
      }
    }
    if (!placed) {
      // No feasible slot: drop it on the emptiest processor with room so the
      // caller still gets a placement (marked infeasible by evaluation).
      int best = -1;
      for (int p = 0; p < procs; ++p) {
        const auto sz = groups[static_cast<std::size_t>(p)].size();
        if (static_cast<int>(sz) < tpp &&
            (best < 0 || sz < groups[static_cast<std::size_t>(best)].size()))
          best = p;
      }
      groups[static_cast<std::size_t>(best)].push_back(idx);
      proc_of[idx] = best;
    }
  }

  Placement pl;
  pl.processor_of = std::move(proc_of);
  return finish(profiles, std::move(pl), machine, objective, "greedy", examined);
}

PlacementResult place_exact_uniform(std::span<const ProcessProfile> profiles,
                                    const MachineModel& machine,
                                    Objective objective, int max_processes) {
  const int total = static_cast<int>(profiles.size());
  if (total == 0) {
    return finish(profiles, Placement{}, machine, objective, "exact-uniform", 0);
  }
  if (total > max_processes)
    throw ParamError("place_exact_uniform: too many processes for exact search");
  if (!uniform(profiles))
    throw ParamError("place_exact_uniform: profiles must be identical");

  const int procs = machine.topology.total_processors();
  const int tpp = machine.topology.threads_per_processor;
  if (total > procs * tpp)
    throw ParamError("place_exact_uniform: more processes than hardware threads");

  const ProcessProfile& prof = profiles.front();

  // Cache per-group-size cost; group sizes range 1..tpp.
  std::vector<Cost> by_size(static_cast<std::size_t>(tpp) + 1);
  for (int g = 1; g <= tpp; ++g)
    by_size[static_cast<std::size_t>(g)] = cost_in_group(prof, g, total, machine);

  // Enumerate partitions of `total` into at most `procs` parts, each <= tpp,
  // parts non-increasing. For each partition: time = max over parts (same as
  // part with max per-process time), energy = sum over parts of g * E(g).
  std::vector<int> parts;
  std::vector<int> best_parts;
  double best_objective = std::numeric_limits<double>::infinity();
  bool best_feasible = false;
  long long examined = 0;

  auto partition_metrics = [&](const std::vector<int>& ps) {
    Cost totalc;
    bool feasible = true;
    for (int g : ps) {
      const Cost& c = by_size[static_cast<std::size_t>(g)];
      totalc.time = std::max(totalc.time, c.time);
      totalc.energy += c.energy * g;
      if (machine.envelope.per_processor > 0 &&
          c.power() * g > machine.envelope.per_processor)
        feasible = false;
    }
    // Chip/system caps need an assignment; groups go to processors in order.
    if (feasible &&
        (machine.envelope.per_chip > 0 || machine.envelope.system > 0)) {
      double system = 0;
      std::vector<double> chip(static_cast<std::size_t>(machine.topology.chips),
                               0.0);
      for (std::size_t i = 0; i < ps.size(); ++i) {
        const Cost& c = by_size[static_cast<std::size_t>(ps[i])];
        const double demand = c.power() * ps[i];
        system += demand;
        chip[i / static_cast<std::size_t>(machine.topology.processors_per_chip)] +=
            demand;
      }
      if (machine.envelope.system > 0 && system > machine.envelope.system)
        feasible = false;
      if (machine.envelope.per_chip > 0)
        for (double d : chip)
          if (d > machine.envelope.per_chip) feasible = false;
    }
    return std::pair<Cost, bool>(totalc, feasible);
  };

  auto consider = [&]() {
    ++examined;
    auto [cost, feasible] = partition_metrics(parts);
    const double obj = metric_value(cost, objective);
    // Prefer feasible placements; among equals, the better objective.
    if ((feasible && !best_feasible) ||
        (feasible == best_feasible && obj < best_objective)) {
      best_feasible = feasible;
      best_objective = obj;
      best_parts = parts;
    }
  };

  // Recursive partition enumeration with non-increasing parts.
  auto recurse = [&](auto&& self, int remaining, int max_part) -> void {
    if (remaining == 0) {
      consider();
      return;
    }
    if (static_cast<int>(parts.size()) >= procs) return;
    const int slots_left = procs - static_cast<int>(parts.size());
    for (int g = std::min(max_part, remaining); g >= 1; --g) {
      // Prune: even filling every remaining slot with g can't cover remaining.
      if (static_cast<long long>(g) * slots_left < remaining) break;
      parts.push_back(g);
      self(self, remaining - g, g);
      parts.pop_back();
    }
  };
  recurse(recurse, total, tpp);

  Placement pl;
  pl.processor_of.resize(profiles.size());
  std::size_t next = 0;
  for (std::size_t part = 0; part < best_parts.size(); ++part)
    for (int k = 0; k < best_parts[part]; ++k)
      pl.processor_of[next++] = static_cast<int>(part);

  return finish(profiles, std::move(pl), machine, objective, "exact-uniform",
                examined);
}

}  // namespace stamp
