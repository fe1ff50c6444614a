#include "runtime/executor.hpp"

#include "fault/injector.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

#include <exception>
#include <mutex>
#include <thread>

namespace stamp::runtime {

namespace {

/// Executor hook sites, keyed by the process id. A fired ProcStall sleeps
/// `magnitude` nanoseconds before the body starts; a fired ProcFailStop
/// throws fault::ProcessFailure, which run_processes rethrows after joining
/// all threads and run_supervised turns into a re-placement.
void maybe_inject_process_faults(int process) {
  if (!fault::injection_enabled()) return;
  auto& injector = fault::Injector::current();
  const auto key = static_cast<std::uint64_t>(process);
  if (const auto stall = injector.decide(fault::FaultSite::ProcStall, key))
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::nano>(stall->magnitude));
  if (injector.decide(fault::FaultSite::ProcFailStop, key))
    throw fault::ProcessFailure(process);
}

}  // namespace

std::vector<Cost> RunResult::process_costs(const PlacementMap& placement,
                                           const MachineParams& mp,
                                           const EnergyParams& ep) const {
  std::vector<Cost> costs;
  costs.reserve(recorders.size());
  for (std::size_t i = 0; i < recorders.size(); ++i) {
    const ProcessCounts pc =
        placement.process_counts_for(static_cast<int>(i));
    const StampProcess proc = recorders[i].to_process(Attributes{});
    costs.push_back(proc.cost(mp, ep, pc));
  }
  return costs;
}

Cost RunResult::total_cost(const PlacementMap& placement,
                           const MachineParams& mp,
                           const EnergyParams& ep) const {
  const std::vector<Cost> costs = process_costs(placement, mp, ep);
  return parallel(std::span<const Cost>(costs));
}

CostCounters RunResult::total_counters() const {
  CostCounters total;
  for (const Recorder& r : recorders) total += r.totals();
  return total;
}

RunResult run_processes(const PlacementMap& placement, const ProcessBody& body) {
  const int n = placement.process_count();
  RunResult result;
  result.recorders.resize(static_cast<std::size_t>(n));

  std::exception_ptr first_error;
  std::mutex error_mutex;

  obs::ScopedSpan run_span = obs::ScopedSpan::if_enabled("runtime.run", "runtime");
  run_span.arg("processes", static_cast<double>(n));

  // Process threads inherit the caller's injector (a campaign trial's
  // InjectorScope override, or the global one): fault decisions made on a
  // spawned thread must draw from the trial that spawned it, not from
  // whatever another concurrent trial armed globally.
  fault::Injector& injector = fault::Injector::current();

  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> threads;
    threads.reserve(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
      threads.emplace_back([&, i] {
        const fault::InjectorScope inject_scope(injector);
        // Each OS thread records under its own tid; the span covers the whole
        // process body, and its wall time feeds the latency histogram.
        obs::ScopedSpan process_span =
            obs::ScopedSpan::if_enabled("runtime.process", "runtime");
        process_span.arg("process", static_cast<double>(i));
        const obs::Clock::time_point t0 = obs::Clock::now();
        Context ctx(i, result.recorders[static_cast<std::size_t>(i)], placement);
        // The thread acts as process i for the whole body: mailbox-level
        // fault decisions made on this thread draw from process i's streams.
        const fault::ActorScope actor(static_cast<std::uint64_t>(i));
        try {
          maybe_inject_process_faults(i);
          body(ctx);
        } catch (...) {
          const std::scoped_lock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        if (obs::metrics_enabled())
          obs::MetricsRegistry::global()
              .histogram("runtime.process_ns")
              .record(obs::nanos_since(t0));
      });
    }
  }  // jthreads join here
  result.wall_time = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - start);

  if (obs::metrics_enabled()) {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter("runtime.runs").add();
    reg.counter("runtime.processes").add(static_cast<std::uint64_t>(n));
  }
  if (first_error) std::rethrow_exception(first_error);
  return result;
}

SupervisedResult run_supervised(const PlacementMap& placement,
                                const ProcessBody& body, int max_failovers) {
  SupervisedResult supervised;
  supervised.placement = placement;
  const int n = placement.process_count();
  for (;;) {
    try {
      supervised.result = run_processes(supervised.placement, body);
      return supervised;
    } catch (const fault::ProcessFailure& failure) {
      if (static_cast<int>(supervised.failed_processes.size()) >=
          max_failovers)
        throw;
      supervised.failed_processes.push_back(failure.process());
      supervised.excluded_processors.push_back(
          supervised.placement.processor_of(failure.process()));
      if (obs::tracing_enabled())
        obs::TraceRecorder::global().instant("runtime.failover", "runtime");
      if (obs::metrics_enabled())
        obs::MetricsRegistry::global().counter("runtime.failovers").add();
      supervised.placement = PlacementMap::fill_first_excluding(
          placement.topology(), n, supervised.excluded_processors);
    }
  }
}

}  // namespace stamp::runtime
