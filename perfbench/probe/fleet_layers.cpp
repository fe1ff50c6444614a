/// \file fleet_layers.cpp
/// \brief `trace-fleet`: the stamp_fleet --connect path replayed in-process
///        against running stamp_serve workers, with a span around the
///        journal, the coordinator, the resume load, the merge, formatting
///        and commit; plus the wire codec and journal calls on their own.

#include "common.hpp"

#include "api/stamp.hpp"
#include "dist/dist.hpp"
#include "report/atomic_file.hpp"
#include "serve/protocol.hpp"
#include "sweep/journal.hpp"

#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <sstream>

namespace perfbench {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

std::vector<std::uint16_t> parse_ports(const std::string& list) {
  std::vector<std::uint16_t> ports;
  std::stringstream ss(list);
  for (std::string item; std::getline(ss, item, ',');)
    ports.push_back(static_cast<std::uint16_t>(std::stoul(item)));
  if (ports.empty()) throw std::invalid_argument("no --ports");
  return ports;
}

template <typename F>
std::vector<double> time_calls(int repeats, F&& call) {
  std::vector<double> out;
  out.reserve(static_cast<std::size_t>(repeats));
  for (int i = 0; i < repeats; ++i) {
    const Clock::time_point t0 = Clock::now();
    call();
    out.push_back(seconds_between(t0, Clock::now()));
  }
  return out;
}

}  // namespace

/// trace-fleet --ports P1,P2 --dir D --expect REF
/// Fifty units, reported as medians.
int trace_fleet(const Args& args) {
  using namespace stamp;
  const sweep::SweepConfig cfg = sweep::SweepConfig::canonical();
  constexpr int kUnits = 50;
  const std::string dir = args.str("dir");
  const std::string journal_path = dir + "/trace_fleet.journal";
  const std::string out = dir + "/trace_fleet.json";
  dist::FleetOptions fleet;
  fleet.ports = parse_ports(args.str("ports"));

  Spans spans;
  Report r;
  dist::FleetStats last{};
  std::size_t dispatch_mismatch_units = 0;  // units whose dispatched != shards
  std::size_t reconnects = 0;
  std::size_t reassigned = 0;
  sweep::SweepResult result;
  const Evaluator eval({.machine = cfg.base, .objective = cfg.objective});
  for (int u = 0; u < kUnits; ++u) {
    Scoped unit(spans, "unit");
    std::optional<sweep::Journal> journal;
    {
      Scoped s(spans, "sweep.journal.open");
      journal.emplace(journal_path, cfg);
    }
    {
      Scoped s(spans, "dist.coordinator");
      dist::Coordinator coordinator(cfg, fleet);
      last = coordinator.run(*journal, nullptr);
    }
    {
      Scoped s(spans, "sweep.journal.close");
      journal.reset();
    }
    std::optional<sweep::ResumeState> merged;
    {
      Scoped s(spans, "sweep.resume.load");
      merged.emplace(sweep::ResumeState::load(journal_path, cfg));
    }
    {
      Scoped s(spans, "api.merge");
      result = eval.sweep(cfg, {.resume = &*merged, .threads = 1});
    }
    report::AtomicFileWriter writer(out);
    {
      Scoped s(spans, "report.format");
      sweep::write_json(result, writer.stream());
    }
    {
      Scoped s(spans, "report.commit");
      writer.commit();
    }
    if (last.dispatched != last.shards) ++dispatch_mismatch_units;
    reconnects += last.reconnects;
    reassigned += last.reassigned;
  }
  const bool identical = slurp(out) == slurp(args.str("expect"));

  r.set("unit_ms", median(spans.durations("unit")) * 1e3);
  r.set("dist.coordinator_ms", median(spans.durations("dist.coordinator")) * 1e3);
  r.set("sweep.journal.open_ms", median(spans.durations("sweep.journal.open")) * 1e3);
  r.set("sweep.journal.close_ms", median(spans.durations("sweep.journal.close")) * 1e3);
  r.set("sweep.resume.load_ms", median(spans.durations("sweep.resume.load")) * 1e3);
  r.set("api.merge_ms", median(spans.durations("api.merge")) * 1e3);
  r.set("report.format_s", median(spans.durations("report.format")));
  r.set("report.commit_s", median(spans.durations("report.commit")));
  r.set("dist.shards", static_cast<double>(last.shards));
  r.set("dist.dispatched", static_cast<double>(last.dispatched));
  r.set("dist.dispatch_mismatch_units", static_cast<double>(dispatch_mismatch_units));
  r.set("dist.reconnects", static_cast<double>(reconnects));
  r.set("dist.reassigned", static_cast<double>(reassigned));

  // Wire codec on one 64-record shard: the worker's encoder, then the
  // coordinator's decoder on the same line.
  std::vector<std::string> axis_names;
  for (const sweep::GridAxis& axis : cfg.grid.axes()) axis_names.push_back(axis.name);
  const std::span<const sweep::SweepRecord> shard(result.records.data(), 64);
  const std::string line = serve::ok_sweep_chunk(1, axis_names, 0, shard);
  r.set("serve.protocol.chunk_encode_us",
        median(time_calls(200, [&] {
          static_cast<void>(serve::ok_sweep_chunk(1, axis_names, 0, shard));
        })) * 1e6);
  r.set("dist.wire.chunk_decode_us",
        median(time_calls(200, [&] {
          static_cast<void>(dist::decode_sweep_chunk(line, cfg));
        })) * 1e6);

  // Journal: append every record, syncing on the default cadence by hand so
  // each fsync is timed on its own.
  {
    sweep::Journal journal(dir + "/trace_micro.journal", cfg, nullptr,
                           std::numeric_limits<std::size_t>::max());
    std::vector<double> appends;
    std::vector<double> syncs;
    for (std::size_t i = 0; i < result.records.size(); ++i) {
      appends.push_back(time_calls(1, [&] { journal.append(result.records[i]); }).front());
      if ((i + 1) % sweep::Journal::kDefaultSyncEvery == 0 || i + 1 == result.records.size())
        syncs.push_back(time_calls(1, [&] { journal.sync(); }).front());
    }
    r.set("sweep.journal.append_us", median(appends) * 1e6);
    r.set("sweep.journal.sync_ms", median(syncs) * 1e3);
    r.set("sweep.journal.syncs", static_cast<double>(syncs.size()));
  }

  r.print();
  return identical ? 0 : 1;
}

}  // namespace perfbench
