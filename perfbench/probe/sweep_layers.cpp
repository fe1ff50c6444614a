/// \file sweep_layers.cpp
/// \brief `check-sweep` (artifact against the grid and the scalar reference)
///        and `trace-sweep` (the stamp_sweep --out path, replayed in-process
///        with a span around each layer's public entry point).

#include "common.hpp"

#include "api/stamp.hpp"
#include "report/atomic_file.hpp"
#include "report/json_parse.hpp"
#include "sweep/batch.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <set>
#include <string_view>

namespace perfbench {
namespace {

using stamp::sweep::SweepConfig;

SweepConfig preset(const std::string& name) {
  if (name == "large") return SweepConfig::large();
  if (name == "canonical") return SweepConfig::canonical();
  throw std::invalid_argument("unknown grid preset '" + name + "'");
}

/// Read-only mapping of a whole file.
class Mapped {
 public:
  explicit Mapped(const std::string& path) {
    fd_ = ::open(path.c_str(), O_RDONLY);
    if (fd_ < 0) throw std::runtime_error("cannot open " + path);
    struct stat st {};
    if (::fstat(fd_, &st) != 0 || st.st_size == 0)
      throw std::runtime_error("cannot stat (or empty) " + path);
    size_ = static_cast<std::size_t>(st.st_size);
    void* p = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd_, 0);
    if (p == MAP_FAILED) throw std::runtime_error("cannot map " + path);
    data_ = static_cast<const char*>(p);
  }
  ~Mapped() {
    if (data_ != nullptr) ::munmap(const_cast<char*>(data_), size_);
    if (fd_ >= 0) ::close(fd_);
  }
  Mapped(const Mapped&) = delete;
  Mapped& operator=(const Mapped&) = delete;
  [[nodiscard]] std::string_view view() const { return {data_, size_}; }

 private:
  int fd_ = -1;
  const char* data_ = nullptr;
  std::size_t size_ = 0;
};

/// Equal to the precision the artifact prints (15 significant digits today;
/// an exact round-trip encoding passes too).
bool close_enough(double printed, double reference) {
  if (printed == reference) return true;
  return std::fabs(printed - reference) <=
         1e-14 * std::max(std::fabs(reference), 1e-300);
}

/// End (one past the closing brace) of the JSON object starting at `b`.
std::size_t object_end(std::string_view s, std::size_t b) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = b; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  throw std::runtime_error("unterminated record");
}

/// True when the record's "params" object lists the grid's axes in order
/// with the point's values.
bool params_match(std::string_view rec, const std::vector<stamp::sweep::GridAxis>& axes,
                  std::span<const double> expected) {
  std::size_t i = rec.find("\"params\"");
  if (i == std::string_view::npos) return false;
  i = rec.find('{', i);
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::size_t q = rec.find('"', i);
    if (q == std::string_view::npos) return false;
    const std::size_t qe = rec.find('"', q + 1);
    if (qe == std::string_view::npos || rec.substr(q + 1, qe - q - 1) != axes[a].name)
      return false;
    const std::size_t colon = rec.find(':', qe);
    if (colon == std::string_view::npos) return false;
    const char* num = rec.data() + colon + 1;
    char* end = nullptr;
    const double v = std::strtod(num, &end);
    if (end == num || !close_enough(v, expected[a])) return false;
    i = static_cast<std::size_t>(end - rec.data());
  }
  return true;
}

bool number_matches(const stamp::report::JsonValue& obj, std::string_view key,
                    double reference) {
  const stamp::report::JsonValue* v = obj.find(key);
  return v != nullptr && v->kind() == stamp::report::JsonValue::Kind::Number &&
         close_enough(v->as_number(), reference);
}

/// Full comparison of one artifact record with the scalar reference.
bool record_matches(std::string_view rec, const stamp::sweep::SweepRecord& ref) {
  using stamp::report::JsonValue;
  const JsonValue v = JsonValue::parse(rec);
  const JsonValue* metrics = v.find("metrics");
  const JsonValue* models = v.find("models");
  const JsonValue* feasible = v.find("feasible");
  if (metrics == nullptr || models == nullptr || feasible == nullptr)
    return false;
  if (!number_matches(v, "processes", ref.processes) ||
      feasible->as_bool() != ref.feasible)
    return false;
  if (!number_matches(*metrics, "D", ref.metrics.D) ||
      !number_matches(*metrics, "PDP", ref.metrics.PDP) ||
      !number_matches(*metrics, "EDP", ref.metrics.EDP) ||
      !number_matches(*metrics, "ED2P", ref.metrics.ED2P))
    return false;
  for (int k = 0; k < stamp::models::kModelKindCount; ++k) {
    const auto kind = static_cast<stamp::models::ModelKind>(k);
    if (!number_matches(*models, stamp::models::to_string(kind),
                        ref.classical[static_cast<std::size_t>(k)]))
      return false;
  }
  return true;
}

}  // namespace

/// check-sweep --grid G --file F --seed S
/// Every grid index has a record whose axis values are the grid's, in index
/// order; 64 seeded records (plus the first and last) equal
/// `evaluate_point_reference` to the printed precision.
int check_sweep(const Args& args) {
  const SweepConfig cfg = preset(args.str("grid"));
  const Mapped file(args.str("file"));
  const std::string_view s = file.view();
  const std::size_t n = cfg.grid.size();

  std::set<std::size_t> spot{0, n - 1};
  Rng rng(static_cast<std::uint64_t>(args.num("seed")) * 0x2545F4914F6CDD1DULL + 1);
  constexpr std::size_t kSpot = 64;
  while (spot.size() < std::min(n, kSpot + 2)) spot.insert(rng.below(n));

  std::size_t pos = s.find("\"points\"");
  if (pos == std::string_view::npos) throw std::runtime_error("no points array");
  pos = s.find('[', pos) + 1;

  std::size_t records = 0;
  std::size_t params_mismatch = 0;
  std::size_t spot_failed = 0;
  stamp::sweep::GridCursor cursor(cfg.grid);
  for (;;) {
    while (pos < s.size() && (s[pos] == ',' || std::isspace(static_cast<unsigned char>(s[pos]))))
      ++pos;
    if (pos >= s.size() || s[pos] == ']') break;
    const std::size_t end = object_end(s, pos);
    const std::string_view rec = s.substr(pos, end - pos);
    if (records < n) {
      if (!params_match(rec, cfg.grid.axes(), cursor.values())) ++params_mismatch;
      if (spot.count(records) != 0 &&
          !record_matches(rec, stamp::sweep::evaluate_point_reference(cfg, records)))
        ++spot_failed;
      cursor.advance();
    }
    ++records;
    pos = end;
  }

  Report r;
  r.set("points", static_cast<double>(records));
  r.set("expected_points", static_cast<double>(n));
  r.set("params_mismatch", static_cast<double>(params_mismatch));
  r.set("spot_checked", static_cast<double>(spot.size()));
  r.set("spot_failed", static_cast<double>(spot_failed));
  r.print();
  return records == n && params_mismatch == 0 && spot_failed == 0 ? 0 : 1;
}

/// trace-sweep --out FILE
/// One `stamp_sweep --grid large --threads 4 --out` unit in-process
/// (Evaluator::sweep, write_json into an AtomicFileWriter, commit), then the
/// grid decode and the cache probe stream on their own.
int trace_sweep(const Args& args) {
  const SweepConfig cfg = SweepConfig::large();
  constexpr int kThreads = 4;
  const std::string out = args.str("out");
  const std::size_t n = cfg.grid.size();
  Spans spans;
  Report r;

  {
    Scoped unit(spans, "unit");
    stamp::sweep::SweepResult result;
    {
      Scoped s(spans, "api.sweep");
      const stamp::Evaluator eval({.machine = cfg.base, .objective = cfg.objective});
      result = eval.sweep(cfg, {.threads = kThreads});
    }
    std::size_t record_bytes = result.records.capacity() * sizeof(stamp::sweep::SweepRecord);
    for (const stamp::sweep::SweepRecord& rec : result.records)
      record_bytes += rec.params.capacity() * sizeof(double);
    r.set("sweep.records_mb", static_cast<double>(record_bytes) / 1e6);
    const stamp::sweep::SweepStats& st = result.stats;
    const double probes = static_cast<double>(st.cache_hits + st.cache_misses);
    r.set("sweep.cache.hits", static_cast<double>(st.cache_hits));
    r.set("sweep.cache.misses", static_cast<double>(st.cache_misses));
    r.set("sweep.cache.evictions", static_cast<double>(st.cache_evictions));
    r.set("sweep.cache.probes", probes);
    r.set("sweep.cache.hit_ratio", probes > 0 ? static_cast<double>(st.cache_hits) / probes : 0);
    r.set("sweep.pool.steals", static_cast<double>(st.pool_steals));

    stamp::report::AtomicFileWriter writer(out);
    if (!writer.ok()) throw std::runtime_error("cannot open " + out);
    {
      Scoped s(spans, "report.format");
      stamp::sweep::write_json(result, writer.stream());
    }
    {
      Scoped s(spans, "report.commit");
      writer.commit();
    }
  }
  const double format_s = spans.durations("report.format").front();
  const double artifact_mb = static_cast<double>(std::filesystem::file_size(out)) / 1e6;
  r.set("unit_s", spans.durations("unit").front());
  r.set("api.sweep_s", spans.durations("api.sweep").front());
  r.set("report.format_s", format_s);
  r.set("report.format_mb_per_s", artifact_mb / format_s);
  r.set("report.artifact_mb", artifact_mb);
  r.set("report.commit_s", spans.durations("report.commit").front());

  // Grid decode: the whole grid in the batch evaluator's 256-point chunks.
  {
    constexpr std::size_t kChunk = stamp::sweep::BatchEvaluator::kBatch;
    const std::size_t naxes = cfg.grid.axes().size();
    std::vector<double> buf(naxes * kChunk);
    double sink = 0;
    Scoped s(spans, "sweep.grid.decode");
    for (std::size_t b = 0; b < n; b += kChunk) {
      const std::size_t e = std::min(n, b + kChunk);
      cfg.grid.decode_chunk(b, e, std::span<double>(buf.data(), naxes * (e - b)));
      sink += buf[0];
    }
    r.set("sweep.grid.decode_ns_per_point", s.close() * 1e9 / static_cast<double>(n));
    if (sink < 0) std::cerr << sink;  // keeps the loop observable
  }

  // Cache probe: the grid's key stream through a cache shaped like the
  // pool sweep's (8 shards per thread, the preset's bound), constant compute.
  {
    stamp::sweep::CostCache cache(static_cast<std::size_t>(kThreads) * 8,
                                  cfg.cache_entries_per_shard);
    const stamp::sweep::PointCost constant{};
    stamp::sweep::GridCursor cursor(cfg.grid);
    Scoped s(spans, "sweep.cache.probe");
    for (; !cursor.done(); cursor.advance())
      static_cast<void>(cache.get_or_compute(cursor.values(), [&] { return constant; }));
    r.set("sweep.cache.probe_ns", s.close() * 1e9 / static_cast<double>(n));
  }

  r.print();
  return 0;
}

}  // namespace perfbench
