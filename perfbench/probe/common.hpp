#pragma once
/// \file common.hpp
/// \brief Shared helpers of the benchmark probe: argument lookup, a span
///        recorder that lives in the benchmark (not in the library), and the
///        flat metric report every subcommand prints as its last line.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Seconds on the steady clock's own epoch (CLOCK_MONOTONIC on Linux), so
/// timestamps can be compared with other processes' monotonic clocks.
inline double mono_seconds(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

/// `--key value` pairs after the subcommand name.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 0; i + 1 < argc; i += 2) {
      std::string key = argv[i];
      if (key.rfind("--", 0) != 0)
        throw std::invalid_argument("expected --key, got '" + key + "'");
      values_[key.substr(2)] = argv[i + 1];
    }
    if (argc % 2 != 0)
      throw std::invalid_argument(std::string("missing value for ") +
                                  argv[argc - 1]);
  }
  [[nodiscard]] std::string str(const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) throw std::invalid_argument("missing --" + key);
    return it->second;
  }
  [[nodiscard]] std::string str(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] double num(const std::string& key) const {
    return std::stod(str(key));
  }
  [[nodiscard]] double num(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Spans recorded around calls into the library: name, start and end,
/// kept in memory and summed up by name at the end.
class Spans {
 public:
  int begin(std::string name) {
    spans_.push_back({std::move(name), Clock::now(), {}});
    return static_cast<int>(spans_.size()) - 1;
  }
  double end(int id) {
    spans_[static_cast<std::size_t>(id)].end = Clock::now();
    return duration(id);
  }
  [[nodiscard]] double duration(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return seconds_between(s.start, s.end);
  }
  /// Durations of every span with this name, in recording order.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const {
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i)
      if (spans_[i].name == name) out.push_back(duration(static_cast<int>(i)));
    return out;
  }
 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };
  std::vector<Span> spans_;
};

/// RAII span; `close()` ends it early and returns its length in seconds.
class Scoped {
 public:
  Scoped(Spans& spans, std::string name)
      : spans_(spans), id_(spans.begin(std::move(name))) {}
  ~Scoped() { close(); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  double close() {
    if (!closed_) seconds_ = spans_.end(id_);
    closed_ = true;
    return seconds_;
  }

 private:
  Spans& spans_;
  int id_;
  bool closed_ = false;
  double seconds_ = 0;
};

/// Flat name -> number report, printed as one JSON object line.
class Report {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  void print() const;

 private:
  std::map<std::string, double> values_;
};

/// splitmix64: the benchmark's own seeded generator, so inputs depend only
/// on the seed, not on the standard library's distributions.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in (0, 1).
  double unit() {
    return (static_cast<double>(next() >> 11) + 0.5) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

// Subcommands (sweep_layers.cpp, fleet_layers.cpp, loadgen.cpp).
int check_sweep(const Args& args);
int trace_sweep(const Args& args);
int trace_fleet(const Args& args);
int loadgen(const Args& args);
int serve_layers(const Args& args);

}  // namespace perfbench
