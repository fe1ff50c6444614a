/// \file loadgen.cpp
/// \brief `loadgen`: an open-loop stamp-serve/v1 load generator with
///        connection churn, and `serve-layers`: the same request stream
///        parsed and handled in-process.
///
/// Open loop: request k is due at start + k / rate whatever happened to
/// earlier requests, and its latency runs from that due time to the arrival
/// of its response. A server stall therefore shows in every request due
/// during it (no coordinated omission). Each lane is one thread with one
/// connection at a time and sleeps in ppoll until the next due time or a
/// response; it never busy-waits, so it cannot starve its own receive path.
/// `late` is how long after its due time the lane first saw a request; a
/// run whose late p99 exceeds the caller's limit measured the generator,
/// not the server.
///
/// With `--window W` the lanes run closed instead: each keeps W requests in
/// flight for `--seconds` and the run reports the completion rate, the
/// server's capacity on the mix.

#include "common.hpp"

#include "serve/engine.hpp"
#include "serve/protocol.hpp"
#include "sweep/sweep.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <thread>
#include <unordered_map>

namespace perfbench {
namespace {

enum Op { kEvaluate, kBestPlacement, kSweepChunk, kSearch, kOps };
constexpr std::array<const char*, kOps> kOpNames = {"evaluate", "best_placement",
                                                    "sweep_chunk", "search"};
constexpr int kLanes = 2;             // request connections open at once
constexpr double kMeanPerConn = 500;  // geometric requests per connection
constexpr std::uint64_t kChunk = 64;  // sweep_chunk width
constexpr std::uint64_t kFirstId = 1;
constexpr double kDrainS = 2;  // how long unanswered requests are awaited
constexpr double kStatsEveryMs = 20;  // stats sampling period (queue depth)
constexpr std::size_t kLayerRequests = 4000;  // serve-layers stream length
const char* const kGrid = "canonical";  // the grid stamp_serve serves here

std::uint64_t grid_points() { return stamp::sweep::SweepConfig::canonical().grid.size(); }

struct Request {
  std::string body;  // the line after `{"id":N,`
  Op op = kEvaluate;
  std::uint64_t points = 1;  // grid points priced by a 200 response
};

/// The seeded mix: 90% evaluate (index uniform over the grid), 5%
/// best_placement (processes 1..32), 3% sweep_chunk of 64 points, 2% search
/// (bnb or anneal, search seed 1..4).
std::vector<Request> make_stream(std::uint64_t seed, std::size_t count,
                                 std::uint64_t grid_points) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 0x51);
  std::vector<Request> out(count);
  for (Request& r : out) {
    const std::uint64_t u = rng.below(100);
    if (u < 90) {
      r.op = kEvaluate;
      r.body = "\"op\":\"evaluate\",\"index\":" + std::to_string(rng.below(grid_points)) + "}";
    } else if (u < 95) {
      r.op = kBestPlacement;
      r.points = 0;
      r.body = "\"op\":\"best_placement\",\"processes\":" + std::to_string(1 + rng.below(32)) + "}";
    } else if (u < 98) {
      r.op = kSweepChunk;
      r.points = kChunk;
      const std::uint64_t begin = rng.below(grid_points - kChunk + 1);
      r.body = "\"op\":\"sweep_chunk\",\"begin\":" + std::to_string(begin) +
               ",\"end\":" + std::to_string(begin + kChunk) + "}";
    } else {
      r.op = kSearch;
      r.points = 0;
      r.body = std::string("\"op\":\"search\",\"method\":\"") +
               (rng.below(2) == 0 ? "bnb" : "anneal") +
               "\",\"seed\":" + std::to_string(1 + rng.below(4)) + "}";
    }
  }
  return out;
}

std::string request_line(std::uint64_t id, const Request& r) {
  return "{\"id\":" + std::to_string(id) + "," + r.body;
}

/// Value of the first `"key":<integer>` in a response line, or -1.
long long int_field(std::string_view line, std::string_view key) {
  std::string needle = "\"";
  needle.append(key).append("\":");
  const std::size_t i = line.find(needle);
  if (i == std::string_view::npos) return -1;
  return std::strtoll(line.data() + i + needle.size(), nullptr, 10);
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

struct Outcome {
  double late = 0;    // seconds from due to first seen by the lane
  double done = -1;   // monotonic seconds of the response, -1 = unanswered
  int status = 0;
  std::string response;  // kept only when verifying
};

struct Lane {
  std::vector<std::size_t> ks;  // stream indices, in due order
  std::uint64_t sent = 0;
};

class Run {
 public:
  Run(const Args& args)
      : port_(static_cast<std::uint16_t>(args.num("port"))),
        rate_(args.num("rate")),
        seconds_(args.num("seconds")),
        keep_responses_(args.num("verify", 1) != 0),
        window_(static_cast<std::size_t>(args.num("window", 0))),
        stream_(make_stream(static_cast<std::uint64_t>(args.num("seed")),
                            static_cast<std::size_t>(rate_ * seconds_), grid_points())),
        outcomes_(stream_.size()) {}

  void run() {
    start_ = Clock::now() + std::chrono::milliseconds(50);
    std::array<Lane, kLanes> lanes;
    for (std::size_t k = 0; k < stream_.size(); ++k) lanes[k % kLanes].ks.push_back(k);
    std::atomic<bool> lanes_done{false};
    std::thread sampler([&] { sample_stats(lanes_done); });
    {
      std::vector<std::jthread> threads;
      for (int l = 0; l < kLanes; ++l)
        threads.emplace_back([this, &lanes, l] { drive(lanes[l], static_cast<std::uint64_t>(l)); });
    }
    lanes_done = true;
    sampler.join();
    for (const Lane& lane : lanes) sent_ += lane.sent;
  }

  void report(Report& r, bool verify) {
    std::vector<double> all;
    std::array<std::vector<double>, kOps> per_op;
    // Latencies by the second their request was due in (open loop only).
    std::vector<std::vector<double>> per_second(
        static_cast<std::size_t>(std::max(1.0, std::ceil(seconds_))));
    std::vector<double> late;
    double points_ok = 0;
    std::uint64_t answered = 0, ok = 0;
    double last_done = 0;
    for (std::size_t k = 0; k < stream_.size(); ++k) {
      const Outcome& o = outcomes_[k];
      late.push_back(o.late);
      if (o.done < 0) continue;
      ++answered;
      last_done = std::max(last_done, o.done);
      const double ms = (o.done - due_mono(k)) * 1e3;
      all.push_back(ms);
      per_op[stream_[k].op].push_back(ms);
      per_second[std::min(per_second.size() - 1,
                          static_cast<std::size_t>(static_cast<double>(k) / rate_))]
          .push_back(ms);
      if (o.status == 200) {
        ++ok;
        points_ok += static_cast<double>(stream_[k].points);
      }
    }
    // Open loop: every request of the stream was due, sent or not.
    const std::uint64_t attempted = window_ > 0 ? sent_ : stream_.size();
    r.set("sent", static_cast<double>(attempted));
    r.set("non_ok", static_cast<double>(answered - ok));
    r.set("unanswered", static_cast<double>(attempted - answered));
    if (verify) r.set("verify_failed", static_cast<double>(verify_responses()));
    if (window_ > 0) {
      const double busy = last_done - mono_seconds(start_);
      r.set("closed_rps", static_cast<double>(answered) / busy);
      r.set("closed_points_per_s", points_ok / busy);
      return;
    }
    r.set("p50_ms", percentile(all, 0.5));
    r.set("p99_ms", percentile(all, 0.99));
    // The median over one-second windows of each window's p99: a machine
    // stall in one second moves one window, not the reading.
    std::vector<double> window_p99;
    for (const std::vector<double>& w : per_second)
      if (!w.empty()) window_p99.push_back(percentile(w, 0.99));
    r.set("p99_1s_median_ms", median(window_p99));
    for (int op = 0; op < kOps; ++op) {
      r.set(std::string(kOpNames[op]) + ".p50_ms", percentile(per_op[op], 0.5));
      r.set(std::string(kOpNames[op]) + ".p99_ms", percentile(per_op[op], 0.99));
    }
    r.set("late_p99_ms", percentile(late, 0.99) * 1e3);
    r.set("queue_depth_max", static_cast<double>(queue_depth_max_));
  }

  /// Per-request due/done/late lines (monotonic seconds) for the self-test.
  void dump(const std::string& path) const {
    std::ofstream os(path);
    os.precision(17);
    for (std::size_t k = 0; k < stream_.size(); ++k)
      os << due_mono(k) << " " << outcomes_[k].done << " " << outcomes_[k].late
         << " " << outcomes_[k].status << "\n";
  }

 private:
  [[nodiscard]] Clock::time_point due(std::size_t k) const {
    return start_ + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(static_cast<double>(k) / rate_));
  }
  [[nodiscard]] double due_mono(std::size_t k) const { return mono_seconds(due(k)); }

  void drive(Lane& lane, std::uint64_t salt) {
    Rng budget_rng(static_cast<std::uint64_t>(rate_) * 7919 + salt);
    auto draw_budget = [&] {
      return 1 + static_cast<std::uint64_t>(std::log(budget_rng.unit()) /
                                            std::log(1.0 - 1.0 / kMeanPerConn));
    };
    const Clock::time_point stop_sending =
        window_ > 0 ? start_ + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds_))
                    : due(stream_.size());
    const Clock::time_point give_up =
        stop_sending + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(kDrainS));
    const std::size_t n = lane.ks.size();
    std::size_t seen = 0;         // lane requests whose due time has been noticed
    std::size_t next = 0;         // next lane request to send
    std::size_t outstanding = 0;  // sent on the current connection, unanswered
    std::uint64_t budget = 0;
    int fd = -1;
    std::string out;
    std::size_t out_pos = 0;
    std::string in;
    std::array<char, 1 << 16> buf{};

    for (;;) {
      Clock::time_point now = Clock::now();
      if (window_ == 0) {
        while (seen < n && due(lane.ks[seen]) <= now) {
          outcomes_[lane.ks[seen]].late = seconds_between(due(lane.ks[seen]), now);
          ++seen;
        }
      } else if (now < stop_sending) {
        while (seen < n && outstanding + (seen - next) < window_) ++seen;
      }
      if (fd >= 0 && budget == 0 && outstanding == 0 && out_pos == out.size()) {
        ::close(fd);
        fd = -1;
      }
      if (fd < 0 && next < n) {
        fd = connect_loopback(port_);
        if (fd < 0) {
          if (now > give_up) break;
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
          continue;
        }
        budget = draw_budget();
      }
      while (next < seen && budget > 0) {
        const std::size_t k = lane.ks[next++];
        out += request_line(kFirstId + k, stream_[k]);
        out += '\n';
        --budget;
        ++outstanding;
        ++lane.sent;
      }
      if (out_pos < out.size()) {
        const ssize_t w = ::send(fd, out.data() + out_pos, out.size() - out_pos, MSG_NOSIGNAL);
        if (w > 0) out_pos += static_cast<std::size_t>(w);
        if (out_pos == out.size()) {
          out.clear();
          out_pos = 0;
        }
      }
      if (fd >= 0) {
        for (;;) {
          const ssize_t got = ::read(fd, buf.data(), buf.size());
          if (got <= 0) break;
          const double t = mono_seconds(Clock::now());
          in.append(buf.data(), static_cast<std::size_t>(got));
          std::size_t line_start = 0;
          for (std::size_t nl; (nl = in.find('\n', line_start)) != std::string::npos;
               line_start = nl + 1) {
            const std::string_view line(in.data() + line_start, nl - line_start);
            const long long id = int_field(line, "id");
            const long long k = id - static_cast<long long>(kFirstId);
            if (k < 0 || k >= static_cast<long long>(stream_.size())) continue;
            Outcome& o = outcomes_[static_cast<std::size_t>(k)];
            if (o.done >= 0) continue;
            o.done = t;
            o.status = static_cast<int>(int_field(line, "status"));
            if (keep_responses_) o.response.assign(line);
            --outstanding;
          }
          in.erase(0, line_start);
        }
      }
      now = Clock::now();
      const bool done_sending = next == n || (window_ > 0 && now >= stop_sending && next == seen);
      if (done_sending && outstanding == 0 && out.empty()) break;
      if (now > give_up) break;
      Clock::duration wait = std::chrono::milliseconds(5);
      if (window_ == 0 && seen < n) wait = std::min(wait, due(lane.ks[seen]) - now);
      if (wait <= Clock::duration::zero()) continue;
      pollfd p{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)), 0};
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(wait).count();
      const timespec ts{static_cast<time_t>(ns / 1000000000), static_cast<long>(ns % 1000000000)};
      ::ppoll(&p, fd >= 0 ? 1 : 0, &ts, nullptr);
    }
    if (fd >= 0) ::close(fd);
  }

  /// A separate connection asks `stats` every kStatsEveryMs and keeps the
  /// deepest admission queue it saw.
  void sample_stats(const std::atomic<bool>& stop) {
    const int fd = connect_loopback(port_);
    if (fd < 0) return;
    std::string in;
    std::array<char, 4096> buf{};
    for (std::uint64_t id = 1; !stop.load(); ++id) {
      const std::string req = "{\"id\":" + std::to_string(id) + ",\"op\":\"stats\"}\n";
      if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) != static_cast<ssize_t>(req.size()))
        break;
      const Clock::time_point until = Clock::now() + std::chrono::seconds(1);
      while (in.find('\n') == std::string::npos && Clock::now() < until) {
        pollfd p{fd, POLLIN, 0};
        ::poll(&p, 1, 100);
        const ssize_t got = ::read(fd, buf.data(), buf.size());
        if (got > 0) in.append(buf.data(), static_cast<std::size_t>(got));
      }
      const std::size_t nl = in.find('\n');
      if (nl == std::string::npos) break;
      queue_depth_max_ = std::max(queue_depth_max_, int_field(in.substr(0, nl), "queue_depth"));
      in.erase(0, nl + 1);
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(kStatsEveryMs));
    }
    ::close(fd);
  }

  /// Every 200 response must equal ServeEngine::handle on the same request
  /// (computed once per distinct request, with the id substituted).
  std::uint64_t verify_responses() {
    stamp::serve::EngineOptions options;
    options.grid = kGrid;
    stamp::serve::ServeEngine engine(options);
    std::unordered_map<std::string, std::string> expected;
    std::uint64_t failed = 0;
    for (std::size_t k = 0; k < stream_.size(); ++k) {
      const Outcome& o = outcomes_[k];
      if (o.status != 200) continue;
      auto it = expected.find(stream_[k].body);
      if (it == expected.end()) {
        const auto request = stamp::serve::parse_request(request_line(0, stream_[k]));
        it = expected.emplace(stream_[k].body, engine.handle(request, nullptr)).first;
      }
      std::string want = it->second;
      const std::string zero = "\"id\":0";
      const std::size_t at = want.find(zero);
      if (at == std::string::npos) {
        ++failed;
        continue;
      }
      want.replace(at, zero.size(), "\"id\":" + std::to_string(kFirstId + k));
      if (want != o.response) ++failed;
    }
    return failed;
  }

  std::uint16_t port_;
  double rate_;
  double seconds_;
  bool keep_responses_;
  std::size_t window_;  // 0 = open loop
  std::vector<Request> stream_;
  std::vector<Outcome> outcomes_;
  Clock::time_point start_;
  std::uint64_t sent_ = 0;
  long long queue_depth_max_ = 0;
};

}  // namespace

/// loadgen --port P --seed S --rate R --seconds T [--window W] [--verify 0|1]
///         [--dump FILE]
/// With --window, R only bounds the stream length (R x T requests).
int loadgen(const Args& args) {
  Run run(args);
  run.run();
  Report r;
  const bool verify = args.num("verify", 1) != 0;
  run.report(r, verify);
  if (const std::string path = args.str("dump", ""); !path.empty()) run.dump(path);
  r.print();
  return 0;
}

/// serve-layers --seed S
/// The stream's first kLayerRequests requests through parse_request and
/// ServeEngine::handle in-process: per-op median service time, and the
/// cost of timing every call (traced) against timing only the loop.
int serve_layers(const Args& args) {
  using namespace stamp::serve;
  const std::vector<Request> stream =
      make_stream(static_cast<std::uint64_t>(args.num("seed")), kLayerRequests, grid_points());
  std::vector<std::string> lines;
  for (std::size_t k = 0; k < stream.size(); ++k) lines.push_back(request_line(k + 1, stream[k]));

  std::vector<double> parse;
  std::vector<ServeRequest> requests;
  for (const std::string& line : lines) {
    const Clock::time_point t0 = Clock::now();
    requests.push_back(parse_request(line));
    parse.push_back(seconds_between(t0, Clock::now()));
  }

  EngineOptions options;
  options.grid = kGrid;
  std::vector<double> untraced, traced;
  std::array<std::vector<double>, kOps> service;
  for (int pair = 0; pair < 3; ++pair) {
    {
      ServeEngine engine(options);
      const Clock::time_point t0 = Clock::now();
      for (const ServeRequest& req : requests) static_cast<void>(engine.handle(req, nullptr));
      untraced.push_back(seconds_between(t0, Clock::now()));
    }
    {
      ServeEngine engine(options);
      Spans spans;
      const Clock::time_point t0 = Clock::now();
      for (std::size_t k = 0; k < requests.size(); ++k) {
        const int id = spans.begin(kOpNames[stream[k].op]);
        static_cast<void>(engine.handle(requests[k], nullptr));
        service[stream[k].op].push_back(spans.end(id));
      }
      traced.push_back(seconds_between(t0, Clock::now()));
    }
  }

  Report r;
  r.set("serve.protocol.parse_us", median(parse) * 1e6);
  for (int op = 0; op < kOps; ++op)
    r.set(std::string("serve.engine.") + kOpNames[op] + ".service_us",
          median(service[op]) * 1e6);
  r.set("loop_untraced_s", median(untraced));
  r.set("loop_traced_s", median(traced));
  r.print();
  return 0;
}

}  // namespace perfbench
