/// \file main.cpp
/// \brief `perfprobe SUBCOMMAND --key value ...`: the compiled half of the
///        benchmark. Each subcommand prints one JSON object of flat metrics
///        as its last stdout line; run.py turns those into the benchmark's
///        result. Exit 0 on success, 1 when a check fails, 2 on bad usage.

#include "common.hpp"

#include <cstdio>
#include <exception>
#include <iostream>
#include <string_view>

namespace perfbench {

void Report::print() const {
  std::string line = "{";
  bool first = true;
  for (const auto& [name, value] : values_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : -1.0);
    line += (first ? "\"" : ",\"") + name + "\":" + buf;
    first = false;
  }
  line += "}";
  std::cout << line << std::endl;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: perfprobe check-sweep|trace-sweep|trace-fleet|"
                 "loadgen|serve-layers --key value ...\n";
    return 2;
  }
  const std::string_view cmd = argv[1];
  try {
    const perfbench::Args args(argc - 2, argv + 2);
    if (cmd == "check-sweep") return perfbench::check_sweep(args);
    if (cmd == "trace-sweep") return perfbench::trace_sweep(args);
    if (cmd == "trace-fleet") return perfbench::trace_fleet(args);
    if (cmd == "loadgen") return perfbench::loadgen(args);
    if (cmd == "serve-layers") return perfbench::serve_layers(args);
    std::cerr << "perfprobe: unknown subcommand '" << cmd << "'\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perfprobe " << cmd << ": " << e.what() << "\n";
    return 2;
  }
}
