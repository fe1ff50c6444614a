#pragma once
/// \file profile.hpp
/// \brief Bridge from measured runs to the placement optimizer: turn a
///        Recorder's counters into the distribution-agnostic ProcessProfile
///        that `Evaluator::best_placement` and the `place_*` strategies
///        consume.
///
/// The optimizer wants per-S-unit counts without an intra/inter commitment
/// (it re-splits them per candidate placement); a recorder holds counts that
/// were classified under one concrete placement. The bridge merges the
/// columns back together and normalizes by the number of recorded units.

#include "core/placement.hpp"
#include "runtime/executor.hpp"
#include "runtime/instrument.hpp"

#include <vector>

namespace stamp::runtime {

/// Profile of one process from its recorder. `units` defaults to the number
/// of recorded S-units (minimum 1 so per-unit division is well-defined).
[[nodiscard]] ProcessProfile profile_from_recorder(const Recorder& recorder,
                                                   double units = 0);

/// Profiles for every process of a finished run.
[[nodiscard]] std::vector<ProcessProfile> profiles_from_run(const RunResult& run);

}  // namespace stamp::runtime
