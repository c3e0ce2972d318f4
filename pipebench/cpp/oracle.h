#pragma once

// The output oracle: frozen outcome counts for the default seed, plus the
// invariants every seed must satisfy. A violation is recorded on the report
// (it counts as failed and makes the run incorrect); nothing here aborts.

#include <cstdint>
#include <map>
#include <string>

#include "bench.h"
#include "distributed/serving.h"
#include "experiments/runner.h"

namespace pipebench {

/// The seed whose outcome counts are frozen in oracle.cpp.
inline constexpr std::uint64_t kOracleSeed = 1;

[[nodiscard]] Outcome outcome_of(const smallworld::TrialStats& stats);
[[nodiscard]] Outcome outcome_of(const smallworld::ServingResult& result);

/// Order-sensitive digest of everything a serving run returns: per-query
/// status, path and telemetry, then the loop's counters.
[[nodiscard]] std::uint64_t fingerprint(const smallworld::ServingResult& result);

/// Invariants of one run_girg_trials call, fault-free and with default
/// RoutingOptions:
///  - phi_dfs, which satisfies (P1)-(P3), delivers every same-component
///    pair (Theorem 3.4) unless the step budget stops it first, and
///    exhausts only on pairs that span two components;
///  - phi_dfs never dead-ends;
///  - restricted to the giant, every pair is a same-component pair.
void check_trial_invariants(const std::string& label, const std::string& protocol,
                            const smallworld::TrialStats& stats, bool restrict_to_giant,
                            RunReport& report);

/// Compares each protocol's cycle outcome with the frozen row of this
/// workload and size. Only meaningful for kOracleSeed.
void check_frozen(const Args& args, RunReport& report);

/// Prints the report's outcomes as rows for the frozen table.
void print_frozen(const Args& args, const RunReport& report);

}  // namespace pipebench
