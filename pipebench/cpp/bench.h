#pragma once

// Shared types of the pipeline benchmark: command-line arguments, the
// outcome tally the oracle freezes, and the report a workload run returns.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point start, Clock::time_point end) {
    return std::chrono::duration<double>(end - start).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Tiny instance sizes for the benchmark's own self test.
    bool smoke = false;
    /// Scratch directory for the pack file and the Chrome trace.
    std::string work_dir = ".bench_build/work";
    /// Print the outcome tallies as frozen-table rows instead of checking them.
    bool print_oracle = false;
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
};

/// Outcome counts of one protocol over one workload's pairs or queries:
/// what the oracle freezes for the default seed.
struct Outcome {
    std::uint64_t attempts = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dead_end = 0;
    std::uint64_t exhausted = 0;
    std::uint64_t step_limit = 0;
    std::uint64_t steps = 0;

    bool operator==(const Outcome&) const = default;
    Outcome& operator+=(const Outcome& other) {
        attempts += other.attempts;
        delivered += other.delivered;
        dead_end += other.dead_end;
        exhausted += other.exhausted;
        step_limit += other.step_limit;
        steps += other.steps;
        return *this;
    }
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// Ordered so the printed JSON is stable.
using Metrics = std::map<std::string, Metric>;

struct RunReport {
    Metrics metrics;
    std::uint64_t attempted = 0;  ///< routes and queries run, repetitions included
    std::uint64_t failed = 0;     ///< oracle mismatches: outputs the checks reject
    /// Routes and queries that ended in kStepLimit. The router returns this
    /// outcome by design when the step budget runs out, and the oracle
    /// accepts it, so it is not a failed operation; it is reported in
    /// failed_frac and the *.step_limit metrics instead.
    std::uint64_t step_limited = 0;
    std::vector<std::string> mismatches;
    /// One cycle's outcome per protocol, summed over pair sets.
    std::map<std::string, Outcome> outcomes;

    void mismatch(std::string what) {
        mismatches.push_back(std::move(what));
        ++failed;
    }
};

/// Runs one workload end to end and returns its metrics; throws
/// std::invalid_argument for an unknown workload name.
[[nodiscard]] RunReport run_workload(const Args& args, unsigned threads,
                                     const std::string& provenance_json);

}  // namespace pipebench
