#include "oracle.h"

#include <cmath>
#include <iostream>
#include <sstream>
#include <string_view>

#include "random/splitmix64.h"

namespace pipebench {

namespace {

struct Frozen {
    std::string_view workload;
    bool smoke;
    std::string_view protocol;
    Outcome outcome;  // attempts, delivered, dead_end, exhausted, step_limit, steps
};

// Outcome counts for --seed 1, one cycle over every batch, produced by
// `pipebench --print-oracle` (with --trace 1 for the serve.* rows of the
// serving probe). The any-pairs step_limit counts are the Phi-DFS budget
// defect described in pipebench/README.md: they are expected, not hidden.
constexpr Frozen kFrozen[] = {
    {"giant-pairs", true, "gravity", {256, 256, 0, 0, 0, 1301}},
    {"giant-pairs", true, "greedy", {256, 190, 66, 0, 0, 931}},
    {"giant-pairs", true, "phi_dfs", {256, 256, 0, 0, 0, 1368}},
    {"giant-pairs", true, "serve.greedy", {2048, 1370, 678, 0, 0, 7773}},
    {"giant-pairs", true, "serve.phi_dfs", {2048, 1940, 108, 0, 0, 59906}},
    {"giant-pairs", false, "gravity", {32768, 32768, 0, 0, 0, 193300}},
    {"giant-pairs", false, "greedy", {32768, 25651, 7117, 0, 0, 136513}},
    {"giant-pairs", false, "phi_dfs", {32768, 32768, 0, 0, 0, 864559}},
    {"giant-pairs", false, "serve.greedy", {2048, 1708, 340, 0, 0, 9867}},
    {"giant-pairs", false, "serve.phi_dfs", {2048, 2019, 29, 0, 0, 30584}},
    {"any-pairs", true, "gravity", {64, 51, 3, 0, 10, 170360}},
    {"any-pairs", true, "greedy", {64, 42, 22, 0, 0, 204}},
    {"any-pairs", true, "phi_dfs", {64, 51, 0, 6, 7, 135838}},
    {"any-pairs", true, "serve.greedy", {2048, 1370, 678, 0, 0, 7773}},
    {"any-pairs", true, "serve.phi_dfs", {2048, 1940, 108, 0, 0, 59906}},
    {"any-pairs", false, "gravity", {8192, 7106, 423, 0, 663, 174104022}},
    {"any-pairs", false, "greedy", {8192, 5986, 2206, 0, 0, 30443}},
    {"any-pairs", false, "phi_dfs", {8192, 7106, 0, 562, 524, 138536213}},
    {"any-pairs", false, "serve.greedy", {2048, 1743, 305, 0, 0, 8365}},
    {"any-pairs", false, "serve.phi_dfs", {2048, 2029, 19, 0, 0, 12365}},
};

}  // namespace

Outcome outcome_of(const smallworld::TrialStats& stats) {
    Outcome outcome;
    outcome.attempts = stats.attempts;
    outcome.delivered = stats.delivered;
    outcome.dead_end = stats.dead_end;
    outcome.exhausted = stats.exhausted;
    outcome.step_limit = stats.step_limit;
    // TrialStats keeps a running mean; mean * count is the exact integer
    // step total to far better than the rounding margin.
    outcome.steps = static_cast<std::uint64_t>(std::llround(
        stats.steps_all.mean() * static_cast<double>(stats.steps_all.count())));
    return outcome;
}

Outcome outcome_of(const smallworld::ServingResult& result) {
    Outcome outcome;
    for (const smallworld::DistributedResult& query : result.queries) {
        ++outcome.attempts;
        outcome.steps += query.routing.steps();
        switch (query.routing.status) {
            case smallworld::RoutingStatus::kDelivered: ++outcome.delivered; break;
            case smallworld::RoutingStatus::kDeadEnd: ++outcome.dead_end; break;
            case smallworld::RoutingStatus::kExhausted: ++outcome.exhausted; break;
            case smallworld::RoutingStatus::kStepLimit: ++outcome.step_limit; break;
        }
    }
    return outcome;
}

std::uint64_t fingerprint(const smallworld::ServingResult& result) {
    using smallworld::hash_combine;
    std::uint64_t h = 0x706970656265ULL;
    for (const smallworld::DistributedResult& query : result.queries) {
        h = hash_combine(h, static_cast<std::uint64_t>(query.routing.status));
        h = hash_combine(h, query.routing.retries);
        for (const smallworld::Vertex v : query.routing.path) h = hash_combine(h, v);
        h = hash_combine(h, query.telemetry.wakes);
        h = hash_combine(h, query.telemetry.message_drops);
        h = hash_combine(h, query.telemetry.queue_drops);
    }
    const smallworld::ServingTelemetry& serving = result.serving;
    h = hash_combine(h, serving.clock_end);
    h = hash_combine(h, serving.events_fired);
    h = hash_combine(h, serving.heap_high_water);
    h = hash_combine(h, serving.total_wakes);
    h = hash_combine(h, serving.queue_drops);
    return h;
}

void check_trial_invariants(const std::string& label, const std::string& protocol,
                            const smallworld::TrialStats& stats, bool restrict_to_giant,
                            RunReport& report) {
    // Phi-DFS satisfies (P1)-(P3); gravity-pressure violates (P3).
    const bool phi_dfs = protocol == "phi_dfs";
    const std::size_t undelivered_in_component =
        stats.same_component - stats.delivered_in_component;
    // Theorem 3.4 has no step budget. Under the default one a same-component
    // pair may still end in kStepLimit (counted in failed_frac), but it must
    // never be declared undeliverable: exhausted or dead-ended.
    if (phi_dfs && undelivered_in_component > stats.step_limit) {
        std::ostringstream what;
        what << label << ": " << undelivered_in_component
             << " same-component pairs undelivered, only " << stats.step_limit
             << " of them at the step limit (Theorem 3.4)";
        report.mismatch(what.str());
    }
    if (phi_dfs && stats.exhausted > stats.attempts - stats.same_component) {
        report.mismatch(label + ": exhausted on more pairs than span two components");
    }
    if (phi_dfs && stats.dead_end != 0) {
        report.mismatch(label + ": phi_dfs dead-ended without faults");
    }
    if (restrict_to_giant && stats.same_component != stats.attempts) {
        report.mismatch(label + ": a giant-restricted pair spans two components");
    }
}

void check_frozen(const Args& args, RunReport& report) {
    for (const auto& [protocol, outcome] : report.outcomes) {
        const Frozen* row = nullptr;
        for (const Frozen& frozen : kFrozen) {
            if (frozen.workload == args.workload && frozen.smoke == args.smoke &&
                frozen.protocol == protocol) {
                row = &frozen;
            }
        }
        if (row == nullptr) {
            report.mismatch("oracle: no frozen row for " + args.workload + "/" + protocol);
        } else if (!(row->outcome == outcome)) {
            report.mismatch("oracle: " + args.workload + "/" + protocol +
                            " outcome differs from the frozen row");
        }
    }
}

void print_frozen(const Args& args, const RunReport& report) {
    for (const auto& [protocol, o] : report.outcomes) {
        std::cout << "    {\"" << args.workload << "\", " << (args.smoke ? "true" : "false")
                  << ", \"" << protocol << "\", {" << o.attempts << ", " << o.delivered << ", "
                  << o.dead_end << ", " << o.exhausted << ", " << o.step_limit << ", "
                  << o.steps << "}},\n";
    }
}

}  // namespace pipebench
