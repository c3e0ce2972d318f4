#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/router.h"
#include "girg/girg.h"
#include "random/stats.h"

namespace smallworld {

/// Builds the objective for a given target on a given GIRG. Each target gets
/// its own objective instance (phi is target-relative).
using ObjectiveFactory =
    std::function<std::unique_ptr<Objective>(const Girg& girg, Vertex target)>;

[[nodiscard]] ObjectiveFactory girg_objective_factory();
[[nodiscard]] ObjectiveFactory geometric_objective_factory();
[[nodiscard]] ObjectiveFactory relaxed_objective_factory(RelaxationKind kind, double magnitude,
                                                         std::uint64_t seed);

/// How source/target pairs are drawn.
struct TrialConfig {
    std::size_t targets = 8;             ///< distinct targets
    std::size_t sources_per_target = 64; ///< routed pairs per target
    /// Restrict s and t to the giant component. Theorem 3.1/3.2 talk about
    /// arbitrary pairs (failures from isolated targets count), Theorems
    /// 3.3/3.4 condition on same-component pairs.
    bool restrict_to_giant = false;
    /// Require BFS distance >= this (0 = any); pushes pairs into the
    /// "typical" far-apart regime of the theorems.
    std::int32_t min_graph_distance = 0;
    /// Keep the per-attempt step counts (for tail quantiles); off by
    /// default to keep aggregation allocation-free.
    bool collect_step_samples = false;
    unsigned threads = 0;  ///< parallel workers (0 = hardware concurrency)
    /// Fault injection (core/fault.h): when the plan is active, one shared
    /// FaultState is built for the whole run (run_girg_trials supplies the
    /// GIRG weights, so kHighestWeight works) and every route sees it via
    /// RoutingOptions::faults. Inactive (the default) is byte-identical to
    /// the unfaulted runner.
    FaultPlan faults;
    /// Byzantine adversary (core/adversary.h): when the plan is active, one
    /// shared AdversaryState is built for the whole run (run_girg_trials
    /// supplies weights, positions, and params, so every selection mode and
    /// position lie works) and every route sees it via
    /// RoutingOptions::adversary. Inactive (the default) is byte-identical
    /// to the honest runner. Composes with `faults`.
    AdversaryPlan adversary;
};

/// Aggregated outcome of routing many (s,t) pairs with one protocol.
struct TrialStats {
    std::size_t attempts = 0;
    std::size_t delivered = 0;
    std::size_t dead_end = 0;
    std::size_t exhausted = 0;
    std::size_t step_limit = 0;
    /// Pairs where s and t were in the same component (delivery possible).
    std::size_t same_component = 0;
    /// Delivered within same component (for Theorem 3.4's "always succeeds").
    std::size_t delivered_in_component = 0;
    /// Total wait-out hops across all attempts (always 0 without faults).
    std::size_t retries = 0;

    RunningStats hops;            ///< steps of successful routes
    RunningStats stretch;         ///< hops / BFS distance, successful routes
    RunningStats bfs_distance;    ///< BFS distance of successful routes
    RunningStats steps_all;       ///< steps of every attempt (incl. failures)
    RunningStats distinct_visited;  ///< exploration footprint per attempt
    /// Per-attempt step counts, only when config.collect_step_samples.
    std::vector<double> step_samples;

    [[nodiscard]] double success_rate() const noexcept {
        return attempts == 0 ? 0.0
                             : static_cast<double>(delivered) / static_cast<double>(attempts);
    }
    [[nodiscard]] double in_component_success_rate() const noexcept {
        return same_component == 0 ? 0.0
                                   : static_cast<double>(delivered_in_component) /
                                         static_cast<double>(same_component);
    }
    void merge(const TrialStats& other);
};

/// Routes `targets x sources_per_target` pairs of the GIRG with the given
/// protocol and objective; stretch is exact (one bidirectional search per
/// pair in a reused workspace, or one full BFS per target when
/// min_graph_distance > 0).
/// Deterministic for a fixed seed, independent of thread count.
[[nodiscard]] TrialStats run_girg_trials(const Girg& girg, const Router& router,
                                         const ObjectiveFactory& factory,
                                         const TrialConfig& config, std::uint64_t seed);

/// Generic variant for non-GIRG substrates: the caller supplies the graph
/// and an objective factory keyed by target vertex.
using GraphObjectiveFactory = std::function<std::unique_ptr<Objective>(Vertex target)>;
[[nodiscard]] TrialStats run_graph_trials(const Graph& graph, const Router& router,
                                          const GraphObjectiveFactory& factory,
                                          const TrialConfig& config, std::uint64_t seed);

}  // namespace smallworld
