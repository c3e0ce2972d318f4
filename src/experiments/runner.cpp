#include "experiments/runner.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "core/annotations.h"
#include "core/thread_pool.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "random/rng.h"

namespace smallworld {

ObjectiveFactory girg_objective_factory() {
    // One memo pool per factory: the runner's ≤16-source Phase-B blocks each
    // build one objective through this closure, so consecutive blocks recycle
    // memo tables (O(touched) reset) instead of NaN-filling n doubles. Pure
    // phi makes pooling invisible in results; the pool itself is locked.
    const auto pool = std::make_shared<PhiMemoPool>();
    return [pool](const Girg& girg, Vertex target) -> std::unique_ptr<Objective> {
        PhiOptions options;
        options.pool = pool;
        return std::make_unique<GirgObjective>(girg, target, options);
    };
}

ObjectiveFactory geometric_objective_factory() {
    return [](const Girg& girg, Vertex target) -> std::unique_ptr<Objective> {
        return std::make_unique<GeometricObjective>(girg, target);
    };
}

ObjectiveFactory relaxed_objective_factory(RelaxationKind kind, double magnitude,
                                           std::uint64_t seed) {
    const auto pool = std::make_shared<PhiMemoPool>();
    return [kind, magnitude, seed, pool](const Girg& girg,
                                         Vertex target) -> std::unique_ptr<Objective> {
        PhiOptions options;
        options.pool = pool;
        return std::make_unique<RelaxedObjective>(girg, target, kind, magnitude, seed,
                                                  options);
    };
}

void TrialStats::merge(const TrialStats& other) {
    attempts += other.attempts;
    delivered += other.delivered;
    dead_end += other.dead_end;
    exhausted += other.exhausted;
    step_limit += other.step_limit;
    same_component += other.same_component;
    delivered_in_component += other.delivered_in_component;
    retries += other.retries;
    hops.merge(other.hops);
    stretch.merge(other.stretch);
    bfs_distance.merge(other.bfs_distance);
    steps_all.merge(other.steps_all);
    distinct_visited.merge(other.distinct_visited);
    step_samples.insert(step_samples.end(), other.step_samples.begin(),
                        other.step_samples.end());
}

namespace {

/// Sources routed per Phase-B work item. Small enough that the slowest
/// target's pairs spread across threads, large enough to amortize the
/// per-block objective construction.
constexpr std::size_t kSourcesPerBlock = 16;

/// Per-target state produced by Phase A and shared read-only by Phase B.
struct TargetContext {
    Vertex target = kNoVertex;
    std::vector<std::int32_t> dist;  ///< full BFS row; empty unless full_bfs
};

/// Mutex-guarded freelist of s-t search workspaces for one run. Each Phase-B
/// block borrows one, so at most one per concurrently running block is ever
/// allocated, and a search pays only for the vertices it touches instead of
/// filling two n-sized label rows. A workspace returns clean from every
/// search, so which one a block draws cannot change a distance.
class SearchPool {
public:
    explicit SearchPool(const Graph& graph) : graph_(graph) {}

    [[nodiscard]] std::unique_ptr<BidirectionalBfs> acquire() {
        {
            const MutexLock lock(mutex_);
            if (!free_.empty()) {
                std::unique_ptr<BidirectionalBfs> search = std::move(free_.back());
                free_.pop_back();
                return search;
            }
        }
        return std::make_unique<BidirectionalBfs>(graph_);
    }

    void release(std::unique_ptr<BidirectionalBfs> search) {
        const MutexLock lock(mutex_);
        free_.push_back(std::move(search));
    }

private:
    const Graph& graph_;
    Mutex mutex_;
    std::vector<std::unique_ptr<BidirectionalBfs>> free_ GIRG_GUARDED_BY(mutex_);
};

TrialStats run_trials_impl(const Graph& graph, const Router& router,
                           const GraphObjectiveFactory& factory, const TrialConfig& config,
                           std::uint64_t seed, std::span<const double> weights = {},
                           const PointCloud* positions = nullptr,
                           const GirgParams* params = nullptr) {
    if (graph.num_vertices() < 2) {
        throw std::invalid_argument("run_trials: graph too small");
    }
    // One immutable FaultState for the whole run, shared read-only by every
    // worker; fault draws are keyed by (plan seed, source, ...), so results
    // stay independent of the thread schedule.
    std::optional<FaultState> fault_state;
    if (config.faults.any()) fault_state.emplace(graph, config.faults, weights);
    // Likewise one immutable AdversaryState: every lie is keyed by
    // (plan seed, vertex, ...), so worker scheduling cannot move a liar.
    std::optional<AdversaryState> adversary_state;
    if (config.adversary.any()) {
        adversary_state.emplace(graph, config.adversary, weights, positions, params);
    }
    RoutingOptions routing_options;
    routing_options.faults = fault_state.has_value() ? &*fault_state : nullptr;
    routing_options.adversary =
        adversary_state.has_value() ? &*adversary_state : nullptr;
    // Vertex universe a trial draws from: every vertex, or the giant's.
    std::vector<Vertex> pool(config.restrict_to_giant ? 0 : graph.num_vertices());
    std::iota(pool.begin(), pool.end(), Vertex{0});
    if (config.restrict_to_giant) pool = giant_component_vertices(connected_components(graph));
    if (pool.size() < 2) throw std::invalid_argument("run_trials: vertex pool too small");
    // Rejection sampling reads every candidate's distance, so a distance
    // floor needs the target's full BFS row; otherwise each routed pair
    // costs one bidirectional search.
    const bool full_bfs = config.min_graph_distance > 0;

    // Two-phase pipeline with counter-seeded streams, so the dynamic
    // assignment of work items to threads never changes the results:
    // Phase A (stream t): pick target t, and run its full BFS when a
    // distance floor is set.
    // Phase B (stream targets + item): route a block of sources toward its
    // target, each pair's exact distance read from that row or from one
    // bidirectional search in a pooled workspace, with a private objective
    // per block — objectives memoize phi behind const, so they must not be
    // shared across workers.
    const RngStreams streams(seed);

    std::vector<TargetContext> contexts(config.targets);
    for (std::size_t target_index = 0; target_index < config.targets; ++target_index) {
        Rng rng = streams.stream(target_index);
        contexts[target_index].target = pool[rng.uniform_index(pool.size())];
    }
    if (full_bfs) {
        parallel_for(
            config.targets,
            [&](std::size_t target_index) {
                TargetContext& ctx = contexts[target_index];
                // Nested parallel_for runs inline when the pool is busy with
                // the target loop, so BFS parallelism kicks in exactly when
                // there are fewer targets than workers.
                ctx.dist = bfs_distances(graph, ctx.target, config.threads);
            },
            config.threads);
    }
    SearchPool searches(graph);

    const std::size_t blocks_per_target =
        (config.sources_per_target + kSourcesPerBlock - 1) / kSourcesPerBlock;
    std::vector<TrialStats> per_block(config.targets * blocks_per_target);
    parallel_for(
        per_block.size(),
        [&](std::size_t item) {
            const std::size_t target_index = item / blocks_per_target;
            const std::size_t block = item % blocks_per_target;
            const TargetContext& ctx = contexts[target_index];
            const Vertex target = ctx.target;
            Rng rng = streams.stream(config.targets + item);
            TrialStats& stats = per_block[item];
            // One objective per ≤16-source block: the cohort shares its memo
            // table (and, for girg objectives, the graph's SoA view) across
            // all sources routed toward this target; factories built with a
            // PhiMemoPool additionally recycle tables across blocks.
            const auto objective = factory(target);
            std::unique_ptr<BidirectionalBfs> search = full_bfs ? nullptr : searches.acquire();

            const std::size_t first = block * kSourcesPerBlock;
            const std::size_t last =
                std::min(first + kSourcesPerBlock, config.sources_per_target);
            for (std::size_t k = first; k < last; ++k) {
                // Rejection-sample a source: distinct from the target and
                // satisfying the distance constraint when one is set.
                Vertex source = target;
                for (int tries = 0; tries < 1000; ++tries) {
                    const Vertex candidate = pool[rng.uniform_index(pool.size())];
                    if (candidate == target) continue;
                    if (config.min_graph_distance > 0 &&
                        (ctx.dist[candidate] == kUnreachable ||
                         ctx.dist[candidate] < config.min_graph_distance)) {
                        continue;
                    }
                    source = candidate;
                    break;
                }
                if (source == target) continue;  // no eligible source found

                ++stats.attempts;
                const std::int32_t distance =
                    full_bfs ? ctx.dist[source] : search->distance(source, target);
                const bool reachable = distance != kUnreachable;
                if (reachable) ++stats.same_component;

                const RoutingResult result =
                    router.route(graph, *objective, source, routing_options);
                stats.retries += result.retries;
                stats.steps_all.add(static_cast<double>(result.steps()));
                stats.distinct_visited.add(static_cast<double>(result.distinct_vertices()));
                if (config.collect_step_samples) {
                    stats.step_samples.push_back(static_cast<double>(result.steps()));
                }
                switch (result.status) {
                    case RoutingStatus::kDelivered: {
                        ++stats.delivered;
                        if (reachable) {
                            ++stats.delivered_in_component;
                            stats.hops.add(static_cast<double>(result.steps()));
                            stats.bfs_distance.add(static_cast<double>(distance));
                            if (distance > 0) {
                                stats.stretch.add(static_cast<double>(result.steps()) /
                                                  static_cast<double>(distance));
                            }
                        }
                        break;
                    }
                    case RoutingStatus::kDeadEnd:
                        ++stats.dead_end;
                        break;
                    case RoutingStatus::kExhausted:
                        ++stats.exhausted;
                        break;
                    case RoutingStatus::kStepLimit:
                        ++stats.step_limit;
                        break;
                }
            }
            if (search != nullptr) searches.release(std::move(search));
        },
        config.threads);

    // Merge in fixed (target, block) order: RunningStats::merge is not
    // commutative in floating point, so the order must not depend on the
    // thread schedule.
    TrialStats total;
    for (const TrialStats& stats : per_block) total.merge(stats);
    return total;
}

}  // namespace

TrialStats run_girg_trials(const Girg& girg, const Router& router,
                           const ObjectiveFactory& factory, const TrialConfig& config,
                           std::uint64_t seed) {
    const GraphObjectiveFactory graph_factory = [&](Vertex target) {
        return factory(girg, target);
    };
    return run_trials_impl(girg.graph, router, graph_factory, config, seed, girg.weights,
                           &girg.positions, &girg.params);
}

TrialStats run_graph_trials(const Graph& graph, const Router& router,
                            const GraphObjectiveFactory& factory, const TrialConfig& config,
                            std::uint64_t seed) {
    return run_trials_impl(graph, router, factory, config, seed);
}

}  // namespace smallworld
