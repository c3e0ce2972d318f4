#include <gtest/gtest.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "core/greedy.h"
#include "experiments/runner.h"
#include "girg/generator.h"
#include "graph/components.h"

namespace smallworld {
namespace {

// Frozen distance-at-source reference table. The trial runner reads one
// exact graph distance per routed pair, from a full BFS row of the target or
// from a bidirectional s-t search depending on the configuration; either
// way every TrialStats field must replay these fingerprints bit for bit.
// The graph is a sparse n=2^12 GIRG with many small components, so the
// any-pairs rows mix unreachable pairs in both directions (giant source,
// small target and vice versa) with same-component ones.

GirgParams fragmented_params() {
    GirgParams params{.n = 4096, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 1.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    return params;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

std::uint64_t fold(std::uint64_t h, const RunningStats& stats) {
    h = fnv1a(h, stats.count());
    h = fnv1a(h, std::bit_cast<std::uint64_t>(stats.mean()));
    h = fnv1a(h, std::bit_cast<std::uint64_t>(stats.min()));
    return fnv1a(h, std::bit_cast<std::uint64_t>(stats.max()));
}

std::uint64_t fingerprint(const TrialStats& stats) {
    std::uint64_t h = kFnvBasis;
    h = fnv1a(h, stats.attempts);
    h = fnv1a(h, stats.delivered);
    h = fnv1a(h, stats.dead_end);
    h = fnv1a(h, stats.exhausted);
    h = fnv1a(h, stats.step_limit);
    h = fnv1a(h, stats.same_component);
    h = fnv1a(h, stats.delivered_in_component);
    h = fnv1a(h, stats.retries);
    h = fold(h, stats.hops);
    h = fold(h, stats.bfs_distance);
    h = fold(h, stats.stretch);
    h = fold(h, stats.steps_all);
    h = fold(h, stats.distinct_visited);
    return fnv1a(h, stats.step_samples.size());
}

struct TrialKey {
    std::size_t targets;
    std::size_t sources_per_target;
    bool restrict_to_giant;
    std::int32_t min_graph_distance;
    std::uint64_t expected;
};

// Without a distance floor every row takes one bidirectional search per
// routed pair; min_graph_distance > 0 takes one full BFS per target. The
// first eleven rows were captured on the runner that ran a full BFS for
// every target. The two 512-source rows were captured on the runner that
// still ran a full BFS above 64 sources per target, so they pin the
// per-pair search against full BFS rows well past that old switch.
constexpr TrialKey kReference[] = {
    {64, 1, false, 0, 0xd4a13b2fc6f97291ULL},  {64, 1, true, 0, 0x68ec3976230d39a3ULL},
    {16, 16, false, 0, 0xa25a2ea333c061bfULL}, {16, 16, true, 0, 0xedf4dd956f8890edULL},
    {8, 64, false, 0, 0x5534e0ce1a502e55ULL},  {8, 64, true, 0, 0x4f13d231d337617cULL},
    {8, 65, false, 0, 0x7f400e61b62b4034ULL},  {8, 65, true, 0, 0xf30158e31a1bbb5fULL},
    {8, 256, false, 0, 0x1b4e49a83532b842ULL}, {8, 256, true, 0, 0x2e5bd4a81ebe0332ULL},
    {16, 16, false, 3, 0x1d8ede3b5eca6286ULL},
    {4, 512, false, 0, 0xf77331d3aa6a33b9ULL}, {4, 512, true, 0, 0x5a1bc8347ea78ccbULL},
};

TEST(TrialDistance, FixtureIsFragmented) {
    const Girg girg = generate_girg(fragmented_params(), 4242);
    const Components components = connected_components(girg.graph);
    // A third of the vertices sit outside the giant, spread over hundreds
    // of small components.
    EXPECT_GT(components.count(), 500u);
    EXPECT_GT(components.giant_size(), girg.num_vertices() / 2);
    EXPECT_LT(components.giant_size(), girg.num_vertices() * 3 / 4);
}

TEST(TrialDistance, FingerprintsMatchReferenceAtEveryThreadCount) {
    const Girg girg = generate_girg(fragmented_params(), 4242);
    const GreedyRouter router;
    const auto factory = girg_objective_factory();
    for (const TrialKey& key : kReference) {
        TrialConfig config;
        config.targets = key.targets;
        config.sources_per_target = key.sources_per_target;
        config.restrict_to_giant = key.restrict_to_giant;
        config.min_graph_distance = key.min_graph_distance;
        for (const unsigned threads : {1u, 2u, 8u}) {
            config.threads = threads;
            const TrialStats stats = run_girg_trials(girg, router, factory, config, 4243);
            EXPECT_EQ(fingerprint(stats), key.expected)
                << "targets=" << key.targets << " sources=" << key.sources_per_target
                << " giant=" << key.restrict_to_giant
                << " min_distance=" << key.min_graph_distance << " threads=" << threads;
        }
    }
}

}  // namespace
}  // namespace smallworld
