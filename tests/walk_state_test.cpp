#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/adversary.h"
#include "core/fault.h"
#include "core/gravity_pressure.h"
#include "core/phi_dfs.h"
#include "core/router.h"
#include "core/vertex_table.h"
#include "girg/generator.h"
#include "random/rng.h"

namespace smallworld {
namespace {

// -------------------------------------------------------- flat vertex table

TEST(VertexTable, InsertThenLookup) {
    VertexTable<int> table;
    EXPECT_EQ(table.size(), 0u);
    EXPECT_EQ(table.find(7), nullptr);
    const auto [value, inserted] = table.try_emplace(7);
    EXPECT_TRUE(inserted);
    EXPECT_EQ(*value, 0);  // default-constructed on insertion
    *value = 42;
    const auto [again, inserted_again] = table.try_emplace(7);
    EXPECT_FALSE(inserted_again);
    EXPECT_EQ(again, value);
    EXPECT_EQ(table[7], 42);
    ASSERT_NE(table.find(7), nullptr);
    EXPECT_EQ(*table.find(7), 42);
    EXPECT_EQ(table.find(8), nullptr);
    EXPECT_EQ(table.size(), 1u);  // find() and repeated lookups never insert
}

TEST(VertexTable, GrowsAndKeepsEveryValue) {
    VertexTable<std::uint64_t> table;
    const std::size_t initial = table.capacity();
    constexpr Vertex kKeys = 5000;
    for (Vertex v = 0; v < kKeys; ++v) table[v * 7919u] = std::uint64_t{v} * 3 + 1;
    EXPECT_EQ(table.size(), std::size_t{kKeys});
    EXPECT_GT(table.capacity(), initial);
    EXPECT_GE(table.capacity(), 2 * table.size());  // load factor stays <= 1/2
    for (Vertex v = 0; v < kKeys; ++v) {
        const std::uint64_t* value = table.find(v * 7919u);
        ASSERT_NE(value, nullptr) << v;
        EXPECT_EQ(*value, std::uint64_t{v} * 3 + 1);
    }
    EXPECT_EQ(table.find(1), nullptr);
}

TEST(VertexTable, ExpectedKeysNeverGrow) {
    VertexTable<int> table(1000);
    const std::size_t capacity = table.capacity();
    for (Vertex v = 0; v < 1000; ++v) table[v] = 1;
    EXPECT_EQ(table.capacity(), capacity);
}

TEST(VertexTable, LookupOfAnExistingKeyNeverMovesAReference) {
    // Fill the table to exactly its growth threshold: the next *new* key
    // would grow it. Lookups of existing keys must leave every slot where
    // it is, so a reference held across them stays valid (Φ-DFS holds its
    // vertex's state across the SET_NEW_PHI lookup of the same vertex).
    VertexTable<double> table;
    const std::size_t capacity = table.capacity();
    const std::size_t full = capacity / 2;
    for (Vertex v = 0; v < full; ++v) table[v] = static_cast<double>(v);
    ASSERT_EQ(table.capacity(), capacity);
    double& held = table[3];
    for (Vertex v = 0; v < full; ++v) {
        EXPECT_EQ(table[v], static_cast<double>(v));
        EXPECT_FALSE(table.try_emplace(v).second);
        EXPECT_NE(table.find(v), nullptr);
    }
    EXPECT_EQ(table.capacity(), capacity);
    EXPECT_EQ(&held, &table[3]);
    held = -1.0;
    EXPECT_EQ(*table.find(3), -1.0);
    // The first new key is what grows it.
    table[static_cast<Vertex>(full)] = 0.0;
    EXPECT_GT(table.capacity(), capacity);
    EXPECT_EQ(*table.find(3), -1.0);
}

TEST(VertexTable, DistinctVerticesMatchesASortOnALongPath) {
    // A walk-like path of more than 100k entries that keeps revisiting a
    // few hubs and wanders over a wider id range in between.
    RoutingResult result;
    Rng rng(99);
    constexpr std::size_t kEntries = 150000;
    result.path.reserve(kEntries);
    for (std::size_t i = 0; i < kEntries; ++i) {
        result.path.push_back(i % 5 == 0 ? static_cast<Vertex>(rng.uniform_index(8))
                                         : static_cast<Vertex>(rng.uniform_index(40000)));
    }
    std::vector<Vertex> sorted = result.path;
    std::sort(sorted.begin(), sorted.end());
    const auto reference =
        static_cast<std::size_t>(std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    EXPECT_EQ(result.distinct_vertices(), reference);
    EXPECT_LT(reference, kEntries);  // the path really repeats

    result.path.assign({4, 4, 4});
    EXPECT_EQ(result.distinct_vertices(), 1u);
    result.path.clear();
    EXPECT_EQ(result.distinct_vertices(), 0u);
}

// ------------------------------------------------- frozen long-walk guard

std::uint64_t fnv1a(std::uint64_t h, std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
        h ^= (x >> (8 * i)) & 0xffU;
        h *= 1099511628211ULL;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

std::uint64_t fold_route(std::uint64_t h, const RoutingResult& r) {
    h = fnv1a(h, static_cast<std::uint64_t>(r.status));
    h = fnv1a(h, r.path.size());
    for (const Vertex v : r.path) h = fnv1a(h, v);
    return fnv1a(h, r.retries);
}

struct WalkPrint {
    std::uint64_t hash = kFnvBasis;
    std::size_t exhausted = 0;
    std::size_t step_limit = 0;
    std::size_t longest_exhausted = 0;  // steps of the longest kExhausted walk
    std::size_t longest = 0;
};

// An exhaustive Φ-DFS walk of this giant outgrows the default 8n + 64
// budget, so the prints use a wider one: the walks that leave the giant
// behind then end kExhausted rather than kStepLimit.
constexpr std::size_t kLongWalkBudget = 32 * 4096;

Girg long_walk_girg() {
    GirgParams params{.n = 4096, .dim = 2, .alpha = 2.0, .beta = 2.5,
                      .wmin = 2.0, .edge_scale = 1.0};
    params.edge_scale = calibrated_edge_scale(params);
    return generate_girg(params, 4242);
}

/// Routes 96 unrestricted (source, target) pairs of one fixed GIRG at
/// n = 2^12 and folds every full path into one fingerprint per router.
/// Unrestricted pairs put the target outside the source's component now and
/// then, so Φ-DFS walks that component to exhaustion (through its hubs) and
/// gravity-pressure walks to the step cap: the long walks whose per-step
/// bookkeeping these prints pin.
void route_pairs(const Girg& g, RoutingOptions options, WalkPrint& phi_dfs_print,
                 WalkPrint& gravity_print) {
    options.max_steps = kLongWalkBudget;
    const PhiDfsRouter phi_dfs;
    const GravityPressureRouter gravity;
    Rng rng(4243);
    for (int trial = 0; trial < 96; ++trial) {
        const auto s = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        const auto t = static_cast<Vertex>(rng.uniform_index(g.num_vertices()));
        if (s == t) continue;
        const GirgObjective obj(g, t);
        for (auto [router, print] :
             {std::pair<const Router*, WalkPrint*>{&phi_dfs, &phi_dfs_print},
              std::pair<const Router*, WalkPrint*>{&gravity, &gravity_print}}) {
            const RoutingResult r = router->route(g.graph, obj, s, options);
            print->hash = fold_route(print->hash, r);
            if (r.status == RoutingStatus::kExhausted) {
                ++print->exhausted;
                print->longest_exhausted = std::max(print->longest_exhausted, r.steps());
            }
            print->step_limit += r.status == RoutingStatus::kStepLimit ? 1 : 0;
            print->longest = std::max(print->longest, r.steps());
        }
    }
}

// Captured on the routers before their walk state moved to the flat vertex
// table and the ordered child cursor. Those are pure speedups, so these
// constants must never move.
constexpr std::uint64_t kFrozenHonestPhiDfs = 0x4bd8375454e453caULL;
constexpr std::uint64_t kFrozenHonestGravity = 0xac9c73670c754b91ULL;
constexpr std::uint64_t kFrozenFaultedPhiDfs = 0xc5373ca9ed6c4d5fULL;
constexpr std::uint64_t kFrozenFaultedGravity = 0xd74b19aca1d241cbULL;
constexpr std::uint64_t kFrozenByzantinePhiDfs = 0x1508931f4c1535dfULL;
constexpr std::uint64_t kFrozenByzantineGravity = 0xf0d8dd5364d93badULL;
constexpr std::uint64_t kFrozenEquivocatingPhiDfs = 0xfd8c4f75c8b64999ULL;
constexpr std::uint64_t kFrozenEquivocatingGravity = 0xec11033536fdfc74ULL;

/// The prints only pin long walks if the scenario still produces them:
/// several Φ-DFS walks explore the whole giant and end kExhausted, and
/// gravity-pressure circles until the step cap.
void expect_long_walks(const WalkPrint& phi_dfs, const WalkPrint& gravity) {
    EXPECT_GE(phi_dfs.exhausted, 3u);
    EXPECT_GT(phi_dfs.longest_exhausted, std::size_t{4096});
    EXPECT_GE(gravity.step_limit, 3u);
}

TEST(LongWalkFrozenReference, HonestWalksReplayBitForBit) {
    const Girg g = long_walk_girg();
    WalkPrint phi_dfs;
    WalkPrint gravity;
    route_pairs(g, {}, phi_dfs, gravity);
    expect_long_walks(phi_dfs, gravity);
    EXPECT_EQ(phi_dfs.hash, kFrozenHonestPhiDfs);
    EXPECT_EQ(gravity.hash, kFrozenHonestGravity);
}

TEST(LongWalkFrozenReference, FaultedWalksReplayBitForBit) {
    const Girg g = long_walk_girg();
    FaultPlan plan;
    plan.seed = 4244;
    plan.crash_fraction = 0.05;
    plan.edge_removal_prob = 0.1;
    const FaultState state(g.graph, plan);
    RoutingOptions options;
    options.faults = &state;
    WalkPrint phi_dfs;
    WalkPrint gravity;
    route_pairs(g, options, phi_dfs, gravity);
    expect_long_walks(phi_dfs, gravity);
    EXPECT_EQ(phi_dfs.hash, kFrozenFaultedPhiDfs);
    EXPECT_EQ(gravity.hash, kFrozenFaultedGravity);
}

TEST(LongWalkFrozenReference, ByzantineWalksReplayBitForBit) {
    const Girg g = long_walk_girg();
    AdversaryPlan plan;
    plan.seed = 4245;
    plan.byzantine_fraction = 0.05;
    plan.weight_lie_factor = 4.0;
    plan.position_lie_shift = 0.05;
    const AdversaryState state(g.graph, plan, g.weights, &g.positions, &g.params);
    RoutingOptions options;
    options.adversary = &state;
    WalkPrint phi_dfs;
    WalkPrint gravity;
    route_pairs(g, options, phi_dfs, gravity);
    expect_long_walks(phi_dfs, gravity);
    EXPECT_EQ(phi_dfs.hash, kFrozenByzantinePhiDfs);
    EXPECT_EQ(gravity.hash, kFrozenByzantineGravity);
}

TEST(LongWalkFrozenReference, EquivocatingWalksReplayBitForBit) {
    // Phantom links merge into the advertised rows the walks scan, and a
    // forward along one ends the walk; misrouting holders hijack hops.
    const Girg g = long_walk_girg();
    AdversaryPlan plan;
    plan.seed = 4246;
    plan.byzantine_fraction = 0.01;
    plan.weight_lie_factor = 4.0;
    plan.phantom_neighbors = 2;
    plan.misroute = true;
    const AdversaryState state(g.graph, plan, g.weights);
    RoutingOptions options;
    options.adversary = &state;
    WalkPrint phi_dfs;
    WalkPrint gravity;
    route_pairs(g, options, phi_dfs, gravity);
    EXPECT_GT(phi_dfs.longest, std::size_t{4096});
    EXPECT_EQ(phi_dfs.hash, kFrozenEquivocatingPhiDfs);
    EXPECT_EQ(gravity.hash, kFrozenEquivocatingGravity);
}

}  // namespace
}  // namespace smallworld
