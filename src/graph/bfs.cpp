#include "graph/bfs.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <vector>

#include "core/check.h"

#include "core/thread_pool.h"

namespace smallworld {

namespace {

/// Frontier width below which a level expands serially: forking the pool
/// costs more than scanning a few thousand adjacency entries. Small-world
/// graphs reach this within a couple of hops from any source in the giant.
constexpr std::size_t kParallelFrontier = 1024;

/// Frontier vertices per parallel work block.
constexpr std::size_t kFrontierBlock = 512;

/// Expands one BFS level in parallel. Workers claim unvisited vertices with
/// a CAS on the distance slot; whichever worker wins writes the same depth,
/// so the distance array is identical to the serial expansion's. The next
/// frontier is concatenated in block order (worker-order independent).
void expand_level_parallel(const GraphView& graph, std::vector<std::int32_t>& dist,
                           const std::vector<Vertex>& frontier, std::int32_t depth,
                           std::vector<Vertex>& next, unsigned threads) {
    const std::size_t blocks = (frontier.size() + kFrontierBlock - 1) / kFrontierBlock;
    std::vector<std::vector<Vertex>> per_block(blocks);
    static_assert(std::atomic_ref<std::int32_t>::required_alignment <= alignof(std::int32_t),
                  "distance slots are not aligned for std::atomic_ref");
    // LINT-ALLOW(relaxed): every CAS racer writes the same depth value, and the
    // per-level parallel_for join publishes distances to the next level.
    constexpr auto relaxed = std::memory_order_relaxed;
    parallel_for(
        blocks,
        [&](std::size_t block) {
            const std::size_t begin = block * kFrontierBlock;
            const std::size_t end = std::min(begin + kFrontierBlock, frontier.size());
            std::vector<Vertex>& local = per_block[block];
            for (std::size_t i = begin; i < end; ++i) {
                for (const Vertex v : graph.neighbors(frontier[i])) {
                    std::atomic_ref<std::int32_t> slot(dist[v]);
                    std::int32_t expected = kUnreachable;
                    if (slot.load(relaxed) == kUnreachable &&
                        slot.compare_exchange_strong(expected, depth, relaxed)) {
                        local.push_back(v);
                    }
                }
            }
        },
        threads);
    next.clear();
    for (const std::vector<Vertex>& local : per_block) {
        next.insert(next.end(), local.begin(), local.end());
    }
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const GraphView& graph, Vertex source,
                                        unsigned threads) {
    return bfs_distances_bounded(graph, source, std::numeric_limits<std::int32_t>::max(),
                                 threads);
}

std::vector<std::int32_t> bfs_distances_bounded(const GraphView& graph, Vertex source,
                                                std::int32_t max_depth, unsigned threads) {
    GIRG_CHECK(source < graph.num_vertices(), "bfs source ", source, " >= n=",
               graph.num_vertices());
    std::vector<std::int32_t> dist(graph.num_vertices(), kUnreachable);
    std::vector<Vertex> frontier{source};
    std::vector<Vertex> next;
    dist[source] = 0;
    std::int32_t depth = 0;
    while (!frontier.empty() && depth < max_depth) {
        ++depth;
        // Non-flat views decode rows through one shared scratch buffer, so
        // concurrent neighbors() calls would clobber each other: expand
        // serially there. The CAS and serial expansions write identical
        // distances, so the result does not depend on which path ran.
        if (threads != 1 && graph.flat() && frontier.size() >= kParallelFrontier) {
            expand_level_parallel(graph, dist, frontier, depth, next, threads);
        } else {
            next.clear();
            for (const Vertex u : frontier) {
                for (const Vertex v : graph.neighbors(u)) {
                    if (dist[v] == kUnreachable) {
                        dist[v] = depth;
                        next.push_back(v);
                    }
                }
            }
        }
        frontier.swap(next);
    }
    return dist;
}

BidirectionalBfs::BidirectionalBfs(const GraphView& graph) : graph_(graph) {
    fwd_.dist.assign(graph.num_vertices(), kUnreachable);
    bwd_.dist.assign(graph.num_vertices(), kUnreachable);
}

void BidirectionalBfs::Side::start(Vertex root) {
    dist[root] = 0;
    order.push_back(root);
    frontier_begin = 0;
    depth = 0;
}

void BidirectionalBfs::Side::reset() {
    for (const Vertex v : order) dist[v] = kUnreachable;
    order.clear();
}

std::int32_t BidirectionalBfs::expand(Side& self, const Side& other) {
    // Before this call no vertex carries both labels (the previous call
    // would have returned), and self has labelled everything within
    // self.depth hops of its root, other everything within other.depth of
    // its own. So a shortest s-t path leaves self's ball through a vertex
    // at self.depth whose remaining distance to the other root exceeds
    // other.depth: dist(s, t) >= (self.depth + 1) + other.depth. The first
    // vertex labelled at self.depth + 1 that other has labelled closes a
    // walk of length self.depth + 1 + other.dist[v] <= that bound, so its
    // length is exact — the same value as the minimum over the whole level.
    const std::size_t end = self.order.size();
    const std::int32_t depth = ++self.depth;
    for (std::size_t i = self.frontier_begin; i < end; ++i) {
        for (const Vertex v : graph_.neighbors(self.order[i])) {
            if (self.dist[v] != kUnreachable) continue;
            self.dist[v] = depth;
            self.order.push_back(v);
            if (other.dist[v] != kUnreachable) return depth + other.dist[v];
        }
    }
    self.frontier_begin = end;
    return kUnreachable;
}

std::int32_t BidirectionalBfs::distance(Vertex s, Vertex t) {
    GIRG_CHECK(s < graph_.num_vertices() && t < graph_.num_vertices(), "s=", s,
               " t=", t, " n=", graph_.num_vertices());
    if (s == t) return 0;
    fwd_.start(s);
    bwd_.start(t);
    std::int32_t found = kUnreachable;
    // Expand the narrower frontier; a side that runs dry has labelled its
    // whole component without meeting the other, so s and t are disconnected.
    while (found == kUnreachable) {
        const std::size_t fwd_width = fwd_.order.size() - fwd_.frontier_begin;
        const std::size_t bwd_width = bwd_.order.size() - bwd_.frontier_begin;
        if (fwd_width == 0 || bwd_width == 0) break;
        found = fwd_width <= bwd_width ? expand(fwd_, bwd_) : expand(bwd_, fwd_);
    }
    fwd_.reset();
    bwd_.reset();
    return found;
}

std::int32_t bfs_distance(const GraphView& graph, Vertex s, Vertex t) {
    return BidirectionalBfs(graph).distance(s, t);
}

std::vector<Vertex> shortest_path(const GraphView& graph, Vertex s, Vertex t) {
    GIRG_CHECK(s < graph.num_vertices() && t < graph.num_vertices(), "s=", s,
               " t=", t, " n=", graph.num_vertices());
    if (s == t) return {s};
    std::vector<Vertex> parent(graph.num_vertices(), kNoVertex);
    std::vector<std::int32_t> dist(graph.num_vertices(), kUnreachable);
    // A vector with a read head is queue enough for BFS: nothing is ever
    // removed from the middle and the visited set bounds the growth.
    std::vector<Vertex> queue{s};
    std::size_t head = 0;
    dist[s] = 0;
    while (head < queue.size()) {
        const Vertex u = queue[head++];
        for (const Vertex v : graph.neighbors(u)) {
            if (dist[v] != kUnreachable) continue;
            dist[v] = dist[u] + 1;
            parent[v] = u;
            if (v == t) {
                std::vector<Vertex> path;
                for (Vertex w = t; w != kNoVertex; w = parent[w]) path.push_back(w);
                std::reverse(path.begin(), path.end());
                return path;
            }
            queue.push_back(v);
        }
    }
    return {};
}

}  // namespace smallworld
