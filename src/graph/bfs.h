#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace smallworld {

/// Distance value for unreachable vertices.
inline constexpr std::int32_t kUnreachable = -1;

/// Single-source BFS: hop distance from `source` to every vertex
/// (kUnreachable where there is no path). O(n + m).
///
/// `threads` controls the level-synchronous parallel frontier expansion:
/// 1 forces the serial loop, 0 uses the shared pool once a frontier is wide
/// enough to amortize the fork. Distances are byte-identical at any thread
/// count: workers claim vertices with a CAS, and every vertex claimed in a
/// level gets the same depth regardless of which worker wins.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const GraphView& graph, Vertex source,
                                                      unsigned threads = 0);

/// BFS truncated at `max_depth` hops; vertices further away stay
/// kUnreachable. Useful when only a neighborhood matters.
[[nodiscard]] std::vector<std::int32_t> bfs_distances_bounded(const GraphView& graph, Vertex source,
                                                              std::int32_t max_depth,
                                                              unsigned threads = 0);

/// Reusable exact s-t distance search bound to one graph: a bidirectional
/// BFS that owns its two label rows and resets only the slots a search
/// wrote, so a call costs O(vertices touched), not O(n). On small-world
/// graphs that is a few thousand vertices where a full BFS touches all n.
/// One object serves one thread at a time; keep one per worker and reuse it.
class BidirectionalBfs {
public:
    explicit BidirectionalBfs(const GraphView& graph);

    /// Hop distance from s to t; kUnreachable if they are disconnected.
    /// Returns as soon as one vertex is labelled by both sides.
    [[nodiscard]] std::int32_t distance(Vertex s, Vertex t);

private:
    /// One side of the search. `order` lists every vertex the side has
    /// labelled, level by level: the current frontier is its tail from
    /// `frontier_begin`, and the whole log is what a reset must clear.
    struct Side {
        std::vector<std::int32_t> dist;
        std::vector<Vertex> order;
        std::size_t frontier_begin = 0;
        std::int32_t depth = 0;

        void start(Vertex root);
        /// Unlabels exactly the logged vertices and clears the log.
        void reset();
    };

    /// Labels self's next level; returns the s-t distance at the first
    /// vertex `other` has labelled too, else kUnreachable.
    std::int32_t expand(Side& self, const Side& other);

    GraphView graph_;
    Side fwd_;
    Side bwd_;
};

/// Exact s-t hop distance; kUnreachable if disconnected. One-shot form of
/// BidirectionalBfs: it allocates and fills two n-sized rows per call, so
/// callers with many pairs should keep a BidirectionalBfs instead.
[[nodiscard]] std::int32_t bfs_distance(const GraphView& graph, Vertex s, Vertex t);

/// A shortest s-t path (empty if disconnected); includes both endpoints.
[[nodiscard]] std::vector<Vertex> shortest_path(const GraphView& graph, Vertex s, Vertex t);

}  // namespace smallworld
