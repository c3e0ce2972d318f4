#include "core/router.h"

#include "core/vertex_table.h"

namespace smallworld {

std::size_t RoutingResult::distinct_vertices() const {
    // One pass over a vertex set sized from the path: linear in the path
    // length, with no growth, and the set is never iterated.
    VertexTable<VertexSetMark> seen(path.size());
    for (const Vertex v : path) seen.try_emplace(v);
    return seen.size();
}

Vertex best_neighbor(const GraphView& graph, const Objective& objective, Vertex v) {
    // One virtual call per neighbor list; the objective's batched argmax
    // runs a non-virtual inner loop with the same first-maximum tie-break
    // the serial loop used.
    return objective.best_of(graph.neighbors(v)).vertex;
}

}  // namespace smallworld
