#include "core/greedy.h"

#include "core/fault.h"

namespace smallworld {

RoutingResult GreedyRouter::route(const GraphView& graph, const Objective& objective,
                                  Vertex source, const RoutingOptions& options) const {
    const bool faulted = options.faults != nullptr && options.faults->plan().any();
    const bool adversarial =
        options.adversary != nullptr && options.adversary->plan().any();
    if (adversarial) {
        // Byzantine regime: maximize what vertices *claim* (lied-about
        // attributes) over advertised neighborhoods, with blackholing and
        // misrouting applied at the shared faulted-greedy loop.
        const ClaimedObjective claimed(objective, *options.adversary);
        return route_greedy_faulted(graph, claimed, source, options,
                                    FaultView(options.faults, source),
                                    AdversaryView(options.adversary));
    }
    if (faulted) {
        // Faulted regime: greedy over the residual neighborhood with
        // per-epoch link states (core/fault.h). The unfaulted loop below is
        // untouched so an absent or inactive plan is byte-identical.
        return route_greedy_faulted(graph, objective, source, options,
                                    FaultView(options.faults, source));
    }
    RoutingResult result;
    result.path.push_back(source);
    const std::size_t max_steps = options.effective_max_steps(graph.num_vertices());
    const Vertex target = objective.target();

    Vertex current = source;
    double current_value = objective.value(current);
    while (true) {
        // Arrival is checked before the budget: a packet that reaches the
        // target in exactly max_steps hops is delivered, not step-limited.
        if (current == target) {
            result.status = RoutingStatus::kDelivered;
            return result;
        }
        if (result.steps() >= max_steps) {
            result.status = RoutingStatus::kStepLimit;
            return result;
        }
        // One batched argmax returns the hop and its value together, so the
        // greedy loop costs a single virtual call per visited vertex.
        const BestNeighbor next = objective.best_of(graph.neighbors(current));
        if (next.vertex == kNoVertex || !(next.value > current_value)) {
            result.status = RoutingStatus::kDeadEnd;
            return result;
        }
        // Pull the next hop's adjacency row toward the cache while this
        // iteration finishes bookkeeping; its scan starts a few cycles out.
        graph.prefetch_neighbors(next.vertex);
        result.path.push_back(next.vertex);
        current = next.vertex;
        current_value = next.value;
    }
}

}  // namespace smallworld
