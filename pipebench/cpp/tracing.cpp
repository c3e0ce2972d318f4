#include "tracing.h"

#include <algorithm>
#include <fstream>

namespace pipebench {

namespace detail {

std::uint64_t next_instance_id() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1);
}

std::uint32_t this_thread_index() {
    static std::atomic<std::uint32_t> next{0};
    thread_local const std::uint32_t index = next.fetch_add(1);
    return index;
}

}  // namespace detail

namespace {

const char* status_name(std::int32_t status) {
    switch (static_cast<smallworld::RoutingStatus>(status)) {
        case smallworld::RoutingStatus::kDelivered: return "delivered";
        case smallworld::RoutingStatus::kDeadEnd: return "dead_end";
        case smallworld::RoutingStatus::kExhausted: return "exhausted";
        case smallworld::RoutingStatus::kStepLimit: return "step_limit";
    }
    return "unknown";
}

void tally_status(Outcome& outcome, smallworld::RoutingStatus status) {
    switch (status) {
        case smallworld::RoutingStatus::kDelivered: ++outcome.delivered; break;
        case smallworld::RoutingStatus::kDeadEnd: ++outcome.dead_end; break;
        case smallworld::RoutingStatus::kExhausted: ++outcome.exhausted; break;
        case smallworld::RoutingStatus::kStepLimit: ++outcome.step_limit; break;
    }
}

}  // namespace

// ------------------------------------------------------------------ Tracer

Tracer::Tracer(std::size_t max_spans) : max_spans_(max_spans) {}

std::uint32_t Tracer::intern(const std::string& name) {
    const std::lock_guard lock(names_mutex_);
    const auto found = std::find(names_.begin(), names_.end(), name);
    if (found != names_.end()) return static_cast<std::uint32_t>(found - names_.begin());
    names_.push_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
}

void Tracer::record(const Span& span) {
    if (stored_.fetch_add(1, std::memory_order_relaxed) >= max_spans_) {
        dropped_.fetch_add(1, std::memory_order_relaxed);
        return;
    }
    Span copy = span;
    copy.thread = detail::this_thread_index();
    buffers_.local().push_back(copy);
}

Tracer::Scope Tracer::open(const std::string& name, std::uint64_t parent) {
    return Scope{this, intern(name), next_id(), parent, now_ns()};
}

double Tracer::Scope::close() {
    Span span;
    span.name = name;
    span.id = id;
    span.parent = parent;
    span.start_ns = start_ns;
    span.end_ns = tracer->now_ns();
    tracer->record(span);
    return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
}

bool Tracer::write_chrome(const std::string& path, const std::string& other_data) const {
    std::vector<Span> spans;
    buffers_.for_each([&](const std::vector<Span>& buffer) {
        spans.insert(spans.end(), buffer.begin(), buffer.end());
    });
    std::sort(spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return a.start_ns != b.start_ns ? a.start_ns < b.start_ns : a.id < b.id;
    });
    std::vector<std::string> names;
    {
        const std::lock_guard lock(names_mutex_);
        names = names_;
    }
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\":\"ns\",\"otherData\":" << other_data << ",\"traceEvents\":[";
    bool first = true;
    for (const Span& span : spans) {
        out << (first ? "\n" : ",\n");
        first = false;
        out << "{\"name\":\"" << names[span.name] << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
            << span.thread << ",\"ts\":" << static_cast<double>(span.start_ns) * 1e-3
            << ",\"dur\":" << static_cast<double>(span.end_ns - span.start_ns) * 1e-3
            << ",\"args\":{\"id\":" << span.id << ",\"parent\":" << span.parent;
        if (span.status >= 0) {
            out << ",\"status\":\"" << status_name(span.status) << "\",\"steps\":"
                << span.steps;
        }
        out << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

// ------------------------------------------------------------ TracedRouter

TracedRouter::TracedRouter(const smallworld::Router& inner, Tracer& tracer,
                           const std::string& span_name, std::uint64_t parent)
    : inner_(inner), tracer_(tracer), span_name_(tracer.intern(span_name)), parent_(parent) {}

smallworld::RoutingResult TracedRouter::route(const smallworld::GraphView& graph,
                                              const smallworld::Objective& objective,
                                              smallworld::Vertex source,
                                              const smallworld::RoutingOptions& options) const {
    const std::int64_t start = tracer_.now_ns();
    smallworld::RoutingResult result = inner_.route(graph, objective, source, options);
    const std::int64_t end = tracer_.now_ns();

    RouteTally& tally = tallies_.local();
    ++tally.outcome.attempts;
    tally_status(tally.outcome, result.status);
    tally.outcome.steps += result.steps();
    tally.busy_ns += end - start;
    tally.durations_ns.push_back(end - start);

    Span span;
    span.name = span_name_;
    span.id = tracer_.next_id();
    span.parent = parent_;
    span.start_ns = start;
    span.end_ns = end;
    span.status = static_cast<std::int32_t>(result.status);
    span.steps = result.steps();
    tracer_.record(span);
    return result;
}

RouteTally TracedRouter::total() const {
    RouteTally total;
    tallies_.for_each([&](const RouteTally& tally) {
        total.outcome += tally.outcome;
        total.busy_ns += tally.busy_ns;
        total.durations_ns.insert(total.durations_ns.end(), tally.durations_ns.begin(),
                                  tally.durations_ns.end());
    });
    return total;
}

// ------------------------------------------------------------ TracedBuilds

template <typename Build>
auto TracedBuilds::timed(smallworld::Vertex target, Build&& build) {
    const std::int64_t start = tracer_.now_ns();
    auto objective = build();
    const std::int64_t end = tracer_.now_ns();
    BuildTally& tally = tallies_.local();
    ++tally.builds;
    tally.busy_ns += end - start;
    tally.first_start_ns = std::min(tally.first_start_ns, start);
    tally.last_end_ns = std::max(tally.last_end_ns, end);
    tally.targets.push_back(target);
    Span span;
    span.name = span_name_;
    span.id = tracer_.next_id();
    span.parent = parent_;
    span.start_ns = start;
    span.end_ns = end;
    tracer_.record(span);
    return objective;
}

smallworld::ObjectiveFactory TracedBuilds::wrap(smallworld::ObjectiveFactory inner) {
    return [this, inner = std::move(inner)](const smallworld::Girg& girg,
                                            smallworld::Vertex target) {
        return timed(target, [&] { return inner(girg, target); });
    };
}

smallworld::TargetObjectiveFactory TracedBuilds::wrap(smallworld::TargetObjectiveFactory inner) {
    return [this, inner = std::move(inner)](smallworld::Vertex target) {
        return timed(target, [&] { return inner(target); });
    };
}

BuildTally TracedBuilds::total() const {
    BuildTally total;
    tallies_.for_each([&](const BuildTally& tally) {
        total.builds += tally.builds;
        total.busy_ns += tally.busy_ns;
        total.first_start_ns = std::min(total.first_start_ns, tally.first_start_ns);
        total.last_end_ns = std::max(total.last_end_ns, tally.last_end_ns);
        total.targets.insert(total.targets.end(), tally.targets.begin(), tally.targets.end());
    });
    std::sort(total.targets.begin(), total.targets.end());
    total.targets.erase(std::unique(total.targets.begin(), total.targets.end()),
                        total.targets.end());
    return total;
}

// ---------------------------------------------------------- TracedProtocol

TracedProtocol::TracedProtocol(const smallworld::DistributedProtocol& inner, Tracer& tracer,
                               const std::string& span_name, std::uint64_t parent)
    : inner_(inner), tracer_(tracer), span_name_(tracer.intern(span_name)), parent_(parent) {}

smallworld::Action TracedProtocol::on_wake(const smallworld::LocalView& view,
                                           smallworld::ProtocolMessage& message,
                                           smallworld::NodeSlot& slot) const {
    const std::int64_t start = tracer_.now_ns();
    const smallworld::Action action = inner_.on_wake(view, message, slot);
    const std::int64_t end = tracer_.now_ns();
    WakeTally& tally = tallies_.local();
    ++tally.wakes;
    tally.busy_ns += end - start;
    Span span;
    span.name = span_name_;
    span.id = tracer_.next_id();
    span.parent = parent_;
    span.start_ns = start;
    span.end_ns = end;
    tracer_.record(span);
    return action;
}

WakeTally TracedProtocol::total() const {
    WakeTally total;
    tallies_.for_each([&](const WakeTally& tally) {
        total.wakes += tally.wakes;
        total.busy_ns += tally.busy_ns;
    });
    return total;
}

}  // namespace pipebench
