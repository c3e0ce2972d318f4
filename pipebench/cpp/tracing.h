#pragma once

// The traced run's instruments. Everything here sits outside the library
// and reaches it only through public seams: a Router decorator, wrapped
// objective factories, a DistributedProtocol decorator, and direct timed
// calls made by the workload code. Spans stay in memory and are written as
// Chrome trace-event JSON when the run ends.

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench.h"
#include "core/router.h"
#include "distributed/serving.h"
#include "distributed/simulation.h"
#include "experiments/runner.h"

namespace pipebench {

namespace detail {
[[nodiscard]] std::uint64_t next_instance_id();
[[nodiscard]] std::uint32_t this_thread_index();
}  // namespace detail

/// One T per thread that touches the instance. local() is safe to call
/// concurrently; merge with for_each() only after the writers are done.
template <typename T>
class PerThread {
public:
    PerThread() = default;
    PerThread(const PerThread&) = delete;
    PerThread& operator=(const PerThread&) = delete;

    T& local() {
        // Instance ids are never reused, so a stale entry of a destroyed
        // instance can never match a live one.
        thread_local std::vector<std::pair<std::uint64_t, T*>> cache;
        for (const auto& [id, slot] : cache) {
            if (id == id_) return *slot;
        }
        const std::lock_guard lock(mutex_);
        slots_.push_back(std::make_unique<T>());
        cache.emplace_back(id_, slots_.back().get());
        return *slots_.back();
    }

    template <typename Fn>
    void for_each(Fn&& fn) const {
        const std::lock_guard lock(mutex_);
        for (const auto& slot : slots_) fn(*slot);
    }

private:
    std::uint64_t id_ = detail::next_instance_id();
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<T>> slots_;
};

struct Span {
    std::uint32_t name = 0;  ///< index into the tracer's name table
    std::uint32_t thread = 0;
    std::uint64_t id = 0;      ///< shared by every span of one route or call
    std::uint64_t parent = 0;  ///< id of the causing span, 0 for a root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t status = -1;  ///< RoutingStatus of a route span, else -1
    std::uint64_t steps = 0;
};

/// In-memory span store. At most `max_spans` spans are kept (the rest are
/// counted as dropped); the decorators' tallies never depend on the cap.
class Tracer {
public:
    explicit Tracer(std::size_t max_spans = 1'000'000);

    [[nodiscard]] std::int64_t now_ns() const {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
            .count();
    }
    [[nodiscard]] std::uint64_t next_id() { return next_id_.fetch_add(1); }
    [[nodiscard]] std::uint32_t intern(const std::string& name);
    void record(const Span& span);

    /// Opens a span on the calling thread; close() records it.
    struct Scope {
        Tracer* tracer;
        std::uint32_t name;
        std::uint64_t id;
        std::uint64_t parent;
        std::int64_t start_ns;
        /// Returns the span's duration in seconds.
        double close();
    };
    [[nodiscard]] Scope open(const std::string& name, std::uint64_t parent = 0);

    /// Chrome trace-event JSON; `other_data` is a JSON object stored
    /// under "otherData" (provenance, drop counts).
    bool write_chrome(const std::string& path, const std::string& other_data) const;
    [[nodiscard]] std::uint64_t dropped() const { return dropped_.load(); }

private:
    Clock::time_point origin_ = Clock::now();
    std::size_t max_spans_;
    std::atomic<std::uint64_t> next_id_{1};
    std::atomic<std::size_t> stored_{0};
    std::atomic<std::uint64_t> dropped_{0};
    mutable std::mutex names_mutex_;
    std::vector<std::string> names_;
    PerThread<std::vector<Span>> buffers_;
};

/// Per-route tallies of one traced router call.
struct RouteTally {
    Outcome outcome;
    std::int64_t busy_ns = 0;
    std::vector<std::int64_t> durations_ns;
};

/// Router decorator: times every route() call and tallies its outcome.
class TracedRouter final : public smallworld::Router {
public:
    TracedRouter(const smallworld::Router& inner, Tracer& tracer, const std::string& span_name,
                 std::uint64_t parent);

    [[nodiscard]] smallworld::RoutingResult route(
        const smallworld::GraphView& graph, const smallworld::Objective& objective,
        smallworld::Vertex source, const smallworld::RoutingOptions& options) const override;
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    [[nodiscard]] RouteTally total() const;

private:
    const smallworld::Router& inner_;
    Tracer& tracer_;
    std::uint32_t span_name_;
    std::uint64_t parent_;
    mutable PerThread<RouteTally> tallies_;
};

/// Objective set-up tallies: builds, busy time, the window the builds span,
/// and the targets they were built for.
struct BuildTally {
    std::uint64_t builds = 0;
    std::int64_t busy_ns = 0;
    std::int64_t first_start_ns = std::numeric_limits<std::int64_t>::max();
    std::int64_t last_end_ns = std::numeric_limits<std::int64_t>::min();
    std::vector<smallworld::Vertex> targets;
};

/// Wraps objective factories so every build is timed and its target noted.
class TracedBuilds {
public:
    TracedBuilds(Tracer& tracer, std::uint64_t parent)
        : tracer_(tracer), span_name_(tracer.intern("core.objective.build")), parent_(parent) {}

    [[nodiscard]] smallworld::ObjectiveFactory wrap(smallworld::ObjectiveFactory inner);
    [[nodiscard]] smallworld::TargetObjectiveFactory wrap(
        smallworld::TargetObjectiveFactory inner);
    /// Merged tally; targets sorted and deduplicated.
    [[nodiscard]] BuildTally total() const;

private:
    template <typename Build>
    auto timed(smallworld::Vertex target, Build&& build);

    Tracer& tracer_;
    std::uint32_t span_name_;
    std::uint64_t parent_;
    PerThread<BuildTally> tallies_;
};

struct WakeTally {
    std::uint64_t wakes = 0;
    std::int64_t busy_ns = 0;
};

/// DistributedProtocol decorator: times every on_wake. Wake spans go to
/// the tracer too, subject to its cap.
class TracedProtocol final : public smallworld::DistributedProtocol {
public:
    TracedProtocol(const smallworld::DistributedProtocol& inner, Tracer& tracer,
                   const std::string& span_name, std::uint64_t parent);

    void on_start(const smallworld::LocalView& view, smallworld::ProtocolMessage& message,
                  smallworld::NodeSlot& slot) const override {
        inner_.on_start(view, message, slot);
    }
    [[nodiscard]] smallworld::Action on_wake(const smallworld::LocalView& view,
                                             smallworld::ProtocolMessage& message,
                                             smallworld::NodeSlot& slot) const override;
    [[nodiscard]] std::string name() const override { return inner_.name(); }

    [[nodiscard]] WakeTally total() const;

private:
    const smallworld::DistributedProtocol& inner_;
    Tracer& tracer_;
    std::uint32_t span_name_;
    std::uint64_t parent_;
    mutable PerThread<WakeTally> tallies_;
};

}  // namespace pipebench
