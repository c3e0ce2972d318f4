// The workloads. A run first sets up all of its GIRG instances (setup_s is
// the median set-up time); each instance carries one batch of pairs. Then
// it cycles through every protocol on every batch until --seconds have
// passed, at least once over all. A protocol's throughput is the median
// over batches of the batch's attempts over the steady wall time of its
// calls on that batch. With --trace 1 one more traced cycle times each
// layer through the public seams.

#include <algorithm>
#include <filesystem>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "core/gravity_pressure.h"
#include "core/greedy.h"
#include "core/phi_dfs.h"
#include "core/thread_pool.h"
#include "distributed/protocols.h"
#include "experiments/memory.h"
#include "girg/fingerprint.h"
#include "girg/generator.h"
#include "girg/pack_io.h"
#include "girg/phi_memo.h"
#include "graph/bfs.h"
#include "graph/components.h"
#include "oracle.h"
#include "random/splitmix64.h"
#include "tracing.h"

namespace pipebench {

namespace sw = smallworld;

namespace {

/// Linear-interpolation quantile; 0 for no values.
double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double position = q * static_cast<double>(values.size() - 1);
    const auto lower = static_cast<std::size_t>(position);
    const std::size_t upper = std::min(lower + 1, values.size() - 1);
    const double fraction = position - static_cast<double>(lower);
    return values[lower] + fraction * (values[upper] - values[lower]);
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

// Salts that split the workload seed into independent input streams.
constexpr std::uint64_t kGraphSalt = 0x6772617068ULL;
constexpr std::uint64_t kPairSalt = 0x7061697273ULL;
constexpr std::uint64_t kQuerySalt = 0x7175657279ULL;
constexpr std::uint64_t kServeSalt = 0x7365727665ULL;
constexpr std::uint64_t kFaultSalt = 0x6661756c74ULL;
constexpr std::uint64_t kLatencySalt = 0x6c6174656eULL;
constexpr std::uint64_t kTieSalt = 0x7469656272ULL;

/// A workload is `instances` GIRGs, each with one batch of pairs that every
/// protocol routes. Throughputs are medians over the batches: GIRG instances
/// with beta < 3 differ a lot (the weight law has no second moment), and a
/// rare batch with long walks must not swing the figure.
struct Spec {
    std::string name;
    int log2n = 0;
    bool restrict_to_giant = false;
    std::vector<std::string> protocols;
    std::size_t instances = 1;
    std::size_t targets = 0;  ///< per batch
    std::size_t sources_per_target = 0;
};

Spec spec_for(const std::string& name, bool smoke) {
    Spec spec;
    spec.name = name;
    spec.protocols = {"greedy", "phi_dfs", "gravity"};
    if (name == "giant-pairs") {
        spec.log2n = smoke ? 11 : 17;
        spec.restrict_to_giant = true;
        spec.instances = smoke ? 2 : 16;
        spec.targets = smoke ? 4 : 8;
        spec.sources_per_target = smoke ? 32 : 256;
    } else if (name == "any-pairs") {
        spec.log2n = smoke ? 11 : 15;
        // One source per target: a batch's cost is set by how many of its
        // targets lie outside the giant, so many targets keep that count,
        // and the throughput, steady. Many instances: a few batches route
        // Phi-DFS 3-4 times slower than the median batch, and the median
        // over many batches does not follow them.
        spec.instances = smoke ? 2 : 32;
        spec.targets = smoke ? 32 : 256;
        spec.sources_per_target = 1;
    } else {
        throw std::invalid_argument("unknown workload '" + name +
                                    "' (expected giant-pairs or any-pairs)");
    }
    return spec;
}

sw::GirgParams params_for(int log2n, unsigned threads) {
    sw::GirgParams params;
    params.n = static_cast<double>(std::size_t{1} << log2n);
    params.dim = 2;
    params.alpha = 2.0;
    params.beta = 2.5;
    params.wmin = 2.0;
    params.edge_scale = sw::calibrated_edge_scale(params);
    params.threads = threads;
    return params;
}

std::unique_ptr<sw::Router> make_router(const std::string& protocol) {
    if (protocol == "greedy") return std::make_unique<sw::GreedyRouter>();
    if (protocol == "phi_dfs") return std::make_unique<sw::PhiDfsRouter>();
    return std::make_unique<sw::GravityPressureRouter>();
}

std::unique_ptr<sw::DistributedProtocol> make_protocol(const std::string& protocol) {
    if (protocol == "greedy") return std::make_unique<sw::DistributedGreedy>();
    return std::make_unique<sw::DistributedPhiDfs>();
}

void put(Metrics& metrics, const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
}

/// Every per-layer metric, zero-filled: a layer the workload bypasses
/// reports zero work. The names are those BENCHMARK.json lists.
void put_layer_defaults(Metrics& m) {
    for (const char* name : {"girg.generate_s", "girg.pack_write_s", "graph.pack_open_s",
                             "graph.components_s", "graph.bfs_s", "core.objective.build_s"}) {
        put(m, name, 0.0, "s");
    }
    put(m, "girg.edges", 0.0, "count");
    put(m, "girg.edges_per_s", 0.0, "edges/s");
    put(m, "graph.pack_bytes", 0.0, "bytes");
    put(m, "graph.bfs_calls", 0.0, "count");
    put(m, "graph.bfs_p50_us", 0.0, "us");
    put(m, "graph.pack_decode_share", 0.0, "share");
    put(m, "core.objective.builds", 0.0, "count");
    for (const std::string p : {"greedy", "phi_dfs", "gravity"}) {
        const std::string r = "core.route." + p;
        put(m, r + ".calls", 0.0, "count");
        put(m, r + ".busy_s", 0.0, "s");
        put(m, r + ".p50_us", 0.0, "us");
        put(m, r + ".p99_us", 0.0, "us");
        put(m, r + ".steps", 0.0, "count");
        put(m, r + ".steps_per_s", 0.0, "steps/s");
        put(m, r + ".delivered", 0.0, "count");
        put(m, r + ".dead_end", 0.0, "count");
        put(m, r + ".exhausted", 0.0, "count");
        put(m, r + ".step_limit", 0.0, "count");
        put(m, r + ".steps_per_distinct", 0.0, "ratio");
        put(m, "experiments." + p + ".wall_s", 0.0, "s");
        put(m, "experiments." + p + ".worker_busy_frac", 0.0, "share");
    }
    for (const std::string q : {"greedy", "phi_dfs"}) {
        const std::string d = "distributed." + q;
        put(m, d + ".wall_s", 0.0, "s");
        put(m, d + ".events", 0.0, "count");
        put(m, d + ".events_per_s", 0.0, "events/s");
        put(m, d + ".wakes", 0.0, "count");
        put(m, d + ".wake_busy_s", 0.0, "s");
        put(m, d + ".loop_self_s", 0.0, "s");
        put(m, d + ".objective_build_s", 0.0, "s");
        put(m, d + ".heap_high_water", 0.0, "count");
        put(m, d + ".peak_queue_depth", 0.0, "count");
        put(m, d + ".makespan_ticks", 0.0, "ticks");
        put(m, d + ".delivered", 0.0, "count");
        put(m, d + ".step_limit", 0.0, "count");
    }
    put(m, "trace.overhead", 0.0, "ratio");
    put(m, "trace.unattributed_share", 0.0, "share");
    put(m, "failed_frac", 0.0, "share");
}

double ns_to_s(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

/// Median over repeated, timed connected_components calls on `graph`.
double timed_components(Tracer& tracer, const sw::Graph& graph, std::uint64_t parent) {
    std::vector<double> times;
    for (int rep = 0; rep < 3; ++rep) {
        Tracer::Scope scope = tracer.open("graph.components", parent);
        const sw::Components components = sw::connected_components(graph);
        times.push_back(scope.close());
        if (components.count() == 0) throw std::logic_error("empty graph");
    }
    return median(times);
}

double sum(const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return total;
}

void write_trace(const Tracer& tracer, const Args& args, const std::string& provenance_json) {
    const std::string path =
        args.work_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed) + ".json";
    std::ostringstream other;
    other << "{\"provenance\":" << provenance_json << ",\"spans_dropped\":" << tracer.dropped()
          << "}";
    if (tracer.write_chrome(path, other.str())) {
        std::cout << "trace: wrote " << path << "\n";
    } else {
        std::cerr << "trace: cannot write " << path << "\n";
    }
}

/// walls[p][b]: the wall time of every call of protocol p on batch b.
using Walls = std::vector<std::vector<std::vector<double>>>;

/// Calls call(p, b) for every protocol on every batch of the run and times
/// it, cycling until --seconds have passed, but always at least once over
/// all. Each cycle visits every batch, so a burst of load on the machine
/// hits only some of a batch's calls and its median stays clean.
template <typename Call>
Walls cycle(const Spec& spec, const Args& args, Call&& call) {
    const std::size_t num_protocols = spec.protocols.size();
    const std::size_t num_batches = spec.instances;
    Walls walls(num_protocols, std::vector<std::vector<double>>(num_batches));
    const Clock::time_point deadline =
        Clock::now() +
        std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(args.seconds));
    for (bool first = true; first || Clock::now() < deadline; first = false) {
        for (std::size_t b = 0; b < num_batches; ++b) {
            for (std::size_t p = 0; p < num_protocols; ++p) {
                if (!first && Clock::now() >= deadline) return walls;
                const Clock::time_point start = Clock::now();
                call(p, b);
                walls[p][b].push_back(seconds_between(start, Clock::now()));
            }
        }
    }
    return walls;
}

/// Median wall of one (protocol, batch): the first call warms caches, memo
/// pools and page mappings, so it is left out once two more calls ran.
double steady_wall(const std::vector<double>& walls) {
    return walls.size() < 3 ? median(walls)
                            : median(std::vector<double>(walls.begin() + 1, walls.end()));
}

/// Batch throughputs of a whole run. For each batch: attempts over the
/// steady wall of its calls, per protocol and summed over protocols.
class Throughput {
public:
    explicit Throughput(std::size_t protocols) : per_protocol_(protocols) {}

    /// Adds batches; attempts[p][b] is one call's attempts.
    void add(const Walls& walls, const std::vector<std::vector<double>>& attempts) {
        for (std::size_t b = 0; b < walls.front().size(); ++b) {
            double batch_attempts = 0.0;
            double batch_wall = 0.0;
            for (std::size_t p = 0; p < walls.size(); ++p) {
                const double wall = steady_wall(walls[p][b]);
                per_protocol_[p].push_back(attempts[p][b] / wall);
                batch_attempts += attempts[p][b];
                batch_wall += wall;
            }
            per_batch_.push_back(batch_attempts / batch_wall);
            cycle_attempts_ += batch_attempts;
            cycle_wall_ += batch_wall;
        }
    }
    /// Median over batches of protocol p's throughput.
    [[nodiscard]] double protocol(std::size_t p) const { return median(per_protocol_[p]); }
    /// Median over batches of the all-protocol throughput.
    [[nodiscard]] double pipeline() const { return median(per_batch_); }
    /// All attempts of one cycle over the sum of the steady walls: the
    /// untraced counterpart of one traced cycle.
    [[nodiscard]] double cycle_rate() const { return cycle_attempts_ / cycle_wall_; }

private:
    std::vector<std::vector<double>> per_protocol_;
    std::vector<double> per_batch_;
    double cycle_attempts_ = 0.0;
    double cycle_wall_ = 0.0;
};

double peak_rss_mb() { return static_cast<double>(sw::peak_rss_bytes()) / (1024.0 * 1024.0); }

/// The end-to-end metrics every workload prints with tracing off.
/// setup_rss_mb is the peak resident size when set-up ends: the whole-run
/// peak also holds the state of the longest walk, and on giant-pairs a
/// step-capped walk inside the giant is rare enough (a few seeds in ten)
/// to make that peak jump by a fifth between seeds. The whole-run peak is
/// the per-layer metric peak_rss_mb.
void put_end_to_end(Metrics& m, const std::vector<double>& setups, double setup_rss_mb,
                    const Throughput& rates) {
    put(m, "setup_s", median(setups), "s");
    put(m, "greedy.routes_per_s", rates.protocol(0), "routes/s");
    put(m, "phi_dfs.routes_per_s", rates.protocol(1), "routes/s");
    put(m, "pipeline.routes_per_s", rates.pipeline(), "routes/s");
    put(m, "setup_rss_mb", setup_rss_mb, "MB");
}

std::uint64_t instance_seed(const Args& args, std::size_t instance) {
    return sw::hash_combine(args.seed, kGraphSalt + instance);
}

std::uint64_t batch_seed(const Args& args, std::size_t batch) {
    return sw::hash_combine(args.seed, kPairSalt + batch);
}

// Serving layout of the probe: batches, queries per batch, distinct
// targets per batch.
constexpr std::size_t kProbeBatches = 2;
constexpr std::size_t kProbeQueries = 1024;
constexpr std::size_t kProbeTargets = 32;

void probe_serving(const Args& args, const sw::Girg& girg, unsigned threads, Tracer& tracer,
                   std::uint64_t parent, Metrics& m, RunReport& report);

// ------------------------------------------------------ giant- / any-pairs

/// What the traced cycles of a giant-/any-pairs run add up.
struct TrialLayers {
    explicit TrialLayers(std::size_t protocols)
        : routes(protocols),
          route_busy(protocols),
          call_wall(protocols),
          call_build(protocols),
          steps(protocols),
          distinct(protocols) {}

    std::vector<double> components_s;
    std::vector<double> bfs_times;
    double edges = 0.0;  ///< summed over instances
    std::uint64_t builds = 0;
    double build_busy = 0.0;
    std::vector<RouteTally> routes;
    std::vector<double> route_busy, call_wall, call_build, steps, distinct;
    double traced_attempts = 0.0;
    double traced_wall = 0.0;
    double attributed = 0.0;  ///< worker seconds attributed to a layer
    double available = 0.0;   ///< worker seconds of the traced calls
};

using FirstStats = std::vector<std::vector<std::optional<sw::TrialStats>>>;

/// The traced cycle over batch b, which lives on `girg`: a Router decorator
/// and a wrapped factory inside run_girg_trials, then direct timed calls of
/// connected_components and of bfs_distances on the targets the runner drew.
void trace_trials(const Spec& spec, const sw::Girg& girg, const sw::TrialConfig& config,
                  std::uint64_t seed, std::size_t b,
                  const std::vector<std::unique_ptr<sw::Router>>& routers,
                  const sw::ObjectiveFactory& factory, const FirstStats& untraced,
                  unsigned threads, Tracer& tracer, std::uint64_t parent, TrialLayers& layers,
                  RunReport& report) {
    const double workers = static_cast<double>(threads);
    const double components_s = timed_components(tracer, girg.graph, parent);
    layers.components_s.push_back(components_s);
    std::vector<sw::Vertex> targets;
    for (std::size_t p = 0; p < routers.size(); ++p) {
        const std::string& protocol = spec.protocols[p];
        Tracer::Scope call = tracer.open("experiments." + protocol, parent);
        const TracedRouter traced(*routers[p], tracer, "core.route." + protocol, call.id);
        TracedBuilds builds(tracer, call.id);
        const sw::TrialStats stats =
            sw::run_girg_trials(girg, traced, builds.wrap(factory), config, seed);
        const double wall = call.close();

        const RouteTally tally = traced.total();
        const BuildTally build = builds.total();
        if (!(tally.outcome == outcome_of(stats)) ||
            !(tally.outcome == outcome_of(*untraced[p][b]))) {
            report.mismatch(protocol + ": traced tallies differ from TrialStats");
        }
        if (targets.empty()) targets = build.targets;
        const double route_s = ns_to_s(tally.busy_ns);
        const double build_s = ns_to_s(build.busy_ns);
        layers.routes[p].outcome += tally.outcome;
        layers.routes[p].durations_ns.insert(layers.routes[p].durations_ns.end(),
                                             tally.durations_ns.begin(),
                                             tally.durations_ns.end());
        layers.route_busy[p] += route_s;
        layers.call_wall[p] += wall;
        layers.call_build[p] += build_s;
        layers.steps[p] += stats.steps_all.mean() * static_cast<double>(stats.steps_all.count());
        layers.distinct[p] += stats.distinct_visited.mean() *
                              static_cast<double>(stats.distinct_visited.count());
        layers.builds += build.builds;
        layers.build_busy += build_s;
        layers.traced_attempts += static_cast<double>(stats.attempts);
        layers.traced_wall += wall;
        // Components run serially inside the call and hold every worker.
        layers.attributed += route_s + build_s + components_s * workers;
        layers.available += wall * workers;
    }

    // The runner's Phase A, called directly: one serial BFS per target
    // across the pool.
    std::vector<double> times(targets.size());
    Tracer::Scope phase = tracer.open("graph.bfs_phase", parent);
    sw::parallel_for(
        targets.size(),
        [&](std::size_t i) {
            Tracer::Scope scope = tracer.open("graph.bfs", phase.id);
            const std::vector<std::int32_t> dist =
                sw::bfs_distances(girg.graph, targets[i], threads);
            times[i] = scope.close();
            if (dist[targets[i]] != 0) throw std::logic_error("bfs: target not at 0");
        },
        threads);
    phase.close();
    // Every protocol's call on this batch ran the same BFS.
    layers.attributed += sum(times) * static_cast<double>(routers.size());
    layers.bfs_times.insert(layers.bfs_times.end(), times.begin(), times.end());
}

void put_trial_layers(const Spec& spec, const TrialLayers& layers,
                      const std::vector<double>& setups, const Throughput& rates,
                      unsigned threads, Metrics& m) {
    put(m, "girg.generate_s", median(setups), "s");
    put(m, "girg.edges", layers.edges / static_cast<double>(setups.size()), "count");
    put(m, "girg.edges_per_s", layers.edges / sum(setups), "edges/s");
    put(m, "graph.components_s", median(layers.components_s), "s");
    put(m, "graph.bfs_calls", static_cast<double>(layers.bfs_times.size()), "count");
    put(m, "graph.bfs_s", sum(layers.bfs_times), "s");
    put(m, "graph.bfs_p50_us", median(layers.bfs_times) * 1e6, "us");
    put(m, "core.objective.builds", static_cast<double>(layers.builds), "count");
    put(m, "core.objective.build_s", layers.build_busy, "s");
    for (std::size_t p = 0; p < spec.protocols.size(); ++p) {
        const std::string r = "core.route." + spec.protocols[p];
        const Outcome& o = layers.routes[p].outcome;
        std::vector<double> durations;
        for (const std::int64_t ns : layers.routes[p].durations_ns) {
            durations.push_back(ns_to_s(ns));
        }
        put(m, r + ".calls", static_cast<double>(o.attempts), "count");
        put(m, r + ".busy_s", layers.route_busy[p], "s");
        put(m, r + ".p50_us", quantile(durations, 0.5) * 1e6, "us");
        put(m, r + ".p99_us", quantile(durations, 0.99) * 1e6, "us");
        put(m, r + ".steps", static_cast<double>(o.steps), "count");
        put(m, r + ".steps_per_s", static_cast<double>(o.steps) / layers.route_busy[p],
            "steps/s");
        put(m, r + ".delivered", static_cast<double>(o.delivered), "count");
        put(m, r + ".dead_end", static_cast<double>(o.dead_end), "count");
        put(m, r + ".exhausted", static_cast<double>(o.exhausted), "count");
        put(m, r + ".step_limit", static_cast<double>(o.step_limit), "count");
        put(m, r + ".steps_per_distinct", layers.steps[p] / layers.distinct[p], "ratio");
        const std::string e = "experiments." + spec.protocols[p];
        put(m, e + ".wall_s", layers.call_wall[p], "s");
        put(m, e + ".worker_busy_frac",
            (layers.route_busy[p] + layers.call_build[p]) /
                (layers.call_wall[p] * static_cast<double>(threads)),
            "share");
    }
    put(m, "trace.overhead", (layers.traced_attempts / layers.traced_wall) / rates.cycle_rate(),
        "ratio");
    put(m, "trace.unattributed_share", 1.0 - layers.attributed / layers.available, "share");
}

RunReport run_trials(const Spec& spec, const Args& args, unsigned threads,
                     const std::string& provenance_json) {
    RunReport report;
    const std::size_t num_protocols = spec.protocols.size();
    std::vector<std::unique_ptr<sw::Router>> routers;
    for (const std::string& protocol : spec.protocols) routers.push_back(make_router(protocol));
    sw::TrialConfig config;
    config.targets = spec.targets;
    config.sources_per_target = spec.sources_per_target;
    config.restrict_to_giant = spec.restrict_to_giant;
    config.threads = threads;
    const sw::GirgParams params = params_for(spec.log2n, threads);

    std::optional<Tracer> tracer;
    std::optional<Tracer::Scope> run_span;
    if (args.trace) run_span = tracer.emplace().open("pipebench." + spec.name);
    const std::uint64_t root = run_span ? run_span->id : 0;

    // Set-up: every instance is generated up front and stays resident.
    std::vector<double> setups;
    std::vector<sw::Girg> girgs;
    std::vector<sw::ObjectiveFactory> factories;  // one memo pool per instance
    for (std::size_t g = 0; g < spec.instances; ++g) {
        std::optional<Tracer::Scope> setup_span;
        if (tracer) setup_span = tracer->open("girg.generate", root);
        const Clock::time_point start = Clock::now();
        girgs.push_back(sw::generate_girg(params, instance_seed(args, g)));
        setups.push_back(seconds_between(start, Clock::now()));
        if (setup_span) setup_span->close();
        factories.push_back(sw::girg_objective_factory());
    }
    const double setup_rss_mb = peak_rss_mb();

    const std::size_t num_batches = spec.instances;
    std::vector<std::uint64_t> seeds;
    for (std::size_t b = 0; b < num_batches; ++b) seeds.push_back(batch_seed(args, b));
    auto label = [&](std::size_t p, std::size_t b) {
        return spec.protocols[p] + "/batch" + std::to_string(b);
    };
    // The first call of each (protocol, batch) is checked and kept; every
    // repeat must reproduce it.
    FirstStats first(num_protocols, std::vector<std::optional<sw::TrialStats>>(num_batches));
    const Walls walls = cycle(spec, args, [&](std::size_t p, std::size_t b) {
        sw::TrialStats stats =
            sw::run_girg_trials(girgs[b], *routers[p], factories[b], config, seeds[b]);
        report.attempted += stats.attempts;
        report.step_limited += stats.step_limit;
        if (!first[p][b]) {
            check_trial_invariants(label(p, b), spec.protocols[p], stats, spec.restrict_to_giant,
                                   report);
            first[p][b] = std::move(stats);
        } else if (!(outcome_of(stats) == outcome_of(*first[p][b]))) {
            report.mismatch(label(p, b) + ": a repeated call changed its outcome");
        }
    });

    std::vector<std::vector<double>> attempts(num_protocols);
    for (std::size_t p = 0; p < num_protocols; ++p) {
        Outcome total;
        for (std::size_t b = 0; b < num_batches; ++b) {
            total += outcome_of(*first[p][b]);
            attempts[p].push_back(static_cast<double>(first[p][b]->attempts));
        }
        report.outcomes[spec.protocols[p]] = total;
    }
    // Greedy never delivers more than Phi-DFS on the same pairs.
    for (std::size_t b = 0; b < num_batches; ++b) {
        if (first[0][b]->delivered > first[1][b]->delivered) {
            report.mismatch(label(0, b) + ": greedy delivered more than phi_dfs");
        }
    }
    Throughput rates(num_protocols);
    rates.add(walls, attempts);
    if (!tracer) {
        put_end_to_end(report.metrics, setups, setup_rss_mb, rates);
        return report;
    }

    TrialLayers layers(num_protocols);
    for (std::size_t g = 0; g < spec.instances; ++g) {
        layers.edges += static_cast<double>(girgs[g].graph.num_edges());
        trace_trials(spec, girgs[g], config, seeds[g], g, routers, factories[g], first, threads,
                     *tracer, root, layers, report);
    }
    put_layer_defaults(report.metrics);
    put_trial_layers(spec, layers, setups, rates, threads, report.metrics);
    probe_serving(args, girgs.front(), threads, *tracer, root, report.metrics, report);
    run_span->close();
    put(report.metrics, "peak_rss_mb", peak_rss_mb(), "MB");
    put(report.metrics, "failed_frac",
        static_cast<double>(report.step_limited + report.failed) /
            static_cast<double>(report.attempted),
        "share");
    write_trace(*tracer, args, provenance_json);
    return report;
}

// ------------------------------------------------------------ serving probe

/// Vertices of the largest component of the residual graph: the live
/// (not crashed) vertices and the edges between them.
std::vector<sw::Vertex> residual_giant(const sw::Graph& graph, const sw::FaultState& faults) {
    const sw::Vertex n = graph.num_vertices();
    std::vector<std::uint32_t> label(n, 0);  // 0 = unvisited or crashed
    std::vector<sw::Vertex> queue;
    std::uint32_t best_label = 0;
    std::size_t best_size = 0;
    std::uint32_t next_label = 1;
    for (sw::Vertex root = 0; root < n; ++root) {
        if (label[root] != 0 || faults.crashed(root)) continue;
        const std::uint32_t current = next_label++;
        label[root] = current;
        queue.assign(1, root);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            for (const sw::Vertex u : graph.neighbors(queue[head])) {
                if (label[u] == 0 && !faults.crashed(u)) {
                    label[u] = current;
                    queue.push_back(u);
                }
            }
        }
        if (queue.size() > best_size) {
            best_size = queue.size();
            best_label = current;
        }
    }
    std::vector<sw::Vertex> giant;
    for (sw::Vertex v = 0; v < n; ++v) {
        if (label[v] == best_label) giant.push_back(v);
    }
    return giant;
}

/// One batch of queries between vertices of the residual giant, over
/// kProbeTargets distinct targets, one query injected per simulated tick
/// (open loop: the schedule ignores the backlog). A query toward a target
/// the crashes cut off could only end after Phi-DFS walked the whole giant;
/// that regime is any-pairs'.
std::vector<sw::ServingQuery> make_queries(const std::vector<sw::Vertex>& giant,
                                           std::uint64_t seed) {
    sw::Rng rng(seed);
    std::set<sw::Vertex> chosen;
    std::vector<sw::Vertex> targets;
    while (targets.size() < kProbeTargets) {
        const sw::Vertex t = giant[rng.uniform_index(giant.size())];
        if (chosen.insert(t).second) targets.push_back(t);
    }
    std::vector<sw::ServingQuery> queries;
    for (std::size_t i = 0; i < kProbeQueries; ++i) {
        const sw::Vertex target = targets[rng.uniform_index(targets.size())];
        sw::Vertex source = target;
        while (source == target) source = giant[rng.uniform_index(giant.size())];
        queries.push_back({source, target, static_cast<sw::SimTime>(i)});
    }
    return queries;
}

/// Objectives over `girg`, with a memo pool: objectives built for one batch
/// recycle the tables of the previous one.
sw::TargetObjectiveFactory objective_factory(const sw::Girg& girg) {
    const auto pool = std::make_shared<sw::PhiMemoPool>();
    return [&girg, pool](sw::Vertex target) -> std::unique_ptr<sw::Objective> {
        sw::PhiOptions phi;
        phi.pool = pool;
        return std::make_unique<sw::GirgObjective>(girg, target, phi);
    };
}

/// The serving probe that ends every traced run. Instance 0 is written as
/// a delta-varint pack, mapped, and served by DistributedGreedy and
/// DistributedPhiDfs under a fault plan (loss 0.1, link failure 0.1, crash
/// 0.02), seeded-jitter latency and queues of 32: a DistributedProtocol
/// decorator and a wrapped TargetObjectiveFactory inside simulate_many. The
/// same batches are served untraced over the pack and over the resident
/// CSR; all three must agree.
void probe_serving(const Args& args, const sw::Girg& girg, unsigned threads, Tracer& tracer,
                   std::uint64_t parent, Metrics& m, RunReport& report) {
    const std::string pack_path =
        args.work_dir + "/serve-probe-seed" + std::to_string(args.seed) + ".girgpack";
    const std::uint64_t seed = sw::hash_combine(args.seed, kServeSalt);
    Tracer::Scope write_span = tracer.open("girg.pack_write", parent);
    sw::PackOptions pack_options;
    pack_options.compress = true;
    const sw::PackFileInfo info = sw::write_girg_pack(pack_path, girg, pack_options);
    put(m, "girg.pack_write_s", write_span.close(), "s");
    Tracer::Scope open_span = tracer.open("graph.pack_open", parent);
    std::optional<sw::PackedGraph> pack(std::in_place, pack_path);
    const sw::Girg attributes = sw::load_pack_attributes(*pack);
    put(m, "graph.pack_open_s", open_span.close(), "s");
    put(m, "graph.pack_bytes", static_cast<double>(info.file_bytes), "bytes");
    if (pack->fingerprint() != sw::girg_fingerprint(girg)) {
        report.mismatch("serve: pack fingerprint differs from the generated instance");
    }

    sw::FaultPlan plan;
    plan.seed = sw::hash_combine(seed, kFaultSalt);
    plan.message_loss_prob = 0.1;
    plan.link_failure_prob = 0.1;
    plan.crash_fraction = 0.02;
    sw::NeighborScratch scratch;
    const sw::GraphView view = pack->view(scratch);
    const sw::FaultState pack_faults(view, plan);
    const sw::FaultState resident_faults(girg.graph, plan);
    sw::ServingOptions options;
    options.latency.kind = sw::LatencyKind::kSeededJitter;
    options.latency.base_ticks = 1;
    options.latency.jitter_ticks = 3;
    options.latency.seed = sw::hash_combine(seed, kLatencySalt);
    options.queue_capacity = 32;
    options.seed = sw::hash_combine(seed, kTieSalt);
    options.threads = threads;
    sw::ServingOptions resident_options = options;
    options.faults = &pack_faults;
    resident_options.faults = &resident_faults;
    const sw::TargetObjectiveFactory factory = objective_factory(attributes);
    const sw::TargetObjectiveFactory resident_factory = objective_factory(girg);

    const std::vector<sw::Vertex> giant = residual_giant(girg.graph, resident_faults);
    std::vector<std::vector<sw::ServingQuery>> batches;
    for (std::size_t b = 0; b < kProbeBatches; ++b) {
        batches.push_back(make_queries(giant, sw::hash_combine(seed, kQuerySalt + b)));
    }

    double pack_wall = 0.0;
    double resident_wall = 0.0;
    double builds = 0.0;
    double build_busy = 0.0;
    for (const std::string protocol_name : {"greedy", "phi_dfs"}) {
        const std::unique_ptr<sw::DistributedProtocol> protocol = make_protocol(protocol_name);
        const std::string d = "distributed." + protocol_name;
        double wall = 0.0, wake_busy = 0.0, loop_self = 0.0, build = 0.0, events = 0.0;
        double wakes = 0.0, heap = 0.0, queue = 0.0, makespan = 0.0;
        Outcome outcome;
        for (const std::vector<sw::ServingQuery>& batch : batches) {
            Clock::time_point start = Clock::now();
            const sw::ServingResult untraced =
                sw::simulate_many(view, factory, *protocol, batch, options);
            pack_wall += seconds_between(start, Clock::now());
            start = Clock::now();
            const sw::ServingResult resident = sw::simulate_many(
                girg.graph, resident_factory, *protocol, batch, resident_options);
            resident_wall += seconds_between(start, Clock::now());

            Tracer::Scope call = tracer.open(d, parent);
            const TracedProtocol traced(*protocol, tracer, d + ".wake", call.id);
            TracedBuilds traced_builds(tracer, call.id);
            const sw::ServingResult result =
                sw::simulate_many(view, traced_builds.wrap(factory), traced, batch, options);
            const double call_wall = call.close();

            const std::uint64_t digest = fingerprint(untraced);
            if (fingerprint(resident) != digest) {
                report.mismatch(d + ": pack and resident serving differ");
            }
            if (fingerprint(result) != digest) {
                report.mismatch(d + ": traced and untraced serving differ");
            }
            const WakeTally tally = traced.total();
            const BuildTally built = traced_builds.total();
            // Objectives are built in parallel before the loop starts; the
            // window they span is the set-up part of the wall time.
            const double build_window =
                built.builds == 0 ? 0.0 : ns_to_s(built.last_end_ns - built.first_start_ns);
            for (const std::uint32_t depth : result.serving.node_queue_high_water) {
                queue = std::max(queue, static_cast<double>(depth));
            }
            wall += call_wall;
            wake_busy += ns_to_s(tally.busy_ns);
            loop_self += call_wall - ns_to_s(tally.busy_ns) - build_window;
            build += ns_to_s(built.busy_ns);
            events += static_cast<double>(result.serving.events_fired);
            wakes += static_cast<double>(tally.wakes);
            heap = std::max(heap, static_cast<double>(result.serving.heap_high_water));
            makespan = std::max(makespan, static_cast<double>(result.serving.clock_end));
            outcome += outcome_of(result);
            builds += static_cast<double>(built.builds);
            build_busy += ns_to_s(built.busy_ns);
        }
        report.outcomes["serve." + protocol_name] = outcome;
        report.attempted += outcome.attempts;
        report.step_limited += outcome.step_limit;
        put(m, d + ".wall_s", wall, "s");
        put(m, d + ".events", events, "count");
        put(m, d + ".events_per_s", events / wall, "events/s");
        put(m, d + ".wakes", wakes, "count");
        put(m, d + ".wake_busy_s", wake_busy, "s");
        put(m, d + ".loop_self_s", loop_self, "s");
        put(m, d + ".objective_build_s", build, "s");
        put(m, d + ".heap_high_water", heap, "count");
        put(m, d + ".peak_queue_depth", queue, "count");
        put(m, d + ".makespan_ticks", makespan, "ticks");
        put(m, d + ".delivered", static_cast<double>(outcome.delivered), "count");
        put(m, d + ".step_limit", static_cast<double>(outcome.step_limit), "count");
    }
    put(m, "graph.pack_decode_share", 1.0 - resident_wall / pack_wall, "share");
    m["core.objective.builds"].value += builds;
    m["core.objective.build_s"].value += build_busy;
    pack.reset();
    std::filesystem::remove(pack_path);
}

}  // namespace

RunReport run_workload(const Args& args, unsigned threads, const std::string& provenance_json) {
    const Spec spec = spec_for(args.workload, args.smoke);
    std::filesystem::create_directories(args.work_dir);
    return run_trials(spec, args, threads, provenance_json);
}

}  // namespace pipebench
