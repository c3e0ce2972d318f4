// pipebench: the repository's end-to-end benchmark. One process generates
// GIRG instances, routes them with greedy, Phi-DFS and gravity-pressure via
// run_girg_trials (a traced run also serves a pack through simulate_many),
// checks the outputs against the oracle, and prints one JSON result line
// last. See pipebench/README.md.
//
//   pipebench --workload giant-pairs|any-pairs --seed N
//             --seconds S --trace 0|1 [--smoke] [--work-dir DIR]
//             [--print-oracle] [--git-sha SHA] [--src-digest HEX]

#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "oracle.h"

namespace {

using pipebench::Args;

[[noreturn]] void usage(const std::string& problem) {
    std::cerr << "pipebench: " << problem
              << "\nusage: pipebench --workload giant-pairs|any-pairs --seed N"
                 " --seconds S --trace 0|1 [--smoke] [--work-dir DIR] [--print-oracle]"
                 " [--git-sha SHA] [--src-digest HEX]\n";
    std::exit(2);
}

Args parse(int argc, char** argv) {
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc) usage("missing value for " + flag);
            return argv[++i];
        };
        try {
            if (flag == "--workload") {
                args.workload = value();
            } else if (flag == "--seed") {
                args.seed = std::stoull(value());
            } else if (flag == "--seconds") {
                args.seconds = std::stod(value());
            } else if (flag == "--trace") {
                args.trace = std::stoi(value()) != 0;
            } else if (flag == "--smoke") {
                args.smoke = true;
            } else if (flag == "--work-dir") {
                args.work_dir = value();
            } else if (flag == "--print-oracle") {
                args.print_oracle = true;
            } else if (flag == "--git-sha") {
                args.git_sha = value();
            } else if (flag == "--src-digest") {
                args.src_digest = value();
            } else {
                usage("unknown argument " + flag);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + flag);
        }
    }
    if (args.workload.empty()) usage("--workload is required");
    if (!(args.seconds > 0.0)) usage("--seconds must be positive");
    return args;
}

/// CPUs this process may run on (what `nproc` prints).
unsigned affinity_cpus() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
    const int count = CPU_COUNT(&set);
    return count > 0 ? static_cast<unsigned>(count) : 1;
}

std::string compiler() {
#if defined(__clang__)
    return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc ") + __VERSION__;
#else
    return "unknown";
#endif
}

std::string json_string(const std::string& text) {
    std::ostringstream out;
    out << '"';
    for (const char c : text) {
        if (c == '"' || c == '\\') out << '\\';
        out << c;
    }
    out << '"';
    return out.str();
}

}  // namespace

int main(int argc, char** argv) {
    const Args args = parse(argc, argv);
    const unsigned nproc = affinity_cpus();
    const unsigned threads = nproc;

    std::ostringstream provenance;
    provenance << "{\"workload\":" << json_string(args.workload) << ",\"seed\":" << args.seed
               << ",\"seconds\":" << args.seconds << ",\"trace\":" << (args.trace ? 1 : 0)
               << ",\"smoke\":" << (args.smoke ? "true" : "false") << ",\"threads\":" << threads
               << ",\"nproc\":" << nproc
               << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
               << ",\"compiler\":" << json_string(compiler())
               << ",\"git_sha\":" << json_string(args.git_sha)
               << ",\"src_digest\":" << json_string(args.src_digest) << "}";
    std::cout << "provenance: " << provenance.str() << std::endl;

    pipebench::RunReport report;
    try {
        report = pipebench::run_workload(args, threads, provenance.str());
    } catch (const std::invalid_argument& error) {
        usage(error.what());
    } catch (const std::exception& error) {
        std::cerr << "pipebench: " << error.what() << "\n";
        return 1;
    }

    if (args.print_oracle) {
        pipebench::print_frozen(args, report);
        return 0;
    }
    if (args.seed == pipebench::kOracleSeed) pipebench::check_frozen(args, report);
    for (auto& [name, metric] : report.metrics) {
        if (!std::isfinite(metric.value)) {
            report.mismatch("metric " + name + " is not finite");
            metric.value = 0.0;
        }
    }
    for (const std::string& what : report.mismatches) {
        std::cerr << "pipebench: MISMATCH " << what << "\n";
    }
    for (const auto& [protocol, o] : report.outcomes) {
        std::cout << "outcome: " << protocol << " attempts=" << o.attempts
                  << " delivered=" << o.delivered << " dead_end=" << o.dead_end
                  << " exhausted=" << o.exhausted << " step_limit=" << o.step_limit
                  << " steps=" << o.steps << "\n";
    }

    std::cout << "step_limit: " << report.step_limited << " of " << report.attempted
              << " routes and queries ended in kStepLimit\n";

    const bool correct = report.mismatches.empty();
    std::ostringstream line;
    line << std::setprecision(17) << "{\"correct\": " << (correct ? "true" : "false")
         << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
         << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : report.metrics) {
        line << (first ? "" : ", ") << json_string(name) << ": {\"value\": " << metric.value
             << ", \"unit\": " << json_string(metric.unit) << "}";
        first = false;
    }
    line << "}}";
    std::cout << line.str() << std::endl;
    return correct ? 0 : 1;
}
