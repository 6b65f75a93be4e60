// perfbench_runner: runs one benchmark workload and prints its metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S [--trace 0|1]
//                    [--out DIR] [--commit ID] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced episodes and prints the per-layer metrics, writing a Chrome trace
// of the first traced episode to DIR. Every run prints a host stamp first and
// ends with one JSON result line; DIR also receives the result with its
// stamp, sample counts and notes. Exit codes: 0 success, 1 a correctness
// check failed (the result line says so), 2 bad arguments, 3 a build without
// NDEBUG (timings refused), 4 the run could not complete.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "measure.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace p2pcd::perfbench;

struct cli {
    std::string workload;
    std::uint64_t seed = 0;
    bool have_seed = false;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
};

[[noreturn]] void usage(const std::string& complaint) {
    std::cerr << "perfbench_runner: " << complaint
              << "\nusage: perfbench_runner --workload NAME --seed N --seconds S "
                 "[--trace 0|1] [--out DIR] [--commit ID] [--source-digest HEX]\n";
    std::exit(2);
}

bool all_digits(const std::string& s) {
    return !s.empty() && s.size() <= 19 &&
           s.find_first_not_of("0123456789") == std::string::npos;
}

cli parse(int argc, char** argv) {
    cli c;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            c.workload = value;
        } else if (flag == "--seed") {
            if (!all_digits(value)) usage("--seed needs a non-negative integer");
            c.seed = std::stoull(value);
            c.have_seed = true;
        } else if (flag == "--seconds") {
            if (!all_digits(value) || std::stoull(value) == 0 || std::stoull(value) > 600)
                usage("--seconds needs a whole number in [1, 600]");
            c.seconds = static_cast<double>(std::stoull(value));
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace needs 0 or 1");
            c.trace = value == "1";
        } else if (flag == "--out") {
            c.out_dir = value;
        } else if (flag == "--commit") {
            c.commit = value;
        } else if (flag == "--source-digest") {
            c.source_digest = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (c.workload.empty()) usage("--workload is required");
    if (!c.have_seed) usage("--seed is required");
    if (c.seconds == 0.0) usage("--seconds is required");
    return c;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

// Whether this process runs with address-space randomization (personality
// flag ADDR_NO_RANDOMIZE unset).
bool aslr_on() {
    std::ifstream in("/proc/self/personality");
    unsigned long personality = 0;
    if (!(in >> std::hex >> personality)) return true;
    return (personality & 0x0040000ul) == 0;
}

std::string stamp_json(const cli& c) {
    std::ostringstream s;
    s << "{\"workload\": " << json_string(c.workload) << ", \"seed\": " << c.seed
      << ", \"seconds\": " << format_double(c.seconds)
      << ", \"trace\": " << (c.trace ? 1 : 0)
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"threads\": " << bench_threads()
      << ", \"cpu_model\": " << json_string(cpu_model())
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"flags\": " << json_string(PERFBENCH_FLAGS)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"ndebug\": true"
      << ", \"aslr\": " << (aslr_on() ? "true" : "false")
      << ", \"commit\": " << json_string(c.commit)
      << ", \"source_digest\": " << json_string(c.source_digest) << "}";
    return s.str();
}

std::string metrics_array(const metric_set& metrics) {
    std::string out = "[";
    for (std::size_t i = 0; i < metrics.all().size(); ++i) {
        const metric& m = metrics.all()[i];
        if (i > 0) out += ",\n  ";
        out += "{\"name\": " + json_string(m.name) + ", \"value\": " + format_double(m.value) +
               ", \"unit\": " + json_string(m.unit) +
               ", \"samples\": " + std::to_string(m.samples) +
               ", \"note\": " + json_string(m.note) + "}";
    }
    return out + "]";
}

void write_artifact(const std::string& path, const std::string& stamp, const run_result& r,
                    const std::string& digest) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench_runner: cannot write " << path << "\n";
        return;
    }
    out << "{\"stamp\": " << stamp << ",\n \"correct\": " << (r.failed == 0 ? "true" : "false")
        << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
        << ", \"semantic_digest\": \"" << digest << "\""
        << ", \"cycles\": " << r.cycles << ", \"extra_setups\": " << r.extra_setups
        << ",\n \"metrics\": " << metrics_array(r.metrics)
        << ",\n \"end_to_end\": " << metrics_array(r.end_to_end) << ",\n \"episodes\": [";
    for (std::size_t i = 0; i < r.episodes.size(); ++i) {
        const episode_summary& e = r.episodes[i];
        out << (i > 0 ? ",\n  " : "") << "{\"instance\": " << e.instance
            << ", \"traced\": " << (e.traced ? "true" : "false")
            << ", \"setup_s\": " << format_double(e.setup_s)
            << ", \"slot_p50_ms\": " << format_double(e.slot_p50_ms) << "}";
    }
    out << "],\n \"violations\": [";
    for (std::size_t i = 0; i < r.violations.size(); ++i)
        out << (i > 0 ? ", " : "") << json_string(r.violations[i]);
    out << "]}\n";
}

}  // namespace

int main(int argc, char** argv) {
    const cli c = parse(argc, argv);
#ifndef NDEBUG
    std::cerr << "perfbench_runner: built without NDEBUG; its debug-only checks make it a "
                 "different program, so it reports no timings. Build with "
                 "-DCMAKE_BUILD_TYPE=Release.\n";
    return 3;
#endif
    try {
        const std::vector<workload_spec> instances = make_workload(c.workload, c.seed);
        const workload_spec& spec = instances.front();
        const std::string stamp = stamp_json(c);
        std::cout << "stamp " << stamp << "\n";

        run_options options;
        options.seconds = c.seconds;
        options.trace = c.trace;
        const std::string stem = c.out_dir.empty()
                                     ? std::string()
                                     : c.out_dir + "/" + c.workload + "-seed" +
                                           std::to_string(c.seed);
        if (c.trace && !stem.empty()) options.trace_path = stem + ".trace.json";

        const run_result r = run_workload(instances, options);
        std::ostringstream digest;
        digest << std::hex << r.digest;

        std::cout << "workload " << spec.name << ": " << spec.why << "\n"
                  << "draws: " << instances.size() << "; cycles: " << r.cycles
                  << (c.trace ? " (every other one traced)" : "")
                  << "; extra set-ups: " << r.extra_setups << "; slots checked: " << r.attempted
                  << "; semantic digest " << digest.str() << "\n";
        if (c.trace) {
            std::cout << "\nend-to-end, untraced arm:\n";
            r.end_to_end.print_table(std::cout);
            std::cout << "\nper layer, traced arm (seconds are per steady slot):\n";
        }
        r.metrics.print_table(std::cout);
        if (c.trace) {
            const auto value = [&](const char* name) { return r.metrics.find(name)->value; };
            std::cout << "\nreconciliation: step " << value("engine.step_s") << " s = parallel "
                      << value("engine.parallel_s") << " s + hooks " << value("engine.hook_s")
                      << " s; swarm spans explain all but "
                      << value("vod.unaccounted_frac") * 100.0
                      << "% of the parallel phase; pool busy "
                      << value("engine.pool_busy_frac") * 100.0 << "%\n";
            if (!options.trace_path.empty())
                std::cout << "trace: " << options.trace_path << "\n";
        }
        for (const auto& v : r.violations) std::cerr << "violation: " << v << "\n";
        if (!stem.empty())
            write_artifact(stem + "-trace" + (c.trace ? "1" : "0") + ".json", stamp, r,
                           digest.str());
        std::cout << result_line(r.failed == 0, r.attempted, r.failed, r.metrics) << std::endl;
        return r.failed == 0 ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "perfbench_runner: " << e.what() << "\n";
        return 4;
    }
}
