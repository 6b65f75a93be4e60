// The measurement loop: episodes of one workload, stepped and checked slot
// by slot, until the run's time is spent; then the end-to-end metrics (an
// untraced run) or the per-layer metrics (a traced run).
#ifndef PERFBENCH_MEASURE_H
#define PERFBENCH_MEASURE_H

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "workloads.h"

namespace p2pcd::perfbench {

struct run_options {
    // Measure for about this long; the caller always sets it. A run steps
    // every draw of the workload at least twice (two cycles) and at least 20
    // steady slots per arm, even when that takes longer; it starts no cycle
    // after 150 s.
    double seconds = 0.0;
    // Untraced cycles only, or untraced and traced cycles alternating.
    bool trace = false;
    // Chrome trace of the first traced episode; empty writes none.
    std::string trace_path;
};

// One episode of a cycle as the run's artifact lists it, to show drift
// within a run.
struct episode_summary {
    std::size_t instance = 0;
    bool traced = false;
    double setup_s = 0.0;
    double slot_p50_ms = 0.0;
};

struct run_result {
    // End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metric_set metrics;
    // The untraced arm's end-to-end metrics, also computed on a traced run.
    metric_set end_to_end;
    std::uint64_t attempted = 0;  // slots stepped and checked
    std::uint64_t failed = 0;     // slots or episodes that failed a check
    std::vector<std::string> violations;
    // Semantic digest of the run: every slot record, counter and aggregate
    // of each instance. The same on every run of one (workload, seed).
    std::uint64_t digest = 0;
    std::size_t cycles = 0;
    // Set-ups (construction + slot 0) run before the cycles, for a tenth of
    // the run and at least one per draw, so that setup_s is a median of many.
    std::size_t extra_setups = 0;
    std::vector<episode_summary> episodes;
};

// Runs the instances of one workload (see make_workload) in cycles.
[[nodiscard]] run_result run_workload(const std::vector<workload_spec>& instances,
                                      const run_options& options);

}  // namespace p2pcd::perfbench

#endif  // PERFBENCH_MEASURE_H
