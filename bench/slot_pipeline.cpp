// slot_pipeline — per-phase timing of the emulator's slot data path, the
// telemetry overhead contract, and the slot problem build's identity check.
//
// Runs one scenario end to end in three passes:
//   pass 1 (telemetry off) — the timing arm: no sink, no spans, so the slot
//     loop performs zero timestamp syscalls; wall time brackets the loop;
//   pass 2 (telemetry on)  — span recorder enabled, counters sampled,
//     per-slot JSONL streamed into an in-memory sink (memory, not disk, so
//     the ≤2% overhead bar measures the telemetry layer, not the filesystem);
//   pass 3 (identity arm)  — delta_shadow_check forced on: every bidding
//     round's incremental build is compared bit for bit against the full
//     rebuild (the test oracle), and the run must hash identical to pass 1
//     (`delta_identical`, exit 1 on any divergence, any toolchain). Its wall
//     time over pass 1's is `shadow_slowdown` — what the oracle costs.
//
// Passes 1 and 2 must produce bit-identical schedules (golden hashes
// compared across passes — exit 1 on divergence, any toolchain) and, on the
// golden toolchain, must match the committed pre-refactor golden.
//
// The per-phase table comes from pass 2's spans. It is a single run's
// seconds on the host that ran it (hardware_concurrency is recorded in the
// artifact); compare commits with perfbench's paired runs, not against a
// committed artifact.
//
// Usage: slot_pipeline [--scenario NAME]   (default: metro_5k)
#include <array>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/contracts.h"
#include "metrics/process_stats.h"
#include "obs/jsonl_sink.h"
#include "vod/pipeline_golden.h"

namespace {

constexpr std::size_t num_phases = static_cast<std::size_t>(p2pcd::obs::phase::count);
using phase_seconds = std::array<double, num_phases>;  // indexed by obs::phase

phase_seconds phases_of(const p2pcd::vod::emulator& emu) {
    phase_seconds out{};
    for (std::size_t p = 0; p < num_phases; ++p)
        out[p] = emu.spans().total_seconds(static_cast<p2pcd::obs::phase>(p));
    return out;
}

double total_of(const phase_seconds& ph) {
    double t = 0.0;
    for (double s : ph) t += s;
    return t;
}

double non_solve_of(const phase_seconds& ph) {
    return total_of(ph) - ph[static_cast<std::size_t>(p2pcd::obs::phase::solve)];
}

struct pass_result {
    std::uint64_t h_neighbors = p2pcd::vod::golden_seed;
    std::uint64_t h_metrics = p2pcd::vod::golden_seed;
    double wall_seconds = 0.0;
    std::size_t peers_final = 0;
    double rss_mid_run_mb = 0.0;
};

// Steps `emu` through the scenario, hashing every slot's metrics and
// neighbor arena into the pass result. Wall time brackets the slot loop
// only (not construction), so all passes compare the same code region.
pass_result run_pass(p2pcd::vod::emulator& emu, std::size_t num_slots) {
    using clock = std::chrono::steady_clock;
    pass_result r;
    const clock::time_point t0 = clock::now();
    for (std::size_t k = 0; k < num_slots; ++k) {
        const auto& m = emu.step();
        if (k + 1 == (num_slots + 1) / 2) r.rss_mid_run_mb = p2pcd::metrics::current_rss_mb();
        std::uint64_t h_slot_nbr = p2pcd::vod::golden_seed;
        p2pcd::vod::golden_mix_neighbors(h_slot_nbr, emu);
        std::uint64_t h_slot_met = p2pcd::vod::golden_seed;
        p2pcd::vod::golden_mix_metrics(h_slot_met, m);
        p2pcd::vod::golden_mix(r.h_neighbors, h_slot_nbr);
        p2pcd::vod::golden_mix(r.h_metrics, h_slot_met);
    }
    r.wall_seconds = std::chrono::duration<double>(clock::now() - t0).count();
    r.peers_final = emu.peers().rows();
    return r;
}

void usage() {
    std::printf("usage: slot_pipeline [--scenario NAME]\n");
}

}  // namespace

int main(int argc, char** argv) {
    using namespace p2pcd;

    std::string scenario = "metro_5k";
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (flag == "--scenario" && i + 1 < argc) {
            scenario = argv[++i];
        } else {
            usage();
            return 2;
        }
    }
    if (!workload::builtin_scenarios().contains(scenario)) {
        std::fprintf(stderr, "unknown scenario '%s'\n", scenario.c_str());
        return 2;
    }

    vod::emulator_options opts;
    opts.config = workload::builtin_scenarios().make(scenario);
    opts.delta_shadow_check = false;  // the timing arms never run the oracle
    const std::size_t num_slots = opts.config.num_slots();

    std::printf("=== slot_pipeline: per-phase slot data path timing ===\n");
    std::printf("scenario: %s  slots: %zu  hardware_concurrency: %u\n\n",
                scenario.c_str(), num_slots,
                std::thread::hardware_concurrency());

    // Pass 1: telemetry off. The slot loop reads no clock; only the bracket
    // around the whole loop is timed.
    std::printf("pass 1/3: telemetry off (timing arm)...\n");
    pass_result off;
    {
        vod::emulator emu(opts);
        off = run_pass(emu, num_slots);
    }

    // Pass 2: telemetry on — spans + counters + per-slot JSONL into memory.
    // Runs second so allocator warm-up (if any) favors neither direction of
    // the overhead comparison's numerator.
    std::printf("pass 2/3: telemetry on (spans + counters + JSONL)...\n");
    std::ostringstream telemetry_out;
    obs::jsonl_sink sink(telemetry_out);
    vod::emulator_options on_opts = opts;
    on_opts.telemetry.sink = &sink;
    on_opts.telemetry.record_spans = true;
    vod::emulator emu_on(on_opts);
    const double rss_post_construct = metrics::current_rss_mb();
    const pass_result on = run_pass(emu_on, num_slots);
    sink.flush();
    const phase_seconds phases = phases_of(emu_on);

    // Pass 3: the identity arm — the full rebuild shadows every round's
    // incremental build and any bit-level difference throws.
    std::printf("pass 3/3: shadow-checked build, telemetry off (identity arm)...\n");
    vod::emulator_options shadow_opts = opts;
    shadow_opts.delta_shadow_check = true;
    pass_result shadow;
    std::string shadow_error;
    try {
        vod::emulator emu(shadow_opts);
        shadow = run_pass(emu, num_slots);
    } catch (const contract_violation& e) {
        shadow_error = e.what();
    }
    const bool delta_identical = shadow_error.empty() &&
                                 shadow.h_metrics == off.h_metrics &&
                                 shadow.h_neighbors == off.h_neighbors;

    metrics::json_report rep("slot_pipeline");
    rep.add_scalar("scenario", scenario);
    rep.add_scalar("slots", static_cast<double>(num_slots));
    rep.add_scalar("peers_final", static_cast<double>(on.peers_final));
    rep.add_scalar("hardware_concurrency",
                   static_cast<double>(std::thread::hardware_concurrency()));
    rep.add_scalar("peak_rss_mb", metrics::peak_rss_mb());
    rep.add_scalar("rss_post_construct_mb", rss_post_construct);
    rep.add_scalar("rss_mid_run_mb", on.rss_mid_run_mb);
    rep.add_scalar("rss_end_mb", metrics::current_rss_mb());

    metrics::table t({"phase", "seconds"});
    const auto add_phase = [&](const char* name, double seconds) {
        t.add_row({name, metrics::format_double(seconds, 6)});
    };
    for (std::size_t p = 0; p < num_phases; ++p)
        add_phase(obs::phase_name(static_cast<obs::phase>(p)), phases[p]);
    add_phase("non_solve_total", non_solve_of(phases));
    add_phase("total", total_of(phases));
    t.print(std::cout);
    rep.add_table("phases", t);

    // Telemetry overhead contract: spans + counters + per-slot JSONL must
    // cost ≤ 2% of the telemetry-off slot-loop wall time.
    const double overhead_pct =
        off.wall_seconds > 0.0
            ? 100.0 * (on.wall_seconds - off.wall_seconds) / off.wall_seconds
            : 0.0;
    const bool overhead_ok = overhead_pct <= 2.0;
    rep.add_scalar("slot_time_off_s", off.wall_seconds);
    rep.add_scalar("slot_time_on_s", on.wall_seconds);
    rep.add_scalar("telemetry_overhead_pct", overhead_pct);
    rep.add_scalar("telemetry_overhead_ok", overhead_ok);
    rep.add_scalar("telemetry_lines", static_cast<double>(sink.lines_written()));
    rep.add_scalar("telemetry_bytes", static_cast<double>(sink.bytes_written()));
    rep.add_scalar("telemetry_flushes", static_cast<double>(sink.flushes()));
    std::printf(
        "\ntelemetry overhead: off %.3f s, on %.3f s (%+.2f%%, bar: +2%%) %s\n",
        off.wall_seconds, on.wall_seconds, overhead_pct,
        overhead_ok ? "OK" : "OVER");
    std::printf("telemetry stream: %" PRIu64 " lines, %" PRIu64 " bytes\n",
                sink.lines_written(), sink.bytes_written());

    // The build contract: the shadow-checked run matched the full rebuild on
    // every round and hashed identical to the timing arm.
    // A coarse clock can read 0.0 on a micro-scale run; report 0 rather than
    // an infinity the JSON writer rejects.
    const double shadow_slowdown = shadow.wall_seconds > 0.0 && off.wall_seconds > 0.0
                                       ? shadow.wall_seconds / off.wall_seconds
                                       : 0.0;
    rep.add_scalar("delta_identical", delta_identical);
    rep.add_scalar("slot_time_shadow_s", shadow.wall_seconds);
    rep.add_scalar("shadow_slowdown", shadow_slowdown);
    std::printf(
        "\nslot problem build: %.3f s, shadow-checked %.3f s (%.2fx) — "
        "builds %s\n",
        off.wall_seconds, shadow.wall_seconds, shadow_slowdown,
        delta_identical ? "IDENTICAL" : "DIVERGED");

    // The counter registry (cache behavior, tracker maintenance, solver
    // work, build row reuse) from pass 2.
    obs::counter_registry& counters = emu_on.counters();
    metrics::table ct({"counter", "value"});
    for (std::size_t i = 0; i < counters.entries().size(); ++i) {
        const auto& e = counters.entries()[i];
        const bool is_counter = e.kind == obs::metric_kind::counter;
        const double value = is_counter ? static_cast<double>(counters.counter_at(i))
                                        : counters.gauge_at(i);
        ct.add_row({e.name, is_counter ? std::to_string(counters.counter_at(i))
                                       : metrics::format_double(value, 0)});
        rep.add_scalar("counter." + e.name, value);
    }
    std::printf("\n");
    ct.print(std::cout);

    // Schedule equivalence: both timing passes against each other (telemetry
    // may never change a schedule — enforced on every toolchain), and
    // against the pre-refactor golden when known.
    const bool passes_agree =
        off.h_metrics == on.h_metrics && off.h_neighbors == on.h_neighbors;
    const vod::golden_run_hashes* golden = vod::golden_for(scenario);
    bool golden_known = golden != nullptr;
    bool golden_ok = golden_known && on.h_metrics == golden->metrics &&
                     on.h_neighbors == golden->neighbors;
    char hash_hex[32];
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, on.h_metrics);
    rep.add_scalar("metrics_hash", hash_hex);
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, on.h_neighbors);
    rep.add_scalar("neighbors_hash", hash_hex);
    rep.add_scalar("telemetry_schedule_identical", passes_agree);
    rep.add_scalar("golden_known", golden_known);
    rep.add_scalar("golden_ok", golden_ok);

    std::printf("\nnon-solve slot time: %.3f s\n", non_solve_of(phases));
    std::printf("schedules %s across telemetry on/off\n",
                passes_agree ? "MATCH" : "DIVERGED");
    if (golden_known)
        std::printf("schedules %s pre-refactor golden\n",
                    golden_ok ? "MATCH" : "DIVERGED from");

    bench::write_artifact("slot_pipeline", rep);

    if (!passes_agree) {
        std::fprintf(stderr,
                     "error: telemetry changed the schedule (off metrics "
                     "%016" PRIx64 " vs on %016" PRIx64 ")\n",
                     off.h_metrics, on.h_metrics);
        return 1;
    }
    if (!delta_identical) {
        if (!shadow_error.empty())
            std::fprintf(stderr, "error: %s\n", shadow_error.c_str());
        else
            std::fprintf(stderr,
                         "error: the shadow-checked run diverged from the "
                         "timing arm (metrics %016" PRIx64 " vs %016" PRIx64 ")\n",
                         shadow.h_metrics, off.h_metrics);
        return 1;
    }
    // The golden constants pin exact IEEE doubles; only fail hard on the
    // toolchain family they were captured with — mirroring
    // tests/slot_golden_test.cpp.
    constexpr bool golden_enforced = vod::golden_toolchain;
    if (golden_known && !golden_ok) {
        std::fprintf(stderr,
                     "%s: run diverged from the pre-refactor golden "
                     "(metrics %016" PRIx64 " neighbors %016" PRIx64 ")\n",
                     golden_enforced ? "error" : "note (unenforced toolchain)",
                     on.h_metrics, on.h_neighbors);
        if (golden_enforced) return 1;
    }
    return 0;
}
