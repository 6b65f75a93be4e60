// slot_pipeline — per-phase timing of the emulator's slot data path, the
// telemetry overhead contract, and the slot problem build's identity check.
//
// Runs one scenario end to end in four passes:
//   pass 1 (telemetry off) — the timing arm: no sink, no spans, so the slot
//     loop performs zero timestamp syscalls; wall time brackets the loop;
//   pass 2 (telemetry on)  — span recorder enabled, counters sampled,
//     per-slot JSONL streamed into an in-memory sink (memory, not disk, so
//     the ≤2% overhead bar measures the telemetry layer, not the filesystem);
//   pass 3 (identity arm)  — delta_shadow_check forced on: every bidding
//     round's incremental build is compared bit for bit against the full
//     rebuild (the test oracle), and the run must hash identical to pass 1
//     (`delta_identical`, exit 1 on any divergence, any toolchain). Its wall
//     time over pass 1's is `shadow_slowdown` — what the oracle costs;
//   pass 4 (warm slots, telemetry on) — cross-slot solver state reuse
//     (warm_start_slots) on top: its phase table against pass 2's and
//     `warm_speedup`. Warm starts change schedules on purpose; those are
//     pinned by their own goldens (vod::golden_warm_slots_*), not here.
//
// Passes 1 and 2 must produce bit-identical schedules (golden hashes
// compared across passes — exit 1 on divergence, any toolchain) and, on the
// golden toolchain, must match the committed pre-refactor golden.
//
// The per-phase table comes from pass 2's spans, reported next to the
// *pre-refactor* measurement of the same scenario captured before the
// dense-peer-table + incremental-tracker refactor.
//
// Usage: slot_pipeline [--scenario NAME]   (default: metro_5k)
//
// Phase times are thread-independent (the emulator is single-threaded), so
// the ratios hold on any host; hardware_concurrency is recorded in the
// artifact.
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

struct scenario_baseline {
    const char* scenario;
    phase_seconds phases;  // pre-refactor seconds; shed did not exist yet
};

// Captured 2026-07-31 from the pre-refactor emulator (PR 4 head, commit
// e4073a5) instrumented with the same phase_clock, GCC 12 / x86-64,
// 1-core container, default emulator options. Order: arrivals, departures,
// playback, neighbor_refresh, build, solve, apply, shed. The corresponding
// golden hashes live in the shared spec, vod::golden_runs
// (pipeline_golden.h).
constexpr scenario_baseline baselines[] = {
    {"metro_5k",
     {0.000002, 0.000580, 0.070811, 1.047450, 20.659304, 5.437859, 1.080875, 0.0}},
    {"flash_crowd_10k",
     {0.004018, 0.000633, 0.066278, 3.976148, 19.016177, 6.770482, 0.585622, 0.0}},
    {"economy_smoke",
     {0.0, 0.000004, 0.000011, 0.000021, 0.001012, 0.000283, 0.000053, 0.0}},
};

const scenario_baseline* baseline_for(const std::string& scenario) {
    for (const auto& b : baselines)
        if (scenario == b.scenario) return &b;
    return nullptr;
}

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
    std::printf("pass 1/4: telemetry off (timing arm)...\n");
    pass_result off;
    {
        vod::emulator emu(opts);
        off = run_pass(emu, num_slots);
    }

    // Pass 2: telemetry on — spans + counters + per-slot JSONL into memory.
    // Runs second so allocator warm-up (if any) favors neither direction of
    // the overhead comparison's numerator.
    std::printf("pass 2/4: telemetry on (spans + counters + JSONL)...\n");
    std::ostringstream telemetry_out;
    obs::jsonl_sink sink(telemetry_out);
    vod::emulator_options on_opts = opts;
    on_opts.telemetry.sink = &sink;
    on_opts.telemetry.record_spans = true;
    vod::emulator emu_on(on_opts);
    const double rss_post_construct = metrics::current_rss_mb();
    const pass_result on = run_pass(emu_on, num_slots);
    sink.flush();
    const phase_seconds post = phases_of(emu_on);
    const scenario_baseline* base = baseline_for(scenario);

    // Pass 3: the identity arm — the full rebuild shadows every round's
    // incremental build and any bit-level difference throws.
    std::printf("pass 3/4: shadow-checked build, telemetry off (identity arm)...\n");
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

    // Pass 4: cross-slot solver state reuse on top, with spans + counters
    // for the per-phase comparison and the early-exit counter.
    std::printf("pass 4/4: warm slot reuse, telemetry on...\n");
    std::ostringstream warm_telemetry_out;
    obs::jsonl_sink warm_sink(warm_telemetry_out);
    vod::emulator_options warm_opts = on_opts;
    warm_opts.telemetry.sink = &warm_sink;
    warm_opts.warm_start_slots = true;
    vod::emulator emu_warm(warm_opts);
    const pass_result warm = run_pass(emu_warm, num_slots);
    warm_sink.flush();
    const phase_seconds warm_phases = phases_of(emu_warm);

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
    rep.add_scalar("baseline_commit", base != nullptr ? "e4073a5" : "none");

    // Coarse clocks can report 0.0 for a micro-scale phase; report a 0
    // ratio rather than an infinity the JSON writer rejects.
    const auto ratio = [](double num, double den) {
        return num > 0.0 && den > 0.0 ? num / den : 0.0;
    };
    auto add_phase = [&](metrics::table& table, const char* name, double pre,
                         double now) {
        table.add_row({name, metrics::format_double(pre, 6),
                       metrics::format_double(now, 6),
                       metrics::format_double(ratio(pre, now), 2)});
    };
    auto add_phase_rows = [&](metrics::table& table, const phase_seconds& pre,
                              const phase_seconds& now) {
        for (std::size_t p = 0; p < num_phases; ++p)
            add_phase(table, obs::phase_name(static_cast<obs::phase>(p)), pre[p],
                      now[p]);
        add_phase(table, "non_solve_total", non_solve_of(pre), non_solve_of(now));
        add_phase(table, "total", total_of(pre), total_of(now));
    };
    const phase_seconds pre = base != nullptr ? base->phases : phase_seconds{};

    metrics::table t({"phase", "pre_seconds", "post_seconds", "speedup"});
    add_phase_rows(t, pre, post);
    t.print(std::cout);
    rep.add_table("phases", t);

    // Cold vs warm slot reuse, phase by phase (both telemetry-on runs).
    metrics::table wt({"phase", "cold_seconds", "warm_seconds", "speedup"});
    add_phase_rows(wt, post, warm_phases);
    std::printf("\n");
    wt.print(std::cout);
    rep.add_table("warm_phases", wt);

    if (base != nullptr) {
        const auto nr = static_cast<std::size_t>(obs::phase::neighbor_refresh);
        rep.add_scalar("neighbor_refresh_speedup", ratio(pre[nr], post[nr]));
        rep.add_scalar("non_solve_speedup",
                       ratio(non_solve_of(pre), non_solve_of(post)));
    }

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
    const double shadow_slowdown = ratio(shadow.wall_seconds, off.wall_seconds);
    const double warm_speedup = ratio(on.wall_seconds, warm.wall_seconds);
    rep.add_scalar("delta_identical", delta_identical);
    rep.add_scalar("slot_time_shadow_s", shadow.wall_seconds);
    rep.add_scalar("shadow_slowdown", shadow_slowdown);
    rep.add_scalar("slot_time_warm_s", warm.wall_seconds);
    rep.add_scalar("warm_speedup", warm_speedup);
    std::printf(
        "\nslot problem build: %.3f s, shadow-checked %.3f s (%.2fx) — "
        "builds %s; warm slots %.3f s vs cold %.3f s with telemetry (%.2fx)\n",
        off.wall_seconds, shadow.wall_seconds, shadow_slowdown,
        delta_identical ? "IDENTICAL" : "DIVERGED", warm.wall_seconds,
        on.wall_seconds, warm_speedup);

    // The counter registry (cache behavior, tracker maintenance, solver
    // work, build row reuse) from pass 2; delta.early_exit_slots comes from
    // the warm pass (a cold solver never early-exits).
    obs::counter_registry& counters = emu_on.counters();
    obs::counter_registry& warm_counters = emu_warm.counters();
    metrics::table ct({"counter", "cold", "warm"});
    for (std::size_t i = 0; i < counters.entries().size(); ++i) {
        const auto& e = counters.entries()[i];
        const bool is_counter = e.kind == obs::metric_kind::counter;
        const std::string cold_value =
            is_counter ? std::to_string(counters.counter_at(i))
                       : metrics::format_double(counters.gauge_at(i), 0);
        const std::string warm_value =
            is_counter ? std::to_string(warm_counters.counter_at(i))
                       : metrics::format_double(warm_counters.gauge_at(i), 0);
        ct.add_row({e.name, cold_value, warm_value});
        obs::counter_registry& source =
            e.name == "delta.early_exit_slots" ? warm_counters : counters;
        if (is_counter)
            rep.add_scalar("counter." + e.name,
                           static_cast<double>(source.counter_at(i)));
        else
            rep.add_scalar("counter." + e.name, source.gauge_at(i));
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
    std::snprintf(hash_hex, sizeof(hash_hex), "%016" PRIx64, warm.h_metrics);
    rep.add_scalar("warm_metrics_hash", hash_hex);
    rep.add_scalar("telemetry_schedule_identical", passes_agree);
    rep.add_scalar("golden_known", golden_known);
    rep.add_scalar("golden_ok", golden_ok);

    std::printf("\nnon-solve slot time: %.3f s (pre %.3f s)\n", non_solve_of(post),
                non_solve_of(pre));
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
