#include "measure.h"

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>

#include "checks.h"
#include "episode.h"
#include "metrics/process_stats.h"
#include "obs/span_recorder.h"

namespace p2pcd::perfbench {

namespace {

using clock = std::chrono::steady_clock;
constexpr std::size_t num_phases = static_cast<std::size_t>(obs::phase::count);

// The fewest steady slots per arm: the median is then a tail level with ten
// samples beyond it.
constexpr std::size_t min_steady_slots = 20;
// Share of the run spent on extra set-ups.
constexpr double setup_share = 0.1;
// No cycle starts after this much wall time, so a run ends well within
// three minutes even on a slow host.
constexpr double max_run_seconds = 150.0;

double seconds_between(clock::time_point a, clock::time_point b) {
    return std::chrono::duration<double>(b - a).count();
}

// Σ over the emulators of each phase's span seconds so far.
std::array<double, num_phases> phase_span_sums(const episode& ep) {
    std::array<double, num_phases> totals{};
    for (std::size_t i = 0; i < ep.num_emulators(); ++i)
        for (std::size_t p = 0; p < num_phases; ++p)
            totals[p] += ep.emulator_at(i).spans().total_seconds(static_cast<obs::phase>(p));
    return totals;
}

double span_seconds_of(const vod::emulator& e) {
    double total = 0.0;
    for (std::size_t p = 0; p < num_phases; ++p)
        total += e.spans().total_seconds(static_cast<obs::phase>(p));
    return total;
}

// A counter or gauge by name; 0 when the program does not register it.
double counter_value(const obs::counter_registry& counters, std::string_view name) {
    for (std::size_t i = 0; i < counters.size(); ++i) {
        const auto& e = counters.entries()[i];
        if (e.name != name) continue;
        return e.kind == obs::metric_kind::counter
                   ? static_cast<double>(counters.counter_at(i))
                   : counters.gauge_at(i);
    }
    return 0.0;
}

double share(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// Restarts the process's resident-set high-water mark (Linux clear_refs),
// so that each episode's peak is measured on its own. False where the
// kernel does not allow it; peaks then cover the whole process.
bool reset_peak_rss() {
    std::ofstream out("/proc/self/clear_refs");
    return static_cast<bool>(out << "5" << std::flush);
}

// The resident-set high-water mark in MiB (VmHWM), or the process peak
// where /proc is unavailable.
double peak_rss_mib() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    return metrics::peak_rss_mb();
}

// One complete span for the Chrome trace: pid 0 is the benchmark's own
// thread, pid 1 the emulators (tid = swarm index + 1).
struct trace_event {
    std::string name;
    int pid = 0;
    std::size_t tid = 0;
    double start_s = 0.0;  // since the run started
    double dur_s = 0.0;
    std::size_t slot = 0;
};

struct episode_stats {
    std::size_t instance = 0;
    bool traced = false;
    bool complete = false;  // stepped every slot, not only the set-up
    double construct_s = 0.0;
    double first_slot_s = 0.0;
    double total_s = 0.0;  // construction through destruction
    std::vector<double> steady_wall_s;
    std::uint64_t steady_viewers = 0;
    double peak_rss_mb = 0.0;  // from construction to the last slot

    // Traced episodes, summed over the steady slots.
    double parallel_s = 0.0;  // the fleet's parallel phase + merge
    double hook_s = 0.0;      // the rest of the step: the serial slot hooks
    double shard_max_s = 0.0;
    double shard_sum_s = 0.0;
    double critical_s = 0.0;  // the least parallel time the spans explain
    std::array<double, num_phases> phase_s{};
    std::size_t emulators = 1;
    std::size_t busy_threads = 1;
    std::uint64_t jsonl_bytes = 0;
    std::uint64_t jsonl_flushes = 0;

    // Semantics: identical for every episode of one (workload, seed).
    std::vector<std::uint64_t> slot_digests;  // running digest after each slot
    std::uint64_t digest = 0;
    std::size_t slots = 0;
    double welfare = 0.0;
    double inter_isp_fraction = 0.0;
    double miss_rate = 0.0;
    double transit_cost = 0.0;
    std::size_t pricing_epochs = 0;
    std::size_t saturated_pairs_peak = 0;
    double max_utilization_peak = 0.0;
    obs::counter_registry counters;
    vod::memory_breakdown memory;
    std::uint64_t final_viewers = 0;
};

// Shifts an emulator's spans (timed from its recorder's construction) onto
// the run's clock: the earliest offset at which no slot's spans start before
// the benchmark's step of that slot did.
void add_emulator_spans(const vod::emulator& e, std::size_t tid,
                        const std::vector<double>& step_start_s,
                        std::vector<trace_event>& events) {
    const std::vector<obs::span> spans = e.spans().spans();
    if (spans.empty()) return;
    double offset = -1e300;
    for (const obs::span& s : spans)
        if (s.slot < step_start_s.size())
            offset = std::max(offset, step_start_s[s.slot] - s.start_s);
    for (const obs::span& s : spans)
        events.push_back({obs::phase_name(s.which), 1, tid, s.start_s + offset,
                          s.duration_s, s.slot});
}

// Constructs instance `instance` and steps it through every slot, or only
// through slot 0 when `setup_only`.
episode_stats run_episode(const workload_spec& spec, std::size_t instance, bool traced,
                          bool setup_only, clock::time_point epoch,
                          std::vector<trace_event>* trace, run_result& result) {
    episode_stats st;
    st.instance = instance;
    st.traced = traced;
    reset_peak_rss();
    const auto t0 = clock::now();
    auto ep = std::make_unique<episode>(spec, traced);
    const auto t1 = clock::now();
    st.construct_s = seconds_between(t0, t1);
    st.emulators = ep->num_emulators();
    st.busy_threads = std::min(ep->pool_threads(), st.emulators);
    if (trace != nullptr)
        trace->push_back({"construct", 0, 0, seconds_between(epoch, t0), st.construct_s, 0});

    std::vector<double> step_start_s;
    std::vector<double> span_prev(st.emulators, 0.0);
    std::array<double, num_phases> phases_after_first{};
    digest running;
    const std::size_t slots = setup_only ? std::min<std::size_t>(1, ep->num_slots())
                                         : ep->num_slots();
    st.complete = slots == ep->num_slots();
    for (std::size_t k = 0; k < slots; ++k) {
        const auto a = clock::now();
        ep->step();
        const auto b = clock::now();
        const double wall = seconds_between(a, b);

        ++result.attempted;
        if (!ep->check_last_slot(result.violations)) ++result.failed;
        const slot_record& slot = ep->slots().back();
        running.add(slot);
        st.slot_digests.push_back(running.value());

        if (k == 0) {
            st.first_slot_s = wall;
        } else {
            st.steady_wall_s.push_back(wall);
            st.steady_viewers += slot.online_peers;
        }
        if (!traced) continue;

        double max_s = 0.0;
        double sum_s = 0.0;
        for (std::size_t i = 0; i < st.emulators; ++i) {
            const double now_s = span_seconds_of(ep->emulator_at(i));
            max_s = std::max(max_s, now_s - span_prev[i]);
            sum_s += now_s - span_prev[i];
            span_prev[i] = now_s;
        }
        if (k == 0) {
            phases_after_first = phase_span_sums(*ep);
        } else {
            const double parallel = ep->is_fleet() ? ep->last_parallel_seconds() : wall;
            st.parallel_s += parallel;
            st.hook_s += wall - parallel;
            st.shard_max_s += max_s;
            st.shard_sum_s += sum_s;
            st.critical_s +=
                std::max(max_s, sum_s / static_cast<double>(st.busy_threads));
        }
        if (trace != nullptr) {
            step_start_s.push_back(seconds_between(epoch, a));
            trace->push_back({"step", 0, 0, step_start_s.back(), wall, k});
            if (ep->is_fleet())
                trace->push_back({"bench_hook", 0, 0,
                                  seconds_between(epoch, ep->last_hook_start()),
                                  seconds_between(ep->last_hook_start(),
                                                  ep->last_hook_end()),
                                  k});
        }
    }
    st.peak_rss_mb = peak_rss_mib();
    if (!ep->check_totals(result.violations)) ++result.failed;

    if (traced) {
        const auto totals = phase_span_sums(*ep);
        for (std::size_t p = 0; p < num_phases; ++p)
            st.phase_s[p] = totals[p] - phases_after_first[p];
        if (const obs::jsonl_sink* sink = ep->sink()) {
            st.jsonl_bytes = sink->bytes_written() + sink->buffered_bytes();
            st.jsonl_flushes = sink->flushes();
        }
        if (trace != nullptr)
            for (std::size_t i = 0; i < st.emulators; ++i)
                add_emulator_spans(ep->emulator_at(i), i + 1, step_start_s, *trace);
    }

    st.slots = ep->slots().size();
    st.welfare = ep->total_welfare();
    st.inter_isp_fraction = ep->overall_inter_isp_fraction();
    st.miss_rate = ep->overall_miss_rate();
    st.transit_cost = ep->transit_cost();
    st.pricing_epochs = ep->pricing_epochs();
    st.saturated_pairs_peak = ep->saturated_pairs_peak();
    st.max_utilization_peak = ep->max_utilization_peak();
    st.counters = ep->counters();
    st.memory = ep->memory_footprint();
    st.final_viewers = ep->slots().empty() ? 0 : ep->slots().back().online_peers;

    running.add(st.welfare);
    running.add(st.inter_isp_fraction);
    running.add(st.miss_rate);
    running.add(st.transit_cost);
    running.add(static_cast<std::uint64_t>(st.pricing_epochs));
    running.add(static_cast<std::uint64_t>(st.saturated_pairs_peak));
    running.add(st.max_utilization_peak);
    running.add(st.counters);
    st.digest = running.value();

    ep.reset();
    st.total_s = seconds_between(t0, clock::now());
    return st;
}

// One set-up sample: an episode's construction and its slot 0.
struct setup_sample {
    double construct_s = 0.0;
    double first_slot_s = 0.0;
};

// What every episode of one instance must reproduce: the running slot
// digests of the longest episode seen, and the digest of a complete one.
struct reference {
    std::vector<std::uint64_t> slot_digests;
    std::uint64_t digest = 0;
    bool complete = false;
};

// Records a violation when `ep` does not reproduce its instance's reference;
// the first complete episode of an instance becomes its reference.
void check_reproduces(reference& ref, const episode_stats& ep, run_result& result) {
    const std::size_t common = std::min(ref.slot_digests.size(), ep.slot_digests.size());
    std::size_t k = 0;
    while (k < common && ref.slot_digests[k] == ep.slot_digests[k]) ++k;
    std::string diverged;
    if (k < common)
        diverged = " at slot " + std::to_string(k);
    else if (ep.complete && ref.complete && ep.digest != ref.digest)
        diverged = " in its aggregates";
    if (!diverged.empty()) {
        ++result.failed;
        result.violations.push_back(
            "instance " + std::to_string(ep.instance) +
            (ep.traced ? ", traced," : ", untraced,") +
            " diverged from its first episode" + diverged);
        return;
    }
    if (ep.slot_digests.size() > ref.slot_digests.size()) ref.slot_digests = ep.slot_digests;
    if (ep.complete && !ref.complete) {
        ref.digest = ep.digest;
        ref.complete = true;
    }
}

void write_trace(const std::string& path, const std::vector<trace_event>& events,
                 std::size_t emulators) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "perfbench: cannot write the trace to " << path << "\n";
        return;
    }
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 0, \"args\": "
           "{\"name\": \"perfbench\"}},\n";
    out << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, \"args\": "
           "{\"name\": \"emulator phases\"}}";
    for (std::size_t i = 0; i < emulators; ++i)
        out << ",\n{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << i + 1
            << ", \"args\": {\"name\": \"swarm " << i << "\"}}";
    for (const trace_event& e : events)
        out << ",\n{\"name\": " << json_string(e.name) << ", \"ph\": \"X\", \"pid\": " << e.pid
            << ", \"tid\": " << e.tid << ", \"ts\": " << format_double(e.start_s * 1e6)
            << ", \"dur\": " << format_double(e.dur_s * 1e6) << ", \"args\": {\"slot\": "
            << e.slot << "}}";
    out << "\n]}\n";
}

using episode_list = std::vector<const episode_stats*>;

// The episodes of one arm, and the first cycle of them (one episode of each
// instance).
episode_list arm(const std::vector<episode_stats>& eps, bool traced) {
    episode_list out;
    for (const auto& e : eps)
        if (e.traced == traced) out.push_back(&e);
    return out;
}

episode_list first_cycle(const episode_list& eps, std::size_t instances) {
    return episode_list(eps.begin(),
                        eps.begin() + static_cast<std::ptrdiff_t>(std::min(instances, eps.size())));
}

std::size_t steady_slots(const episode_list& eps) {
    std::size_t n = 0;
    for (const auto* e : eps) n += e->steady_wall_s.size();
    return n;
}

std::vector<double> steady_walls(const episode_list& eps) {
    std::vector<double> walls;
    for (const auto* e : eps)
        walls.insert(walls.end(), e->steady_wall_s.begin(), e->steady_wall_s.end());
    return walls;
}

// Mean of `f` over the episodes of a cycle.
template <typename F>
double mean_of(const episode_list& cycle, F f) {
    double sum = 0.0;
    for (const auto* e : cycle) sum += static_cast<double>(f(*e));
    return sum / static_cast<double>(cycle.size());
}

double mean_counter(const episode_list& cycle, std::string_view name) {
    return mean_of(cycle, [&](const episode_stats& e) { return counter_value(e.counters, name); });
}

// `f` of every set-up sample.
template <typename F>
std::vector<double> setup_values(const std::vector<setup_sample>& setups, F f) {
    std::vector<double> out;
    for (const auto& s : setups) out.push_back(f(s));
    return out;
}

metric_set end_to_end_metrics(const std::vector<episode_stats>& eps,
                              const std::vector<setup_sample>& setups, std::size_t instances) {
    metric_set m;
    const episode_list untraced = arm(eps, false);
    const episode_list cycle = first_cycle(untraced, instances);
    const std::vector<double> setup = setup_values(
        setups, [](const setup_sample& s) { return s.construct_s + s.first_slot_s; });
    const std::vector<double> walls = steady_walls(untraced);
    const auto tail = tail_percentile(walls);
    if (!tail)
        throw std::runtime_error("too few steady slots for a tail percentile: " +
                                 std::to_string(walls.size()));
    double wall_sum = 0.0;
    std::uint64_t viewers = 0;
    for (double w : walls) wall_sum += w;
    for (const auto* e : untraced) viewers += e->steady_viewers;
    const std::string per_draw = "mean of " + std::to_string(cycle.size()) + " draws";

    m.add("setup_s", median(setup), "s", setup.size(), "median of construction + slot 0");
    m.add("slot_p50_ms", median(walls) * 1e3, "ms", walls.size(), "steady slots");
    m.add("slot_tail_ms", tail->value * 1e3, "ms", tail->samples,
          "p" + format_double(tail->level) + ", " + std::to_string(tail->beyond) +
              " samples beyond");
    m.add("viewer_slots_per_s", static_cast<double>(viewers) / wall_sum, "1/s",
          walls.size(), "online viewers / steady-slot wall");
    std::vector<double> rss;
    for (const auto* e : untraced) rss.push_back(e->peak_rss_mb);
    m.add("peak_rss_mb", median(rss), "MiB", rss.size(), "median of per-episode peaks");
    m.add("welfare", mean_of(cycle, [](const episode_stats& e) { return e.welfare; }),
          "utility", cycle.size(), per_draw + ", per episode");
    m.add("miss_rate", mean_of(cycle, [](const episode_stats& e) { return e.miss_rate; }),
          "fraction", cycle.size(), per_draw + ", missed / due chunks");
    m.add("inter_isp_fraction",
          mean_of(cycle, [](const episode_stats& e) { return e.inter_isp_fraction; }),
          "fraction", cycle.size(), per_draw + ", inter-ISP / all transfers");
    return m;
}

metric_set per_layer_metrics(const std::vector<episode_stats>& eps,
                             const std::vector<setup_sample>& setups, std::size_t instances) {
    metric_set m;
    const episode_list untraced = arm(eps, false);
    const episode_list traced = arm(eps, true);
    const episode_list cycle = first_cycle(traced, instances);
    double wall = 0.0;
    double parallel = 0.0;
    double hooks = 0.0;
    double shard_max = 0.0;
    double shard_sum = 0.0;
    double critical = 0.0;
    double busy_capacity = 0.0;
    std::array<double, num_phases> phase{};
    for (const auto* e : traced) {
        for (double w : e->steady_wall_s) wall += w;
        parallel += e->parallel_s;
        hooks += e->hook_s;
        shard_max += e->shard_max_s;
        shard_sum += e->shard_sum_s;
        critical += e->critical_s;
        busy_capacity += e->parallel_s * static_cast<double>(e->busy_threads);
        for (std::size_t p = 0; p < num_phases; ++p) phase[p] += e->phase_s[p];
    }
    const std::size_t n = steady_slots(traced);
    const auto per_slot = [&](double total) { return total / static_cast<double>(n); };
    const double emulators = static_cast<double>(cycle.front()->emulators);
    const auto phase_s = [&](obs::phase p) {
        return per_slot(phase[static_cast<std::size_t>(p)]);
    };
    const std::string per_episode = "per episode";

    // engine: the step, split into the parallel phase and the serial hooks.
    m.add("engine.step_s", per_slot(wall), "s", n, "per steady slot");
    m.add("engine.parallel_s", per_slot(parallel), "s", n, "shard phase + merge");
    m.add("engine.hook_s", per_slot(hooks), "s", n, "step wall - parallel");
    m.add("engine.shard_max_s", per_slot(shard_max), "s", n, "slowest swarm's spans");
    m.add("engine.shard_mean_s", per_slot(shard_sum) / emulators, "s", n);
    m.add("engine.imbalance", share(shard_max * emulators, shard_sum), "ratio", n,
          "max / mean swarm");
    m.add("engine.pool_busy_frac", share(shard_sum, busy_capacity), "fraction", n,
          "swarm spans / (threads x parallel)");

    // vod: the emulator's own slot pipeline, summed over swarms.
    m.add("vod.arrivals_s", phase_s(obs::phase::arrivals), "s", n);
    m.add("vod.departures_s", phase_s(obs::phase::departures), "s", n);
    m.add("vod.playback_s", phase_s(obs::phase::playback), "s", n);
    m.add("vod.neighbor_refresh_s", phase_s(obs::phase::neighbor_refresh), "s", n);
    m.add("vod.build_s", phase_s(obs::phase::build), "s", n);
    m.add("vod.apply_s", phase_s(obs::phase::apply), "s", n);
    m.add("vod.shed_s", phase_s(obs::phase::shed), "s", n);
    m.add("vod.unaccounted_frac", 1.0 - share(critical, parallel), "fraction", n,
          "parallel time no phase span explains");
    const double dirty = mean_counter(cycle, "delta.dirty_rows");
    const double reused = mean_counter(cycle, "delta.reused_rows");
    m.add("vod.dirty_rows", dirty, "count", 0, per_episode);
    m.add("vod.reused_rows", reused, "count", 0, per_episode);
    m.add("vod.reuse_ratio", share(reused, dirty + reused), "ratio");

    // core: the scheduler.
    const double rounds = mean_counter(cycle, "solver.rounds");
    const double bids = mean_counter(cycle, "solver.bids");
    m.add("core.solve_s", phase_s(obs::phase::solve), "s", n);
    m.add("core.rounds", rounds, "count", 0, per_episode);
    m.add("core.bids", bids, "count", 0, per_episode);
    m.add("core.bids_per_round", share(bids, rounds), "ratio");
    m.add("core.phases", mean_counter(cycle, "solver.phases"), "count", 0, per_episode);
    m.add("core.early_exit_slots", mean_counter(cycle, "delta.early_exit_slots"), "count", 0,
          per_episode);

    // net: the cost model's link-draw cache.
    const double hits = mean_counter(cycle, "cost.cache_hits");
    const double misses = mean_counter(cycle, "cost.cache_misses");
    m.add("net.cache_hits", hits, "count", 0, per_episode);
    m.add("net.cache_misses", misses, "count", 0, per_episode);
    m.add("net.cache_hit_ratio", share(hits, hits + misses), "ratio");
    m.add("net.cache_flushes", mean_counter(cycle, "cost.cache_flushes"), "count", 0,
          per_episode);

    // capacity: admission and the shared link pools.
    const double admitted = mean_counter(cycle, "admission.admitted");
    const double abandoned = mean_counter(cycle, "admission.abandoned");
    const double queued = mean_counter(cycle, "admission.queued");
    m.add("capacity.admitted", admitted, "count", 0, per_episode);
    m.add("capacity.deferred", mean_counter(cycle, "admission.deferred"), "count", 0,
          per_episode);
    m.add("capacity.abandoned", abandoned, "count", 0, per_episode);
    m.add("capacity.abandoned_fraction", share(abandoned, admitted + abandoned + queued),
          "fraction", 0, "abandoned / arrivals attempted");
    m.add("capacity.saturated_pairs_peak",
          mean_of(cycle, [](const episode_stats& e) { return e.saturated_pairs_peak; }),
          "count", 0, per_episode);
    m.add("capacity.max_utilization_peak",
          mean_of(cycle, [](const episode_stats& e) { return e.max_utilization_peak; }),
          "ratio", 0, per_episode);

    // isp: the economy.
    m.add("isp.pricing_epochs",
          mean_of(cycle, [](const episode_stats& e) { return e.pricing_epochs; }), "count", 0,
          per_episode);
    m.add("isp.bytes_transit", mean_counter(cycle, "ledger.bytes_transit"), "B", 0,
          per_episode);
    m.add("isp.transit_cost",
          mean_of(cycle, [](const episode_stats& e) { return e.transit_cost; }), "cost", 0,
          per_episode);

    // obs: telemetry.
    const std::vector<double> walls_u = steady_walls(untraced);
    const std::vector<double> walls_t = steady_walls(traced);
    m.add("obs.jsonl_bytes_per_slot",
          mean_of(cycle,
                  [](const episode_stats& e) {
                      return share(static_cast<double>(e.jsonl_bytes),
                                   static_cast<double>(e.slots));
                  }),
          "B");
    m.add("obs.flushes", mean_of(cycle, [](const episode_stats& e) { return e.jsonl_flushes; }),
          "count", 0, per_episode);
    m.add("obs.trace_overhead_pct", (median(walls_t) / median(walls_u) - 1.0) * 100.0, "%",
          walls_t.size(), "traced vs untraced slot p50");

    // mem: the program's memory footprint per online viewer at episode end.
    const std::pair<const char*, std::size_t vod::memory_breakdown::*> fields[] = {
        {"peer_table", &vod::memory_breakdown::peer_table},
        {"buffers", &vod::memory_breakdown::buffers},
        {"tracker", &vod::memory_breakdown::tracker},
        {"neighbor_arena", &vod::memory_breakdown::neighbor_arena},
        {"problem_arena", &vod::memory_breakdown::problem_arena},
        {"solver", &vod::memory_breakdown::solver},
        {"cost_cache", &vod::memory_breakdown::cost_cache},
        {"ledger", &vod::memory_breakdown::ledger},
        {"scratch", &vod::memory_breakdown::scratch},
        {"shared", &vod::memory_breakdown::shared}};
    for (const auto& [field, member] : fields)
        m.add(std::string("mem.") + field + "_bytes_per_viewer",
              mean_of(cycle,
                      [member = member](const episode_stats& e) {
                          return static_cast<double>(e.memory.*member) /
                                 static_cast<double>(std::max<std::uint64_t>(1, e.final_viewers));
                      }),
              "B");

    // setup: the untraced arm's construction and cold first slot.
    const std::vector<double> construct =
        setup_values(setups, [](const setup_sample& s) { return s.construct_s; });
    const std::vector<double> first_slot =
        setup_values(setups, [](const setup_sample& s) { return s.first_slot_s; });
    m.add("setup.construct_s", median(construct), "s", construct.size());
    m.add("setup.first_slot_s", median(first_slot), "s", first_slot.size());
    return m;
}

}  // namespace

run_result run_workload(const std::vector<workload_spec>& instances,
                        const run_options& options) {
    if (instances.empty()) throw std::invalid_argument("a workload needs an instance");
    run_result result;
    const std::size_t k = instances.size();
    const auto start = clock::now();
    const auto elapsed = [&] { return seconds_between(start, clock::now()); };
    std::vector<episode_stats> episodes;
    std::vector<setup_sample> setups;
    std::vector<reference> references(k);
    std::vector<trace_event> trace;

    // Extra set-ups first, cycling the instances; only their times are kept.
    for (std::size_t j = 0; j < k || elapsed() < setup_share * options.seconds; ++j) {
        const episode_stats st =
            run_episode(instances[j % k], j % k, false, true, start, nullptr, result);
        check_reproduces(references[j % k], st, result);
        setups.push_back({st.construct_s, st.first_slot_s});
        ++result.extra_setups;
    }

    // Cycles: every instance once per cycle; on a traced run every other
    // cycle is traced, so both arms step the same draws.
    std::vector<double> cycle_seconds;
    for (std::size_t c = 0;; ++c) {
        const bool traced = options.trace && c % 2 == 1;
        const double cycle_start = elapsed();
        for (std::size_t i = 0; i < k; ++i) {
            const bool record = traced && trace.empty() && !options.trace_path.empty();
            episodes.push_back(run_episode(instances[i], i, traced, false, start,
                                           record ? &trace : nullptr, result));
            if (record) write_trace(options.trace_path, trace, episodes.back().emulators);
            check_reproduces(references[i], episodes.back(), result);
        }
        cycle_seconds.push_back(elapsed() - cycle_start);
        ++result.cycles;

        const bool enough =
            c >= 1 && steady_slots(arm(episodes, false)) >= min_steady_slots &&
            (!options.trace || steady_slots(arm(episodes, true)) >= min_steady_slots);
        // The next cycle is assumed to take as long as the slowest so far.
        const double next = *std::max_element(cycle_seconds.begin(), cycle_seconds.end());
        if (elapsed() >= max_run_seconds ||
            (enough && elapsed() + next > options.seconds))
            break;
    }

    for (const episode_stats& e : episodes) {
        result.episodes.push_back(
            {e.instance, e.traced, e.construct_s + e.first_slot_s,
             e.steady_wall_s.empty() ? 0.0 : median(e.steady_wall_s) * 1e3});
        if (!e.traced) setups.push_back({e.construct_s, e.first_slot_s});
    }
    digest run;
    for (const reference& r : references) run.add(r.digest);
    result.digest = run.value();
    result.end_to_end = end_to_end_metrics(episodes, setups, k);
    result.metrics =
        options.trace ? per_layer_metrics(episodes, setups, k) : result.end_to_end;
    return result;
}

}  // namespace p2pcd::perfbench
