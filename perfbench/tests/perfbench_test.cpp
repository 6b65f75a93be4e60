// The benchmark's own tests, at test scale (fleet_smoke, coupled_smoke):
// the tail-percentile rule, metric-name validation, the output checks, and
// the agreement of traced and untraced runs.
#include <cmath>
#include <fstream>
#include <iterator>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "checks.h"
#include "episode.h"
#include "measure.h"
#include "report.h"
#include "workloads.h"

namespace {

using namespace p2pcd::perfbench;

std::vector<double> one_to(std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
    return v;
}

TEST(TailPercentile, PicksTheHighestLevelWithTenSamplesBeyond) {
    EXPECT_FALSE(tail_percentile(one_to(19)).has_value());

    const auto p50 = tail_percentile(one_to(20));
    ASSERT_TRUE(p50.has_value());
    EXPECT_EQ(p50->level, 50.0);
    EXPECT_EQ(p50->beyond, 10u);
    EXPECT_EQ(p50->value, 10.0);

    const auto p75 = tail_percentile(one_to(99));
    ASSERT_TRUE(p75.has_value());
    EXPECT_EQ(p75->level, 75.0);  // p90 of 99 leaves only 9 beyond

    const auto p90 = tail_percentile(one_to(100));
    ASSERT_TRUE(p90.has_value());
    EXPECT_EQ(p90->level, 90.0);
    EXPECT_EQ(p90->value, 90.0);
    EXPECT_EQ(p90->beyond, 10u);
    EXPECT_EQ(p90->samples, 100u);

    const auto p99 = tail_percentile(one_to(1000));
    ASSERT_TRUE(p99.has_value());
    EXPECT_EQ(p99->level, 99.0);
    EXPECT_EQ(p99->value, 990.0);
}

TEST(Median, AveragesTheMiddlePair) {
    EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
    EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
    EXPECT_THROW((void)median({}), std::invalid_argument);
}

TEST(MetricNames, AcceptOnlyTheBenchmarkAlphabet) {
    for (const char* ok : {"setup_s", "engine.hook_s", "mem.peer_table_bytes_per_viewer",
                           "a-b_c.d", "9lives"})
        EXPECT_TRUE(valid_metric_name(ok)) << ok;
    for (const char* bad : {"", "_x", ".x", "-x", "a b", "a/b", "a\"b", "caf\xc3\xa9"})
        EXPECT_FALSE(valid_metric_name(bad)) << bad;
    EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
    EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
}

TEST(MetricSet, RejectsBadNamesRepeatsAndNonFiniteValues) {
    metric_set m;
    m.add("slot_p50_ms", 1.5, "ms", 10);
    EXPECT_THROW(m.add("slot p50", 1.0, "ms"), std::invalid_argument);
    EXPECT_THROW(m.add("slot_p50_ms", 2.0, "ms"), std::invalid_argument);
    EXPECT_THROW(m.add("nan", std::nan(""), "ms"), std::invalid_argument);
    EXPECT_THROW(m.add("no_unit", 1.0, ""), std::invalid_argument);
    EXPECT_EQ(result_line(true, 3, 0, m),
              "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
              "{\"slot_p50_ms\": {\"value\": 1.5, \"unit\": \"ms\"}}}");
}

TEST(FormatDouble, RoundTripsEveryDigit) {
    for (double v : {0.1, 1.0 / 3.0, 123456.789e-12, 2.5e300}) {
        EXPECT_EQ(std::stod(format_double(v)), v);
    }
}

// A test-scale fleet stepped to its end; `busy` is its busiest slot, with
// the shards' records of that slot.
class SmokeEpisode : public ::testing::Test {
protected:
    void SetUp() override {
        ep = std::make_unique<episode>(make_workload("fleet_smoke", 7).front(), false);
        std::vector<std::string> violations;
        for (std::size_t k = 0; k < ep->num_slots(); ++k) {
            ep->step();
            ASSERT_TRUE(ep->check_last_slot(violations));
            if (ep->slots().back().requests > ep->slots()[busy].requests) busy = k;
        }
        ASSERT_TRUE(ep->check_totals(violations));
        ASSERT_TRUE(violations.empty());
        for (std::size_t i = 0; i < ep->num_emulators(); ++i)
            shards.push_back(to_record(ep->emulator_at(i).slots()[busy]));
    }

    std::unique_ptr<episode> ep;
    std::size_t busy = 0;
    std::vector<slot_record> shards;
};

TEST_F(SmokeEpisode, CheckerRejectsCorruptedSlotRecords) {
    const slot_record good = ep->slots()[busy];
    std::vector<std::string> violations;
    ASSERT_TRUE(check_slot(good, violations));
    ASSERT_GT(good.requests, 0u);

    slot_record over_served = good;
    over_served.transfers = good.requests + 1;
    EXPECT_FALSE(check_slot(over_served, violations));

    slot_record over_missed = good;
    over_missed.chunks_missed = good.chunks_due + 1;
    EXPECT_FALSE(check_slot(over_missed, violations));

    slot_record over_inter = good;
    over_inter.inter_isp_transfers = good.transfers + 1;
    EXPECT_FALSE(check_slot(over_inter, violations));

    slot_record bad_ratio = good;
    bad_ratio.miss_rate = std::nextafter(good.miss_rate, 1.0);
    EXPECT_FALSE(check_slot(bad_ratio, violations));
    // A corrupted count also breaks its ratio, so some records fail twice.
    EXPECT_GE(violations.size(), 4u);
}

TEST_F(SmokeEpisode, FleetSlotMustEqualTheSumOfItsShards) {
    std::vector<std::string> violations;
    const slot_record merged = ep->slots()[busy];
    ASSERT_GT(merged.social_welfare, 0.0);
    EXPECT_TRUE(check_fleet_merge(merged, shards, violations));

    slot_record off_by_an_ulp = merged;
    off_by_an_ulp.social_welfare = std::nextafter(merged.social_welfare, 0.0);
    EXPECT_FALSE(check_fleet_merge(off_by_an_ulp, shards, violations));

    std::vector<slot_record> lost_transfer = shards;
    lost_transfer.back().transfers -= 1;
    EXPECT_FALSE(check_fleet_merge(merged, lost_transfer, violations));
    EXPECT_EQ(violations.size(), 2u);
}

TEST_F(SmokeEpisode, TotalWelfareMustEqualTheSumOfSlots) {
    std::vector<std::string> violations;
    EXPECT_TRUE(check_total_welfare(ep->slots(), ep->total_welfare(), violations));
    EXPECT_FALSE(check_total_welfare(ep->slots(), ep->total_welfare() + 1.0, violations));
    EXPECT_EQ(violations.size(), 1u);
}

// Every slot and counter of one episode, stepped to the end.
std::uint64_t episode_digest(const workload_spec& spec, bool traced) {
    episode ep(spec, traced);
    digest d;
    for (std::size_t k = 0; k < ep.num_slots(); ++k) {
        ep.step();
        d.add(ep.slots().back());
    }
    d.add(ep.counters());
    d.add(ep.total_welfare());
    d.add(ep.transit_cost());
    return d.value();
}

TEST(Semantics, TracedAndUntracedEpisodesAgree) {
    for (const char* name : {"fleet_smoke", "coupled_smoke"}) {
        const workload_spec spec = make_workload(name, 11).front();
        EXPECT_EQ(episode_digest(spec, false), episode_digest(spec, true)) << name;
    }
}

run_options quick(bool trace) {
    run_options o;
    o.seconds = 0.2;
    o.trace = trace;
    return o;
}

TEST(Semantics, TracedAndUntracedRunsAgreeAndRepeat) {
    for (const char* name : {"fleet_smoke", "coupled_smoke"}) {
        const auto instances = make_workload(name, 5);
        const run_result untraced = run_workload(instances, quick(false));
        const run_result again = run_workload(instances, quick(false));
        const run_result traced = run_workload(instances, quick(true));
        for (const run_result* r : {&untraced, &again, &traced}) {
            EXPECT_EQ(r->failed, 0u) << name;
            EXPECT_TRUE(r->violations.empty()) << name;
            EXPECT_GE(r->cycles, 2u) << name;
        }
        EXPECT_EQ(untraced.digest, again.digest) << name;
        EXPECT_EQ(untraced.digest, traced.digest) << name;

        // The end-to-end semantics are the same numbers on every run.
        for (const char* m : {"welfare", "miss_rate", "inter_isp_fraction"})
            EXPECT_EQ(untraced.metrics.find(m)->value, traced.end_to_end.find(m)->value)
                << name << " " << m;
    }
}

TEST(Seeds, AHeldOutSeedDrawsOtherInputsAndRuns) {
    const auto a = make_workload("coupled_smoke", 1);
    const auto b = make_workload("coupled_smoke", 2);
    ASSERT_EQ(a.size(), b.size());
    std::set<std::uint64_t> seeds;
    for (const auto* w : {&a, &b})
        for (const auto& spec : *w) seeds.insert(spec.fleet.fleet_seed);
    EXPECT_EQ(seeds.size(), a.size() + b.size());
    const run_result r = run_workload(b, quick(false));
    EXPECT_EQ(r.failed, 0u);
    EXPECT_NE(r.digest, run_workload(a, quick(false)).digest);
}

TEST(Traced, LayersReconcileWithTheWall) {
    const run_result r = run_workload(make_workload("coupled_smoke", 3), quick(true));
    const auto value = [&](const char* n) {
        const metric* m = r.metrics.find(n);
        EXPECT_NE(m, nullptr) << n;
        return m == nullptr ? -1.0 : m->value;
    };
    EXPECT_GT(value("engine.pool_busy_frac"), 0.0);
    EXPECT_LE(value("engine.pool_busy_frac"), 1.0);
    EXPECT_GE(value("vod.unaccounted_frac"), 0.0);
    EXPECT_LT(value("vod.unaccounted_frac"), 1.0);
    EXPECT_NEAR(value("engine.step_s"), value("engine.parallel_s") + value("engine.hook_s"),
                1e-12);
    EXPECT_GE(value("engine.imbalance"), 1.0);
}

// The values of `key` in the entries listed under `section` in BENCHMARK.json.
std::vector<std::string> listed(const std::string& section, const std::string& key = "name") {
    std::ifstream in(PERFBENCH_BENCHMARK_JSON);
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto begin = text.find("\"" + section + "\"");
    if (begin == std::string::npos) return {};
    const auto end = text.find(']', begin);
    const std::string body = text.substr(begin, end - begin);
    const std::regex field("\"" + key + "\"\\s*:\\s*\"([^\"]+)\"");
    std::vector<std::string> values;
    for (auto it = std::sregex_iterator(body.begin(), body.end(), field);
         it != std::sregex_iterator(); ++it)
        values.push_back((*it)[1]);
    return values;
}

std::vector<std::string> reported(const metric_set& m) {
    std::vector<std::string> names;
    for (const auto& x : m.all()) names.push_back(x.name);
    return names;
}

TEST(Benchmark, ReportsExactlyTheMetricsBenchmarkJsonLists) {
    const auto instances = make_workload("coupled_smoke", 9);
    EXPECT_EQ(reported(run_workload(instances, quick(false)).metrics), listed("end_to_end"));
    EXPECT_EQ(reported(run_workload(instances, quick(true)).metrics), listed("per_layer"));
}

TEST(Benchmark, ListsEveryWorkloadWithItsRationale) {
    EXPECT_EQ(listed("workloads"), benchmark_workloads());
    std::vector<std::string> whys;
    for (const auto& name : benchmark_workloads())
        whys.push_back(make_workload(name, 1).front().why);
    EXPECT_EQ(listed("workloads", "why"), whys);
}

}  // namespace
