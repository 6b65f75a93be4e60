#include "sim/distributions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <random>

#include "common/contracts.h"

namespace p2pcd::sim {
namespace {

TEST(truncated_normal, respects_bounds) {
    // The paper's inter-ISP cost distribution: N(5,1) truncated to [1,10].
    truncated_normal dist(5.0, 1.0, 1.0, 10.0);
    rng_stream rng(1);
    for (int i = 0; i < 5000; ++i) {
        double x = dist.sample(rng);
        EXPECT_GE(x, 1.0);
        EXPECT_LE(x, 10.0);
    }
}

TEST(truncated_normal, mean_is_close_to_center_when_symmetric) {
    truncated_normal dist(5.0, 1.0, 1.0, 10.0);
    rng_stream rng(2);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += dist.sample(rng);
    EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(truncated_normal, asymmetric_window_shifts_mean) {
    // The paper's intra-ISP distribution N(1,1)|[0,2] is symmetric about 1;
    // a window [1, 3] around the same normal must pull the mean above 1.
    truncated_normal dist(1.0, 1.0, 1.0, 3.0);
    rng_stream rng(3);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) sum += dist.sample(rng);
    EXPECT_GT(sum / n, 1.2);
}

TEST(truncated_normal, far_tail_window_still_returns_in_bounds) {
    truncated_normal dist(0.0, 1.0, 8.0, 9.0);  // ~7 sigma out: rejection fails
    rng_stream rng(4);
    double x = dist.sample(rng);
    EXPECT_GE(x, 8.0);
    EXPECT_LE(x, 9.0);
}

// Counts the outputs a sampler reads, so a test can show which part of the
// lazy engine it exercised.
struct counting_prefix {
    using result_type = mt19937_64_prefix::result_type;
    static constexpr result_type min() { return mt19937_64_prefix::min(); }
    static constexpr result_type max() { return mt19937_64_prefix::max(); }
    result_type operator()() {
        ++outputs;
        return engine();
    }
    mt19937_64_prefix engine;
    std::size_t outputs = 0;
};

// Samples through std::mt19937_64 and through mt19937_64_prefix on the same
// seed must be bit-equal; returns the most outputs one seed's samples read.
std::size_t expect_bit_equal_samples(const truncated_normal& dist) {
    std::size_t most_outputs = 0;
    for (std::uint64_t seed = 0; seed < 300; ++seed) {
        const std::uint64_t mixed = seed * 0x9e3779b97f4a7c15ull;
        std::mt19937_64 reference(mixed);
        counting_prefix lazy{mt19937_64_prefix(mixed)};
        for (int n = 0; n < 3; ++n)
            EXPECT_EQ(std::bit_cast<std::uint64_t>(dist.sample(reference)),
                      std::bit_cast<std::uint64_t>(dist.sample(lazy)))
                << "seed " << mixed << ", sample " << n;
        most_outputs = std::max(most_outputs, lazy.outputs);
    }
    return most_outputs;
}

TEST(truncated_normal, lazy_engine_samples_bit_equal_on_the_papers_windows) {
    expect_bit_equal_samples(truncated_normal(5.0, 1.0, 1.0, 10.0));  // inter
    expect_bit_equal_samples(truncated_normal(1.0, 1.0, 0.0, 2.0));   // intra
}

TEST(truncated_normal, lazy_engine_samples_bit_equal_through_the_clamp) {
    // N(0,1) on [6,7]: rejection essentially never accepts, so every sample
    // spends its 64 tries and clamps — reading well past output 156, where
    // the lazy engine hands over to the standard one.
    const truncated_normal dist(0.0, 1.0, 6.0, 7.0);
    EXPECT_GT(expect_bit_equal_samples(dist), mt19937_64_prefix::prefix_outputs);
    counting_prefix lazy{mt19937_64_prefix(7)};
    EXPECT_EQ(dist.sample(lazy), 6.0) << "the clamp, not an accepted draw";
}

TEST(truncated_normal, validates_parameters) {
    EXPECT_THROW(truncated_normal(0.0, 0.0, 0.0, 1.0), contract_violation);
    EXPECT_THROW(truncated_normal(0.0, 1.0, 2.0, 1.0), contract_violation);
}

TEST(zipf_mandelbrot, pmf_sums_to_one) {
    zipf_mandelbrot dist(100, 0.78, 4.0);  // the paper's video popularity
    double total = 0.0;
    for (std::size_t i = 1; i <= 100; ++i) total += dist.pmf(i);
    EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(zipf_mandelbrot, popularity_decreases_with_rank) {
    zipf_mandelbrot dist(100, 0.78, 4.0);
    for (std::size_t i = 1; i < 100; ++i) EXPECT_GT(dist.pmf(i), dist.pmf(i + 1));
}

TEST(zipf_mandelbrot, matches_closed_form) {
    zipf_mandelbrot dist(100, 0.78, 4.0);
    double denom = 0.0;
    for (int i = 1; i <= 100; ++i) denom += std::pow(i + 4.0, -0.78);
    EXPECT_NEAR(dist.pmf(1), std::pow(5.0, -0.78) / denom, 1e-12);
    EXPECT_NEAR(dist.pmf(50), std::pow(54.0, -0.78) / denom, 1e-12);
}

TEST(zipf_mandelbrot, sampling_tracks_pmf) {
    zipf_mandelbrot dist(10, 0.78, 4.0);
    rng_stream rng(5);
    std::vector<int> counts(11, 0);
    const int n = 50000;
    for (int i = 0; i < n; ++i) ++counts[dist.sample(rng)];
    for (std::size_t rank = 1; rank <= 10; ++rank) {
        double observed = static_cast<double>(counts[rank]) / n;
        EXPECT_NEAR(observed, dist.pmf(rank), 0.01) << "rank " << rank;
    }
}

TEST(zipf_mandelbrot, rank_bounds_are_checked) {
    zipf_mandelbrot dist(10, 0.78, 4.0);
    EXPECT_THROW((void)dist.pmf(0), contract_violation);
    EXPECT_THROW((void)dist.pmf(11), contract_violation);
}

TEST(poisson_process, arrivals_are_monotone) {
    poisson_process p(1.0);
    rng_stream rng(6);
    double prev = 0.0;
    for (int i = 0; i < 100; ++i) {
        double t = p.next_arrival(rng);
        EXPECT_GT(t, prev);
        prev = t;
    }
}

TEST(poisson_process, rate_matches_arrival_count) {
    // Rate 1/s over 10000 simulated seconds: expect ~10000 ± a few hundred.
    poisson_process p(1.0);
    rng_stream rng(7);
    int count = 0;
    while (p.next_arrival(rng) < 10000.0) ++count;
    EXPECT_NEAR(static_cast<double>(count), 10000.0, 400.0);
}

TEST(poisson_process, validates_rate) {
    EXPECT_THROW(poisson_process(0.0), contract_violation);
    EXPECT_THROW(poisson_process(-1.0), contract_violation);
}

}  // namespace
}  // namespace p2pcd::sim
