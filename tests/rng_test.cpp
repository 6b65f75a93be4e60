#include "sim/rng.h"

#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <random>

namespace p2pcd::sim {
namespace {

TEST(rng, same_seed_same_sequence) {
    rng_stream a(42);
    rng_stream b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.uniform_int(0, 1000), b.uniform_int(0, 1000));
}

TEST(rng, uniform_int_stays_in_range) {
    rng_stream r(7);
    for (int i = 0; i < 1000; ++i) {
        auto v = r.uniform_int(-3, 5);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 5);
    }
}

TEST(rng, uniform_real_stays_in_range) {
    rng_stream r(7);
    for (int i = 0; i < 1000; ++i) {
        double v = r.uniform_real(0.5, 2.5);
        EXPECT_GE(v, 0.5);
        EXPECT_LT(v, 2.5);
    }
}

TEST(rng, bernoulli_extremes) {
    rng_stream r(7);
    for (int i = 0; i < 50; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(rng_factory, streams_are_deterministic_per_name) {
    rng_factory f(123);
    auto a1 = f.stream("arrivals");
    auto a2 = f.stream("arrivals");
    EXPECT_EQ(a1.uniform_int(0, 1 << 30), a2.uniform_int(0, 1 << 30));
}

TEST(rng_factory, different_names_differ) {
    rng_factory f(123);
    auto a = f.stream("arrivals");
    auto b = f.stream("costs");
    // Astronomically unlikely to collide on the first 4 draws if independent.
    bool all_equal = true;
    for (int i = 0; i < 4; ++i)
        if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) all_equal = false;
    EXPECT_FALSE(all_equal);
}

TEST(rng_factory, different_master_seeds_differ) {
    rng_factory f1(1);
    rng_factory f2(2);
    auto a = f1.stream("x");
    auto b = f2.stream("x");
    bool all_equal = true;
    for (int i = 0; i < 4; ++i)
        if (a.uniform_int(0, 1 << 30) != b.uniform_int(0, 1 << 30)) all_equal = false;
    EXPECT_FALSE(all_equal);
}

// The lazy engine must reproduce std::mt19937_64 output for output: through
// its seed-chain prefix (outputs 0–155), the hand-over to the real engine,
// and the tail past it.
void expect_standard_stream(std::uint64_t seed) {
    std::mt19937_64 reference(seed);
    mt19937_64_prefix lazy(seed);
    for (int k = 0; k < 400; ++k)
        ASSERT_EQ(lazy(), reference()) << "seed " << seed << ", output " << k;
}

TEST(mt19937_64_prefix, matches_standard_engine_on_edge_seeds) {
    static_assert(mt19937_64_prefix::prefix_outputs == 156);
    for (std::uint64_t seed : {std::uint64_t{0}, std::uint64_t{1}, ~std::uint64_t{0}})
        expect_standard_stream(seed);
}

TEST(mt19937_64_prefix, matches_standard_engine_on_random_seeds) {
    std::mt19937_64 corpus(20140707);
    for (int i = 0; i < 200; ++i) expect_standard_stream(corpus());
}

TEST(mt19937_64_prefix, is_a_uniform_random_bit_generator_with_the_standard_range) {
    static_assert(std::uniform_random_bit_generator<mt19937_64_prefix>);
    static_assert(mt19937_64_prefix::min() == std::mt19937_64::min());
    static_assert(mt19937_64_prefix::max() == std::mt19937_64::max());
}

}  // namespace
}  // namespace p2pcd::sim
