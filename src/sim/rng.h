// Deterministic random-number streams.
//
// Every stochastic component (cost model, arrivals, video choice, upload
// capacities, ...) draws from its own named stream derived from one master
// seed. Components therefore stay reproducible independently of each other:
// adding draws to one stream never perturbs another.
#ifndef P2PCD_SIM_RNG_H
#define P2PCD_SIM_RNG_H

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <random>
#include <string_view>

namespace p2pcd::sim {

class rng_stream {
public:
    explicit rng_stream(std::uint64_t seed) : engine_(seed) {}

    // Uniform integer in [lo, hi] (inclusive).
    [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
        return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
    }

    // Uniform real in [lo, hi).
    [[nodiscard]] double uniform_real(double lo, double hi) {
        return std::uniform_real_distribution<double>(lo, hi)(engine_);
    }

    [[nodiscard]] bool bernoulli(double p) {
        return std::bernoulli_distribution(p)(engine_);
    }

    [[nodiscard]] double exponential(double rate) {
        return std::exponential_distribution<double>(rate)(engine_);
    }

    [[nodiscard]] double normal(double mean, double stddev) {
        return std::normal_distribution<double>(mean, stddev)(engine_);
    }

    std::mt19937_64& engine() noexcept { return engine_; }

private:
    std::mt19937_64 engine_;
};

// Exactly std::mt19937_64(seed)'s output sequence, computed lazily — for
// throwaway streams that read only a few outputs (the cost model seeds one
// per link draw). Seeding the standard engine fills its 312-word state and
// the first output twists all of it: 624 multiply-xor steps before anything
// is read. But output k < 156 (state_size − shift_size) of the first twist
// reads only seed-chain words k, k + 1 and k + 156, so this engine extends
// the chain on demand: 157 + k steps for the first k + 1 outputs. From
// output 156 on it hands over to a real std::mt19937_64 advanced past the
// outputs already served, so the sequence is exact at any length.
class mt19937_64_prefix {
    using std_engine = std::mt19937_64;

public:
    using result_type = std_engine::result_type;
    // Outputs served from the lazy seed chain before the hand-over.
    static constexpr std::size_t prefix_outputs =
        std_engine::state_size - std_engine::shift_size;

    explicit mt19937_64_prefix(result_type seed) : seed_(seed) {
        chain_[0] = seed;
        for (std::size_t i = 1; i <= std_engine::shift_size; ++i) extend(i);
    }

    static constexpr result_type min() { return std_engine::min(); }
    static constexpr result_type max() { return std_engine::max(); }

    result_type operator()() {
        if (served_ < prefix_outputs) {
            const std::size_t k = served_++;
            if (k > 0) extend(k + std_engine::shift_size);
            // The first twist's step for word k (mask_bits = r).
            constexpr result_type upper = ~result_type{0} << std_engine::mask_bits;
            const result_type y = (chain_[k] & upper) | (chain_[k + 1] & ~upper);
            return temper(chain_[k + std_engine::shift_size] ^ (y >> 1) ^
                          ((y & 1) != 0 ? std_engine::xor_mask : result_type{0}));
        }
        if (!tail_) {
            tail_.emplace(seed_);
            tail_->discard(prefix_outputs);
        }
        return (*tail_)();
    }

private:
    // Seed-chain word i from word i − 1 (the standard's seed(value) step).
    void extend(std::size_t i) {
        const result_type x = chain_[i - 1];
        chain_[i] = std_engine::initialization_multiplier *
                        (x ^ (x >> (std_engine::word_size - 2))) +
                    i;
    }

    static result_type temper(result_type z) {
        z ^= (z >> std_engine::tempering_u) & std_engine::tempering_d;
        z ^= (z << std_engine::tempering_s) & std_engine::tempering_b;
        z ^= (z << std_engine::tempering_t) & std_engine::tempering_c;
        return z ^ (z >> std_engine::tempering_l);
    }

    result_type seed_;
    std::size_t served_ = 0;
    // Seed-chain words; [0, served_ + shift_size] hold their values.
    std::array<result_type, std_engine::state_size> chain_{};
    std::optional<std_engine> tail_;  // built only past prefix_outputs
};

// Derives independent streams from a master seed by hashing stream names
// (FNV-1a, stable across platforms).
class rng_factory {
public:
    explicit rng_factory(std::uint64_t master_seed) : master_seed_(master_seed) {}

    [[nodiscard]] rng_stream stream(std::string_view name) const {
        return rng_stream(derived_seed(name));
    }

    // The seed `stream(name)` would use — for components that own their RNG
    // (e.g. reseeding a registered scheduler per bidding round) but should
    // still derive determinism from the master seed and a stable name.
    [[nodiscard]] std::uint64_t derived_seed(std::string_view name) const {
        std::uint64_t h = 1469598103934665603ull;  // FNV offset basis
        for (char c : name) {
            h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
            h *= 1099511628211ull;  // FNV prime
        }
        h ^= master_seed_ + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
        return h;
    }

    [[nodiscard]] std::uint64_t master_seed() const noexcept { return master_seed_; }

private:
    std::uint64_t master_seed_;
};

}  // namespace p2pcd::sim

#endif  // P2PCD_SIM_RNG_H
