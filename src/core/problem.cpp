#include "core/problem.h"

#include <algorithm>

#include "common/contracts.h"

namespace p2pcd::core {

std::size_t scheduling_problem::add_uploader(peer_id who, std::int32_t capacity) {
    expects(capacity >= 0, "uploader capacity must be non-negative");
    expects(uploaders_.size() < 0xffffffffu, "uploader table exceeds u32");
    uploaders_.push_back({who, capacity});
    return uploaders_.size() - 1;
}

std::size_t scheduling_problem::add_request(peer_id downstream, chunk_id chunk,
                                            double valuation) {
    expects(requests_.size() < 0xffffffffu, "request table exceeds u32");
    requests_.push_back({downstream, chunk, valuation});
    offsets_.push_back(static_cast<std::uint32_t>(cand_uploader_.size()));
    return requests_.size() - 1;
}

void scheduling_problem::add_candidate(std::size_t request, std::size_t uploader,
                                       double cost) {
    expects(request < requests_.size(), "candidate for unknown request");
    expects(uploader < uploaders_.size(), "candidate references unknown uploader");
    if (request + 1 == requests_.size()) {
        // Append to the open (last) row — the builder's fast path.
        append_candidate(uploader, cost);
    } else {
        // Insert at the end of row `request`, shifting the CSR tail: every
        // row boundary after it moves up by one.
        expects(cand_uploader_.size() < 0xffffffffu, "candidate slab exceeds u32");
        const auto at = static_cast<std::ptrdiff_t>(offsets_[request + 1]);
        cand_uploader_.insert(cand_uploader_.begin() + at,
                              static_cast<std::uint32_t>(uploader));
        cand_cost_.insert(cand_cost_.begin() + at, cost);
        for (std::size_t j = request + 1; j <= requests_.size(); ++j) ++offsets_[j];
    }
}

void scheduling_problem::clear() noexcept {
    uploaders_.clear();
    requests_.clear();
    cand_uploader_.clear();
    cand_cost_.clear();
    offsets_.clear();
    offsets_.push_back(0);
}

void scheduling_problem::reserve(std::size_t uploaders, std::size_t requests,
                                 std::size_t candidates) {
    uploaders_.reserve(uploaders);
    requests_.reserve(requests);
    offsets_.reserve(requests + 1);
    cand_uploader_.reserve(candidates);
    cand_cost_.reserve(candidates);
}

bool scheduling_problem::identical_to(const scheduling_problem& other) const noexcept {
    const auto same_bits = [](double a, double b) {
        return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    };
    if (uploaders_.size() != other.uploaders_.size() ||
        requests_.size() != other.requests_.size() ||
        offsets_.size() != other.offsets_.size() ||
        cand_uploader_.size() != other.cand_uploader_.size())
        return false;
    for (std::size_t u = 0; u < uploaders_.size(); ++u)
        if (uploaders_[u].who != other.uploaders_[u].who ||
            uploaders_[u].capacity != other.uploaders_[u].capacity)
            return false;
    for (std::size_t r = 0; r < requests_.size(); ++r)
        if (requests_[r].downstream != other.requests_[r].downstream ||
            requests_[r].chunk != other.requests_[r].chunk ||
            !same_bits(requests_[r].valuation, other.requests_[r].valuation))
            return false;
    if (!std::equal(offsets_.begin(), offsets_.end(), other.offsets_.begin()) ||
        !std::equal(cand_uploader_.begin(), cand_uploader_.end(),
                    other.cand_uploader_.begin()))
        return false;
    for (std::size_t k = 0; k < cand_cost_.size(); ++k)
        if (!same_bits(cand_cost_[k], other.cand_cost_[k])) return false;
    return true;
}

void scheduling_problem::shed() noexcept {
    slab<uploader_info>().swap(uploaders_);
    slab<request_info>().swap(requests_);
    slab<std::uint32_t>().swap(cand_uploader_);
    slab<double>().swap(cand_cost_);
    slab<std::uint32_t>().swap(offsets_);
}

const uploader_info& scheduling_problem::uploader(std::size_t u) const {
    expects(u < uploaders_.size(), "uploader index out of range");
    return uploaders_[u];
}

const request_info& scheduling_problem::request(std::size_t r) const {
    expects(r < requests_.size(), "request index out of range");
    return requests_[r];
}

candidate_range scheduling_problem::candidates(std::size_t r) const {
    expects(r < requests_.size(), "request index out of range");
    return {cand_uploader_.data() + offsets_[r], cand_cost_.data() + offsets_[r],
            static_cast<std::size_t>(offsets_[r + 1] - offsets_[r])};
}

double scheduling_problem::net_value(std::size_t r, std::size_t i) const {
    auto cands = candidates(r);
    expects(i < cands.size(), "candidate ordinal out of range");
    return requests_[r].valuation - cands[i].cost;
}

opt::transportation_instance scheduling_problem::to_transportation() const {
    opt::transportation_instance instance;
    instance.num_sources = requests_.size();
    instance.sink_capacity.reserve(uploaders_.size());
    for (const auto& u : uploaders_) instance.sink_capacity.push_back(u.capacity);
    instance.edges.reserve(cand_uploader_.size());
    for (std::size_t r = 0; r < requests_.size(); ++r)
        for (const auto cand : candidates(r))
            instance.edges.push_back(
                {r, cand.uploader, requests_[r].valuation - cand.cost});
    return instance;
}

std::vector<scheduling_problem::edge_origin_entry> scheduling_problem::edge_origins()
    const {
    std::vector<edge_origin_entry> origins;
    origins.reserve(cand_uploader_.size());
    for (std::size_t r = 0; r < requests_.size(); ++r)
        for (std::size_t i = 0; i < offsets_[r + 1] - offsets_[r]; ++i)
            origins.push_back({r, i});
    return origins;
}

}  // namespace p2pcd::core
