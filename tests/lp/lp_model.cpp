#include "lp/lp_model.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace p2pcd::opt {

std::size_t lp_model::add_variable(double objective_coefficient, std::string name) {
    objective_.push_back(objective_coefficient);
    if (name.empty()) name = "x" + std::to_string(objective_.size() - 1);
    names_.push_back(std::move(name));
    return objective_.size() - 1;
}

std::size_t lp_model::add_constraint(std::vector<lp_term> terms, relation rel, double rhs,
                                     std::string name) {
    for (const auto& t : terms)
        expects(t.var < objective_.size(), "constraint references unknown variable");
    constraints_.push_back({std::move(terms), rel, rhs, std::move(name)});
    return constraints_.size() - 1;
}

const std::string& lp_model::variable_name(std::size_t v) const {
    expects(v < names_.size(), "variable index out of range");
    return names_[v];
}

double lp_model::evaluate(const std::vector<double>& x) const {
    expects(x.size() == objective_.size(), "point dimension mismatch");
    double obj = 0.0;
    for (std::size_t v = 0; v < x.size(); ++v) obj += objective_[v] * x[v];
    return obj;
}

double lp_model::max_violation(const std::vector<double>& x) const {
    expects(x.size() == objective_.size(), "point dimension mismatch");
    double worst = 0.0;
    for (double xi : x) worst = std::max(worst, -xi);  // x >= 0
    for (const auto& c : constraints_) {
        double lhs = 0.0;
        for (const auto& t : c.terms) lhs += t.coefficient * x[t.var];
        switch (c.rel) {
            case relation::less_equal: worst = std::max(worst, lhs - c.rhs); break;
            case relation::greater_equal: worst = std::max(worst, c.rhs - lhs); break;
            case relation::equal: worst = std::max(worst, std::fabs(lhs - c.rhs)); break;
        }
    }
    return worst;
}

}  // namespace p2pcd::opt
