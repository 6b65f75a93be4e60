// Declarative linear-program builder.
//
// The social-welfare problem (1) in the paper is an integer LP whose relaxation
// is integral (transportation / totally unimodular constraint matrix). The LP
// model here lets tests state problem (1) and its dual (5) literally, solve
// both with the simplex, and check strong duality against the auction output.
#ifndef P2PCD_TESTS_LP_LP_MODEL_H
#define P2PCD_TESTS_LP_LP_MODEL_H

#include <string>
#include <vector>

namespace p2pcd::opt {

enum class relation { less_equal, equal, greater_equal };
enum class objective_sense { minimize, maximize };
enum class solve_status { optimal, infeasible, unbounded };

struct lp_term {
    std::size_t var = 0;
    double coefficient = 0.0;
};

struct lp_constraint {
    std::vector<lp_term> terms;
    relation rel = relation::less_equal;
    double rhs = 0.0;
    std::string name;
};

struct lp_solution {
    solve_status status = solve_status::infeasible;
    double objective = 0.0;
    std::vector<double> primal;  // one per variable
    std::vector<double> dual;    // one per constraint (shadow prices)
};

// All variables are continuous with lower bound 0 (matching the relaxation of
// the paper's binary a-variables). Upper bounds are expressed as constraints.
class lp_model {
public:
    explicit lp_model(objective_sense sense = objective_sense::maximize)
        : sense_(sense) {}

    // Returns the new variable's index.
    std::size_t add_variable(double objective_coefficient, std::string name = {});

    // Returns the new constraint's index.
    std::size_t add_constraint(std::vector<lp_term> terms, relation rel, double rhs,
                               std::string name = {});

    [[nodiscard]] std::size_t num_variables() const noexcept { return objective_.size(); }
    [[nodiscard]] std::size_t num_constraints() const noexcept { return constraints_.size(); }
    [[nodiscard]] objective_sense sense() const noexcept { return sense_; }
    [[nodiscard]] const std::vector<double>& objective() const noexcept { return objective_; }
    [[nodiscard]] const std::vector<lp_constraint>& constraints() const noexcept {
        return constraints_;
    }
    [[nodiscard]] const std::string& variable_name(std::size_t v) const;

    // Objective value of a candidate primal point (no feasibility check).
    [[nodiscard]] double evaluate(const std::vector<double>& x) const;

    // Max constraint violation of a candidate point (0 when feasible).
    [[nodiscard]] double max_violation(const std::vector<double>& x) const;

private:
    objective_sense sense_;
    std::vector<double> objective_;
    std::vector<std::string> names_;
    std::vector<lp_constraint> constraints_;
};

}  // namespace p2pcd::opt

#endif  // P2PCD_TESTS_LP_LP_MODEL_H
