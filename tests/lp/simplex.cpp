#include "lp/simplex.h"

#include <cmath>
#include <limits>
#include <vector>

#include "common/contracts.h"
#include "lp/matrix.h"

namespace p2pcd::opt {

namespace {

// Dense tableau state for one solve. Column layout:
//   [0, n)                 structural variables
//   [n, n + n_slack)       slack/surplus columns (one per inequality row)
//   [n + n_slack, total)   artificial columns (one per row; used for the
//                          initial basis of >=/= rows and for dual readout)
class tableau {
public:
    tableau(const lp_model& model, double tol) : tol_(tol) {
        const auto& cons = model.constraints();
        m_ = cons.size();
        n_ = model.num_variables();

        // Count slack columns and assign layout.
        slack_col_.assign(m_, SIZE_MAX);
        std::size_t n_slack = 0;
        for (std::size_t i = 0; i < m_; ++i)
            if (cons[i].rel != relation::equal) slack_col_[i] = n_ + n_slack++;
        art_begin_ = n_ + n_slack;
        art_col_.resize(m_);
        for (std::size_t i = 0; i < m_; ++i) art_col_[i] = art_begin_ + i;
        total_cols_ = n_ + n_slack + m_;

        t_ = matrix(m_, total_cols_);
        b_.assign(m_, 0.0);
        row_sign_.assign(m_, 1.0);
        basis_.assign(m_, SIZE_MAX);

        for (std::size_t i = 0; i < m_; ++i) {
            const auto& c = cons[i];
            double sign = c.rhs < 0.0 ? -1.0 : 1.0;
            row_sign_[i] = sign;
            relation rel = c.rel;
            if (sign < 0.0) {
                if (rel == relation::less_equal) rel = relation::greater_equal;
                else if (rel == relation::greater_equal) rel = relation::less_equal;
            }
            for (const auto& term : c.terms) t_.at(i, term.var) += sign * term.coefficient;
            b_[i] = sign * c.rhs;
            if (slack_col_[i] != SIZE_MAX)
                t_.at(i, slack_col_[i]) = (rel == relation::less_equal) ? 1.0 : -1.0;
            t_.at(i, art_col_[i]) = 1.0;
            // Initial basis: the slack when it enters with +1 (<= rows),
            // otherwise the artificial.
            if (rel == relation::less_equal) basis_[i] = slack_col_[i];
            else basis_[i] = art_col_[i];
        }
    }

    // Runs Bland's-rule simplex with the given per-column costs. Returns false
    // when the problem is unbounded for these costs.
    bool run(const std::vector<double>& cost, bool bar_artificials, std::size_t& pivots,
             std::size_t max_pivots) {
        compute_reduced_costs(cost);
        for (;;) {
            ensures(pivots < max_pivots, "simplex exceeded pivot budget");
            std::size_t enter = SIZE_MAX;
            for (std::size_t j = 0; j < total_cols_; ++j) {
                if (bar_artificials && is_artificial(j)) continue;
                if (r_[j] < -tol_) { enter = j; break; }  // Bland: lowest index
            }
            if (enter == SIZE_MAX) return true;  // optimal

            std::size_t leave_row = SIZE_MAX;
            double best_ratio = std::numeric_limits<double>::infinity();
            for (std::size_t i = 0; i < m_; ++i) {
                double a = t_.at(i, enter);
                if (a > tol_) {
                    double ratio = b_[i] / a;
                    // Bland tie-break: lowest basic-variable index.
                    if (ratio < best_ratio - tol_ ||
                        (ratio < best_ratio + tol_ &&
                         (leave_row == SIZE_MAX || basis_[i] < basis_[leave_row]))) {
                        best_ratio = ratio;
                        leave_row = i;
                    }
                }
            }
            if (leave_row == SIZE_MAX) return false;  // unbounded direction
            pivot(leave_row, enter);
            ++pivots;
        }
    }

    void pivot(std::size_t prow, std::size_t pcol) {
        double p = t_.at(prow, pcol);
        ensures(std::fabs(p) > tol_, "pivot on a (near-)zero element");
        t_.scale_row(prow, 1.0 / p);
        b_[prow] /= p;
        for (std::size_t i = 0; i < m_; ++i) {
            if (i == prow) continue;
            double f = t_.at(i, pcol);
            if (f == 0.0) continue;
            t_.axpy_row(i, prow, -f);
            b_[i] -= f * b_[prow];
            if (std::fabs(b_[i]) < tol_) b_[i] = 0.0;
        }
        double rf = r_[pcol];
        if (rf != 0.0) {
            for (std::size_t j = 0; j < total_cols_; ++j) r_[j] -= rf * t_.at(prow, j);
            // Objective moves by (entering reduced cost) × (pivot ratio); the
            // ratio is b_[prow] after the pivot row was scaled.
            obj_ += rf * b_[prow];
        }
        basis_[prow] = pcol;
    }

    void compute_reduced_costs(const std::vector<double>& cost) {
        r_.assign(total_cols_, 0.0);
        obj_ = 0.0;
        for (std::size_t j = 0; j < total_cols_; ++j) r_[j] = cost[j];
        for (std::size_t i = 0; i < m_; ++i) {
            double cb = cost[basis_[i]];
            if (cb == 0.0) continue;
            for (std::size_t j = 0; j < total_cols_; ++j) r_[j] -= cb * t_.at(i, j);
            obj_ += cb * b_[i];
        }
    }

    // After phase 1: pivot basic artificials out where the row has support on
    // a non-artificial column; rows without support are redundant and harmless
    // (their artificial stays basic at value 0).
    void drive_out_artificials(std::size_t& pivots, std::size_t max_pivots) {
        for (std::size_t i = 0; i < m_; ++i) {
            if (!is_artificial(basis_[i])) continue;
            for (std::size_t j = 0; j < n_slack_end(); ++j) {
                if (std::fabs(t_.at(i, j)) > tol_) {
                    ensures(pivots < max_pivots, "simplex exceeded pivot budget");
                    pivot(i, j);
                    ++pivots;
                    break;
                }
            }
        }
    }

    [[nodiscard]] bool is_artificial(std::size_t col) const noexcept {
        return col >= n_slack_end();
    }
    [[nodiscard]] std::size_t n_slack_end() const noexcept { return art_begin_; }
    [[nodiscard]] std::size_t num_rows() const noexcept { return m_; }
    [[nodiscard]] std::size_t num_structural() const noexcept { return n_; }
    [[nodiscard]] std::size_t total_cols() const noexcept { return total_cols_; }
    [[nodiscard]] double objective() const noexcept { return obj_; }
    [[nodiscard]] double reduced_cost(std::size_t j) const { return r_[j]; }
    [[nodiscard]] std::size_t artificial_col(std::size_t row) const { return art_col_[row]; }
    [[nodiscard]] double row_sign(std::size_t row) const { return row_sign_[row]; }
    [[nodiscard]] std::size_t basis(std::size_t row) const { return basis_[row]; }
    [[nodiscard]] double rhs(std::size_t row) const { return b_[row]; }

private:
    double tol_;
    std::size_t m_ = 0;
    std::size_t n_ = 0;
    std::size_t art_begin_ = 0;
    std::size_t total_cols_ = 0;
    matrix t_;
    std::vector<double> b_;
    std::vector<double> r_;
    double obj_ = 0.0;
    std::vector<std::size_t> basis_;
    std::vector<std::size_t> slack_col_;
    std::vector<std::size_t> art_col_;
    std::vector<double> row_sign_;
};

}  // namespace

lp_solution solve_simplex(const lp_model& model, const simplex_options& options) {
    lp_solution out;
    const bool maximize = model.sense() == objective_sense::maximize;
    tableau tab(model, options.tolerance);
    std::size_t pivots = 0;

    // Phase 1: minimize the sum of artificial variables.
    {
        std::vector<double> cost(tab.total_cols(), 0.0);
        for (std::size_t i = 0; i < tab.num_rows(); ++i) cost[tab.artificial_col(i)] = 1.0;
        bool bounded = tab.run(cost, /*bar_artificials=*/false, pivots, options.max_pivots);
        ensures(bounded, "phase-1 objective is bounded below by construction");
        if (tab.objective() > 1e-7) {
            out.status = solve_status::infeasible;
            return out;
        }
        tab.drive_out_artificials(pivots, options.max_pivots);
    }

    // Phase 2: the real objective (negated when maximizing; solver minimizes).
    {
        std::vector<double> cost(tab.total_cols(), 0.0);
        for (std::size_t v = 0; v < model.num_variables(); ++v)
            cost[v] = maximize ? -model.objective()[v] : model.objective()[v];
        bool bounded = tab.run(cost, /*bar_artificials=*/true, pivots, options.max_pivots);
        if (!bounded) {
            out.status = solve_status::unbounded;
            return out;
        }
    }

    out.status = solve_status::optimal;
    out.primal.assign(model.num_variables(), 0.0);
    for (std::size_t i = 0; i < tab.num_rows(); ++i)
        if (tab.basis(i) < model.num_variables()) out.primal[tab.basis(i)] = tab.rhs(i);
    out.objective = maximize ? -tab.objective() : tab.objective();

    // Shadow prices: y_i = c_B B^{-1} e_i = -reduced_cost(artificial_i) in the
    // minimized problem; undo the row normalization and objective negation.
    out.dual.assign(tab.num_rows(), 0.0);
    for (std::size_t i = 0; i < tab.num_rows(); ++i) {
        double y = -tab.reduced_cost(tab.artificial_col(i));
        y *= tab.row_sign(i);
        if (maximize) y = -y;
        out.dual[i] = y;
    }
    return out;
}

}  // namespace p2pcd::opt
