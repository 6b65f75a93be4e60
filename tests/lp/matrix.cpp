#include "lp/matrix.h"

#include <algorithm>
#include <cmath>

#include "common/contracts.h"

namespace p2pcd::opt {

matrix::matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& matrix::at(std::size_t r, std::size_t c) {
    expects(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

double matrix::at(std::size_t r, std::size_t c) const {
    expects(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
}

void matrix::swap_rows(std::size_t a, std::size_t b) {
    expects(a < rows_ && b < rows_, "swap_rows index out of range");
    if (a == b) return;
    for (std::size_t c = 0; c < cols_; ++c)
        std::swap(data_[a * cols_ + c], data_[b * cols_ + c]);
}

void matrix::scale_row(std::size_t r, double factor) {
    expects(r < rows_, "scale_row index out of range");
    for (std::size_t c = 0; c < cols_; ++c) data_[r * cols_ + c] *= factor;
}

void matrix::axpy_row(std::size_t dst, std::size_t src, double factor) {
    expects(dst < rows_ && src < rows_, "axpy_row index out of range");
    for (std::size_t c = 0; c < cols_; ++c)
        data_[dst * cols_ + c] += factor * data_[src * cols_ + c];
}

matrix matrix::transposed() const {
    matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
    return t;
}

matrix matrix::multiply(const matrix& rhs) const {
    expects(cols_ == rhs.rows_, "matrix multiply dimension mismatch");
    matrix out(rows_, rhs.cols_);
    for (std::size_t r = 0; r < rows_; ++r)
        for (std::size_t k = 0; k < cols_; ++k) {
            double a = at(r, k);
            if (a == 0.0) continue;
            for (std::size_t c = 0; c < rhs.cols_; ++c) out.at(r, c) += a * rhs.at(k, c);
        }
    return out;
}

matrix matrix::identity(std::size_t n) {
    matrix id(n, n);
    for (std::size_t i = 0; i < n; ++i) id.at(i, i) = 1.0;
    return id;
}

std::vector<double> matrix::solve(std::vector<double> b) const {
    expects(rows_ == cols_, "solve requires a square matrix");
    expects(b.size() == rows_, "solve rhs dimension mismatch");
    matrix a = *this;
    const std::size_t n = rows_;
    std::vector<std::size_t> perm(n);
    for (std::size_t i = 0; i < n; ++i) perm[i] = i;

    for (std::size_t col = 0; col < n; ++col) {
        // Partial pivoting: pick the largest magnitude in this column.
        std::size_t pivot = col;
        for (std::size_t r = col + 1; r < n; ++r)
            if (std::fabs(a.at(r, col)) > std::fabs(a.at(pivot, col))) pivot = r;
        ensures(std::fabs(a.at(pivot, col)) > 1e-12, "solve on a singular matrix");
        a.swap_rows(col, pivot);
        std::swap(b[col], b[pivot]);
        for (std::size_t r = col + 1; r < n; ++r) {
            double factor = -a.at(r, col) / a.at(col, col);
            if (factor == 0.0) continue;
            a.axpy_row(r, col, factor);
            b[r] += factor * b[col];
        }
    }
    // Back substitution.
    std::vector<double> x(n, 0.0);
    for (std::size_t i = n; i-- > 0;) {
        double acc = b[i];
        for (std::size_t c = i + 1; c < n; ++c) acc -= a.at(i, c) * x[c];
        x[i] = acc / a.at(i, i);
    }
    return x;
}

}  // namespace p2pcd::opt
