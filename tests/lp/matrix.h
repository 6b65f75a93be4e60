// Small dense row-major matrix used by the LP machinery.
//
// The library's optimization problems are small (the exact solver handles the
// per-slot transportation instances via the network simplex; the dense
// simplex is used on modest LPs for verification), so a straightforward dense
// representation with elementary row operations is the right tool — no
// sparse package needed.
#ifndef P2PCD_TESTS_LP_MATRIX_H
#define P2PCD_TESTS_LP_MATRIX_H

#include <cstddef>
#include <vector>

namespace p2pcd::opt {

class matrix {
public:
    matrix() = default;
    matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
    [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

    [[nodiscard]] double& at(std::size_t r, std::size_t c);
    [[nodiscard]] double at(std::size_t r, std::size_t c) const;

    // Elementary row operations (the building blocks of pivoting).
    void swap_rows(std::size_t a, std::size_t b);
    void scale_row(std::size_t r, double factor);
    // row[dst] += factor * row[src]
    void axpy_row(std::size_t dst, std::size_t src, double factor);

    [[nodiscard]] matrix transposed() const;
    [[nodiscard]] matrix multiply(const matrix& rhs) const;

    [[nodiscard]] static matrix identity(std::size_t n);

    // Solves A·x = b by Gaussian elimination with partial pivoting.
    // Precondition: square and non-singular (throws contract_violation else).
    [[nodiscard]] std::vector<double> solve(std::vector<double> b) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

}  // namespace p2pcd::opt

#endif  // P2PCD_TESTS_LP_MATRIX_H
