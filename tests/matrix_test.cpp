#include "lp/matrix.h"

#include <gtest/gtest.h>

#include "common/contracts.h"

namespace p2pcd::opt {
namespace {

TEST(matrix, constructs_with_fill) {
    matrix m(2, 3, 1.5);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m.at(1, 2), 1.5);
}

TEST(matrix, bounds_are_checked) {
    matrix m(2, 2);
    EXPECT_THROW((void)m.at(2, 0), contract_violation);
    EXPECT_THROW((void)m.at(0, 2), contract_violation);
}

TEST(matrix, row_operations) {
    matrix m(2, 2);
    m.at(0, 0) = 1.0;
    m.at(0, 1) = 2.0;
    m.at(1, 0) = 3.0;
    m.at(1, 1) = 4.0;

    m.swap_rows(0, 1);
    EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);

    m.scale_row(0, 2.0);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 8.0);

    m.axpy_row(1, 0, -1.0);  // row1 -= row0
    EXPECT_DOUBLE_EQ(m.at(1, 0), 1.0 - 6.0);
}

TEST(matrix, transpose_and_multiply) {
    matrix a(2, 3);
    int v = 1;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c) a.at(r, c) = v++;
    auto at = a.transposed();
    EXPECT_EQ(at.rows(), 3u);
    EXPECT_DOUBLE_EQ(at.at(2, 1), a.at(1, 2));

    auto prod = a.multiply(at);  // 2x3 * 3x2 = 2x2
    EXPECT_EQ(prod.rows(), 2u);
    EXPECT_EQ(prod.cols(), 2u);
    EXPECT_DOUBLE_EQ(prod.at(0, 0), 1 + 4 + 9);
    EXPECT_DOUBLE_EQ(prod.at(0, 1), 4 + 10 + 18);
}

TEST(matrix, multiply_dimension_mismatch_throws) {
    matrix a(2, 3);
    matrix b(2, 3);
    EXPECT_THROW((void)a.multiply(b), contract_violation);
}

TEST(matrix, identity_solves_to_rhs) {
    auto id = matrix::identity(3);
    auto x = id.solve({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(x[0], 1.0);
    EXPECT_DOUBLE_EQ(x[2], 3.0);
}

TEST(matrix, solve_linear_system) {
    // 2x + y = 5; x + 3y = 10  ->  x = 1, y = 3
    matrix a(2, 2);
    a.at(0, 0) = 2.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 3.0;
    auto x = a.solve({5.0, 10.0});
    EXPECT_NEAR(x[0], 1.0, 1e-12);
    EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(matrix, solve_requires_pivoting) {
    // Leading zero forces a row swap.
    matrix a(2, 2);
    a.at(0, 0) = 0.0;
    a.at(0, 1) = 1.0;
    a.at(1, 0) = 1.0;
    a.at(1, 1) = 0.0;
    auto x = a.solve({2.0, 7.0});
    EXPECT_NEAR(x[0], 7.0, 1e-12);
    EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(matrix, singular_solve_throws) {
    matrix a(2, 2);
    a.at(0, 0) = 1.0;
    a.at(0, 1) = 2.0;
    a.at(1, 0) = 2.0;
    a.at(1, 1) = 4.0;
    EXPECT_THROW((void)a.solve({1.0, 2.0}), contract_violation);
}

}  // namespace
}  // namespace p2pcd::opt
