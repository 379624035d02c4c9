// Dense double-precision matrix with the small set of operations the
// predictor trainer needs: products, transpose, linear solves, and
// (ridge-regularized) least squares via the normal equations.
//
// The matrices involved are tiny (tens of rows, ~10 columns — the paper's
// Table 4 regression), so a straightforward row-major implementation with
// partial-pivot Gaussian elimination is both adequate and easy to audit.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <iosfwd>
#include <stdexcept>
#include <vector>

namespace sb {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Constructs from nested initializer lists; all rows must be equal length.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  static Matrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  // Defined here so the O(m·n) fills in predict and the SA set-up inline
  // the bounds check instead of paying a call per cell.
  double& at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
  }
  double at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
  }
  double& operator()(std::size_t r, std::size_t c) { return at(r, c); }
  double operator()(std::size_t r, std::size_t c) const { return at(r, c); }

  Matrix transposed() const;
  Matrix operator*(const Matrix& rhs) const;
  Matrix operator+(const Matrix& rhs) const;
  Matrix operator-(const Matrix& rhs) const;
  Matrix& operator*=(double s);
  friend Matrix operator*(double s, Matrix m) { return m *= s; }

  /// Row r as a vector copy.
  std::vector<double> row(std::size_t r) const;

  /// Maximum absolute element; 0 for empty.
  double max_abs() const;

  friend std::ostream& operator<<(std::ostream& os, const Matrix& m);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;  // row-major
};

/// Solves A x = b with partial-pivot Gaussian elimination.
/// Throws std::invalid_argument on shape mismatch, std::runtime_error if A is
/// numerically singular.
std::vector<double> solve_linear(Matrix a, std::vector<double> b);

/// Least squares: minimizes |A x - b|^2 + ridge * |x|^2 via the normal
/// equations (A^T A + ridge I) x = A^T b. `ridge > 0` guards against the
/// rank-deficient feature columns that occur in the paper's Table 4 (e.g.
/// the ITLB column is identically zero for several source core types).
std::vector<double> least_squares(const Matrix& a, const std::vector<double>& b,
                                  double ridge = 1e-9);

/// Dot product helper (sizes must match).
double dot(const std::vector<double>& a, const std::vector<double>& b);

}  // namespace sb
