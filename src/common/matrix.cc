#include "common/matrix.h"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

namespace sb {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  rows_ = rows.size();
  cols_ = rows_ ? rows.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    if (r.size() != cols_) throw std::invalid_argument("ragged matrix literal");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m.at(i, i) = 1.0;
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
  return t;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  if (cols_ != rhs.rows_) throw std::invalid_argument("matrix product shape");
  Matrix out(rows_, rhs.cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = at(r, k);
      if (a == 0.0) continue;
      for (std::size_t c = 0; c < rhs.cols_; ++c) {
        out.at(r, c) += a * rhs.at(k, c);
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("matrix sum shape");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  if (rows_ != rhs.rows_ || cols_ != rhs.cols_)
    throw std::invalid_argument("matrix difference shape");
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix& Matrix::operator*=(double s) {
  for (double& v : data_) v *= s;
  return *this;
}

std::vector<double> Matrix::row(std::size_t r) const {
  if (r >= rows_) throw std::out_of_range("Matrix::row");
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

std::ostream& operator<<(std::ostream& os, const Matrix& m) {
  for (std::size_t r = 0; r < m.rows(); ++r) {
    os << (r == 0 ? "[" : " ");
    for (std::size_t c = 0; c < m.cols(); ++c) {
      os << m.at(r, c) << (c + 1 == m.cols() ? "" : ", ");
    }
    os << (r + 1 == m.rows() ? "]" : ";\n");
  }
  return os;
}

std::vector<double> solve_linear(Matrix a, std::vector<double> b) {
  const std::size_t n = a.rows();
  if (a.cols() != n || b.size() != n)
    throw std::invalid_argument("solve_linear shape");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot: bring the largest remaining |entry| to the diagonal.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(a.at(r, col)) > std::abs(a.at(pivot, col))) pivot = r;
    }
    if (std::abs(a.at(pivot, col)) < 1e-300)
      throw std::runtime_error("solve_linear: singular matrix");
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(a.at(pivot, c), a.at(col, c));
      std::swap(b[pivot], b[col]);
    }
    const double inv = 1.0 / a.at(col, col);
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = a.at(r, col) * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a.at(r, c) -= f * a.at(col, c);
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= a.at(ri, c) * x[c];
    x[ri] = acc / a.at(ri, ri);
  }
  return x;
}

std::vector<double> least_squares(const Matrix& a, const std::vector<double>& b,
                                  double ridge) {
  if (a.rows() != b.size()) throw std::invalid_argument("least_squares shape");
  const Matrix at = a.transposed();
  Matrix ata = at * a;
  for (std::size_t i = 0; i < ata.rows(); ++i) ata.at(i, i) += ridge;
  std::vector<double> atb(a.cols(), 0.0);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) atb[c] += a.at(r, c) * b[r];
  return solve_linear(std::move(ata), std::move(atb));
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) throw std::invalid_argument("dot size");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace sb
