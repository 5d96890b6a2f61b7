// Dense row-major host matrix over any multiple-double scalar.  This is
// the *reference* (host/CPU) container; the device algorithms use the
// staged layout in device/staged.hpp.
//
// Shape arguments are validated with thrown std::invalid_argument
// (core/'s convention — asserts would vanish under NDEBUG); per-element
// indices stay asserts on the hot access path.
#pragma once

#include <cassert>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blas/scalar.hpp"

namespace mdlsq::blas {

template <class T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(int rows, int cols)
      : rows_(rows), cols_(cols), a_(checked_size(rows, cols)) {}

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }

  T& operator()(int i, int j) noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return a_[size_t(i) * cols_ + j];
  }
  const T& operator()(int i, int j) const noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return a_[size_t(i) * cols_ + j];
  }
  // The accessor the view-generic kernels read (blas::StagedView::get).
  const T& get(int i, int j) const noexcept { return (*this)(i, j); }

  static Matrix identity(int n) {
    Matrix m(n, n);
    for (int i = 0; i < n; ++i) m(i, i) = T(1.0);
    return m;
  }

  Matrix transposed() const {
    Matrix t(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
      for (int j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
    return t;
  }

  // Conjugate (Hermitian) transpose; equals transposed() for real T.
  Matrix adjoint() const {
    Matrix t(cols_, rows_);
    for (int i = 0; i < rows_; ++i)
      for (int j = 0; j < cols_; ++j) t(j, i) = conj_of((*this)(i, j));
    return t;
  }

  friend bool operator==(const Matrix& a, const Matrix& b) {
    if (a.rows_ != b.rows_ || a.cols_ != b.cols_) return false;
    for (size_t k = 0; k < a.a_.size(); ++k)
      if (!(a.a_[k] == b.a_[k])) return false;
    return true;
  }

 private:
  // Validates BEFORE the storage member allocates (a negative dimension
  // must throw, not wrap around to a huge size_t allocation).
  static size_t checked_size(int rows, int cols) {
    if (rows < 0 || cols < 0)
      throw std::invalid_argument(
          "mdlsq: Matrix dimensions must be non-negative");
    return size_t(rows) * cols;
  }

  int rows_ = 0, cols_ = 0;
  std::vector<T> a_;
};

template <class T>
using Vector = std::vector<T>;

}  // namespace mdlsq::blas
