#include "tensor/tensor.h"

#include <algorithm>
#include <sstream>

namespace tablegan {

int64_t ShapeSize(const std::vector<int64_t>& shape) {
  int64_t n = 1;
  for (int64_t d : shape) {
    TABLEGAN_CHECK(d >= 0) << "negative dimension in " << ShapeToString(shape);
    n *= d;
  }
  return n;
}

std::string ShapeToString(const std::vector<int64_t>& shape) {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape.size(); ++i) {
    if (i) os << ", ";
    os << shape[i];
  }
  os << "]";
  return os.str();
}

Tensor::Tensor(std::vector<int64_t> shape)
    : shape_(std::move(shape)),
      data_(static_cast<size_t>(ShapeSize(shape_)), 0.0f) {}

Tensor Tensor::Uninitialized(std::vector<int64_t> shape) {
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.resize(static_cast<size_t>(ShapeSize(t.shape_)));
  return t;
}

void Tensor::ResizeUninitialized(const std::vector<int64_t>& shape) {
  shape_ = shape;  // copy-assign reuses the shape vector's capacity
  data_.resize(static_cast<size_t>(ShapeSize(shape_)));
}

Tensor Tensor::Full(std::vector<int64_t> shape, float value) {
  Tensor t(std::move(shape));
  t.Fill(value);
  return t;
}

Tensor Tensor::FromVector(std::vector<int64_t> shape,
                          std::vector<float> values) {
  TABLEGAN_CHECK(ShapeSize(shape) == static_cast<int64_t>(values.size()))
      << "shape " << ShapeToString(shape) << " does not match "
      << values.size() << " values";
  Tensor t;
  t.shape_ = std::move(shape);
  t.data_.assign(values.begin(), values.end());
  return t;
}

Tensor Tensor::Uniform(std::vector<int64_t> shape, float lo, float hi,
                       Rng* rng) {
  Tensor t(std::move(shape));
  t.FillUniform(lo, hi, rng);
  return t;
}

Tensor Tensor::Normal(std::vector<int64_t> shape, float mean, float stddev,
                      Rng* rng) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Gaussian(mean, stddev));
  }
  return t;
}

Tensor Tensor::Reshaped(std::vector<int64_t> new_shape) const {
  TABLEGAN_CHECK(ShapeSize(new_shape) == size())
      << "cannot reshape " << ShapeToString(shape_) << " to "
      << ShapeToString(new_shape);
  Tensor t = *this;
  t.shape_ = std::move(new_shape);
  return t;
}

void Tensor::Fill(float value) {
  std::fill(data_.begin(), data_.end(), value);
}

void Tensor::FillUniform(float lo, float hi, Rng* rng) {
  for (int64_t i = 0; i < size(); ++i) {
    data_[static_cast<size_t>(i)] =
        static_cast<float>(rng->Uniform(lo, hi));
  }
}

std::string Tensor::DebugString() const {
  std::ostringstream os;
  os << "Tensor" << ShapeToString(shape_) << " {";
  int64_t n = std::min<int64_t>(size(), 8);
  for (int64_t i = 0; i < n; ++i) {
    if (i) os << ", ";
    os << data_[static_cast<size_t>(i)];
  }
  if (size() > n) os << ", ...";
  os << "}";
  return os.str();
}

}  // namespace tablegan
