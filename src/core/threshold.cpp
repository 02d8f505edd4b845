#include "core/threshold.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace manet::core {

CounterThreshold::CounterThreshold(std::vector<int> values)
    : values_(std::move(values)) {
  MANET_EXPECTS(validValues(values_));
  // Drop a redundant repeated tail so equal functions compare equal.
  while (values_.size() > 1 &&
         values_[values_.size() - 1] == values_[values_.size() - 2]) {
    values_.pop_back();
  }
}

bool CounterThreshold::validValues(const std::vector<int>& values) {
  return !values.empty() &&
         std::all_of(values.begin(), values.end(), [](int v) { return v >= 1; });
}

CounterThreshold CounterThreshold::fixed(int c) {
  MANET_EXPECTS(c >= 1);
  return CounterThreshold(std::vector<int>{c});
}

CounterThreshold CounterThreshold::fromDigits(std::string_view digits) {
  MANET_EXPECTS(!digits.empty());
  std::vector<int> values;
  values.reserve(digits.size());
  for (char ch : digits) {
    MANET_EXPECTS(ch >= '1' && ch <= '9');
    values.push_back(ch - '0');
  }
  return CounterThreshold(std::move(values));
}

CounterThreshold CounterThreshold::rampAndDecay(int n1, int n2,
                                                DecayShape shape) {
  MANET_EXPECTS(n1 >= 1);
  MANET_EXPECTS(n2 > n1);
  const int peak = n1 + 1;
  std::vector<int> values;
  values.reserve(static_cast<std::size_t>(n2) + 1);
  for (int n = 1; n <= n1; ++n) values.push_back(n + 1);
  const double span = n2 - n1;
  for (int n = n1 + 1; n <= n2; ++n) {
    const double f = (n - n1) / span;  // 0 .. 1
    double level = 0.0;
    switch (shape) {
      case DecayShape::kLinear:
        level = peak - (peak - 2) * f;
        break;
      case DecayShape::kConvex:
        // Stays near the peak early, drops late.
        level = peak - (peak - 2) * f * f;
        break;
      case DecayShape::kConcave:
        // Drops quickly, then flattens toward 2.
        level = peak - (peak - 2) * std::sqrt(f);
        break;
      case DecayShape::kStep:
        level = (n < n2) ? peak : 2;
        break;
    }
    values.push_back(std::max(2, static_cast<int>(std::lround(level))));
  }
  values.push_back(2);  // n > n2
  return CounterThreshold(std::move(values));
}

CounterThreshold CounterThreshold::suggested() {
  return rampAndDecay(4, 12, DecayShape::kLinear);
}

int CounterThreshold::operator()(int n) const {
  if (n < 1) n = 1;  // C(0) := C(1)
  const std::size_t index =
      std::min<std::size_t>(static_cast<std::size_t>(n) - 1,
                            values_.size() - 1);
  return values_[index];
}

std::string CounterThreshold::toDigits() const {
  std::string out;
  out.reserve(values_.size());
  for (int v : values_) {
    MANET_ASSERT(v <= 9);
    out.push_back(static_cast<char>('0' + v));
  }
  return out;
}

AreaThreshold::AreaThreshold(double low, double high, int n1, int n2)
    : low_(low), high_(high), n1_(n1), n2_(n2) {
  MANET_EXPECTS(valid(low, high, n1, n2));
}

bool AreaThreshold::valid(double low, double high, int n1, int n2) {
  return low >= 0.0 && high >= low && n2 >= n1;
}

AreaThreshold AreaThreshold::fixed(double a) {
  return AreaThreshold(a, a, 0, 0);
}

AreaThreshold AreaThreshold::piecewise(int n1, int n2, double high) {
  MANET_EXPECTS(n1 >= 0);
  MANET_EXPECTS(n2 > n1);
  MANET_EXPECTS(high > 0.0);
  return AreaThreshold(0.0, high, n1, n2);
}

AreaThreshold AreaThreshold::suggested() { return piecewise(6, 12); }

double AreaThreshold::operator()(int n) const {
  if (n2_ == n1_) return high_;  // fixed
  if (n <= n1_) return low_;
  if (n >= n2_) return high_;
  const double f = static_cast<double>(n - n1_) / (n2_ - n1_);
  return low_ + (high_ - low_) * f;
}

}  // namespace manet::core
