// Piecewise-linear interpolation over tabulated data (waveform evaluation,
// measurement post-processing).
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/error.hpp"

namespace cnti::numerics {

/// Linear interpolator over strictly increasing abscissae. Clamps outside
/// the table range.
class LinearInterpolator {
 public:
  LinearInterpolator(std::vector<double> x, std::vector<double> y)
      : x_(std::move(x)), y_(std::move(y)) {
    CNTI_EXPECTS(x_.size() == y_.size(), "x/y size mismatch");
    CNTI_EXPECTS(x_.size() >= 2, "need at least two samples");
    for (std::size_t i = 1; i < x_.size(); ++i) {
      CNTI_EXPECTS(x_[i] > x_[i - 1], "abscissae must be strictly increasing");
    }
  }

  double operator()(double x) const {
    if (x <= x_.front()) return y_.front();
    if (x >= x_.back()) return y_.back();
    const auto it = std::upper_bound(x_.begin(), x_.end(), x);
    const std::size_t i = static_cast<std::size_t>(it - x_.begin());
    const double t = (x - x_[i - 1]) / (x_[i] - x_[i - 1]);
    return y_[i - 1] + t * (y_[i] - y_[i - 1]);
  }

  const std::vector<double>& abscissae() const { return x_; }
  const std::vector<double>& ordinates() const { return y_; }

 private:
  std::vector<double> x_;
  std::vector<double> y_;
};

/// First crossing of `level` in sampled signal y(t), linearly interpolated.
/// Returns negative value when the level is never crossed.
inline double first_crossing_time(std::span<const double> t,
                                  std::span<const double> y, double level,
                                  bool rising, double t_start = 0.0) {
  CNTI_EXPECTS(t.size() == y.size(), "t/y size mismatch");
  for (std::size_t i = 1; i < t.size(); ++i) {
    if (t[i] < t_start) continue;
    const bool crossed = rising ? (y[i - 1] < level && y[i] >= level)
                                : (y[i - 1] > level && y[i] <= level);
    if (crossed) {
      const double frac = (level - y[i - 1]) / (y[i] - y[i - 1]);
      return t[i - 1] + frac * (t[i] - t[i - 1]);
    }
  }
  return -1.0;
}

}  // namespace cnti::numerics
