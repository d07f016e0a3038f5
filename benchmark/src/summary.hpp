// Median and quartiles of a sample set, computed the way Python's
// statistics.median and statistics.quantiles(n=4) compute them, so the
// benchmark's spreads match a reader's own check of its samples.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace tlc::bench {

struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  s.median = n % 2 == 1 ? values[n / 2]
                        : (values[n / 2 - 1] + values[n / 2]) / 2.0;
  if (n == 1) {
    s.q1 = s.q3 = values[0];
    return s;
  }
  // statistics.quantiles(method='exclusive'): cut points at i*(n+1)/4.
  const auto quartile = [&](std::size_t i) {
    std::size_t j = i * (n + 1) / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * (n + 1)) -
                         static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

}  // namespace tlc::bench
