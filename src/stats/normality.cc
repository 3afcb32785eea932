#include "stats/normality.h"

#include <cmath>

#include "base/check.h"

namespace geodp {

NormalityReport AnalyzeNormality(const std::vector<double>& samples) {
  GEODP_CHECK_GE(samples.size(), 4u);
  NormalityReport report;
  report.count = static_cast<int64_t>(samples.size());
  const double n = static_cast<double>(samples.size());

  double mean = 0.0;
  for (double x : samples) mean += x;
  mean /= n;

  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (double x : samples) {
    const double d = x - mean;
    m2 += d * d;
    m3 += d * d * d;
    m4 += d * d * d * d;
  }
  m2 /= n;
  m3 /= n;
  m4 /= n;
  GEODP_CHECK_GT(m2, 0.0) << "normality analysis needs non-zero variance";

  report.mean = mean;
  report.stddev = std::sqrt(m2);
  report.skewness = m3 / std::pow(m2, 1.5);
  report.excess_kurtosis = m4 / (m2 * m2) - 3.0;
  report.jarque_bera =
      n / 6.0 *
      (report.skewness * report.skewness +
       report.excess_kurtosis * report.excess_kurtosis / 4.0);
  return report;
}

}  // namespace geodp
