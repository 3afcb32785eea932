// Normality diagnostics used to verify the paper's Theorems 2-3: the
// averaged per-sample gradient (and the averaged direction) of a batch
// approaches a Gaussian as B grows (Lindeberg-Levy CLT). We measure sample
// skewness, excess kurtosis and the Jarque-Bera statistic.

#ifndef GEODP_STATS_NORMALITY_H_
#define GEODP_STATS_NORMALITY_H_

#include <cstdint>
#include <vector>

namespace geodp {

/// Moment-based shape summary of a sample.
struct NormalityReport {
  int64_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double skewness = 0.0;        // ~0 for a Gaussian
  double excess_kurtosis = 0.0; // ~0 for a Gaussian
  double jarque_bera = 0.0;     // ~chi^2(2) under normality; small is normal
};

/// Computes the report. Requires at least 4 samples and non-zero variance.
NormalityReport AnalyzeNormality(const std::vector<double>& samples);

}  // namespace geodp

#endif  // GEODP_STATS_NORMALITY_H_
