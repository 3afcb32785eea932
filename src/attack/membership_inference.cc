#include "attack/membership_inference.h"

#include <algorithm>

#include "base/check.h"
#include "nn/loss.h"

namespace geodp {

std::vector<double> PerExampleLosses(Sequential& model,
                                     const InMemoryDataset& dataset,
                                     int64_t max_examples) {
  GEODP_CHECK_GT(dataset.size(), 0);
  const int64_t limit = (max_examples > 0)
                            ? std::min(max_examples, dataset.size())
                            : dataset.size();
  SoftmaxCrossEntropy loss;
  std::vector<double> losses;
  losses.reserve(static_cast<size_t>(limit));
  for (int64_t i = 0; i < limit; ++i) {
    losses.push_back(loss.Forward(model.Forward(dataset.StackImages({i})),
                                  {dataset.label(i)}));
  }
  return losses;
}

double ComputeAuc(const std::vector<double>& member_scores,
                  const std::vector<double>& nonmember_scores) {
  GEODP_CHECK(!member_scores.empty());
  GEODP_CHECK(!nonmember_scores.empty());
  // O(n*m) rank comparison with tie handling; sample sizes here are small.
  double wins = 0.0;
  for (double m : member_scores) {
    for (double n : nonmember_scores) {
      if (m > n) {
        wins += 1.0;
      } else if (m == n) {
        wins += 0.5;
      }
    }
  }
  return wins / (static_cast<double>(member_scores.size()) *
                 static_cast<double>(nonmember_scores.size()));
}

double ComputeAdvantage(const std::vector<double>& member_scores,
                        const std::vector<double>& nonmember_scores) {
  GEODP_CHECK(!member_scores.empty());
  GEODP_CHECK(!nonmember_scores.empty());
  // Sweep thresholds at every distinct score; predict "member" when
  // score >= threshold.
  std::vector<double> thresholds = member_scores;
  thresholds.insert(thresholds.end(), nonmember_scores.begin(),
                    nonmember_scores.end());
  std::sort(thresholds.begin(), thresholds.end());
  thresholds.erase(std::unique(thresholds.begin(), thresholds.end()),
                   thresholds.end());
  double best = 0.0;
  for (double threshold : thresholds) {
    double tpr = 0.0, fpr = 0.0;
    for (double m : member_scores) {
      if (m >= threshold) tpr += 1.0;
    }
    for (double n : nonmember_scores) {
      if (n >= threshold) fpr += 1.0;
    }
    tpr /= static_cast<double>(member_scores.size());
    fpr /= static_cast<double>(nonmember_scores.size());
    best = std::max(best, tpr - fpr);
  }
  return best;
}

MiaResult RunLossThresholdAttack(Sequential& model,
                                 const InMemoryDataset& members,
                                 const InMemoryDataset& nonmembers,
                                 int64_t max_examples_per_side) {
  const std::vector<double> member_losses =
      PerExampleLosses(model, members, max_examples_per_side);
  const std::vector<double> nonmember_losses =
      PerExampleLosses(model, nonmembers, max_examples_per_side);

  // Score = -loss: members are expected to have lower loss.
  std::vector<double> member_scores, nonmember_scores;
  member_scores.reserve(member_losses.size());
  nonmember_scores.reserve(nonmember_losses.size());
  double member_mean = 0.0, nonmember_mean = 0.0;
  for (double l : member_losses) {
    member_scores.push_back(-l);
    member_mean += l;
  }
  for (double l : nonmember_losses) {
    nonmember_scores.push_back(-l);
    nonmember_mean += l;
  }

  MiaResult result;
  result.members = static_cast<int64_t>(member_losses.size());
  result.nonmembers = static_cast<int64_t>(nonmember_losses.size());
  result.mean_member_loss =
      member_mean / static_cast<double>(member_losses.size());
  result.mean_nonmember_loss =
      nonmember_mean / static_cast<double>(nonmember_losses.size());
  result.auc = ComputeAuc(member_scores, nonmember_scores);
  result.advantage = ComputeAdvantage(member_scores, nonmember_scores);
  return result;
}

}  // namespace geodp
