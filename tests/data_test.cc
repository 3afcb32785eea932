// Tests for the data substrate: datasets, synthetic image generation,
// batch samplers and the synthetic gradient dataset.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "base/rng.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "data/gradient_dataset.h"
#include "data/synthetic_images.h"
#include "support/tensor_oracles.h"
#include "tensor/tensor_ops.h"

namespace geodp {
namespace {

TEST(InMemoryDatasetTest, AddAndAccess) {
  InMemoryDataset ds;
  ds.Add(Full({1, 2, 2}, 1.0f), 3);
  ds.Add(Full({1, 2, 2}, 2.0f), 1);
  EXPECT_EQ(ds.size(), 2);
  EXPECT_EQ(ds.label(0), 3);
  EXPECT_EQ(ds.image(1)[0], 2.0f);
}

TEST(InMemoryDatasetTest, StackImagesShape) {
  InMemoryDataset ds;
  for (int i = 0; i < 3; ++i) {
    ds.Add(Full({2, 4, 4}, static_cast<float>(i)), i);
  }
  const Tensor batch = ds.StackImages({2, 0});
  EXPECT_EQ(batch.dim(0), 2);
  EXPECT_EQ(batch.dim(1), 2);
  EXPECT_EQ(batch[0], 2.0f);                 // first stacked image is #2
  EXPECT_EQ(batch[batch.numel() - 1], 0.0f);  // second is #0
}

TEST(InMemoryDatasetTest, GatherLabels) {
  InMemoryDataset ds;
  for (int i = 0; i < 4; ++i) ds.Add(Tensor({1}), i);
  const auto labels = ds.GatherLabels({3, 1});
  EXPECT_EQ(labels, (std::vector<int64_t>{3, 1}));
}

TEST(InMemoryDatasetTest, SplitTail) {
  InMemoryDataset ds;
  for (int i = 0; i < 10; ++i) ds.Add(Tensor({1}), i);
  InMemoryDataset tail = ds.SplitTail(3);
  EXPECT_EQ(ds.size(), 7);
  EXPECT_EQ(tail.size(), 3);
  EXPECT_EQ(tail.label(0), 7);
}

TEST(SyntheticImagesTest, DeterministicForSeed) {
  SyntheticImageOptions options;
  options.num_examples = 20;
  options.seed = 5;
  const InMemoryDataset a = MakeMnistLike(options);
  const InMemoryDataset b = MakeMnistLike(options);
  ASSERT_EQ(a.size(), b.size());
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), b.label(i));
    EXPECT_TRUE(AllClose(a.image(i), b.image(i)));
  }
}

TEST(SyntheticImagesTest, DifferentSeedsDiffer) {
  SyntheticImageOptions options;
  options.num_examples = 5;
  options.seed = 1;
  const InMemoryDataset a = MakeMnistLike(options);
  options.seed = 2;
  const InMemoryDataset b = MakeMnistLike(options);
  EXPECT_FALSE(AllClose(a.image(0), b.image(0)));
}

TEST(SyntheticImagesTest, ShapesAndClassCoverage) {
  SyntheticImageOptions options;
  options.num_examples = 500;
  const InMemoryDataset ds = MakeMnistLike(options);
  EXPECT_EQ(ds.image(0).shape(), (std::vector<int64_t>{1, 14, 14}));
  std::set<int64_t> classes(ds.labels().begin(), ds.labels().end());
  EXPECT_EQ(classes.size(), 10u);
}

TEST(SyntheticImagesTest, CifarLikeIsColor16x16) {
  SyntheticImageOptions options;
  options.num_examples = 4;
  const InMemoryDataset ds = MakeCifarLike(options);
  EXPECT_EQ(ds.image(0).shape(), (std::vector<int64_t>{3, 16, 16}));
}

TEST(SyntheticImagesTest, ClassesAreLinearlySeparableEnough) {
  // Prototype separation sanity check: examples correlate more with their
  // own class prototype (approximated by the class mean) than with other
  // class means on average.
  SyntheticImageOptions options;
  options.num_examples = 600;
  options.pixel_noise = 0.15;
  options.max_shift = 1;
  options.label_noise = 0.0;
  const InMemoryDataset ds = MakeMnistLike(options);
  std::vector<Tensor> means(10, Tensor(ds.image(0).shape()));
  std::vector<int> counts(10, 0);
  for (int64_t i = 0; i < ds.size(); ++i) {
    means[static_cast<size_t>(ds.label(i))].AddInPlace(ds.image(i));
    ++counts[static_cast<size_t>(ds.label(i))];
  }
  for (int k = 0; k < 10; ++k) {
    means[static_cast<size_t>(k)].ScaleInPlace(
        1.0f / static_cast<float>(counts[static_cast<size_t>(k)]));
  }
  int own_wins = 0;
  const int64_t probe = std::min<int64_t>(ds.size(), 100);
  for (int64_t i = 0; i < probe; ++i) {
    double best = -2.0;
    int best_class = -1;
    for (int k = 0; k < 10; ++k) {
      const double sim = CosineSimilarity(ds.image(i), means[static_cast<size_t>(k)]);
      if (sim > best) {
        best = sim;
        best_class = k;
      }
    }
    if (best_class == ds.label(i)) ++own_wins;
  }
  EXPECT_GT(own_wins, 60);  // nearest-class-mean accuracy well above chance
}

TEST(BatchSamplerTest, CoversEveryExampleEachEpoch) {
  BatchSampler sampler(10, 5, /*seed=*/1);
  std::set<int64_t> seen;
  for (int b = 0; b < 2; ++b) {
    for (int64_t i : sampler.NextBatch()) seen.insert(i);
  }
  EXPECT_EQ(seen.size(), 10u);
}

TEST(BatchSamplerTest, BatchSizeExact) {
  BatchSampler sampler(7, 3, /*seed=*/2);
  for (int b = 0; b < 10; ++b) {
    EXPECT_EQ(sampler.NextBatch().size(), 3u);
  }
}

TEST(BatchSamplerTest, NoShuffleIsSequential) {
  BatchSampler sampler(6, 2, /*seed=*/3, /*shuffle=*/false);
  EXPECT_EQ(sampler.NextBatch(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(sampler.NextBatch(), (std::vector<int64_t>{2, 3}));
}

TEST(BatchSamplerTest, NoDuplicatesWhenBatchStraddlesEpochBoundary) {
  // Regression: the sampler used to reshuffle mid-batch when an epoch ran
  // out of indices, so an example drawn from the old permutation's tail
  // could be drawn again from the fresh permutation's head — a duplicate
  // inside one batch, which breaks the sensitivity-C assumption of DP-SGD
  // (a duplicated example contributes its clipped gradient twice). With
  // 10 % 4 != 0 the old code reshuffled inside every third batch.
  for (uint64_t seed = 0; seed < 25; ++seed) {
    BatchSampler sampler(10, 4, seed);
    for (int b = 0; b < 60; ++b) {
      const std::vector<int64_t> batch = sampler.NextBatch();
      ASSERT_EQ(batch.size(), 4u);
      const std::set<int64_t> unique(batch.begin(), batch.end());
      ASSERT_EQ(unique.size(), batch.size())
          << "duplicate index in batch (seed " << seed << ", batch " << b
          << ")";
    }
  }
}

TEST(BatchSamplerTest, DropsShortEpochTailWithoutShuffle) {
  // 5 % 2 != 0: after {0,1} and {2,3} only index 4 remains, which is fewer
  // than a batch — the tail is dropped and the next batch restarts the
  // epoch instead of mixing two permutations.
  BatchSampler sampler(5, 2, /*seed=*/6, /*shuffle=*/false);
  EXPECT_EQ(sampler.NextBatch(), (std::vector<int64_t>{0, 1}));
  EXPECT_EQ(sampler.NextBatch(), (std::vector<int64_t>{2, 3}));
  EXPECT_EQ(sampler.NextBatch(), (std::vector<int64_t>{0, 1}));
}

TEST(BatchSamplerTest, ZeroSizeDatasetYieldsEmptyBatches) {
  BatchSampler sampler(0, 8, 1);
  EXPECT_TRUE(sampler.NextBatch().empty());
  EXPECT_TRUE(sampler.NextBatch().empty());
}

TEST(BatchSamplerTest, ZeroBatchSizeYieldsEmptyBatches) {
  BatchSampler sampler(16, 0, 1);
  EXPECT_TRUE(sampler.NextBatch().empty());
}

TEST(BatchSamplerTest, StateRoundTripContinuesExactSequence) {
  BatchSampler original(50, 8, 33);
  // Advance into the middle of an epoch so the snapshot must carry the
  // permutation and the cursor, not just the generator.
  for (int i = 0; i < 11; ++i) original.NextBatch();
  const BatchSamplerState snapshot = original.ExportState();

  BatchSampler restored(50, 8, 999);  // different seed: state must win
  ASSERT_TRUE(restored.ImportState(snapshot).ok());
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(restored.NextBatch(), original.NextBatch()) << "batch " << i;
  }
}

TEST(PoissonSamplerTest, ZeroSizeDatasetYieldsEmptyBatches) {
  PoissonSampler sampler(0, 0.5, 1);
  EXPECT_TRUE(sampler.NextBatch().empty());
  EXPECT_TRUE(sampler.NextBatch().empty());
}

TEST(PoissonSamplerTest, StateRoundTripContinuesExactSequence) {
  PoissonSampler original(64, 0.2, 33);
  for (int i = 0; i < 7; ++i) original.NextBatch();
  const RngState snapshot = original.ExportState();

  PoissonSampler restored(64, 0.2, 999);
  restored.ImportState(snapshot);
  for (int i = 0; i < 40; ++i) {
    EXPECT_EQ(restored.NextBatch(), original.NextBatch()) << "batch " << i;
  }
}

TEST(PoissonSamplerTest, MeanBatchSizeMatchesRate) {
  PoissonSampler sampler(1000, 0.05, /*seed=*/4);
  double total = 0.0;
  const int rounds = 200;
  for (int r = 0; r < rounds; ++r) {
    total += static_cast<double>(sampler.NextBatch().size());
  }
  EXPECT_NEAR(total / rounds, 50.0, 3.0);
}

TEST(GradientDatasetTest, ConcentratedDatasetProperties) {
  const GradientDataset ds =
      MakeConcentratedGradientDataset(100, 32, 0.05, 0.5, /*seed=*/9);
  EXPECT_EQ(ds.size(), 100);
  EXPECT_EQ(ds.dimension(), 32);
  // Directions concentrate: average pairwise cosine similarity is high.
  double sim = 0.0;
  for (int64_t i = 1; i < 20; ++i) {
    sim += CosineSimilarity(ds.gradient(0), ds.gradient(i));
  }
  EXPECT_GT(sim / 19.0, 0.5);
}

TEST(GradientDatasetTest, AverageClippedNormBound) {
  const GradientDataset ds =
      MakeConcentratedGradientDataset(50, 16, 0.2, 2.0, /*seed=*/10);
  Rng rng(11);
  const Tensor avg = ds.AverageClipped(32, /*clip_threshold=*/0.1, rng);
  EXPECT_LE(avg.L2Norm(), 0.1 + 1e-6);
}

TEST(GradientDatasetTest, HarvestProducesRequestedShape) {
  GradientDatasetOptions options;
  options.num_gradients = 8;
  options.dimension = 64;
  options.training_examples = 32;
  const GradientDataset ds = HarvestGradientDataset(options);
  EXPECT_EQ(ds.size(), 8);
  EXPECT_EQ(ds.dimension(), 64);
  // Gradients are non-trivial.
  for (int64_t i = 0; i < ds.size(); ++i) {
    EXPECT_GT(ds.gradient(i).L2Norm(), 0.0);
  }
}

TEST(GradientDatasetTest, HarvestIsDeterministic) {
  GradientDatasetOptions options;
  options.num_gradients = 3;
  options.dimension = 32;
  options.training_examples = 16;
  const GradientDataset a = HarvestGradientDataset(options);
  const GradientDataset b = HarvestGradientDataset(options);
  for (int64_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(AllClose(a.gradient(i), b.gradient(i)));
  }
}

}  // namespace
}  // namespace geodp
