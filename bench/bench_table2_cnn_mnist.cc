// Table II: CNN test accuracy on the MNIST-like dataset under DP vs GeoDP,
// composed with the optimization techniques IS, SUR, AUTO-S and PSAC, at
// two noise levels and two batch sizes, plus GeoDP's large-beta failure
// case.
//
// Scale-down note (see EXPERIMENTS.md): the paper runs d=21840 parameters
// with B up to 16384 and sigma in {10, 1}. DP's per-step noise-to-signal
// ratio scales as sigma*sqrt(d)/B and GeoDP's per-angle direction noise as
// sqrt(d)*beta*pi*sigma/B, so at this repo's scale (d~3.7k, B<=128) the
// equivalent regime is sigma in {8, 2} with bounding factors beta =
// 0.001 (good) / 0.01 (failure case analogous to the paper's beta=0.5).
// Expected shape: GeoDP(beta good) > every DP variant; each technique adds
// a little on top of either method; GeoDP(beta bad) collapses.

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "base/rng.h"
#include "base/simd/dispatch.h"
#include "base/thread_pool.h"
#include "base/timer.h"
#include "common/bench_util.h"
#include "common/peak_rss.h"
#include "models/cnn.h"
#include "models/mlp.h"
#include "stats/table.h"

#ifndef GEODP_GIT_REV
#define GEODP_GIT_REV "unknown"
#endif

namespace geodp {
namespace bench {
namespace {

struct Config {
  std::string label;
  PerturbationMethod method = PerturbationMethod::kDp;
  int64_t batch = 128;
  double beta = 0.05;
  std::string clipper = "flat";
  bool is = false;
  bool sur = false;
};

constexpr int64_t kIterations = 100;
constexpr double kClip = 0.1;
constexpr double kLr = 3.0;
constexpr double kBetaGood = 0.001;
constexpr double kBetaBad = 0.01;

double RunAccuracy(const SplitDataset& data, const Config& config,
                   double sigma) {
  Rng rng(55);
  CnnConfig cnn;
  auto model = MakeCnn(cnn, rng);
  TrainerOptions options;
  options.method = config.method;
  options.batch_size = config.batch;
  options.iterations = kIterations;
  options.learning_rate = kLr;
  options.clip_threshold = kClip;
  options.noise_multiplier = sigma;
  options.beta = config.beta;
  options.clipper = config.clipper;
  options.importance_sampling = config.is;
  options.selective_update = config.sur;
  options.seed = 99;
  DpTrainer trainer(model.get(), &data.train, &data.test, options);
  return trainer.Run().value().test_accuracy;
}

void Run() {
  PrintBanner(
      "Table II (CNN on MNIST: test accuracy of DP vs GeoDP x techniques)",
      "sigma in {10, 1}, B in {8192, 16384}, beta in {0.1, 0.5}, 20 epochs",
      "sigma in {8, 2} (iteration-averaged noise-to-signal matched), B in "
      "{64, 128}, beta in {0.001, 0.01}, 100 iterations, 14x14 synthetic "
      "MNIST");

  const SplitDataset data = MnistLikeSplit(1024, 256, /*seed=*/8);

  // Noise-free reference.
  Config noise_free;
  noise_free.label = "noise-free";
  noise_free.method = PerturbationMethod::kNoiseFree;
  const double reference = RunAccuracy(data, noise_free, 0.0);

  const std::vector<Config> configs = {
      {"DP (B=64)", PerturbationMethod::kDp, 64, kBetaGood, "flat", false,
       false},
      {"DP (B=128)", PerturbationMethod::kDp, 128, kBetaGood, "flat", false,
       false},
      {"DP+IS (B=128)", PerturbationMethod::kDp, 128, kBetaGood, "flat",
       true, false},
      {"DP+SUR (B=128)", PerturbationMethod::kDp, 128, kBetaGood, "flat",
       false, true},
      {"DP+AUTO-S (B=128)", PerturbationMethod::kDp, 128, kBetaGood,
       "AUTO-S", false, false},
      {"DP+PSAC (B=128)", PerturbationMethod::kDp, 128, kBetaGood, "PSAC",
       false, false},
      {"DP+SUR+PSAC (B=128)", PerturbationMethod::kDp, 128, kBetaGood,
       "PSAC", false, true},
      {"GeoDP (B=64, beta=0.001)", PerturbationMethod::kGeoDp, 64, kBetaGood,
       "flat", false, false},
      {"GeoDP (B=128, beta=0.001)", PerturbationMethod::kGeoDp, 128,
       kBetaGood, "flat", false, false},
      {"GeoDP (B=64, beta=0.01)", PerturbationMethod::kGeoDp, 64, kBetaBad,
       "flat", false, false},
      {"GeoDP+IS (B=128)", PerturbationMethod::kGeoDp, 128, kBetaGood,
       "flat", true, false},
      {"GeoDP+SUR (B=128)", PerturbationMethod::kGeoDp, 128, kBetaGood,
       "flat", false, true},
      {"GeoDP+AUTO-S (B=128)", PerturbationMethod::kGeoDp, 128, kBetaGood,
       "AUTO-S", false, false},
      {"GeoDP+PSAC (B=128)", PerturbationMethod::kGeoDp, 128, kBetaGood,
       "PSAC", false, false},
      {"GeoDP+SUR+PSAC (B=128)", PerturbationMethod::kGeoDp, 128, kBetaGood,
       "PSAC", false, true},
  };

  TablePrinter table({"method", "acc @ sigma=8", "acc @ sigma=2"});
  table.AddRow({"noise-free", TablePrinter::Fmt(reference * 100, 2) + "%",
                TablePrinter::Fmt(reference * 100, 2) + "%"});
  for (const Config& config : configs) {
    const double hi = RunAccuracy(data, config, 8.0);
    const double lo = RunAccuracy(data, config, 2.0);
    table.AddRow({config.label, TablePrinter::Fmt(hi * 100, 2) + "%",
                  TablePrinter::Fmt(lo * 100, 2) + "%"});
  }
  PrintTable(table);
}

// ---- Clip-mode timing (ghost vs materialize) ---------------------------
//
// Measures the training-loop throughput and memory footprint of the two
// per-sample clipping paths. The materialized path stages
// O(batch x params) per-sample gradients; ghost clipping stages
// O(batch + activations), so the contrast scales with the parameter
// count. The Table II CNN above is deliberately tiny (~3.7k parameters;
// see the scale-down note), far below where the asymptotics separate, so
// the timing rows run the same training pipeline on an MLP sized to the
// paper's parameter regime (196 -> 768 -> 10, ~158k parameters). There
// the Goodfellow factorization gives per-sample norms from two SumSquares
// per layer — no per-sample gradient is ever formed — while the
// materialized path must write, clip and sum 256 gradients of 158k
// floats each step. Rows land in the --bench_json_out record (schema of
// common/bench_json.h plus peak_rss_mb), which
// scripts/check_bench_regression.py --clip-mode-gate gates in CI.

struct ClipTimingRow {
  std::string name;
  double wall_ms = 0.0;     // per training step
  double steps_per_s = 0.0;
  double peak_rss_mb = 0.0;
};

ClipTimingRow TimeClipMode(const SplitDataset& data,
                           const std::string& clip_mode, int64_t batch,
                           int64_t iterations) {
  Rng rng(55);
  MlpConfig mlp;
  mlp.hidden_dims = {768};
  auto model = MakeMlp(mlp, rng);
  TrainerOptions options;
  options.method = PerturbationMethod::kDp;
  options.clip_mode = clip_mode;
  options.batch_size = batch;
  options.iterations = iterations;
  options.learning_rate = kLr;
  options.clip_threshold = kClip;
  options.noise_multiplier = 2.0;
  options.record_loss_every = 0;
  options.seed = 99;
  DpTrainer trainer(model.get(), &data.train, nullptr, options);
  const Timer timer;
  trainer.Run().value();
  const double seconds = timer.ElapsedSeconds();
  ClipTimingRow row;
  row.name =
      "BM_ClipMode/" + clip_mode + "/mlp768/B" + std::to_string(batch);
  row.wall_ms = seconds * 1e3 / static_cast<double>(iterations);
  row.steps_per_s = static_cast<double>(iterations) / seconds;
  row.peak_rss_mb = PeakRssMb();
  return row;
}

std::vector<ClipTimingRow> RunClipTiming() {
  // A training split large enough for the batch-256 acceptance point.
  const SplitDataset data = MnistLikeSplit(512, 64, /*seed=*/8);
  std::vector<ClipTimingRow> rows;
  TablePrinter table(
      {"config", "ms/step", "steps/s", "peak RSS (MB)"});
  // All ghost rows run before any materialized row: peak RSS is monotone
  // over the process lifetime, so the path expected to use less memory
  // must record every one of its peaks before the materialized path
  // inflates the high-water mark (see common/peak_rss.h).
  for (const char* mode : {"ghost", "materialize"}) {
    for (const int64_t batch : {int64_t{128}, int64_t{256}}) {
      const ClipTimingRow row =
          TimeClipMode(data, mode, batch, /*iterations=*/8);
      table.AddRow({row.name, TablePrinter::Fmt(row.wall_ms, 2),
                    TablePrinter::Fmt(row.steps_per_s, 2),
                    TablePrinter::Fmt(row.peak_rss_mb, 1)});
      rows.push_back(row);
    }
  }
  PrintBanner("Table II addendum (clip-mode throughput: ghost vs "
              "materialized per-sample clipping)",
              "not in the paper; DP-SGD engineering baseline",
              "paper-scale MLP (196->768->10, ~158k params), B in "
              "{128, 256}, 8 DP steps per row, all ghost rows measured "
              "before any materialized row (monotone peak RSS)");
  PrintTable(table);
  return rows;
}

bool WriteClipTimingJson(const std::string& path,
                         const std::vector<ClipTimingRow>& rows) {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    std::fprintf(stderr, "bench_json: cannot open %s\n", path.c_str());
    return false;
  }
  std::fprintf(file,
               "{\"bench\":\"bench_table2_cnn_mnist\",\"git_rev\":\"%s\","
               "\"simd\":\"%s\",\"results\":[",
               GEODP_GIT_REV, SimdTierName(ActiveSimdTier()));
  bool first = true;
  for (const ClipTimingRow& row : rows) {
    std::fprintf(file,
                 "%s{\"name\":\"%s\",\"wall_ms\":%.9g,\"steps_per_s\":%.9g,"
                 "\"threads\":%d,\"peak_rss_mb\":%.9g}",
                 first ? "" : ",", row.name.c_str(), row.wall_ms,
                 row.steps_per_s, GetGlobalThreadCount(), row.peak_rss_mb);
    first = false;
  }
  const bool body_ok = std::fprintf(file, "]}\n") >= 0;
  const bool close_ok = std::fclose(file) == 0;
  if (!body_ok || !close_ok) {
    std::fprintf(stderr, "bench_json: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace
}  // namespace bench
}  // namespace geodp

int main(int argc, char** argv) {
  std::string json_out;
  bool timing_only = false;
  const std::string json_prefix = "--bench_json_out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind(json_prefix, 0) == 0) {
      json_out = arg.substr(json_prefix.size());
    } else if (arg == "--geodp_clip_timing_only") {
      timing_only = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_table2_cnn_mnist "
                   "[--bench_json_out=<path>] [--geodp_clip_timing_only]\n");
      return 1;
    }
  }
  if (!timing_only) geodp::bench::Run();
  // The clip-mode comparison runs whenever machine-readable output was
  // requested (CI's gate) or the accuracy table was skipped.
  if (!json_out.empty() || timing_only) {
    const auto rows = geodp::bench::RunClipTiming();
    if (!json_out.empty() &&
        !geodp::bench::WriteClipTimingJson(json_out, rows)) {
      return 1;
    }
  }
  return 0;
}
