// Shared infrastructure for the experiment benches: the canonical synthetic
// web, the EasyList stand-in, the train-once classifier every figure reuses
// (cached on disk via ModelZoo), and the kernel-timing harness that reports
// median + min over repetitions and emits machine-readable BENCH_*.json so
// the perf trajectory is tracked across PRs.
#ifndef PERCIVAL_BENCH_BENCH_COMMON_H_
#define PERCIVAL_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/core/model_zoo.h"
#include "src/crawler/dataset.h"
#include "src/filter/engine.h"
#include "src/webgen/ad_network.h"
#include "src/webgen/sitegen.h"

namespace percival {

// The canonical experiment environment shared by the figures.
struct BenchWorld {
  std::vector<AdNetwork> networks;
  std::unique_ptr<SiteGenerator> generator;
  FilterEngine easylist;
};

// listed_fraction < 1 leaves long-tail ad networks outside the list.
BenchWorld MakeBenchWorld(double listed_fraction = 1.0, uint64_t seed = 7,
                          Language language = Language::kEnglish);

// Crawls `sites` x `pages` through the rendering pipeline, labelling frames
// with EasyList, then dedups + balances — the paper's §4.4 data pipeline.
Dataset CrawlTrainingSet(const BenchWorld& world, int sites, int pages, uint64_t seed);

// Returns the shared English experiment-profile model, training it on the
// first call (~30 s) and loading it from the model cache afterwards.
Network SharedTrainedModel(ModelZoo& zoo);

// Convenience: classifier wrapping a copy of the shared model.
AdClassifier MakeSharedClassifier(ModelZoo& zoo);

// Directly sampled (non-crawled) labelled dataset from the generators.
struct SampledDatasetOptions {
  int per_class = 100;
  Language language = Language::kEnglish;
  double cue_dropout = 0.15;
  bool shifted_distribution = false;
  double product_photo_probability = 0.08;
  uint64_t seed = 5;
};
Dataset SampleDataset(const SampledDatasetOptions& options);

// Prints a section header so the combined bench log reads like the paper.
void PrintHeader(const std::string& title);

// ------------------------------------------------- kernel timing harness --

// One benchmark measurement. Wall times are per repetition; medians are
// robust against scheduler noise on shared runners, the min approximates
// the no-interference floor.
struct BenchTiming {
  std::string name;
  int reps = 0;
  double median_ms = 0.0;
  double min_ms = 0.0;
  double gmacs = 0.0;  // GMAC/s at the median rep; 0 for non-MAC kernels
};

// Collects kernel timings and serializes them as BENCH_<tag>.json.
class BenchReport {
 public:
  explicit BenchReport(std::string tag);

  // Runs `fn` once untimed (warmup), then `reps` timed repetitions; records
  // the result and prints one human-readable line. `macs_per_rep` > 0 adds
  // a GMAC/s column computed from the median.
  BenchTiming Run(const std::string& name, int reps, int64_t macs_per_rep,
                  const std::function<void()>& fn);

  // Interleaved A/B for gated pairs: warms both, then alternates blocks of
  // `block` timed reps of A and of B (ABAB...) until each side has `reps`
  // samples, so drift in the host's state lands on both rows alike instead
  // of on whichever ran second. Records A then B, as Run would.
  void RunInterleaved(const std::string& name_a, const std::function<void()>& fn_a,
                      const std::string& name_b, const std::function<void()>& fn_b,
                      int reps, int block, int64_t macs_per_rep);

  // Records an externally measured timing (e.g. fig15's render medians).
  void Record(BenchTiming timing);

  // Writes BENCH_<tag>.json to the current directory (override the
  // directory with $PERCIVAL_BENCH_DIR). Returns the path written, or an
  // empty string on I/O failure.
  std::string WriteJson() const;

  const std::vector<BenchTiming>& timings() const { return timings_; }

 private:
  std::string tag_;
  std::vector<BenchTiming> timings_;
};

}  // namespace percival

#endif  // PERCIVAL_BENCH_BENCH_COMMON_H_
