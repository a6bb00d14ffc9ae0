#include "bench/bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <utility>

#include "src/base/stopwatch.h"
#include "src/crawler/pipeline_crawler.h"
#include "src/nn/gemm.h"
#include "src/train/trainer.h"
#include "src/webgen/adgen.h"
#include "src/webgen/contentgen.h"

namespace percival {

BenchWorld MakeBenchWorld(double listed_fraction, uint64_t seed, Language language) {
  BenchWorld world;
  AdEcosystemConfig ecosystem;
  ecosystem.network_count = 12;
  ecosystem.listed_fraction = listed_fraction;
  ecosystem.seed = seed;
  world.networks = BuildAdNetworks(ecosystem);
  SiteGenConfig site_config;
  site_config.seed = seed * 1000 + 1;
  site_config.language = language;
  world.generator = std::make_unique<SiteGenerator>(site_config, world.networks);
  world.easylist.AddList(BuildSyntheticEasyList(world.networks));
  return world;
}

Dataset CrawlTrainingSet(const BenchWorld& world, int sites, int pages, uint64_t seed) {
  PipelineCrawlConfig crawl;
  crawl.sites = sites;
  crawl.pages_per_site = pages;
  crawl.seed = seed;
  Dataset dataset =
      RunPipelineCrawl(*world.generator, EasyListLabeller(world.easylist), crawl, nullptr);
  dataset.Deduplicate();
  dataset.Balance();
  Rng rng(seed);
  dataset.Shuffle(rng);
  return dataset;
}

Network SharedTrainedModel(ModelZoo& zoo) {
  const PercivalNetConfig profile = ExperimentProfile();
  return zoo.GetOrTrain("shared_english", profile, [&profile](Network& net) {
    // Crawl-labelled training set over a fully listed web (clean labels),
    // augmented with directly sampled imagery for volume.
    BenchWorld world = MakeBenchWorld(1.0, 7);
    Dataset dataset = CrawlTrainingSet(world, 24, 3, 11);
    SampledDatasetOptions sampled;
    sampled.per_class = 150;
    sampled.seed = 13;
    dataset.Append(SampleDataset(sampled));
    Rng rng(3);
    dataset.Shuffle(rng);

    TrainConfig config;
    config.epochs = 14;
    config.batch_size = 24;
    config.sgd.learning_rate = 0.01f;
    config.sgd.lr_decay_every_epochs = 8;
    config.sgd.lr_decay_factor = 0.3f;
    config.verbose = true;
    TrainClassifier(net, profile, dataset, config);
  });
}

AdClassifier MakeSharedClassifier(ModelZoo& zoo) {
  return AdClassifier(SharedTrainedModel(zoo), ExperimentProfile());
}

Dataset SampleDataset(const SampledDatasetOptions& options) {
  Rng rng(options.seed);
  Dataset dataset;
  for (int i = 0; i < options.per_class; ++i) {
    Rng ad_rng = rng.Fork();
    AdImageOptions ad_options;
    ad_options.language = options.language;
    ad_options.cue_dropout = options.cue_dropout;
    ad_options.shifted_distribution = options.shifted_distribution;
    ad_options.slot = static_cast<AdSlotKind>(ad_rng.NextBelow(4));
    LabeledImage ad;
    ad.image = GenerateAdImage(ad_rng, ad_options);
    ad.is_ad = true;
    dataset.Add(std::move(ad));

    Rng content_rng = rng.Fork();
    ContentImageOptions content_options;
    content_options.language = options.language;
    content_options.shifted_distribution = options.shifted_distribution;
    content_options.kind = SampleContentKind(content_rng, options.product_photo_probability);
    LabeledImage content;
    content.image = GenerateContentImage(content_rng, content_options);
    content.is_ad = false;
    dataset.Add(std::move(content));
  }
  return dataset;
}

void PrintHeader(const std::string& title) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==========================================================\n");
}

// ------------------------------------------------- kernel timing harness --

BenchReport::BenchReport(std::string tag) : tag_(std::move(tag)) {}

namespace {

// Appends `count` timed runs of `fn` to `samples`.
void TimeReps(const std::function<void()>& fn, int count, std::vector<double>* samples) {
  for (int i = 0; i < count; ++i) {
    Stopwatch timer;
    fn();
    samples->push_back(timer.ElapsedMs());
  }
}

BenchTiming Summarize(const std::string& name, std::vector<double> samples,
                      int64_t macs_per_rep) {
  const int reps = static_cast<int>(samples.size());
  std::sort(samples.begin(), samples.end());
  BenchTiming timing;
  timing.name = name;
  timing.reps = reps;
  timing.min_ms = samples.front();
  const size_t mid = samples.size() / 2;
  timing.median_ms = samples.size() % 2 == 1
                         ? samples[mid]
                         : 0.5 * (samples[mid - 1] + samples[mid]);
  if (macs_per_rep > 0 && timing.median_ms > 0.0) {
    timing.gmacs = static_cast<double>(macs_per_rep) / (timing.median_ms * 1e6);
  }
  return timing;
}

}  // namespace

BenchTiming BenchReport::Run(const std::string& name, int reps, int64_t macs_per_rep,
                             const std::function<void()>& fn) {
  reps = std::max(reps, 1);
  fn();  // warmup: page in weights, grow arenas, prime caches
  std::vector<double> samples;
  samples.reserve(static_cast<size_t>(reps));
  TimeReps(fn, reps, &samples);
  BenchTiming timing = Summarize(name, std::move(samples), macs_per_rep);
  Record(timing);
  return timing;
}

void BenchReport::RunInterleaved(const std::string& name_a, const std::function<void()>& fn_a,
                                 const std::string& name_b, const std::function<void()>& fn_b,
                                 int reps, int block, int64_t macs_per_rep) {
  reps = std::max(reps, 1);
  block = std::max(block, 1);
  fn_a();  // warmup, as in Run
  fn_b();
  std::vector<double> samples_a;
  std::vector<double> samples_b;
  for (int done = 0; done < reps; done += block) {
    const int count = std::min(block, reps - done);
    TimeReps(fn_a, count, &samples_a);
    TimeReps(fn_b, count, &samples_b);
  }
  Record(Summarize(name_a, std::move(samples_a), macs_per_rep));
  Record(Summarize(name_b, std::move(samples_b), macs_per_rep));
}

void BenchReport::Record(BenchTiming timing) {
  if (timing.gmacs > 0.0) {
    std::printf("%-44s %4d reps  median %9.3f ms  min %9.3f ms  %7.2f GMAC/s\n",
                timing.name.c_str(), timing.reps, timing.median_ms, timing.min_ms,
                timing.gmacs);
  } else {
    std::printf("%-44s %4d reps  median %9.3f ms  min %9.3f ms\n", timing.name.c_str(),
                timing.reps, timing.median_ms, timing.min_ms);
  }
  std::fflush(stdout);
  timings_.push_back(std::move(timing));
}

std::string BenchReport::WriteJson() const {
  std::string dir = ".";
  if (const char* env = std::getenv("PERCIVAL_BENCH_DIR")) {
    dir = env;
  }
  const std::string path = dir + "/BENCH_" + tag_ + ".json";
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return "";
  }
  // "simd"/"simd_int8" are the RUNTIME-selected kernels (cpuid dispatch),
  // so two differently-flagged builds of the same binary on the same host
  // report the same paths; "cpu_features"/"simd_tier" record what the host
  // offered and which ladder rung won. CI diffs these across build flavors.
  out << "{\n  \"bench\": \"" << tag_ << "\",\n  \"simd\": \"" << ActiveGemmKernelName()
      << "\",\n  \"simd_int8\": \"" << ActiveInt8KernelName() << "\",\n  \"cpu_features\": \""
      << CpuFeatureString() << "\",\n  \"simd_tier\": \"" << SimdTierName(ActiveSimdTier())
      << "\",\n  \"results\": [\n";
  for (size_t i = 0; i < timings_.size(); ++i) {
    const BenchTiming& t = timings_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "    {\"name\": \"%s\", \"reps\": %d, \"median_ms\": %.6f, "
                  "\"min_ms\": %.6f, \"gmacs\": %.4f}%s\n",
                  t.name.c_str(), t.reps, t.median_ms, t.min_ms, t.gmacs,
                  i + 1 < timings_.size() ? "," : "");
    out << line;
  }
  out << "  ]\n}\n";
  out.flush();  // surface disk-full/quota failures before reporting success
  return out ? path : "";
}

}  // namespace percival
