// paper_stream: closed loop, one caller plus the inference pool. A stream of
// never-repeated decoded creatives (all four ad slot sizes plus content
// images) goes through AdClassifier::Classify at the 224x224x4 paper
// profile. nn forward and img preprocessing do almost all the work.
#include <algorithm>
#include <cmath>
#include <thread>
#include <vector>

#include "perfbench/deploy.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

using percival::AdClassifier;

// Base creatives; each call stamps a fresh id, so no two calls see the
// same pixels.
constexpr int kAdsPerSlot = 6;
constexpr int kContent = 8;
constexpr size_t kReplayFrames = 32;
// int8 vs float32 reference of the same (dequantized) weights on a fixed
// sample. The seeded paper model calls every creative an ad, so decision
// agreement alone would pass vacuously; the probability must stay close.
constexpr uint64_t kGateSeed = 4242;
constexpr double kProbabilityTolerance = 0.02;

}  // namespace

bool RunPaperStream(const RunOptions& options, Report& report, Tracer& tracer) {
  ThreadSplit split;
  split.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  split.inference = std::max(1, split.nproc - 1);
  RecordHost(report, split);

  const std::string artifact = options.artifacts + "/" + kPaperArtifact;
  SetupTimer setup(percival::PaperProfile(), artifact, split.inference);
  Deployment deployment = setup.Run(kSetupReps);
  if (!deployment.classifier) {
    return false;
  }
  AdClassifier& classifier = *deployment.classifier;
  GateDeployment(report, classifier);

  percival::Rng rng(options.seed);
  std::vector<Creative> creatives = MakeCreatives(rng, kAdsPerSlot, kContent);
  for (int i = 0; i < 3; ++i) {  // warm-up
    classifier.Classify(creatives[static_cast<size_t>(i)].pixels);
  }

  Samples decision_ms[2];
  int64_t correct = 0;
  int64_t decisions = 0;
  std::vector<percival::Bitmap> replay_pixels;
  std::vector<ReplayFrame> replay;
  const percival::ClassifierStats stats_before = classifier.stats();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  for (uint64_t id = 1; NowNs() < end; ++id) {
    Creative& creative = creatives[static_cast<size_t>(rng.NextBelow(creatives.size()))];
    creative.Stamp(id, 0);
    const bool traced = TracedBlock(options, start, NowNs());
    const int64_t t0 = NowNs();
    const percival::ClassifyResult result = classifier.Classify(creative.pixels);
    const int64_t t1 = NowNs();
    decision_ms[traced].Add(static_cast<double>(t1 - t0) * 1e-6);
    if (traced) {
      const uint64_t span = tracer.Record("core.Classify", 0, id, t0, t1);
      if (replay.size() < kReplayFrames) {
        replay_pixels.push_back(creative.pixels);
        replay.push_back(ReplayFrame{nullptr, span, id});
      }
    }
    correct += result.is_ad == creative.is_ad ? 1 : 0;
    ++decisions;
  }
  const percival::ClassifierStats delta = StatsDelta(classifier.stats(), stats_before);

  AddLatency(report, "decision_ms", decision_ms[0]);
  const double per_s = 1000.0 / std::max(decision_ms[0].Mean(), 1e-9);
  report.E2e("throughput_per_s", "decisions_per_s", per_s, "1/s", decision_ms[0].size(),
             "decisions per second of classifying");
  // The seeded paper model calls every creative an ad, so this is the ad
  // share of the stream whatever the code does: reported, not bounded.
  report.Info("stream_accuracy",
              decisions > 0 ? static_cast<double>(correct) / static_cast<double>(decisions) : 0.0,
              "share", decisions,
              std::to_string(correct) + "/" + std::to_string(decisions) +
                  " decisions matching ground truth (seeded, untrained weights)");
  report.attempted = decisions;
  report.failed = delta.alloc_failovers;
  report.AddGate("alloc_failovers_zero", delta.alloc_failovers == 0,
                 std::to_string(delta.alloc_failovers) + " fail-open classifications");

  // int8 deployment vs a float32 reference of the same weights.
  {
    AdClassifier reference(percival::BuildPercivalNet(percival::PaperProfile()),
                           percival::PaperProfile());
    const bool loaded = reference.LoadWeights(artifact);
    reference.SetPrecision(percival::Precision::kFloat32);
    percival::Rng gate_rng(kGateSeed);
    const std::vector<Creative> sample = MakeCreatives(gate_rng, 3, 4);
    double worst = 0.0;
    double sum = 0.0;
    int agree = 0;
    for (const Creative& creative : sample) {
      const percival::ClassifyResult q = classifier.Classify(creative.pixels);
      const percival::ClassifyResult f = reference.Classify(creative.pixels);
      const double dp = std::fabs(static_cast<double>(q.ad_probability - f.ad_probability));
      worst = std::max(worst, dp);
      sum += dp;
      agree += q.is_ad == f.is_ad ? 1 : 0;
    }
    const int64_t n = static_cast<int64_t>(sample.size());
    report.Info("int8_float_max_abs_dp", worst, "probability", n,
                "fixed sample, int8 vs float32 of the same weights");
    // The bounded decision figure on this workload: how closely the int8
    // deployment reproduces the float32 probabilities. Quantization,
    // calibration and int8 kernel numerics move it; the traffic does not.
    report.E2e("decision_accuracy", "int8_fidelity",
               loaded ? 1.0 - sum / static_cast<double>(std::max<int64_t>(n, 1)) : 0.0, "share", n,
               "1 - mean |p_int8 - p_float| over the fixed sample");
    report.AddGate("int8_matches_float_reference", loaded && worst <= kProbabilityTolerance,
                   "max |p_int8 - p_float| " + std::to_string(worst) + " <= " +
                       std::to_string(kProbabilityTolerance) + " over " +
                       std::to_string(sample.size()) + " creatives (" + std::to_string(agree) +
                       " decisions agree)");
  }

  setup.Run(kSetupReps);
  setup.Record(report);

  if (!options.trace) {
    return true;
  }
  AbsentRenderer(report);
  Samples classify = tracer.Durations("core.Classify");
  AddLayerPercentiles(report, "core.classify_ms", classify);
  for (size_t i = 0; i < replay.size(); ++i) {
    replay[i].pixels = &replay_pixels[i];
  }
  ReplayStages(classifier, replay, tracer, report);
  Samples wait = tracer.MinusChildDurations("core.Classify");
  report.Layer("core.classify_wait_ms_p50", wait.Quantile(0.5), "ms", wait.size(),
               "classify span minus the replayed stage sum");
  report.LayerShare("core.u8_direct_share", delta.u8_direct, delta.classified);
  report.Layer("core.alloc_failovers", static_cast<double>(delta.alloc_failovers), "count",
               delta.classified);
  report.Absent("nn.batch_forward_ms_per_image", "ms");
  AbsentServe(report);
  AddTraceOverhead(report, decision_ms[1].Quantile(0.5), decision_ms[0].Quantile(0.5),
                   1000.0 / std::max(decision_ms[1].Mean(), 1e-9), per_s);
  return true;
}

}  // namespace perfbench
