#include "perfbench/deploy.h"

#include <algorithm>
#include <filesystem>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "src/core/model_zoo.h"
#include "src/img/resize.h"
#include "src/nn/activation.h"
#include "src/nn/serialize.h"
#include "src/nn/simd.h"
#include "src/nn/tensor.h"
#include "src/webgen/adgen.h"
#include "src/webgen/contentgen.h"

namespace perfbench {
namespace {

using percival::AdClassifier;
using percival::Bitmap;
using percival::Network;
using percival::PercivalNetConfig;

// Fixed calibration batch: the same creatives on every commit, so a change
// to calibration shows up as a change in the artifact hash, not as noise.
constexpr uint64_t kCalibrationSeed = 20200812;

void Calibrate(Network& net, const PercivalNetConfig& config) {
  percival::Rng rng(kCalibrationSeed);
  const std::vector<Creative> creatives = MakeCreatives(rng, 4, 8);
  net.SetTrainingMode(false);
  net.SetCalibrationCapture(true);
  // Chunks of four keep the paper profile's float activations small; the
  // captured ranges accumulate across forwards.
  constexpr int kChunk = 4;
  const int64_t sample = config.InputShape().Elements();
  for (size_t begin = 0; begin < creatives.size(); begin += kChunk) {
    const int count = static_cast<int>(std::min<size_t>(kChunk, creatives.size() - begin));
    percival::Tensor batch(config.InputShape(count));
    for (int i = 0; i < count; ++i) {
      percival::BitmapToTensorInto(creatives[begin + static_cast<size_t>(i)].pixels,
                                   config.input_size, config.input_channels,
                                   batch.data() + i * sample);
    }
    net.Forward(batch);
  }
  net.SetCalibrationCapture(false);
}

}  // namespace

bool PrepareArtifacts(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code error;
  fs::create_directories(dir, error);
  // A fresh model cache: the experiment model is retrained from this
  // commit's code, never loaded from an earlier build's cache.
  const std::string cache = dir + "/model_cache";
  fs::remove_all(cache, error);
  {
    percival::ModelZoo zoo(cache);
    Network experiment = percival::SharedTrainedModel(zoo);
    Calibrate(experiment, percival::ExperimentProfile());
    if (!percival::SaveWeightsToFileInt8(experiment, dir + "/" + kExperimentArtifact)) {
      return false;
    }
  }
  fs::remove_all(cache, error);
  const PercivalNetConfig paper_config = percival::PaperProfile();
  Network paper = percival::BuildPercivalNet(paper_config);
  Calibrate(paper, paper_config);
  return percival::SaveWeightsToFileInt8(paper, dir + "/" + kPaperArtifact);
}

Deployment SetupTimer::Run(int reps) {
  Deployment deployment;
  for (int rep = 0; rep < reps; ++rep) {
    deployment = Deployment{};  // pool first, then the classifier
    const int64_t start = NowNs();
    deployment.classifier =
        std::make_unique<AdClassifier>(percival::BuildPercivalNet(config_), config_);
    const bool loaded = deployment.classifier->LoadWeights(artifact_);
    deployment.pool = std::make_unique<percival::ScopedInferencePool>(pool_threads_);
    seconds_.Add(static_cast<double>(NowNs() - start) * 1e-9);
    if (!loaded) {
      return Deployment{};
    }
  }
  return deployment;
}

void SetupTimer::Record(Report& report) {
  report.E2e("setup_s", "setup_s", seconds_.Quantile(0.5), "s", seconds_.size(),
             "median of set-ups before and after the timed loop");
}

void RecordHost(Report& report, const ThreadSplit& split) {
  report.SetHost("nproc", std::to_string(split.nproc));
  report.SetHost("thread_split", "callers=" + std::to_string(split.callers) +
                                     " raster=" + std::to_string(split.raster) +
                                     " inference_pool=" + std::to_string(split.inference));
  report.SetHost("simd_tier", percival::SimdTierName(percival::ActiveSimdTier()));
  report.SetHost("int8_kernel", percival::ActiveInt8KernelName());
  report.SetHost("float_kernel", percival::ActiveGemmKernelName());
  report.SetHost("cpu_features", percival::CpuFeatureString());
}

void GateDeployment(Report& report, AdClassifier& classifier) {
  const size_t links = classifier.network().RequantLinkCount();
  const bool int8 = classifier.precision() == percival::Precision::kInt8;
  report.AddGate("deployment_configuration",
                 int8 && classifier.u8_direct_active() && links > 0,
                 std::string("int8=") + (int8 ? "yes" : "no") +
                     " u8_direct=" + (classifier.u8_direct_active() ? "yes" : "no") +
                     " requant_links=" + std::to_string(links));
}

void Creative::Stamp(uint64_t id, int variant) {
  const int width = static_cast<int>(stamp_row.size());
  for (int x = 0; x < width; ++x) {
    percival::Color color = stamp_row[static_cast<size_t>(x)];
    if (x < 8) {
      const uint8_t byte = static_cast<uint8_t>(id >> (8 * x));
      color = percival::Color{byte, static_cast<uint8_t>(255 - byte), color.b, 255};
    } else if (variant != 0) {
      const uint8_t jitter = static_cast<uint8_t>((variant * 7 + x) & 3);
      color.r ^= jitter;
      color.g ^= static_cast<uint8_t>(jitter << 1);
    }
    pixels.SetPixel(x, 0, color);
  }
}

std::vector<Creative> MakeCreatives(percival::Rng& rng, int ads_per_slot, int content) {
  std::vector<Creative> creatives;
  for (int slot = 0; slot < 4; ++slot) {
    for (int i = 0; i < ads_per_slot; ++i) {
      percival::Rng local = rng.Fork();
      percival::AdImageOptions options;
      options.slot = static_cast<percival::AdSlotKind>(slot);
      creatives.push_back(Creative{percival::GenerateAdImage(local, options), true, {}});
    }
  }
  for (int i = 0; i < content; ++i) {
    percival::Rng local = rng.Fork();
    percival::ContentImageOptions options;
    options.kind = percival::SampleContentKind(local);
    creatives.push_back(Creative{percival::GenerateContentImage(local, options), false, {}});
  }
  for (Creative& creative : creatives) {
    const int width = std::min(32, creative.pixels.width());
    for (int x = 0; x < width; ++x) {
      creative.stamp_row.push_back(creative.pixels.GetPixel(x, 0));
    }
  }
  return creatives;
}

void ReplayStages(AdClassifier& classifier, const std::vector<ReplayFrame>& frames,
                  Tracer& tracer, Report& report) {
  const PercivalNetConfig& config = classifier.config();
  Network& net = classifier.network();
  float lo = 0.0f;
  float hi = 1.0f;
  net.layer(0).InputCalibration(&lo, &hi);
  const percival::ActivationQuant quant = percival::ComputeActivationQuant(lo, hi);
  const percival::TensorShape shape = config.InputShape();
  std::vector<uint8_t> codes(static_cast<size_t>(shape.Elements()));
  const percival::QuantizedTensorView view{codes.data(), shape, quant.scale, quant.zero_point};
  net.PlanForward(shape);  // the batch-1 plan Classify runs
  if (!frames.empty()) {   // untimed warm-up after the re-plan
    percival::BitmapToTensorU8Into(*frames[0].pixels, config.input_size, config.input_channels,
                                   quant.scale, quant.zero_point, codes.data());
    net.ForwardQuantized(view);
  }

  percival::ResetGemmGatherStats();
  uint64_t allocs = 0;
  for (const ReplayFrame& frame : frames) {
    int64_t t0 = NowNs();
    percival::BitmapToTensorU8Into(*frame.pixels, config.input_size, config.input_channels,
                                   quant.scale, quant.zero_point, codes.data());
    int64_t t1 = NowNs();
    tracer.Record("img.BitmapToTensorU8Into", frame.parent_span, frame.request, t0, t1);

    const uint64_t before = percival::GetTensorAllocStats().constructions;
    t0 = NowNs();
    percival::Tensor logits = net.ForwardQuantized(view);
    t1 = NowNs();
    allocs += percival::GetTensorAllocStats().constructions - before;
    tracer.Record("nn.ForwardQuantized", frame.parent_span, frame.request, t0, t1);

    t0 = NowNs();
    percival::Softmax softmax;
    percival::Tensor probs = softmax.Forward(logits);
    t1 = NowNs();
    tracer.Record("nn.Softmax", frame.parent_span, frame.request, t0, t1);
  }
  const percival::GemmGatherStats gather = percival::GetGemmGatherStats();
  const int64_t n = static_cast<int64_t>(frames.size());
  const double per = n > 0 ? 1.0 / static_cast<double>(n) : 0.0;

  Samples preprocess = tracer.Durations("img.BitmapToTensorU8Into");
  Samples forward = tracer.Durations("nn.ForwardQuantized");
  report.Layer("img.preprocess_ms_p50", preprocess.Quantile(0.5), "ms", preprocess.size(),
               config.name + " profile, " + std::to_string(config.input_size) + "px");
  report.Layer("nn.forward_ms_p50", forward.Quantile(0.5), "ms", forward.size());
  const double forward_ms = forward.Quantile(0.5);
  report.Layer("nn.forward_gmacs",
               forward_ms > 0.0
                   ? static_cast<double>(net.ForwardMacs(shape)) / (forward_ms * 1e6)
                   : 0.0,
               "GMAC/s", forward.size(),
               std::to_string(net.ForwardMacs(shape)) + " MAC per forward at the p50 time");
  report.Layer("nn.bytes_gathered_per_forward", static_cast<double>(gather.bytes_gathered) * per,
               "B", n);
  report.Layer("nn.float_tensor_allocs_per_forward", static_cast<double>(allocs) * per, "count",
               n);
  report.Layer("nn.arena_high_water_bytes", static_cast<double>(gather.arena_high_water_bytes),
               "B", n);
  report.Layer("nn.requant_links", static_cast<double>(net.RequantLinkCount()), "count", 1);
}

void ReplayBatchForward(AdClassifier& classifier, const std::vector<const Bitmap*>& frames,
                        int batch, Report& report) {
  const PercivalNetConfig& config = classifier.config();
  Network& net = classifier.network();
  if (frames.empty()) {
    report.Layer("nn.batch_forward_ms_per_image", 0.0, "ms", 0, "no frames");
    return;
  }
  float lo = 0.0f;
  float hi = 1.0f;
  net.layer(0).InputCalibration(&lo, &hi);
  const percival::ActivationQuant quant = percival::ComputeActivationQuant(lo, hi);
  const percival::TensorShape shape = config.InputShape(batch);
  const int64_t sample = config.InputShape().Elements();
  std::vector<uint8_t> codes(static_cast<size_t>(shape.Elements()));
  for (int i = 0; i < batch; ++i) {
    percival::BitmapToTensorU8Into(*frames[static_cast<size_t>(i) % frames.size()],
                                   config.input_size, config.input_channels, quant.scale,
                                   quant.zero_point, codes.data() + i * sample);
  }
  const percival::QuantizedTensorView view{codes.data(), shape, quant.scale, quant.zero_point};
  net.PlanForward(shape);
  net.ForwardQuantized(view);  // warm-up
  constexpr int kReps = 15;
  Samples per_image;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t t0 = NowNs();
    net.ForwardQuantized(view);
    per_image.Add(static_cast<double>(NowNs() - t0) * 1e-6 / batch);
  }
  net.PlanForward(config.InputShape());
  report.Layer("nn.batch_forward_ms_per_image", per_image.Quantile(0.5), "ms", per_image.size(),
               "batch " + std::to_string(batch) + ", median of forwards");
}

void AbsentRenderer(Report& report) {
  report.Absent("renderer.page_base_ms_p50", "ms");
  report.Absent("renderer.self_ms_p50", "ms");
  report.Absent("renderer.decode_ms_per_page", "ms");
  report.Absent("renderer.frames_per_page", "count");
}

void AbsentServe(Report& report) {
  report.Absent("serve.l1_hit_share", "share");
  report.Absent("serve.coalesced_share", "share");
  report.Absent("serve.evicted", "count");
  report.Absent("serve.near_dup_hits", "count");
  report.Absent("serve.pending_p99", "count");
  report.Absent("serve.drain_ms_p50", "ms");
  report.Absent("serve.frames_per_drain", "count");
  report.Absent("serve.drain_frames_per_busy_s", "1/s");
  report.Absent("serve.deadline_misses", "count");
  report.Absent("serve.degrade_transitions", "count");
}

void AddTraceOverhead(Report& report, double traced_p50_ms, double untraced_p50_ms,
                      double traced_per_s, double untraced_per_s) {
  report.Layer("trace.overhead_latency_ms_p50", traced_p50_ms - untraced_p50_ms, "ms", 2,
               "traced minus untraced blocks of this run");
  report.Layer("trace.overhead_throughput_per_s", traced_per_s - untraced_per_s, "1/s", 2,
               "traced minus untraced blocks of this run");
}

percival::ClassifierStats StatsDelta(const percival::ClassifierStats& after,
                                     const percival::ClassifierStats& before) {
  percival::ClassifierStats d;
  d.classified = after.classified - before.classified;
  d.blocked = after.blocked - before.blocked;
  d.cache_hits = after.cache_hits - before.cache_hits;
  d.cache_misses = after.cache_misses - before.cache_misses;
  d.u8_direct = after.u8_direct - before.u8_direct;
  d.hash_collisions = after.hash_collisions - before.hash_collisions;
  d.near_dup_hits = after.near_dup_hits - before.near_dup_hits;
  d.near_dup_rejects = after.near_dup_rejects - before.near_dup_rejects;
  d.shed = after.shed - before.shed;
  d.coalesced = after.coalesced - before.coalesced;
  d.evicted = after.evicted - before.evicted;
  d.deadline_misses = after.deadline_misses - before.deadline_misses;
  d.degraded_frames = after.degraded_frames - before.degraded_frames;
  d.degrade_transitions = after.degrade_transitions - before.degrade_transitions;
  d.reload_retries = after.reload_retries - before.reload_retries;
  d.alloc_failovers = after.alloc_failovers - before.alloc_failovers;
  d.total_latency_ms = after.total_latency_ms - before.total_latency_ms;
  return d;
}

}  // namespace perfbench
