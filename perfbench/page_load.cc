// page_load: the paper's Fig. 15 path. Closed loop, one tab: synthetic
// webgen pages rendered back to back by RenderPage in the Chromium
// configuration (no filter list), with the synchronous experiment-profile
// AdClassifier as the interceptor. Each page is rendered with and without
// PERCIVAL, in alternating order, for a paired overhead.
#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "perfbench/deploy.h"
#include "perfbench/workloads.h"
#include "src/renderer/renderer.h"

namespace perfbench {
namespace {

using percival::AdClassifier;
using percival::Bitmap;
using percival::WebPage;

// Distinct pages per run. The ad ecosystem is the canonical bench world
// (the one the experiment model is trained on); the seed picks which of its
// sites and pages are visited, from site indices the training crawl never
// saw.
constexpr int kPages = 384;
constexpr int kFirstSite = 1000;
// Replayed frames (copied in the traced blocks).
constexpr size_t kReplayFrames = 48;
// Block accuracy floor, below the 0.96-0.98 the seed commit reads across
// seeds: it leaves room for a page set with more hard creatives, not for a
// worse classifier.
constexpr double kAccuracyFloor = 0.93;

// Wraps the deployed classifier: counts every frame's decision against
// webgen's ground truth, and in traced blocks records one span per call.
class FrameObserver : public percival::ImageInterceptor {
 public:
  FrameObserver(AdClassifier& inner, Tracer& tracer) : inner_(inner), tracer_(tracer) {}

  void BeginPage(const WebPage* page, uint64_t page_span, uint64_t request, bool traced) {
    page_ = page;
    page_span_ = page_span;
    request_ = request;
    traced_ = traced;
  }

  bool OnDecodedFrame(const percival::ImageInfo& info, Bitmap& pixels,
                      const std::string& source_url) override {
    const int64_t start = traced_ ? NowNs() : 0;
    const bool block = inner_.OnDecodedFrame(info, pixels, source_url);
    if (traced_) {
      const uint64_t span =
          tracer_.Record("core.OnDecodedFrame", page_span_, request_, start, NowNs());
      std::lock_guard<std::mutex> lock(mutex_);
      if (replay_.size() < kReplayFrames) {
        replay_pixels_.push_back(pixels);
        replay_.push_back(ReplayFrame{nullptr, span, request_});
      }
    }
    frames_.fetch_add(1, std::memory_order_relaxed);
    const percival::WebResource* resource = page_->FindResource(source_url);
    if (resource != nullptr) {
      known_.fetch_add(1, std::memory_order_relaxed);
      if (block == resource->is_ad) {
        correct_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    return block;
  }

  // Replay frames with their pixel pointers filled in (valid while *this).
  std::vector<ReplayFrame> TakeReplay() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<ReplayFrame> out = replay_;
    for (size_t i = 0; i < out.size(); ++i) {
      out[i].pixels = &replay_pixels_[i];
    }
    return out;
  }

  int64_t frames() const { return frames_.load(); }
  int64_t known() const { return known_.load(); }
  int64_t correct() const { return correct_.load(); }
  void ResetCounts() {
    frames_ = 0;
    known_ = 0;
    correct_ = 0;
  }

 private:
  AdClassifier& inner_;
  Tracer& tracer_;
  const WebPage* page_ = nullptr;
  uint64_t page_span_ = 0;
  uint64_t request_ = 0;
  bool traced_ = false;
  std::atomic<int64_t> frames_{0};
  std::atomic<int64_t> known_{0};
  std::atomic<int64_t> correct_{0};
  std::mutex mutex_;
  std::vector<ReplayFrame> replay_;        // guarded by mutex_
  std::vector<Bitmap> replay_pixels_;      // guarded by mutex_
};

double Ms(int64_t from, int64_t to) { return static_cast<double>(to - from) * 1e-6; }

}  // namespace

bool RunPageLoad(const RunOptions& options, Report& report, Tracer& tracer) {
  ThreadSplit split;
  split.nproc = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  split.raster = std::max(1, split.nproc / 2);
  split.inference = std::max(1, split.nproc - split.raster);
  RecordHost(report, split);

  SetupTimer setup(percival::ExperimentProfile(), options.artifacts + "/" + kExperimentArtifact,
                   split.inference);
  Deployment deployment = setup.Run(kSetupReps);
  if (!deployment.classifier) {
    return false;
  }
  AdClassifier& classifier = *deployment.classifier;
  GateDeployment(report, classifier);

  // Inputs, generated before timing.
  percival::BenchWorld world = percival::MakeBenchWorld(1.0, 7);
  percival::Rng rng(options.seed);
  std::vector<WebPage> pages;
  pages.reserve(kPages);
  for (int i = 0; i < kPages; ++i) {
    const int site = kFirstSite + static_cast<int>(rng.NextBelow(1u << 20));
    pages.push_back(world.generator->GeneratePage(site, static_cast<int>(rng.NextBelow(16))));
  }

  FrameObserver observer(classifier, tracer);
  percival::RenderOptions with;
  with.raster_threads = split.raster;
  with.interceptor = &observer;
  percival::RenderOptions without = with;
  without.interceptor = nullptr;

  for (int i = 0; i < 2; ++i) {  // warm-up: arenas, pool threads, page-in
    observer.BeginPage(&pages[static_cast<size_t>(i)], 0, 0, false);
    percival::RenderPage(pages[static_cast<size_t>(i)], with);
    percival::RenderPage(pages[static_cast<size_t>(i)], without);
  }
  observer.ResetCounts();

  // Samples by block kind: [0] untraced, [1] traced.
  Samples page_ms[2];
  Samples base_ms[2];
  Samples overhead_ms[2];
  double decode_ms = 0.0;
  int64_t frames_decoded = 0;
  int64_t rendered = 0;
  const percival::ClassifierStats stats_before = classifier.stats();
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(options.seconds * 1e9);
  for (int64_t i = 0; NowNs() < end; ++i) {
    const WebPage& page = pages[static_cast<size_t>(i % kPages)];
    const bool traced = TracedBlock(options, start, NowNs());
    const uint64_t request = static_cast<uint64_t>(i) + 1;
    const uint64_t page_span = traced ? tracer.NewId() : 0;
    observer.BeginPage(&page, page_span, request, traced);
    double with_ms = 0.0;
    double without_ms = 0.0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool percival_on = (leg == 0) == (i % 2 == 0);  // ABBA...
      const int64_t t0 = NowNs();
      const percival::RenderResult result = percival::RenderPage(page, percival_on ? with : without);
      const int64_t t1 = NowNs();
      if (percival_on) {
        with_ms = Ms(t0, t1);
        decode_ms += result.stats.decode_cpu_ms;
        frames_decoded += result.stats.frames_decoded;
        if (traced) {
          tracer.Record("renderer.RenderPage", 0, request, t0, t1, page_span);
        }
      } else {
        without_ms = Ms(t0, t1);
        if (traced) {
          tracer.Record("renderer.RenderPage.base", 0, request, t0, t1);
        }
      }
    }
    page_ms[traced].Add(with_ms);
    base_ms[traced].Add(without_ms);
    overhead_ms[traced].Add(with_ms - without_ms);
    ++rendered;
  }
  const percival::ClassifierStats delta = StatsDelta(classifier.stats(), stats_before);

  // ---- end-to-end (untraced blocks) ----
  AddLatency(report, "page_ms", page_ms[0]);
  const double pages_per_s = 1000.0 / std::max(page_ms[0].Mean(), 1e-9);
  report.E2e("throughput_per_s", "pages_per_s", pages_per_s, "1/s", page_ms[0].size(),
             "PERCIVAL-rendered pages per second of rendering them");
  report.Info("overhead_ms_p50", overhead_ms[0].Quantile(0.5), "ms", overhead_ms[0].size(),
              "median of per-page paired differences, with - without");
  const double accuracy = observer.known() > 0
                              ? static_cast<double>(observer.correct()) /
                                    static_cast<double>(observer.known())
                              : 0.0;
  report.E2e("decision_accuracy", "block_accuracy", accuracy, "share", observer.known(),
             std::to_string(observer.correct()) + "/" + std::to_string(observer.known()) +
                 " decoded frames matching ground truth");
  report.Info("page_base_ms_p50", base_ms[0].Quantile(0.5), "ms", base_ms[0].size());
  report.Info("overhead_share_p50", overhead_ms[0].Quantile(0.5) / base_ms[0].Quantile(0.5),
              "share", overhead_ms[0].size(), "overhead_ms_p50 / page_base_ms_p50");
  report.attempted = rendered;
  report.failed = delta.alloc_failovers;

  // ---- correctness gates ----
  report.AddGate("block_accuracy_floor", accuracy >= kAccuracyFloor,
                 "block_accuracy " + std::to_string(accuracy) + " >= " +
                     std::to_string(kAccuracyFloor));
  report.AddGate("alloc_failovers_zero", delta.alloc_failovers == 0,
                 std::to_string(delta.alloc_failovers) + " fail-open classifications");
  report.AddGate("frames_have_ground_truth", observer.known() == observer.frames(),
                 std::to_string(observer.known()) + "/" + std::to_string(observer.frames()));

  setup.Run(kSetupReps);
  setup.Record(report);

  if (!options.trace) {
    return true;
  }
  // ---- per-layer (traced blocks) ----
  Samples base_all = base_ms[0];
  base_all.Append(base_ms[1]);
  report.Layer("renderer.page_base_ms_p50", base_all.Quantile(0.5), "ms", base_all.size(),
               "paired render without PERCIVAL");
  Samples renderer_self = tracer.SelfTimes("renderer.RenderPage");
  report.Layer("renderer.self_ms_p50", renderer_self.Quantile(0.5), "ms", renderer_self.size(),
               "RenderPage span minus the frames' classify spans");
  const double per_page = 1.0 / static_cast<double>(std::max<int64_t>(rendered, 1));
  report.Layer("renderer.decode_ms_per_page", decode_ms * per_page, "ms", rendered,
               "codec time RenderPage reports, mean per page");
  report.Layer("renderer.frames_per_page", static_cast<double>(frames_decoded) * per_page,
               "count", rendered);

  Samples classify = tracer.Durations("core.OnDecodedFrame");
  AddLayerPercentiles(report, "core.classify_ms", classify);
  std::vector<ReplayFrame> replay = observer.TakeReplay();
  ReplayStages(classifier, replay, tracer, report);
  Samples wait = tracer.MinusChildDurations("core.OnDecodedFrame");
  report.Layer("core.classify_wait_ms_p50", wait.Quantile(0.5), "ms", wait.size(),
               "classify span minus the replayed stage sum");
  report.LayerShare("core.u8_direct_share", delta.u8_direct, delta.classified);
  report.Layer("core.alloc_failovers", static_cast<double>(delta.alloc_failovers), "count",
               delta.classified);
  report.Absent("nn.batch_forward_ms_per_image", "ms");
  AbsentServe(report);
  AddTraceOverhead(report, page_ms[1].Quantile(0.5), page_ms[0].Quantile(0.5),
                   1000.0 / std::max(page_ms[1].Mean(), 1e-9), pages_per_s);
  return true;
}

}  // namespace perfbench
