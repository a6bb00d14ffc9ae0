// The deployment configuration every workload measures, and the helpers the
// workloads share: artifact preparation, the timed set-up, the thread
// split, the creative generator, and the post-loop stage replays.
//
// Deployment configuration: a calibrated int8 v2 artifact (PCVW v2 with a
// calibration trailer) loaded through AdClassifier::LoadWeights, which
// switches the classifier to int8 with u8-direct preprocessing, the auto
// kernel planner and the zero-float (requantize-in-epilogue) plan — all
// library defaults, none set by the benchmark.
#ifndef PERCIVAL_PERFBENCH_DEPLOY_H_
#define PERCIVAL_PERFBENCH_DEPLOY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/report.h"
#include "perfbench/trace.h"
#include "src/base/rng.h"
#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/img/bitmap.h"
#include "src/nn/gemm.h"

namespace perfbench {

// Artifact file names inside the artifact directory.
inline constexpr const char* kExperimentArtifact = "experiment.int8.pcvw";
inline constexpr const char* kPaperArtifact = "paper.int8.pcvw";

// Trains the experiment-profile model with the shared SharedTrainedModel
// recipe in a fresh model cache, builds the paper-profile model from its
// seeded initialisation, calibrates both on a fixed batch of creatives and
// writes both as calibrated int8 v2 artifacts into `dir`. Returns false on
// an I/O failure.
bool PrepareArtifacts(const std::string& dir);

// Threads the workload may use: never more than nproc in total.
struct ThreadSplit {
  int nproc = 1;
  int raster = 0;     // RenderPage raster workers (page_load only)
  int inference = 1;  // the inference pool
  int callers = 1;    // benchmark threads calling into the program
};

// A deployed classifier and the inference pool it runs on.
struct Deployment {
  std::unique_ptr<percival::AdClassifier> classifier;
  std::unique_ptr<percival::ScopedInferencePool> pool;
};

// Times what a browser pays at start: classifier construction, LoadWeights
// on the artifact (which runs the first PlanForward) and starting the
// inference pool. A workload sets up half its repetitions before the timed
// loop and half after it, so setup_s, their median, spans the whole run
// rather than one moment of a shared host.
class SetupTimer {
 public:
  SetupTimer(percival::PercivalNetConfig config, std::string artifact, int pool_threads)
      : config_(std::move(config)), artifact_(std::move(artifact)), pool_threads_(pool_threads) {}

  // Sets up `reps` times; returns the last deployment, or an empty one when
  // the artifact fails to load.
  Deployment Run(int reps);
  // Records setup_s over every set-up run so far.
  void Record(Report& report);

 private:
  percival::PercivalNetConfig config_;
  std::string artifact_;
  int pool_threads_ = 1;
  Samples seconds_;
};

// Records the host: nproc, the thread split, the SIMD tier, the int8 and
// float kernels and the CPU features.
void RecordHost(Report& report, const ThreadSplit& split);

// Deployment-configuration gate: u8-direct active and a zero-float plan
// with at least one requantize link.
void GateDeployment(Report& report, percival::AdClassifier& classifier);

// A decoded creative with its ground truth. Stamping rewrites a small fixed
// pixel region (the first row's first 32 pixels) as a pure function of
// (id, variant), so one base bitmap serves as any number of distinct
// creatives: a new id changes the exact pixel hash, a non-zero variant adds
// a slight jitter (a re-encode of the same creative).
struct Creative {
  percival::Bitmap pixels;
  bool is_ad = false;
  std::vector<percival::Color> stamp_row;  // original stamp-region pixels

  void Stamp(uint64_t id, int variant);
};

// `ads_per_slot` ads of each of the four slot sizes, then `content` content
// images, in that order, generated from `rng`.
std::vector<Creative> MakeCreatives(percival::Rng& rng, int ads_per_slot, int content);

// Post-loop replays of the classify stages on frames the timed loop saw:
// BitmapToTensorU8Into (img), Network::ForwardQuantized (nn) and Softmax
// (nn), one span each, parented to the span of the call that classified
// the frame. Also measures the nn counters over the forward replays.
struct ReplayFrame {
  const percival::Bitmap* pixels = nullptr;
  uint64_t parent_span = 0;
  uint64_t request = 0;
};
void ReplayStages(percival::AdClassifier& classifier, const std::vector<ReplayFrame>& frames,
                  Tracer& tracer, Report& report);

// Replays Network::ForwardQuantized at `batch` images per forward and
// records nn.batch_forward_ms_per_image.
void ReplayBatchForward(percival::AdClassifier& classifier,
                        const std::vector<const percival::Bitmap*>& frames, int batch,
                        Report& report);

// Per-layer metrics of layers a workload never calls: reported as 0.
void AbsentRenderer(Report& report);
void AbsentServe(Report& report);

// Tracing overhead: traced minus untraced blocks of the traced run.
void AddTraceOverhead(Report& report, double traced_p50_ms, double untraced_p50_ms,
                      double traced_per_s, double untraced_per_s);

// ClassifierStats difference (after - before), counter by counter.
percival::ClassifierStats StatsDelta(const percival::ClassifierStats& after,
                                     const percival::ClassifierStats& before);

}  // namespace perfbench

#endif  // PERCIVAL_PERFBENCH_DEPLOY_H_
