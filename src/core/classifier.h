// AdClassifier: the PERCIVAL detection module.
//
// Wraps the CNN behind the ImageInterceptor interface so it can sit at the
// rendering pipeline's decode/raster choke point (§3). Two deployment modes
// from §1.1/§2.2 are provided:
//   * synchronous — classify in the critical path, block before paint;
//   * asynchronous — never delay the current paint: a frame whose
//     classification is not yet memoized renders immediately while its
//     result is computed and cached for subsequent visits.
#ifndef PERCIVAL_SRC_CORE_CLASSIFIER_H_
#define PERCIVAL_SRC_CORE_CLASSIFIER_H_

#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/base/hash.h"
#include "src/base/thread_pool.h"
#include "src/core/model.h"
#include "src/img/bitmap.h"
#include "src/nn/gemm.h"
#include "src/nn/network.h"
#include "src/renderer/image_pipeline.h"
#include "src/serve/engine.h"
#include "src/serve/policy.h"

namespace percival {

// ClassifyResult, ServingPolicy, and ClassifierStats moved to
// src/serve/policy.h (shared with the sans-IO ServingEngine); this header
// re-exports them via the include above.

class AdClassifier : public ImageInterceptor {
 public:
  // Takes ownership of a trained network built from `config`. `threshold`
  // is the ad-probability above which a frame is blocked. The network is
  // switched to eval mode (frozen deployment: forwards retain no backward
  // state); callers that want to keep training it should do so on their own
  // Network copy, or call network().SetTrainingMode(true).
  AdClassifier(Network network, const PercivalNetConfig& config, float threshold = 0.5f);

  // Switches the deployed network between float32 and int8 inference and
  // re-plans the forward workspace. Thread-safe with concurrent Classify().
  void SetPrecision(Precision precision);
  Precision precision() const;

  // Loads a PCVW weight file (either format) into the deployed network.
  // A v2 int8 artifact flips the classifier to int8 inference — its
  // pre-quantized codes feed the pack cache directly (or, for an artifact
  // quantized under a wider clamp than this build supports, the weights
  // requantize locally), so this is THE deployment path for the 4x-smaller
  // shipped model; a v1 float checkpoint restores float32. Returns false
  // (network untouched, mode unchanged) on a missing or corrupt file.
  // Thread-safe with Classify().
  bool LoadWeights(const std::string& path);

  // LoadWeights with retry + exponential backoff per the serving policy:
  // a transiently unreadable or corrupt artifact (an updater mid-write, a
  // torn download) is retried reload_max_retries times, sleeping
  // reload_backoff_ms * 2^k between attempts and counting
  // stats().reload_retries. Every failed attempt leaves the previous good
  // network serving — LoadWeights stages and validates the whole artifact
  // before committing anything — so a permanently corrupt file degrades to
  // "keep classifying with the prior weights", never to a half-loaded
  // model. The retry/backoff SCHEDULE itself lives in the sans-IO
  // ServingEngine (caller-supplied time); this adapter contributes the file
  // reads, the stage-then-commit, and the real sleeps.
  bool LoadWeightsWithRetry(const std::string& path);

  // Installs the serving policy (deadline + reload knobs apply to this
  // classifier; the admission/degrade knobs are read by the async wrapper's
  // own policy). Thread-safe.
  void SetServingPolicy(const ServingPolicy& policy);
  ServingPolicy serving_policy() const;

  // Runs one forward pass on `image` (resized to the profile's input).
  // Thread-safe: the network's forward state is guarded by a mutex, which
  // mirrors one classifier instance shared across raster workers.
  //
  // Failure modes are defined, never undefined: a forward pass that cannot
  // allocate scratch memory fails OPEN (is_ad = false, probability 0,
  // stats().alloc_failovers) — the paper's contract is "never delay the
  // current paint", and an ad slipping through is the recoverable error. A
  // classification exceeding serving_policy().classify_deadline_ms still
  // returns its result but counts stats().deadline_misses.
  ClassifyResult Classify(const Bitmap& image);

  // Classifies `images` in one stacked forward pass. Preprocessing fans out
  // over the inference pool, and the batched GEMM path sees a taller patch
  // matrix (better parallelism + weight-packing amortization) than `size`
  // sequential Classify() calls. Latency is accounted per image (elapsed /
  // batch), so stats().MeanLatencyMs() stays comparable with Classify().
  std::vector<ClassifyResult> ClassifyBatch(const std::vector<const Bitmap*>& images);

  // ImageInterceptor: synchronous blocking decision.
  bool OnDecodedFrame(const ImageInfo& info, Bitmap& pixels,
                      const std::string& source_url) override;

  // Skips classification of tiny decorative images (spacers, icons): the
  // paper's slot sizes start around 100px on the short edge.
  void set_min_dimension(int pixels) { min_dimension_ = pixels; }

  // u8-direct preprocessing: in int8 mode the classifier resizes bitmaps
  // straight to uint8 activation codes (BitmapToTensorU8Into) and feeds the
  // network's first conv through Network::ForwardQuantized — the classify
  // path never materializes the float staging tensor, skips the first
  // conv's MinMaxRange + QuantizeActivations sweeps, and is bit-identical
  // to the float-then-quantize pipeline (the first conv's input calibration
  // pins one shared quantization; [0, 1] — the range BitmapToTensor output
  // always lies in — is installed when the artifact carried none). On by
  // default; the knob exists for A/B measurement and parity tests.
  void set_use_u8_direct(bool enabled);
  bool u8_direct_active() const;

  const PercivalNetConfig& config() const { return config_; }
  Network& network() { return network_; }
  ClassifierStats stats() const;
  void ResetStats();

 private:
  // Recomputes the u8-direct state after a precision or weight change.
  // Caller holds mutex_ (or is the constructor).
  void RefreshU8DirectLocked();

  // The commit half of LoadWeights: stages `bytes` (already read — peek +
  // deserialize the SAME bytes, so a concurrent artifact swap on disk
  // cannot split the version sniff from the payload) and atomically flips
  // the deployed network on success. Returns false with the network
  // untouched on a rejected artifact.
  bool CommitWeightBytes(const std::vector<uint8_t>& bytes);

  // One coherent read of the u8-direct state, taken before preprocessing
  // runs outside the network lock. The quantization is derived from the
  // first conv's LIVE input calibration (InputQuantLocked), never cached,
  // so calibration changes made through network() are always picked up.
  // StaleLocked() re-checks the snapshot once the lock is held: a
  // concurrent SetPrecision/LoadWeights/calibration change between the two
  // points invalidates the prepared codes, and the caller falls back to
  // float preprocessing. Both Classify() and ClassifyBatch() share this
  // protocol so the staleness invariant lives in exactly one place.
  struct U8DirectSnapshot {
    bool active = false;
    float scale = 1.0f;
    int32_t zero_point = 0;
  };
  ActivationQuant InputQuantLocked() const;
  U8DirectSnapshot SnapshotU8Direct() const;
  bool U8SnapshotStaleLocked(const U8DirectSnapshot& snapshot) const;
  QuantizedTensorView MakeU8View(const U8DirectSnapshot& snapshot, const uint8_t* codes,
                                 int batch) const;

  PercivalNetConfig config_;
  Network network_;
  float threshold_;
  Precision precision_ = Precision::kFloat32;
  int min_dimension_ = 0;
  mutable std::mutex mutex_;
  ServingPolicy policy_;
  ClassifierStats stats_;
  // u8-direct state (guarded by mutex_): whether the next classification
  // may preprocess straight to uint8. The input quantization is NOT stored
  // here — it is re-derived from the first conv's calibration per snapshot.
  bool use_u8_direct_ = true;
  bool u8_direct_active_ = false;
};

// Asynchronous deployment wrapper with result memoization (§2.2's
// "classifying images asynchronously... allows for memoization of the
// results"). Keyed by a hash of the decoded pixels, so the same creative
// served under a different URL still hits.
//
// Since the sans-IO refactor this class is a thin ADAPTER over
// ServingEngine (src/serve/engine.h): every piece of serving state — the
// admit/coalesce/shed ladder, the two-tier memo cache with CLOCK eviction,
// drain budgets, the fail-open degrade state — lives in the engine, and
// this wrapper contributes exactly the runtime the engine refuses to own:
// a mutex (the engine is single-owner), the steady clock, retained copies
// of admitted frames (the engine never copies pixels), and ThreadPool
// execution of the batches the engine hands out. Decisions are bit-
// identical to the pre-refactor monolith (test-asserted); under any
// failure the answer stays "render now" — overload can never block a
// paint.
class AsyncAdClassifier : public ImageInterceptor {
 public:
  explicit AsyncAdClassifier(AdClassifier& inner) : inner_(inner) {}

  bool OnDecodedFrame(const ImageInfo& info, Bitmap& pixels,
                      const std::string& source_url) override;

  // Replaces the primary 64-bit pixel hash (tests force collisions with a
  // deliberately weak hash; the seeded verification hash must then keep
  // distinct creatives from sharing one memoized decision).
  using HashFn = uint64_t (*)(const void* data, size_t size);
  void SetPrimaryHashForTest(HashFn fn);

  // Installs the wrapper's serving policy. Applies to admission, eviction,
  // drain budgeting, the near-duplicate tier, and the degrade ladder of
  // THIS wrapper only — the inner classifier's deadline/reload knobs are
  // set through its own SetServingPolicy (deliberately uncoupled: the
  // inner classifier may be shared with a synchronous deployment).
  // Shrinking a memo cap (either tier) evicts down immediately.
  void SetServingPolicy(const ServingPolicy& policy);
  ServingPolicy serving_policy() const;

  // Runs pending classifications (the "async worker" drained between
  // frames); in a browser this happens off the critical path. Pending
  // frames are grouped into ClassifyBatch() calls of `batch_size` (clamped
  // to >= 1); when `pool` is non-null and the drain is unbudgeted, batches
  // are processed by the pool's workers, so one batch preprocesses while
  // another runs its forward pass. Each queued pixel hash is classified
  // exactly once even when frames with the same content arrive while a
  // drain is in flight.
  //
  // `budget_ms` bounds the drain: the budget is checked BETWEEN batches (at
  // least one batch always runs, so a drain always makes progress) and any
  // unprocessed frames stay queued, in order, for the next drain — an
  // overloaded queue never overruns the frame budget it is drained from.
  // budget_ms < 0 (the default) uses ServingPolicy::drain_budget_ms;
  // 0 means unlimited.
  void DrainPending(ThreadPool* pool = nullptr, int batch_size = 16,
                    double budget_ms = -1.0);

  // Observability: memoized entries (per tier), queued frames, and the
  // degrade state.
  int64_t cache_size() const;
  int64_t near_dup_cache_size() const;
  int64_t pending_size() const;
  bool degraded() const;
  // One coherent snapshot: every counter is read under the same lock, so
  // cross-counter invariants (hits + misses == lookups; shed + coalesced <=
  // misses; near_dup_hits + near_dup_rejects == enabled-probe count) hold
  // within a snapshot even while other threads classify.
  ClassifierStats stats() const;

 private:
  // Runs one engine-issued batch through the inner classifier and reports
  // it back. Takes mutex_ internally around the engine calls only — the
  // forward pass itself runs unlocked (the inner classifier has its own
  // network lock), which is what lets pooled batches overlap.
  void RunBatch(const EngineBatch& batch);
  // Logs the engine's degrade transitions (the sans-IO engine never logs —
  // logging timestamps would be a hidden wall-clock read). Caller holds
  // mutex_; `was_degraded` is the state observed before the engine call.
  void LogDegradeTransitionLocked(bool was_degraded);

  AdClassifier& inner_;
  // Guards engine_ and buffers_ (the engine is deliberately not internally
  // synchronized). The engine supports one open drain at a time, so whole
  // drains are serialized by drain_mutex_; frame intake stays concurrent
  // with a running drain (mutex_ is released around each forward pass).
  mutable std::mutex mutex_;
  std::mutex drain_mutex_;
  ServingEngine engine_;
  // Retained pixels for admitted tickets — the buffer-ownership half of
  // the sans-IO contract. Erased when the ticket's batch completes (or
  // kept across drains for a budget-requeued frame). unordered_map node
  // storage keeps each Bitmap address stable while the engine holds its
  // pointer.
  std::unordered_map<uint64_t, Bitmap> buffers_;
};

// Test hook: capacity (bytes) of the calling thread's u8 preprocessing
// code buffer. The buffer is shared by Classify/ClassifyBatch and shrinks
// when the required size drops well below its capacity, so a burst of large
// batches no longer pins peak memory for the life of the thread.
size_t ClassifierCodeBufferCapacity();

}  // namespace percival

#endif  // PERCIVAL_SRC_CORE_CLASSIFIER_H_
