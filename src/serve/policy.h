// Serving policy + observability types shared by every layer of the serving
// stack: the sans-IO ServingEngine (src/serve/engine.h) and the IO-ful
// AdClassifier / AsyncAdClassifier adapters (src/core/classifier.h). This
// header is deliberately leaf-level — bitmap/network/threading types never
// appear — so a host can configure the engine without pulling in our
// runtime.
#ifndef PERCIVAL_SRC_SERVE_POLICY_H_
#define PERCIVAL_SRC_SERVE_POLICY_H_

#include <cstddef>
#include <cstdint>

namespace percival {

struct ClassifyResult {
  bool is_ad = false;
  float ad_probability = 0.0f;
  double latency_ms = 0.0;
};

// Overload-hardening knobs for the serving path. One struct carries every
// policy so a deployment configures the whole degradation ladder in one
// place; the defaults reproduce the paper's semantics (classify everything,
// never block a paint) with generous-but-finite memory bounds.
//
// The ladder, from healthy to degraded:
//   1. admit      — frame queued for off-critical-path classification;
//   2. coalesce   — duplicate of an already queued/in-flight creative:
//                   renders now, classified once (stats().coalesced);
//   3. shed       — pending queue at max_pending (or the
//                   classifier.queue.saturate fault armed): the frame
//                   renders unclassified and is NOT queued — fail-open, the
//                   paper's async contract (stats().shed);
//   4. evict      — memo at max_memo_entries: CLOCK second-chance eviction
//                   keeps the hot set and bounds memory (stats().evicted);
//   5. degrade    — degrade_after_misses consecutive over-deadline drain
//                   batches trip a fail-open state: every uncached frame is
//                   shed without queueing until recover_after_frames frames
//                   have passed, then admission resumes with a clean miss
//                   counter (stats().degraded_frames / degrade_transitions).
struct ServingPolicy {
  // ---- bounded admission ----
  // Pending-queue capacity; a frame arriving with the queue full is shed.
  // 0 = unbounded (pre-hardening behavior).
  size_t max_pending = 256;
  // L1 memo-cache capacity in entries; insertion at capacity evicts via
  // CLOCK second-chance (a hit sets the entry's reference bit; the sweep
  // evicts the first unreferenced entry). 0 = unbounded.
  size_t max_memo_entries = 4096;

  // ---- two-tier memo: L2 perceptual near-duplicate cache ----
  // The L1 memo keys on the exact pixel hash, so the same creative
  // recompressed or resized by a second ad network misses and pays a full
  // forward pass. With near_dup_enabled, an L1 miss additionally probes an
  // L2 cache keyed on the 64-bit AverageHash: any entry within
  // near_dup_hamming bits reuses its decision without inference
  // (stats().near_dup_hits) and promotes the exact hash into L1; a probe
  // that finds nothing close enough counts stats().near_dup_rejects and
  // classifies normally. Off by default — a deployment turns it on after
  // the 64-image near-duplicate accuracy guard (serving_engine_test)
  // passes for its threshold; the guard pins >= 99% agreement between
  // near-dup hits and fresh classification.
  bool near_dup_enabled = false;
  // Max Hamming distance (in AverageHash bits) for an L2 hit. Tighter is
  // safer: 0 accepts only bit-identical perceptual hashes.
  int near_dup_hamming = 6;
  // L2 capacity in entries, CLOCK-evicted like L1. 0 = unbounded.
  size_t max_near_dup_entries = 4096;

  // ---- deadlines ----
  // Soft per-classification deadline: a classification that takes longer
  // still completes (soft — the result is not discarded) but counts a
  // deadline miss, which feeds the degrade ladder. <= 0 disables.
  double classify_deadline_ms = 0.0;
  // Default time budget for a drain when the caller passes none: the drain
  // stops between batches once the budget is spent and leaves the
  // remaining frames queued for the next drain. <= 0 = unlimited.
  double drain_budget_ms = 0.0;

  // ---- graceful degradation ----
  // Consecutive over-deadline drain batches that trip the degrade state.
  // <= 0 disables degradation entirely.
  int degrade_after_misses = 8;
  // Frames observed while degraded before the classifier self-heals and
  // resumes admission.
  int recover_after_frames = 64;

  // ---- reload ----
  // Reload retries after the initial failed attempt, with exponential
  // backoff starting at reload_backoff_ms (doubling each time). The
  // schedule itself lives in the sans-IO engine (caller-supplied time);
  // AdClassifier::LoadWeightsWithRetry drives it with real sleeps.
  int reload_max_retries = 3;
  double reload_backoff_ms = 0.5;
};

struct ClassifierStats {
  int64_t classified = 0;
  int64_t blocked = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  // Classifications whose preprocessing went straight to uint8 codes (the
  // int8 u8-direct path) — no float staging tensor existed for these.
  int64_t u8_direct = 0;
  // Memo lookups whose 64-bit pixel hash matched a cached entry but whose
  // verification hash did not — a genuine collision. The colliding frame is
  // re-classified instead of inheriting the cached decision.
  int64_t hash_collisions = 0;
  // ---- two-tier memo observability ----
  // L1 misses answered by the L2 perceptual cache: a near-duplicate
  // (recompressed/resized) creative reused a memoized decision without a
  // forward pass. Each hit also promotes the exact hash into L1.
  int64_t near_dup_hits = 0;
  // L2 probes that found no entry within the Hamming threshold; the frame
  // went on to classify normally (the safe outcome for a genuinely new
  // creative).
  int64_t near_dup_rejects = 0;
  // ---- overload observability (see ServingPolicy's ladder) ----
  // Frames refused admission (queue full, saturation fault, or degraded):
  // they rendered unclassified and were not queued.
  int64_t shed = 0;
  // Frames whose creative was already queued or in an in-flight drain: they
  // rendered immediately and ride the existing classification.
  int64_t coalesced = 0;
  // Memo entries evicted by the CLOCK sweep to stay under max_memo_entries
  // (L1) / max_near_dup_entries (L2).
  int64_t evicted = 0;
  // Classifications (sync) / drain batches (async) that exceeded the soft
  // classify_deadline_ms.
  int64_t deadline_misses = 0;
  // Frames that arrived while the degrade state was active.
  int64_t degraded_frames = 0;
  // Degrade state changes, entering and leaving each counting one — an even
  // value means the classifier is currently healthy.
  int64_t degrade_transitions = 0;
  // Reload attempts beyond the first in the retry/backoff schedule.
  int64_t reload_retries = 0;
  // Classifications that failed open (not-ad, probability 0) because the
  // forward pass could not allocate scratch memory.
  int64_t alloc_failovers = 0;
  double total_latency_ms = 0.0;
  double MeanLatencyMs() const {
    return classified == 0 ? 0.0 : total_latency_ms / static_cast<double>(classified);
  }
};

}  // namespace percival

#endif  // PERCIVAL_SRC_SERVE_POLICY_H_
