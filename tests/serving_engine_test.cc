// Sans-IO serving engine coverage.
//
// The engine half runs entirely on a FAKE clock with caller-owned buffers
// and fabricated classification results — if any of these tests needed a
// real thread, file, or wall-clock read to pass, the sans-IO contract would
// be broken. The adapter half pins bit-identical decisions between a
// caller-driven engine loop and AsyncAdClassifier, and the near-duplicate
// accuracy guard that gates ServingPolicy::near_dup_enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/core/classifier.h"
#include "src/core/model.h"
#include "src/img/bitmap.h"
#include "src/img/phash.h"
#include "src/img/resize.h"
#include "src/serve/engine.h"
#include "src/webgen/adgen.h"
#include "src/webgen/contentgen.h"

namespace percival {
namespace {

constexpr int64_t kMs = 1'000'000;

// Deterministic distinct bitmaps (same scheme as the robustness suite):
// unique ids <=> unique pixel hashes, with the id stamped into pixel (0,0).
Bitmap MakeBitmap(int id) {
  Bitmap bitmap(16, 12);
  for (int y = 0; y < bitmap.height(); ++y) {
    for (int x = 0; x < bitmap.width(); ++x) {
      bitmap.SetPixel(x, y,
                      Color{static_cast<uint8_t>((id * 37 + x) & 0xff),
                            static_cast<uint8_t>((id * 101 + y) & 0xff),
                            static_cast<uint8_t>(id & 0xff), 255});
    }
  }
  bitmap.SetPixel(0, 0,
                  Color{static_cast<uint8_t>(id & 0xff), static_cast<uint8_t>((id >> 8) & 0xff),
                        static_cast<uint8_t>((id >> 16) & 0xff), 255});
  return bitmap;
}

// 64x64 bitmap of 8x8 pure black/white blocks, block i = bit i of `bits`.
// AverageHash downsamples exactly one block per output cell, so for a mixed
// pattern (some blocks of each color) flipping k blocks moves the two
// images' perceptual hashes exactly k Hamming bits apart — each test
// asserts that distance explicitly before relying on it.
Bitmap MakeBlockBitmap(uint64_t bits) {
  Bitmap bitmap(64, 64);
  for (int y = 0; y < 64; ++y) {
    for (int x = 0; x < 64; ++x) {
      const int block = (y / 8) * 8 + (x / 8);
      const uint8_t v = ((bits >> block) & 1) ? 255 : 0;
      bitmap.SetPixel(x, y, Color{v, v, v, 255});
    }
  }
  return bitmap;
}

// Small deterministic per-pixel jitter (+/- 3 per channel): models the same
// creative re-encoded by a second ad network. Empirically moves TestProfile
// AverageHash by 0-8 bits on webgen creatives.
Bitmap Jitter(const Bitmap& source, int seed) {
  Bitmap out(source.width(), source.height());
  for (int y = 0; y < source.height(); ++y) {
    for (int x = 0; x < source.width(); ++x) {
      Color c = source.GetPixel(x, y);
      uint8_t* channels[3] = {&c.r, &c.g, &c.b};
      for (int k = 0; k < 3; ++k) {
        const int d = ((x * 7 + y * 13 + seed * 31 + k) % 7) - 3;
        const int v = std::clamp(static_cast<int>(*channels[k]) + d, 0, 255);
        *channels[k] = static_cast<uint8_t>(v);
      }
      out.SetPixel(x, y, c);
    }
  }
  return out;
}

// Downscale to 90% and back: the "same creative served at a slightly
// different slot size" near-duplicate.
Bitmap ResizeRoundTrip(const Bitmap& source) {
  const int w = std::max(1, (source.width() * 9) / 10);
  const int h = std::max(1, (source.height() * 9) / 10);
  return ResizeBilinear(ResizeBilinear(source, w, h), source.width(), source.height());
}

// Fabricated batch results for engine-only tests (no network involved).
std::vector<ClassifyResult> FakeResults(size_t n, bool is_ad, double latency_ms) {
  std::vector<ClassifyResult> results(n);
  for (auto& r : results) {
    r.is_ad = is_ad;
    r.ad_probability = is_ad ? 0.9f : 0.1f;
    r.latency_ms = latency_ms;
  }
  return results;
}

// ---------------------------------------------------------------------------
// Step-loop conformance: a full workload on a fake clock, caller-owned
// buffers, fabricated results — no threads, no files, no wall clock.

TEST(ServingEngineTest, StepLoopClassifiesFullWorkloadOnFakeClock) {
  ServingEngine engine;
  engine.SetEmitDecisions(true);
  int64_t now = 1000 * kMs;  // arbitrary fake epoch
  EXPECT_EQ(engine.Step(now), EngineAction::kIdle);
  EXPECT_EQ(engine.next_wake_ns(), -1);

  std::vector<Bitmap> frames;
  std::vector<uint64_t> tickets;
  for (int id = 0; id < 3; ++id) {
    frames.push_back(MakeBitmap(id));
  }
  for (Bitmap& frame : frames) {
    SubmitOutcome outcome = engine.Submit(frame, now);
    ASSERT_EQ(outcome.disposition, SubmitDisposition::kAdmitted);
    EXPECT_FALSE(outcome.is_ad);  // fail-open: uncached renders un-blocked
    engine.ProvidePixels(outcome.ticket, &frame);
    tickets.push_back(outcome.ticket);
  }
  // A duplicate of a queued creative rides the queued work.
  Bitmap duplicate = MakeBitmap(1);
  EXPECT_EQ(engine.Submit(duplicate, now).disposition, SubmitDisposition::kCoalesced);
  EXPECT_EQ(engine.pending_size(), 3);

  // No drain open yet: nothing for the caller to do.
  EXPECT_EQ(engine.Step(now), EngineAction::kIdle);

  ASSERT_TRUE(engine.BeginDrain(now, 0.0));
  int batches = 0;
  while (engine.Step(now) == EngineAction::kRunBatch) {
    EngineBatch batch = engine.BeginBatch(2);
    ASSERT_FALSE(batch.empty());
    engine.CompleteBatch(batch, FakeResults(batch.images.size(), /*is_ad=*/true, 0.25), now);
    ++batches;
    now += kMs;  // fake time advances only because the test says so
  }
  EXPECT_EQ(batches, 2);  // 3 frames at max_batch 2
  EXPECT_FALSE(engine.drain_open());
  EXPECT_EQ(engine.pending_size(), 0);
  EXPECT_EQ(engine.memo_size(), 3);

  // Decisions queued for the event-consuming host, one per admitted frame.
  ASSERT_EQ(engine.Step(now), EngineAction::kEmitDecision);
  std::vector<EngineDecision> decisions = engine.TakeDecisions();
  ASSERT_EQ(decisions.size(), 3u);
  for (const EngineDecision& decision : decisions) {
    EXPECT_TRUE(decision.is_ad);
    EXPECT_NE(std::find(tickets.begin(), tickets.end(), decision.ticket), tickets.end());
  }
  EXPECT_EQ(engine.Step(now), EngineAction::kIdle);
  EXPECT_EQ(engine.next_wake_ns(), -1);

  // The memoized decision now answers at Submit time.
  SubmitOutcome hit = engine.Submit(frames[0], now);
  EXPECT_EQ(hit.disposition, SubmitDisposition::kHitExact);
  EXPECT_TRUE(hit.is_ad);

  const ClassifierStats& stats = engine.stats();
  EXPECT_EQ(stats.cache_hits, 1);
  EXPECT_EQ(stats.cache_misses, 4);  // 3 uniques + the coalesced duplicate
  EXPECT_EQ(stats.coalesced, 1);
  EXPECT_EQ(stats.shed, 0);
}

// ---------------------------------------------------------------------------
// Drain budgets run on caller time: an expired budget requeues the tail in
// admission order, and a drain always makes at least one batch of progress.

TEST(ServingEngineTest, DrainBudgetRequeuesTailOnFakeClock) {
  ServingEngine engine;
  std::vector<Bitmap> frames;
  std::vector<uint64_t> tickets;
  for (int id = 0; id < 6; ++id) {
    frames.push_back(MakeBitmap(id));
  }
  for (Bitmap& frame : frames) {
    SubmitOutcome outcome = engine.Submit(frame, 0);
    ASSERT_EQ(outcome.disposition, SubmitDisposition::kAdmitted);
    engine.ProvidePixels(outcome.ticket, &frame);
    tickets.push_back(outcome.ticket);
  }

  const int64_t t0 = 0;
  ASSERT_TRUE(engine.BeginDrain(t0, /*budget_ms=*/5.0));
  ASSERT_EQ(engine.Step(t0), EngineAction::kRunBatch);
  EngineBatch first = engine.BeginBatch(2);
  ASSERT_EQ(first.images.size(), 2u);
  // The executor "took" 10ms of caller time — past the 5ms budget.
  engine.CompleteBatch(first, FakeResults(2, false, 0.1), t0 + 10 * kMs);

  // Budget checked between batches: the drain closes and the unprocessed
  // tail is requeued, still in admission order.
  EXPECT_EQ(engine.Step(t0 + 10 * kMs), EngineAction::kIdle);
  EXPECT_FALSE(engine.drain_open());
  EXPECT_EQ(engine.pending_size(), 4);
  EXPECT_EQ(engine.memo_size(), 2);

  std::vector<uint64_t> redrained;
  ASSERT_TRUE(engine.BeginDrain(t0 + 11 * kMs, 0.0));
  while (engine.Step(t0 + 11 * kMs) == EngineAction::kRunBatch) {
    EngineBatch batch = engine.BeginBatch(2);
    redrained.insert(redrained.end(), batch.tickets.begin(), batch.tickets.end());
    engine.CompleteBatch(batch, FakeResults(batch.images.size(), false, 0.1), t0 + 11 * kMs);
  }
  EXPECT_EQ(redrained, std::vector<uint64_t>(tickets.begin() + 2, tickets.end()));

  // At-least-one-batch: a budget that expired before any batch ran still
  // hands one out (a drain may never starve).
  Bitmap extra = MakeBitmap(100);
  SubmitOutcome outcome = engine.Submit(extra, t0);
  engine.ProvidePixels(outcome.ticket, &extra);
  ASSERT_TRUE(engine.BeginDrain(t0, /*budget_ms=*/0.001));
  EXPECT_EQ(engine.Step(t0 + kMs), EngineAction::kRunBatch);
  EngineBatch batch = engine.BeginBatch(4);
  ASSERT_EQ(batch.images.size(), 1u);
  engine.CompleteBatch(batch, FakeResults(1, false, 0.1), t0 + 2 * kMs);
  EXPECT_FALSE(engine.drain_open());
}

// ---------------------------------------------------------------------------
// The degrade ladder trips on fabricated latencies: consecutive
// over-deadline batches shed uncached frames, memo hits still answer, and
// the frame countdown self-heals — all without a real clock.

TEST(ServingEngineTest, DegradeLadderRunsOnFabricatedLatency) {
  ServingPolicy policy;
  policy.classify_deadline_ms = 1.0;
  policy.degrade_after_misses = 2;
  policy.recover_after_frames = 3;
  ServingEngine engine(policy);

  std::vector<Bitmap> frames;
  for (int id = 0; id < 8; ++id) {
    frames.push_back(MakeBitmap(id));
  }
  int64_t now = 0;
  // Two single-frame drains whose (fabricated) per-image latency blows the
  // 1ms deadline.
  for (int round = 0; round < 2; ++round) {
    SubmitOutcome outcome = engine.Submit(frames[round], now);
    ASSERT_EQ(outcome.disposition, SubmitDisposition::kAdmitted);
    engine.ProvidePixels(outcome.ticket, &frames[round]);
    ASSERT_TRUE(engine.BeginDrain(now, 0.0));
    ASSERT_EQ(engine.Step(now), EngineAction::kRunBatch);
    EngineBatch batch = engine.BeginBatch(1);
    engine.CompleteBatch(batch, FakeResults(1, true, /*latency_ms=*/5.0), now);
    now += kMs;
  }
  EXPECT_TRUE(engine.degraded());
  EXPECT_EQ(engine.stats().deadline_misses, 2);
  EXPECT_EQ(engine.stats().degrade_transitions, 1);

  // Degraded: a memoized creative still answers from L1 (and counts as one
  // of the recover_after_frames = 3 observed frames)...
  SubmitOutcome hit = engine.Submit(frames[0], now);
  EXPECT_EQ(hit.disposition, SubmitDisposition::kHitExact);
  EXPECT_TRUE(hit.is_ad);
  // ...so of the next uncached frames the first sheds and the second lands
  // exactly on the recovery frame: the engine self-heals and admits it.
  EXPECT_EQ(engine.Submit(frames[2], now).disposition, SubmitDisposition::kShed);
  SubmitOutcome recovered = engine.Submit(frames[3], now);
  EXPECT_EQ(recovered.disposition, SubmitDisposition::kAdmitted);
  EXPECT_FALSE(engine.degraded());
  EXPECT_EQ(engine.stats().degrade_transitions, 2);
  EXPECT_GE(engine.stats().degraded_frames, 2);
  EXPECT_EQ(engine.stats().shed, 1);
}

// ---------------------------------------------------------------------------
// The reload retry/backoff schedule is pure caller time: attempts become
// due exactly at now + backoff * 2^k, next_wake_ns() exposes the schedule,
// and exhaustion/success resolve the reload without a sleep anywhere.

TEST(ServingEngineTest, ReloadBackoffScheduleOnFakeClock) {
  ServingPolicy policy;
  policy.reload_max_retries = 2;
  policy.reload_backoff_ms = 10.0;
  ServingEngine engine(policy);

  const int64_t t0 = 500 * kMs;
  engine.RequestReload("/fake/weights.pcvw", t0);
  EXPECT_TRUE(engine.reload_active());
  EXPECT_EQ(engine.ArtifactPath(), "/fake/weights.pcvw");

  // First attempt is due immediately; a failed attempt schedules the next
  // one a (doubling) backoff later.
  ASSERT_EQ(engine.Step(t0), EngineAction::kNeedArtifact);
  engine.ProvideArtifact({}, /*committed=*/false, t0);
  EXPECT_TRUE(engine.reload_active());
  EXPECT_EQ(engine.stats().reload_retries, 1);
  EXPECT_EQ(engine.next_wake_ns(), t0 + 10 * kMs);
  EXPECT_EQ(engine.Step(t0 + 9 * kMs), EngineAction::kIdle);  // not due yet

  ASSERT_EQ(engine.Step(t0 + 10 * kMs), EngineAction::kNeedArtifact);
  engine.ProvideArtifact({}, false, t0 + 10 * kMs);
  EXPECT_EQ(engine.stats().reload_retries, 2);
  EXPECT_EQ(engine.next_wake_ns(), t0 + 30 * kMs);  // backoff doubled to 20ms

  // Third failure exhausts the 2 retries: the reload resolves failed.
  ASSERT_EQ(engine.Step(t0 + 30 * kMs), EngineAction::kNeedArtifact);
  engine.ProvideArtifact({}, false, t0 + 30 * kMs);
  EXPECT_FALSE(engine.reload_active());
  EXPECT_FALSE(engine.reload_succeeded());
  EXPECT_EQ(engine.stats().reload_retries, 2);
  EXPECT_EQ(engine.next_wake_ns(), -1);

  // A committed artifact resolves the reload on the first attempt.
  const int64_t t1 = t0 + 60 * kMs;
  engine.RequestReload("/fake/weights.pcvw", t1);
  ASSERT_EQ(engine.Step(t1), EngineAction::kNeedArtifact);
  engine.ProvideArtifact({1, 2, 3}, /*committed=*/true, t1);
  EXPECT_FALSE(engine.reload_active());
  EXPECT_TRUE(engine.reload_succeeded());
  EXPECT_EQ(engine.stats().reload_retries, 2);  // unchanged
}

// ---------------------------------------------------------------------------
// L2 near-duplicate tier at the exact Hamming boundary: distance == threshold
// hits (and promotes into L1), distance == threshold + 1 rejects.

TEST(ServingEngineTest, NearDupHitsAndRejectsAtHammingBoundary) {
  ServingPolicy policy;
  policy.near_dup_enabled = true;
  policy.near_dup_hamming = 3;
  ServingEngine engine(policy);

  constexpr uint64_t kBase = 0xF0F0F0F0F0F0F0F0ULL;  // mixed pattern
  Bitmap base = MakeBlockBitmap(kBase);
  Bitmap near3 = MakeBlockBitmap(kBase ^ 0x7ULL);   // 3 blocks flipped
  Bitmap near4 = MakeBlockBitmap(kBase ^ 0x0FULL);  // 4 blocks flipped
  // The construction's whole point: block flips == perceptual-hash bits.
  ASSERT_EQ(HammingDistance(AverageHash(base), AverageHash(near3)), 3);
  ASSERT_EQ(HammingDistance(AverageHash(base), AverageHash(near4)), 4);

  // Classify the base creative (fabricated: it is an ad) into both tiers.
  // Its own submit probes the still-empty L2 first — an honest reject.
  SubmitOutcome outcome = engine.Submit(base, 0);
  ASSERT_EQ(outcome.disposition, SubmitDisposition::kAdmitted);
  EXPECT_EQ(engine.stats().near_dup_rejects, 1);
  engine.ProvidePixels(outcome.ticket, &base);
  ASSERT_TRUE(engine.BeginDrain(0, 0.0));
  ASSERT_EQ(engine.Step(0), EngineAction::kRunBatch);
  EngineBatch batch = engine.BeginBatch(1);
  engine.CompleteBatch(batch, FakeResults(1, /*is_ad=*/true, 0.1), 0);
  EXPECT_EQ(engine.memo_size(), 1);
  EXPECT_EQ(engine.near_dup_size(), 1);

  // Distance 3 == threshold: perceptual hit, decision reused, exact hash
  // promoted into L1.
  SubmitOutcome hit = engine.Submit(near3, 0);
  EXPECT_EQ(hit.disposition, SubmitDisposition::kHitNearDup);
  EXPECT_TRUE(hit.is_ad);
  EXPECT_EQ(engine.stats().near_dup_hits, 1);
  EXPECT_EQ(engine.memo_size(), 2);

  // The promoted entry answers the next encounter from L1 directly.
  SubmitOutcome promoted = engine.Submit(near3, 0);
  EXPECT_EQ(promoted.disposition, SubmitDisposition::kHitExact);
  EXPECT_TRUE(promoted.is_ad);
  EXPECT_EQ(engine.stats().near_dup_hits, 1);  // no second L2 hit

  // Distance 4 == threshold + 1: rejected, classified normally (fail-open
  // immediate decision).
  SubmitOutcome reject = engine.Submit(near4, 0);
  EXPECT_EQ(reject.disposition, SubmitDisposition::kAdmitted);
  EXPECT_FALSE(reject.is_ad);
  EXPECT_EQ(engine.stats().near_dup_rejects, 2);
}

// ---------------------------------------------------------------------------
// The adapter refactor is behavior-preserving: a caller-driven engine loop
// and AsyncAdClassifier produce bit-identical decisions and ladder counters
// for the same frame schedule (repeats, coalescing, shedding, re-drains).

TEST(ServingEngineTest, EngineDecisionsBitIdenticalToAsyncAdClassifier) {
  PercivalNetConfig config = TestProfile();
  AdClassifier engine_inner(BuildPercivalNet(config), config);
  AdClassifier async_inner(BuildPercivalNet(config), config);
  ServingPolicy policy;
  policy.max_pending = 8;  // forces shedding within each 20-frame phase
  policy.max_memo_entries = 64;
  ServingEngine engine(policy);
  AsyncAdClassifier async(async_inner);
  async.SetServingPolicy(policy);

  std::deque<Bitmap> retained;  // node-stable engine-side buffers
  auto submit_engine = [&](const Bitmap& image) {
    SubmitOutcome outcome = engine.Submit(image, 0);
    if (outcome.disposition == SubmitDisposition::kAdmitted) {
      retained.push_back(image);
      engine.ProvidePixels(outcome.ticket, &retained.back());
    }
    return outcome.is_ad;
  };
  auto drain_engine = [&] {
    if (!engine.BeginDrain(0, 0.0)) {
      return;
    }
    while (engine.Step(0) == EngineAction::kRunBatch) {
      EngineBatch batch = engine.BeginBatch(4);
      engine.CompleteBatch(batch, engine_inner.ClassifyBatch(batch.images), 0);
    }
  };

  std::vector<bool> engine_decisions;
  std::vector<bool> async_decisions;
  auto submit_both = [&](int id) {
    Bitmap image = MakeBitmap(id);
    engine_decisions.push_back(submit_engine(image));
    async_decisions.push_back(async.OnDecodedFrame(image.info(), image, "url"));
  };

  // Three phases over the same 20 creatives: phase 1 admits 8 and sheds the
  // rest (plus one mid-phase duplicate that coalesces), later phases mix
  // memo hits with fresh admissions.
  for (int phase = 0; phase < 3; ++phase) {
    for (int id = 0; id < 20; ++id) {
      submit_both(id);
      if (phase == 0 && id == 9) {
        submit_both(3);  // duplicate of a queued creative -> coalesce
      }
    }
    drain_engine();
    async.DrainPending(nullptr, 4);
  }

  ASSERT_EQ(engine_decisions.size(), async_decisions.size());
  for (size_t i = 0; i < engine_decisions.size(); ++i) {
    EXPECT_EQ(engine_decisions[i], async_decisions[i]) << "frame " << i;
  }

  // Same decisions AND the same ladder: every admission/memo counter agrees.
  const ClassifierStats engine_stats = engine.stats();
  const ClassifierStats async_stats = async.stats();
  EXPECT_EQ(engine_stats.cache_hits, async_stats.cache_hits);
  EXPECT_EQ(engine_stats.cache_misses, async_stats.cache_misses);
  EXPECT_EQ(engine_stats.hash_collisions, async_stats.hash_collisions);
  EXPECT_EQ(engine_stats.shed, async_stats.shed);
  EXPECT_EQ(engine_stats.coalesced, async_stats.coalesced);
  EXPECT_EQ(engine_stats.evicted, async_stats.evicted);
  EXPECT_GT(engine_stats.cache_hits, 0);
  EXPECT_GT(engine_stats.shed, 0);
  EXPECT_EQ(engine_stats.coalesced, 1);
  EXPECT_EQ(engine_inner.stats().classified, async_inner.stats().classified);
}

// ---------------------------------------------------------------------------
// The accuracy guard that gates near_dup_enabled: on 64 webgen creatives
// (ads and content alternating) perturbed the two realistic ways — pixel
// jitter and a resize round-trip — L2 hits must agree >= 99% with fresh
// classification, and the tier must actually fire (>= half the suite).

TEST(ServingEngineTest, NearDupAccuracyGuard64Images) {
  PercivalNetConfig config = TestProfile();
  AdClassifier inner(BuildPercivalNet(config), config);
  AsyncAdClassifier async(inner);
  AdClassifier oracle(BuildPercivalNet(config), config);
  ServingPolicy policy;
  policy.max_pending = 0;  // unbounded: every original classifies
  policy.near_dup_enabled = true;
  policy.near_dup_hamming = 6;
  async.SetServingPolicy(policy);

  Rng rng(123);
  std::vector<Bitmap> originals;
  originals.reserve(64);
  for (int i = 0; i < 64; ++i) {
    originals.push_back(i % 2 == 0 ? GenerateAdImage(rng, AdImageOptions{})
                                   : GenerateContentImage(rng, ContentImageOptions{}));
  }
  for (Bitmap& image : originals) {
    async.OnDecodedFrame(image.info(), image, "https://ads.example/orig");
  }
  async.DrainPending(nullptr, 16);
  ASSERT_EQ(async.cache_size(), 64);
  // A few originals share an identical AverageHash (last-writer-wins in
  // L2), so the perceptual tier can hold slightly fewer than 64 entries.
  ASSERT_GE(async.near_dup_cache_size(), 48);

  int hits = 0;
  int agreements = 0;
  for (int i = 0; i < 64; ++i) {
    Bitmap perturbed =
        i % 2 == 0 ? Jitter(originals[i], /*seed=*/i) : ResizeRoundTrip(originals[i]);
    const int64_t hits_before = async.stats().near_dup_hits;
    const bool memoized = async.OnDecodedFrame(perturbed.info(), perturbed, "url");
    if (async.stats().near_dup_hits == hits_before) {
      continue;  // honest reject: the perturbation moved the hash too far
    }
    ++hits;
    if (memoized == oracle.Classify(perturbed).is_ad) {
      ++agreements;
    }
  }
  EXPECT_GE(hits, 32);  // the tier must be doing real work on this suite
  EXPECT_GE(agreements, static_cast<int>(std::ceil(hits * 0.99)));
}

}  // namespace
}  // namespace percival
