// Named fault points for deterministic failure-path testing.
//
// A fault point is a compiled-in hook on a production code path ("what if
// the forward pass stalls here", "what if this allocation fails") that a
// test or bench arms by name to force the failure deterministically. The
// serving robustness suite drives every rung of the classifier's
// degradation ladder through these instead of relying on real overload.
//
// Design constraints:
//   * Always compiled — the exact binary that ships is the one under test;
//     there is no "fault build" whose behavior could diverge.
//   * Zero-cost when unarmed — the hot-path check is one relaxed atomic
//     load of a process-wide armed counter; the registry (mutex + map) is
//     only touched while at least one fault is armed anywhere.
//   * Thread-safe — faults can be armed/disarmed while other threads run
//     through the instrumented paths; finite trigger counts are consumed
//     atomically (exactly N firings, no double-firing across threads).
#ifndef PERCIVAL_SRC_BASE_FAULTPOINT_H_
#define PERCIVAL_SRC_BASE_FAULTPOINT_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace percival {
namespace faultpoint {

// Canonical fault-point names (keep in sync with the README's serving
// robustness section). Using the constants instead of string literals keeps
// arm sites and check sites from drifting apart.
inline constexpr const char kSlowForward[] = "nn.forward.slow";
inline constexpr const char kArenaAllocFail[] = "nn.arena.alloc_fail";
inline constexpr const char kArtifactCorrupt[] = "serialize.artifact.corrupt";
inline constexpr const char kQueueSaturate[] = "classifier.queue.saturate";

struct FaultSpec {
  // Number of firings before the fault auto-disarms; < 0 fires until
  // Disarm().
  int64_t count = -1;
  // Milliseconds to sleep when the fault fires (the "forced slow" faults).
  // The sleep happens outside the registry lock, so concurrent fault checks
  // on other names are not serialized behind it.
  double delay_ms = 0.0;
};

// Arms `name`. Re-arming an armed fault replaces its spec (the cumulative
// fire count is preserved).
void Arm(const std::string& name, const FaultSpec& spec = FaultSpec{});

// Disarms `name` (no-op when not armed).
void Disarm(const std::string& name);

// Disarms everything; tests call this in teardown so a failed test cannot
// leak an armed fault into the next one.
void DisarmAll();

// True while `name` is armed with remaining firings.
bool IsArmed(const std::string& name);

// Cumulative number of times `name` has fired since process start (survives
// disarm and re-arm).
int64_t FireCount(const std::string& name);

namespace internal {
// Process-wide count of armed fault points; the fast path reads only this.
extern std::atomic<int64_t> g_armed_points;
bool FireSlow(const char* name);
}  // namespace internal

// The instrumented-site check: returns true (after applying the spec's
// delay and consuming one firing) when `name` is armed. This is the only
// call production code makes; everything else is test-side API.
inline bool ShouldFire(const char* name) {
  if (internal::g_armed_points.load(std::memory_order_relaxed) == 0) {
    return false;  // unarmed fast path: one relaxed load, no branch history
  }
  return internal::FireSlow(name);
}

}  // namespace faultpoint
}  // namespace percival

#endif  // PERCIVAL_SRC_BASE_FAULTPOINT_H_
