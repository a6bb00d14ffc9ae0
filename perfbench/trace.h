// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own files, around its calls into each layer's public
// functions; nothing inside src/ is instrumented. Each span has a name, a
// start and end on the steady clock, a request id shared by the spans of
// one request, and the id of the span that caused it. Spans stay in memory
// and are written once, at exit, as Chrome trace-event JSON.
#ifndef PERCIVAL_PERFBENCH_TRACE_H_
#define PERCIVAL_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "perfbench/report.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  uint64_t request = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint32_t thread = 0;  // small per-thread index, for the trace viewer
  double DurationMs() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

class Tracer {
 public:
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  // Records a finished span; returns its id. Thread-safe.
  uint64_t Record(const char* name, uint64_t parent, uint64_t request, int64_t start_ns,
                  int64_t end_ns, uint64_t id = 0);

  // Durations (ms) of every span called `name`.
  Samples Durations(const std::string& name) const;
  // Per span called `name`: its duration minus the union of the intervals
  // its direct children cover (the layer's self time).
  Samples SelfTimes(const std::string& name) const;
  // Per span called `name`: its duration minus the summed durations of its
  // children, for children recorded outside the parent's interval (the
  // post-loop stage replays stand in for the stages the parent ran).
  Samples MinusChildDurations(const std::string& name) const;

  // Writes every span as Chrome trace-event JSON (chrome://tracing, Perfetto).
  bool WriteChromeJson(const std::string& path) const;

 private:
  std::map<uint64_t, std::vector<const Span*>> ChildrenByParent() const;

  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERCIVAL_PERFBENCH_TRACE_H_
