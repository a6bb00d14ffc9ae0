// The three workloads. Each sets up the deployment configuration, builds
// its inputs from the seed before timing, measures for `seconds`, checks
// the outputs, and fills the report: end-to-end metrics always, per-layer
// metrics in the traced run.
//
// The traced run alternates untraced and traced blocks of kTraceBlockNs:
// end-to-end numbers come from the untraced blocks, spans from the traced
// ones, and the tracing overhead is the difference between the two.
#ifndef PERCIVAL_PERFBENCH_WORKLOADS_H_
#define PERCIVAL_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "perfbench/report.h"
#include "perfbench/trace.h"

namespace perfbench {

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string artifacts;  // directory holding the prepared int8 artifacts
};

inline constexpr int64_t kTraceBlockNs = 500'000'000;
// Set-ups timed before the timed loop, and again after it; setup_s is the
// median of all of them.
inline constexpr int kSetupReps = 11;

// True when the traced run is inside a traced block.
inline bool TracedBlock(const RunOptions& options, int64_t start_ns, int64_t now_ns) {
  return options.trace && ((now_ns - start_ns) / kTraceBlockNs) % 2 == 1;
}

// Each returns false when the workload could not run at all (set-up failed);
// failed correctness checks are recorded as gates in the report.
bool RunPageLoad(const RunOptions& options, Report& report, Tracer& tracer);
bool RunPaperStream(const RunOptions& options, Report& report, Tracer& tracer);
bool RunAsyncRevisit(const RunOptions& options, Report& report, Tracer& tracer);

}  // namespace perfbench

#endif  // PERCIVAL_PERFBENCH_WORKLOADS_H_
