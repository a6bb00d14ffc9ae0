// percival_perfbench: runs the deployment-path benchmark workloads.
//
//   percival_perfbench prepare --artifacts DIR
//   percival_perfbench run --workload page_load|paper_stream|async_revisit
//       --seed N --seconds S --trace 0|1 --artifacts DIR --report FILE
//       [--spans FILE]
//
// `run` prints one line per metric and gate, writes the full report as JSON
// to --report and, in the traced run, the spans to --spans. Exit code 0
// when every correctness gate passed, 1 when one failed, 2 on a usage or
// set-up error. perfbench/run.py builds this binary and drives it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/deploy.h"
#include "perfbench/workloads.h"

namespace perfbench {

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: percival_perfbench prepare --artifacts DIR\n"
               "       percival_perfbench run --workload NAME --seed N --seconds S "
               "--trace 0|1 --artifacts DIR --report FILE [--spans FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  std::string workload;
  std::string report_path;
  std::string spans_path;
  RunOptions options;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--artifacts") {
      options.artifacts = value;
    } else if (flag == "--report") {
      report_path = value;
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') {
      return Usage();
    }
  }
  if (options.artifacts.empty()) {
    return Usage();
  }
  if (command == "prepare") {
    return PrepareArtifacts(options.artifacts) ? 0 : 2;
  }
  if (command != "run" || report_path.empty() || !(options.seconds > 0.0)) {
    return Usage();
  }

  Report report;
  Tracer tracer;
  bool ran = false;
  if (workload == "page_load") {
    ran = RunPageLoad(options, report, tracer);
  } else if (workload == "paper_stream") {
    ran = RunPaperStream(options, report, tracer);
  } else if (workload == "async_revisit") {
    ran = RunAsyncRevisit(options, report, tracer);
  } else {
    return Usage();
  }
  if (!ran) {
    std::fprintf(stderr, "perfbench: set-up failed (missing or corrupt artifact?)\n");
    return 2;
  }
  report.Print();
  if (!report.WriteJson(report_path, workload, options.seed, options.seconds,
                        options.trace ? 1 : 0)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", report_path.c_str());
    return 2;
  }
  if (options.trace && !spans_path.empty() && !tracer.WriteChromeJson(spans_path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", spans_path.c_str());
    return 2;
  }
  return report.AllGatesPass() ? 0 : 1;
}
