// Result record of one benchmark run: every metric with its unit, sample
// count and (for ratios) base, the correctness gates, and the host record.
// main.cc writes it as JSON; run.py turns it into the one-line result.
#ifndef PERCIVAL_PERFBENCH_REPORT_H_
#define PERCIVAL_PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  int64_t samples = 0;
  // Ratios: "numerator/denominator" as counted. Percentiles: the highest
  // percentile the sample supports (at least ten samples beyond it).
  std::string base;
  // "e2e" for the end-to-end metrics BENCHMARK.json bounds, "layer" for the
  // per-layer ones, "info" for numbers that are reported but neither.
  std::string kind;
  // End-to-end metrics only: the workload-neutral name BENCHMARK.json lists
  // (latency_ms_p50, ...), which every workload emits under its own
  // workload-specific `name` (page_ms_p50, decision_ms_p50, paint_ms_p50).
  std::string e2e;
};

struct Gate {
  std::string name;
  bool pass = false;
  std::string detail;
};

class Report {
 public:
  void E2e(const std::string& e2e, const std::string& name, double value,
           const std::string& unit, int64_t samples, const std::string& base = "");
  void Layer(const std::string& name, double value, const std::string& unit, int64_t samples,
             const std::string& base = "");
  void Info(const std::string& name, double value, const std::string& unit, int64_t samples,
            const std::string& base = "");
  // A per-layer metric that is off this workload's path: value 0.
  void Absent(const std::string& name, const std::string& unit);
  // `count / total` as a share, recording the base.
  void LayerShare(const std::string& name, int64_t count, int64_t total);
  void InfoShare(const std::string& name, int64_t count, int64_t total);
  void AddGate(const std::string& name, bool pass, const std::string& detail);
  void SetHost(const std::string& key, const std::string& value);

  bool AllGatesPass() const;
  int64_t attempted = 0;
  int64_t failed = 0;

  // Prints one human-readable line per metric and gate.
  void Print() const;
  bool WriteJson(const std::string& path, const std::string& workload, uint64_t seed,
                 double seconds, int trace) const;

 private:
  void Add(Metric metric) { metrics_.push_back(std::move(metric)); }
  static std::string ShareBase(int64_t count, int64_t total);

  std::vector<Metric> metrics_;
  std::vector<Gate> gates_;
  std::vector<std::pair<std::string, std::string>> host_;
};

// Sample summary: sorted copy, linear-interpolated quantiles.
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other);
  int64_t size() const { return static_cast<int64_t>(values_.size()); }
  double Quantile(double q);
  double Mean() const;
  // The highest percentile (as "pNN" text) leaving >= 10 samples beyond it.
  std::string SupportedTail() const;

 private:
  std::vector<double> values_;
  bool sorted_ = false;
};

// Adds the latency_ms_p50 end-to-end metric named `name`_p50, and `name`_p99
// as a reported but unbounded number (run-to-run tails on a shared host
// spread too widely to hold a bound).
void AddLatency(Report& report, const std::string& name, Samples& samples);
// Adds `name`_p50 and `name`_p99 per-layer timing metrics.
void AddLayerPercentiles(Report& report, const std::string& name, Samples& samples);
// The base text of a percentile metric.
std::string TailBase(const Samples& samples);

}  // namespace perfbench

#endif  // PERCIVAL_PERFBENCH_REPORT_H_
