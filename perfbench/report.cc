#include "perfbench/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {
namespace {

std::string Escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n') ? ' ' : c;
  }
  return out;
}

double Ratio(int64_t count, int64_t total) {
  return total > 0 ? static_cast<double>(count) / static_cast<double>(total) : 0.0;
}

}  // namespace

void Report::E2e(const std::string& e2e, const std::string& name, double value,
                 const std::string& unit, int64_t samples, const std::string& base) {
  Add(Metric{name, value, unit, samples, base, "e2e", e2e});
}

void Report::Layer(const std::string& name, double value, const std::string& unit,
                   int64_t samples, const std::string& base) {
  Add(Metric{name, value, unit, samples, base, "layer", ""});
}

void Report::Info(const std::string& name, double value, const std::string& unit,
                  int64_t samples, const std::string& base) {
  Add(Metric{name, value, unit, samples, base, "info", ""});
}

void Report::Absent(const std::string& name, const std::string& unit) {
  Layer(name, 0.0, unit, 0, "not on this workload's path");
}

std::string Report::ShareBase(int64_t count, int64_t total) {
  return std::to_string(count) + "/" + std::to_string(total);
}

void Report::LayerShare(const std::string& name, int64_t count, int64_t total) {
  Layer(name, Ratio(count, total), "share", total, ShareBase(count, total));
}

void Report::InfoShare(const std::string& name, int64_t count, int64_t total) {
  Info(name, Ratio(count, total), "share", total, ShareBase(count, total));
}

void Report::AddGate(const std::string& name, bool pass, const std::string& detail) {
  gates_.push_back(Gate{name, pass, detail});
}

void Report::SetHost(const std::string& key, const std::string& value) {
  host_.emplace_back(key, value);
}

bool Report::AllGatesPass() const {
  return std::all_of(gates_.begin(), gates_.end(), [](const Gate& g) { return g.pass; });
}

void Report::Print() const {
  for (const auto& [key, value] : host_) {
    std::printf("host   %-28s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : metrics_) {
    const std::string name = m.e2e.empty() || m.e2e == m.name ? m.name : m.name + " (" + m.e2e + ")";
    std::printf("%-6s %-44s %14.6f %-6s n=%lld%s%s\n", m.kind.c_str(), name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples), m.base.empty() ? "" : "  ",
                m.base.c_str());
  }
  for (const Gate& g : gates_) {
    std::printf("gate   %-34s %s  %s\n", g.name.c_str(), g.pass ? "PASS" : "FAIL",
                g.detail.c_str());
  }
  std::fflush(stdout);
}

bool Report::WriteJson(const std::string& path, const std::string& workload, uint64_t seed,
                       double seconds, int trace) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  out << "{\n  \"workload\": \"" << workload << "\",\n  \"seed\": " << seed
      << ",\n  \"seconds\": " << seconds << ",\n  \"trace\": " << trace
      << ",\n  \"correct\": " << (AllGatesPass() ? "true" : "false")
      << ",\n  \"attempted\": " << attempted << ",\n  \"failed\": " << failed
      << ",\n  \"host\": {";
  for (size_t i = 0; i < host_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << "\"" << Escape(host_[i].first) << "\": \""
        << Escape(host_[i].second) << "\"";
  }
  out << "},\n  \"metrics\": [\n";
  char value[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::snprintf(value, sizeof(value), "%.9g", std::isfinite(m.value) ? m.value : 0.0);
    out << "    {\"name\": \"" << Escape(m.name) << "\", \"kind\": \"" << m.kind
        << "\", \"e2e\": \"" << m.e2e << "\", \"value\": " << value << ", \"unit\": \"" << Escape(m.unit)
        << "\", \"samples\": " << m.samples << ", \"base\": \"" << Escape(m.base) << "\"}"
        << (i + 1 < metrics_.size() ? ",\n" : "\n");
  }
  out << "  ],\n  \"gates\": [\n";
  for (size_t i = 0; i < gates_.size(); ++i) {
    const Gate& g = gates_[i];
    out << "    {\"name\": \"" << Escape(g.name) << "\", \"pass\": " << (g.pass ? "true" : "false")
        << ", \"detail\": \"" << Escape(g.detail) << "\"}" << (i + 1 < gates_.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  out.flush();
  return static_cast<bool>(out);
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) {
  if (values_.empty()) {
    return 0.0;
  }
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  const double pos = q * static_cast<double>(values_.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values_.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values_[lo] + (values_[hi] - values_[lo]) * frac;
}

double Samples::Mean() const {
  return values_.empty()
             ? 0.0
             : std::accumulate(values_.begin(), values_.end(), 0.0) /
                   static_cast<double>(values_.size());
}

std::string Samples::SupportedTail() const {
  // Largest whole percentile p with n * (1 - p/100) >= 10.
  const double n = static_cast<double>(values_.size());
  if (n < 20) {
    return "none";
  }
  char text[32];
  const double p = std::floor(100.0 * (1.0 - 10.0 / n) * 10.0) / 10.0;
  std::snprintf(text, sizeof(text), "p%.1f", p);
  return text;
}

std::string TailBase(const Samples& samples) {
  return "n supports up to " + samples.SupportedTail();
}

void AddLatency(Report& report, const std::string& name, Samples& samples) {
  report.E2e("latency_ms_p50", name + "_p50", samples.Quantile(0.5), "ms", samples.size(),
             TailBase(samples));
  report.Info(name + "_p99", samples.Quantile(0.99), "ms", samples.size(), TailBase(samples));
}

void AddLayerPercentiles(Report& report, const std::string& name, Samples& samples) {
  report.Layer(name + "_p50", samples.Quantile(0.5), "ms", samples.size(), TailBase(samples));
  report.Layer(name + "_p99", samples.Quantile(0.99), "ms", samples.size(), TailBase(samples));
}

}  // namespace perfbench
