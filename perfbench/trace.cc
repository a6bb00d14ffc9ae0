#include "perfbench/trace.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {
namespace {

uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace

uint64_t Tracer::Record(const char* name, uint64_t parent, uint64_t request, int64_t start_ns,
                        int64_t end_ns, uint64_t id) {
  if (id == 0) {
    id = NewId();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, id, parent, request, start_ns, end_ns, ThreadIndex()});
  return id;
}

Samples Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  Samples out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.Add(span.DurationMs());
    }
  }
  return out;
}

std::map<uint64_t, std::vector<const Span*>> Tracer::ChildrenByParent() const {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& span : spans_) {
    if (span.parent != 0) {
      children[span.parent].push_back(&span);
    }
  }
  return children;
}

Samples Tracer::SelfTimes(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto children = ChildrenByParent();
  Samples out;
  for (const Span& span : spans_) {
    if (name != span.name) {
      continue;
    }
    // Union of the children's intervals clipped to the parent: children on
    // parallel threads (two raster workers) must not be subtracted twice.
    std::vector<std::pair<int64_t, int64_t>> intervals;
    if (auto it = children.find(span.id); it != children.end()) {
      for (const Span* child : it->second) {
        const int64_t lo = std::max(child->start_ns, span.start_ns);
        const int64_t hi = std::min(child->end_ns, span.end_ns);
        if (hi > lo) {
          intervals.emplace_back(lo, hi);
        }
      }
    }
    std::sort(intervals.begin(), intervals.end());
    int64_t covered = 0;
    int64_t cursor = span.start_ns;
    for (const auto& [lo, hi] : intervals) {
      const int64_t from = std::max(lo, cursor);
      if (hi > from) {
        covered += hi - from;
        cursor = hi;
      }
    }
    out.Add(static_cast<double>(span.end_ns - span.start_ns - covered) * 1e-6);
  }
  return out;
}

Samples Tracer::MinusChildDurations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto children = ChildrenByParent();
  Samples out;
  for (const Span& span : spans_) {
    if (name != span.name) {
      continue;
    }
    auto it = children.find(span.id);
    if (it == children.end()) {
      continue;  // no replay was taken for this request
    }
    double child_ms = 0.0;
    for (const Span* child : it->second) {
      child_ms += child->DurationMs();
    }
    out.Add(span.DurationMs() - child_ms);
  }
  return out;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\": [\n";
  char line[320];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %llu, "
                  "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                  "\"request\": %llu}}%s\n",
                  s.name, static_cast<unsigned long long>(s.thread),
                  static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                  static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request), i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
