#include "trace.h"

#include <algorithm>
#include <cstdio>

namespace poolbench {

int Tracer::begin(const char* name, std::uint64_t request_id, int parent) {
  if (!enabled_) return -1;
  const auto now = std::chrono::duration_cast<std::chrono::nanoseconds>(
                       Clock::now() - origin_)
                       .count();
  spans_.push_back(Span{name, now, now, parent, request_id, 0.0});
  return static_cast<int>(spans_.size() - 1);
}

double Tracer::end(int id) {
  if (id < 0) return 0.0;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - origin_)
                 .count();
  const double dur = static_cast<double>(s.end_ns - s.start_ns);
  const double self = dur > s.child_ns ? dur - s.child_ns : 0.0;
  if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += dur;
  Stat& st = stats_[s.name];
  ++st.count;
  st.self_ns += self;
  return self;
}

Tracer::Stat Tracer::stat(const std::string& name) const {
  const auto it = stats_.find(std::string_view(name));
  return it == stats_.end() ? Stat{} : it->second;
}

bool Tracer::write(const std::string& path,
                   const std::string& workload) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\": \"%s\",\n \"self_time\": {", workload.c_str());
  bool first = true;
  for (const auto& [name, st] : stats_) {
    std::fprintf(f, "%s\n  \"%.*s\": {\"count\": %llu, \"self_ms\": %.6f, "
                 "\"mean_self_us\": %.4f}",
                 first ? "" : ",", static_cast<int>(name.size()), name.data(),
                 static_cast<unsigned long long>(st.count), st.self_ns / 1e6,
                 st.mean_self_us());
    first = false;
  }
  const std::size_t n = std::min(spans_.size(), kMaxWrittenSpans);
  std::fprintf(f, "},\n \"spans_total\": %zu,\n \"spans\": [", spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n  {\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": "
                 "%lld, \"parent\": %d, \"request_id\": %llu}",
                 i ? "," : "", s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "\n ]}\n");
  return std::fclose(f) == 0;
}

}  // namespace poolbench
