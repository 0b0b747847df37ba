// In-memory spans for the traced pass.
//
// Spans are taken only in the driver, around its calls into each layer's
// public entry points; nothing inside the program is instrumented. A span
// records {name, start, end, parent, request id}. A layer's self time is
// its span's duration minus the durations of its child spans, summed per
// span name as spans close. A disabled Tracer costs one branch per span,
// which is how the untraced phases run the same code.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"

namespace poolbench {

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span and returns its handle (-1 while disabled). `name`
  /// must be a string literal: spans keep the pointer.
  int begin(const char* name, std::uint64_t request_id, int parent = -1);

  /// Closes span `id` (no-op for -1) and returns its self time in ns.
  double end(int id);

  struct Stat {
    std::uint64_t count = 0;
    double self_ns = 0.0;  ///< summed self time
    double mean_self_us() const { return count ? self_ns / count / 1e3 : 0.0; }
    double mean_self_ms() const { return count ? self_ns / count / 1e6 : 0.0; }
  };

  /// Aggregate of every closed span called `name`.
  Stat stat(const std::string& name) const;

  /// Writes the spans (the first kMaxWrittenSpans of them) and the
  /// per-name self-time table as JSON. False when the file cannot be written.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  static constexpr std::size_t kMaxWrittenSpans = 200000;

  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;
    std::uint64_t request_id;
    double child_ns;  ///< summed durations of closed children
  };

  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::map<std::string_view, Stat, std::less<>> stats_;  ///< keyed by name literals
};

}  // namespace poolbench
